package advisor_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/advisor"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/journal"
	"repro/internal/ptx"
	"repro/internal/report"
	"repro/internal/stats"
)

// identityTarget builds a small two-CTA kernel with a loop, enough outcome
// variety to exercise every ranking bucket.
func identityTarget(t *testing.T) *fault.Target {
	t.Helper()
	prog, err := ptx.Assemble("idk", `
		cvt.u32.u16 $r0, %tid.x
		cvt.u32.u16 $r1, %ctaid.x
		cvt.u32.u16 $r2, %ntid.x
		mad.lo.u32 $r0, $r1, $r2, $r0
		shl.u32 $r3, $r0, 0x00000002
		add.u32 $r3, $r3, s[0x0010]
		ld.global.u32 $r4, [$r3]
		mul.lo.u32 $r4, $r4, $r4
		add.u32 $r5, $r3, s[0x0014]
		st.global.u32 [$r5], $r4
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(4 * 32)
	in := make([]uint32, 8)
	for i := range in {
		in[i] = uint32(3*i + 2)
	}
	dev.WriteWords(0, in)
	return &fault.Target{
		Name:   "idk",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 2, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 4, Y: 1, Z: 1},
		Params: []uint32{0, 4 * 8},
		Init:   dev,
		Output: []fault.Range{{Off: 4 * 8, Len: 4 * 8}},
	}
}

// TestLiveJournalByteIdentity is the tentpole's acceptance property at the
// package level: advising from a live in-process campaign and from that
// campaign's replayed journal must produce byte-identical JSON documents,
// in the destination, address and stuck-at site spaces alike.
func TestLiveJournalByteIdentity(t *testing.T) {
	tgt := identityTarget(t)
	if err := tgt.Prepare(); err != nil {
		t.Fatal(err)
	}
	for _, model := range []fault.Model{fault.ModelDestValue, fault.ModelMemAddr, fault.ModelStuckPred} {
		liveIn, journalIn := liveAndJournal(t, tgt, model)
		for _, opt := range []advisor.Options{
			{},
			{RankBy: advisor.RankSeverity, Confidence: 0.99, Budgets: []float64{2, 10, 50}},
		} {
			var live, replay bytes.Buffer
			adv, err := advisor.Analyze(liveIn, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := report.Write(&live, adv); err != nil {
				t.Fatal(err)
			}
			adv, err = advisor.Analyze(journalIn, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := report.Write(&replay, adv); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live.Bytes(), replay.Bytes()) {
				t.Fatalf("%s: live and journal advice differ under %+v:\nlive:   %s\nreplay: %s",
					model, opt, live.String(), replay.String())
			}
		}
	}
}

// liveAndJournal runs one journaled campaign of model on tgt and returns
// the advisor inputs of both doors: the records its Progress hook handed
// over, collected by site index as fsadvise's live door collects them, and
// its journal.
func liveAndJournal(t *testing.T, tgt *fault.Target, model fault.Model) (live, replayed *advisor.Input) {
	t.Helper()
	const seed, nSites = 9, 120
	space := fault.NewSpace(tgt.Profile())
	rng := stats.NewRNG(seed).Split("baseline")
	sites := fault.Uniform(space.RandomModel(rng, nSites, model))

	shard := fault.Shard{Index: 0, Count: 1}
	fp := tgt.JournalFingerprint(model, len(sites), "small", seed, shard)
	path := filepath.Join(t.TempDir(), "identity.journal")
	j, err := journal.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	liveRecs := make([]journal.Record, len(sites))
	_, err = fault.RunModel(tgt, sites, model, fault.CampaignOptions{
		Journal:  j,
		Shard:    shard,
		Progress: func(r journal.Record) { liveRecs[r.Index] = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	live, err = advisor.FromJournal(tgt, fp, liveRecs)
	if err != nil {
		t.Fatal(err)
	}
	readFP, recs, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err = advisor.FromJournal(tgt, readFP, recs)
	if err != nil {
		t.Fatal(err)
	}
	return live, replayed
}

// TestFromJournalRejectsWrongTarget replays a journal against a target
// with a different thread population and expects a loud failure, not
// silent mis-attribution.
func TestFromJournalRejectsWrongTarget(t *testing.T) {
	tgt := identityTarget(t)
	if err := tgt.Prepare(); err != nil {
		t.Fatal(err)
	}
	nThreads := len(tgt.Profile().Threads)
	fp := journal.Fingerprint{Kernel: "idk", Seed: 1, Model: "dest-value", Sites: 1, ShardCount: 1}
	recs := []journal.Record{{Index: 0, Thread: nThreads, DynInst: 0, Bit: 0, Outcome: 0, Weight: 1}}
	if _, err := advisor.FromJournal(tgt, fp, recs); err == nil {
		t.Fatal("want error for out-of-range thread, got nil")
	}
	recs[0].Thread = 0
	recs[0].DynInst = 1 << 40
	if _, err := advisor.FromJournal(tgt, fp, recs); err == nil {
		t.Fatal("want error for out-of-range dynamic instruction, got nil")
	}
}

// TestFromJournalRejectsIncompleteOrUnordered: FromJournal takes the
// complete campaign in site-index order, as journal.ReadFile and
// journal.Merge return it; a missing site or a completion-order stream is
// refused rather than ranked.
func TestFromJournalRejectsIncompleteOrUnordered(t *testing.T) {
	tgt := identityTarget(t)
	if err := tgt.Prepare(); err != nil {
		t.Fatal(err)
	}
	fp := journal.Fingerprint{Kernel: "idk", Seed: 1, Model: "dest-value", Sites: 3, ShardCount: 1}
	recs := []journal.Record{{Index: 0, Weight: 1}, {Index: 1, Weight: 1}, {Index: 2, Weight: 1}}
	if _, err := advisor.FromJournal(tgt, fp, recs); err != nil {
		t.Fatalf("complete, ordered records: %v", err)
	}
	if _, err := advisor.FromJournal(tgt, fp, recs[:2]); err == nil ||
		!strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("want incomplete-campaign error, got %v", err)
	}
	unordered := []journal.Record{recs[1], recs[0], recs[2]}
	if _, err := advisor.FromJournal(tgt, fp, unordered); err == nil ||
		!strings.Contains(err.Error(), "site-index order") {
		t.Fatalf("want ordering error, got %v", err)
	}
}

// TestHeaderReachesDocuments: the merged report and the advice document
// carry their campaign's journal header whole, warp width and shard
// included, so the same campaign under the two schedulers yields two
// documents that name different campaigns. Each document is read back as
// a header from its JSON bytes.
func TestHeaderReachesDocuments(t *testing.T) {
	headerOf := func(t *testing.T, doc any) journal.Fingerprint {
		t.Helper()
		var buf bytes.Buffer
		if err := report.Write(&buf, doc); err != nil {
			t.Fatal(err)
		}
		var fp journal.Fingerprint
		if err := json.Unmarshal(buf.Bytes(), &fp); err != nil {
			t.Fatal(err)
		}
		return fp
	}
	dir := t.TempDir()
	cache := fault.NewPreparedCache(0)
	var merged, advice []journal.Fingerprint
	for _, warp := range []int{0, 32} {
		var p *campaign.Prepared
		var paths []string
		for i := range 2 {
			s := campaign.Spec{Kernel: "GEMM K1", Scale: "small", Seed: 1, Sites: 40, Model: "dest-value",
				Warp: warp, ShardIndex: i, ShardCount: 2}
			var err error
			if p, err = s.Prepare(cache); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("w%d-s%d.journal", warp, i))
			j, err := journal.Open(path, s.Fingerprint())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(fault.CampaignOptions{Parallelism: 1, Journal: j}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}

		// The shard 1/2 journal's report names shard 1 of 2 at this warp.
		fp, recs, err := journal.ReadFile(paths[1])
		if err != nil {
			t.Fatal(err)
		}
		doc, err := report.NewMerged(fp, recs)
		if err != nil {
			t.Fatal(err)
		}
		got := headerOf(t, doc)
		if got != fp || got.Warp != warp || got.ShardCount != 2 {
			t.Errorf("warp %d: merged report names %s, journal header %s", warp, got, fp)
		}
		merged = append(merged, got)

		// Advice on the merged shards names the merged campaign.
		fp, recs, err = journal.Merge(paths, false)
		if err != nil {
			t.Fatal(err)
		}
		in, err := advisor.FromJournal(p.Target, fp, recs)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := advisor.Analyze(in, advisor.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got = headerOf(t, adv)
		if got != fp || got.Warp != warp || got.ShardCount != 2 {
			t.Errorf("warp %d: advice names %s, journal header %s", warp, got, fp)
		}
		advice = append(advice, got)
	}
	if merged[0] == merged[1] || advice[0] == advice[1] {
		t.Errorf("warp 0 and warp 32 documents name one campaign: %s, %s", merged[0], advice[0])
	}
}
