package advisor_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/advisor"
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
// the advisor inputs of both doors: the live result and its journal.
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
	res, err := fault.RunModel(tgt, sites, model, fault.CampaignOptions{
		KeepPerSite: true,
		Journal:     j,
		Shard:       shard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	live, err = advisor.FromCampaign(tgt, fp, sites, res)
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

// TestFromCampaignRejects checks the live door's input contract: a result
// without per-site outcomes, or from a campaign that did not run every
// site, is refused rather than ranked.
func TestFromCampaignRejects(t *testing.T) {
	tgt := identityTarget(t)
	if err := tgt.Prepare(); err != nil {
		t.Fatal(err)
	}
	model := fault.ModelDestValue
	sites := fault.Uniform(fault.NewSpace(tgt.Profile()).RandomModel(stats.NewRNG(3), 40, model))
	fp := tgt.JournalFingerprint(model, len(sites), "small", 3, fault.Shard{Index: 0, Count: 1})

	res, err := fault.RunModel(tgt, sites, model, fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := advisor.FromCampaign(tgt, fp, sites, res); err == nil ||
		!strings.Contains(err.Error(), "KeepPerSite") {
		t.Fatalf("want KeepPerSite error, got %v", err)
	}

	res, err = fault.RunModel(tgt, sites, model, fault.CampaignOptions{
		KeepPerSite: true,
		Shard:       fault.Shard{Index: 0, Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := advisor.FromCampaign(tgt, fp, sites, res); err == nil ||
		!strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("want incomplete-campaign error for a sharded result, got %v", err)
	}
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
