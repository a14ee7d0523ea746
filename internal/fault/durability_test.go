package fault_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/stats"
)

// durabilityCampaign is the shared fixture of the end-to-end durability
// tests: a tinyTarget campaign whose sampled sites produce masked, SDC and
// crash outcomes.
func durabilityCampaign(t *testing.T) (*fault.Target, []fault.WeightedSite) {
	t.Helper()
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	return tg, fault.Uniform(space.Random(stats.NewRNG(21), 120))
}

func fingerprintFor(tg *fault.Target, n int, shard fault.Shard) journal.Fingerprint {
	return tg.JournalFingerprint(fault.ModelDestValue, n, "test", 21, shard)
}

// TestCampaignInterruptResume is the differential property the journal
// exists for: interrupt a campaign partway (then corrupt the torn tail, as a
// kill -9 mid-write would), resume it from the journal, and the final
// distribution and per-site outcomes must be bit-identical to a run that was
// never interrupted.
func TestCampaignInterruptResume(t *testing.T) {
	tg, sites := durabilityCampaign(t)

	ref, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: 2, KeepPerSite: true})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.journal")
	j, err := journal.Open(path, fingerprintFor(tg, len(sites), fault.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	// The interrupt lands from inside the campaign, a quarter of the way in:
	// a goroutine polling j.Count() loses the race against 120 sites of a
	// few microseconds each, and the run then ends uninterrupted.
	intr := make(chan struct{})
	var once sync.Once
	var completed atomic.Int64
	_, err = fault.Run(tg, sites, fault.CampaignOptions{
		Parallelism: 2, Journal: j, Interrupt: intr,
		Progress: func(journal.Record) {
			if completed.Add(1) >= int64(len(sites)/4) {
				once.Do(func() { close(intr) })
			}
		},
	})
	if !errors.Is(err, fault.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if j.Count() >= len(sites) {
		t.Skip("campaign finished before the interrupt landed")
	}
	j.Close()

	// A kill -9 mid-append leaves a torn final frame; the reopen must shed
	// it and resume from the last complete record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := journal.Open(path, fingerprintFor(tg, len(sites), fault.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	partial := j2.Count()
	if partial == 0 || partial >= len(sites) {
		t.Fatalf("journal resumed with %d of %d records", partial, len(sites))
	}
	res, err := fault.Run(tg, sites, fault.CampaignOptions{
		Parallelism: 2, KeepPerSite: true, Journal: j2,
		Sink: &fault.StatsSink{},
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Dist != ref.Dist {
		t.Fatalf("resumed dist %v != uninterrupted %v", res.Dist, ref.Dist)
	}
	if res.Completed != len(sites) || res.Completed != ref.Completed {
		t.Fatalf("resumed completed %d, reference %d, want %d", res.Completed, ref.Completed, len(sites))
	}
	for i := range ref.PerSite {
		if res.PerSite[i] != ref.PerSite[i] {
			t.Fatalf("site %d: resumed %v, reference %v", i, res.PerSite[i], ref.PerSite[i])
		}
	}
	if j2.Count() != len(sites) {
		t.Fatalf("journal holds %d records after completion, want %d", j2.Count(), len(sites))
	}

	// Resuming a complete journal replays everything and runs nothing.
	j3, err := journal.Open(path, fingerprintFor(tg, len(sites), fault.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	var sink fault.StatsSink
	res3, err := fault.Run(tg, sites, fault.CampaignOptions{Journal: j3, Sink: &sink})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Dist != ref.Dist {
		t.Fatalf("fully replayed dist %v != reference %v", res3.Dist, ref.Dist)
	}
	if st := sink.Total(); st.Runs != 0 || st.Replayed != int64(len(sites)) {
		t.Fatalf("full replay ran %d sites, replayed %d", st.Runs, st.Replayed)
	}
}

// TestCampaignShardMerge: two shard campaigns, journaled separately and
// merged with journal.Merge, reproduce the single-process distribution
// bit-for-bit.
func TestCampaignShardMerge(t *testing.T) {
	tg, sites := durabilityCampaign(t)

	ref, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths := make([]string, 2)
	completed := 0
	for idx := range paths {
		sh := fault.Shard{Index: idx, Count: 2}
		paths[idx] = filepath.Join(dir, "shard"+string(rune('0'+idx))+".journal")
		j, err := journal.Open(paths[idx], fingerprintFor(tg, len(sites), sh))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fault.Run(tg, sites, fault.CampaignOptions{
			Parallelism: 2, Journal: j, Shard: sh,
		})
		if err != nil {
			t.Fatal(err)
		}
		completed += res.Completed
		if res.Completed != j.Count() {
			t.Fatalf("shard %d: completed %d but journaled %d", idx, res.Completed, j.Count())
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if completed != len(sites) {
		t.Fatalf("shards completed %d sites, want %d", completed, len(sites))
	}

	fp, recs, err := journal.Merge(paths, false)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Sites != len(sites) || len(recs) != len(sites) {
		t.Fatalf("merge: fp.Sites=%d records=%d, want %d", fp.Sites, len(recs), len(sites))
	}
	// Merge returns records sorted by site index, so aggregating in record
	// order reproduces the engine's input-order float summation exactly.
	var merged fault.Dist
	for i, r := range recs {
		if r.Index != i {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
		o := fault.Outcome(r.Outcome)
		if !o.Valid() {
			t.Fatalf("record %d: invalid outcome %d", i, r.Outcome)
		}
		merged.Add(o, r.Weight)
	}
	if merged != ref.Dist {
		t.Fatalf("merged shard dist %v != single-process %v", merged, ref.Dist)
	}

	// Strict merge of one shard alone fails; allowPartial accepts it.
	if _, _, err := journal.Merge(paths[:1], false); err == nil {
		t.Fatal("strict merge accepted a missing shard")
	}
	if _, recs, err := journal.Merge(paths[:1], true); err != nil || len(recs) == 0 {
		t.Fatalf("partial merge: %v (%d records)", err, len(recs))
	}
}

// TestShardIndexWithoutCount: only the zero Shard stands for the whole
// campaign, so a shard index with Count 0 is refused rather than run as
// every site.
func TestShardIndexWithoutCount(t *testing.T) {
	tg, sites := durabilityCampaign(t)
	if res, err := fault.Run(tg, sites, fault.CampaignOptions{Shard: fault.Shard{Index: 1}}); err == nil {
		t.Fatalf("shard index 1 with count 0 accepted: ran %d of %d sites", res.Completed, len(sites))
	}
}

// tuning is one engine configuration a campaign can run under: the Target's
// first intra-CTA capture stride, or FullRun, which decide how fast a site's
// outcome arrives and never which outcome it is.
type tuning struct {
	intra int
	full  bool
}

var (
	tuneAuto = tuning{}
	// A first capture stride of 256 retired instructions, every capture
	// kept (tunedCampaign checks): nearly every site resumes mid-CTA.
	tuneDense = tuning{intra: 256}
	// The full-run reference engine: no snapshots at all.
	tuneFull = tuning{full: true}
)

// tunedCampaign prepares a registry kernel at small scale under one tuning
// and derives the campaign's n-site list the way every entry point does.
func tunedCampaign(t *testing.T, kernel string, model fault.Model, warp int, tune tuning, n int) (*fault.Target, []fault.WeightedSite) {
	t.Helper()
	ks, ok := kernels.ByName(kernel)
	if !ok {
		t.Fatalf("unknown kernel %q", kernel)
	}
	inst, err := ks.Build(kernels.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	tg := inst.Target
	tg.WarpSize, tg.FullRun = warp, tune.full
	fault.SetIntraStart(tg, tune.intra)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	if tune.intra > 0 {
		assertEveryCapture(t, tg, tune.intra)
	}
	rng := stats.NewRNG(1).Split("baseline")
	return tg, fault.Uniform(fault.NewSpace(tg.Profile()).RandomModel(rng, n, model))
}

// resultFields returns the index-sorted records of a complete set of shard
// journals with the three cost fields cleared. cs, ee and ir describe how
// the engine configuration that executed a site got there (CTAs skipped,
// boundary exit, intra-CTA resume); they legitimately differ between
// strides and are not part of a site's result. Everything else — i, t, d, b,
// o, w, a, e — must not.
func resultFields(t *testing.T, paths ...string) (journal.Fingerprint, []journal.Record) {
	t.Helper()
	fp, recs, err := journal.Merge(paths, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].CTAsSkipped, recs[i].EarlyExit, recs[i].IntraResumed = 0, false, false
	}
	return fp, recs
}

// runJournaled runs (or resumes) one shard of a campaign into the journal
// at path, interrupting it once stopAt sites are complete (0 = never).
func runJournaled(t *testing.T, tg *fault.Target, sites []fault.WeightedSite, model fault.Model, path string, sh fault.Shard, stopAt int) *fault.CampaignResult {
	t.Helper()
	j, err := journal.Open(path, tg.JournalFingerprint(model, len(sites), "small", 1, sh))
	if err != nil {
		t.Fatal(err)
	}
	opt := fault.CampaignOptions{Parallelism: 2, KeepPerSite: true, Journal: j, Shard: sh}
	if stopAt > 0 {
		intr := make(chan struct{})
		var once sync.Once
		var completed atomic.Int64
		completed.Store(int64(len(j.Replayed())))
		opt.Interrupt = intr
		opt.Progress = func(journal.Record) {
			if completed.Add(1) >= int64(stopAt) {
				once.Do(func() { close(intr) })
			}
		}
	}
	res, err := fault.RunModel(tg, sites, model, opt)
	if stopAt > 0 {
		if !errors.Is(err, fault.ErrInterrupted) {
			t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
		}
		if n := j.Count(); n < stopAt || n >= sh.Owned(len(sites)) {
			t.Fatalf("interrupt at %d left %d of %d records", stopAt, n, sh.Owned(len(sites)))
		}
	} else if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiveStatsMatchMerged: the counters a journaled campaign reports live
// are the ones report.NewMerged rebuilds from its journal — runs, retries,
// quarantines and the fast-forward savings — because both tally each site
// through CampaignStats.AddRecord. GEMM K1 skips CTAs and exits early;
// HotSpot K1 with dense warp snapshots resumes inside the injected CTA.
func TestLiveStatsMatchMerged(t *testing.T) {
	const n = 120
	var seen struct{ ctasSkipped, earlyExits, intraSkips int64 }
	for _, c := range []struct {
		kernel string
		tune   tuning
	}{{"GEMM K1", tuneAuto}, {"HotSpot K1", tuneDense}} {
		t.Run(c.kernel, func(t *testing.T) {
			tg, sites := tunedCampaign(t, c.kernel, fault.ModelDestValue, 0, c.tune, n)
			path := filepath.Join(t.TempDir(), "c.journal")
			res := runJournaled(t, tg, sites, fault.ModelDestValue, path, fault.Shard{}, 0)
			fp, recs, err := journal.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := report.NewMerged(fp, recs)
			if err != nil {
				t.Fatal(err)
			}
			live, merged := report.NewCampaign(res.Stats), doc.Campaign
			type counters struct{ runs, retries, quarantined, ctasSkipped, earlyExits, intraSkips int64 }
			got := counters{live.Runs, live.Retries, live.Quarantined, live.CTAsSkipped, live.EarlyExits, live.IntraSkips}
			want := counters{merged.Runs, merged.Retries, merged.Quarantined, merged.CTAsSkipped, merged.EarlyExits, merged.IntraSkips}
			if got != want || doc.Quarantined != len(res.Quarantined) {
				t.Fatalf("live counters %+v (%d quarantined), merged from the journal %+v (%d)",
					got, len(res.Quarantined), want, doc.Quarantined)
			}
			seen.ctasSkipped += got.ctasSkipped
			seen.earlyExits += got.earlyExits
			seen.intraSkips += got.intraSkips
		})
	}
	if !t.Failed() && (seen.ctasSkipped == 0 || seen.earlyExits == 0 || seen.intraSkips == 0) {
		t.Fatalf("the campaigns exercised too little of the engine: %+v", seen)
	}
}

// TestCampaignInterruptResumeAcrossStrides is the checkpointed = full-run
// contract (DESIGN.md §3.1) and the resumed = uninterrupted
// contract (§3.5) tested as one: a campaign interrupted under one engine tuning and
// resumed under another — the default or a dense first intra-CTA capture
// stride, or FullRun — finishes with the outcomes, weights, attempt counts
// and merged report of a run that was never interrupted and never retuned,
// which is why tuning is not part of journal.Fingerprint. The two-shard
// variant runs one shard with dense warp snapshots and the other under
// FullRun and merges them: a shard's sites must not depend on the engine.
func TestCampaignInterruptResumeAcrossStrides(t *testing.T) {
	const n = 64
	for _, kernel := range []string{"GEMM K1", "HotSpot K1"} {
		for _, model := range []fault.Model{fault.ModelDestValue, fault.ModelStuckPred} {
			for _, warp := range []int{0, 32} {
				t.Run(fmt.Sprintf("%s/%s/warp%d", kernel, model, warp), func(t *testing.T) {
					dir := t.TempDir()
					targets := map[tuning]*fault.Target{}
					var sites []fault.WeightedSite
					for _, tune := range []tuning{tuneAuto, tuneDense, tuneFull} {
						tg, s := tunedCampaign(t, kernel, model, warp, tune, n)
						if sites != nil && !reflect.DeepEqual(s, sites) {
							t.Fatalf("tuning %+v changed the site list", tune)
						}
						targets[tune], sites = tg, s
					}

					refPath := filepath.Join(dir, "ref.journal")
					ref := runJournaled(t, targets[tuneAuto], sites, model, refPath, fault.Shard{}, 0)
					refFP, refRecs := resultFields(t, refPath)
					refDoc, err := report.NewMerged(refFP, refRecs)
					if err != nil {
						t.Fatal(err)
					}
					same := func(name string, res *fault.CampaignResult, paths ...string) {
						t.Helper()
						fp, recs := resultFields(t, paths...)
						if !reflect.DeepEqual(recs, refRecs) {
							t.Fatalf("%s: records differ from the uninterrupted default run outside cs/ee/ir", name)
						}
						doc, err := report.NewMerged(fp, recs)
						if err != nil {
							t.Fatal(err)
						}
						// The shard count is all a sharded campaign's report
						// may differ in.
						if doc.ShardCount = refDoc.ShardCount; doc != refDoc {
							t.Fatalf("%s: merged report %#v, reference %#v", name, doc, refDoc)
						}
						if res != nil && (res.Dist != ref.Dist || !reflect.DeepEqual(res.PerSite, ref.PerSite)) {
							t.Fatalf("%s: dist %v, reference %v (or per-site outcomes differ)", name, res.Dist, ref.Dist)
						}
					}

					// Interrupt near half under the dense stride, then resume
					// two copies of that journal under two other tunings.
					cut := filepath.Join(dir, "cut.journal")
					runJournaled(t, targets[tuneDense], sites, model, cut, fault.Shard{}, n/2)
					torn, err := os.ReadFile(cut)
					if err != nil {
						t.Fatal(err)
					}
					for _, tune := range []tuning{tuneAuto, tuneFull} {
						path := filepath.Join(dir, fmt.Sprintf("resumed-%d-%t.journal", tune.intra, tune.full))
						if err := os.WriteFile(path, torn, 0o644); err != nil {
							t.Fatal(err)
						}
						res := runJournaled(t, targets[tune], sites, model, path, fault.Shard{}, 0)
						if res.Stats.Replayed < n/2 || res.Stats.Runs == 0 {
							t.Fatalf("resume under %+v replayed %d and ran %d sites", tune, res.Stats.Replayed, res.Stats.Runs)
						}
						same(fmt.Sprintf("dense -> %+v", tune), res, path)
					}

					// One shard per tuning; journal.Merge accepts the pair.
					s0 := filepath.Join(dir, "shard0.journal")
					s1 := filepath.Join(dir, "shard1.journal")
					runJournaled(t, targets[tuneDense], sites, model, s0, fault.Shard{Index: 0, Count: 2}, 0)
					runJournaled(t, targets[tuneFull], sites, model, s1, fault.Shard{Index: 1, Count: 2}, 0)
					same("dense shard + full-run shard", nil, s0, s1)
				})
			}
		}
	}
}

// TestCampaignJournalRejectsStale: a journal recorded for a different
// campaign must be refused at open or at Run — and one recorded under a
// different intra-CTA stride, which is the same campaign, must not.
func TestCampaignJournalRejectsStale(t *testing.T) {
	tg, sites := durabilityCampaign(t)
	path := filepath.Join(t.TempDir(), "campaign.journal")
	j, err := journal.Open(path, fingerprintFor(tg, len(sites), fault.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Different seed -> different site derivation -> stale at open.
	stale := fingerprintFor(tg, len(sites), fault.Shard{})
	stale.Seed = 99
	if _, err := journal.Open(path, stale); !errors.Is(err, journal.ErrFingerprintMismatch) {
		t.Fatalf("stale fingerprint accepted: %v", err)
	}

	// Same open fingerprint but a mismatched campaign shape at Run time:
	// attach the 120-site journal to a truncated site list.
	j2, err := journal.Open(path, fingerprintFor(tg, len(sites), fault.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := fault.Run(tg, sites[:10], fault.CampaignOptions{Journal: j2}); err == nil {
		t.Fatal("journal accepted for a campaign with a different site count")
	}

	// A journal recorded under a different intra-CTA stride measured its
	// outcomes in the same experiment (the resume layer is bit-identical),
	// so the engine accepts it and finishes with a fresh run's result.
	ref, err := fault.Run(tg, sites, fault.CampaignOptions{KeepPerSite: true})
	if err != nil {
		t.Fatal(err)
	}
	other := tinyTarget(t)
	fault.SetIntraStart(other, 7)
	if err := other.Prepare(); err != nil {
		t.Fatal(err)
	}
	intraPath := filepath.Join(t.TempDir(), "intra.journal")
	runJournaled(t, other, sites, fault.ModelDestValue, intraPath, fault.Shard{}, len(sites)/2)
	res := runJournaled(t, tg, sites, fault.ModelDestValue, intraPath, fault.Shard{}, 0)
	if res.Stats.Replayed == 0 || res.Dist != ref.Dist || !reflect.DeepEqual(res.PerSite, ref.PerSite) {
		t.Fatalf("resume across intra-CTA strides: replayed %d, dist %v, fresh run %v", res.Stats.Replayed, res.Dist, ref.Dist)
	}

	// A shard journal cannot drive an unsharded campaign.
	shardPath := filepath.Join(t.TempDir(), "shard.journal")
	js, err := journal.Open(shardPath, fingerprintFor(tg, len(sites), fault.Shard{Index: 1, Count: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	if _, err := fault.Run(tg, sites, fault.CampaignOptions{Journal: js}); err == nil {
		t.Fatal("shard journal accepted for an unsharded campaign")
	}
}

// TestCampaignHangSiteJournaled: a campaign over a kernel with a
// deadlocking site journals and resumes like any other — the hang outcome
// round-trips through the record.
func TestCampaignHangSiteJournaled(t *testing.T) {
	tg := hangTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	sites := []fault.WeightedSite{
		{Site: fault.Site{Thread: 0, DynInst: 0, Bit: 5}, Weight: 1},
		{Site: hangSite, Weight: 1},
		{Site: fault.Site{Thread: 7, DynInst: 0, Bit: 1}, Weight: 1},
	}
	ref, err := fault.Run(tg, sites, fault.CampaignOptions{KeepPerSite: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.PerSite[1] != fault.Hang {
		t.Fatalf("hang site classified %v", ref.PerSite[1])
	}

	path := filepath.Join(t.TempDir(), "hang.journal")
	fp := tg.JournalFingerprint(fault.ModelDestValue, len(sites), "test", 0, fault.Shard{})
	j, err := journal.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fault.Run(tg, sites, fault.CampaignOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := journal.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var sink fault.StatsSink
	res, err := fault.Run(tg, sites, fault.CampaignOptions{Journal: j2, KeepPerSite: true, Sink: &sink})
	if err != nil {
		t.Fatal(err)
	}
	if st := sink.Total(); st.Runs != 0 {
		t.Fatalf("resume re-ran %d sites of a complete journal", st.Runs)
	}
	if res.PerSite[1] != fault.Hang || res.Dist != ref.Dist {
		t.Fatalf("hang outcome lost in replay: %v vs %v", res.Dist, ref.Dist)
	}
}
