package fault_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/stats"
)

// persistentModels are the stuck-at fault models under test.
var persistentModels = []fault.Model{
	fault.ModelStuckPred, fault.ModelStuckActiveMask, fault.ModelStuckBarrier,
}

// stuckSample builds a deterministic persistent-site population: the full
// stuck-at spaces of two threads in different CTAs (so activation points
// cover barrier arrivals, memory traffic and retirement) plus a random
// sample across the rest of the grid.
func stuckSample(tg *fault.Target, model fault.Model, n int) []fault.WeightedSite {
	space := fault.NewSpace(tg.Profile()).ForModel(model)
	var sites []fault.Site
	sites = append(sites, space.ThreadSites(0, nil)...)
	sites = append(sites, space.ThreadSites(tg.Threads()-1, nil)...)
	sites = append(sites, space.Random(stats.NewRNG(131), n)...)
	return fault.Uniform(sites)
}

// stuckReference computes per-site outcomes on the reference engine: full
// runs from the pristine image, a fresh device per site.
func stuckReference(t *testing.T, ref *fault.Target, sites []fault.WeightedSite, model fault.Model) []fault.Outcome {
	t.Helper()
	want := make([]fault.Outcome, len(sites))
	seen := map[fault.Outcome]int{}
	for i, ws := range sites {
		o, err := ref.RunSiteModel(ws.Site, model)
		if err != nil {
			t.Fatalf("reference %v: %v", ws.Site, err)
		}
		want[i] = o
		seen[o]++
	}
	if len(seen) < 2 {
		t.Fatalf("model %s: degenerate outcome space %v — the sample exercises nothing", model, seen)
	}
	return want
}

// TestStuckAtMatchesFullRunExhaustive is the central equivalence property of
// the persistent-fault subsystem: on the adversarial chainhang kernel
// (cross-CTA global dependence, predicate-guarded barrier split), every
// stuck-at site must give identical outcomes across {checkpointed +
// intra-CTA resume, full run} × {serial, warp} — with every model, including
// the scheduler-corrupting mask and barrier stuck-ats, riding the
// fast-forward engine (the scheduler-complete snapshot argument, DESIGN.md
// §3.1), which the stats must surface — down to SDC runs stopping at the
// injected CTA's boundary once the fault has retired (§3.1's
// dead-divergence exit, which stuck-pred's corrupted out values reach). The
// engine axis lives next to the oracle: internal/gpusim's
// TestPlanMatchesReferenceChainhangExhaustive pins plan = reference
// interpreter on full runs of this kernel for every site and kind, so plan +
// checkpoints = reference + full runs follows by composition with the
// checkpointed = full-run equality pinned here.
func TestStuckAtMatchesFullRunExhaustive(t *testing.T) {
	for _, warp := range []int{0, 4} {
		warp := warp
		name := "serial"
		if warp > 0 {
			name = "warp4"
		}
		t.Run(name, func(t *testing.T) {
			ref := chainHangTarget(t)
			ref.WarpSize = warp
			ref.FullRun = true
			if err := ref.Prepare(); err != nil {
				t.Fatal(err)
			}
			var dead int64 // stuck-pred's SDCs on out are the ones that exit
			for _, model := range persistentModels {
				model := model
				t.Run(model.String(), func(t *testing.T) {
					sites := stuckSample(ref, model, 150)
					want := stuckReference(t, ref, sites, model)

					for _, fullRun := range []bool{true, false} {
						name := "ckpt"
						if fullRun {
							name = "fullrun"
						}
						tg := chainHangTarget(t)
						tg.WarpSize = warp
						tg.FullRun = fullRun
						if !fullRun {
							fault.SetIntraStart(tg, 2)
						}
						if err := tg.Prepare(); err != nil {
							t.Fatal(err)
						}
						if !fullRun {
							assertEveryCapture(t, tg, 2)
						}
						res, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{
							Parallelism: 4, KeepPerSite: true,
						})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for i := range want {
							if res.PerSite[i] != want[i] {
								t.Fatalf("%s: site %v gave %v, reference full run gave %v",
									name, sites[i].Site, res.PerSite[i], want[i])
							}
						}
						if !fullRun {
							if res.Stats.CTAsSkipped == 0 {
								t.Fatalf("%s: fast-forward never skipped a CTA for %s", name, model)
							}
							if res.Stats.IntraSkips == 0 {
								t.Fatalf("%s: intra-CTA resume never fired for %s", name, model)
							}
							dead += deadExits(t, tg, sites, want, model)
						}
					}
				})
			}
			if dead == 0 {
				t.Fatal("no persistent-fault SDC site exited at its CTA's boundary: the dead-divergence exit never fired")
			}
		})
	}
}

// TestStuckAtGaussianEquivalence extends the equivalence matrix to the
// paper's cross-CTA-dependency kernels: Gaussian Fan1 and Fan2 at small
// geometry, persistent sites sampled from each model's own space,
// checkpointed and full-run campaigns against the per-site full-run
// reference, under both schedulers.
func TestStuckAtGaussianEquivalence(t *testing.T) {
	for _, kname := range []string{"Gaussian K1", "Gaussian K2"} {
		kname := kname
		t.Run(kname, func(t *testing.T) {
			spec, ok := kernels.ByName(kname)
			if !ok {
				t.Fatalf("kernel %q missing", kname)
			}
			for _, warp := range []int{0, 4} {
				rinst, err := spec.Build(kernels.ScaleSmall)
				if err != nil {
					t.Fatal(err)
				}
				ref := rinst.Target
				ref.WarpSize = warp
				ref.FullRun = true
				if err := ref.Prepare(); err != nil {
					t.Fatal(err)
				}
				for _, model := range persistentModels {
					space := fault.NewSpace(ref.Profile())
					sites := fault.Uniform(space.RandomModel(stats.NewRNG(173), 80, model))
					want := make([]fault.Outcome, len(sites))
					for i, ws := range sites {
						o, err := ref.RunSiteModel(ws.Site, model)
						if err != nil {
							t.Fatalf("reference %v: %v", ws.Site, err)
						}
						want[i] = o
					}
					for _, fullRun := range []bool{false, true} {
						inst, err := spec.Build(kernels.ScaleSmall)
						if err != nil {
							t.Fatal(err)
						}
						tg := inst.Target
						tg.WarpSize = warp
						tg.FullRun = fullRun
						if !fullRun {
							fault.SetIntraStart(tg, 2)
						}
						if err := tg.Prepare(); err != nil {
							t.Fatal(err)
						}
						if !fullRun {
							assertEveryCapture(t, tg, 2)
						}
						res, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{
							Parallelism: 4, KeepPerSite: true,
						})
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if res.PerSite[i] != want[i] {
								t.Fatalf("warp %d model %s fullrun %v: site %v gave %v, reference %v",
									warp, model, fullRun, sites[i].Site, res.PerSite[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestStuckAtCampaignSmoke pins the fast-forward observability chain end to
// end for every persistent model: every model rides the checkpointed engine
// (DESIGN.md §3.1), so the campaign must demonstrably have skipped CTAs, and
// its journal must merge under the model's own name.
func TestStuckAtCampaignSmoke(t *testing.T) {
	run := func(model fault.Model, jpath string) *fault.CampaignResult {
		tg := chainHangTarget(t)
		if err := tg.Prepare(); err != nil {
			t.Fatal(err)
		}
		space := fault.NewSpace(tg.Profile())
		sites := fault.Uniform(space.RandomModel(stats.NewRNG(7), 40, model))
		opt := fault.CampaignOptions{Parallelism: 2, KeepPerSite: true}
		if jpath != "" {
			j, err := journal.Open(jpath, tg.JournalFingerprint(model, len(sites), "small", 7, fault.Shard{}))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			opt.Journal = j
		}
		res, err := fault.RunModel(tg, sites, model, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, model := range persistentModels {
		jpath := filepath.Join(t.TempDir(), model.String()+".journal")
		res := run(model, jpath)
		if res.Stats.CTAsSkipped == 0 {
			t.Fatalf("%s campaign never fast-forwarded", model)
		}
		fp, recs, err := journal.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := report.NewMerged(fp, recs)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Model != model.String() {
			t.Fatalf("merged report model = %q, want %q", merged.Model, model)
		}
	}
}

// TestStuckSitesAndRandomModel pins the persistent site spaces: every
// enumerated or sampled site validates under its model, and the encodings
// cover both stuck values.
func TestStuckSitesAndRandomModel(t *testing.T) {
	tg := chainHangTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	for _, model := range persistentModels {
		space := fault.NewSpace(tg.Profile()).ForModel(model)
		w := model.StuckBits()
		icnt := tg.Profile().Threads[0].ICnt
		sites := space.ThreadSites(0, nil)
		if int64(len(sites)) != icnt*int64(w) {
			t.Fatalf("%s: %d sites for thread 0, want %d×%d", model, len(sites), icnt, w)
		}
		bits := map[int]bool{}
		for _, s := range sites {
			if _, err := tg.RunSiteModel(s, model); err != nil {
				t.Fatalf("%s: enumerated site %v rejected: %v", model, s, err)
			}
			bits[s.Bit] = true
			if len(bits) == w {
				break // all encodings witnessed; no need to run the rest
			}
		}
		if len(bits) != w {
			t.Fatalf("%s: enumeration covered %d of %d encodings", model, len(bits), w)
		}
		for _, s := range space.Random(stats.NewRNG(5), 64) {
			if s.Bit < 0 || s.Bit >= w {
				t.Fatalf("%s: sampled bit %d out of [0,%d)", model, s.Bit, w)
			}
			if s.DynInst < 0 || s.DynInst >= tg.Profile().Threads[s.Thread].ICnt {
				t.Fatalf("%s: sampled dyn %d out of thread %d's trace", model, s.DynInst, s.Thread)
			}
		}
	}
	// Out-of-range stuck encodings are rejected up front.
	if _, err := tg.RunSiteModel(fault.Site{Thread: 0, DynInst: 0, Bit: 2}, fault.ModelStuckBarrier); err == nil {
		t.Fatal("stuck-barrier bit 2 accepted")
	}
	if _, err := tg.RunSiteModel(fault.Site{Thread: 0, DynInst: 0, Bit: 64}, fault.ModelStuckPred); err == nil {
		t.Fatal("stuck-pred bit 64 accepted")
	}
}

// TestParseModelRoundTrip: every model name round-trips through ParseModel,
// and garbage is rejected with the name list in the error.
func TestParseModelRoundTrip(t *testing.T) {
	for m := fault.Model(0); m < fault.NumModels; m++ {
		got, err := fault.ParseModel(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := fault.ParseModel("stuck-everything"); err == nil ||
		!strings.Contains(err.Error(), "stuck-pred") {
		t.Fatalf("bad model error = %v", err)
	}
	if n := strings.Count(fault.ModelNames(), ","); n != int(fault.NumModels)-1 {
		t.Fatalf("ModelNames lists %d commas for %d models: %s", n, fault.NumModels, fault.ModelNames())
	}
}

// TestMixedEraJournalFallbacks: journals recorded under the old conservative
// engine — whose scheduler-model records carry "fb":true because every such
// site degraded to a per-site full run, and whose header still names the
// checkpoint stride or the full-run switch — must still open, resume and
// fsmerge: the retired keys are ignored, replayed outcomes are final, fresh
// sites ride the fast-forward engine, Dist/PerSite are bit-identical to an
// uninterrupted campaign, and the merged report has no trace of the flag.
func TestMixedEraJournalFallbacks(t *testing.T) {
	for _, headerKeys := range []string{`"stride":1,`, `"full_run":true,`} {
		t.Run(headerKeys, func(t *testing.T) { mixedEraJournal(t, headerKeys) })
	}
}

func mixedEraJournal(t *testing.T, headerKeys string) {
	const oldEra = 12
	model := fault.ModelStuckActiveMask
	tg := chainHangTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	sites := fault.Uniform(space.RandomModel(stats.NewRNG(9), 30, model))

	// The uninterrupted reference under the new engine.
	ref, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{
		Parallelism: 2, KeepPerSite: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Forge the old engine's journal: the first oldEra sites recorded as
	// full-run fallbacks ("fb":true, no fast-forward savings). Outcomes match
	// the reference — the old conservative engine computed the same per-site
	// outcomes, just via pristine full runs (PR 8's equivalence proof).
	// Neither journal.Record nor journal.Fingerprint has the old fields any
	// more, so the frames are written by hand in the package's documented
	// on-disk format; the header's retired keys sit where the old struct
	// put them, between warp and sites.
	fp := tg.JournalFingerprint(model, len(sites), "small", 9, fault.Shard{})
	jpath := filepath.Join(t.TempDir(), "oldera.journal")
	var frames []byte
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	addFrame := func(payload []byte) {
		frames = binary.LittleEndian.AppendUint32(frames, uint32(len(payload)))
		frames = binary.LittleEndian.AppendUint32(frames, crc32.Checksum(payload, castagnoli))
		frames = append(frames, payload...)
	}
	header, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	addFrame(bytes.Replace(header, []byte(`"sites"`), []byte(headerKeys+`"sites"`), 1))
	for i := 0; i < oldEra; i++ {
		payload, err := json.Marshal(journal.Record{
			Index: i, Thread: sites[i].Site.Thread, DynInst: sites[i].Site.DynInst,
			Bit: sites[i].Site.Bit, Outcome: uint8(ref.PerSite[i]),
			Weight: sites[i].Weight, Attempts: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		addFrame(append(bytes.TrimSuffix(payload, []byte("}")), `,"fb":true}`...))
	}
	if err := os.WriteFile(jpath, frames, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume under the new engine.
	j2, err := journal.Open(jpath, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	res, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{
		Parallelism: 2, KeepPerSite: true, Journal: j2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist != ref.Dist {
		t.Fatalf("mixed-era dist %v != uninterrupted %v", res.Dist, ref.Dist)
	}
	for i := range ref.PerSite {
		if res.PerSite[i] != ref.PerSite[i] {
			t.Fatalf("site %d: mixed-era %v, reference %v", i, res.PerSite[i], ref.PerSite[i])
		}
	}
	if res.Stats.Replayed != oldEra {
		t.Fatalf("replayed %d records, want %d", res.Stats.Replayed, oldEra)
	}
	if res.Stats.CTAsSkipped == 0 {
		t.Fatal("fresh sites never fast-forwarded")
	}

	// The fsmerge door: every record merges, the flag leaves no trace.
	mfp, recs, err := journal.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sites) {
		t.Fatalf("journal holds %d records, want %d", len(recs), len(sites))
	}
	merged, err := report.NewMerged(mfp, recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := report.NewProfile(ref.Dist); merged.Profile != want {
		t.Fatalf("merged profile %+v != reference %+v", merged.Profile, want)
	}
	doc, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(doc), "fallback") {
		t.Fatalf("merged report still reports fallbacks: %s", doc)
	}
}
