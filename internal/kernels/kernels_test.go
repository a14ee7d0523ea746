package kernels

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/stats"
)

// TestKernelCorrectnessSmall validates every kernel at the small scale: the
// simulated golden output must match the host Go reference bit-for-bit.
func TestKernelCorrectnessSmall(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Meta.Name(), func(t *testing.T) {
			inst, err := spec.Build(ScaleSmall)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := inst.Target.Prepare(); err != nil {
				t.Fatalf("prepare: %v", err)
			}
			got := inst.Target.Golden()
			if len(got) != len(inst.WantOutput) {
				t.Fatalf("output length %d, want %d", len(got), len(inst.WantOutput))
			}
			if !bytes.Equal(got, inst.WantOutput) {
				for i := range got {
					if got[i] != inst.WantOutput[i] {
						t.Fatalf("output differs first at byte %d (word %d): got %#x want %#x",
							i, i/4, got[i], inst.WantOutput[i])
					}
				}
			}
		})
	}
}

// TestFastForwardMatchesFullRunEveryKernel is the registry-wide differential
// of the checkpointed engine — prefix skip, intra-CTA and thread-start
// resumes, and the early exits at the injected thread's exit and at its
// CTA's boundary (convergence and dead divergence, DESIGN.md §3.2): on every
// kernel at small scale, under both schedulers and seven fault models, and
// on a paper-scale K-Means K2 slice, a campaign's per-site outcomes must
// equal the FullRun reference's. The exits must actually fire somewhere,
// some of them must be SDC — which only a dead-divergence exit can produce —
// and some must stop a site in the last CTA, which only the thread exit can.
func TestFastForwardMatchesFullRunEveryKernel(t *testing.T) {
	models := []fault.Model{
		fault.ModelDestValue, fault.ModelDestDouble, fault.ModelDestByte, fault.ModelMemAddr,
		fault.ModelLaneCorrelated, fault.ModelStuckPred, fault.ModelStuckActiveMask,
	}
	const nsites = 150
	var exits, sdcExits, lastCTAExits int64
	// exitsOf runs a campaign over sites and returns its early exits.
	exitsOf := func(tg *fault.Target, sites []fault.WeightedSite, model fault.Model) int64 {
		if len(sites) == 0 {
			return 0
		}
		res, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.EarlyExits
	}
	for _, spec := range All() {
		for _, warp := range []int{0, 32} {
			prepare := func(fullRun bool) *fault.Target {
				inst, err := spec.Build(ScaleSmall)
				if err != nil {
					t.Fatal(err)
				}
				tg := inst.Target
				tg.WarpSize, tg.FullRun = warp, fullRun
				if err := tg.Prepare(); err != nil {
					t.Fatal(err)
				}
				return tg
			}
			ck, ref := prepare(false), prepare(true)
			for _, model := range models {
				sites := fault.Uniform(fault.NewSpace(ck.Profile()).RandomModel(stats.NewRNG(int64(model)+1), nsites, model))
				run := func(tg *fault.Target) *fault.CampaignResult {
					res, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{KeepPerSite: true})
					if err != nil {
						t.Fatalf("%s warp %d %v: %v", spec.Meta.Name(), warp, model, err)
					}
					return res
				}
				got, want := run(ck), run(ref)
				for i := range sites {
					if got.PerSite[i] != want.PerSite[i] {
						t.Fatalf("%s warp %d %v: site %v gave %v, full run %v",
							spec.Meta.Name(), warp, model, sites[i].Site, got.PerSite[i], want.PerSite[i])
					}
				}
				exits += got.Stats.EarlyExits
				// Convergence exits are Masked, so an exit in a campaign of
				// the full run's SDC sites is a dead-divergence exit; one of
				// a site in the last CTA, which has no later boundary, is a
				// thread exit.
				var sdc, lastSDC []fault.WeightedSite
				for i, o := range want.PerSite {
					if o == fault.SDC {
						sdc = append(sdc, sites[i])
						if sites[i].Site.Thread/ck.Block.Count() == ck.Grid.Count()-1 {
							lastSDC = append(lastSDC, sites[i])
						}
					}
				}
				if sdcExits == 0 {
					sdcExits += exitsOf(ck, sdc, model)
				}
				if lastCTAExits == 0 && ck.Grid.Count() > 1 {
					lastCTAExits += exitsOf(ck, lastSDC, model)
				}
			}
		}
	}
	if exits == 0 || sdcExits == 0 || lastCTAExits == 0 {
		t.Fatalf("early exits: %d, SDC ones: %d, last-CTA SDC ones: %d; the exits never fired",
			exits, sdcExits, lastCTAExits)
	}

	// Paper scale: K-Means K2's 256-thread CTAs, where nearly every early
	// exit is a thread exit.
	spec, ok := ByName("K-Means K2")
	if !ok {
		t.Fatal("K-Means K2 missing")
	}
	paper := func(fullRun bool) *fault.Target {
		inst, err := spec.Build(ScalePaper)
		if err != nil {
			t.Fatal(err)
		}
		tg := inst.Target
		tg.FullRun = fullRun
		if err := tg.Prepare(); err != nil {
			t.Fatal(err)
		}
		return tg
	}
	ck, ref := paper(false), paper(true)
	for _, model := range []fault.Model{fault.ModelDestValue, fault.ModelMemAddr} {
		sites := fault.Uniform(fault.NewSpace(ck.Profile()).RandomModel(stats.NewRNG(int64(model)+7), 100, model))
		var res [2]*fault.CampaignResult
		for i, tg := range []*fault.Target{ck, ref} {
			r, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{KeepPerSite: true})
			if err != nil {
				t.Fatalf("K-Means K2 paper %v: %v", model, err)
			}
			res[i] = r
		}
		for i := range sites {
			if res[0].PerSite[i] != res[1].PerSite[i] {
				t.Fatalf("K-Means K2 paper %v: site %v gave %v, full run %v",
					model, sites[i].Site, res[0].PerSite[i], res[1].PerSite[i])
			}
		}
		if res[0].Stats.EarlyExits == 0 {
			t.Fatalf("K-Means K2 paper %v: no early exit", model)
		}
	}
}

// TestRegistryComplete checks the paper's workload inventory: 17 kernels,
// 16 of them with Table I fault-site references.
func TestRegistryComplete(t *testing.T) {
	if got := len(All()); got != 17 {
		t.Fatalf("registry has %d kernels, want 17", got)
	}
	if got := len(TableIKernels()); got != 16 {
		t.Fatalf("Table I set has %d kernels, want 16", got)
	}
	seen := make(map[string]bool)
	for _, s := range All() {
		name := s.Meta.Name()
		if seen[name] {
			t.Fatalf("duplicate kernel name %q", name)
		}
		seen[name] = true
	}
}

// TestPaperThreadCounts verifies that the paper-scale geometry spawns
// exactly the thread counts of the paper's tables.
func TestPaperThreadCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale builds in short mode")
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Meta.Name(), func(t *testing.T) {
			inst, err := spec.Build(ScalePaper)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if got := inst.Target.Threads(); got != spec.Meta.PaperThreads {
				t.Fatalf("threads = %d, want %d", got, spec.Meta.PaperThreads)
			}
		})
	}
}

// TestParseScale: both scale names round-trip through ParseScale, and
// anything else — a typo, the empty string, a different case — is an error
// naming the accepted values rather than a silent small.
func TestParseScale(t *testing.T) {
	for _, sc := range []Scale{ScaleSmall, ScalePaper} {
		got, err := ParseScale(sc.String())
		if err != nil || got != sc {
			t.Fatalf("ParseScale(%q) = %v, %v", sc.String(), got, err)
		}
	}
	for _, bad := range []string{"papr", "", "Paper", "small "} {
		_, err := ParseScale(bad)
		if err == nil {
			t.Fatalf("ParseScale(%q) accepted", bad)
		}
		if want := fmt.Sprintf("unknown scale %q (want \"small\" or \"paper\")", bad); err.Error() != want {
			t.Fatalf("ParseScale(%q) error = %q, want %q", bad, err, want)
		}
	}
}

// TestHotSpotPaperWarpStoreSize pins the memory of the intra-CTA snapshot
// store on HotSpot K1 at paper scale, whose barrier keeps nearly every
// thread live at every capture: a live thread is saved as its execution
// state plus the 22 registers the kernel names, so the store stays under
// 10 MiB under both schedulers. Saving each live thread's whole 128-register
// state would take about 28 MiB.
func TestHotSpotPaperWarpStoreSize(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale golden runs in short mode")
	}
	spec, ok := ByName("HotSpot K1")
	if !ok {
		t.Fatal("HotSpot K1 missing")
	}
	const limit = 10 << 20
	for _, warp := range []int{0, 32} {
		inst, err := spec.Build(ScalePaper)
		if err != nil {
			t.Fatal(err)
		}
		tg := inst.Target
		tg.WarpSize = warp
		if err := tg.Prepare(); err != nil {
			t.Fatal(err)
		}
		wck := tg.WarpCheckpoints()
		if wck == nil || wck.Count() == 0 {
			t.Fatalf("warp %d: no intra-CTA snapshots", warp)
		}
		b := wck.Bytes()
		if b >= limit {
			t.Fatalf("warp %d: %d snapshots hold %d bytes, want under %d", warp, wck.Count(), b, limit)
		}
		t.Logf("warp %d: %d snapshots hold %d bytes", warp, wck.Count(), b)
	}
}
