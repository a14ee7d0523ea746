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
// of the checkpointed engine — prefix skip, intra-CTA resume, and both early
// exits at the injected CTA's boundary (convergence and dead divergence,
// DESIGN.md §3.2): on every kernel at small scale, under both schedulers and
// six fault models, a campaign's per-site outcomes must equal the FullRun
// reference's. The exits must actually fire somewhere, and some of them must
// be SDC — which only the dead-divergence exit can produce.
func TestFastForwardMatchesFullRunEveryKernel(t *testing.T) {
	models := []fault.Model{
		fault.ModelDestValue, fault.ModelDestDouble, fault.ModelMemAddr,
		fault.ModelLaneCorrelated, fault.ModelStuckPred, fault.ModelStuckActiveMask,
	}
	const nsites = 150
	var exits, sdcExits int64
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
				if sdcExits > 0 {
					continue
				}
				// Convergence exits are Masked, so an exit in a campaign of
				// the full run's SDC sites is a dead-divergence exit.
				var sdc []fault.WeightedSite
				for i, o := range want.PerSite {
					if o == fault.SDC {
						sdc = append(sdc, sites[i])
					}
				}
				if len(sdc) > 0 {
					res, err := fault.RunModel(ck, sdc, model, fault.CampaignOptions{})
					if err != nil {
						t.Fatal(err)
					}
					sdcExits += res.Stats.EarlyExits
				}
			}
		}
	}
	if exits == 0 || sdcExits == 0 {
		t.Fatalf("early exits: %d, SDC ones: %d; the boundary exits never fired", exits, sdcExits)
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
