package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/ptx"
)

// target builds a cheap prepared injection target.
func target(t *testing.T) *fault.Target {
	t.Helper()
	prog, err := ptx.Assemble("bt", `
		cvt.u32.u16 $r0, %tid.x
		shl.u32 $r1, $r0, 0x00000002
		ld.global.u32 $r2, [$r1]
		add.u32 $r2, $r2, 0x00000007
		st.global.u32 [$r1], $r2
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(64)
	for i := 0; i < 16; i++ {
		dev.WriteWords(4*i, []uint32{uint32(i * 3)})
	}
	tg := &fault.Target{
		Name:   "bt",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 1, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 16, Y: 1, Z: 1},
		Init:   dev,
		Output: []fault.Range{{Off: 0, Len: 64}},
	}
	return tg
}

func TestFixed(t *testing.T) {
	res, err := baseline.Fixed(target(t), baseline.Options{MaxRuns: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 300 {
		t.Fatalf("runs = %d (planned %d)", res.Runs, res.Planned)
	}
	if res.Dist.N != 300 {
		t.Fatalf("dist N = %d", res.Dist.N)
	}
	if res.Planned <= 300 {
		t.Fatalf("planned = %d, want the uncapped Eq. 2 size above the cap", res.Planned)
	}
	for c, m := range res.Margins {
		if m <= 0 || m > 0.2 {
			t.Fatalf("class %d margin = %v", c, m)
		}
	}
	if res.String() == "" {
		t.Fatal("empty string")
	}
}

func TestFixedUsesPlannedWhenUncapped(t *testing.T) {
	// The toy target's space is small enough that the 95%/±3% Eq. 2 size
	// runs in well under a second; no cap needed.
	res, err := baseline.Fixed(target(t), baseline.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Runs) != res.Planned || res.Dist.N != res.Planned {
		t.Fatalf("runs %d, dist N %d != planned %d", res.Runs, res.Dist.N, res.Planned)
	}
}

// prepare builds and prepares a small-scale dest-value campaign of n sites.
func prepare(t *testing.T, kernel string, n int) *campaign.Prepared {
	t.Helper()
	p, err := campaign.Spec{Kernel: kernel, Scale: "small", Seed: 1, Sites: n, Model: "dest-value"}.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAdaptiveStopsEarly(t *testing.T) {
	// A loose margin is reached within the first step, far short of the
	// campaign's 3 000 sites.
	res, err := baseline.Adaptive(prepare(t, "GEMM K1", 3000), 0.08, fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 250 || res.Dist.N != 250 {
		t.Fatalf("adaptive used %d runs (dist N %d), want one 250-site step", res.Runs, res.Dist.N)
	}
	for _, m := range res.Margins {
		if m > 0.08 {
			t.Fatalf("margin target missed: %v", res.Margins)
		}
	}
}

func TestAdaptiveHonorsCap(t *testing.T) {
	// An unreachable margin runs the whole site list, the last step short.
	res, err := baseline.Adaptive(prepare(t, "GEMM K1", 620), 0.001, fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 620 || res.Stats.Runs != 620 {
		t.Fatalf("cap not honored: %d runs, %d executed", res.Runs, res.Stats.Runs)
	}
}

// TestAdaptiveIsCampaignPrefix: the adaptive baseline is a cut-off index
// into the campaign's own site list, so its profile is exactly the profile
// of the same campaign sized to the runs it took.
func TestAdaptiveIsCampaignPrefix(t *testing.T) {
	p := prepare(t, "GEMM K1", 3000)
	res, err := baseline.Adaptive(p, 0.05, fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs <= 250 || res.Runs >= 3000 {
		t.Fatalf("adaptive stopped after %d runs; want a cut-off past the first step and short of the list", res.Runs)
	}
	spec := p.Spec
	spec.Sites = res.Runs
	q, err := spec.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := q.Run(fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Dist != res.Dist {
		t.Fatalf("adaptive %v != campaign of %d sites %v", res.Dist, res.Runs, full.Dist)
	}
}

func TestBaselineOnRealKernel(t *testing.T) {
	res, err := baseline.Adaptive(prepare(t, "Gaussian K125", 800), 0.06, fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 || res.Dist.N != int64(res.Runs) {
		t.Fatalf("empty campaign: %+v", res)
	}
}
