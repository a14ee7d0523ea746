package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/kernels"
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
	res, err := baseline.Fixed(target(t), baseline.Options{
		Confidence: 0.95, Margin: 0.05, MaxRuns: 300, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 300 {
		t.Fatalf("runs = %d (planned %d)", res.Runs, res.Planned)
	}
	if res.Dist.N != 300 {
		t.Fatalf("dist N = %d", res.Dist.N)
	}
	if res.Planned <= 0 {
		t.Fatalf("planned = %d", res.Planned)
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
	// With a loose margin the Eq. 2 size is small; no cap needed.
	res, err := baseline.Fixed(target(t), baseline.Options{
		Confidence: 0.90, Margin: 0.15, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Runs) != res.Planned {
		t.Fatalf("runs %d != planned %d", res.Runs, res.Planned)
	}
}

func TestAdaptiveStopsEarly(t *testing.T) {
	// A loose margin should be reached in the first few batches, well
	// below the p=0.5 worst case.
	res, err := baseline.Adaptive(target(t), baseline.Options{
		Confidence: 0.90, Margin: 0.08, Batch: 100, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	worst := 271 // ceil(1.645^2 / (4 * 0.08^2))
	if res.Runs > worst {
		t.Fatalf("adaptive used %d runs, worst case is %d", res.Runs, worst)
	}
	for _, m := range res.Margins {
		if m > 0.08 {
			t.Fatalf("margin target missed: %v", res.Margins)
		}
	}
}

func TestAdaptiveHonorsCap(t *testing.T) {
	res, err := baseline.Adaptive(target(t), baseline.Options{
		Confidence: 0.998, Margin: 0.001, MaxRuns: 220, Batch: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 220 {
		t.Fatalf("cap not honored: %d runs", res.Runs)
	}
}

func TestBaselineOnRealKernel(t *testing.T) {
	spec, _ := kernels.ByName("Gaussian K125")
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	res, err := baseline.Adaptive(inst.Target, baseline.Options{
		Margin: 0.06, Batch: 200, MaxRuns: 800, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 || res.Dist.N == 0 {
		t.Fatalf("empty campaign: %+v", res)
	}
}
