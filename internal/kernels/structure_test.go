package kernels_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// prep builds and prepares a kernel at small scale.
func prep(t *testing.T, name string) *kernels.Instance {
	t.Helper()
	spec, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("kernel %q missing", name)
	}
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Target.Prepare(); err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestStructureSnapshot pins the structural features each kernel was built
// to exhibit — the properties the paper's pruning exploits. A change that
// silently flattens a kernel's thread classes or unrolls its loops would
// invalidate the reproduction even with correct outputs; this test catches
// that.
func TestStructureSnapshot(t *testing.T) {
	cases := []struct {
		name string
		// exact values unless < 0 (meaning "at least |v|")
		ctaGroups, threadGroups int
		// busiest thread's loop count and total iterations
		loops, iters int
	}{
		{"HotSpot K1", 9, -20, 0, 0},   // many CTA classes, unrolled pyramid
		{"K-Means K1", 1, 1, 1, 17},    // uniform threads, feature loop
		{"K-Means K2", -2, -4, 2, -20}, // nested cluster/feature loops
		{"Gaussian K1", 2, 3, 0, 0},    // active CTA vs idle CTA
		{"Gaussian K2", -3, -6, 0, 0},  // 2-D bounds divergence
		{"Gaussian K125", 2, 3, 0, 0},  // late step: 1 active thread
		{"Gaussian K126", -2, -5, 0, 0},
		{"PathFinder K1", 1, 2, 1, 8}, // edge vs interior columns
		{"LUD K44", 1, 2, 2, -100},    // row vs column panel paths
		{"LUD K45", 1, 1, 0, 0},       // fully unrolled internal
		{"LUD K46", 1, 16, -1, -100},  // triangular: one class per thread
		{"2DCONV K1", 4, -10, 0, 0},   // border exits vs interior stencil
		{"MVT K1", 1, 1, 1, 64},       // one dot-product loop
		{"2MM K1", 1, 1, 1, 16},
		{"GEMM K1", 1, 1, 1, 16},
		{"SYRK K1", 1, 1, 1, 16},
		{"NN K1", 1, 1, 0, 0}, // straight-line code
	}
	check := func(name string, got, want int) {
		t.Helper()
		if want < 0 {
			if got < -want {
				t.Errorf("%s = %d, want at least %d", name, got, -want)
			}
		} else if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			inst := prep(t, c.name)
			prof := inst.Target.Profile()
			ctas := core.GroupCTAs(prof)
			threads := core.GroupThreads(prof, ctas, core.GroupingOptions{})
			check("CTA groups", len(ctas), c.ctaGroups)
			check("thread groups", len(threads), c.threadGroups)

			var busiest trace.LoopSummary
			for i := range prof.Threads {
				s := trace.SummarizeLoops(prof.Threads[i].PCs)
				if s.TotalIters > busiest.TotalIters {
					busiest = s
				}
			}
			check("loops", busiest.Loops, c.loops)
			check("loop iterations", busiest.TotalIters, c.iters)
		})
	}
}

// TestHasLoopsMetadata: each kernel's HasLoops flag (mirroring the paper's
// Table VII loop column) must agree with the measured dynamic loop
// structure.
func TestHasLoopsMetadata(t *testing.T) {
	for _, spec := range kernels.All() {
		spec := spec
		t.Run(spec.Meta.Name(), func(t *testing.T) {
			inst := prep(t, spec.Meta.Name())
			prof := inst.Target.Profile()
			hasLoops := false
			for i := range prof.Threads {
				if trace.SummarizeLoops(prof.Threads[i].PCs).Loops > 0 {
					hasLoops = true
					break
				}
			}
			if hasLoops != spec.Meta.HasLoops {
				t.Fatalf("HasLoops metadata %v, measured %v", spec.Meta.HasLoops, hasLoops)
			}
		})
	}
}

// TestBuildDeterminism: building an instance twice yields bit-identical
// inputs, golden outputs, and profiles — the precondition for the
// reproducibility of every experiment.
func TestBuildDeterminism(t *testing.T) {
	for _, name := range []string{"2DCONV K1", "PathFinder K1", "LUD K46"} {
		a, b := prep(t, name), prep(t, name)
		if !bytes.Equal(a.Target.Golden(), b.Target.Golden()) {
			t.Fatalf("%s: golden outputs differ between builds", name)
		}
		pa, pb := a.Target.Profile(), b.Target.Profile()
		for i := range pa.Threads {
			if pa.Threads[i].ICnt != pb.Threads[i].ICnt || pa.Threads[i].Sig != pb.Threads[i].Sig {
				t.Fatalf("%s: thread %d profile differs between builds", name, i)
			}
		}
	}
}

// TestOutputRangesWithinDevice: every kernel's declared output ranges must
// lie inside its device, and the golden output must cover them fully.
func TestOutputRangesWithinDevice(t *testing.T) {
	for _, spec := range kernels.All() {
		inst, err := spec.Build(kernels.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		var total int
		for _, r := range inst.Target.Output {
			if r.Off < 0 || r.Len <= 0 || r.Off+r.Len > inst.Target.Init.Size() {
				t.Errorf("%s: output range %+v outside device of %d bytes",
					spec.Meta.Name(), r, inst.Target.Init.Size())
			}
			total += r.Len
		}
		if total != len(inst.WantOutput) {
			t.Errorf("%s: output ranges cover %d bytes, reference has %d",
				spec.Meta.Name(), total, len(inst.WantOutput))
		}
	}
}

// TestPlansOnAllKernels: BuildPlan succeeds on every kernel and never emits
// an invalid site; weights stay positive and stage counts monotone.
func TestPlansOnAllKernels(t *testing.T) {
	for _, spec := range kernels.All() {
		spec := spec
		t.Run(spec.Meta.Name(), func(t *testing.T) {
			inst := prep(t, spec.Meta.Name())
			plan, err := core.BuildPlan(inst.Target, core.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			s := plan.Stages
			if !(s.Exhaustive >= s.Thread && s.Thread >= s.Inst && s.Inst >= s.Loop) {
				t.Fatalf("stage counts not monotone: %+v", s)
			}
			for _, ws := range plan.Sites {
				if ws.Weight <= 0 {
					t.Fatalf("non-positive weight at %v", ws.Site)
				}
				bits := inst.Target.Profile().SiteBitsOf(ws.Site.Thread, ws.Site.DynInst)
				if bits == 0 || ws.Site.Bit >= bits {
					t.Fatalf("invalid planned site %v (%d-bit dest)", ws.Site, bits)
				}
			}
			// Weighted mass accounts for the full population within 2%
			// even under plain iCnt grouping (exact under signatures).
			exhaustive := float64(fault.NewSpace(inst.Target.Profile()).Total())
			if w := plan.TotalWeight(); w < 0.98*exhaustive || w > 1.02*exhaustive {
				t.Fatalf("plan mass %v vs exhaustive %v", w, exhaustive)
			}
		})
	}
}
