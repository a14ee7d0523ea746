package core_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/ptx"
)

// TestBitPositionsChecked: the error-returning validation behind BuildPlan's
// stage 4 — divisors sample, non-divisors error, out-of-range sample counts
// keep every position.
func TestBitPositionsChecked(t *testing.T) {
	cases := []struct {
		width, samples int
		want           []int
		wantErr        bool
	}{
		{32, 8, []int{3, 7, 11, 15, 19, 23, 27, 31}, false},
		{32, 4, []int{7, 15, 23, 31}, false},
		{32, 16, nil, false}, // 16 positions, spot-checked below
		{32, 1, []int{31}, false},
		{32, 32, nil, false}, // samples >= width keeps all
		{32, 0, nil, false},  // 0 keeps all
		{32, -3, nil, false}, // negative keeps all
		{32, 64, nil, false},
		{4, 2, []int{1, 3}, false},
		{32, 5, nil, true},
		{32, 7, nil, true},
		{32, 31, nil, true},
		{32, 3, nil, true},
		{4, 3, nil, true},
	}
	for _, c := range cases {
		got, err := core.BitPositionsChecked(c.width, c.samples)
		if c.wantErr {
			if err == nil {
				t.Errorf("(%d,%d): error expected, got %v", c.width, c.samples, got)
			} else if !strings.Contains(err.Error(), "divide") {
				t.Errorf("(%d,%d): unhelpful error %q", c.width, c.samples, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("(%d,%d): unexpected error %v", c.width, c.samples, err)
			continue
		}
		if c.want == nil {
			// Full or sampled coverage: length check plus last position.
			wantLen := c.width
			if c.samples > 0 && c.samples < c.width {
				wantLen = c.samples
			}
			if len(got) != wantLen || got[len(got)-1] != c.width-1 {
				t.Errorf("(%d,%d) = %v", c.width, c.samples, got)
			}
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("(%d,%d) = %v, want %v", c.width, c.samples, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("(%d,%d) = %v, want %v", c.width, c.samples, got, c.want)
				break
			}
		}
	}
}

// TestBuildPlanRejectsNonDivisorBitSamples: a bad -bit-samples value must
// surface as a clean error from BuildPlan, not a panic (the fsprune
// -bit-samples 5 crash).
func TestBuildPlanRejectsNonDivisorBitSamples(t *testing.T) {
	tg := prepared(t)
	for _, samples := range []int{5, 7, 31} {
		plan, err := core.BuildPlan(tg, core.Options{Seed: 1, BitSamples: samples})
		if err == nil {
			t.Fatalf("BitSamples=%d accepted: %v", samples, plan)
		}
		if !strings.Contains(err.Error(), "divide") {
			t.Fatalf("BitSamples=%d: unhelpful error %q", samples, err)
		}
	}
}

// TestExpandBitsPredModesConserveWeight: the unified stage-4 expander must
// conserve the total site mass in both predicate modes — with the analytic
// rule the pruned flag weight moves to KnownMasked, without it the same
// weight stays on explicit sites; both totals equal the population.
func TestExpandBitsPredModesConserveWeight(t *testing.T) {
	tg := prepared(t)
	exhaustive := float64(fault.NewSpace(tg.Profile()).Total())
	for _, samples := range []int{-1, 4, 8, 16, 0} {
		var plans [2]*core.Plan
		for i, keepPred := range []bool{false, true} {
			plan, err := core.BuildPlan(tg, core.Options{
				Seed:             2,
				BitSamples:       samples,
				DisablePredPrune: keepPred,
				Grouping:         core.GroupingOptions{BySignature: true},
			})
			if err != nil {
				t.Fatalf("samples %d keepPred %v: %v", samples, keepPred, err)
			}
			if got := plan.TotalWeight(); math.Abs(got-exhaustive) > 1e-6*exhaustive {
				t.Errorf("samples %d keepPred %v: total weight %v != exhaustive %v",
					samples, keepPred, got, exhaustive)
			}
			plans[i] = plan
		}
		pruned, kept := plans[0], plans[1]
		if kept.KnownMasked != 0 {
			t.Errorf("samples %d: keepPred mode credited %v to KnownMasked",
				samples, kept.KnownMasked)
		}
		if pruned.KnownMasked <= 0 || pruned.BitPrune.PredPruned <= 0 {
			t.Errorf("samples %d: pred pruning credited nothing (%v, %d)",
				samples, pruned.KnownMasked, pruned.BitPrune.PredPruned)
		}
		if len(pruned.Sites) >= len(kept.Sites) {
			t.Errorf("samples %d: pred pruning did not reduce sites (%d vs %d)",
				samples, len(pruned.Sites), len(kept.Sites))
		}
		// GPR sampling accounting is identical across the modes.
		if pruned.BitPrune.GPRPruned != kept.BitPrune.GPRPruned {
			t.Errorf("samples %d: GPR accounting diverged: %d vs %d",
				samples, pruned.BitPrune.GPRPruned, kept.BitPrune.GPRPruned)
		}
	}
}

// saxpyGuardSrc is examples/customkernel's SAXPY with its exit guard's
// condition code left open: %s is "ne" there.
const saxpyGuardSrc = `
	cvt.u32.u16 $r0, %%tid.x
	cvt.u32.u16 $r1, %%ctaid.x
	cvt.u32.u16 $r2, %%ntid.x
	mad.lo.u32 $r0, $r1, $r2, $r0
	mov.u32 $r3, s[0x001c]
	set.ge.u32.u32 $p0/$o127, $r0, $r3
	@$p0.%s bra lexit
	shl.u32 $r4, $r0, 0x00000002
	add.u32 $r5, $r4, s[0x0010]
	add.u32 $r6, $r4, s[0x0014]
	ld.global.f32 $r7, [$r5]
	ld.global.f32 $r8, [$r6]
	mov.u32 $r9, s[0x0018]
	mad.f32 $r8, $r9, $r7, $r8
	st.global.f32 [$r6], $r8
	lexit: exit
`

// TestPredCreditComesFromProgram: stage 4 credits a predicate flag as
// masked only when no instruction consults it. Guarded by .ne, the SAXPY
// consults only $p0's zero flag, and the plan injects bit 0 of the set's
// $p0 alone; guarded by .lt, it branches on the sign flag, whose flip is
// SDC, and the plan must inject bit 1 too, while carry and overflow, which
// .lt does not test, stay credited.
func TestPredCreditComesFromProgram(t *testing.T) {
	const setDyn = 5 // the set's dynamic index in every thread
	for _, c := range []struct {
		cond     string
		wantBits []int
	}{{"ne", []int{0}}, {"lt", []int{0, 1}}} {
		prog, err := ptx.Assemble("saxpy", fmt.Sprintf(saxpyGuardSrc, c.cond))
		if err != nil {
			t.Fatal(err)
		}
		if prog.Instrs[setDyn].Op != isa.OpSet {
			t.Fatalf("PC %d is %v, want set", setDyn, prog.Instrs[setDyn].Op)
		}
		const n = 128
		dev := gpusim.NewDevice(8 * n)
		x := make([]uint32, 2*n)
		for i := range x {
			x[i] = math.Float32bits(float32(i) * 0.25)
		}
		dev.WriteWords(0, x)
		tg := &fault.Target{
			Name:   "saxpy." + c.cond,
			Prog:   prog,
			Grid:   gpusim.Dim3{X: 4, Y: 1, Z: 1},
			Block:  gpusim.Dim3{X: 32, Y: 1, Z: 1},
			Params: []uint32{0, 4 * n, math.Float32bits(2.5), n},
			Init:   dev,
			Output: []fault.Range{{Off: 4 * n, Len: 4 * n}},
		}
		plan, err := core.BuildPlan(tg, core.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		bits := map[int][]int{} // representative thread -> bits injected at the set
		for _, ws := range plan.Sites {
			if ws.Site.DynInst == setDyn {
				bits[ws.Site.Thread] = append(bits[ws.Site.Thread], ws.Site.Bit)
			}
		}
		if len(bits) == 0 {
			t.Errorf("@$p0.%s: the plan injects no site at the set", c.cond)
		}
		for thread, got := range bits {
			if fmt.Sprint(got) != fmt.Sprint(c.wantBits) {
				t.Errorf("@$p0.%s: thread %d injects bits %v of the set's $p0, want %v", c.cond, thread, got, c.wantBits)
			}
		}
	}
}
