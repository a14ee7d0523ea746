package core_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/stats"
	"repro/internal/trace"
)

// groupedTarget builds a kernel with clear CTA and thread classes: CTA 0
// covers indices whose work loops run, CTA 1's threads all exit early
// (bounds check), and within CTA 0 even threads run a longer loop than odd
// ones.
func groupedTarget(t *testing.T) *fault.Target {
	t.Helper()
	prog, err := ptx.Assemble("grouped", `
		cvt.u32.u16 $r0, %tid.x
		cvt.u32.u16 $r1, %ctaid.x
		cvt.u32.u16 $r2, %ntid.x
		mad.lo.u32 $r0, $r1, $r2, $r0
		set.ge.u32.u32 $p0/$o127, $r0, 8
		@$p0.ne bra lexit
		and.b32 $r3, $r0, 0x00000001
		mov.u32 $r4, 6                   // even threads: 6 iterations
		set.eq.u32.u32 $p0/$o127, $r3, $r124
		@$p0.ne bra lgo
		mov.u32 $r4, 3                   // odd threads: 3 iterations
		lgo: mov.u32 $r5, $r124          // acc
		mov.u32 $r6, $r124               // k
		lloop: add.u32 $r5, $r5, $r0
		add.u32 $r6, $r6, 0x00000001
		set.lt.u32.u32 $p0/$o127, $r6, $r4
		@$p0.ne bra lloop
		shl.u32 $r7, $r0, 0x00000002
		st.global.u32 [$r7], $r5
		lexit: exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	return &fault.Target{
		Name:   "grouped",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 2, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 8, Y: 1, Z: 1},
		Init:   gpusim.NewDevice(64),
		Output: []fault.Range{{Off: 0, Len: 32}},
	}
}

func prepared(t *testing.T) *fault.Target {
	t.Helper()
	tg := groupedTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestGroupCTAs(t *testing.T) {
	tg := prepared(t)
	groups := core.GroupCTAs(tg.Profile())
	if len(groups) != 2 {
		t.Fatalf("CTA groups = %d, want 2 (worker vs idle)", len(groups))
	}
	if groups[0].Rep != 0 || groups[1].Rep != 1 {
		t.Fatalf("reps = %d,%d", groups[0].Rep, groups[1].Rep)
	}
	if groups[0].AvgICnt <= groups[1].AvgICnt {
		t.Fatalf("worker CTA should average more instructions: %v vs %v",
			groups[0].AvgICnt, groups[1].AvgICnt)
	}
	if got := groups[0].Proportion(2); got != 0.5 {
		t.Fatalf("proportion = %v", got)
	}
}

func TestGroupThreadsTwoStep(t *testing.T) {
	tg := prepared(t)
	prof := tg.Profile()
	ctas := core.GroupCTAs(prof)
	groups := core.GroupThreads(prof, ctas, core.GroupingOptions{})
	// CTA 0: even (6 iters) and odd (3 iters) classes; CTA 1: one idle class.
	if len(groups) != 3 {
		t.Fatalf("thread groups = %d, want 3", len(groups))
	}
	if err := core.ValidateGrouping(prof, groups); err != nil {
		t.Fatal(err)
	}
	var pop int64
	for _, g := range groups {
		pop += g.Population
		if g.InCTACount != len(g.Members) {
			t.Fatalf("member bookkeeping: %d vs %d", g.InCTACount, len(g.Members))
		}
		// Representative is a member with the group's iCnt.
		if prof.Threads[g.Rep].ICnt != g.ICnt {
			t.Fatalf("rep iCnt mismatch")
		}
	}
	if pop != 16 {
		t.Fatalf("population = %d, want 16", pop)
	}
}

func TestGroupThreadsOneStep(t *testing.T) {
	tg := prepared(t)
	prof := tg.Profile()
	groups := core.GroupThreads(prof, nil, core.GroupingOptions{SkipCTAGrouping: true})
	if len(groups) != 3 {
		t.Fatalf("one-step groups = %d, want 3", len(groups))
	}
	if err := core.ValidateGrouping(prof, groups); err != nil {
		t.Fatal(err)
	}
}

func TestGroupThreadsBySignature(t *testing.T) {
	tg := prepared(t)
	prof := tg.Profile()
	ctas := core.GroupCTAs(prof)
	plain := core.GroupThreads(prof, ctas, core.GroupingOptions{})
	sig := core.GroupThreads(prof, ctas, core.GroupingOptions{BySignature: true})
	if len(sig) < len(plain) {
		t.Fatalf("signature grouping cannot be coarser: %d < %d", len(sig), len(plain))
	}
	if err := core.ValidateGrouping(prof, sig); err != nil {
		t.Fatal(err)
	}
}

func TestBitPositions(t *testing.T) {
	got := core.BitPositions(32, 8)
	want := []int{3, 7, 11, 15, 19, 23, 27, 31}
	if len(got) != len(want) {
		t.Fatalf("positions = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("positions = %v, want %v", got, want)
		}
	}
	if got := core.BitPositions(32, 0); len(got) != 32 || got[0] != 0 || got[31] != 31 {
		t.Fatalf("all positions = %v", got)
	}
	if got := core.BitPositions(32, 64); len(got) != 32 {
		t.Fatalf("oversample = %v", got)
	}
	if got := core.BitPositions(32, 4); got[0] != 7 || got[3] != 31 {
		t.Fatalf("4 samples = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-divisor sample count did not panic")
		}
	}()
	core.BitPositions(32, 5)
}

func TestBuildPlanInvariants(t *testing.T) {
	tg := prepared(t)
	plan, err := core.BuildPlan(tg, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Stages
	if !(s.Exhaustive >= s.Thread && s.Thread >= s.Inst && s.Inst >= s.Loop) {
		t.Fatalf("stage counts not monotone: %+v", s)
	}
	if s.Bit != int64(len(plan.Sites)) {
		t.Fatalf("bit stage %d != site count %d", s.Bit, len(plan.Sites))
	}
	if plan.Reduction() < 1 {
		t.Fatalf("reduction %v < 1", plan.Reduction())
	}
	for _, ws := range plan.Sites {
		if ws.Weight <= 0 {
			t.Fatalf("non-positive weight %v", ws)
		}
		if bits := tg.DestBitsAt(ws.Site.Thread, ws.Site.DynInst); bits == 0 || ws.Site.Bit >= bits {
			t.Fatalf("invalid planned site %v", ws.Site)
		}
	}
	if plan.String() == "" {
		t.Fatal("empty plan description")
	}
}

// TestWeightConservation: with signature grouping, the plan's total weight
// (experiments plus analytically pruned predicate bits) must equal the
// exhaustive site count exactly, through every stage combination.
func TestWeightConservation(t *testing.T) {
	tg := prepared(t)
	exhaustive := float64(fault.NewSpace(tg.Profile()).Total())
	opts := []core.Options{
		{},
		{DisableInstPrune: true},
		{LoopIters: -1},
		{LoopIters: 2},
		{BitSamples: 4},
		{BitSamples: -1},
		{DisablePredPrune: true},
		{Grouping: core.GroupingOptions{SkipCTAGrouping: true}},
	}
	for i, opt := range opts {
		opt.Seed = int64(i)
		opt.Grouping.BySignature = true
		plan, err := core.BuildPlan(tg, opt)
		if err != nil {
			t.Fatalf("opt %d: %v", i, err)
		}
		if got := plan.TotalWeight(); math.Abs(got-exhaustive) > 1e-6*exhaustive {
			t.Errorf("opt %d: total weight %v != exhaustive %v", i, got, exhaustive)
		}
	}
}

// TestWeightConservationProperty drives the same invariant through random
// stage parameters via testing/quick.
func TestWeightConservationProperty(t *testing.T) {
	tg := prepared(t)
	exhaustive := float64(fault.NewSpace(tg.Profile()).Total())
	f := func(seed int64, loopIters uint8, bitChoice uint8) bool {
		samples := []int{-1, 4, 8, 16, 0}[int(bitChoice)%5]
		plan, err := core.BuildPlan(tg, core.Options{
			Seed:       seed,
			LoopIters:  int(loopIters%10) + 1,
			BitSamples: samples,
			Grouping:   core.GroupingOptions{BySignature: true},
		})
		if err != nil {
			return false
		}
		return math.Abs(plan.TotalWeight()-exhaustive) <= 1e-6*exhaustive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLoopPruningReducesSites(t *testing.T) {
	tg := prepared(t)
	full, err := core.BuildPlan(tg, core.Options{Seed: 1, LoopIters: -1})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := core.BuildPlan(tg, core.Options{Seed: 1, LoopIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Stages.Loop >= full.Stages.Loop {
		t.Fatalf("loop sampling did not reduce sites: %d vs %d",
			sampled.Stages.Loop, full.Stages.Loop)
	}
	if len(sampled.LoopPrune.Samples) == 0 {
		t.Fatal("no loop samples recorded")
	}
	for _, ls := range sampled.LoopPrune.Samples {
		if len(ls.Sampled) != 2 {
			t.Fatalf("sampled %d iterations, want 2", len(ls.Sampled))
		}
		if ls.Factor <= 1 {
			t.Fatalf("factor %v should exceed 1", ls.Factor)
		}
	}
}

func TestBitPruningAccounting(t *testing.T) {
	tg := prepared(t)
	all, err := core.BuildPlan(tg, core.Options{Seed: 1, BitSamples: -1, DisablePredPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if all.KnownMasked != 0 {
		t.Fatalf("pred pruning disabled but KnownMasked = %v", all.KnownMasked)
	}
	pruned, err := core.BuildPlan(tg, core.Options{Seed: 1, BitSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.KnownMasked == 0 {
		t.Fatal("pred pruning produced no known-masked weight")
	}
	if len(pruned.Sites) >= len(all.Sites) {
		t.Fatalf("bit sampling did not reduce sites: %d vs %d",
			len(pruned.Sites), len(all.Sites))
	}
}

// TestEstimateAccuracy is the end-to-end integration check: on the grouped
// toy kernel, the pruned estimate must track a random baseline within a few
// percentage points, the paper's central claim.
func TestEstimateAccuracy(t *testing.T) {
	tg := prepared(t)
	plan, err := core.BuildPlan(tg, core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	est, err := plan.Estimate(fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	sites := space.Random(stats.NewRNG(8), 1500)
	res, err := fault.Run(tg, fault.Uniform(sites), fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The toy kernel has only 16 threads, so one representative stands for
	// at most 8 heterogeneous members — extrapolation variance is far
	// larger than on real kernels (see TestEstimateAccuracyRealKernel and
	// the Fig. 9 experiment, which land within ~2 pp). The bound here only
	// guards against gross regressions.
	if delta := est.MaxClassDelta(res.Dist); delta > 15 {
		t.Fatalf("pruned estimate off by %.1f pp: est %v vs base %v",
			delta, est, res.Dist)
	}
}

// TestEstimateAccuracyRealKernel runs the same check on a real (small)
// workload, Gaussian K1 — cheap enough for the single-core test budget.
func TestEstimateAccuracyRealKernel(t *testing.T) {
	spec, ok := kernels.ByName("Gaussian K1")
	if !ok {
		t.Fatal("kernel missing")
	}
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Target.Prepare(); err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildPlan(inst.Target, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	est, err := plan.Estimate(fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(inst.Target.Profile())
	sites := space.Random(stats.NewRNG(2), 1200)
	res, err := fault.Run(inst.Target, fault.Uniform(sites), fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if delta := est.MaxClassDelta(res.Dist); delta > 10 {
		t.Fatalf("Gaussian K1 estimate off by %.1f pp: est %v vs base %v",
			delta, est, res.Dist)
	}
}

func TestAutoLoopIters(t *testing.T) {
	tg := prepared(t)
	res, err := core.AutoLoopIters(tg, core.AutoLoopOptions{Base: core.Options{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters < 1 || res.Iters > core.DefaultAutoLoopMax {
		t.Fatalf("selected %d iterations", res.Iters)
	}
	if len(res.Steps) < res.Iters {
		t.Fatalf("steps %d < selected %d", len(res.Steps), res.Iters)
	}
	// The toy kernel's loops have at most 6 iterations: once the sample
	// covers them, consecutive steps are identical, so the search must
	// stop before the cap.
	if res.Iters == core.DefaultAutoLoopMax && len(res.Steps) == core.DefaultAutoLoopMax {
		last := res.Steps[len(res.Steps)-1]
		prev := res.Steps[len(res.Steps)-2]
		if last.MaxClassDelta(prev) == 0 {
			t.Fatal("search failed to detect an exactly stable tail")
		}
	}
}

// TestDeadWriteSoundness is the critical property behind the dead-write
// extension stage: every site the liveness analysis prunes must actually be
// masked. Verified by injecting into every bit of every dead destination of
// several threads of a real kernel.
func TestDeadWriteSoundness(t *testing.T) {
	spec, _ := kernels.ByName("2DCONV K1")
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	tg := inst.Target
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	prof := tg.Profile()
	space := fault.NewSpace(prof)
	checked := 0
	for _, thread := range []int{0, 9, 27, 60} {
		dead := trace.DeadWrites(prof.Prog, prof.Threads[thread].PCs)
		sites := space.ThreadSites(thread, func(dyn int64) bool { return dead[dyn] })
		for _, s := range sites {
			o, err := tg.RunSite(s)
			if err != nil {
				t.Fatal(err)
			}
			if o != fault.Masked {
				pc := tg.StaticPCAt(s.Thread, s.DynInst)
				t.Fatalf("dead site %v (pc %d: %s) produced %v",
					s, pc, tg.Instr(pc), o)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("kernel has no dead writes to verify")
	}
	t.Logf("verified %d dead sites masked", checked)
}

func TestDeadWritePruneStage(t *testing.T) {
	tg := prepared(t)
	without, err := core.BuildPlan(tg, core.Options{Seed: 1, Grouping: core.GroupingOptions{BySignature: true}})
	if err != nil {
		t.Fatal(err)
	}
	with, err := core.BuildPlan(tg, core.Options{
		Seed: 1, DeadWritePrune: true,
		Grouping: core.GroupingOptions{BySignature: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if with.DeadPrune.Insts == 0 {
		t.Skip("toy kernel has no dead writes")
	}
	if len(with.Sites) >= len(without.Sites) {
		t.Fatalf("dead-write pruning removed nothing: %d vs %d sites",
			len(with.Sites), len(without.Sites))
	}
	// Weight conservation still holds: the pruned mass moved to
	// KnownMasked.
	exhaustive := float64(fault.NewSpace(tg.Profile()).Total())
	if got := with.TotalWeight(); math.Abs(got-exhaustive) > 1e-6*exhaustive {
		t.Fatalf("mass %v != exhaustive %v", got, exhaustive)
	}
	if with.KnownMasked <= without.KnownMasked {
		t.Fatal("dead mass not credited to masked")
	}
}

func TestPlanDeterminism(t *testing.T) {
	tg := prepared(t)
	a, err := core.BuildPlan(tg, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.BuildPlan(tg, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sites) != len(b.Sites) {
		t.Fatalf("site counts differ: %d vs %d", len(a.Sites), len(b.Sites))
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("site %d differs: %v vs %v", i, a.Sites[i], b.Sites[i])
		}
	}
}
