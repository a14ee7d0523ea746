package fault

import (
	"testing"

	"repro/internal/gpusim"
	"repro/internal/ptx"
)

// The static instructions of deadExitTarget's kernel the oracle injects
// into. The kernel is straight-line, so a thread's dynamic instruction
// index equals the PC.
const (
	pcAcc     = 3  // acc + v: page 0, which every later CTA loads
	pcOut0    = 5  // feeds only out[0], which every later CTA rewrites whole
	pcPart    = 8  // feeds only part[0], whose low byte later CTAs rewrite
	pcOwn     = 13 // own + v: the CTA's own page, which no other CTA loads
	pcOwnPred = 14 // guards the CTA's only store to its own page
)

// deadExitTarget builds the hand-made oracle kernel for the dead-divergence
// exit: 4 CTAs of one thread over seven pages — acc (page 0) is loaded and
// stored by every CTA, out (page 1) and part (page 2) are stored and never
// loaded, and CTA c loads and stores its own page 3+c. Each instruction
// named by a pc constant puts a fault into one of the exit rule's cases.
func deadExitTarget(t *testing.T) *Target {
	t.Helper()
	prog, err := ptx.Assemble("deadexit", `
		cvt.u32.u16 $r1, %ctaid.x
		add.u32 $r2, $r1, 0x00000001              // v = ctaid+1
		ld.global.u32 $r3, [0x00000000]
		add.u32 $r3, $r3, $r2                     // pcAcc
		st.global.u32 [0x00000000], $r3
		add.u32 $r4, $r1, 0x00000001              // pcOut0
		st.global.u32 [0x00001000], $r4           // out[0] = v
		set.eq.u32.u32 $p1/$o127, $r1, 0x00000000
		mov.u32 $r6, 0x04030201                   // pcPart
		@$p1.ne st.global.u32 [0x00002000], $r6   // CTA 0 writes part[0] whole
		@$p1.eq st.global.u8 [0x00002000], $r1    // later CTAs write its low byte
		shl.u32 $r7, $r1, 0x0000000c
		ld.global.u32 $r8, [$r7+0x00003000]
		add.u32 $r8, $r8, $r2                     // pcOwn
		set.lt.u32.u32 $p2/$o127, $r1, 0x00000064 // pcOwnPred: true fault-free
		@$p2.ne st.global.u32 [$r7+0x00003000], $r8
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(7 * gpusim.PageSize)
	for c := 0; c < 4; c++ {
		dev.WriteWords((3+c)*gpusim.PageSize, []uint32{uint32(100*c + 7)})
	}
	tg := &Target{
		Name:   "deadexit",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 4, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 1, Y: 1, Z: 1},
		Init:   dev,
		Output: []Range{{Off: 0, Len: 7 * gpusim.PageSize}},
	}
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestDeadExitOracle pins the dead-divergence exit (DESIGN.md §3.1) on a
// kernel built for it: every dest-value and mem-addr site agrees with the
// full run, and each case of the exit rule stops or runs on exactly when
// the rule says.
//
//   - A later CTA rewrites the faulted output word whole: Masked at the
//     boundary, through the later-writer rule.
//   - A later CTA loads the divergent page: the exit is refused.
//   - Only the injected CTA loads its divergent page: the exit fires (a
//     reader test of ">=" would refuse it).
//   - The fault skips the CTA's only store to a page: the page is divergent
//     because the run never dirtied it, and the run is SDC at the boundary.
//   - Later CTAs rewrite only the low byte of a differing output word: the
//     summary cannot tell which bytes a sub-word store covers, so the exit
//     is refused, also when the low byte is the only one differing.
func TestDeadExitOracle(t *testing.T) {
	tg := deadExitTarget(t)
	w := &workerDevice{dev: tg.Init.Clone()}
	// run injects one site through the campaign path and checks it against
	// the full run.
	run := func(s Site, m Model) (Outcome, bool) {
		t.Helper()
		got, cost, err := tg.injectOn(w, s, m)
		if err != nil {
			t.Fatalf("%v %v: %v", m, s, err)
		}
		want, err := tg.RunSiteModel(s, m)
		if err != nil {
			t.Fatalf("%v %v full run: %v", m, s, err)
		}
		if got != want {
			t.Fatalf("%v %v: %v (exited early %v), full run %v", m, s, got, cost.earlyExit, want)
		}
		return got, cost.earlyExit
	}

	space := NewSpace(tg.Profile())
	exits := 0
	for th := 0; th < tg.Threads(); th++ {
		for _, s := range space.ThreadSites(th, nil) {
			if _, ex := run(s, ModelDestValue); ex {
				exits++
			}
		}
		for _, s := range space.ForModel(ModelMemAddr).ThreadSites(th, nil) {
			run(s, ModelMemAddr)
		}
	}
	if exits == 0 {
		t.Fatal("no dest-value site exited early")
	}

	// The cases, CTA by CTA. The last CTA has no later boundary to stop at,
	// but its one thread's exit is a thread boundary (TestThreadExitOracle).
	expect := func(cta, pc, bit int, want Outcome, exit bool, why string) {
		t.Helper()
		if dyn := int64(pc); gpusim.PC(tg.prep.profile.Threads[cta].PCs[dyn]) != pc {
			t.Fatalf("kernel changed: dynamic instruction %d of thread %d is not PC %d", dyn, cta, pc)
		}
		s := Site{Thread: cta, DynInst: int64(pc), Bit: bit}
		got, exited := run(s, ModelDestValue)
		if got != want || exited != exit {
			t.Fatalf("%s: site %v gave %v, exited %v; want %v, exited %v", why, s, got, exited, want, exit)
		}
	}
	for cta := 0; cta < 3; cta++ {
		for _, bit := range []int{0, 17, 31} {
			expect(cta, pcOut0, bit, Masked, true, "later whole-word rewrite")
			expect(cta, pcAcc, bit, SDC, false, "divergent page loaded later")
			expect(cta, pcOwn, bit, SDC, true, "divergent page loaded only by the injected CTA")
		}
		expect(cta, pcOwnPred, 0, SDC, true, "skipped store")
	}
	expect(3, pcOut0, 0, SDC, true, "last CTA")
	expect(0, pcPart, 9, SDC, false, "later sub-word rewrite of a differing byte")
	expect(0, pcPart, 2, Masked, false, "later sub-word rewrite of the only differing byte")
}
