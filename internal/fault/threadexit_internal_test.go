package fault

import (
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/ptx"
)

// threadExitSrc is the oracle kernel of the thread-boundary exit: 2 CTAs of
// 4 threads. Every thread loads in[gid] and in[64] (page 0), stores
// out[gid] (page 1) and, last, mark[gid] (page 1), so a run that stopped at
// a thread boundary is recognisable by the missing marks. CTA 1 plays the
// cases around its local thread 1 (thread 5), CTA 0 the loaded-and-stored
// case around its local thread 1 (thread 1). Each te constant names the
// instruction a case injects into; the kernel has no loop, so a thread
// executes each PC at most once.
const threadExitSrc = `
	cvt.u32.u16 $r0, %tid.x
	cvt.u32.u16 $r1, %ctaid.x
	shl.u32 $r2, $r1, 0x00000002
	add.u32 $r2, $r2, $r0                      // gid
	shl.u32 $r3, $r2, 0x00000002
	ld.global.u32 $r4, [$r3+0x00000000]        // in[gid]
	ld.global.u32 $r5, [0x00000100]            // in[64], which every thread loads
	add.u32 $r6, $r4, $r5
	st.global.u32 [$r3+0x00001000], $r6        // out[gid]
	mov.u32 $r12, 0x00005a5a                   // X
	set.eq.u32.u32 $p0/$o127, $r1, 0x00000000
	@$p0.ne bra lcta0
	add.u32 $r7, $r2, 0x00000064               // teOW
	st.global.u32 [0x00002000], $r7            // ow = gid+100, whole, by every thread of CTA 1
	set.eq.u32.u32 $p1/$o127, $r0, 0x00000001
	@$p1.eq bra lnot1
	ld.global.u32 $r8, [0x00000200]            // O (page 0): loaded and stored by thread 5 only
	add.u32 $r8, $r8, $r2                      // teOwn
	st.global.u32 [0x00000200], $r8
	add.u32 $r9, $r2, 0x00000007               // teLink
	st.global.u32 [0x00003000], $r9            // link, which thread 7 loads
	mov.u32 $r10, 0x11223344                   // tePart
	st.global.u32 [0x00006000], $r10           // P, whole
	set.eq.u32.u32 $p2/$o127, $r0, 0x00000001  // teSkip: true fault-free
	@$p2.ne st.global.u32 [0x00005000], $r2    // S: the only store to page 5
	lnot1: set.eq.u32.u32 $p1/$o127, $r0, 0x00000003
	@$p1.eq bra lmark
	ld.global.u32 $r11, [0x00003000]           // link
	add.u32 $r11, $r11, 0x00000001
	st.global.u32 [0x00001100], $r11           // rd = link+1
	mov.u32 $r15, 0x00000044
	st.global.u8 [0x00006000], $r15            // P's low byte, rewritten with its golden value
	bra lmark
	lcta0: set.eq.u32.u32 $p1/$o127, $r0, 0x00000001
	@$p1.ne st.global.u32 [0x00004010], $r12   // teW1: W1 = X; address bit 2 turns W1 into W
	set.eq.u32.u32 $p1/$o127, $r0, 0x00000002
	@$p1.ne ld.global.u32 $r13, [0x00004014]   // W, loaded by thread 2 before thread 3 stores it
	@$p1.ne add.u32 $r13, $r13, 0x00000001
	@$p1.ne st.global.u32 [0x00001200], $r13   // out2 = W+1
	set.eq.u32.u32 $p1/$o127, $r0, 0x00000003
	@$p1.ne st.global.u32 [0x00004014], $r12   // W = X
	lmark: add.u32 $r14, $r2, 0x00000001
	st.global.u32 [$r3+0x00001300], $r14       // mark[gid]
	exit
`

const (
	teOW   = 12 // ow, which every later thread of the CTA rewrites whole
	teOwn  = 17 // O, on a page whose other words later threads load
	teLink = 19 // link, which a later thread loads
	tePart = 21 // P, whose low byte a later thread rewrites
	teSkip = 23 // guards the only store to page 5
	teW1   = 34 // W1, one address bit away from W
)

// threadExitTarget builds the oracle kernel — with a barrier before the
// marks when barrier is set — under scheduler width warp. Page 4 (W1, W) is
// scratch, not output.
func threadExitTarget(t *testing.T, barrier bool, warp int) *Target {
	t.Helper()
	src := threadExitSrc
	if barrier {
		src = strings.Replace(src, "lmark: add", "lmark: bar.sync 0x00000000\n\tadd", 1)
	}
	prog, err := ptx.Assemble("threadexit", src)
	if err != nil {
		t.Fatal(err)
	}
	for pc, op := range map[int]isa.Opcode{teOW: isa.OpAdd, teOwn: isa.OpAdd, teLink: isa.OpAdd, tePart: isa.OpMov, teSkip: isa.OpSet, teW1: isa.OpSt} {
		if prog.Instrs[pc].Op != op {
			t.Fatalf("kernel changed: PC %d is %v, want %v", pc, prog.Instrs[pc].Op, op)
		}
	}
	dev := gpusim.NewDevice(7 * gpusim.PageSize)
	in := make([]uint32, 65)
	for i := range in {
		in[i] = uint32(3*i + 1)
	}
	dev.WriteWords(0, in)
	tg := &Target{
		Name:     "threadexit",
		Prog:     prog,
		Grid:     gpusim.Dim3{X: 2, Y: 1, Z: 1},
		Block:    gpusim.Dim3{X: 4, Y: 1, Z: 1},
		Init:     dev,
		WarpSize: warp,
		Output:   []Range{{Off: 0, Len: 4 * gpusim.PageSize}, {Off: 5 * gpusim.PageSize, Len: 2 * gpusim.PageSize}},
	}
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestThreadExitOracle pins the thread-boundary exit and the word-granular
// refusal rule (DESIGN.md §3.2) on a kernel built for them: every
// dest-value and mem-addr site agrees with the full run, and each case
// stops at the injected thread's exit, at its CTA's boundary, or not at
// all, exactly when the rules say. The cases of thread 5 lie in the last
// CTA, where only the thread exit can fire.
//
//   - A later thread loads the faulted word: refused.
//   - Later threads rewrite the faulted word whole: Masked at the thread.
//   - The faulted word sits on a page whose other words later threads
//     load, and only the injected thread loads it: the exit fires (page
//     granularity, or a loader test of ">=", would refuse it).
//   - A word is loaded and stored after the injected thread: refused there
//     even though the fault left it at its final value, and the CTA
//     boundary decides instead (a rule without both[p] would exit Masked).
//   - The fault skips the thread's only store to a page: the page is
//     undirtied, found through its CTA's stored-page list, and the run is
//     SDC at the thread.
//   - A later thread rewrites a byte of a differing word: refused, also
//     when that byte is the only one differing.
//   - A barrier, lockstep warps, a lane-correlated or a persistent fault:
//     no thread exit.
func TestThreadExitOracle(t *testing.T) {
	// stop names where a run stopped: "thread" when the injected CTA's last
	// thread never stored its mark, "cta" at the CTA's boundary, "" when it
	// ran to the end.
	check := func(tg *Target, s Site, m Model) (Outcome, string) {
		t.Helper()
		w := &workerDevice{dev: tg.Init.Clone()}
		got, cost, err := tg.injectOn(w, s, m)
		if err != nil {
			t.Fatalf("%v %v: %v", m, s, err)
		}
		want, err := tg.RunSiteModel(s, m)
		if err != nil {
			t.Fatalf("%v %v full run: %v", m, s, err)
		}
		stop := ""
		if cost.earlyExit {
			stop = "cta"
			last := (s.Thread/4)*4 + 3
			if w.dev.ReadWords(gpusim.PageSize+0x300+4*last, 1)[0] == 0 {
				stop = "thread"
			}
		}
		if got != want {
			t.Fatalf("%v %v: %v (stopped at %q), full run %v", m, s, got, stop, want)
		}
		return got, stop
	}

	tg := threadExitTarget(t, false, 0)
	space := NewSpace(tg.Profile())
	threadExits := 0
	for th := 0; th < tg.Threads(); th++ {
		for _, s := range space.ThreadSites(th, nil) {
			if _, stop := check(tg, s, ModelDestValue); stop == "thread" {
				threadExits++
			}
		}
		for _, s := range space.ForModel(ModelMemAddr).ThreadSites(th, nil) {
			check(tg, s, ModelMemAddr)
		}
	}
	if threadExits == 0 {
		t.Fatal("no dest-value site exited at its thread")
	}

	expect := func(tg *Target, thread, pc, bit int, m Model, want Outcome, wantStop, why string) {
		t.Helper()
		dyn := int64(-1)
		for i, e := range tg.prep.profile.Threads[thread].PCs {
			if gpusim.PC(e) == pc {
				dyn = int64(i)
			}
		}
		if dyn < 0 {
			t.Fatalf("%s: thread %d never executes PC %d", why, thread, pc)
		}
		s := Site{Thread: thread, DynInst: dyn, Bit: bit}
		if got, stop := check(tg, s, m); got != want || stop != wantStop {
			t.Fatalf("%s: %v site %v gave %v, stopped at %q; want %v at %q", why, m, s, got, stop, want, wantStop)
		}
	}
	for _, bit := range []int{0, 17, 31} {
		expect(tg, 5, teLink, bit, ModelDestValue, SDC, "", "a later thread loads the faulted word")
		expect(tg, 5, teOW, bit, ModelDestValue, Masked, "thread", "later whole-word rewrite")
		expect(tg, 5, teOwn, bit, ModelDestValue, SDC, "thread", "other words of the page loaded later")
	}
	expect(tg, 1, teW1, 2, ModelMemAddr, SDC, "cta", "word loaded and stored after the thread")
	expect(tg, 5, teSkip, 0, ModelDestValue, SDC, "thread", "skipped store")
	expect(tg, 5, tePart, 9, ModelDestValue, SDC, "", "later sub-word rewrite of a differing byte")
	expect(tg, 5, tePart, 2, ModelDestValue, Masked, "", "later sub-word rewrite of the only differing byte")

	// No thread exit where its premises fail; the same site exits above.
	expect(threadExitTarget(t, true, 0), 5, teOW, 0, ModelDestValue, Masked, "", "barrier kernel")
	expect(threadExitTarget(t, false, 32), 5, teOW, 0, ModelDestValue, Masked, "", "lockstep warps")
	expect(tg, 5, teOW, 0, ModelLaneCorrelated, Masked, "", "lane-correlated")
	expect(tg, 5, teOW, 0, ModelStuckPred, Masked, "", "stuck-pred")
}
