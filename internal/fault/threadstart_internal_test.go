package fault

import (
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/ptx"
)

// threadStartSrc is the oracle kernel of the thread-start resume: 3 CTAs of
// 4 threads, thread-independent (no barrier, global stores only). Every
// thread stores its own words (V, C, and by role Z, W, out), loads K, which
// thread 0 alone stores on page 4, and adds in[gid] to its own C in place.
// Per CTA, local thread 0 stores L and the low byte of B and loads Y, which
// local 1 stores later; locals 1–3 load B, local 2 loads L. A word X is
// stored by thread 2, loaded by thread 3 into its output E, and stored again
// by thread 4 in CTA 1, so thread 3 starts between two of its stores in
// different CTAs. In CTA 2 only, an accumulator A is stored by locals 0 and
// 2 and loaded by locals 1 and 2, so threads 9 and 10 start between two of
// its stores.
const threadStartSrc = `
	cvt.u32.u16 $r0, %tid.x
	cvt.u32.u16 $r1, %ctaid.x
	shl.u32 $r2, $r1, 0x00000002
	add.u32 $r2, $r2, $r0                      // gid
	shl.u32 $r3, $r2, 0x00000002               // 4*gid
	shl.u32 $r4, $r1, 0x00000002               // 4*cta
	set.eq.u32.u32 $p1/$o127, $r2, 0x00000000
	mov.u32 $r5, 0x00001234
	@$p1.ne st.global.u32 [0x00004000], $r5    // K, by thread 0, alone on page 4
	ld.global.u32 $r6, [0x00004000]
	add.u32 $r6, $r6, $r2
	st.global.u32 [$r3+0x00001100], $r6        // V[gid] = K+gid
	ld.global.u32 $r7, [$r3+0x00000000]        // in[gid]
	ld.global.u32 $r8, [$r3+0x00003300]
	add.u32 $r8, $r8, $r7                      // tsOwn
	st.global.u32 [$r3+0x00003300], $r8        // C[gid] += in[gid]
	set.eq.u32.u32 $p0/$o127, $r0, 0x00000000
	@$p0.eq bra lnot0
	add.u32 $r9, $r7, 0x00000003
	st.global.u32 [$r4+0x00002000], $r9        // L[cta] = in+3
	ld.global.u32 $r10, [$r4+0x00002040]       // Y[cta], before local 1 stores it
	add.u32 $r10, $r10, 0x00000005
	st.global.u32 [$r3+0x00003000], $r10       // Z[gid] = Y+5
	add.u32 $r11, $r2, 0x00000040
	st.global.u8 [$r4+0x00002080], $r11        // B[cta]'s low byte
	bra lacc
	lnot0: ld.global.u32 $r12, [$r4+0x00002080] // B[cta]
	add.u32 $r12, $r12, $r7                    // tsSub
	st.global.u32 [$r3+0x00003100], $r12       // W[gid] = B+in
	set.eq.u32.u32 $p2/$o127, $r0, 0x00000001
	@$p2.eq bra lnot1
	add.u32 $r13, $r7, 0x0000000b
	st.global.u32 [$r4+0x00002040], $r13       // Y[cta] = in+11
	bra lacc
	lnot1: set.eq.u32.u32 $p2/$o127, $r0, 0x00000002
	@$p2.eq bra lacc
	ld.global.u32 $r14, [$r4+0x00002000]       // L[cta]
	add.u32 $r14, $r14, 0x00000001             // tsLink
	st.global.u32 [$r3+0x00001000], $r14       // out[gid] = L+1
	lacc: set.eq.u32.u32 $p2/$o127, $r2, 0x00000002
	@$p2.ne st.global.u32 [0x00002140], $r2    // X = gid, by thread 2
	set.eq.u32.u32 $p2/$o127, $r2, 0x00000003
	@$p2.ne ld.global.u32 $r16, [0x00002140]
	@$p2.ne add.u32 $r16, $r16, $r7            // tsCross
	@$p2.ne st.global.u32 [$r3+0x00003400], $r16 // E[gid] = X+in, by thread 3
	set.eq.u32.u32 $p2/$o127, $r2, 0x00000004
	@$p2.ne st.global.u32 [0x00002140], $r7    // X = in, by thread 4
	set.eq.u32.u32 $p3/$o127, $r1, 0x00000002
	@$p3.eq bra lend
	set.eq.u32.u32 $p2/$o127, $r0, 0x00000000
	@$p2.ne st.global.u32 [0x00002100], $r2    // A = gid, by thread 8
	set.eq.u32.u32 $p2/$o127, $r0, 0x00000001
	@$p2.ne ld.global.u32 $r15, [0x00002100]
	@$p2.ne add.u32 $r15, $r15, $r7
	@$p2.ne st.global.u32 [$r3+0x00003200], $r15 // D[gid] = A+in, by thread 9
	set.eq.u32.u32 $p2/$o127, $r0, 0x00000002
	@$p2.ne ld.global.u32 $r15, [0x00002100]
	@$p2.ne add.u32 $r15, $r15, 0x00000064
	@$p2.ne st.global.u32 [0x00002100], $r15   // A += 100, by thread 10
	lend: exit
`

// The static instructions the oracle injects into.
const (
	tsOwn   = 14 // C[gid] in place: a word only the injected thread stores
	tsSub   = 27 // W = B+in, B's low byte stored by an earlier thread
	tsLink  = 37 // out = L+1, L stored by an earlier thread
	tsCross = 43 // E = X+in, X stored by an earlier thread and in a later CTA
)

// threadStartTarget builds the oracle kernel — with a barrier before the
// exit when barrier is set — under scheduler width warp.
func threadStartTarget(t *testing.T, barrier bool, warp int) *Target {
	t.Helper()
	src := threadStartSrc
	if barrier {
		src = strings.Replace(src, "lend: exit", "lend: bar.sync 0x00000000\n\texit", 1)
	}
	prog, err := ptx.Assemble("threadstart", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []int{tsOwn, tsSub, tsLink, tsCross} {
		if !strings.HasPrefix(prog.Instrs[pc].Op.String(), "add") {
			t.Fatalf("kernel changed: PC %d is %v, want an add", pc, prog.Instrs[pc].Op)
		}
	}
	dev := gpusim.NewDevice(5 * gpusim.PageSize)
	in := make([]uint32, 12)
	for i := range in {
		in[i] = uint32(3*i + 1)
	}
	dev.WriteWords(0, in)
	dev.WriteWords(0x2000, []uint32{0x55, 0x55, 0x55})
	dev.WriteWords(0x2040, []uint32{0x100, 0x101, 0x102})
	dev.WriteWords(0x2080, []uint32{0xAABBCC00, 0xAABBCC01, 0xAABBCC02})
	dev.WriteWords(0x2100, []uint32{0x77})
	dev.WriteWords(0x2140, []uint32{0x66})
	for i := range in {
		dev.WriteWords(0x3300+4*i, []uint32{uint32(1000 + i)})
	}
	tg := &Target{
		Name:     "threadstart",
		Prog:     prog,
		Grid:     gpusim.Dim3{X: 3, Y: 1, Z: 1},
		Block:    gpusim.Dim3{X: 4, Y: 1, Z: 1},
		Init:     dev,
		WarpSize: warp,
		Output:   []Range{{Off: gpusim.PageSize, Len: 4 * gpusim.PageSize}},
	}
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	if tg.WarpCheckpoints() != nil {
		t.Fatal("the oracle kernel got warp snapshots: a resume inside a CTA would not be a thread start")
	}
	return tg
}

// TestThreadStartResumeOracle pins the thread-start resume (DESIGN.md §3.2)
// on a kernel built for it: every site of every model agrees with the full
// run, and every run it resumes at the injected thread's start replays
// nothing but that thread's own prefix.
//
//   - An earlier thread of the CTA stores a word the injected thread
//     loads (L), or a byte of it (B): resumed, with the word patched.
//   - Threads 9 and 10 start between two stores of A: never resumed at
//     their start. Thread 11 starts after both: resumed.
//   - Thread 3 starts between thread 2's store of X and thread 4's, in the
//     next CTA: never resumed at its start, since X's last storer lies
//     after it and its value at thread 3's start is recorded nowhere.
//   - Every thread rewrites its own C in place, so patching a word whose
//     last storer is the injected thread itself would double its update;
//     and local thread 0 loads Y before local 1 stores it, so an earlier
//     thread that ran again would see the patched value.
//   - A CTA's first thread starts at the CTA's boundary snapshot, which
//     needs no patching.
//   - A barrier, lockstep warps, a lane-correlated or a persistent fault:
//     never resumed at a thread start.
func TestThreadStartResumeOracle(t *testing.T) {
	tg := threadStartTarget(t, false, 0)
	w := &workerDevice{dev: tg.Init.Clone()}
	// run injects one site through the campaign path, checks it against
	// the full run and reports whether it resumed at the thread's start.
	run := func(tg *Target, s Site, m Model) (Outcome, bool) {
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
			t.Fatalf("%v %v: %v (thread-start resume %v), full run %v", m, s, got, cost.intraResumed, want)
		}
		if cost.intraResumed && cost.replay != s.DynInst {
			t.Fatalf("%v %v: resumed at the thread start, yet replayed %d instructions before dynamic instruction %d",
				m, s, cost.replay, s.DynInst)
		}
		return got, cost.intraResumed
	}

	space := NewSpace(tg.Profile())
	resumed := make([]bool, tg.Threads())
	for th := 0; th < tg.Threads(); th++ {
		for m := Model(0); m < NumModels; m++ {
			for _, s := range space.ForModel(m).ThreadSites(th, nil) {
				if _, r := run(tg, s, m); r {
					if !threadLocal(m) {
						t.Fatalf("%v %v: resumed at the thread start", m, s)
					}
					resumed[th] = true
				}
			}
		}
	}
	for th, r := range resumed {
		// Resumable: every thread but its CTA's first and the three that
		// start between two stores of a word.
		if want := th%4 != 0 && th != 3 && th != 9 && th != 10; r != want {
			t.Fatalf("thread %d resumed at its start %v, want %v", th, r, want)
		}
	}

	expect := func(tg *Target, thread, pc, bit int, m Model, want Outcome, wantResume bool, why string) {
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
		if got, r := run(tg, s, m); got != want || r != wantResume {
			t.Fatalf("%s: %v site %v gave %v, resumed %v; want %v, resumed %v",
				why, m, s, got, r, want, wantResume)
		}
	}
	expect(tg, 6, tsLink, 3, ModelDestValue, SDC, true, "an earlier thread stores the loaded word")
	expect(tg, 5, tsSub, 30, ModelDestValue, SDC, true, "an earlier thread stores a byte of the loaded word")
	expect(tg, 5, tsOwn, 7, ModelDestValue, SDC, true, "a word the injected thread rewrites in place")
	expect(tg, 4, tsOwn, 7, ModelDestValue, SDC, false, "the first thread of CTA 1")
	expect(tg, 9, tsSub, 0, ModelDestValue, SDC, false, "a thread between two stores of a word")
	expect(tg, 10, tsLink, 0, ModelDestValue, SDC, false, "a thread between two stores of a word")
	expect(tg, 11, tsSub, 0, ModelDestValue, SDC, true, "a thread after both stores of a word")
	expect(tg, 3, tsCross, 0, ModelDestValue, SDC, false, "a thread between two stores of a word in two CTAs")

	// Never at a thread start where the premises fail; the same sites
	// resume above.
	for _, tg := range []*Target{threadStartTarget(t, true, 0), threadStartTarget(t, false, 32)} {
		expect(tg, 6, tsLink, 3, ModelDestValue, SDC, false, "barrier kernel or lockstep warps")
	}
	expect(tg, 6, tsLink, 3, ModelLaneCorrelated, SDC, false, "lane-correlated")
	expect(tg, 6, tsLink, 3, ModelStuckPred, Masked, false, "stuck-pred")
}
