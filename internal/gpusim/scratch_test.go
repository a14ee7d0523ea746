package gpusim

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/ptx"
)

// leakSrc is a straight-line kernel (dynamic instruction i is static PC i)
// whose output depends on everything a reused launch scratch could leak: it
// loads a shared-memory slot before any thread stored to it, reads a GPR and
// a predicate it has not written yet, and only then poisons all three for
// whoever takes the slot next. Two more GPRs it never writes at all are its
// highest: $r21, read as an ALU source, and $r22, read only as a memory
// base, so its register footprint must count sources and bases, not just
// destinations. acc[tid] carries a cross-CTA dependence, and the
// multiply-add chain through acc[128] makes the order in which threads
// first run visible (a thread wrongly left parked would run late).
const leakSrc = `
	cvt.u32.u16 $r0, %tid.x
	mov.u32 $r12, s[0x0010]
	add.u32 $r12, $r12, 0x00000200
	ld.global.u32 $r13, [$r12]
	mul.lo.u32 $r13, $r13, 0x00000003
	add.u32 $r13, $r13, $r0
	st.global.u32 [$r12], $r13             // acc[128] = 3*acc[128] + tid
	cvt.u32.u16 $r1, %ctaid.x
	cvt.u32.u16 $r2, %ntid.x
	mad.lo.u32 $r3, $r1, $r2, $r0          // gid
	cvt.u32.u16 $r11, %ctaid.y
	shl.u32 $r11, $r11, 0x00000008
	shl.u32 $r4, $r0, 0x00000002
	ld.shared.u32 $r5, s[$r4+0x0100]       // own slot, not stored yet: 0
	add.u32 $r5, $r5, $r20                 // $r20 not written yet: 0
	add.u32 $r5, $r5, $r21                 // $r21 never written: 0
	add.u32 $r5, $r5, s[$r22+0x0014]       // $r22 never written: + the out param
	@$p0.eq add.u32 $r5, $r5, 0x00000040   // $p0 not set yet: annulled
	add.u32 $r5, $r5, $r3
	add.u32 $r5, $r5, $r11
	add.u32 $r5, $r5, 0x00000001
	st.shared.u32 s[$r4+0x0100], $r5
	bar.sync 0x00000000
	xor.b32 $r6, $r4, 0x00000004
	ld.shared.u32 $r7, s[$r6+0x0100]       // the neighbour's slot
	add.u32 $r8, $r4, s[0x0010]
	ld.global.u32 $r9, [$r8]
	add.u32 $r9, $r9, $r7
	st.global.u32 [$r8], $r9               // acc[tid] += neighbour
	mov.u32 $r20, $r9
	set.ne.u32.u32 $p0/$o127, $r0, $r0     // false: sets $p0's zero flag
	shl.u32 $r10, $r3, 0x00000002
	add.u32 $r10, $r10, s[0x0014]
	st.global.u32 [$r10], $r9              // out[gid]
	exit
`

// Dynamic (= static) instruction indices of leakSrc the injections aim at.
const (
	leakSharedStore = 21 // st.shared, before the barrier
	leakLoadGlobal  = 26 // ld.global: a destination and an address
	leakAccStore    = 28 // st.global to acc[tid], past the barrier
	leakOutStore    = 33 // st.global to out[gid], the last store
)

// poisonProg writes a nonzero value to every GPR a program can name,
// $r0–$r123, and exits: whoever reuses its thread slots must read none of
// them, whatever registers it names itself.
var poisonProg = func() *isa.Program {
	var b strings.Builder
	for r := 0; r < isa.ZeroReg; r++ {
		fmt.Fprintf(&b, "mov.u32 $r%d, 0x%08x\n", r, 0x5A5A0000|r)
	}
	b.WriteString("exit\n")
	return ptx.MustAssemble("poison", b.String())
}()

// launchOutcome is everything a caller of Execute can observe of one launch:
// the error, the Result (copied out of the launch scratch), every AfterCTA
// call, and the device's memory image afterwards.
type launchOutcome struct {
	err        error
	res        Result
	boundaries string // "cta:faultLive " per AfterCTA call, in order
	mem        []byte
}

// observe executes l on dev with a recording AfterCTA hook.
func observe(dev *Device, l *Launch) launchOutcome {
	var o launchOutcome
	l.AfterCTA = func(cta int, faultLive bool) bool {
		o.boundaries += fmt.Sprintf("%d:%v ", cta, faultLive)
		return false
	}
	res, err := Execute(dev, l)
	if err != nil {
		o.err = err
		return o
	}
	o.res = Result{Trap: res.Trap, ThreadICnt: slices.Clone(res.ThreadICnt),
		TotalDyn: res.TotalDyn, CTAsExecuted: res.CTAsExecuted}
	o.mem = dev.Bytes()
	return o
}

// diff reports the first observable on which got — the same launch on a
// device whose launch scratch earlier launches used — departs from want, the
// launch on a fresh clone; "" when the two are indistinguishable.
func (want launchOutcome) diff(got launchOutcome) string {
	switch {
	case (want.err == nil) != (got.err == nil):
		return fmt.Sprintf("reused device: error %v, fresh %v", got.err, want.err)
	case !sameTrap(want.res.Trap, got.res.Trap):
		return fmt.Sprintf("reused device: trap %v, fresh %v", got.res.Trap, want.res.Trap)
	case !slices.Equal(want.res.ThreadICnt, got.res.ThreadICnt) || want.res.TotalDyn != got.res.TotalDyn:
		return fmt.Sprintf("reused device: iCnt %v, fresh %v", got.res.ThreadICnt, want.res.ThreadICnt)
	case want.res.CTAsExecuted != got.res.CTAsExecuted:
		return fmt.Sprintf("reused device: ran %d CTAs, fresh %d", got.res.CTAsExecuted, want.res.CTAsExecuted)
	case want.boundaries != got.boundaries:
		return fmt.Sprintf("reused device: AfterCTA calls %q, fresh %q", got.boundaries, want.boundaries)
	case !bytes.Equal(want.mem, got.mem):
		return "reused device: global memory diverges from a fresh clone's"
	}
	return ""
}

// leakGeom is one launch geometry of the reuse sequence.
type leakGeom struct {
	grid, block  Dim3
	shared, warp int
}

// TestScratchReuseMatchesFresh: a launch on a device that has already run
// other launches — a program that wrote every register, other block sizes,
// shared sizes, grids and schedulers, CTA-boundary and mid-CTA resumes,
// every injection kind, a run that trapped mid-CTA with its threads parked
// at a barrier — must be indistinguishable from the same launch on a fresh
// clone: every Result field, every AfterCTA call and the whole memory
// image. The launch scratch rides the device
// (DESIGN.md §3.3), so this is the test that nothing rides along with it.
func TestScratchReuseMatchesFresh(t *testing.T) {
	prog := ptx.MustAssemble("leak", leakSrc)
	init := NewDevice(2 * PageSize)
	acc := make([]uint32, 64)
	for i := range acc {
		acc[i] = uint32(1000 + 7*i)
	}
	init.WriteWords(0, acc)

	launchOf := func(g leakGeom) *Launch {
		return &Launch{
			Prog: prog, Grid: g.grid, Block: g.block,
			Params:      []uint32{0, PageSize},
			SharedBytes: g.shared, WarpSize: g.warp,
		}
	}
	narrow := leakGeom{Dim3{X: 6, Y: 1, Z: 1}, Dim3{X: 4, Y: 1, Z: 1}, 0, 0}
	wide := leakGeom{Dim3{X: 3, Y: 1, Z: 1}, Dim3{X: 64, Y: 1, Z: 1}, 1024, 32}
	planar := leakGeom{Dim3{X: 2, Y: 2, Z: 1}, Dim3{X: 8, Y: 1, Z: 1}, 2048, 32}
	serialWide := leakGeom{wide.grid, wide.block, wide.shared, 0}

	// Golden recordings supply the boundary and warp snapshots to resume from.
	record := func(g leakGeom) *Checkpoints {
		dev := init.Clone()
		rec := NewCheckpointRecorder(init, dev, g.grid.Count(), 5)
		if res, err := Execute(dev, launchOf(g)); err != nil || res.Trap != nil {
			t.Fatalf("golden %+v: %v %v", g, err, res)
		}
		return rec.Finish()
	}
	goldens := map[leakGeom]*Checkpoints{narrow: record(narrow), wide: record(wide)}

	type step struct {
		name   string
		prog   *isa.Program // leakSrc when nil
		g      leakGeom
		inj    *Injection
		first  int  // resume at this CTA boundary
		resume bool // and from the warp snapshot preceding inj
	}
	steps := []step{
		{name: "narrow poison", prog: poisonProg, g: narrow},
		{name: "narrow clean", g: narrow},
		{name: "wide clean", g: wide},
		{name: "planar clean", g: planar},
		{name: "narrow again", g: narrow},
	}
	// Every injection kind, under both schedulers. Thread 9 is local thread 1
	// of narrow's CTA 2; thread 70 is local thread 6 of wide's CTA 1.
	for kind := InjectDestValue; kind <= InjectStuckBarrier; kind++ {
		steps = append(steps,
			step{name: "narrow " + kind.String(), g: narrow,
				inj: &Injection{Thread: 9, DynInst: leakLoadGlobal, Bit: 3, Kind: kind}},
			step{name: "wide " + kind.String(), g: wide,
				inj: &Injection{Thread: 70, DynInst: leakLoadGlobal, Bit: 1, Kind: kind}},
			step{name: "narrow resumed " + kind.String(), g: narrow, first: 2, resume: true,
				inj: &Injection{Thread: 9, DynInst: leakLoadGlobal, Bit: 2, Kind: kind}},
			step{name: "wide from boundary " + kind.String(), g: wide, first: 1,
				inj: &Injection{Thread: 70, DynInst: leakLoadGlobal, Bit: 0, Kind: kind}})
	}
	steps = append(steps,
		// An address flip sends one store out of range: the CTA traps with
		// its other threads mid-flight — parked at the barrier when the
		// shared store faults, released past it when the acc store does —
		// and the clean launches that follow take their slots.
		step{name: "narrow trap at barrier", g: narrow,
			inj: &Injection{Thread: 5, DynInst: leakSharedStore, Bit: 30, Kind: InjectMemAddr}},
		step{name: "narrow after trap", g: narrow},
		step{name: "narrow trap past barrier", g: narrow,
			inj: &Injection{Thread: 5, DynInst: leakAccStore, Bit: 30, Kind: InjectMemAddr}},
		step{name: "narrow after second trap", g: narrow},
		step{name: "wide trap at barrier", g: wide, first: 1,
			inj: &Injection{Thread: 100, DynInst: leakSharedStore, Bit: 31, Kind: InjectMemAddr}},
		step{name: "serial wide after trap", g: serialWide},
		step{name: "wide resumed clean", g: wide, first: 2, resume: true,
			inj: &Injection{Thread: 130, DynInst: leakOutStore, Bit: 0, Kind: InjectDestValue}},
		step{name: "planar last", g: planar},
	)

	run := func(dev *Device, s step) launchOutcome {
		l := launchOf(s.g)
		l.Inject, l.FirstCTA = s.inj, s.first
		if s.prog != nil {
			l.Prog = s.prog
		}
		src := init
		if s.first > 0 {
			src, _ = goldens[s.g].SnapshotFor(s.first)
		}
		dev.ResetFrom(src)
		if s.resume {
			tpc := s.g.block.Count()
			ws := goldens[s.g].Warp().SnapshotBefore(s.first, s.inj.Thread-s.first*tpc, s.inj.DynInst)
			if ws == nil {
				t.Fatalf("%s: no warp snapshot precedes the site", s.name)
			}
			ws.RestorePages(dev)
			l.Resume = ws
		}
		o := observe(dev, l)
		if o.err != nil {
			t.Fatalf("%s: %v", s.name, o.err)
		}
		return o
	}

	reused := init.Clone()
	trapped := 0
	for _, s := range steps {
		want, got := run(init.Clone(), s), run(reused, s)
		if d := want.diff(got); d != "" {
			t.Fatalf("%s: %s", s.name, d)
		}
		if want.res.Trap != nil {
			trapped++
		}
	}
	// The sequence is only a leak test if some runs really did die mid-CTA.
	if trapped < 3 {
		t.Fatalf("%d steps trapped, want at least the three planted ones", trapped)
	}
}
