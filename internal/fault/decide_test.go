package fault_test

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// checkDecided holds every site of tg under model that is settled without
// running to the outcome of the executing path: every dynamic instruction
// of every thread, with the Bit encodings bits (nil: all of them). Under a
// persistent model those are the sites the campaign engine decides
// (fault.Decide); under dest-value, the sites the plan credits as masked
// (credited). It returns how many sites were settled, by outcome.
func checkDecided(t *testing.T, name string, tg *fault.Target, model fault.Model, bits []int) map[fault.Outcome]int {
	t.Helper()
	decide := func(s fault.Site) (fault.Outcome, bool) { return fault.Decide(tg, s, model) }
	if model == fault.ModelDestValue {
		decide = credited(tg)
	}
	run := fault.Executor(tg, model)
	decided := map[fault.Outcome]int{}
	bad := 0
	for th, tp := range tg.Profile().Threads {
		for d := range tp.ICnt {
			sb := bits
			if sb == nil {
				e := tp.PCs[d]
				sb = allBits[:model.Sites(&tg.Prog.Instrs[gpusim.PC(e)], gpusim.Wrote(e))]
			}
			for _, b := range sb {
				s := fault.Site{Thread: th, DynInst: d, Bit: b}
				o, ok := decide(s)
				if !ok {
					continue
				}
				decided[o]++
				got, err := run(s)
				if err != nil {
					t.Fatalf("%s %v %v: %v", name, model, s, err)
				}
				if got != o && bad < 5 {
					bad++
					t.Errorf("%s %v %v: decided %v, executes to %v", name, model, s, o, got)
				}
			}
		}
	}
	return decided
}

// allBits lists the Bit encodings of a site, up to the largest count a
// model gives one dynamic instruction (stuck-pred's 64).
var allBits = func() (b [64]int) {
	for i := range b {
		b[i] = i
	}
	return b
}()

// credited is the plan's counterpart of fault.Decide under dest-value: a
// site is Masked without running when its destination is dead
// (fault.DeadWrite) or it flips a predicate flag no instruction consults
// (fault.UnreadPredFlags, the zero flag included).
func credited(tg *fault.Target) func(fault.Site) (fault.Outcome, bool) {
	prof := tg.Profile()
	unread := fault.UnreadPredFlags(tg.Prog)
	// checkDecided asks for the bits of one instruction in a row: DeadWrite
	// scans once per instruction.
	at, dead := fault.Site{Thread: -1}, false
	return func(s fault.Site) (fault.Outcome, bool) {
		pcs := prof.Threads[s.Thread].PCs
		if s.Thread != at.Thread || s.DynInst != at.DynInst {
			at, dead = s, fault.DeadWrite(tg.Prog, pcs, s.DynInst)
		}
		r, bits, _ := tg.Prog.Instrs[gpusim.PC(pcs[s.DynInst])].DestReg()
		if dead || bits == isa.PredBits && unread[r.Index]&(1<<s.Bit) != 0 {
			return fault.Masked, true
		}
		return 0, false
	}
}

// plantedLateStoreSrc is a warp-0 kernel of one CTA of two threads in which
// thread 1 loads, with no barrier between them, the word A that thread 0
// stores last, and uses it as an address. A starts out of range, so
// freezing thread 0's lane before that store (stuck-active-mask at 0) makes
// thread 1 trap: the run is Crash, not the Hang of a lane frozen after its
// last store.
const plantedLateStoreSrc = `
	cvt.u32.u16 $r0, %tid.x
	set.eq.u32.u32 $p0/$o127, $r0, 0x00000000
	@$p0.ne bra lwriter
	ld.global.u32 $r1, [0x00000000]     // A
	ld.global.u32 $r2, [$r1]
	st.global.u32 [0x00000104], $r2
	exit
	lwriter: mov.u32 $r3, 0x00000008
	st.global.u32 [0x00000100], $r3
	mov.u32 $r4, 0x00000080
	st.global.u32 [0x00000000], $r4     // A, a valid address
	exit
`

func plantedLateStoreTarget(t *testing.T) *fault.Target {
	t.Helper()
	prog, err := ptx.Assemble("latestore", plantedLateStoreSrc)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(gpusim.PageSize)
	dev.WriteWords(0, []uint32{0xFFFFFFF0})
	tg := &fault.Target{
		Name:   "latestore",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 1, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 2, Y: 1, Z: 1},
		Init:   dev,
		Output: []fault.Range{{Off: 0x100, Len: 8}},
	}
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestDecideMatchesExecution is the oracle of the outcomes the golden trace
// proves (DESIGN.md §3.1): at warps 0 and 32, every decided outcome equals
// what the executing path (injectOn, never deciding) gives, on every
// stuck-active-mask and stuck-barrier site of PathFinder K1, LUD K46 and
// Gaussian K1, every dest-value site of the three that the plan credits as
// masked (a dead write or an unread predicate flag), every stuck-pred site
// of Gaussian K1 and K125, and the eight $p0 stuck-pred encodings of every
// PathFinder K1 dynamic instruction, all small. A planted kernel, whose
// thread 1 loads an address thread 0 stores last, holds the stuck-at-0
// Hang rule to its no-later-store premise.
func TestDecideMatchesExecution(t *testing.T) {
	p0 := []int{0, 1, 2, 3, 32, 33, 34, 35} // $p0's four flags, stuck at 0, then at 1
	type population struct {
		kernel string
		model  fault.Model
		bits   []int
	}
	var pops []population
	for _, k := range []string{"PathFinder K1", "LUD K46", "Gaussian K1"} {
		pops = append(pops, population{k, fault.ModelStuckActiveMask, nil}, population{k, fault.ModelStuckBarrier, nil},
			population{k, fault.ModelDestValue, nil})
	}
	pops = append(pops,
		population{"Gaussian K1", fault.ModelStuckPred, nil},
		population{"Gaussian K125", fault.ModelStuckPred, nil},
		population{"PathFinder K1", fault.ModelStuckPred, p0})

	for _, warp := range []int{0, 32} {
		targets := map[string]*fault.Target{}
		for _, p := range pops {
			tg := targets[p.kernel]
			if tg == nil {
				ks, ok := kernels.ByName(p.kernel)
				if !ok {
					t.Fatalf("unknown kernel %q", p.kernel)
				}
				inst, err := ks.Build(kernels.ScaleSmall)
				if err != nil {
					t.Fatal(err)
				}
				tg = inst.Target
				tg.WarpSize = warp
				if err := tg.Prepare(); err != nil {
					t.Fatal(err)
				}
				targets[p.kernel] = tg
			}
			name := fmt.Sprintf("%s warp %d", p.kernel, warp)
			t.Logf("%s %v: decided %v", name, p.model, checkDecided(t, name, tg, p.model, p.bits))
		}
	}

	tg := plantedLateStoreTarget(t)
	for m := fault.Model(0); m < fault.NumModels; m++ {
		if m.Persistent() {
			checkDecided(t, "latestore", tg, m, nil)
		}
	}
	// Thread 0 stores A at its dynamic instruction 6: frozen before it,
	// thread 1 crashes; frozen after it, the CTA hangs; frozen at its exit,
	// nothing happens.
	run := fault.Executor(tg, fault.ModelStuckActiveMask)
	for d, want := range map[int64]fault.Outcome{5: fault.Crash, 6: fault.Hang, 7: fault.Masked} {
		s := fault.Site{Thread: 0, DynInst: d, Bit: 0}
		if got, err := run(s); err != nil || got != want {
			t.Errorf("latestore %v: executes to %v (%v), want %v", s, got, err, want)
		}
	}
}
