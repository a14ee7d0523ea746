package fault_test

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// checkDecided holds every site of tg under model that the campaign engine
// decides without running to the outcome of the executing path: every
// dynamic instruction of every thread, with the Bit encodings bits (nil:
// all of them). It returns how many sites were decided, by outcome.
func checkDecided(t *testing.T, name string, tg *fault.Target, model fault.Model, bits []int) map[fault.Outcome]int {
	t.Helper()
	if bits == nil {
		for b := range model.StuckBits() {
			bits = append(bits, b)
		}
	}
	run := fault.Executor(tg, model)
	decided := map[fault.Outcome]int{}
	bad := 0
	for th, tp := range tg.Profile().Threads {
		for d := range tp.ICnt {
			for _, b := range bits {
				s := fault.Site{Thread: th, DynInst: d, Bit: b}
				o, ok := fault.Decide(tg, s, model)
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

// TestDecideMatchesExecution is the oracle of the campaign engine's
// decided sites (DESIGN.md §3.1): at warps 0 and 32, every decided outcome
// equals what the executing path (injectOn, never deciding) gives, on every
// stuck-active-mask and stuck-barrier site of PathFinder K1, LUD K46 and
// Gaussian K1, every stuck-pred site of Gaussian K1 and K125, and the eight
// $p0 stuck-pred encodings of every PathFinder K1 dynamic instruction, all
// small. A planted kernel, whose thread 1 loads an address thread 0 stores
// last, holds the stuck-at-0 Hang rule to its no-later-store premise.
func TestDecideMatchesExecution(t *testing.T) {
	p0 := []int{0, 1, 2, 3, 32, 33, 34, 35} // $p0's four flags, stuck at 0, then at 1
	type population struct {
		kernel string
		model  fault.Model
		bits   []int
	}
	var pops []population
	for _, k := range []string{"PathFinder K1", "LUD K46", "Gaussian K1"} {
		pops = append(pops, population{k, fault.ModelStuckActiveMask, nil}, population{k, fault.ModelStuckBarrier, nil})
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
