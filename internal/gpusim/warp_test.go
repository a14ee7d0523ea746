package gpusim_test

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/stats"
)

// mustAsm assembles test sources.
func mustAsm(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := ptx.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWarpModeEquivalence runs several kernels under the thread-serial and
// SIMT-lockstep schedulers and requires identical outputs and per-thread
// dynamic instruction counts: the workloads are race-free, so scheduling
// must not be observable — which is also why fault sites denote the same
// architectural events in both modes.
func TestWarpModeEquivalence(t *testing.T) {
	for _, name := range []string{"2DCONV K1", "PathFinder K1", "HotSpot K1", "LUD K46"} {
		spec, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("kernel %q missing", name)
		}
		inst, err := spec.Build(kernels.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		tgt := inst.Target

		run := func(warp int) (*gpusim.Result, []byte) {
			dev := tgt.Init.Clone()
			res, err := gpusim.Execute(dev, &gpusim.Launch{
				Prog:     tgt.Prog,
				Grid:     tgt.Grid,
				Block:    tgt.Block,
				Params:   tgt.Params,
				WarpSize: warp,
			})
			if err != nil {
				t.Fatalf("%s warp=%d: %v", name, warp, err)
			}
			if res.Trap != nil {
				t.Fatalf("%s warp=%d trapped: %v", name, warp, res.Trap)
			}
			return res, dev.Bytes()
		}

		serial, memSerial := run(0)
		for _, warp := range []int{4, 32} {
			warped, memWarped := run(warp)
			if !bytes.Equal(memSerial, memWarped) {
				t.Fatalf("%s: global memory differs under warp=%d", name, warp)
			}
			for i := range serial.ThreadICnt {
				if serial.ThreadICnt[i] != warped.ThreadICnt[i] {
					t.Fatalf("%s: thread %d iCnt %d vs %d under warp=%d",
						name, i, serial.ThreadICnt[i], warped.ThreadICnt[i], warp)
				}
			}
		}
	}
}

// TestWarpModeInjectionEquivalence: fault outcomes are scheduling-invariant
// too — random sites give the same outcome under both schedulers.
func TestWarpModeInjectionEquivalence(t *testing.T) {
	spec, _ := kernels.ByName("PathFinder K1")
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	tgt := inst.Target
	if err := tgt.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tgt.Profile())
	rng := stats.NewRNG(31)

	golden := tgt.Golden()
	for _, site := range space.Random(rng, 12) {
		var got [2]bool // output == golden, per mode
		for mode, warp := range map[int]int{0: 0, 1: 32} {
			dev := tgt.Init.Clone()
			res, err := gpusim.Execute(dev, &gpusim.Launch{
				Prog:     tgt.Prog,
				Grid:     tgt.Grid,
				Block:    tgt.Block,
				Params:   tgt.Params,
				WarpSize: warp,
				Watchdog: 1 << 20,
				Inject: &gpusim.Injection{
					Thread: site.Thread, DynInst: site.DynInst, Bit: site.Bit,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Trap != nil {
				got[mode] = false
				continue
			}
			got[mode] = dev.FirstDiff(dev.Size()-len(golden), golden) < 0
		}
		if got[0] != got[1] {
			t.Fatalf("site %v: masked-ness differs across schedulers", site)
		}
	}
}

// TestWarpDivergenceReconverges: a warp whose threads take different branch
// paths must still complete with correct per-thread results under min-PC
// reconvergence.
func TestWarpDivergenceReconverges(t *testing.T) {
	srcTarget := buildDivergent(t)
	dev := srcTarget.Init.Clone()
	res, err := gpusim.Execute(dev, &gpusim.Launch{
		Prog:     srcTarget.Prog,
		Grid:     srcTarget.Grid,
		Block:    srcTarget.Block,
		WarpSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	for i, w := range dev.ReadWords(0, 8) {
		want := uint32(i * 2)
		if i%2 == 1 {
			want = uint32(i * 3)
		}
		if w != want {
			t.Fatalf("thread %d produced %d, want %d", i, w, want)
		}
	}
}

func buildDivergent(t *testing.T) *fault.Target {
	t.Helper()
	// Even threads compute 2*tid, odd threads 3*tid, then all reconverge
	// and pass a barrier before storing.
	prog := mustAsm(t, `
		cvt.u32.u16 $r0, %tid.x
		and.b32 $r1, $r0, 0x00000001
		set.eq.u32.u32 $p0/$o127, $r1, $r124
		@$p0.eq bra lodd
		mul.lo.u32 $r2, $r0, 0x00000002
		bra ljoin
		lodd: mul.lo.u32 $r2, $r0, 0x00000003
		ljoin: bar.sync 0x00000000
		shl.u32 $r3, $r0, 0x00000002
		st.global.u32 [$r3], $r2
		exit
	`)
	return &fault.Target{
		Name:   "div",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 1, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 8, Y: 1, Z: 1},
		Init:   gpusim.NewDevice(64),
		Output: []fault.Range{{Off: 0, Len: 32}},
	}
}
