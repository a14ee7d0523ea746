package gpusim

import (
	"strings"
	"testing"

	"repro/internal/ptx"
)

func TestExecuteValidation(t *testing.T) {
	dev := NewDevice(16)
	prog := ptx.MustAssemble("p", "exit")
	if _, err := Execute(dev, &Launch{Prog: prog, Grid: Dim3{X: -1}, Block: Dim3{X: 1}}); err == nil {
		t.Error("negative geometry accepted")
	}
	// An all-zero extent counts as a single thread (CUDA's implicit 1s).
	if res, err := Execute(dev, &Launch{Prog: prog}); err != nil || res.Trap != nil {
		t.Errorf("implicit-1 geometry rejected: %v %v", err, res)
	}
	if _, err := Execute(dev, &Launch{
		Prog: nil, Grid: Dim3{X: 1}, Block: Dim3{X: 1},
	}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := Execute(dev, &Launch{
		Prog: prog, Grid: Dim3{X: 1}, Block: Dim3{X: 1},
		Params: make([]uint32, 64), SharedBytes: 32,
	}); err == nil {
		t.Error("params larger than shared memory accepted")
	}
}

// TestBarrierProducerConsumer: thread 0 writes shared memory, all threads
// read after a barrier. Without barrier correctness the consumers would read
// zero (threads run to the barrier in round-robin order).
func TestBarrierProducerConsumer(t *testing.T) {
	prog := ptx.MustAssemble("pc", `
		cvt.u32.u16 $r0, %tid.x
		set.eq.u32.u32 $p0/$o127, $r0, $r124
		@$p0.eq bra lwait
		bra lsync
		lwait: mov.u32 $r1, 0x000002A
		mov.u32 s[0x0100], $r1
		lsync: bar.sync 0x00000000
		ld.shared.u32 $r2, s[0x0100]
		shl.u32 $r3, $r0, 0x00000002
		st.global.u32 [$r3], $r2
		exit
	`)
	// Note: thread 0 takes lwait (writes 42), others skip to lsync.
	dev := NewDevice(64)
	res, err := Execute(dev, &Launch{
		Prog:  prog,
		Grid:  Dim3{X: 1, Y: 1, Z: 1},
		Block: Dim3{X: 8, Y: 1, Z: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	for i, w := range dev.ReadWords(0, 8) {
		if w != 42 {
			t.Fatalf("thread %d read %d, want 42", i, w)
		}
	}
}

// TestBarrierWithExitedThreads: threads that exit before the barrier must
// not block the others (GPGPU-Sim semantics: a barrier completes when all
// non-exited threads arrive).
func TestBarrierWithExitedThreads(t *testing.T) {
	prog := ptx.MustAssemble("be", `
		cvt.u32.u16 $r0, %tid.x
		set.lt.u32.u32 $p0/$o127, $r0, 4
		@$p0.eq bra lexit          // threads 4..7 exit immediately
		bar.sync 0x00000000
		shl.u32 $r3, $r0, 0x00000002
		mov.u32 $r1, 7
		st.global.u32 [$r3], $r1
		lexit: exit
	`)
	dev := NewDevice(64)
	res, err := Execute(dev, &Launch{
		Prog:  prog,
		Grid:  Dim3{X: 1, Y: 1, Z: 1},
		Block: Dim3{X: 8, Y: 1, Z: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	w := dev.ReadWords(0, 8)
	for i := 0; i < 4; i++ {
		if w[i] != 7 {
			t.Fatalf("surviving thread %d did not pass barrier: %v", i, w)
		}
	}
	for i := 4; i < 8; i++ {
		if w[i] != 0 {
			t.Fatalf("exited thread %d wrote: %v", i, w)
		}
	}
}

// TestBarrierDeadlock: threads parked on different barrier ids deadlock.
func TestBarrierDeadlock(t *testing.T) {
	prog := ptx.MustAssemble("dl", `
		cvt.u32.u16 $r0, %tid.x
		set.eq.u32.u32 $p0/$o127, $r0, $r124
		@$p0.ne bra lzero
		bar.sync 0x00000001
		bra lend
		lzero: bar.sync 0x00000000
		lend: exit
	`)
	dev := NewDevice(16)
	res, err := Execute(dev, &Launch{
		Prog:  prog,
		Grid:  Dim3{X: 1, Y: 1, Z: 1},
		Block: Dim3{X: 2, Y: 1, Z: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap == nil || res.Trap.Kind != TrapDeadlock {
		t.Fatalf("trap = %v, want deadlock", res.Trap)
	}
}

func TestCTAIsolation(t *testing.T) {
	// Each CTA sees its own shared memory: CTA 0 stores 1, CTA 1 stores 2;
	// both read back their own value.
	prog := ptx.MustAssemble("iso", `
		cvt.u32.u16 $r0, %ctaid.x
		add.u32 $r1, $r0, 0x00000001
		mov.u32 s[0x0100], $r1
		bar.sync 0x00000000
		ld.shared.u32 $r2, s[0x0100]
		shl.u32 $r3, $r0, 0x00000002
		st.global.u32 [$r3], $r2
		exit
	`)
	dev := NewDevice(16)
	res, err := Execute(dev, &Launch{
		Prog:  prog,
		Grid:  Dim3{X: 2, Y: 1, Z: 1},
		Block: Dim3{X: 1, Y: 1, Z: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	w := dev.ReadWords(0, 2)
	if w[0] != 1 || w[1] != 2 {
		t.Fatalf("shared memory leaked across CTAs: %v", w)
	}
}

func TestProfileTraceRecords(t *testing.T) {
	prog := ptx.MustAssemble("tr", `
		mov.u32 $r1, 1
		st.global.u32 [0x0000], $r1
		exit
	`)
	dev := NewDevice(16)
	tr := NewProfileTrace(1)
	res, err := Execute(dev, &Launch{
		Prog:   prog,
		Grid:   Dim3{X: 1, Y: 1, Z: 1},
		Block:  Dim3{X: 1, Y: 1, Z: 1},
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if len(tr.PCs[0]) != 3 {
		t.Fatalf("trace length %d, want 3", len(tr.PCs[0]))
	}
	if !Wrote(tr.PCs[0][0]) || PC(tr.PCs[0][0]) != 0 {
		t.Fatalf("mov entry: %#x", tr.PCs[0][0])
	}
	if Wrote(tr.PCs[0][1]) {
		t.Fatalf("st flagged as write: %#x", tr.PCs[0][1])
	}
	if Wrote(tr.PCs[0][2]) {
		t.Fatalf("exit flagged as write")
	}
	if res.ThreadICnt[0] != 3 || res.TotalDyn != 3 {
		t.Fatalf("counts: %d/%d", res.ThreadICnt[0], res.TotalDyn)
	}
}

func TestInjectionKinds(t *testing.T) {
	src := `
		mov.u32 $r1, 0x000000F0
		st.global.u32 [0x0000], $r1
		exit
	`
	run := func(inj *Injection) (*Result, *Device) {
		prog := ptx.MustAssemble("ik", src)
		dev := NewDevice(16)
		res, err := Execute(dev, &Launch{
			Prog:   prog,
			Grid:   Dim3{X: 1, Y: 1, Z: 1},
			Block:  Dim3{X: 1, Y: 1, Z: 1},
			Inject: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, dev
	}

	// Single-bit destination flip on the mov result.
	res, dev := run(&Injection{Thread: 0, DynInst: 0, Bit: 0})
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if got := dev.ReadWords(0, 1)[0]; got != 0xF1 {
		t.Fatalf("dest-value flip: %#x", got)
	}

	// Double-bit flip.
	res, dev = run(&Injection{Thread: 0, DynInst: 0, Bit: 0, Kind: InjectDestDouble})
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if got := dev.ReadWords(0, 1)[0]; got != 0xF3 {
		t.Fatalf("dest-double flip: %#x", got)
	}

	// Address flip on the store: bit 2 moves the write from 0x0 to 0x4.
	res, dev = run(&Injection{Thread: 0, DynInst: 1, Bit: 2, Kind: InjectMemAddr})
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	w := dev.ReadWords(0, 2)
	if w[0] != 0 || w[1] != 0xF0 {
		t.Fatalf("mem-addr flip: %v", w)
	}

	// Address flip to a misaligned address crashes.
	res, _ = run(&Injection{Thread: 0, DynInst: 1, Bit: 0, Kind: InjectMemAddr})
	if res.Trap == nil || res.Trap.Kind != TrapMemFault {
		t.Fatalf("misaligned injected store: %v", res.Trap)
	}

	// An armed address flip on a non-memory instruction is disarmed and
	// must not leak into later instructions.
	res, dev = run(&Injection{Thread: 0, DynInst: 0, Bit: 31, Kind: InjectMemAddr})
	if res.Trap != nil {
		t.Fatalf("leaked address flip: %v", res.Trap)
	}
	if got := dev.ReadWords(0, 1)[0]; got != 0xF0 {
		t.Fatalf("non-memory target altered output: %#x", got)
	}
}

func TestDeviceHelpers(t *testing.T) {
	dev := NewDevice(32)
	dev.WriteWords(4, []uint32{0x11223344, 0x55667788})
	got := dev.ReadWords(4, 2)
	if got[0] != 0x11223344 || got[1] != 0x55667788 {
		t.Fatalf("read back %v", got)
	}
	dev.Const = []byte{1, 2, 3, 4}
	cl := dev.Clone()
	cl.WriteBytes(4, []byte{0xFF})
	cl.Const[0] = 9
	if dev.Bytes()[4] == 0xFF || dev.Const[0] == 9 {
		t.Fatal("clone aliases original")
	}
	// And the original's writes must not leak into the clone.
	dev.WriteBytes(8, []byte{0xAB})
	if cl.Bytes()[8] == 0xAB {
		t.Fatal("original write visible through clone")
	}
}

func TestDim3(t *testing.T) {
	if (Dim3{X: 2, Y: 3, Z: 4}).Count() != 24 {
		t.Fatal("count")
	}
	if (Dim3{X: 5}).Count() != 5 {
		t.Fatal("zero dims should count as 1")
	}
	if (Dim3{X: 1, Y: 2, Z: 3}).String() != "(1,2,3)" {
		t.Fatal("string")
	}
}

func TestFallOffEndRetires(t *testing.T) {
	prog := ptx.MustAssemble("fo", "mov.u32 $r1, 1")
	dev := NewDevice(16)
	res, err := Execute(dev, &Launch{
		Prog:  prog,
		Grid:  Dim3{X: 1, Y: 1, Z: 1},
		Block: Dim3{X: 1, Y: 1, Z: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatalf("falling off the end trapped: %v", res.Trap)
	}
}

// TestAfterCTAFaultLive pins the fault-liveness contract of the AfterCTA
// hook (DESIGN.md §3.1): a persistent injection is reported live at every
// boundary before its thread's CTA completes and retired from that boundary
// on; transient and absent injections are never live (their effects at a
// boundary are plain memory state, fully covered by the snapshot image).
func TestAfterCTAFaultLive(t *testing.T) {
	prog := ptx.MustAssemble("live", `
		cvt.u32.u16 $r0, %tid.x
		exit
	`)
	cases := []struct {
		name string
		inj  *Injection
		want []bool
	}{
		// Persistent fault on a thread of CTA 2 (flat 4..5).
		{"persistent", &Injection{Thread: 4, DynInst: 0, Kind: InjectStuckPred},
			[]bool{true, true, false, false}},
		// A transient fault's liveness never extends past its own step.
		{"transient", &Injection{Thread: 4, DynInst: 0, Kind: InjectDestValue},
			[]bool{false, false, false, false}},
		{"none", nil, []bool{false, false, false, false}},
	}
	for _, tc := range cases {
		var got []bool
		dev := NewDevice(16)
		res, err := Execute(dev, &Launch{
			Prog:   prog,
			Grid:   Dim3{X: 4, Y: 1, Z: 1},
			Block:  Dim3{X: 2, Y: 1, Z: 1},
			Inject: tc.inj,
			AfterCTA: func(cta int, faultLive bool) bool {
				got = append(got, faultLive)
				return false
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Trap != nil {
			t.Fatalf("%s: trap %v", tc.name, res.Trap)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d boundaries, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: faultLive at boundary %d = %v, want %v (%v)", tc.name, i, got[i], tc.want[i], got)
			}
		}
	}
}

// TestProgramLengthLimit: a trace entry holds the PC in 15 bits beside
// WroteBit, so a 32768-instruction program traces every PC exactly, and
// Execute refuses one instruction more rather than let PC 32768 alias PC 0
// with the write flag set.
func TestProgramLengthLimit(t *testing.T) {
	prog := ptx.MustAssemble("long", strings.Repeat("mov.u32 $r1, 1\n", maxInstrs-1)+"exit\n")
	tr := NewProfileTrace(1)
	res, err := Execute(NewDevice(16), &Launch{Prog: prog, Tracer: tr})
	if err != nil {
		t.Fatalf("%d-instruction program: %v", maxInstrs, err)
	}
	if res.Trap != nil || len(tr.PCs[0]) != maxInstrs {
		t.Fatalf("%d-instruction program: trap %v, traced %d entries", maxInstrs, res.Trap, len(tr.PCs[0]))
	}
	for k, e := range tr.PCs[0] {
		if PC(e) != k || Wrote(e) != (k < maxInstrs-1) {
			t.Fatalf("trace entry %d = %#x: pc %d, wrote %v", k, e, PC(e), Wrote(e))
		}
	}

	long := ptx.MustAssemble("too-long", strings.Repeat("mov.u32 $r1, 1\n", maxInstrs)+"exit\n")
	_, err = Execute(NewDevice(16), &Launch{Prog: long, Tracer: NewProfileTrace(1)})
	if err == nil || !strings.Contains(err.Error(), "32768") {
		t.Fatalf("%d-instruction program: err = %v, want the limit named", maxInstrs+1, err)
	}
}
