package fault_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/ptx"
)

// deadWrites is fault.DeadWrite at every dynamic instruction of pcs.
func deadWrites(prog *isa.Program, pcs []uint16) []bool {
	dead := make([]bool, len(pcs))
	for i := range pcs {
		dead[i] = fault.DeadWrite(prog, pcs, int64(i))
	}
	return dead
}

// straightLine is the trace of prog run from its first instruction to its
// last without a branch taken, every register write retired.
func straightLine(prog *isa.Program) []uint16 {
	pcs := make([]uint16, len(prog.Instrs))
	for pc := range pcs {
		pcs[pc] = uint16(pc)
		if _, _, ok := prog.Instrs[pc].DestReg(); ok {
			pcs[pc] |= gpusim.WroteBit
		}
	}
	return pcs
}

func TestDeadWritesSynthetic(t *testing.T) {
	prog := ptx.MustAssemble("dw", `
		mov.u32 $r1, 1                 // 0: dead (overwritten at 1)
		mov.u32 $r1, 2                 // 1: live (read at 2)
		add.u32 $r2, $r1, 3            // 2: live (stored at 4)
		mov.u32 $r3, 4                 // 3: dead (never read, thread exits)
		st.global.u32 [0x0000], $r2    // 4: no destination
		set.eq.u32.u32 $p0/$o127, $r2, $r2 // 5: live (guard reads $p0)
		@$p0.ne bra lend               // 6
		lend: set.ne.u32.u32 $p1/$o127, $r2, $r2 // 7: dead (pred never read)
		exit                           // 8
	`)
	dead := deadWrites(prog, straightLine(prog))
	want := map[int]bool{0: true, 1: false, 2: false, 3: true, 5: false, 7: true}
	for i, wantDead := range want {
		if dead[i] != wantDead {
			t.Errorf("instruction %d dead=%v, want %v", i, dead[i], wantDead)
		}
	}
}

// TestDeadWriteValueHalf holds the value half of a dual destination to
// being an overwrite: a register it writes before any read was dead, even
// when a later instruction reads the new value.
func TestDeadWriteValueHalf(t *testing.T) {
	prog := ptx.MustAssemble("vh", `
		mov.u32 $r1, 1                     // 0: dead (value half of 1 overwrites it)
		set.eq.u32.u32 $p0/$r1, $r2, $r2   // 1: live ($p0 guards 3)
		add.u32 $r3, $r1, 1                // 2: reads 1's value half
		@$p0.ne st.global.u32 [0x0000], $r3 // 3
		exit
	`)
	dead := deadWrites(prog, straightLine(prog))
	if !dead[0] || dead[1] || dead[2] {
		t.Fatalf("dead = %v, want instruction 0 only", dead[:3])
	}
}

func TestDeadWritesReadThroughMemoryBase(t *testing.T) {
	// A register used only as a load/store address base is a read.
	prog := ptx.MustAssemble("mb", `
		mov.u32 $r1, 4                 // 0: live (base of load at 1)
		ld.global.u32 $r2, [$r1]       // 1: live (stored at 2)
		st.global.u32 [$r1], $r2       // 2: reads both
		exit
	`)
	pcs := []uint16{0 | gpusim.WroteBit, 1 | gpusim.WroteBit, 2, 3}
	dead := deadWrites(prog, pcs)
	if dead[0] || dead[1] {
		t.Fatalf("memory-base reads not honored: %v", dead)
	}
}

func TestDeadWritesLoopCarried(t *testing.T) {
	// The loop counter is read by its own increment and the exit test:
	// every write but the last is live; the final increment's value is
	// consumed by the final set, whose predicate is consumed by the final
	// (untaken) branch — only nothing remains pending.
	prog := ptx.MustAssemble("lc", `
		mov.u32 $r1, $r124
		lloop: add.u32 $r1, $r1, 0x00000001
		set.lt.u32.u32 $p0/$o127, $r1, 0x00000003
		@$p0.ne bra lloop
		exit
	`)
	// Dynamic trace for 3 iterations.
	var pcs []uint16
	pcs = append(pcs, 0|gpusim.WroteBit)
	for it := 0; it < 3; it++ {
		pcs = append(pcs, 1|gpusim.WroteBit, 2|gpusim.WroteBit, 3)
	}
	pcs = append(pcs, 4)
	for i, d := range deadWrites(prog, pcs) {
		if d {
			t.Fatalf("loop-carried value at dyn %d marked dead", i)
		}
	}
}
