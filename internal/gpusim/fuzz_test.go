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

// fuzzProgram generates a structurally valid random program of n
// instructions from a SplitMix64 stream seeded with seed. Shared by the never-panic and
// plan-vs-reference fuzz targets. Operands occasionally read %tid.x so the
// four lanes diverge (guarded forward and backward branches, loads and
// stores to shared and global memory they race on), and the opcode mix
// includes bar.sync on ids 0 and 1, optionally guarded — so lanes park at
// different barriers, skip them, or exit before them, which is what
// exercises the scheduler's min-PC / park / release / deadlock-trap election
// under both widths.
func fuzzProgram(t testing.TB, seed uint64, n int) *isa.Program {
	t.Helper()
	ops := []isa.Opcode{
		isa.OpMov, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpMad, isa.OpDiv,
		isa.OpRem, isa.OpMin, isa.OpMax, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpNot, isa.OpShl, isa.OpShr, isa.OpSet, isa.OpCvt, isa.OpAbs,
		isa.OpNeg, isa.OpRcp, isa.OpSqrt, isa.OpLd, isa.OpSt, isa.OpBra,
		isa.OpSad, isa.OpSelp, isa.OpSlct, isa.OpCnot, isa.OpEx2,
		isa.OpBar, isa.OpBar,
	}
	types := []isa.DataType{isa.TypeU32, isa.TypeS32, isa.TypeF32, isa.TypeU16, isa.TypeB32}

	// SplitMix64: consecutive draws under small moduli must be independent,
	// or whole operand shapes (a draw selecting "global", the next selecting
	// its base) are never generated.
	rnd := func(mod uint64) uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return (z ^ z>>31) % mod
	}
	reg := func() isa.Operand { return isa.R(int(rnd(16))) }
	// global addresses the 256-byte device: word-aligned off the zero
	// register (always in range) fifteen times in sixteen, otherwise off a
	// computed register at any byte offset, which usually faults — enough
	// memory traps to compare them, few enough that programs run deep.
	global := func() isa.Operand {
		if rnd(16) == 0 {
			return isa.MemIndirect(isa.SpaceGlobal, isa.Reg{Class: isa.RegGPR, Index: uint8(rnd(16))}, uint32(rnd(64)))
		}
		return isa.MemIndirect(isa.SpaceGlobal, isa.Reg{Class: isa.RegGPR, Index: isa.ZeroReg}, uint32(rnd(64))*4)
	}
	operand := func() isa.Operand {
		switch rnd(8) {
		case 0, 1:
			return isa.Imm(uint32(rnd(1 << 16)))
		case 2:
			return isa.MemDirect(isa.SpaceShared, uint32(rnd(256))*4)
		case 3:
			return global()
		case 4:
			return isa.Special(isa.SpecTidX)
		default:
			return reg()
		}
	}
	pred := func() isa.Reg { return isa.Reg{Class: isa.RegPred, Index: uint8(rnd(4))} }
	guard := func() isa.Guard {
		return isa.Guard{Reg: pred(), Cond: isa.CmpEq + isa.CmpOp(rnd(10)), Not: rnd(2) == 0}
	}
	// aluDest picks an ALU destination: mostly a plain GPR (the plan's
	// fused tier), sometimes the dual "$pN/$rM" or a bare predicate, so the
	// flag-deriving closures (carry, overflow, zero, sign) are compared too.
	aluDest := func(in *isa.Instruction) {
		in.Dst = reg()
		switch rnd(6) {
		case 0:
			in.DstPred = pred()
		case 1:
			in.Dst = isa.Operand{Kind: isa.OpdReg, Reg: pred()}
		}
	}
	p := &isa.Program{Name: "fuzz", Labels: map[string]int{}}
	label := func(pc int) string {
		name := fmt.Sprintf("l%d", pc)
		p.Labels[name] = pc
		return name
	}
	for i := 0; i < n; i++ {
		op := ops[rnd(uint64(len(ops)))]
		in := isa.Instruction{PC: i, Op: op,
			DType: types[rnd(uint64(len(types)))]}
		in.SType = in.DType
		switch op {
		case isa.OpBra:
			// Mostly forward to any later instruction (lanes diverge, then
			// reconverge under min-PC election), sometimes to the exit, and
			// occasionally a guarded back edge (loops, watchdog traps).
			switch r := rnd(8); {
			case r == 0:
				in.Target = "lend"
			case r == 1 && i > 0:
				in.Target = label(int(rnd(uint64(i))))
				in.Guard = guard()
			default:
				in.Target = label(i + 1 + int(rnd(uint64(n-i))))
			}
			if rnd(2) == 0 {
				in.Guard = guard()
			}
		case isa.OpBar:
			in.Srcs = []isa.Operand{isa.Imm(uint32(rnd(2)))}
			if rnd(2) == 0 {
				in.Guard = guard()
			}
		case isa.OpSt:
			in.Dst = global()
			if rnd(2) == 0 {
				in.Dst = isa.MemDirect(isa.SpaceShared, uint32(rnd(256))*4)
			}
			in.Srcs = []isa.Operand{reg()}
		case isa.OpSet:
			in.Cmp = isa.CmpOp(1 + rnd(6))
			in.DstPred = pred()
			in.Dst = isa.R(isa.SinkReg)
			in.Srcs = []isa.Operand{operand(), operand()}
		case isa.OpSelp:
			aluDest(&in)
			in.Srcs = []isa.Operand{operand(), operand(), isa.P(int(rnd(4)))}
		case isa.OpMad, isa.OpSad, isa.OpSlct:
			aluDest(&in)
			in.Srcs = []isa.Operand{operand(), operand(), operand()}
		case isa.OpMov, isa.OpLd, isa.OpNot, isa.OpCnot, isa.OpAbs,
			isa.OpNeg, isa.OpCvt, isa.OpRcp, isa.OpSqrt, isa.OpEx2:
			aluDest(&in)
			in.Srcs = []isa.Operand{operand()}
		default:
			aluDest(&in)
			in.Srcs = []isa.Operand{operand(), operand()}
		}
		if op.Sequential() && rnd(8) == 0 {
			in.Guard = guard() // annulment on the straight-line fast paths
		}
		p.Instrs = append(p.Instrs, in)
	}
	p.Instrs = append(p.Instrs, isa.Instruction{PC: n, Op: isa.OpExit, Label: "lend"})
	p.Labels["lend"] = n
	if err := p.Validate(); err != nil {
		t.Fatalf("generator produced invalid program: %v", err)
	}
	return p
}

// injectKinds lists every InjectKind; the differentials iterate or index it.
var injectKinds = []InjectKind{
	InjectDestValue, InjectDestDouble, InjectMemAddr, InjectDestByte,
	InjectLaneCorrelated, InjectStuckPred, InjectStuckActiveMask, InjectStuckBarrier,
}

// fuzzInjection decodes a fuzzer-chosen selector into an injection on the
// 4-thread fuzz launch.
func fuzzInjection(injSel uint32) *Injection {
	return &Injection{
		Thread:  int(injSel % 4),
		DynInst: int64((injSel >> 2) % 64),
		Bit:     int((injSel >> 8) % 64),
		Kind:    injectKinds[(injSel>>14)%uint32(len(injectKinds))],
	}
}

// addFuzzSeeds seeds a (seed, size, injSel) fuzz target with 200
// LCG-derived inputs, so a plain `go test` exercises as many random
// programs per run as the testing/quick properties these targets replaced;
// the checked-in corpus under testdata/fuzz adds inputs selected for
// coverage (every kind firing on a program with barriers, every trap kind).
func addFuzzSeeds(f *testing.F) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		f.Add(x, uint8(x>>40), uint32(x>>8))
	}
}

// FuzzExecuteNeverPanics drives Execute — and the reference interpreter
// behind the same launch validation — with randomly generated
// (structurally valid) programs, with and without an injection, under both
// scheduler widths: any behaviour is acceptable — clean exit, memory fault,
// watchdog, deadlock — except a panic, a setup error, or the two engines
// disagreeing on the Result. This is the robustness property fault
// injection relies on: a bit flip can steer execution anywhere, and the
// simulator must classify, not crash.
func FuzzExecuteNeverPanics(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, injSel uint32) {
		prog := fuzzProgram(t, seed, int(size%40)+1)
		for _, warp := range []int{0, 4} {
			for _, inj := range []*Injection{nil, fuzzInjection(injSel)} {
				run := func(execute func(*Device, *Launch) (*Result, error)) (*Result, []byte) {
					dev := NewDevice(256)
					res, err := execute(dev, &Launch{
						Prog:     prog,
						Grid:     Dim3{X: 1, Y: 1, Z: 1},
						Block:    Dim3{X: 4, Y: 1, Z: 1},
						Watchdog: 2_000,
						WarpSize: warp,
						Inject:   inj,
					})
					if err != nil {
						t.Fatalf("seed %d warp %d inj %+v: setup error (generator bug): %v", seed, warp, inj, err)
					}
					return res, dev.Bytes()
				}
				got, gotMem := run(Execute)
				ref, refMem := run(executeReference)
				if !sameTrap(ref.Trap, got.Trap) || ref.TotalDyn != got.TotalDyn ||
					!slices.Equal(ref.ThreadICnt, got.ThreadICnt) || !bytes.Equal(refMem, gotMem) {
					t.Fatalf("seed %d warp %d inj %+v: Result diverges:\nreference %+v\nplan      %+v",
						seed, warp, inj, ref, got)
				}
			}
		}
	})
}

// diffCase is one launch (X-only geometry) that both engines run.
type diffCase struct {
	prog        *isa.Program
	grid, block int
	shared      int // per-CTA shared memory bytes
	params      []uint32
	init        *Device // pristine image, cloned per run
	warp        int
	inj         *Injection
}

// fuzzCase is the single-CTA 4-thread launch the fuzz targets use.
func fuzzCase(prog *isa.Program, warp int, inj *Injection) diffCase {
	return diffCase{prog: prog, grid: 1, block: 4, shared: DefaultSharedBytes,
		init: NewDevice(256), warp: warp, inj: inj}
}

// launch is the case's Launch, as both diffRun and Execute take it.
func (c diffCase) launch() *Launch {
	return &Launch{
		Prog:        c.prog,
		Grid:        Dim3{X: c.grid, Y: 1, Z: 1},
		Block:       Dim3{X: c.block, Y: 1, Z: 1},
		Params:      c.params,
		SharedBytes: c.shared,
		Watchdog:    2_000,
		WarpSize:    c.warp,
		Inject:      c.inj,
	}
}

// diffRunState is the full observable architectural state of one run,
// captured for bit-exact comparison between the compiled plan and the
// reference interpreter.
type diffRunState struct {
	threads []threadState // final state of every thread that ran, by value: regs, preds, ofs, pc, dynCount, done, waiting, barID
	shared  [][]byte      // final shared memory of every CTA that ran
	dev     []byte
	trap    *Trap
}

// diffRun executes c through the given per-CTA runner, keeping each CTA's
// state alive so final registers and predicates can be compared directly.
// It mirrors Execute's CTA construction for X-only geometry and stops at the
// first trap, like Execute.
func diffRun(c diffCase, runCTA func(*exec, *ctaState) *Trap) diffRunState {
	dev := c.init.Clone()
	launch := c.launch()
	e := &exec{
		prog:        c.prog,
		dev:         dev,
		launch:      launch,
		res:         new(Result),
		block:       launch.Block,
		grid:        launch.Grid,
		watchdog:    launch.Watchdog,
		addrFlipBit: -1,
		persist:     newPersistState(c.inj),
		plan:        planFor(c.prog),
	}
	var st diffRunState
	all := make([]threadState, c.grid*c.block) // one backing array: CTAs point into it
	for ctaIndex := 0; ctaIndex < c.grid && st.trap == nil; ctaIndex++ {
		cta := &ctaState{shared: make([]byte, c.shared)}
		for i, p := range c.params {
			putWord(cta.shared, ParamBase+4*i, p)
		}
		for tx := 0; tx < c.block; tx++ {
			th := &all[ctaIndex*c.block+tx]
			*th = threadState{flat: ctaIndex*c.block + tx, tid: Dim3{X: tx}, ctaid: Dim3{X: ctaIndex}}
			cta.threads = append(cta.threads, th)
		}
		st.trap = runCTA(e, cta)
		st.threads = all[:(ctaIndex+1)*c.block]
		st.shared = append(st.shared, cta.shared)
	}
	st.dev = dev.Bytes()
	return st
}

// sameTrap compares traps by value (kind, thread, PC and message).
func sameTrap(a, b *Trap) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// diffEngines runs c on the reference interpreter and on the compiled plan
// and reports the first observable on which they disagree — trap, any
// thread's final state, shared memory, global memory — or "" when the runs
// are bit-identical. The reference state is returned for coverage checks.
func diffEngines(c diffCase) (ref diffRunState, divergence string) {
	ref = diffRun(c, (*exec).referenceRunCTA)
	got := diffRun(c, (*exec).runCTA)
	switch {
	case !sameTrap(ref.trap, got.trap):
		return ref, fmt.Sprintf("trap diverges: reference %v, plan %v", ref.trap, got.trap)
	case len(ref.threads) != len(got.threads):
		return ref, fmt.Sprintf("ran %d threads, reference ran %d", len(got.threads), len(ref.threads))
	}
	for i := range ref.threads {
		if ref.threads[i] != got.threads[i] {
			return ref, fmt.Sprintf("thread %d state diverges:\nreference %+v\nplan      %+v",
				ref.threads[i].flat, ref.threads[i], got.threads[i])
		}
	}
	for i := range ref.shared {
		if !bytes.Equal(ref.shared[i], got.shared[i]) {
			return ref, fmt.Sprintf("shared memory of CTA %d diverges", i)
		}
	}
	if !bytes.Equal(ref.dev, got.dev) {
		return ref, "global memory diverges"
	}
	return ref, ""
}

// diffReuse runs c through Execute on a fresh clone and on reused — a device
// that earlier cases already launched on, reset to the pristine image — and
// reports the first observable through which the reused launch scratch
// shows (launchOutcome.diff); "" when there is none.
func diffReuse(c diffCase, reused *Device) string {
	run := func(dev *Device) launchOutcome {
		dev.ResetFrom(c.init)
		return observe(dev, c.launch())
	}
	return run(c.init.Clone()).diff(run(reused))
}

// FuzzPlanMatchesReference is the differential property behind the compiled
// execution plan and its scheduler (DESIGN.md §3.2): for random programs
// with barriers, under both scheduler widths, with and without an injected
// fault of any kind, the compiled plan and the reference interpreter must
// agree on every observable — final registers, predicates, offset
// registers, PCs, dynamic instruction counts, barrier ledger, shared and
// global memory, and the trap (kind, thread, PC and message).
//
// Each case then runs through Execute, as two CTAs, on one device that a
// program writing every register and every earlier case of the input
// already launched on: whatever the launch scratch keeps between launches
// and between CTAs (DESIGN.md §3.3) must not show in the Result or in
// memory.
func FuzzPlanMatchesReference(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, injSel uint32) {
		prog := fuzzProgram(t, seed, int(size%40)+1)
		var reused *Device
		for _, warp := range []int{0, 4} {
			for _, inj := range []*Injection{nil, fuzzInjection(injSel)} {
				c := fuzzCase(prog, warp, inj)
				if _, d := diffEngines(c); d != "" {
					t.Fatalf("seed %d size %d warp %d inj %+v: %s", seed, size, warp, inj, d)
				}
				c.grid = 2
				if reused == nil {
					reused = c.init.Clone()
					poison := c
					poison.prog, poison.inj = poisonProg, nil
					observe(reused, poison.launch())
				}
				if d := diffReuse(c, reused); d != "" {
					t.Fatalf("seed %d size %d warp %d inj %+v: %s", seed, size, warp, inj, d)
				}
			}
		}
	})
}

// chainhangCase builds the adversarial multi-CTA kernel the fault-level
// differentials use (internal/fault's chainHangTarget): 4 CTAs of 8 threads
// with cross-CTA global-memory dependence plus a predicate-guarded barrier
// split, so exhaustive injection reaches clean exits, wrong results,
// address faults and barrier deadlocks in any CTA.
func chainhangCase(t *testing.T, warp int) diffCase {
	t.Helper()
	prog, err := ptx.Assemble("chainhang", `
		cvt.u32.u16 $r0, %tid.x
		cvt.u32.u16 $r1, %ctaid.x
		cvt.u32.u16 $r2, %ntid.x
		mad.lo.u32 $r3, $r1, $r2, $r0      // gid
		set.ge.u32.u32 $p0/$o127, $r0, 8   // never true fault-free
		@$p0.ne bra lother
		bar.sync 0x00000000
		bra lwork
		lother: bar.sync 0x00000001
		lwork: shl.u32 $r4, $r0, 0x00000002
		add.u32 $r4, $r4, s[0x0010]        // &acc[tid]
		ld.global.u32 $r5, [$r4]
		add.u32 $r5, $r5, $r3
		add.u32 $r5, $r5, 0x00000001
		st.global.u32 [$r4], $r5           // acc[tid] += gid+1
		shl.u32 $r6, $r3, 0x00000002
		add.u32 $r6, $r6, s[0x0014]        // &out[gid]
		set.lt.u32.u32 $p1/$o127, $r0, 8   // always true fault-free
		mov.u32 $r7, 0x00000000
		@$p1.ne mov.u32 $r7, $r5
		st.global.u32 [$r6], $r7           // out[gid] = acc[tid], or 0 if $p1 fails
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(PageSize + 4*32) // acc on page 0, out on page 1
	dev.WriteWords(0, []uint32{7, 11, 13, 17, 19, 23, 29, 31})
	// A small shared window (the kernel only reads its two params) keeps
	// the ~10^5 runs of the exhaustive sweep from being dominated by
	// clearing 16 KiB of shared memory per CTA.
	return diffCase{prog: prog, grid: 4, block: 8, shared: 256, params: []uint32{0, PageSize},
		init: dev, warp: warp}
}

// TestPlanMatchesReferenceChainhangExhaustive is the exhaustive half of the
// plan-vs-reference differential: on chainhang, every dynamic instruction
// of every thread × every injection kind × every bit of the kind's encoding
// space, under both scheduler widths, must leave the compiled plan and the
// reference interpreter in bit-identical architectural state with
// bit-identical traps — not merely the same outcome class. It replaces
// internal/fault's campaign-level TestCompiledCampaignMatchesInterpreter,
// which could only compare outcome classes and only for dest-value; the
// fault-level differentials keep pinning checkpointed = full-run on the
// plan, so plan + checkpoints = reference + full runs follows by
// composition.
func TestPlanMatchesReferenceChainhangExhaustive(t *testing.T) {
	for _, warp := range []int{0, 4} {
		warp := warp
		name := "serial"
		if warp > 0 {
			name = "warp4"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := chainhangCase(t, warp)
			golden, d := diffEngines(c)
			if d != "" {
				t.Fatalf("golden run: %s", d)
			}
			if golden.trap != nil {
				t.Fatalf("golden run trapped: %v", golden.trap)
			}
			sites := 0
			traps := map[TrapKind]int{}
			for _, th := range golden.threads {
				for dyn := int64(0); dyn < th.dynCount; dyn++ {
					for _, kind := range injectKinds {
						bits := 32
						if kind.Persistent() {
							bits = kind.StuckBits()
						}
						for bit := 0; bit < bits; bit++ {
							c.inj = &Injection{Thread: th.flat, DynInst: dyn, Bit: bit, Kind: kind}
							ref, d := diffEngines(c)
							if d != "" {
								t.Fatalf("inj %+v: %s", c.inj, d)
							}
							sites++
							if ref.trap != nil {
								traps[ref.trap.Kind]++
							}
						}
					}
				}
			}
			t.Logf("%d injections, traps %v", sites, traps)
			if sites < 10_000 {
				t.Fatalf("implausibly small exhaustive space: %d", sites)
			}
			for _, k := range []TrapKind{TrapMemFault, TrapDeadlock} {
				if traps[k] == 0 {
					t.Fatalf("exhaustive space reaches no %v trap: %v", k, traps)
				}
			}
		})
	}
}

// TestCompiledMatchesInterpreterInvalidCmp pins the trap parity of the
// condition-code validation: a program whose guard or comparison carries a
// condition code outside the defined range must raise TrapInvalid — not
// silently execute (guards) or evaluate false (set) — identically on both
// execution paths.
func TestCompiledMatchesInterpreterInvalidCmp(t *testing.T) {
	cases := []struct {
		name  string
		prog  func(t *testing.T) *isa.Program
		wants string
	}{
		{
			name: "invalid-guard-cond",
			prog: func(t *testing.T) *isa.Program {
				p := &isa.Program{Name: "badguard", Labels: map[string]int{"lend": 1}}
				p.Instrs = []isa.Instruction{
					{PC: 0, Op: isa.OpBra, Target: "lend",
						Guard: isa.Guard{Reg: isa.Reg{Class: isa.RegPred, Index: 0}, Cond: isa.CmpOp(99)}},
					{PC: 1, Op: isa.OpExit, Label: "lend"},
				}
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				return p
			},
			wants: "invalid condition code",
		},
		{
			name: "invalid-set-cmp",
			prog: func(t *testing.T) *isa.Program {
				p := &isa.Program{Name: "badcmp", Labels: map[string]int{}}
				p.Instrs = []isa.Instruction{
					{PC: 0, Op: isa.OpSet, Cmp: isa.CmpOp(99), DType: isa.TypeU32, SType: isa.TypeU32,
						DstPred: isa.Reg{Class: isa.RegPred, Index: 0},
						Dst:     isa.R(isa.SinkReg),
						Srcs:    []isa.Operand{isa.Imm(1), isa.Imm(2)}},
					{PC: 1, Op: isa.OpExit},
				}
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				return p
			},
			wants: "invalid comparison code",
		},
		{
			name: "cmpnone-guard",
			prog: func(t *testing.T) *isa.Program {
				// A guard with CmpNone previously executed unconditionally;
				// it now traps as malformed on both paths.
				p := &isa.Program{Name: "noneguard", Labels: map[string]int{"lend": 1}}
				p.Instrs = []isa.Instruction{
					{PC: 0, Op: isa.OpBra, Target: "lend",
						Guard: isa.Guard{Reg: isa.Reg{Class: isa.RegPred, Index: 0}, Cond: isa.CmpNone}},
					{PC: 1, Op: isa.OpExit, Label: "lend"},
				}
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				return p
			},
			wants: "invalid condition code",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.prog(t)
			for _, warp := range []int{0, 4} {
				ref := diffRun(fuzzCase(prog, warp, nil), (*exec).referenceRunCTA)
				got := diffRun(fuzzCase(prog, warp, nil), (*exec).runCTA)
				for _, st := range []struct {
					mode string
					s    diffRunState
				}{{"interpreter", ref}, {"compiled", got}} {
					if st.s.trap == nil || st.s.trap.Kind != TrapInvalid {
						t.Fatalf("warp %d %s: want TrapInvalid, got %v", warp, st.mode, st.s.trap)
					}
					if !strings.Contains(st.s.trap.Msg, tc.wants) {
						t.Fatalf("warp %d %s: trap message %q does not mention %q",
							warp, st.mode, st.s.trap.Msg, tc.wants)
					}
				}
				if *ref.trap != *got.trap {
					t.Fatalf("warp %d: traps diverge: interpreter %v, compiled %v", warp, ref.trap, got.trap)
				}
			}
		})
	}
}
