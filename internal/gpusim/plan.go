package gpusim

// The compiled execution plan: each static instruction of a program is
// pre-decoded once, at kernel load, into a specialized Go closure with its
// guard test, operand resolvers, ALU variant (type/wideness/saturation),
// branch target and destination routing all chosen at decode time. The
// dispatch loops (plan_run.go) then execute closures directly instead of
// re-interpreting the instruction encoding on every dynamic step, and batch
// maximal straight-line runs of sequential instructions
// (isa.Program.StraightLen) without re-entering the scheduler.
//
// The plan is the only engine a binary can execute. Its semantics are
// pinned by a reference interpreter that lives on the test side
// (reference_test.go): every closure mirrors one path through the
// reference's step/apply/compute line for line, and the careful dispatcher
// stepCompiled preserves every observable of the reference step — dynCount
// accounting, watchdog traps, injection arm/disarm points, tracer
// callbacks, predicate flags, and barrier park/release behavior.
// Equivalence argument: DESIGN.md §3.2; enforcement: the
// FuzzPlanMatchesReference / FuzzExecuteNeverPanics targets and
// TestPlanMatchesReferenceChainhangExhaustive (fuzz_test.go).

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/isa"
)

// seqFunc executes the body of one sequential (fall-through) instruction,
// guard already passed. The dispatcher advances th.pc on nil trap.
type seqFunc func(e *exec, th *threadState, cta *ctaState) *Trap

// ctrlFunc executes the body of one control instruction (branch, barrier,
// exit), returning the next PC and whether the thread parked.
type ctrlFunc func(e *exec, th *threadState, cta *ctaState) (nextPC int, blocked bool, trap *Trap)

// guardFunc evaluates a compiled predicate guard: whether the instruction
// executes, or a trap for an invalid condition code.
type guardFunc func(th *threadState) (bool, *Trap)

// srcFunc resolves one source operand; memory sources may trap.
type srcFunc func(e *exec, th *threadState, cta *ctaState) (uint32, *Trap)

// regFunc resolves a register/immediate/special source, which cannot trap.
type regFunc func(e *exec, th *threadState) uint32

// destFunc routes a value into a register destination.
type destFunc func(th *threadState, v uint32)

// writeFunc routes a computed value and its predicate flags to the
// instruction's register destination(s), mirroring exec.writeDest.
type writeFunc func(th *threadState, v uint32, flags uint8)

// compiledOp is the decoded form of one static instruction. Exactly one of
// seq and ctrl is non-nil, matching isa.Opcode.Sequential.
type compiledOp struct {
	seq  seqFunc
	ctrl ctrlFunc
	// guard is nil for unguarded instructions.
	guard guardFunc
	// destReg/hasDest precompute Instruction.DestReg for the injection
	// writeback and tracer wrote-bit.
	destReg isa.Reg
	hasDest bool
	// straight caches Program.StraightLen at this PC.
	straight int32
}

// execPlan is the compiled form of one program, shared read-only.
type execPlan struct {
	prog *isa.Program
	ops  []compiledOp
	// nregs is the program's register footprint (regFootprint): no closure,
	// flip or injection touches a GPR at or above it.
	nregs int
}

// planCache shares compiled plans across launches of the same program.
// Keyed by program identity: programs are immutable once they reach the
// simulator (Validate freezes them), and every consumer of a kernel holds
// the same *isa.Program. Bounded so a long-running campaign service over
// ever-fresh programs cannot grow it without limit; on overflow the whole
// map is dropped (compilation is cheap relative to any launch).
var planCache = struct {
	sync.Mutex
	m map[*isa.Program]*execPlan
}{m: make(map[*isa.Program]*execPlan)}

const planCacheCap = 256

// planFor returns the compiled plan of p, building it on first use.
func planFor(p *isa.Program) *execPlan {
	planCache.Lock()
	pl := planCache.m[p]
	planCache.Unlock()
	if pl != nil {
		return pl
	}
	pl = compileProgram(p)
	planCache.Lock()
	if prev := planCache.m[p]; prev != nil {
		pl = prev
	} else {
		if len(planCache.m) >= planCacheCap {
			planCache.m = make(map[*isa.Program]*execPlan)
		}
		planCache.m[p] = pl
	}
	planCache.Unlock()
	return pl
}

// compileProgram decodes every instruction of p into its closure form.
func compileProgram(p *isa.Program) *execPlan {
	pl := &execPlan{prog: p, ops: make([]compiledOp, len(p.Instrs)), nregs: regFootprint(p)}
	for pc := range p.Instrs {
		compileInstr(p, pc, &pl.ops[pc])
		pl.ops[pc].straight = int32(p.StraightLen(pc))
	}
	return pl
}

// regFootprint returns p's register count, as ptxas would report it: one
// past the highest GPR any operand names — destination, source or memory
// base, read or written — leaving out $r124 and $o127, which no closure
// reads or writes. Every register index a closure, a flip or an injection
// uses comes from an operand, so none touches a GPR at or above it; a
// register the program reads before writing must still read 0, which is
// why read-only operands count.
func regFootprint(p *isa.Program) int {
	n := 0
	gpr := func(r isa.Reg) {
		if r.Class == isa.RegGPR && r.Index != isa.ZeroReg && r.Index != isa.SinkReg {
			n = max(n, int(r.Index)+1)
		}
	}
	operand := func(o isa.Operand) {
		if o.Kind == isa.OpdReg || o.Kind == isa.OpdMem && o.BaseValid {
			gpr(o.Reg)
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		operand(in.Dst)
		gpr(in.DstPred)
		for _, o := range in.Srcs {
			operand(o)
		}
	}
	return min(n, isa.NumGPRs)
}

// condTest returns the flag test of a condition code, mirroring evalCond
// case for case; nil when the code has no defined semantics.
func condTest(c isa.CmpOp) func(flags uint8) bool {
	switch c {
	case isa.CmpEq:
		return func(f uint8) bool { return f&isa.FlagZero != 0 }
	case isa.CmpNe:
		return func(f uint8) bool { return f&isa.FlagZero == 0 }
	case isa.CmpLt:
		return func(f uint8) bool { return f&isa.FlagSign != 0 }
	case isa.CmpLe:
		return func(f uint8) bool { return f&(isa.FlagSign|isa.FlagZero) != 0 }
	case isa.CmpGt:
		return func(f uint8) bool { return f&(isa.FlagSign|isa.FlagZero) == 0 }
	case isa.CmpGe:
		return func(f uint8) bool { return f&isa.FlagSign == 0 }
	case isa.CmpLo:
		return func(f uint8) bool { return f&(isa.FlagCarry|isa.FlagZero) == 0 }
	case isa.CmpLs:
		return func(f uint8) bool { return f&isa.FlagCarry == 0 || f&isa.FlagZero != 0 }
	case isa.CmpHi:
		return func(f uint8) bool { return f&isa.FlagCarry != 0 && f&isa.FlagZero == 0 }
	case isa.CmpHs:
		return func(f uint8) bool { return f&isa.FlagCarry != 0 }
	}
	return nil
}

// compileGuard builds the guard evaluator; nil for unguarded instructions.
// An invalid condition code compiles to a trap closure producing the same
// TrapInvalid the reference step raises.
func compileGuard(g isa.Guard) guardFunc {
	if !g.Active() {
		return nil
	}
	test := condTest(g.Cond)
	if test == nil {
		c := g.Cond
		return func(th *threadState) (bool, *Trap) {
			return false, invalidCondTrap(th, c)
		}
	}
	idx := g.Reg.Index
	if g.Not {
		return func(th *threadState) (bool, *Trap) { return !test(th.preds[idx]), nil }
	}
	return func(th *threadState) (bool, *Trap) { return test(th.preds[idx]), nil }
}

// cmpTest returns the set/setp comparison under source type t, mirroring
// compare case for case (including the raw-bit fallthrough of lo/ls/hi/hs
// on signed types); nil when the selector is invalid for the type.
func cmpTest(c isa.CmpOp, t isa.DataType) func(a, b uint32) bool {
	if t.Float() {
		switch c {
		case isa.CmpEq:
			return func(a, b uint32) bool { return f32(a) == f32(b) }
		case isa.CmpNe:
			return func(a, b uint32) bool { return f32(a) != f32(b) }
		case isa.CmpLt:
			return func(a, b uint32) bool { return f32(a) < f32(b) }
		case isa.CmpLe:
			return func(a, b uint32) bool { return f32(a) <= f32(b) }
		case isa.CmpGt:
			return func(a, b uint32) bool { return f32(a) > f32(b) }
		case isa.CmpGe:
			return func(a, b uint32) bool { return f32(a) >= f32(b) }
		}
		return nil
	}
	if t.Signed() {
		switch c {
		case isa.CmpEq:
			return func(a, b uint32) bool { return int32(a) == int32(b) }
		case isa.CmpNe:
			return func(a, b uint32) bool { return int32(a) != int32(b) }
		case isa.CmpLt:
			return func(a, b uint32) bool { return int32(a) < int32(b) }
		case isa.CmpLe:
			return func(a, b uint32) bool { return int32(a) <= int32(b) }
		case isa.CmpGt:
			return func(a, b uint32) bool { return int32(a) > int32(b) }
		case isa.CmpGe:
			return func(a, b uint32) bool { return int32(a) >= int32(b) }
		}
		// lo/ls/hi/hs on signed types use the raw-bit forms below.
	}
	switch c {
	case isa.CmpEq:
		return func(a, b uint32) bool { return a == b }
	case isa.CmpNe:
		return func(a, b uint32) bool { return a != b }
	case isa.CmpLt, isa.CmpLo:
		return func(a, b uint32) bool { return a < b }
	case isa.CmpLe, isa.CmpLs:
		return func(a, b uint32) bool { return a <= b }
	case isa.CmpGt, isa.CmpHi:
		return func(a, b uint32) bool { return a > b }
	case isa.CmpGe, isa.CmpHs:
		return func(a, b uint32) bool { return a >= b }
	}
	return nil
}

// compileRegRead builds the raw reader of a register, mirroring
// exec.readReg (zero/sink read 0, unknown specials and classes read 0).
func compileRegRead(r isa.Reg) regFunc {
	switch r.Class {
	case isa.RegGPR:
		if r.Index == isa.ZeroReg || r.Index == isa.SinkReg {
			return func(e *exec, th *threadState) uint32 { return 0 }
		}
		idx := r.Index
		return func(e *exec, th *threadState) uint32 { return th.regs[idx] }
	case isa.RegPred:
		idx := r.Index
		return func(e *exec, th *threadState) uint32 { return uint32(th.preds[idx]) }
	case isa.RegOfs:
		idx := r.Index
		return func(e *exec, th *threadState) uint32 { return th.ofs[idx] }
	case isa.RegSpecial:
		switch r.Index {
		case isa.SpecTidX:
			return func(e *exec, th *threadState) uint32 { return uint32(th.tid.X) }
		case isa.SpecTidY:
			return func(e *exec, th *threadState) uint32 { return uint32(th.tid.Y) }
		case isa.SpecTidZ:
			return func(e *exec, th *threadState) uint32 { return uint32(th.tid.Z) }
		case isa.SpecCtaidX:
			return func(e *exec, th *threadState) uint32 { return uint32(th.ctaid.X) }
		case isa.SpecCtaidY:
			return func(e *exec, th *threadState) uint32 { return uint32(th.ctaid.Y) }
		case isa.SpecCtaidZ:
			return func(e *exec, th *threadState) uint32 { return uint32(th.ctaid.Z) }
		case isa.SpecNTidX:
			return func(e *exec, th *threadState) uint32 { return uint32(max(e.block.X, 1)) }
		case isa.SpecNTidY:
			return func(e *exec, th *threadState) uint32 { return uint32(max(e.block.Y, 1)) }
		case isa.SpecNTidZ:
			return func(e *exec, th *threadState) uint32 { return uint32(max(e.block.Z, 1)) }
		case isa.SpecNCtaidX:
			return func(e *exec, th *threadState) uint32 { return uint32(max(e.grid.X, 1)) }
		case isa.SpecNCtaidY:
			return func(e *exec, th *threadState) uint32 { return uint32(max(e.grid.Y, 1)) }
		case isa.SpecNCtaidZ:
			return func(e *exec, th *threadState) uint32 { return uint32(max(e.grid.Z, 1)) }
		}
	}
	return func(e *exec, th *threadState) uint32 { return 0 }
}

// compileRegSrc builds the resolver of a non-trapping source operand
// (register or immediate) under source type t, folding half-selection,
// sign extension and negation in at decode time; it mirrors
// exec.sourceValue's OpdReg/OpdImm arms. nil for memory or malformed
// operands, which need the generic trapping path.
func compileRegSrc(o isa.Operand, t isa.DataType) regFunc {
	switch o.Kind {
	case isa.OpdImm:
		v := o.Imm
		return func(e *exec, th *threadState) uint32 { return v }
	case isa.OpdReg:
		f := compileRegRead(o.Reg)
		signed := t.Signed()
		switch o.Half {
		case isa.HalfLo:
			base := f
			if signed {
				f = func(e *exec, th *threadState) uint32 { return uint32(int32(int16(base(e, th)))) }
			} else {
				f = func(e *exec, th *threadState) uint32 { return base(e, th) & 0xFFFF }
			}
		case isa.HalfHi:
			base := f
			if signed {
				f = func(e *exec, th *threadState) uint32 { return uint32(int32(int16(base(e, th) >> 16))) }
			} else {
				f = func(e *exec, th *threadState) uint32 { return base(e, th) >> 16 }
			}
		}
		if o.Neg {
			base := f
			if t.Float() {
				f = func(e *exec, th *threadState) uint32 { return base(e, th) ^ 0x80000000 }
			} else {
				f = func(e *exec, th *threadState) uint32 { return -base(e, th) }
			}
		}
		return f
	}
	return nil
}

// compileSrc builds the resolver of source operand i, mirroring exec.srcOp:
// a missing operand compiles to its trap, memory operands route through
// exec.load (bounds/alignment traps, InjectMemAddr consumption).
func compileSrc(in *isa.Instruction, i int) srcFunc {
	if i >= len(in.Srcs) {
		op, idx := in.Op, i
		return func(e *exec, th *threadState, cta *ctaState) (uint32, *Trap) {
			return 0, &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
				Msg: fmt.Sprintf("%s: missing operand %d", op, idx)}
		}
	}
	o := in.Srcs[i]
	if o.Kind == isa.OpdMem {
		t := in.SType
		return func(e *exec, th *threadState, cta *ctaState) (uint32, *Trap) {
			return e.load(th, cta, &o, t)
		}
	}
	if f := compileRegSrc(o, in.SType); f != nil {
		return func(e *exec, th *threadState, cta *ctaState) (uint32, *Trap) {
			return f(e, th), nil
		}
	}
	return func(e *exec, th *threadState, cta *ctaState) (uint32, *Trap) {
		return 0, &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc, Msg: "empty operand"}
	}
}

// fusedSrc returns the non-trapping resolver of source i, nil when the
// operand is missing, memory, or malformed (those need the generic path).
func fusedSrc(in *isa.Instruction, i int) regFunc {
	if i >= len(in.Srcs) {
		return nil
	}
	return compileRegSrc(in.Srcs[i], in.SType)
}

// compileRegWrite builds the raw writer of a register, mirroring
// exec.writeReg (zero/sink and unknown classes discard, predicates mask).
func compileRegWrite(r isa.Reg) destFunc {
	switch r.Class {
	case isa.RegGPR:
		if r.Index == isa.ZeroReg || r.Index == isa.SinkReg {
			return func(th *threadState, v uint32) {}
		}
		idx := r.Index
		return func(th *threadState, v uint32) { th.regs[idx] = v }
	case isa.RegPred:
		idx := r.Index
		return func(th *threadState, v uint32) { th.preds[idx] = uint8(v) & 0xF }
	case isa.RegOfs:
		idx := r.Index
		return func(th *threadState, v uint32) { th.ofs[idx] = v }
	}
	return func(th *threadState, v uint32) {}
}

// compileWriteDest compiles exec.writeDest's routing for in. needFlags
// reports whether the routing consumes the predicate flags at all — when
// false the dispatcher skips computing valueFlags entirely, which the
// reference path cannot (a plain GPR destination never reads them).
func compileWriteDest(in *isa.Instruction) (w writeFunc, needFlags bool) {
	if in.DstPred.Valid() {
		wp := compileRegWrite(in.DstPred)
		if in.Dst.Kind == isa.OpdReg {
			wv := compileRegWrite(in.Dst.Reg)
			return func(th *threadState, v uint32, flags uint8) {
				wp(th, uint32(flags))
				wv(th, v)
			}, true
		}
		return func(th *threadState, v uint32, flags uint8) { wp(th, uint32(flags)) }, true
	}
	if in.Dst.Kind == isa.OpdReg {
		wv := compileRegWrite(in.Dst.Reg)
		if in.Dst.Reg.Class == isa.RegPred {
			return func(th *threadState, v uint32, flags uint8) { wv(th, uint32(flags)) }, true
		}
		return func(th *threadState, v uint32, flags uint8) { wv(th, v) }, false
	}
	return func(th *threadState, v uint32, flags uint8) {}, false
}

// plainGPRDest reports the index of a plain general-purpose destination
// register: no dual predicate, not the zero/sink register, not memory.
// These destinations never consume flags, enabling the fused fast tier.
func plainGPRDest(in *isa.Instruction) (int, bool) {
	if in.DstPred.Valid() || in.Dst.Kind != isa.OpdReg {
		return 0, false
	}
	r := in.Dst.Reg
	if r.Class != isa.RegGPR || r.Index == isa.ZeroReg || r.Index == isa.SinkReg {
		return 0, false
	}
	return int(r.Index), true
}

// satClamp applies ".sat" f32 saturation, mirroring exec.apply (NaN passes
// through unchanged: both comparisons are false).
func satClamp(v uint32) uint32 {
	f := f32(v)
	if f < 0 {
		return f32bits(0)
	}
	if f > 1 {
		return f32bits(1)
	}
	return v
}

// aluUnary returns the value function of a unary ALU/SFU opcode with the
// instruction's type variant selected, mirroring exec.compute's unary
// block; nil when the opcode is not unary.
func aluUnary(in *isa.Instruction) func(a uint32) uint32 {
	switch in.Op {
	case isa.OpNot:
		return func(a uint32) uint32 { return ^a }
	case isa.OpCnot:
		return func(a uint32) uint32 {
			if a == 0 {
				return 1
			}
			return 0
		}
	case isa.OpAbs:
		if in.DType.Float() {
			return func(a uint32) uint32 { return a &^ 0x80000000 }
		}
		return func(a uint32) uint32 {
			if int32(a) < 0 {
				return -a
			}
			return a
		}
	case isa.OpNeg:
		if in.DType.Float() {
			return func(a uint32) uint32 { return a ^ 0x80000000 }
		}
		return func(a uint32) uint32 { return -a }
	case isa.OpCvt:
		dt, st := in.DType, in.SType
		return func(a uint32) uint32 { return cvt(a, dt, st) }
	case isa.OpRcp:
		return func(a uint32) uint32 { return f32bits(1 / f32(a)) }
	case isa.OpSqrt:
		return func(a uint32) uint32 { return f32bits(float32(math.Sqrt(float64(f32(a))))) }
	case isa.OpRsqrt:
		return func(a uint32) uint32 { return f32bits(float32(1 / math.Sqrt(float64(f32(a))))) }
	case isa.OpSin:
		return func(a uint32) uint32 { return f32bits(float32(math.Sin(float64(f32(a))))) }
	case isa.OpCos:
		return func(a uint32) uint32 { return f32bits(float32(math.Cos(float64(f32(a))))) }
	case isa.OpEx2:
		return func(a uint32) uint32 { return f32bits(float32(math.Exp2(float64(f32(a))))) }
	case isa.OpLg2:
		return func(a uint32) uint32 { return f32bits(float32(math.Log2(float64(f32(a))))) }
	}
	return nil
}

// aluBinaryVal returns the value function of a binary ALU opcode with the
// instruction's type/wideness variant selected, mirroring exec.compute's
// binary block value for value; nil when the opcode is not binary. Carry
// and overflow (integer add/sub only) come from aluBinaryCO.
func aluBinaryVal(in *isa.Instruction) func(a, b uint32) uint32 {
	ft := in.DType.Float() || in.SType.Float()
	switch in.Op {
	case isa.OpAdd:
		if ft {
			return func(a, b uint32) uint32 { return f32bits(f32(a) + f32(b)) }
		}
		return func(a, b uint32) uint32 { return a + b }
	case isa.OpSub:
		if ft {
			return func(a, b uint32) uint32 { return f32bits(f32(a) - f32(b)) }
		}
		return func(a, b uint32) uint32 { return a - b }
	case isa.OpMul:
		if ft {
			return func(a, b uint32) uint32 { return f32bits(f32(a) * f32(b)) }
		}
		if in.Wide {
			st := in.SType
			return func(a, b uint32) uint32 { return wideMul(a, b, st) }
		}
		return func(a, b uint32) uint32 { return a * b }
	case isa.OpDiv:
		if ft {
			return func(a, b uint32) uint32 { return f32bits(f32(a) / f32(b)) }
		}
		if in.SType.Signed() {
			return func(a, b uint32) uint32 {
				if b == 0 {
					return 0xFFFFFFFF
				}
				if int32(a) == math.MinInt32 && int32(b) == -1 {
					return a
				}
				return uint32(int32(a) / int32(b))
			}
		}
		return func(a, b uint32) uint32 {
			if b == 0 {
				return 0xFFFFFFFF
			}
			return a / b
		}
	case isa.OpRem:
		// rem has no float form in exec.compute; mirror that exactly.
		if in.SType.Signed() {
			return func(a, b uint32) uint32 {
				if b == 0 {
					return a
				}
				if int32(a) == math.MinInt32 && int32(b) == -1 {
					return 0
				}
				return uint32(int32(a) % int32(b))
			}
		}
		return func(a, b uint32) uint32 {
			if b == 0 {
				return a
			}
			return a % b
		}
	case isa.OpMin:
		if ft {
			return func(a, b uint32) uint32 {
				return f32bits(float32(math.Min(float64(f32(a)), float64(f32(b)))))
			}
		}
		if in.SType.Signed() {
			return func(a, b uint32) uint32 {
				if int32(a) < int32(b) {
					return a
				}
				return b
			}
		}
		return func(a, b uint32) uint32 { return min(a, b) }
	case isa.OpMax:
		if ft {
			return func(a, b uint32) uint32 {
				return f32bits(float32(math.Max(float64(f32(a)), float64(f32(b)))))
			}
		}
		if in.SType.Signed() {
			return func(a, b uint32) uint32 {
				if int32(a) > int32(b) {
					return a
				}
				return b
			}
		}
		return func(a, b uint32) uint32 { return max(a, b) }
	case isa.OpAnd:
		return func(a, b uint32) uint32 { return a & b }
	case isa.OpOr:
		return func(a, b uint32) uint32 { return a | b }
	case isa.OpXor:
		return func(a, b uint32) uint32 { return a ^ b }
	case isa.OpShl:
		return func(a, b uint32) uint32 { return a << (b & 31) }
	case isa.OpShr:
		if in.SType.Signed() || in.DType.Signed() {
			return func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) }
		}
		return func(a, b uint32) uint32 { return a >> (b & 31) }
	}
	return nil
}

// aluBinaryCO returns the carry/overflow function of integer add/sub —
// the only opcodes whose flags exec.compute derives from the operands;
// nil everywhere else (carry and overflow stay false).
func aluBinaryCO(in *isa.Instruction) func(a, b uint32) (carry, overflow bool) {
	if in.DType.Float() || in.SType.Float() {
		return nil
	}
	switch in.Op {
	case isa.OpAdd:
		return func(a, b uint32) (bool, bool) {
			s := a + b
			return s < a, (a^b)&0x80000000 == 0 && (a^s)&0x80000000 != 0
		}
	case isa.OpSub:
		return func(a, b uint32) (bool, bool) {
			s := a - b
			return a >= b, (a^b)&0x80000000 != 0 && (a^s)&0x80000000 != 0
		}
	}
	return nil
}

// aluTernaryVal returns the value function of a ternary ALU opcode,
// mirroring exec.compute; nil when the opcode is not ternary.
func aluTernaryVal(in *isa.Instruction) func(a, b, c uint32) uint32 {
	switch in.Op {
	case isa.OpMad:
		if in.DType.Float() || in.SType.Float() {
			return func(a, b, c uint32) uint32 { return f32bits(f32(a)*f32(b) + f32(c)) }
		}
		if in.Wide {
			st := in.SType
			return func(a, b, c uint32) uint32 { return wideMul(a, b, st) + c }
		}
		return func(a, b, c uint32) uint32 { return a*b + c }
	case isa.OpSad:
		if in.SType.Signed() {
			return func(a, b, c uint32) uint32 {
				sa, sb := int32(a), int32(b)
				if sa > sb {
					return c + uint32(sa-sb)
				}
				return c + uint32(sb-sa)
			}
		}
		return func(a, b, c uint32) uint32 {
			if a > b {
				return c + (a - b)
			}
			return c + (b - a)
		}
	case isa.OpSlct:
		return func(a, b, c uint32) uint32 {
			if int32(c) >= 0 {
				return a
			}
			return b
		}
	}
	return nil
}

// compileInstr decodes the instruction at static PC pc into op. Each arm
// mirrors the corresponding case of exec.apply; source operands are
// evaluated in the same order as the reference (0, 1, then 2), so trap
// precedence is preserved.
func compileInstr(p *isa.Program, pc int, op *compiledOp) {
	in := &p.Instrs[pc]
	op.guard = compileGuard(in.Guard)
	op.destReg, _, op.hasDest = in.DestReg()

	switch in.Op {
	case isa.OpNop, isa.OpSsy:
		op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap { return nil }
		return

	case isa.OpExit, isa.OpRet, isa.OpRetp:
		op.ctrl = func(e *exec, th *threadState, cta *ctaState) (int, bool, *Trap) {
			th.done = true
			return th.pc, false, nil
		}
		return

	case isa.OpBra:
		if target, ok := p.BranchPC(pc); ok {
			t := target
			op.ctrl = func(e *exec, th *threadState, cta *ctaState) (int, bool, *Trap) {
				return t, false, nil
			}
		} else {
			op.ctrl = func(e *exec, th *threadState, cta *ctaState) (int, bool, *Trap) {
				return 0, false, &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
					Msg: "unresolved branch target"}
			}
		}
		return

	case isa.OpBar:
		// Validate guarantees exactly one immediate operand; indexing Srcs[0]
		// here fails the same way the reference does on unvalidated programs.
		op.ctrl = func(e *exec, th *threadState, cta *ctaState) (int, bool, *Trap) {
			th.waiting = true
			th.barID = in.Srcs[0].Imm
			return th.pc + 1, true, nil
		}
		return

	case isa.OpSt:
		src := compileSrc(in, 0)
		dst := in.Dst
		dt := in.DType
		op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
			v, tr := src(e, th, cta)
			if tr != nil {
				return tr
			}
			return e.store(th, cta, &dst, dt, v)
		}
		return

	case isa.OpMov, isa.OpLd:
		src := compileSrc(in, 0)
		if in.Dst.Kind == isa.OpdMem {
			dst := in.Dst
			dt := in.DType
			op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
				v, tr := src(e, th, cta)
				if tr != nil {
					return tr
				}
				return e.store(th, cta, &dst, dt, v)
			}
			return
		}
		if d, ok := plainGPRDest(in); ok {
			if rf := fusedSrc(in, 0); rf != nil {
				// Fused tier: register/immediate move into a plain GPR.
				op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
					th.regs[d] = rf(e, th)
					return nil
				}
				return
			}
			// Load into a plain GPR: no flags consumed.
			op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
				v, tr := src(e, th, cta)
				if tr != nil {
					return tr
				}
				th.regs[d] = v
				return nil
			}
			return
		}
		wd, needFlags := compileWriteDest(in)
		op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
			v, tr := src(e, th, cta)
			if tr != nil {
				return tr
			}
			var fl uint8
			if needFlags {
				fl = valueFlags(v, false, false)
			}
			wd(th, v, fl)
			return nil
		}
		return

	case isa.OpSet, isa.OpSetp:
		sa := compileSrc(in, 0)
		sb := compileSrc(in, 1)
		test := cmpTest(in.Cmp, in.SType)
		if test == nil {
			c := in.Cmp
			op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
				if _, tr := sa(e, th, cta); tr != nil {
					return tr
				}
				if _, tr := sb(e, th, cta); tr != nil {
					return tr
				}
				return invalidCmpTrap(th, c)
			}
			return
		}
		vtrue := uint32(0xFFFFFFFF)
		if in.DType.Float() {
			vtrue = f32bits(1.0)
		}
		wd, needFlags := compileWriteDest(in)
		op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
			a, tr := sa(e, th, cta)
			if tr != nil {
				return tr
			}
			b, tr := sb(e, th, cta)
			if tr != nil {
				return tr
			}
			var v uint32
			if test(a, b) {
				v = vtrue
			}
			var fl uint8
			if needFlags {
				fl = valueFlags(v, false, false)
			}
			wd(th, v, fl)
			return nil
		}
		return

	case isa.OpSelp:
		sa := compileSrc(in, 0)
		sb := compileSrc(in, 1)
		// The reference evaluates both value sources before validating the
		// selector; the trap closures preserve that order.
		evalBoth := func(e *exec, th *threadState, cta *ctaState) *Trap {
			if _, tr := sa(e, th, cta); tr != nil {
				return tr
			}
			_, tr := sb(e, th, cta)
			return tr
		}
		if len(in.Srcs) < 3 || !in.Srcs[2].IsReg(isa.RegPred) {
			op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
				if tr := evalBoth(e, th, cta); tr != nil {
					return tr
				}
				return &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
					Msg: "selp needs a predicate selector"}
			}
			return
		}
		cond := in.Cmp
		if cond == isa.CmpNone {
			cond = isa.CmpNe
		}
		test := condTest(cond)
		if test == nil {
			c := cond
			op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
				if tr := evalBoth(e, th, cta); tr != nil {
					return tr
				}
				return invalidCondTrap(th, c)
			}
			return
		}
		pidx := in.Srcs[2].Reg.Index
		wd, needFlags := compileWriteDest(in)
		op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
			a, tr := sa(e, th, cta)
			if tr != nil {
				return tr
			}
			b, tr := sb(e, th, cta)
			if tr != nil {
				return tr
			}
			v := b
			if test(th.preds[pidx]) {
				v = a
			}
			var fl uint8
			if needFlags {
				fl = valueFlags(v, false, false)
			}
			wd(th, v, fl)
			return nil
		}
		return
	}

	// Remaining opcodes are the ALU/SFU compute path.
	compileCompute(in, op)
}

// compileCompute decodes an ALU/SFU instruction, mirroring exec.apply's
// compute tail: compute, then .sat clamp, then memory store or writeDest
// with flags. The fused tier handles the dominant shape — non-trapping
// sources into a plain GPR destination — with a single closure that skips
// flag derivation altogether.
func compileCompute(in *isa.Instruction, op *compiledOp) {
	sat := in.Sat && in.DType == isa.TypeF32
	memDst := in.Dst.Kind == isa.OpdMem
	dst := in.Dst
	dt := in.DType

	if u := aluUnary(in); u != nil {
		if sat {
			inner := u
			u = func(a uint32) uint32 { return satClamp(inner(a)) }
		}
		if d, ok := plainGPRDest(in); ok && !memDst {
			if ra := fusedSrc(in, 0); ra != nil {
				op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
					th.regs[d] = u(ra(e, th))
					return nil
				}
				return
			}
		}
		sa := compileSrc(in, 0)
		if memDst {
			op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
				a, tr := sa(e, th, cta)
				if tr != nil {
					return tr
				}
				return e.store(th, cta, &dst, dt, u(a))
			}
			return
		}
		wd, needFlags := compileWriteDest(in)
		op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
			a, tr := sa(e, th, cta)
			if tr != nil {
				return tr
			}
			v := u(a)
			var fl uint8
			if needFlags {
				fl = valueFlags(v, false, false)
			}
			wd(th, v, fl)
			return nil
		}
		return
	}

	if bv := aluBinaryVal(in); bv != nil {
		raw := bv
		if sat {
			bv = func(a, b uint32) uint32 { return satClamp(raw(a, b)) }
		}
		if d, ok := plainGPRDest(in); ok && !memDst {
			if ra, rb := fusedSrc(in, 0), fusedSrc(in, 1); ra != nil && rb != nil {
				op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
					th.regs[d] = bv(ra(e, th), rb(e, th))
					return nil
				}
				return
			}
		}
		sa := compileSrc(in, 0)
		sb := compileSrc(in, 1)
		if memDst {
			op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
				a, tr := sa(e, th, cta)
				if tr != nil {
					return tr
				}
				b, tr := sb(e, th, cta)
				if tr != nil {
					return tr
				}
				return e.store(th, cta, &dst, dt, bv(a, b))
			}
			return
		}
		wd, needFlags := compileWriteDest(in)
		co := aluBinaryCO(in)
		op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
			a, tr := sa(e, th, cta)
			if tr != nil {
				return tr
			}
			b, tr := sb(e, th, cta)
			if tr != nil {
				return tr
			}
			v := bv(a, b)
			var fl uint8
			if needFlags {
				var carry, overflow bool
				if co != nil {
					carry, overflow = co(a, b)
				}
				fl = valueFlags(v, carry, overflow)
			}
			wd(th, v, fl)
			return nil
		}
		return
	}

	if tv := aluTernaryVal(in); tv != nil {
		raw := tv
		if sat {
			tv = func(a, b, c uint32) uint32 { return satClamp(raw(a, b, c)) }
		}
		if d, ok := plainGPRDest(in); ok && !memDst {
			ra, rb, rc := fusedSrc(in, 0), fusedSrc(in, 1), fusedSrc(in, 2)
			if ra != nil && rb != nil && rc != nil {
				op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
					th.regs[d] = tv(ra(e, th), rb(e, th), rc(e, th))
					return nil
				}
				return
			}
		}
		sa := compileSrc(in, 0)
		sb := compileSrc(in, 1)
		sc := compileSrc(in, 2)
		wd, needFlags := compileWriteDest(in)
		op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
			a, tr := sa(e, th, cta)
			if tr != nil {
				return tr
			}
			b, tr := sb(e, th, cta)
			if tr != nil {
				return tr
			}
			c, tr := sc(e, th, cta)
			if tr != nil {
				return tr
			}
			v := tv(a, b, c)
			if memDst {
				return e.store(th, cta, &dst, dt, v)
			}
			var fl uint8
			if needFlags {
				fl = valueFlags(v, false, false)
			}
			wd(th, v, fl)
			return nil
		}
		return
	}

	// Unknown opcode: the reference evaluates sources 0 and 1, then traps.
	sa := compileSrc(in, 0)
	sb := compileSrc(in, 1)
	unknown := in.Op
	op.seq = func(e *exec, th *threadState, cta *ctaState) *Trap {
		if _, tr := sa(e, th, cta); tr != nil {
			return tr
		}
		if _, tr := sb(e, th, cta); tr != nil {
			return tr
		}
		return &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
			Msg: fmt.Sprintf("unimplemented opcode %s", unknown)}
	}
}
