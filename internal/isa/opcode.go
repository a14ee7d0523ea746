package isa

import "fmt"

// Opcode enumerates the operations executed by the simulator.
type Opcode uint8

// Opcodes. The set covers every instruction appearing in the reproduced
// workloads plus the transcendental/special-function unit ops the paper's
// fault model targets (ALU and SFU destination registers).
const (
	OpNop Opcode = iota
	OpMov
	OpLd
	OpSt
	OpAdd
	OpSub
	OpMul
	OpMad
	OpDiv
	OpRem
	OpMin
	OpMax
	OpAbs
	OpNeg
	OpAnd
	OpOr
	OpXor
	OpNot
	OpCnot
	OpShl
	OpShr
	OpSet
	OpSetp
	OpSelp
	OpSlct
	OpCvt
	OpRcp
	OpSqrt
	OpRsqrt
	OpSin
	OpCos
	OpEx2
	OpLg2
	OpSad
	OpBra
	OpBar
	OpSsy
	OpRet
	OpRetp
	OpExit
	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	"nop", "mov", "ld", "st", "add", "sub", "mul", "mad", "div", "rem",
	"min", "max", "abs", "neg", "and", "or", "xor", "not", "cnot",
	"shl", "shr", "set", "setp", "selp", "slct", "cvt",
	"rcp", "sqrt", "rsqrt", "sin", "cos", "ex2", "lg2", "sad",
	"bra", "bar", "ssy", "ret", "retp", "exit",
}

// String returns the assembly mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpcodeByName maps mnemonics back to opcodes; built once at init.
var OpcodeByName = func() map[string]Opcode {
	m := make(map[string]Opcode, numOpcodes)
	for op := Opcode(0); op < numOpcodes; op++ {
		m[op.String()] = op
	}
	return m
}()

// HasDest reports whether the opcode writes a destination register and is
// therefore a fault site under the paper's model (soft errors in functional
// units manifest as corrupted destination-register values).
func (o Opcode) HasDest() bool {
	switch o {
	case OpNop, OpSt, OpBra, OpBar, OpSsy, OpRet, OpRetp, OpExit:
		return false
	}
	return true
}

// Sequential reports whether the opcode always falls through to the next
// static instruction: it can neither branch, nor park the thread at a
// barrier, nor retire it. (It may still trap.) ssy only records
// reconvergence metadata and falls through, so it is sequential. The gpusim compiled dispatcher
// batches maximal runs of sequential instructions (Program.StraightLen)
// without re-entering its scheduler.
func (o Opcode) Sequential() bool {
	switch o {
	case OpBra, OpBar, OpRet, OpRetp, OpExit:
		return false
	}
	return true
}

// Kind buckets opcodes the way the paper's CTA-level study selects target
// instructions: memory access, arithmetic, logic, and special-function ops.
type Kind uint8

// Instruction kinds.
const (
	KindOther Kind = iota
	KindMemory
	KindArith
	KindLogic
	KindSFU
	KindControl
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMemory:
		return "memory"
	case KindArith:
		return "arith"
	case KindLogic:
		return "logic"
	case KindSFU:
		return "sfu"
	case KindControl:
		return "control"
	}
	return "other"
}

// Kind classifies the opcode.
func (o Opcode) Kind() Kind {
	switch o {
	case OpLd, OpSt:
		return KindMemory
	case OpAdd, OpSub, OpMul, OpMad, OpDiv, OpRem, OpMin, OpMax, OpAbs,
		OpNeg, OpCvt, OpSad, OpMov, OpSet, OpSetp, OpSelp, OpSlct:
		return KindArith
	case OpAnd, OpOr, OpXor, OpNot, OpCnot, OpShl, OpShr:
		return KindLogic
	case OpRcp, OpSqrt, OpRsqrt, OpSin, OpCos, OpEx2, OpLg2:
		return KindSFU
	case OpBra, OpBar, OpSsy, OpRet, OpRetp, OpExit:
		return KindControl
	}
	return KindOther
}

// CmpOp is the comparison selector of set/setp instructions and of
// predicate guards ("@$p0.eq" tests the flags the way branch condition
// codes do).
type CmpOp uint8

// Comparison operators. Lo/Ls/Hi/Hs are the unsigned forms.
const (
	CmpNone CmpOp = iota
	CmpEq
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	CmpLo
	CmpLs
	CmpHi
	CmpHs
)

var cmpNames = map[CmpOp]string{
	CmpNone: "", CmpEq: "eq", CmpNe: "ne", CmpLt: "lt", CmpLe: "le",
	CmpGt: "gt", CmpGe: "ge", CmpLo: "lo", CmpLs: "ls", CmpHi: "hi", CmpHs: "hs",
}

// CmpByName maps comparison suffixes back to operators.
var CmpByName = func() map[string]CmpOp {
	m := make(map[string]CmpOp, len(cmpNames))
	for c, s := range cmpNames {
		if s != "" {
			m[s] = c
		}
	}
	return m
}()

// String returns the assembly suffix spelling.
func (c CmpOp) String() string { return cmpNames[c] }
