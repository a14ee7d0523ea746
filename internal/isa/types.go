// Package isa defines the PTXPlus-flavoured instruction set executed by the
// gpusim functional simulator.
//
// The dialect mirrors the register and addressing idioms of GPGPU-Sim's
// PTXPlus mode, which the reproduced paper (Nie et al., MICRO 2018) uses for
// fault injection: general-purpose registers $r0..$r127 (with $r124 wired to
// zero and $o127 acting as a write sink), 4-bit predicate registers $p0..$p7,
// address-offset registers $ofs0..$ofs3, special registers such as %tid.x and
// %ctaid.x, shared/parameter memory accessed as s[imm] or s[$ofsN+imm], and
// predicated control flow such as "@$p0.eq bra l0x00000228".
package isa

import "fmt"

// DataType is the operand interpretation suffix of an instruction
// (".u32", ".s32", ".f32", ".pred", ...).
type DataType uint8

// Data types supported by the simulator. All register storage is 32-bit;
// narrower types mask on use, and F32 values are stored via math.Float32bits.
const (
	TypeNone DataType = iota
	TypeU8
	TypeU16
	TypeU32
	TypeU64
	TypeS8
	TypeS16
	TypeS32
	TypeS64
	TypeB8
	TypeB16
	TypeB32
	TypeF32
	TypeF64
	TypePred
)

var typeNames = map[DataType]string{
	TypeNone: "", TypeU8: "u8", TypeU16: "u16", TypeU32: "u32", TypeU64: "u64",
	TypeS8: "s8", TypeS16: "s16", TypeS32: "s32", TypeS64: "s64",
	TypeB8: "b8", TypeB16: "b16", TypeB32: "b32",
	TypeF32: "f32", TypeF64: "f64", TypePred: "pred",
}

// String returns the assembly suffix spelling, e.g. "u32".
func (t DataType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Bits reports the width in bits of a value of this type.
func (t DataType) Bits() int {
	switch t {
	case TypeU8, TypeS8, TypeB8:
		return 8
	case TypeU16, TypeS16, TypeB16:
		return 16
	case TypeU64, TypeS64, TypeF64:
		return 64
	case TypePred:
		return PredBits
	case TypeNone:
		return 32
	default:
		return 32
	}
}

// Signed reports whether the type is interpreted as two's complement.
func (t DataType) Signed() bool {
	switch t {
	case TypeS8, TypeS16, TypeS32, TypeS64:
		return true
	}
	return false
}

// Float reports whether the type is a floating-point type.
func (t DataType) Float() bool { return t == TypeF32 || t == TypeF64 }

// PredBits is the width of a predicate register. PTXPlus predicates hold four
// condition flags: zero (bit 0), sign (bit 1), carry (bit 2) and overflow
// (bit 3). The reproduced paper's bit-wise pruning stage exploits the fact
// that only the zero flag feeds branch conditions in the studied workloads;
// the plan credits a flag only where no instruction of the program reads it.
const PredBits = 4

// Predicate flag bit positions within a predicate register.
const (
	FlagZero = 1 << iota
	FlagSign
	FlagCarry
	FlagOverflow
)

// RegClass partitions the register namespace.
type RegClass uint8

// Register classes.
const (
	RegNone    RegClass = iota
	RegGPR              // $r0..$r127: 32-bit general purpose
	RegPred             // $p0..$p7: 4-bit condition-flag registers
	RegOfs              // $ofs0..$ofs3: 32-bit address-offset registers
	RegSpecial          // %tid.x etc: read-only thread/grid coordinates
)

// Indices of special registers within RegSpecial.
const (
	SpecTidX = iota
	SpecTidY
	SpecTidZ
	SpecCtaidX
	SpecCtaidY
	SpecCtaidZ
	SpecNTidX
	SpecNTidY
	SpecNTidZ
	SpecNCtaidX
	SpecNCtaidY
	SpecNCtaidZ
	NumSpecials
)

var specialNames = [NumSpecials]string{
	"%tid.x", "%tid.y", "%tid.z",
	"%ctaid.x", "%ctaid.y", "%ctaid.z",
	"%ntid.x", "%ntid.y", "%ntid.z",
	"%nctaid.x", "%nctaid.y", "%nctaid.z",
}

// Well-known GPR indices with hardwired PTXPlus semantics.
const (
	// ZeroReg ($r124) always reads zero; writes are discarded.
	ZeroReg = 124
	// SinkReg ($o127, encoded as a GPR) discards writes; used as the value
	// half of dual "set" destinations such as "$p0|$o127".
	SinkReg = 127
	// NumGPRs is the size of the general-purpose register file per thread.
	NumGPRs = 128
	// NumPreds is the number of predicate registers per thread.
	NumPreds = 8
	// NumOfs is the number of address-offset registers per thread.
	NumOfs = 4
)

// Reg identifies one architectural register.
type Reg struct {
	Class RegClass
	Index uint8
}

// String returns the assembly spelling ("$r5", "$p0", "$ofs2", "%tid.x").
func (r Reg) String() string {
	switch r.Class {
	case RegGPR:
		if r.Index == SinkReg {
			return "$o127"
		}
		return fmt.Sprintf("$r%d", r.Index)
	case RegPred:
		return fmt.Sprintf("$p%d", r.Index)
	case RegOfs:
		return fmt.Sprintf("$ofs%d", r.Index)
	case RegSpecial:
		if int(r.Index) < len(specialNames) {
			return specialNames[r.Index]
		}
		return fmt.Sprintf("%%spec%d", r.Index)
	}
	return "$none"
}

// Bits reports the architectural width of the register for fault-site
// accounting: predicate registers contribute 4 bits per dynamic write,
// everything else 32 (Eq. 1 of the paper counts bit(t, i) per destination).
func (r Reg) Bits() int {
	if r.Class == RegPred {
		return PredBits
	}
	return 32
}

// Valid reports whether r names an actual register.
func (r Reg) Valid() bool { return r.Class != RegNone }

// MemSpace identifies an address space.
type MemSpace uint8

// Address spaces. Param aliases Shared: PTXPlus passes kernel parameters in
// the low words of shared memory (the paper's listings read them as
// s[0x0010], s[0x0030], ...).
const (
	SpaceNone MemSpace = iota
	SpaceGlobal
	SpaceShared
	SpaceConst
	SpaceLocal
)

// String returns the bracket prefix letter used in assembly ("g", "s", "c", "l").
func (s MemSpace) String() string {
	switch s {
	case SpaceGlobal:
		return "g"
	case SpaceShared:
		return "s"
	case SpaceConst:
		return "c"
	case SpaceLocal:
		return "l"
	}
	return "?"
}
