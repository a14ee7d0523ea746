package isa

import (
	"fmt"
	"strings"
)

// Half selects a 16-bit half of a 32-bit register operand, as used by
// PTXPlus wide multiplies ("mul.wide.u16 $r4, $r1.lo, $r3.hi").
type Half uint8

// Half selectors.
const (
	HalfNone Half = iota
	HalfLo
	HalfHi
)

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	OpdNone OperandKind = iota
	OpdReg              // register, possibly negated or half-selected
	OpdImm              // 32-bit immediate
	OpdMem              // memory reference
)

// Operand is one instruction operand.
//
// The zero value is "no operand". Register operands may carry a negation
// ("-$r3") and a half selector ("$r1.lo"). Memory operands address one of the
// simulator's spaces with an optional base register plus a constant offset:
// s[0x0010], s[$ofs2+0x0040], [$r2], g[$r4+0x10].
type Operand struct {
	Kind  OperandKind
	Reg   Reg      // OpdReg: the register; OpdMem: base register if BaseValid
	Neg   bool     // OpdReg: operand value is negated
	Half  Half     // OpdReg: 16-bit half selection
	Imm   uint32   // OpdImm: value; OpdMem: constant offset
	Space MemSpace // OpdMem: address space
	// BaseValid reports whether the memory reference has a register base.
	BaseValid bool
}

// R builds a GPR operand $rN.
func R(n int) Operand { return Operand{Kind: OpdReg, Reg: Reg{RegGPR, uint8(n)}} }

// P builds a predicate register operand $pN.
func P(n int) Operand { return Operand{Kind: OpdReg, Reg: Reg{RegPred, uint8(n)}} }

// Special builds a special-register operand such as %tid.x.
func Special(idx int) Operand {
	return Operand{Kind: OpdReg, Reg: Reg{RegSpecial, uint8(idx)}}
}

// Imm builds an immediate operand.
func Imm(v uint32) Operand { return Operand{Kind: OpdImm, Imm: v} }

// MemDirect builds a memory operand space[imm].
func MemDirect(space MemSpace, imm uint32) Operand {
	return Operand{Kind: OpdMem, Space: space, Imm: imm}
}

// MemIndirect builds a memory operand space[base+imm].
func MemIndirect(space MemSpace, base Reg, imm uint32) Operand {
	return Operand{Kind: OpdMem, Space: space, Reg: base, Imm: imm, BaseValid: true}
}

// IsReg reports whether the operand is a register of the given class.
func (o Operand) IsReg(class RegClass) bool {
	return o.Kind == OpdReg && o.Reg.Class == class
}

// String renders the operand in assembly syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpdReg:
		var b strings.Builder
		if o.Neg {
			b.WriteByte('-')
		}
		b.WriteString(o.Reg.String())
		switch o.Half {
		case HalfLo:
			b.WriteString(".lo")
		case HalfHi:
			b.WriteString(".hi")
		}
		return b.String()
	case OpdImm:
		return fmt.Sprintf("0x%08x", o.Imm)
	case OpdMem:
		prefix := o.Space.String()
		if o.Space == SpaceGlobal {
			// Global references conventionally use bare brackets in
			// PTXPlus listings; the space comes from the ld/st suffix.
			prefix = ""
		}
		if o.BaseValid {
			if o.Imm != 0 {
				return fmt.Sprintf("%s[%s+0x%04x]", prefix, o.Reg, o.Imm)
			}
			return fmt.Sprintf("%s[%s]", prefix, o.Reg)
		}
		return fmt.Sprintf("%s[0x%04x]", prefix, o.Imm)
	}
	return "<none>"
}

// Guard is the optional predicate guard on an instruction:
// "@$p0.eq bra target" executes the branch when predicate $p0's flags
// satisfy the eq condition; ".ne" when they do not; and so on.
type Guard struct {
	Reg  Reg   // predicate register; Valid() false means unguarded
	Cond CmpOp // condition code evaluated against the flags
	Not  bool  // "@!$p0" negated guard (plain PTX style)
}

// Active reports whether a guard is present.
func (g Guard) Active() bool { return g.Reg.Valid() }

// String renders the guard prefix, including the trailing space, or "".
func (g Guard) String() string {
	if !g.Active() {
		return ""
	}
	var b strings.Builder
	b.WriteByte('@')
	if g.Not {
		b.WriteByte('!')
	}
	b.WriteString(g.Reg.String())
	if g.Cond != CmpNone {
		b.WriteByte('.')
		b.WriteString(g.Cond.String())
	}
	b.WriteByte(' ')
	return b.String()
}
