package gpusim

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// invalidCondTrap is the trap for a guard or selp condition code outside the
// defined set, which the plan detects at decode time (plan.go).
func invalidCondTrap(th *threadState, c isa.CmpOp) *Trap {
	return &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
		Msg: fmt.Sprintf("invalid condition code %d", uint8(c))}
}

// invalidCmpTrap is the trap for a set/setp comparison selector with no
// defined semantics for the source type.
func invalidCmpTrap(th *threadState, c isa.CmpOp) *Trap {
	return &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
		Msg: fmt.Sprintf("invalid comparison code %d", uint8(c))}
}

// valueFlags derives predicate flags from a result value: zero and sign from
// the value itself, carry/overflow only meaningful for add/sub (passed in).
func valueFlags(v uint32, carry, overflow bool) uint8 {
	var f uint8
	if v == 0 {
		f |= isa.FlagZero
	}
	if int32(v) < 0 {
		f |= isa.FlagSign
	}
	if carry {
		f |= isa.FlagCarry
	}
	if overflow {
		f |= isa.FlagOverflow
	}
	return f
}

// watchdogTrap builds the runaway-thread trap, shared by the careful and
// fast dispatch loops (and the test-side reference step).
func (e *exec) watchdogTrap(th *threadState) *Trap {
	return &Trap{Kind: TrapWatchdog, Thread: th.flat, PC: th.pc,
		Msg: fmt.Sprintf("exceeded %d dynamic instructions", e.watchdog)}
}

// wideMul computes the 16x16->32 multiply of mul.wide/mad.wide.
func wideMul(a, b uint32, t isa.DataType) uint32 {
	if t.Signed() {
		return uint32(int32(int16(a)) * int32(int16(b)))
	}
	return (a & 0xFFFF) * (b & 0xFFFF)
}

// cvt implements type conversion between the supported scalar types.
func cvt(a uint32, dt, st isa.DataType) uint32 {
	// Normalize the source to a canonical 32-bit value first.
	switch st {
	case isa.TypeU8, isa.TypeB8:
		a &= 0xFF
	case isa.TypeS8:
		a = uint32(int32(int8(a)))
	case isa.TypeU16, isa.TypeB16:
		a &= 0xFFFF
	case isa.TypeS16:
		a = uint32(int32(int16(a)))
	}
	switch {
	case dt.Float() && !st.Float():
		if st.Signed() {
			return f32bits(float32(int32(a)))
		}
		return f32bits(float32(a))
	case !dt.Float() && st.Float():
		f := f32(a)
		if dt.Signed() {
			switch {
			case math.IsNaN(float64(f)):
				return 0
			case f >= math.MaxInt32:
				return uint32(int32(math.MaxInt32))
			case f <= math.MinInt32:
				return 0x80000000
			}
			return uint32(int32(f))
		}
		switch {
		case math.IsNaN(float64(f)) || f <= 0:
			return 0
		case f >= math.MaxUint32:
			return math.MaxUint32
		}
		return uint32(f)
	}
	// Integer-to-integer: clamp to the destination width.
	switch dt {
	case isa.TypeU8, isa.TypeB8:
		return a & 0xFF
	case isa.TypeS8:
		return uint32(int32(int8(a)))
	case isa.TypeU16, isa.TypeB16:
		return a & 0xFFFF
	case isa.TypeS16:
		return uint32(int32(int16(a)))
	}
	return a
}
