package isa

import (
	"strings"
	"testing"
)

func TestDataTypeBits(t *testing.T) {
	cases := []struct {
		t    DataType
		bits int
	}{
		{TypeU8, 8}, {TypeS8, 8}, {TypeB8, 8},
		{TypeU16, 16}, {TypeS16, 16}, {TypeB16, 16},
		{TypeU32, 32}, {TypeS32, 32}, {TypeB32, 32}, {TypeF32, 32},
		{TypeU64, 64}, {TypeS64, 64}, {TypeF64, 64},
		{TypePred, PredBits}, {TypeNone, 32},
	}
	for _, c := range cases {
		if got := c.t.Bits(); got != c.bits {
			t.Errorf("%v.Bits() = %d, want %d", c.t, got, c.bits)
		}
	}
}

func TestDataTypeSignedFloat(t *testing.T) {
	for _, s := range []DataType{TypeS8, TypeS16, TypeS32, TypeS64} {
		if !s.Signed() {
			t.Errorf("%v should be signed", s)
		}
	}
	for _, u := range []DataType{TypeU8, TypeU32, TypeB32, TypeF32, TypePred} {
		if u.Signed() {
			t.Errorf("%v should not be signed", u)
		}
	}
	if !TypeF32.Float() || !TypeF64.Float() {
		t.Error("f32/f64 should be float")
	}
	if TypeU32.Float() {
		t.Error("u32 should not be float")
	}
}

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{Reg{RegGPR, 5}, "$r5"},
		{Reg{RegGPR, SinkReg}, "$o127"},
		{Reg{RegGPR, ZeroReg}, "$r124"},
		{Reg{RegPred, 0}, "$p0"},
		{Reg{RegOfs, 2}, "$ofs2"},
		{Reg{RegSpecial, SpecTidX}, "%tid.x"},
		{Reg{RegSpecial, SpecNCtaidY}, "%nctaid.y"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg.String() = %q, want %q", got, c.want)
		}
	}
}

func TestRegBits(t *testing.T) {
	if got := (Reg{RegPred, 1}).Bits(); got != PredBits {
		t.Errorf("pred bits = %d, want %d", got, PredBits)
	}
	if got := (Reg{RegGPR, 3}).Bits(); got != 32 {
		t.Errorf("gpr bits = %d, want 32", got)
	}
	if got := (Reg{RegOfs, 0}).Bits(); got != 32 {
		t.Errorf("ofs bits = %d, want 32", got)
	}
}

func TestOpcodeNames(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		name := op.String()
		if name == "" || strings.HasPrefix(name, "op(") {
			t.Errorf("opcode %d has no name", op)
		}
		back, ok := OpcodeByName[name]
		if !ok || back != op {
			t.Errorf("OpcodeByName[%q] = %v, want %v", name, back, op)
		}
	}
}

func TestOpcodeHasDest(t *testing.T) {
	noDest := []Opcode{OpNop, OpSt, OpBra, OpBar, OpSsy, OpRet, OpRetp, OpExit}
	for _, op := range noDest {
		if op.HasDest() {
			t.Errorf("%v should have no destination", op)
		}
	}
	for _, op := range []Opcode{OpMov, OpLd, OpAdd, OpSet, OpRcp, OpCvt} {
		if !op.HasDest() {
			t.Errorf("%v should have a destination", op)
		}
	}
}

func TestOpcodeKind(t *testing.T) {
	cases := map[Opcode]Kind{
		OpLd: KindMemory, OpSt: KindMemory,
		OpAdd: KindArith, OpMad: KindArith, OpSet: KindArith,
		OpAnd: KindLogic, OpShl: KindLogic,
		OpRcp: KindSFU, OpSqrt: KindSFU,
		OpBra: KindControl, OpBar: KindControl,
	}
	for op, want := range cases {
		if got := op.Kind(); got != want {
			t.Errorf("%v.Kind() = %v, want %v", op, got, want)
		}
	}
}

func TestCmpRoundTrip(t *testing.T) {
	for c, name := range map[CmpOp]string{
		CmpEq: "eq", CmpNe: "ne", CmpLt: "lt", CmpLe: "le",
		CmpGt: "gt", CmpGe: "ge", CmpLo: "lo", CmpLs: "ls",
		CmpHi: "hi", CmpHs: "hs",
	} {
		if c.String() != name {
			t.Errorf("%v.String() = %q, want %q", c, c.String(), name)
		}
		if CmpByName[name] != c {
			t.Errorf("CmpByName[%q] = %v, want %v", name, CmpByName[name], c)
		}
	}
}

func TestOperandString(t *testing.T) {
	cases := []struct {
		o    Operand
		want string
	}{
		{R(3), "$r3"},
		{func() Operand { o := R(3); o.Neg = true; return o }(), "-$r3"},
		{func() Operand { o := R(1); o.Half = HalfLo; return o }(), "$r1.lo"},
		{func() Operand { o := R(1); o.Half = HalfHi; return o }(), "$r1.hi"},
		{P(0), "$p0"},
		{Operand{Kind: OpdReg, Reg: Reg{RegOfs, 2}}, "$ofs2"},
		{Imm(0x10), "0x00000010"},
		{MemDirect(SpaceShared, 0x10), "s[0x0010]"},
		{MemIndirect(SpaceShared, Reg{RegOfs, 2}, 0x40), "s[$ofs2+0x0040]"},
		{MemIndirect(SpaceGlobal, Reg{RegGPR, 2}, 0), "[$r2]"},
		{Special(SpecCtaidX), "%ctaid.x"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("Operand.String() = %q, want %q", got, c.want)
		}
	}
}

func TestGuardString(t *testing.T) {
	g := Guard{Reg: Reg{RegPred, 0}, Cond: CmpEq}
	if got := g.String(); got != "@$p0.eq " {
		t.Errorf("guard = %q", got)
	}
	if (Guard{}).String() != "" {
		t.Error("inactive guard should render empty")
	}
	if (Guard{}).Active() {
		t.Error("zero guard should be inactive")
	}
}

func TestDestReg(t *testing.T) {
	mk := func(op Opcode, dst Operand) *Instruction {
		return &Instruction{Op: op, Dst: dst}
	}
	if _, _, ok := mk(OpSt, MemDirect(SpaceGlobal, 0)).DestReg(); ok {
		t.Error("st should have no destination register")
	}
	if _, _, ok := mk(OpBra, Operand{}).DestReg(); ok {
		t.Error("bra should have no destination register")
	}
	if _, _, ok := mk(OpMov, MemDirect(SpaceShared, 4)).DestReg(); ok {
		t.Error("mov-to-memory should have no destination register")
	}
	if _, _, ok := mk(OpMov, R(ZeroReg)).DestReg(); ok {
		t.Error("write to zero register is not a fault site")
	}
	if _, _, ok := mk(OpMov, R(SinkReg)).DestReg(); ok {
		t.Error("write to sink is not a fault site")
	}
	r, bits, ok := mk(OpAdd, R(7)).DestReg()
	if !ok || r != (Reg{RegGPR, 7}) || bits != 32 {
		t.Errorf("add dest = %v/%d/%v", r, bits, ok)
	}
	// Dual destination: predicate wins.
	in := &Instruction{Op: OpSet, Dst: R(SinkReg), DstPred: Reg{RegPred, 1}}
	r, bits, ok = in.DestReg()
	if !ok || r != (Reg{RegPred, 1}) || bits != PredBits {
		t.Errorf("dual dest = %v/%d/%v", r, bits, ok)
	}
	// Plain predicate destination.
	in = &Instruction{Op: OpSetp, Dst: P(2)}
	r, bits, ok = in.DestReg()
	if !ok || r.Class != RegPred || bits != PredBits {
		t.Errorf("setp dest = %v/%d/%v", r, bits, ok)
	}
}

func TestProgramValidate(t *testing.T) {
	good := &Program{
		Name: "g",
		Instrs: []Instruction{
			{PC: 0, Op: OpBra, Target: "end"},
			{PC: 1, Op: OpExit, Label: "end"},
		},
		Labels: map[string]int{"end": 1},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	badPC := &Program{Name: "b", Instrs: []Instruction{{PC: 5, Op: OpNop}}, Labels: map[string]int{}}
	if err := badPC.Validate(); err == nil {
		t.Error("non-sequential PC accepted")
	}

	badLabel := &Program{Name: "b", Instrs: []Instruction{{PC: 0, Op: OpBra, Target: "nope"}}, Labels: map[string]int{}}
	if err := badLabel.Validate(); err == nil {
		t.Error("undefined branch target accepted")
	}

	badBar := &Program{Name: "b", Instrs: []Instruction{{PC: 0, Op: OpBar}}, Labels: map[string]int{}}
	if err := badBar.Validate(); err == nil {
		t.Error("bar without immediate accepted")
	}

	badGuard := &Program{Name: "b", Instrs: []Instruction{
		{PC: 0, Op: OpNop, Guard: Guard{Reg: Reg{RegGPR, 0}, Cond: CmpEq}},
	}, Labels: map[string]int{}}
	if err := badGuard.Validate(); err == nil {
		t.Error("guard on GPR accepted")
	}

	badLabelRange := &Program{Name: "b", Instrs: []Instruction{{PC: 0, Op: OpNop}},
		Labels: map[string]int{"x": 9}}
	if err := badLabelRange.Validate(); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestOpcodeSequential(t *testing.T) {
	// Control transfers and scheduling points end a straight-line run;
	// everything else — including ssy and nop, which fall through — is
	// sequential.
	for _, op := range []Opcode{OpBra, OpBar, OpRet, OpRetp, OpExit} {
		if op.Sequential() {
			t.Errorf("%v.Sequential() = true, want false", op)
		}
	}
	for _, op := range []Opcode{OpAdd, OpMov, OpLd, OpSt, OpSet, OpSelp, OpNop, OpSsy} {
		if !op.Sequential() {
			t.Errorf("%v.Sequential() = false, want true", op)
		}
	}
}

func TestStraightLen(t *testing.T) {
	mk := func() *Program {
		return &Program{
			Name: "s",
			Instrs: []Instruction{
				{PC: 0, Op: OpAdd, Dst: R(1), Srcs: []Operand{R(1), R(2)}},
				{PC: 1, Op: OpMov, Dst: R(2), Srcs: []Operand{R(1)}},
				{PC: 2, Op: OpBra, Target: "end"},
				{PC: 3, Op: OpSsy, Target: "end"},
				{PC: 4, Op: OpSt, Dst: MemDirect(SpaceShared, 0), Srcs: []Operand{R(1)}},
				{PC: 5, Op: OpExit, Label: "end"},
			},
			Labels: map[string]int{"end": 5},
		}
	}
	want := []int{2, 1, 0, 2, 1, 0}
	// The forward-scan fallback (unvalidated program) and the table built
	// by Validate must agree.
	cold := mk()
	for pc, w := range want {
		if got := cold.StraightLen(pc); got != w {
			t.Errorf("unvalidated StraightLen(%d) = %d, want %d", pc, got, w)
		}
	}
	p := mk()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for pc, w := range want {
		if got := p.StraightLen(pc); got != w {
			t.Errorf("validated StraightLen(%d) = %d, want %d", pc, got, w)
		}
	}
	if p.StraightLen(-1) != 0 || p.StraightLen(len(p.Instrs)) != 0 {
		t.Error("out-of-range StraightLen should be 0")
	}
}

func TestInstructionString(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: OpAdd, DType: TypeU32, SType: TypeU32,
			Dst: R(1), Srcs: []Operand{R(2), Imm(4)}},
			"add.u32 $r1, $r2, 0x00000004"},
		{Instruction{Op: OpSet, Cmp: CmpEq, DType: TypeS32, SType: TypeS32,
			Dst: R(SinkReg), DstPred: Reg{RegPred, 0}, Srcs: []Operand{R(6), R(1)}},
			"set.eq.s32 $p0/$o127, $r6, $r1"},
		{Instruction{Op: OpBra, Target: "loop",
			Guard: Guard{Reg: Reg{RegPred, 0}, Cond: CmpNe}},
			"@$p0.ne bra loop"},
		{Instruction{Op: OpBar, Srcs: []Operand{Imm(0)}},
			"bar 0x00000000"},
		{Instruction{Op: OpExit}, "exit"},
		{Instruction{Op: OpNop, Label: "l1"}, "l1: nop"},
		{Instruction{Op: OpLd, DType: TypeF32, SType: TypeF32,
			Dst: R(5), Srcs: []Operand{MemIndirect(SpaceGlobal, Reg{RegGPR, 2}, 4)}},
			"ld.global.f32 $r5, [$r2+0x0004]"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
