package ptx

import (
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
)

// one parses a single-instruction program.
func one(t *testing.T, line string) isa.Instruction {
	t.Helper()
	p, err := Assemble("t", line)
	if err != nil {
		t.Fatalf("assemble %q: %v", line, err)
	}
	if len(p.Instrs) != 1 {
		t.Fatalf("got %d instructions", len(p.Instrs))
	}
	return p.Instrs[0]
}

func TestParseBasicALU(t *testing.T) {
	in := one(t, "add.u32 $r3, -$r3, 0x00000100")
	if in.Op != isa.OpAdd || in.DType != isa.TypeU32 {
		t.Fatalf("bad mnemonic: %+v", in)
	}
	if in.Dst.Reg != (isa.Reg{Class: isa.RegGPR, Index: 3}) {
		t.Fatalf("bad dst: %+v", in.Dst)
	}
	if !in.Srcs[0].Neg {
		t.Fatal("negation lost")
	}
	if in.Srcs[1].Kind != isa.OpdImm || in.Srcs[1].Imm != 0x100 {
		t.Fatalf("bad immediate: %+v", in.Srcs[1])
	}
}

func TestParseWideHalves(t *testing.T) {
	in := one(t, "mad.wide.u16 $r4, $r1.hi, $r3.lo, $r4")
	if !in.Wide || in.SType != isa.TypeU16 {
		t.Fatalf("wide/type lost: %+v", in)
	}
	if in.Srcs[0].Half != isa.HalfHi || in.Srcs[1].Half != isa.HalfLo {
		t.Fatalf("halves lost: %+v", in.Srcs)
	}
}

func TestParseDualDest(t *testing.T) {
	in := one(t, "set.eq.s32.s32 $p0/$o127, $r6, $r1")
	if in.Cmp != isa.CmpEq || in.DType != isa.TypeS32 || in.SType != isa.TypeS32 {
		t.Fatalf("bad set: %+v", in)
	}
	if in.DstPred != (isa.Reg{Class: isa.RegPred, Index: 0}) {
		t.Fatalf("pred dest lost: %+v", in.DstPred)
	}
	if in.Dst.Reg.Index != isa.SinkReg {
		t.Fatalf("sink dest lost: %+v", in.Dst)
	}

	in = one(t, "and.b32 $p0|$o127, $r5, $r2")
	if in.Op != isa.OpAnd || !in.DstPred.Valid() {
		t.Fatalf("and dual dest: %+v", in)
	}
}

func TestParseGuardedBranch(t *testing.T) {
	p, err := Assemble("t", "@$p0.eq bra l0x00000228\nl0x00000228: exit")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Instrs[0]
	if !in.Guard.Active() || in.Guard.Cond != isa.CmpEq {
		t.Fatalf("guard lost: %+v", in.Guard)
	}
	if in.Op != isa.OpBra || in.Target != "l0x00000228" {
		t.Fatalf("branch lost: %+v", in)
	}
	p, err = Assemble("t", "@!$p1 bra somewhere\nsomewhere: exit")
	if err != nil {
		t.Fatal(err)
	}
	in = p.Instrs[0]
	if !in.Guard.Not || in.Guard.Reg.Index != 1 {
		t.Fatalf("negated guard: %+v", in.Guard)
	}
}

func TestParseMemRefs(t *testing.T) {
	in := one(t, "shl.u32 $r3, s[0x0010], 0x00000001")
	if in.Srcs[0].Space != isa.SpaceShared || in.Srcs[0].Imm != 0x10 || in.Srcs[0].BaseValid {
		t.Fatalf("shared direct: %+v", in.Srcs[0])
	}

	in = one(t, "min.s32 $r7, s[$ofs2+0x0040], $r8")
	src := in.Srcs[0]
	if src.Space != isa.SpaceShared || !src.BaseValid ||
		src.Reg != (isa.Reg{Class: isa.RegOfs, Index: 2}) || src.Imm != 0x40 {
		t.Fatalf("shared indirect: %+v", src)
	}

	in = one(t, "ld.global.u32 $r2, [$r2]")
	if in.Srcs[0].Space != isa.SpaceGlobal || !in.Srcs[0].BaseValid {
		t.Fatalf("bare global: %+v", in.Srcs[0])
	}

	in = one(t, "ld.global.f32 $r14, [$r12-0x0004]")
	if got := in.Srcs[0].Imm; got != 0xFFFFFFFC {
		t.Fatalf("negative offset = %#x", got)
	}

	in = one(t, "st.global.u32 [$r4], $r7")
	if in.Dst.Kind != isa.OpdMem || in.Srcs[0].Kind != isa.OpdReg {
		t.Fatalf("store shape: %+v", in)
	}

	in = one(t, "mov.u32 s[$ofs3+0x0440], $r2")
	if in.Dst.Kind != isa.OpdMem || in.Dst.Space != isa.SpaceShared {
		t.Fatalf("mov to shared: %+v", in.Dst)
	}
}

func TestParseImmediates(t *testing.T) {
	cases := []struct {
		lit  string
		want uint32
	}{
		{"0x000000ff", 0xFF},
		{"255", 255},
		{"-1", 0xFFFFFFFF},
		{"0f3F800000", 0x3F800000},
		{"1.5", math.Float32bits(1.5)},
	}
	for _, c := range cases {
		in := one(t, "mov.u32 $r1, "+c.lit)
		if in.Srcs[0].Imm != c.want {
			t.Errorf("imm %q = %#x, want %#x", c.lit, in.Srcs[0].Imm, c.want)
		}
	}
}

func TestParseSpecials(t *testing.T) {
	in := one(t, "cvt.u32.u16 $r1, %ctaid.x")
	if in.DType != isa.TypeU32 || in.SType != isa.TypeU16 {
		t.Fatalf("cvt types: %+v", in)
	}
	if in.Srcs[0].Reg != (isa.Reg{Class: isa.RegSpecial, Index: isa.SpecCtaidX}) {
		t.Fatalf("special: %+v", in.Srcs[0])
	}
}

func TestParseLabels(t *testing.T) {
	p, err := Assemble("t", `
		bra lend
		lmid: nop
		lend: exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["lmid"] != 1 || p.Labels["lend"] != 2 {
		t.Fatalf("labels: %v", p.Labels)
	}
}

func TestParseComments(t *testing.T) {
	p, err := Assemble("t", `
		// full-line comment
		nop   // trailing
		exit  # hash comment
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 2 {
		t.Fatalf("got %d instructions, want 2", len(p.Instrs))
	}
}

func TestParseBarRet(t *testing.T) {
	in := one(t, "bar.sync 0x00000000")
	if in.Op != isa.OpBar || in.Srcs[0].Imm != 0 {
		t.Fatalf("bar: %+v", in)
	}
	if one(t, "retp").Op != isa.OpRetp {
		t.Fatal("retp")
	}
	p, err := Assemble("t", "ssy l0\nl0: exit")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Op != isa.OpSsy {
		t.Fatal("ssy")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate $r1, $r2",                // unknown opcode
		"add.u32 $r999, $r1, $r2",            // register out of range
		"add.u32 $p9, $r1, $r2",              // predicate out of range
		"add.zzz $r1, $r2, $r3",              // unknown modifier
		"add.u32 $r1, s[0x10",                // unterminated memory ref
		"bra",                                // missing target
		"exit $r1",                           // operand on exit
		"@$r0.eq bra l",                      // guard on non-pred
		"lfoo:",                              // label without instruction
		"st.global.u32 $r1, $r2",             // store without memory dest
		"add.u32.s32.f32 $r1, $r2, $r3",      // too many types
		"mov.u32 $r1, 0xzz",                  // bad hex
		"add.u32 $r1, %tid.w",                // unknown special
		"ld.global.u32 $r1, x[$r2]",          // unknown space
		"mul.wide.u16 $r1, -$r2.lo, g[-$r3]", // negated mem base
		"ld.global.b32 $r0, c[]",             // empty memory ref
	}
	for _, src := range bad {
		if _, err := Assemble("t", src); err == nil {
			t.Errorf("accepted bad source %q", src)
		}
	}
	if _, err := Assemble("t", ""); err == nil {
		t.Error("accepted empty program")
	}
	if _, err := Assemble("t", "l1: nop\nl1: exit"); err == nil {
		t.Error("accepted duplicate label")
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Assemble("prog", "nop\nbad.u32 $r1, $r2\n")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 || pe.Name != "prog" {
		t.Fatalf("position = %s:%d", pe.Name, pe.Line)
	}
	if !strings.Contains(pe.Error(), "prog:2") {
		t.Fatalf("message %q lacks position", pe.Error())
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic")
		}
	}()
	MustAssemble("bad", "not an instruction at all !!!")
}

// TestRoundTrip checks that disassembling and re-assembling a variety of
// instructions reproduces the identical program — the property the
// experiment reports rely on when they print kernel listings.
func TestRoundTrip(t *testing.T) {
	src := `
		cvt.u32.u16 $r0, %tid.x
		mad.lo.u32 $r1, $r1, $r2, $r0
		set.ge.u32.u32 $p0/$o127, $r0, $r3
		@$p0.ne bra lexit
		mul.wide.u16 $r4, $r1.lo, $r3.hi
		ld.global.f32 $r5, [$r4+0x0010]
		ld.shared.u32 $r6, s[$ofs1+0x0040]
		mad.f32 $r7, $r5, 0f3F000000, $r7
		st.global.f32 [$r4], $r7
		min.u32 $r8, $r8, $r9
		shr.s32 $r9, $r9, 0x00000002
		selp.u32 $r1, $r2, $r3, $p0
		bar.sync 0x00000000
		lexit: exit
	`
	p1, err := Assemble("rt", src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble("rt", p1.String())
	if err != nil {
		t.Fatalf("reparse of disassembly failed: %v\n%s", err, p1.String())
	}
	if p1.String() != p2.String() {
		t.Fatalf("round trip diverged:\n--- first ---\n%s--- second ---\n%s",
			p1.String(), p2.String())
	}
	if len(p1.Instrs) != len(p2.Instrs) {
		t.Fatalf("instruction count changed: %d vs %d", len(p1.Instrs), len(p2.Instrs))
	}
}
