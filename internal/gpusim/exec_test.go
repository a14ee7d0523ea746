package gpusim

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/ptx"
)

// runProg executes a single-thread program on a small device and returns
// the result plus the device.
func runProg(t *testing.T, src string, global []uint32, params []uint32) (*Result, *Device) {
	t.Helper()
	prog, err := ptx.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	dev := NewDevice(4 * max(len(global), 16))
	dev.WriteWords(0, global)
	res, err := Execute(dev, &Launch{
		Prog:   prog,
		Grid:   Dim3{X: 1, Y: 1, Z: 1},
		Block:  Dim3{X: 1, Y: 1, Z: 1},
		Params: params,
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res, dev
}

// evalOp runs "op dst, srcs..." storing the result word at global[0].
func evalOp(t *testing.T, expr string) uint32 {
	t.Helper()
	src := expr + "\nst.global.u32 [$r124], $r10\nexit"
	res, dev := runProg(t, src, []uint32{0xDEADBEEF}, nil)
	if res.Trap != nil {
		t.Fatalf("trap: %v", res.Trap)
	}
	return dev.ReadWords(0, 1)[0]
}

func f32imm(f float32) string {
	return "0f" + hex8(math.Float32bits(f))
}

func hex8(v uint32) string {
	const digits = "0123456789ABCDEF"
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = digits[v&0xF]
		v >>= 4
	}
	return string(b[:])
}

func TestIntALU(t *testing.T) {
	cases := []struct {
		expr string
		want uint32
	}{
		{"add.u32 $r10, 7, 8", 15},
		{"sub.u32 $r10, 7, 8", 0xFFFFFFFF},
		{"mul.lo.u32 $r10, 100000, 100000", 100000 * 100000 % (1 << 32) & 0xFFFFFFFF},
		{"mul.wide.u16 $r10, 0x0000FFFF, 0x0000FFFF", 0xFFFF * 0xFFFF},
		{"mad.lo.u32 $r10, 3, 4, 5", 17},
		{"div.u32 $r10, 17, 5", 3},
		{"div.s32 $r10, -17, 5", 0xFFFFFFFD},
		{"div.u32 $r10, 17, 0", 0xFFFFFFFF}, // divide by zero: all-ones, no trap
		{"rem.u32 $r10, 17, 5", 2},
		{"rem.u32 $r10, 17, 0", 17},
		{"min.u32 $r10, 3, -1", 3},
		{"min.s32 $r10, 3, -1", 0xFFFFFFFF},
		{"max.u32 $r10, 3, -1", 0xFFFFFFFF},
		{"max.s32 $r10, 3, -1", 3},
		{"and.b32 $r10, 0x000000F0, 0x000000FF", 0xF0},
		{"or.b32 $r10, 0x000000F0, 0x0000000F", 0xFF},
		{"xor.b32 $r10, 0x000000FF, 0x0000000F", 0xF0},
		{"not.b32 $r10, 0", 0xFFFFFFFF},
		{"cnot.b32 $r10, 0", 1},
		{"cnot.b32 $r10, 5", 0},
		{"shl.u32 $r10, 1, 5", 32},
		{"shr.u32 $r10, 0x80000000, 4", 0x08000000},
		{"shr.s32 $r10, 0x80000000, 4", 0xF8000000},
		{"shl.u32 $r10, 1, 33", 2}, // shift amount masked to 5 bits
		{"abs.s32 $r10, -5", 5},
		{"neg.s32 $r10, 5", 0xFFFFFFFB},
		{"sad.u32 $r10, 3, 10, 100", 107},
		{"sad.s32 $r10, -3, 10, 100", 113},
		{"slct.s32 $r10, 11, 22, 1", 11},
		{"slct.s32 $r10, 11, 22, -1", 22},
	}
	for _, c := range cases {
		if got := evalOp(t, c.expr); got != c.want {
			t.Errorf("%q = %#x, want %#x", c.expr, got, c.want)
		}
	}
}

func TestWideSignedMul(t *testing.T) {
	// mul.wide.s16 with .lo/.hi half selection and sign extension.
	src := `
		mov.u32 $r1, 0x8000FFFF
		mul.wide.s16 $r10, $r1.lo, $r1.hi
		st.global.u32 [$r124], $r10
		exit
	`
	res, dev := runProg(t, src, []uint32{0}, nil)
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	// lo = -1, hi = -32768 -> 32768
	if got := dev.ReadWords(0, 1)[0]; got != 32768 {
		t.Fatalf("wide signed mul = %d, want 32768", got)
	}
}

func TestFloatALU(t *testing.T) {
	f := func(x float32) uint32 { return math.Float32bits(x) }
	cases := []struct {
		expr string
		want uint32
	}{
		{"add.f32 $r10, " + f32imm(1.5) + ", " + f32imm(2.25), f(3.75)},
		{"sub.f32 $r10, " + f32imm(1.5) + ", " + f32imm(2.25), f(-0.75)},
		{"mul.f32 $r10, " + f32imm(1.5) + ", " + f32imm(2.0), f(3.0)},
		{"mad.f32 $r10, " + f32imm(1.5) + ", " + f32imm(2.0) + ", " + f32imm(0.5), f(3.5)},
		{"div.f32 $r10, " + f32imm(1.0) + ", " + f32imm(4.0), f(0.25)},
		{"div.f32 $r10, " + f32imm(1.0) + ", " + f32imm(0.0), f(float32(math.Inf(1)))},
		{"rcp.f32 $r10, " + f32imm(4.0), f(0.25)},
		{"sqrt.f32 $r10, " + f32imm(9.0), f(3.0)},
		{"rsqrt.f32 $r10, " + f32imm(4.0), f(0.5)},
		{"ex2.f32 $r10, " + f32imm(3.0), f(8.0)},
		{"lg2.f32 $r10, " + f32imm(8.0), f(3.0)},
		{"abs.f32 $r10, " + f32imm(-2.5), f(2.5)},
		{"neg.f32 $r10, " + f32imm(2.5), f(-2.5)},
		{"min.f32 $r10, " + f32imm(1.0) + ", " + f32imm(-1.0), f(-1.0)},
		{"max.f32 $r10, " + f32imm(1.0) + ", " + f32imm(-1.0), f(1.0)},
		{"add.sat.f32 $r10, " + f32imm(1.5) + ", " + f32imm(2.25), f(1.0)},
		{"add.sat.f32 $r10, " + f32imm(-1.5) + ", " + f32imm(0.25), f(0.0)},
	}
	for _, c := range cases {
		if got := evalOp(t, c.expr); got != c.want {
			t.Errorf("%q = %#x (%g), want %#x (%g)", c.expr,
				got, math.Float32frombits(got), c.want, math.Float32frombits(c.want))
		}
	}
}

// TestFloatNaNCanonical: every NaN an f32 arithmetic op produces — from two
// NaNs of different payloads, from one NaN and a number, or from Inf×0-style
// invalid operations — is the canonical 0x7FFFFFFF, in the compiled plan and
// in the reference interpreter alike.
func TestFloatNaNCanonical(t *testing.T) {
	nanA, nanB := "0f7FC00001", "0fFFFFE540"
	x, inf, ninf, zero := f32imm(1.5), f32imm(float32(math.Inf(1))), f32imm(float32(math.Inf(-1))), f32imm(0)
	var exprs []string
	for _, op := range []string{"add", "sub", "mul", "div", "min", "max"} {
		for _, ab := range [][2]string{{nanA, nanB}, {nanB, nanA}, {nanA, x}, {x, nanB}} {
			exprs = append(exprs, op+".f32 $r10, "+ab[0]+", "+ab[1])
		}
	}
	for _, abc := range [][3]string{{nanA, nanB, nanA}, {nanB, x, x}, {x, x, nanA}, {inf, zero, x}} {
		exprs = append(exprs, "mad.f32 $r10, "+abc[0]+", "+abc[1]+", "+abc[2])
	}
	exprs = append(exprs,
		"mul.f32 $r10, "+inf+", "+zero,
		"mul.f32 $r10, "+zero+", "+ninf,
		"add.f32 $r10, "+inf+", "+ninf,
		"sub.f32 $r10, "+inf+", "+inf,
		"div.f32 $r10, "+zero+", "+zero,
		"div.f32 $r10, "+inf+", "+ninf,
	)
	for _, expr := range exprs {
		prog, err := ptx.Assemble("t", expr+"\nst.global.u32 [$r124], $r10\nexit")
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		for name, execute := range map[string]func(*Device, *Launch) (*Result, error){
			"plan": Execute, "reference": executeReference,
		} {
			dev := NewDevice(64)
			res, err := execute(dev, &Launch{Prog: prog, Grid: Dim3{X: 1, Y: 1, Z: 1}, Block: Dim3{X: 1, Y: 1, Z: 1}})
			if err != nil || res.Trap != nil {
				t.Fatalf("%s %q: err %v trap %v", name, expr, err, res.Trap)
			}
			if got := dev.ReadWords(0, 1)[0]; got != canonicalNaN {
				t.Errorf("%s %q = %#x, want the canonical NaN %#x", name, expr, got, canonicalNaN)
			}
		}
	}
}

func TestSinCos(t *testing.T) {
	got := math.Float32frombits(evalOp(t, "sin.f32 $r10, "+f32imm(0.5)))
	if math.Abs(float64(got)-math.Sin(0.5)) > 1e-6 {
		t.Errorf("sin(0.5) = %g", got)
	}
	got = math.Float32frombits(evalOp(t, "cos.f32 $r10, "+f32imm(0.5)))
	if math.Abs(float64(got)-math.Cos(0.5)) > 1e-6 {
		t.Errorf("cos(0.5) = %g", got)
	}
}

func TestCvt(t *testing.T) {
	f := func(x float32) uint32 { return math.Float32bits(x) }
	cases := []struct {
		expr string
		want uint32
	}{
		{"cvt.u32.u16 $r10, 0x00012345", 0x2345},
		{"cvt.s32.s16 $r10, 0x0000FFFF", 0xFFFFFFFF},
		{"cvt.s32.s8 $r10, 0x00000080", 0xFFFFFF80},
		{"cvt.u32.u8 $r10, 0x00000180", 0x80},
		{"cvt.f32.s32 $r10, -2", f(-2)},
		{"cvt.f32.u32 $r10, 3", f(3)},
		{"cvt.s32.f32 $r10, " + f32imm(-2.75), 0xFFFFFFFE},
		{"cvt.u32.f32 $r10, " + f32imm(3.99), 3},
		{"cvt.u32.f32 $r10, " + f32imm(-1.0), 0},
		{"cvt.s32.s32 $r10, -5", 0xFFFFFFFB},
		{"cvt.u16.u32 $r10, 0x00012345", 0x2345},
	}
	for _, c := range cases {
		if got := evalOp(t, c.expr); got != c.want {
			t.Errorf("%q = %#x, want %#x", c.expr, got, c.want)
		}
	}
}

func TestCvtNegatedSource(t *testing.T) {
	// The paper's listings use "cvt.s32.s32 $r2, -$r2" as negation.
	src := `
		mov.u32 $r2, 5
		cvt.s32.s32 $r2, -$r2
		st.global.u32 [$r124], $r2
		exit
	`
	res, dev := runProg(t, src, []uint32{0}, nil)
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if got := int32(dev.ReadWords(0, 1)[0]); got != -5 {
		t.Fatalf("negate = %d, want -5", got)
	}
}

func TestSetAndGuards(t *testing.T) {
	// set.CMP writes all-ones/zero and the guard reads the flags.
	cases := []struct {
		cmp   string
		a, b  int32
		taken bool // @$p0.ne bra taken means comparison true
	}{
		{"eq", 5, 5, true},
		{"eq", 5, 6, false},
		{"ne", 5, 6, true},
		{"lt", -1, 3, true},
		{"lt", 3, -1, false},
		{"ge", 3, -1, true},
		{"le", 3, 3, true},
		{"gt", 4, 3, true},
	}
	for _, c := range cases {
		src := `
			mov.u32 $r1, ` + itoa(c.a) + `
			mov.u32 $r2, ` + itoa(c.b) + `
			set.` + c.cmp + `.s32.s32 $p0/$o127, $r1, $r2
			mov.u32 $r10, 0
			@$p0.ne bra ltaken
			bra lend
			ltaken: mov.u32 $r10, 1
			lend: st.global.u32 [$r124], $r10
			exit
		`
		res, dev := runProg(t, src, []uint32{7}, nil)
		if res.Trap != nil {
			t.Fatal(res.Trap)
		}
		want := uint32(0)
		if c.taken {
			want = 1
		}
		if got := dev.ReadWords(0, 1)[0]; got != want {
			t.Errorf("set.%s %d,%d: taken=%d want %d", c.cmp, c.a, c.b, got, want)
		}
	}
}

func TestUnsignedCompare(t *testing.T) {
	// set.lt.u32: 0xFFFFFFFF is large unsigned.
	if got := evalOp(t, "set.lt.u32.u32 $r10, -1, 1"); got != 0 {
		t.Errorf("unsigned -1 < 1 should be false, got %#x", got)
	}
	if got := evalOp(t, "set.lt.s32.s32 $r10, -1, 1"); got != 0xFFFFFFFF {
		t.Errorf("signed -1 < 1 should be true, got %#x", got)
	}
	// set with a float destination type writes 1.0f for true (PTX
	// semantics), not all-ones.
	if got := evalOp(t, "set.gt.f32.f32 $r10, "+f32imm(2.0)+", "+f32imm(1.0)); got != math.Float32bits(1.0) {
		t.Errorf("float compare = %#x, want 1.0f bits", got)
	}
	if got := evalOp(t, "set.gt.u32.f32 $r10, "+f32imm(1.0)+", "+f32imm(2.0)); got != 0 {
		t.Errorf("false float compare = %#x, want 0", got)
	}
}

func TestSelp(t *testing.T) {
	src := `
		set.eq.u32.u32 $p1/$o127, 3, 3
		selp.u32 $r10, 111, 222, $p1
		st.global.u32 [$r124], $r10
		exit
	`
	res, dev := runProg(t, src, []uint32{0}, nil)
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if got := dev.ReadWords(0, 1)[0]; got != 111 {
		t.Fatalf("selp picked %d", got)
	}
}

func itoa(v int32) string {
	if v >= 0 && v < 10 {
		return string(rune('0' + v))
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func TestZeroAndSinkRegisters(t *testing.T) {
	src := `
		mov.u32 $r124, 42          // write to zero register discarded
		mov.u32 $r10, $r124
		st.global.u32 [$r124], $r10
		add.u32 $o127, 1, 2        // write to sink discarded
		mov.u32 $r11, $o127
		st.global.u32 [4], $r11
		exit
	`
	res, dev := runProg(t, src, []uint32{7, 7}, nil)
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	w := dev.ReadWords(0, 2)
	if w[0] != 0 || w[1] != 0 {
		t.Fatalf("zero/sink leaked: %v", w)
	}
}

func TestMemWidths(t *testing.T) {
	src := `
		mov.u32 $r1, 0x00000004
		ld.global.u8 $r10, [$r1]
		st.global.u32 [0x0008], $r10
		ld.global.s8 $r10, [$r1]
		st.global.u32 [0x000c], $r10
		ld.global.u16 $r10, [$r1]
		st.global.u32 [0x0010], $r10
		ld.global.s16 $r10, [$r1]
		st.global.u32 [0x0014], $r10
		mov.u32 $r2, 0x00000081
		st.global.u8 [0x0018], $r2
		mov.u32 $r3, 0x00018234
		st.global.u16 [0x001c], $r3
		exit
	`
	res, dev := runProg(t, src, []uint32{0, 0x800080F3, 0, 0, 0, 0, 0, 0}, nil)
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	w := dev.ReadWords(0, 8)
	if w[2] != 0xF3 {
		t.Errorf("u8 load = %#x", w[2])
	}
	if w[3] != 0xFFFFFFF3 {
		t.Errorf("s8 load = %#x", w[3])
	}
	if w[4] != 0x80F3 {
		t.Errorf("u16 load = %#x", w[4])
	}
	if w[5] != 0xFFFF80F3 {
		t.Errorf("s16 load = %#x", w[5])
	}
	if w[6] != 0x81 {
		t.Errorf("u8 store = %#x", w[6])
	}
	if w[7] != 0x8234 {
		t.Errorf("u16 store = %#x", w[7])
	}
}

func TestMemTraps(t *testing.T) {
	cases := []struct {
		name string
		src  string
		kind TrapKind
	}{
		{"load out of range", "ld.global.u32 $r1, [0x00010000]\nexit", TrapMemFault},
		{"store out of range", "st.global.u32 [0x00010000], $r1\nexit", TrapMemFault},
		{"misaligned load", "ld.global.u32 $r1, [0x00000002]\nexit", TrapMemFault},
		{"misaligned u16", "ld.global.u16 $r1, [0x00000003]\nexit", TrapMemFault},
		{"const write", "st.const.u32 c[0x0000], $r1\nexit", TrapMemFault},
	}
	for _, c := range cases {
		res, _ := runProg(t, c.src, []uint32{0, 0}, nil)
		if res.Trap == nil || res.Trap.Kind != c.kind {
			t.Errorf("%s: trap = %v, want %v", c.name, res.Trap, c.kind)
		}
	}
}

func TestConstSpace(t *testing.T) {
	prog := ptx.MustAssemble("c", `
		ld.const.u32 $r1, c[0x0004]
		st.global.u32 [0x0000], $r1
		exit
	`)
	dev := NewDevice(16)
	dev.Const = []byte{1, 0, 0, 0, 0x2A, 0, 0, 0}
	res, err := Execute(dev, &Launch{Prog: prog,
		Grid: Dim3{X: 1, Y: 1, Z: 1}, Block: Dim3{X: 1, Y: 1, Z: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if got := dev.ReadWords(0, 1)[0]; got != 0x2A {
		t.Fatalf("const load = %#x", got)
	}
}

func TestWatchdog(t *testing.T) {
	prog := ptx.MustAssemble("w", `
		lloop: bra lloop
	`)
	dev := NewDevice(16)
	res, err := Execute(dev, &Launch{
		Prog:     prog,
		Grid:     Dim3{X: 1, Y: 1, Z: 1},
		Block:    Dim3{X: 1, Y: 1, Z: 1},
		Watchdog: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap == nil || res.Trap.Kind != TrapWatchdog {
		t.Fatalf("trap = %v, want watchdog", res.Trap)
	}
}

func TestParamsInSharedMemory(t *testing.T) {
	src := `
		mov.u32 $r1, s[0x0010]
		add.u32 $r1, $r1, s[0x0014]
		st.global.u32 [0x0000], $r1
		exit
	`
	res, dev := runProg(t, src, []uint32{0}, []uint32{40, 2})
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if got := dev.ReadWords(0, 1)[0]; got != 42 {
		t.Fatalf("params = %d, want 42", got)
	}
}

func TestSpecialRegisters(t *testing.T) {
	prog := ptx.MustAssemble("s", `
		cvt.u32.u16 $r0, %tid.x
		cvt.u32.u16 $r1, %tid.y
		cvt.u32.u16 $r2, %ctaid.x
		cvt.u32.u16 $r3, %ntid.x
		cvt.u32.u16 $r4, %nctaid.x
		mul.lo.u32 $r5, $r2, $r3
		add.u32 $r5, $r5, $r0
		mad.lo.u32 $r5, $r1, 100, $r5
		mad.lo.u32 $r5, $r4, 1000, $r5
		// Unique small slot per thread: ctaid.x*4 + tid.y*2 + tid.x.
		mul.lo.u32 $r6, $r2, 4
		mad.lo.u32 $r6, $r1, 2, $r6
		add.u32 $r6, $r6, $r0
		shl.u32 $r6, $r6, 0x00000002
		st.global.u32 [$r6], $r5
		exit
	`)
	dev := NewDevice(4096)
	res, err := Execute(dev, &Launch{
		Prog:  prog,
		Grid:  Dim3{X: 2, Y: 1, Z: 1},
		Block: Dim3{X: 2, Y: 2, Z: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	// thread (tid.x=1, tid.y=1, cta 1): value = 1*2+1 + 1*100 + 2*1000 = 2103
	// at slot 1*4 + 1*2 + 1 = 7 (byte 28).
	if got := dev.ReadWords(28, 1)[0]; got != 2103 {
		t.Fatalf("specials = %d, want 2103", got)
	}
}

func TestGuardedNonBranch(t *testing.T) {
	// A failed guard annuls the write but still retires the instruction.
	src := `
		set.eq.u32.u32 $p0/$o127, 1, 2
		mov.u32 $r10, 7
		@$p0.ne mov.u32 $r10, 9
		st.global.u32 [0x0000], $r10
		exit
	`
	res, dev := runProg(t, src, []uint32{0}, nil)
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if got := dev.ReadWords(0, 1)[0]; got != 7 {
		t.Fatalf("guarded mov executed: %d", got)
	}
	if res.ThreadICnt[0] != 5 {
		t.Fatalf("iCnt = %d, want 5 (annulled instruction still retires)", res.ThreadICnt[0])
	}
}

func TestPredValueFlags(t *testing.T) {
	// and.b32 with dual dest sets the zero flag from the result.
	src := `
		mov.u32 $r5, 0x00000001
		mov.u32 $r2, 0x00000000
		and.b32 $p0|$o127, $r5, $r2
		mov.u32 $r10, 0
		@$p0.eq bra lzero
		bra lend
		lzero: mov.u32 $r10, 1
		lend: st.global.u32 [0x0000], $r10
		exit
	`
	res, dev := runProg(t, src, []uint32{0}, nil)
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if got := dev.ReadWords(0, 1)[0]; got != 1 {
		t.Fatalf("zero flag branch not taken: %d", got)
	}
}

func TestEvalCondTable(t *testing.T) {
	cases := []struct {
		flags uint8
		cond  isa.CmpOp
		want  bool
	}{
		{isa.FlagZero, isa.CmpEq, true},
		{0, isa.CmpEq, false},
		{0, isa.CmpNe, true},
		{isa.FlagSign, isa.CmpLt, true},
		{isa.FlagZero, isa.CmpLe, true},
		{0, isa.CmpGt, true},
		{isa.FlagSign, isa.CmpGe, false},
		{isa.FlagCarry, isa.CmpHs, true},
		{0, isa.CmpLo, true},
		{isa.FlagZero | isa.FlagCarry, isa.CmpHi, false},
	}
	for _, c := range cases {
		got, valid := evalCond(c.flags, c.cond)
		if !valid {
			t.Errorf("evalCond(%#x, %v) reported invalid", c.flags, c.cond)
		}
		if got != c.want {
			t.Errorf("evalCond(%#x, %v) = %v, want %v", c.flags, c.cond, got, c.want)
		}
		// The compiled guard test must agree with the interpreter.
		if test := condTest(c.cond); test == nil || test(c.flags) != c.want {
			t.Errorf("condTest(%v)(%#x) disagrees with evalCond", c.cond, c.flags)
		}
	}
	// Unknown condition codes are invalid in both paths.
	for _, c := range []isa.CmpOp{isa.CmpNone, isa.CmpHs + 1, isa.CmpOp(99)} {
		if _, valid := evalCond(0, c); valid {
			t.Errorf("evalCond(0, %d) claims valid", uint8(c))
		}
		if condTest(c) != nil {
			t.Errorf("condTest(%d) compiled an evaluator", uint8(c))
		}
	}
}
