// Package ptx assembles the PTXPlus-flavoured textual assembly used to write
// the reproduction's workload kernels into isa.Program values, and checks the
// structural invariants the simulator relies on.
//
// The accepted grammar is line-oriented:
//
//	line     := [label ":"] [guard] mnemonic [operand {"," operand}] [comment]
//	guard    := "@" ["!"] pred ["." cc]
//	mnemonic := opcode {"." modifier}
//	operand  := register | immediate | memref | identifier(branch target)
//	register := "$r"N[".lo"|".hi"] | "$p"N | "$ofs"N | "$o127" | "-"register | special
//	special  := "%tid.x" | "%ctaid.y" | "%ntid.x" | "%nctaid.x" | ...
//	immediate:= "0x"hex | decimal | "-"decimal | "0f"hexfloat | decimal"."frac
//	memref   := [space] "[" (imm | reg | reg "+" imm) "]"   with space in {g,s,c,l}
//
// Comments run from "//" or "#" to end of line. Blank lines are ignored.
// Example (paper Fig. 5 style):
//
//	shl.u32 $r3, s[0x0010], 0x00000001
//	mad.wide.u16 $r4, $r1.hi, $r3.lo, $r4
//	@$p0.eq bra l0x00000228
//	l0x00000228: nop
package ptx

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// ParseError reports an assembly failure with source position.
type ParseError struct {
	Name string // program name
	Line int    // 1-based source line
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ptx: %s:%d: %s", e.Name, e.Line, e.Msg)
}

// Assemble parses source into a validated program named name.
func Assemble(name, source string) (*isa.Program, error) {
	p := &isa.Program{Name: name, Labels: make(map[string]int)}
	for lineNo, raw := range strings.Split(source, "\n") {
		line := stripComment(raw)
		if strings.TrimSpace(line) == "" {
			continue
		}
		inst, err := parseLine(line)
		if err != nil {
			return nil, &ParseError{Name: name, Line: lineNo + 1, Msg: err.Error()}
		}
		inst.PC = len(p.Instrs)
		if inst.Label != "" {
			if _, dup := p.Labels[inst.Label]; dup {
				return nil, &ParseError{Name: name, Line: lineNo + 1,
					Msg: fmt.Sprintf("duplicate label %q", inst.Label)}
			}
			p.Labels[inst.Label] = inst.PC
		}
		p.Instrs = append(p.Instrs, inst)
	}
	if len(p.Instrs) == 0 {
		return nil, &ParseError{Name: name, Line: 0, Msg: "empty program"}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustAssemble is Assemble for statically known-good sources (kernel
// definitions); it panics on error.
func MustAssemble(name, source string) *isa.Program {
	p, err := Assemble(name, source)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "#"); i >= 0 {
		line = line[:i]
	}
	return line
}

func parseLine(line string) (isa.Instruction, error) {
	var inst isa.Instruction
	rest := strings.TrimSpace(line)

	// Optional "label:" prefix. A colon inside a token such as a label
	// reference cannot occur: labels are the only colon users.
	if i := strings.Index(rest, ":"); i >= 0 {
		label := strings.TrimSpace(rest[:i])
		if label == "" || strings.ContainsAny(label, " \t") {
			return inst, fmt.Errorf("malformed label in %q", line)
		}
		inst.Label = label
		rest = strings.TrimSpace(rest[i+1:])
		if rest == "" {
			return inst, fmt.Errorf("label %q without instruction (attach it to nop)", label)
		}
	}

	// Optional "@$pN.cc" guard.
	if strings.HasPrefix(rest, "@") {
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			return inst, fmt.Errorf("guard without instruction in %q", line)
		}
		g, err := parseGuard(fields[0])
		if err != nil {
			return inst, err
		}
		inst.Guard = g
		rest = strings.TrimSpace(fields[1])
	}

	// Mnemonic.
	fields := strings.SplitN(rest, " ", 2)
	if err := parseMnemonic(fields[0], &inst); err != nil {
		return inst, err
	}
	operands := ""
	if len(fields) == 2 {
		operands = strings.TrimSpace(fields[1])
	}
	if err := parseOperands(operands, &inst); err != nil {
		return inst, err
	}
	return inst, nil
}

func parseGuard(tok string) (isa.Guard, error) {
	var g isa.Guard
	s := strings.TrimPrefix(tok, "@")
	if strings.HasPrefix(s, "!") {
		g.Not = true
		s = s[1:]
	}
	// Split "$p0.eq" into register and condition.
	regPart := s
	if i := strings.LastIndex(s, "."); i >= 0 {
		if cc, ok := isa.CmpByName[s[i+1:]]; ok {
			g.Cond = cc
			regPart = s[:i]
		}
	}
	opd, err := parseRegister(regPart)
	if err != nil {
		return g, fmt.Errorf("bad guard %q: %v", tok, err)
	}
	if opd.Reg.Class != isa.RegPred {
		return g, fmt.Errorf("guard %q is not a predicate register", tok)
	}
	if g.Cond == isa.CmpNone && !g.Not {
		// Bare "@$p0" means "if set": treat as .ne (zero flag clear
		// means the comparison that produced it was true... PTXPlus
		// spells conditions explicitly; default to ne-of-zero-flag).
		g.Cond = isa.CmpNe
	}
	if g.Not && g.Cond == isa.CmpNone {
		g.Cond = isa.CmpNe
	}
	g.Reg = opd.Reg
	return g, nil
}

func parseMnemonic(m string, inst *isa.Instruction) error {
	parts := strings.Split(m, ".")
	op, ok := isa.OpcodeByName[parts[0]]
	if !ok {
		return fmt.Errorf("unknown opcode %q", parts[0])
	}
	inst.Op = op
	var types []isa.DataType
	var space isa.MemSpace
	for _, mod := range parts[1:] {
		switch mod {
		case "wide":
			inst.Wide = true
		case "half":
			inst.Half = true
		case "sat":
			inst.Sat = true
		case "lo":
			// mul.lo is the default 32-bit low multiply.
		case "global":
			space = isa.SpaceGlobal
		case "shared", "param":
			space = isa.SpaceShared
		case "const":
			space = isa.SpaceConst
		case "local":
			space = isa.SpaceLocal
		case "sync":
			// bar.sync
		case "uni":
			// bra.uni: uniform branch hint, no semantic difference here.
		default:
			if cc, ok := isa.CmpByName[mod]; ok && inst.Cmp == isa.CmpNone &&
				(inst.Op == isa.OpSet || inst.Op == isa.OpSetp || inst.Op == isa.OpSlct) {
				inst.Cmp = cc
				continue
			}
			if t, ok := typeByName(mod); ok {
				types = append(types, t)
				continue
			}
			return fmt.Errorf("unknown modifier %q in %q", mod, m)
		}
	}
	switch len(types) {
	case 0:
	case 1:
		inst.DType, inst.SType = types[0], types[0]
	case 2:
		inst.DType, inst.SType = types[0], types[1]
	default:
		return fmt.Errorf("too many type suffixes in %q", m)
	}
	// Record the space on a placeholder so operand parsing can default the
	// bare-bracket space for ld/st.
	inst.Dst.Space = space
	return nil
}

func typeByName(s string) (isa.DataType, bool) {
	switch s {
	case "u8":
		return isa.TypeU8, true
	case "u16":
		return isa.TypeU16, true
	case "u32":
		return isa.TypeU32, true
	case "u64":
		return isa.TypeU64, true
	case "s8":
		return isa.TypeS8, true
	case "s16":
		return isa.TypeS16, true
	case "s32":
		return isa.TypeS32, true
	case "s64":
		return isa.TypeS64, true
	case "b8":
		return isa.TypeB8, true
	case "b16":
		return isa.TypeB16, true
	case "b32":
		return isa.TypeB32, true
	case "f32":
		return isa.TypeF32, true
	case "f64":
		return isa.TypeF64, true
	case "pred":
		return isa.TypePred, true
	}
	return isa.TypeNone, false
}

func parseOperands(s string, inst *isa.Instruction) error {
	declaredSpace := inst.Dst.Space
	inst.Dst = isa.Operand{}

	var toks []string
	for _, t := range strings.Split(s, ",") {
		t = strings.TrimSpace(t)
		if t != "" {
			toks = append(toks, t)
		}
	}

	switch inst.Op {
	case isa.OpBra, isa.OpSsy:
		if len(toks) != 1 {
			return fmt.Errorf("%s needs one target label", inst.Op)
		}
		inst.Target = toks[0]
		return nil
	case isa.OpBar:
		if len(toks) != 1 {
			return fmt.Errorf("bar.sync needs one barrier id")
		}
		v, err := parseImmValue(toks[0])
		if err != nil {
			return err
		}
		inst.Srcs = []isa.Operand{isa.Imm(v)}
		return nil
	case isa.OpRet, isa.OpRetp, isa.OpExit, isa.OpNop:
		if len(toks) != 0 {
			return fmt.Errorf("%s takes no operands", inst.Op)
		}
		return nil
	}

	if len(toks) == 0 {
		return fmt.Errorf("%s needs operands", inst.Op)
	}

	// First token is the destination; it may be a dual "$p0/$o127" or
	// "$p1|$r1" form.
	dst := toks[0]
	if i := strings.IndexAny(dst, "/|"); i >= 0 && strings.HasPrefix(dst, "$p") {
		pr, err := parseRegister(dst[:i])
		if err != nil {
			return err
		}
		inst.DstPred = pr.Reg
		dst = dst[i+1:]
	}
	d, err := parseOperand(dst, declaredSpace)
	if err != nil {
		return fmt.Errorf("bad destination %q: %v", toks[0], err)
	}
	inst.Dst = d
	for _, t := range toks[1:] {
		o, err := parseOperand(t, declaredSpace)
		if err != nil {
			return fmt.Errorf("bad operand %q: %v", t, err)
		}
		inst.Srcs = append(inst.Srcs, o)
	}

	if inst.Op == isa.OpSt {
		// "st.global.u32 [$r2], $r3" parses the memory ref as Dst already.
		if inst.Dst.Kind != isa.OpdMem {
			return fmt.Errorf("st destination must be a memory reference")
		}
	}
	return nil
}

func parseOperand(tok string, declaredSpace isa.MemSpace) (isa.Operand, error) {
	switch {
	case strings.HasPrefix(tok, "$"), strings.HasPrefix(tok, "-$"), strings.HasPrefix(tok, "%"):
		return parseRegister(tok)
	case strings.Contains(tok, "["):
		return parseMemRef(tok, declaredSpace)
	default:
		v, err := parseImmValue(tok)
		if err != nil {
			return isa.Operand{}, err
		}
		return isa.Imm(v), nil
	}
}

func parseRegister(tok string) (isa.Operand, error) {
	var o isa.Operand
	o.Kind = isa.OpdReg
	s := tok
	if strings.HasPrefix(s, "-") {
		o.Neg = true
		s = s[1:]
	}
	if strings.HasSuffix(s, ".lo") {
		o.Half = isa.HalfLo
		s = strings.TrimSuffix(s, ".lo")
	} else if strings.HasSuffix(s, ".hi") {
		o.Half = isa.HalfHi
		s = strings.TrimSuffix(s, ".hi")
	}
	switch {
	case strings.HasPrefix(s, "%"):
		for i := 0; i < isa.NumSpecials; i++ {
			if isa.Special(i).Reg.String() == s {
				o.Reg = isa.Reg{Class: isa.RegSpecial, Index: uint8(i)}
				return o, nil
			}
		}
		return o, fmt.Errorf("unknown special register %q", tok)
	case s == "$o127":
		o.Reg = isa.Reg{Class: isa.RegGPR, Index: isa.SinkReg}
		return o, nil
	case strings.HasPrefix(s, "$ofs"):
		n, err := strconv.Atoi(s[4:])
		if err != nil || n < 0 || n >= isa.NumOfs {
			return o, fmt.Errorf("bad offset register %q", tok)
		}
		o.Reg = isa.Reg{Class: isa.RegOfs, Index: uint8(n)}
		return o, nil
	case strings.HasPrefix(s, "$r"):
		n, err := strconv.Atoi(s[2:])
		if err != nil || n < 0 || n >= isa.NumGPRs {
			return o, fmt.Errorf("bad register %q", tok)
		}
		o.Reg = isa.Reg{Class: isa.RegGPR, Index: uint8(n)}
		return o, nil
	case strings.HasPrefix(s, "$p"):
		n, err := strconv.Atoi(s[2:])
		if err != nil || n < 0 || n >= isa.NumPreds {
			return o, fmt.Errorf("bad predicate register %q", tok)
		}
		o.Reg = isa.Reg{Class: isa.RegPred, Index: uint8(n)}
		return o, nil
	}
	return o, fmt.Errorf("unrecognized register %q", tok)
}

func parseMemRef(tok string, declaredSpace isa.MemSpace) (isa.Operand, error) {
	var o isa.Operand
	o.Kind = isa.OpdMem
	open := strings.Index(tok, "[")
	if !strings.HasSuffix(tok, "]") {
		return o, fmt.Errorf("unterminated memory reference %q", tok)
	}
	prefix, inner := tok[:open], tok[open+1:len(tok)-1]
	switch prefix {
	case "":
		o.Space = declaredSpace
		if o.Space == isa.SpaceNone {
			o.Space = isa.SpaceGlobal
		}
	case "g":
		o.Space = isa.SpaceGlobal
	case "s":
		o.Space = isa.SpaceShared
	case "c":
		o.Space = isa.SpaceConst
	case "l":
		o.Space = isa.SpaceLocal
	default:
		return o, fmt.Errorf("unknown address space prefix %q", prefix)
	}
	// inner := imm | reg | reg+imm | reg-imm
	if inner == "" {
		return o, fmt.Errorf("empty memory reference %q", tok)
	}
	base := inner
	var immPart string
	var negImm bool
	if i := strings.IndexAny(inner[1:], "+-"); i >= 0 && strings.HasPrefix(inner, "$") {
		sep := inner[i+1]
		base, immPart = inner[:i+1], inner[i+2:]
		negImm = sep == '-'
	}
	if strings.HasPrefix(base, "$") {
		r, err := parseRegister(base)
		if err != nil {
			return o, err
		}
		if r.Neg || r.Half != isa.HalfNone {
			return o, fmt.Errorf("memory base register cannot be negated or half-selected in %q", tok)
		}
		o.Reg = r.Reg
		o.BaseValid = true
		if immPart != "" {
			v, err := parseImmValue(immPart)
			if err != nil {
				return o, err
			}
			if negImm {
				v = -v
			}
			o.Imm = v
		}
		return o, nil
	}
	v, err := parseImmValue(inner)
	if err != nil {
		return o, err
	}
	o.Imm = v
	return o, nil
}

// parseImmValue accepts 0x hex, decimal (optionally negative), PTX "0f"
// hex-encoded float32 bit patterns, and decimal float literals (stored as
// float32 bits).
func parseImmValue(tok string) (uint32, error) {
	s := strings.TrimSpace(tok)
	switch {
	case strings.HasPrefix(s, "0f"), strings.HasPrefix(s, "0F"):
		v, err := strconv.ParseUint(s[2:], 16, 32)
		if err != nil {
			return 0, fmt.Errorf("bad float immediate %q", tok)
		}
		return uint32(v), nil
	case strings.HasPrefix(s, "0x"), strings.HasPrefix(s, "0X"):
		v, err := strconv.ParseUint(s[2:], 16, 32)
		if err != nil {
			return 0, fmt.Errorf("bad hex immediate %q", tok)
		}
		return uint32(v), nil
	case strings.Contains(s, "."):
		f, err := strconv.ParseFloat(s, 32)
		if err != nil {
			return 0, fmt.Errorf("bad float immediate %q", tok)
		}
		return math.Float32bits(float32(f)), nil
	default:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad immediate %q", tok)
		}
		return uint32(int32(v)), nil
	}
}
