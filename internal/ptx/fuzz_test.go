package ptx_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
)

// FuzzAssemble: the assembler never panics on any source, and a program it
// accepts re-assembles from its disassembly to the same text — the
// property TestRoundTrip checks for one hand-written program. Seeds are the
// disassembly of every registered kernel plus an empty memory reference,
// which once indexed past the end of its operand.
func FuzzAssemble(f *testing.F) {
	for _, ks := range kernels.All() {
		inst, err := ks.Build(kernels.ScaleSmall)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(inst.Target.Prog.String())
	}
	f.Add("ld.global.b32 $r0,c[]")
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := ptx.Assemble("fuzz", src)
		if err != nil {
			return
		}
		text := p1.String()
		p2, err := ptx.Assemble("fuzz", text)
		if err != nil {
			t.Fatalf("disassembly does not re-assemble: %v\n%s", err, text)
		}
		if again := p2.String(); again != text {
			t.Fatalf("round trip diverged:\n--- first ---\n%s--- second ---\n%s", text, again)
		}
	})
}
