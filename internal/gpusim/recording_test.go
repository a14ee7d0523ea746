package gpusim

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/isa"
)

// goldenRecording is what an observed golden run leaves behind: every
// thread's profile trace, the checkpoint store and the run's trap.
type goldenRecording struct {
	pcs  [][]uint16
	ck   *Checkpoints
	trap *Trap
}

// recordGolden runs c, which must carry no injection, through execute with
// a ProfileTrace and a CheckpointRecorder whose intra-CTA captures start
// every intraStart retired instructions.
func recordGolden(t *testing.T, c diffCase, intraStart int, execute func(*Device, *Launch) (*Result, error)) goldenRecording {
	t.Helper()
	dev := c.init.Clone()
	rec := NewCheckpointRecorder(c.init, dev, c.grid, intraStart)
	tr := NewProfileTrace(c.grid * c.block)
	launch := c.launch()
	launch.Tracer = tr
	res, err := execute(dev, launch)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRecording{pcs: tr.PCs, ck: rec.Finish(), trap: res.Trap}
}

// diffRecordings reports the first part of two golden recordings that
// differs — trap, a thread's trace, a boundary snapshot, an access summary,
// the thread-start bits, or any field of an intra-CTA snapshot — or ""
// when they are identical.
func diffRecordings(ref, got goldenRecording) string {
	if !sameTrap(ref.trap, got.trap) {
		return fmt.Sprintf("trap: reference %v, plan %v", ref.trap, got.trap)
	}
	for th := range ref.pcs {
		if x, y := ref.pcs[th], got.pcs[th]; !slices.Equal(x, y) {
			i := 0
			for i < min(len(x), len(y)) && x[i] == y[i] {
				i++
			}
			return fmt.Sprintf("thread %d trace of %d entries, reference %d: first difference at entry %d",
				th, len(y), len(x), i)
		}
	}
	a, b := ref.ck, got.ck
	if len(a.snaps) != len(b.snaps) {
		return fmt.Sprintf("%d boundary snapshots, reference %d", len(b.snaps), len(a.snaps))
	}
	for i := range a.snaps {
		if !bytes.Equal(a.snaps[i].Bytes(), b.snaps[i].Bytes()) {
			return fmt.Sprintf("boundary snapshot %d differs", i)
		}
	}
	int32s := func(x, y [][]int32) bool { return slices.EqualFunc(x, y, slices.Equal[[]int32]) }
	switch {
	case a.numCTAs != b.numCTAs || a.tpc != b.tpc || a.bytes != b.bytes || a.finalBytes != b.finalBytes:
		return "store geometry or byte counts differ"
	case !int32s(a.loadWords, b.loadWords) || !slices.Equal(a.lastLoad, b.lastLoad):
		return "load summaries differ"
	case !int32s(a.lastStore, b.lastStore) || !slices.Equal(a.both, b.both) || !maps.Equal(a.partial, b.partial):
		return "store summaries differ"
	case !int32s(a.storedIn, b.storedIn):
		return "per-CTA stored pages differ"
	case !slices.Equal(a.startOK, b.startOK):
		return "thread-start bits differ"
	case (a.warp == nil) != (b.warp == nil):
		return fmt.Sprintf("intra-CTA store present %v, reference %v", b.warp != nil, a.warp != nil)
	case a.warp == nil:
		return ""
	}
	wa, wb := a.warp, b.warp
	if wa.count != wb.count || wa.bytes != wb.bytes || len(wa.perCTA) != len(wb.perCTA) {
		return fmt.Sprintf("intra-CTA store holds %d snapshots (%d B), reference %d (%d B)", wb.count, wb.bytes, wa.count, wa.bytes)
	}
	for cta := range wa.perCTA {
		if len(wa.perCTA[cta]) != len(wb.perCTA[cta]) {
			return fmt.Sprintf("CTA %d: %d intra-CTA snapshots, reference %d", cta, len(wb.perCTA[cta]), len(wa.perCTA[cta]))
		}
		for ord, x := range wa.perCTA[cta] {
			y := wb.perCTA[cta][ord]
			if x.cta != y.cta || x.retired != y.retired || !slices.Equal(x.dynAt, y.dynAt) || !slices.Equal(x.done, y.done) ||
				!slices.Equal(x.live, y.live) || !bytes.Equal(x.shared, y.shared) ||
				!slices.Equal(x.pageIdx, y.pageIdx) || !slices.EqualFunc(x.pageDat, y.pageDat, bytes.Equal) {
				return fmt.Sprintf("CTA %d intra-CTA snapshot %d differs: reference at retired %d, plan at %d", cta, ord, x.retired, y.retired)
			}
		}
	}
	return ""
}

// fallOffEnd returns prog with its final exit replaced by a mov, so every
// thread that reaches the end retires by falling off it.
func fallOffEnd(t *testing.T, prog *isa.Program) *isa.Program {
	t.Helper()
	q := &isa.Program{Name: prog.Name, Instrs: slices.Clone(prog.Instrs), Labels: prog.Labels}
	last := &q.Instrs[len(q.Instrs)-1]
	*last = isa.Instruction{PC: last.PC, Op: isa.OpMov, DType: isa.TypeU32, SType: isa.TypeU32,
		Dst: isa.R(0), Srcs: []isa.Operand{isa.R(1)}, Label: last.Label}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestGoldenRecordingMatchesReference: the golden run the batched
// observing loops record — profile trace and the whole checkpoint store,
// boundary snapshots, access summaries, thread-start bits and every
// intra-CTA snapshot — is the one the reference runner records by driving
// the warp recorder after every step (serial) or min-PC sweep (lockstep).
// Random programs with barriers run as two CTAs under both widths, as
// generated and ending by falling off the end, capturing at every
// resume-safe point; chainhang captures every third retired instruction
// and keeps all its captures.
func TestGoldenRecordingMatchesReference(t *testing.T) {
	check := func(name string, c diffCase, intraStart int) *Checkpoints {
		t.Helper()
		ref := recordGolden(t, c, intraStart, executeReference)
		got := recordGolden(t, c, intraStart, Execute)
		if d := diffRecordings(ref, got); d != "" {
			t.Fatalf("%s warp %d: %s", name, c.warp, d)
		}
		return got.ck
	}
	x := uint64(0x9E3779B97F4A7C15) // addFuzzSeeds' inputs
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		prog := fuzzProgram(t, x, int(uint8(x>>40)%40)+1)
		for _, p := range []*isa.Program{prog, fallOffEnd(t, prog)} {
			for _, warp := range []int{0, 4} {
				c := fuzzCase(p, warp, nil)
				c.grid = 2
				check(fmt.Sprintf("seed %d", x), c, 1)
			}
		}
	}
	for _, warp := range []int{0, 4} {
		c := chainhangCase(t, warp)
		const intraStart = 3
		ck := check("chainhang", c, intraStart)
		for cta := 0; cta < c.grid; cta++ {
			if n := ck.Warp().PerCTA(cta); n < 10 {
				t.Fatalf("chainhang warp %d CTA %d keeps %d intra-CTA snapshots, want one every %d instructions", warp, cta, n, intraStart)
			}
		}
	}
}
