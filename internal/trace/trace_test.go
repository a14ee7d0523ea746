package trace

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/ptx"
)

// buildToyProfile assembles a toy program and hand-builds a ProfileTrace.
func buildToyProfile(t *testing.T, threadPCs [][]uint16, threadsPerCTA int) *Profile {
	t.Helper()
	prog := ptx.MustAssemble("toy", `
		mov.u32 $r1, 1
		add.u32 $r2, $r1, 2
		set.eq.u32.u32 $p0/$o127, $r1, $r2
		st.global.u32 [0x0000], $r2
		bra lend
		lend: exit
	`)
	pt := &gpusim.ProfileTrace{PCs: threadPCs}
	p, err := Build(prog, pt, threadsPerCTA)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// w marks a trace entry as a destination write.
func w(pc int) uint16 { return uint16(pc) | gpusim.WroteBit }

func TestBuildFeatures(t *testing.T) {
	// Two threads: one runs mov,add,set,st; the other mov,add only.
	p := buildToyProfile(t, [][]uint16{
		{w(0), w(1), w(2), 3},
		{w(0), w(1)},
	}, 1)

	if p.Threads[0].ICnt != 4 || p.Threads[1].ICnt != 2 {
		t.Fatalf("iCnt = %d,%d", p.Threads[0].ICnt, p.Threads[1].ICnt)
	}
	// Thread 0 sites: mov(32) + add(32) + set->pred(4) = 68; st adds none.
	if p.Threads[0].SiteBits != 68 {
		t.Fatalf("thread 0 SiteBits = %d, want 68", p.Threads[0].SiteBits)
	}
	if p.Threads[1].SiteBits != 64 {
		t.Fatalf("thread 1 SiteBits = %d, want 64", p.Threads[1].SiteBits)
	}
	if p.TotalSites() != 132 {
		t.Fatalf("TotalSites = %d, want 132", p.TotalSites())
	}
	if p.TotalDyn() != 6 {
		t.Fatalf("TotalDyn = %d, want 6", p.TotalDyn())
	}
	if p.Threads[0].Sig == p.Threads[1].Sig {
		t.Fatal("different paths should have different signatures")
	}

	// Per-instruction bit accounting.
	if got := p.SiteBitsOf(0, 2); got != isa.PredBits {
		t.Fatalf("set dest bits = %d, want %d", got, isa.PredBits)
	}
	if got := p.SiteBitsOf(0, 3); got != 0 {
		t.Fatalf("st dest bits = %d, want 0", got)
	}
}

func TestSignaturesEqualForEqualPaths(t *testing.T) {
	p := buildToyProfile(t, [][]uint16{
		{w(0), w(1)},
		{w(0), w(1)},
	}, 2)
	if p.Threads[0].Sig != p.Threads[1].Sig {
		t.Fatal("identical paths must share a signature")
	}
}

// TestBuildSharesEqualTraces: threads with equal traces share one
// exact-length copy of it, threads whose traces differ — equal Sigs
// included, since the write flag is not hashed — hold their own, and the
// input trace, append-grown capacity and all, is left untouched.
func TestBuildSharesEqualTraces(t *testing.T) {
	grown := append(make([]uint16, 0, 64), w(0), w(1))
	in := [][]uint16{grown, {w(0), w(1)}, {w(0), 1}, {w(0), w(1)}, {w(0), 1}}
	orig := make([][]uint16, len(in))
	for i := range in {
		orig[i] = slices.Clone(in[i])
	}
	p := buildToyProfile(t, in, 5)
	for i := range in {
		if !slices.Equal(in[i], orig[i]) || cap(in[0]) != 64 {
			t.Fatalf("Build changed input trace %d: %v, was %v", i, in[i], orig[i])
		}
		if pcs := p.Threads[i].PCs; !slices.Equal(pcs, orig[i]) || cap(pcs) != len(pcs) || &pcs[0] == &in[i][0] {
			t.Fatalf("thread %d holds %v (cap %d), want an exact-length copy of %v", i, pcs, cap(pcs), orig[i])
		}
	}
	same := func(a, b int) bool { return &p.Threads[a].PCs[0] == &p.Threads[b].PCs[0] }
	if !same(0, 1) || !same(0, 3) || !same(2, 4) {
		t.Fatal("threads with equal traces hold separate copies")
	}
	if p.Threads[0].Sig != p.Threads[2].Sig || same(0, 2) {
		t.Fatal("traces equal only in Sig must not share")
	}
	if p.Threads[1].SiteBits != 64 || p.Threads[4].SiteBits != 32 {
		t.Fatalf("SiteBits %d and %d, want 64 and 32", p.Threads[1].SiteBits, p.Threads[4].SiteBits)
	}
}

// TestSigIsFNV1a pins Sig's definition against the standard library: FNV-1a
// (64-bit) over each entry's static PC as two little-endian bytes, the write
// flag excluded. Build folds the hash inline, one dynamic instruction at a
// time; hash/fnv is the oracle that the fold is still that function.
func TestSigIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	traces := make([][]uint16, 64)
	for i := range traces {
		traces[i] = make([]uint16, rng.Intn(300)) // some stay empty
		for j := range traces[i] {
			if rng.Intn(4) == 0 {
				traces[i][j] = w(rng.Intn(3)) // a real destination write
			} else {
				traces[i][j] = uint16(rng.Intn(gpusim.WroteBit)) // any 15-bit PC
			}
		}
	}
	p := buildToyProfile(t, traces, 1)
	for i, pcs := range traces {
		h := fnv.New64a()
		for _, entry := range pcs {
			pc := gpusim.PC(entry)
			h.Write([]byte{byte(pc), byte(pc >> 8)})
		}
		if got, want := p.Threads[i].Sig, h.Sum64(); got != want {
			t.Fatalf("trace %d (%d entries): Sig %#x, hash/fnv %#x", i, len(pcs), got, want)
		}
	}
}

func TestCTAHelpers(t *testing.T) {
	p := buildToyProfile(t, [][]uint16{
		{w(0)}, {w(0), w(1)},
		{w(0), w(1), w(2)}, {w(0), w(1), 3, 3},
	}, 2)
	if p.NumCTAs() != 2 {
		t.Fatalf("NumCTAs = %d", p.NumCTAs())
	}
	if lo, hi := p.CTAThreads(1); lo != 2 || hi != 4 {
		t.Fatalf("CTAThreads(1) = %d,%d", lo, hi)
	}
	if p.CTAOf(3) != 1 {
		t.Fatalf("CTAOf(3) = %d", p.CTAOf(3))
	}
	if got := p.CTAAvgICnt(0); got != 1.5 {
		t.Fatalf("CTAAvgICnt(0) = %v", got)
	}
	icnts := p.CTAICnts(1)
	if len(icnts) != 2 || icnts[0] != 3 || icnts[1] != 4 {
		t.Fatalf("CTAICnts(1) = %v", icnts)
	}
}

func TestBuildErrors(t *testing.T) {
	prog := ptx.MustAssemble("toy", "exit")
	pt := &gpusim.ProfileTrace{PCs: [][]uint16{{0}, {0}, {0}}}
	if _, err := Build(prog, pt, 2); err == nil {
		t.Error("accepted non-divisible CTA size")
	}
	if _, err := Build(prog, pt, 0); err == nil {
		t.Error("accepted zero threadsPerCTA")
	}
	// A trace entry flagged as write on a non-writing instruction must fail.
	bad := &gpusim.ProfileTrace{PCs: [][]uint16{{w(0)}}}
	if _, err := Build(prog, bad, 1); err == nil {
		t.Error("accepted write flag on exit")
	}
}

// seq builds a plain (non-writing) PC trace.
func seq(pcs ...int) []uint16 {
	out := make([]uint16, len(pcs))
	for i, pc := range pcs {
		out[i] = uint16(pc)
	}
	return out
}

func TestAnnotateLoopsSimple(t *testing.T) {
	// PCs: 0 1 [2 3 4] [2 3 4] [2 3 4] 5 — a 3-iteration loop at head 2.
	pcs := seq(0, 1, 2, 3, 4, 2, 3, 4, 2, 3, 4, 5)
	tags := AnnotateLoops(pcs)
	if tags[0].InLoop() || tags[1].InLoop() {
		t.Fatal("prologue tagged as loop")
	}
	if tags[11].InLoop() {
		t.Fatal("epilogue tagged as loop")
	}
	// First trip counts as iteration 0.
	for i := 2; i <= 4; i++ {
		if tags[i].Loop != 2 || tags[i].Iter != 0 {
			t.Fatalf("entry %d: %+v, want loop 2 iter 0", i, tags[i])
		}
	}
	if tags[5].Iter != 1 || tags[8].Iter != 2 {
		t.Fatalf("iterations not counted: %+v %+v", tags[5], tags[8])
	}
}

func TestAnnotateLoopsNested(t *testing.T) {
	// Outer loop head 1 (body 1..6), inner loop head 3 (body 3..4).
	pcs := seq(0,
		1, 2, 3, 4, 3, 4, 5, 6, // outer iter 0, inner iters 0,1
		1, 2, 3, 4, 3, 4, 5, 6, // outer iter 1, inner iters 2,3
		7)
	tags := AnnotateLoops(pcs)
	// Instruction at PC 2 belongs only to the outer loop.
	if tags[2].Loop != 1 || tags[2].Iter != 0 {
		t.Fatalf("outer body: %+v", tags[2])
	}
	if tags[9].Loop != 1 || tags[9].Iter != 1 {
		t.Fatalf("outer iter 1: %+v", tags[9])
	}
	// PC 3/4 belong to the inner loop, iterations accumulate globally.
	if tags[3].Loop != 3 || tags[3].Iter != 0 {
		t.Fatalf("inner first: %+v", tags[3])
	}
	if tags[5].Loop != 3 || tags[5].Iter != 1 {
		t.Fatalf("inner second: %+v", tags[5])
	}
	if tags[11].Loop != 3 || tags[11].Iter != 2 {
		t.Fatalf("inner re-entry: %+v", tags[11])
	}
}

func TestAnnotateLoopsNoLoops(t *testing.T) {
	tags := AnnotateLoops(seq(0, 1, 2, 3))
	for i, tag := range tags {
		if tag.InLoop() {
			t.Fatalf("entry %d tagged in loop", i)
		}
	}
	if got := AnnotateLoops(nil); len(got) != 0 {
		t.Fatal("empty trace should annotate empty")
	}
}

func TestSummarizeLoops(t *testing.T) {
	pcs := seq(0, 1, 2, 1, 2, 1, 2, 3)
	s := SummarizeLoops(pcs)
	if s.Loops != 1 {
		t.Fatalf("Loops = %d", s.Loops)
	}
	if s.TotalIters != 3 || s.MaxIters != 3 {
		t.Fatalf("iters = %d/%d, want 3/3", s.TotalIters, s.MaxIters)
	}
	if s.InLoopInstrs != 6 {
		t.Fatalf("InLoopInstrs = %d, want 6", s.InLoopInstrs)
	}
	if got := s.PctInLoop(); got != 75 {
		t.Fatalf("PctInLoop = %v, want 75", got)
	}
	if (LoopSummary{}).PctInLoop() != 0 {
		t.Fatal("empty summary pct should be 0")
	}
}

func TestSelfLoop(t *testing.T) {
	// A single-instruction loop: pc 1 repeats.
	tags := AnnotateLoops(seq(0, 1, 1, 1, 2))
	if tags[1].Loop != 1 || tags[1].Iter != 0 {
		t.Fatalf("self loop first: %+v", tags[1])
	}
	if tags[3].Iter != 2 {
		t.Fatalf("self loop iter: %+v", tags[3])
	}
}
