package fault

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/gpusim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Space is the exhaustive fault-site space of a profiled kernel under one
// fault model: every (dynamic instruction, bit) pair the model's site rule
// (gpusim.InjectKind.Sites) admits, over every thread. NewSpace indexes the
// paper's space (Eq. 1), every destination-register bit of every dynamic
// instruction, which all destination-register models share; ForModel
// indexes any other model's.
// Sites are indexable by a flat id in [0, Total()) — thread by thread, then
// dynamic instruction, then bit — which makes uniform random sampling over
// billions of sites cheap without materializing them.
type Space struct {
	prof  *trace.Profile
	model Model
	// width is model.Sites per static instruction, decoded once, so
	// walking a thread's trace costs a table lookup per dynamic instruction.
	width widths
	// constW, when non-zero, is the site count of every dynamic instruction
	// (the persistent models' spaces): thread t holds ICnt×constW sites and
	// Site decodes arithmetically instead of walking the trace.
	constW int64
	// cum[t] is the number of sites in threads [0, t); cum has
	// len(threads)+1 entries so cum[len] == Total().
	cum []int64
}

// NewSpace indexes the destination-register fault-site space of a profile.
func NewSpace(prof *trace.Profile) *Space { return newSpace(prof, ModelDestValue) }

// ForModel returns the fault-site space of model m over the same profile:
// s itself when both are destination-register spaces, which every such
// model shares, else a fresh index.
func (s *Space) ForModel(m Model) *Space {
	if m.Destination() && s.model.Destination() {
		return s
	}
	return newSpace(s.prof, m)
}

func newSpace(prof *trace.Profile, m Model) *Space {
	instrs := prof.Prog.Instrs
	w := make(widths, 2*len(instrs))
	for pc := range instrs {
		w[2*pc] = uint8(m.Sites(&instrs[pc], false))
		w[2*pc+1] = uint8(m.Sites(&instrs[pc], true))
	}
	s := &Space{prof: prof, model: m, width: w}
	if slices.Min(w) == slices.Max(w) {
		s.constW = int64(w[0])
	}
	s.cum = make([]int64, len(prof.Threads)+1)
	for t := range prof.Threads {
		tp := &prof.Threads[t]
		n := tp.ICnt * s.constW
		switch {
		case m.Destination():
			n = tp.SiteBits
		case s.constW == 0:
			for _, entry := range tp.PCs[:tp.ICnt] {
				n += w.of(entry)
			}
		}
		s.cum[t+1] = s.cum[t] + n
	}
	return s
}

// widths holds, at 2*pc+wrote, the site count of a dynamic instance of
// static instruction pc that did (wrote=1) or did not write its
// destination.
type widths []uint8

// of is the site count of one dynamic instruction, given its trace entry:
// the PC with gpusim.WroteBit as the top bit, which one rotation moves to
// the bottom.
func (w widths) of(entry uint16) int64 {
	return int64(w[bits.RotateLeft16(entry, 1)])
}

// Total is the exhaustive fault-site count (for the destination space,
// Eq. 1 and Table I's rightmost column).
func (s *Space) Total() int64 { return s.cum[len(s.cum)-1] }

// Site decodes a flat index into a concrete (thread, dynamic instruction,
// bit) site.
func (s *Space) Site(idx int64) Site {
	if idx < 0 || idx >= s.Total() {
		panic(fmt.Sprintf("fault: site index %d out of [0, %d)", idx, s.Total()))
	}
	// Binary search the owning thread, then walk its trace.
	t := sort.Search(len(s.cum)-1, func(i int) bool { return s.cum[i+1] > idx })
	rem := idx - s.cum[t]
	if s.constW > 0 {
		return Site{Thread: t, DynInst: rem / s.constW, Bit: int(rem % s.constW)}
	}
	tp, w := &s.prof.Threads[t], s.width
	for i, entry := range tp.PCs[:tp.ICnt] {
		bits := w.of(entry)
		if rem < bits {
			return Site{Thread: t, DynInst: int64(i), Bit: int(rem)}
		}
		rem -= bits
	}
	panic("fault: cumulative site counts inconsistent with trace")
}

// ThreadSites enumerates every fault site of one thread, optionally keeping
// only sites whose dynamic instruction satisfies keep (nil keeps all).
func (s *Space) ThreadSites(t int, keep func(dyn int64) bool) []Site {
	tp := &s.prof.Threads[t]
	sites := make([]Site, 0, s.cum[t+1]-s.cum[t])
	for i, entry := range tp.PCs[:tp.ICnt] {
		if keep != nil && !keep(int64(i)) {
			continue
		}
		sites = appendSites(sites, t, int64(i), s.width.of(entry))
	}
	return sites
}

// appendSites appends the bits [0, n) of one dynamic instruction.
func appendSites(sites []Site, t int, dyn, n int64) []Site {
	for b := 0; b < int(n); b++ {
		sites = append(sites, Site{Thread: t, DynInst: dyn, Bit: b})
	}
	return sites
}

// Random draws n sites uniformly at random (with replacement; for spaces
// orders of magnitude larger than n, as in the paper's 60K baseline over
// 1e5-1e9 sites, duplicates are statistically negligible).
func (s *Space) Random(rng *stats.RNG, n int) []Site {
	total := s.Total()
	if total == 0 && n > 0 {
		panic(fmt.Sprintf("fault: drawing from an empty %s site space", s.model))
	}
	sites := make([]Site, n)
	for i := range sites {
		sites[i] = s.Site(rng.Int63n(total))
	}
	return sites
}

// RandomModel draws n sites uniformly at random from model's own site
// space: s.ForModel(model).Random.
func (s *Space) RandomModel(rng *stats.RNG, n int, model Model) []Site {
	return s.ForModel(model).Random(rng, n)
}

// InstructionSites enumerates sites at one static instruction (identified by
// PC) across a set of threads — the paper's CTA-level study injects
// exhaustively into selected target instructions (Section III-B1). For
// threads that execute the instruction several times (loops), every dynamic
// occurrence contributes sites.
func (s *Space) InstructionSites(pc int, threads []int) []Site {
	var sites []Site
	for _, t := range threads {
		tp := &s.prof.Threads[t]
		for i, entry := range tp.PCs[:tp.ICnt] {
			if gpusim.PC(entry) == pc {
				sites = appendSites(sites, t, int64(i), s.width.of(entry))
			}
		}
	}
	return sites
}

// Profile exposes the underlying fault-free profile.
func (s *Space) Profile() *trace.Profile { return s.prof }
