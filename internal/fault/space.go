package fault

import (
	"fmt"
	"sort"

	"repro/internal/gpusim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Space is the exhaustive fault-site space of a profiled kernel (Eq. 1 of
// the paper): every destination-register bit of every dynamic instruction of
// every thread. Sites are indexable by a flat id in [0, Total()), which makes
// uniform random sampling over billions of sites cheap without materializing
// them.
type Space struct {
	prof *trace.Profile
	// cum[t] is the number of fault-site bits in threads [0, t); cum has
	// len(threads)+1 entries so cum[len] == Total().
	cum []int64
	// pcBits[pc] is the destination width in bits of static instruction pc
	// (0 without a destination) and pcMem[pc] whether it computes an
	// effective address: decoded once, so a draw that walks a thread's
	// trace costs a table lookup per dynamic instruction.
	pcBits []uint8
	pcMem  []bool
}

// NewSpace indexes the fault-site space of a profile.
func NewSpace(prof *trace.Profile) *Space {
	cum := make([]int64, len(prof.Threads)+1)
	for t := range prof.Threads {
		cum[t+1] = cum[t] + prof.Threads[t].SiteBits
	}
	instrs := prof.Prog.Instrs
	s := &Space{
		prof: prof, cum: cum,
		pcBits: make([]uint8, len(instrs)), pcMem: make([]bool, len(instrs)),
	}
	for pc := range instrs {
		if _, bits, ok := instrs[pc].DestReg(); ok {
			s.pcBits[pc] = uint8(bits)
		}
		s.pcMem[pc] = touchesMemory(&instrs[pc])
	}
	return s
}

// Total is the exhaustive fault-site count (Eq. 1, Table I rightmost column).
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
	tp := &s.prof.Threads[t]
	for i, entry := range tp.PCs[:tp.ICnt] {
		if !gpusim.Wrote(entry) {
			continue
		}
		bits := int64(s.pcBits[gpusim.PC(entry)])
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
	sites := make([]Site, 0, tp.SiteBits)
	for i := int64(0); i < tp.ICnt; i++ {
		bits := s.prof.SiteBitsOf(t, i)
		if bits == 0 || (keep != nil && !keep(i)) {
			continue
		}
		for b := 0; b < bits; b++ {
			sites = append(sites, Site{Thread: t, DynInst: i, Bit: b})
		}
	}
	return sites
}

// Random draws n sites uniformly at random (with replacement; for spaces
// orders of magnitude larger than n, as in the paper's 60K baseline over
// 1e5-1e9 sites, duplicates are statistically negligible).
func (s *Space) Random(rng *stats.RNG, n int) []Site {
	total := s.Total()
	sites := make([]Site, n)
	for i := range sites {
		sites[i] = s.Site(rng.Int63n(total))
	}
	return sites
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
		for i := int64(0); i < tp.ICnt; i++ {
			if gpusim.PC(tp.PCs[i]) != pc {
				continue
			}
			bits := s.prof.SiteBitsOf(t, i)
			for b := 0; b < bits; b++ {
				sites = append(sites, Site{Thread: t, DynInst: i, Bit: b})
			}
		}
	}
	return sites
}

// Profile exposes the underlying fault-free profile.
func (s *Space) Profile() *trace.Profile { return s.prof }
