// Package trace turns a fault-free profiling run into the per-thread
// features the paper's pruning methodology consumes: dynamic instruction
// counts (iCnt), fault-site counts per Eq. 1, static-PC signatures (used to
// validate that equal-iCnt threads really execute the same instructions),
// and loop structure (which dynamic instructions belong to which iteration
// of which loop).
package trace

import (
	"fmt"
	"slices"

	"repro/internal/gpusim"
	"repro/internal/isa"
)

// ThreadProfile is the profile of one thread.
type ThreadProfile struct {
	// ICnt is the dynamic instruction count, the paper's thread classifier.
	ICnt int64
	// SiteBits is this thread's contribution to Eq. 1: the sum of
	// destination-register widths over its dynamic instructions.
	SiteBits int64
	// Sig is a hash of the static-PC sequence. Two threads with equal Sig
	// executed instruction-identical paths.
	Sig uint64
	// PCs is the dynamic instruction sequence (entries as produced by
	// gpusim.ProfileTrace: PC plus destination-write flag).
	PCs []uint16
}

// Profile is the fault-free profile of one kernel launch.
type Profile struct {
	// Prog is the profiled kernel.
	Prog *isa.Program
	// Threads holds one profile per flat thread id.
	Threads []ThreadProfile
	// ThreadsPerCTA partitions flat thread ids into CTAs.
	ThreadsPerCTA int
}

// Build runs the dynamic trace through the program and derives all
// features. Threads whose traces are equal share one exact-length copy —
// code-identical threads, the paper's thread groups, are the common case —
// so the profile retains each distinct trace once; pt is left untouched.
func Build(prog *isa.Program, pt *gpusim.ProfileTrace, threadsPerCTA int) (*Profile, error) {
	if threadsPerCTA <= 0 {
		return nil, fmt.Errorf("trace: bad threadsPerCTA %d", threadsPerCTA)
	}
	if len(pt.PCs)%threadsPerCTA != 0 {
		return nil, fmt.Errorf("trace: %d threads not divisible into CTAs of %d",
			len(pt.PCs), threadsPerCTA)
	}
	p := &Profile{
		Prog:          prog,
		Threads:       make([]ThreadProfile, len(pt.PCs)),
		ThreadsPerCTA: threadsPerCTA,
	}
	// width[pc] is the destination width of static instruction pc, -1
	// when it has no destination register.
	width := make([]int64, len(prog.Instrs))
	for pc := range prog.Instrs {
		width[pc] = -1
		if _, bits, ok := prog.Instrs[pc].DestReg(); ok {
			width[pc] = int64(bits)
		}
	}
	// distinct maps a Sig to the threads holding the first copy of each
	// distinct trace with that Sig.
	distinct := make(map[uint64][]int)
threads:
	for t, pcs := range pt.PCs {
		tp := &p.Threads[t]
		tp.ICnt = int64(len(pcs))
		// FNV-1a over the PC's two little-endian bytes, folded inline: one
		// dynamic instruction is two multiplies, not a hash.Hash64 call.
		const offset64, prime64 = 14695981039346656037, 1099511628211
		h := uint64(offset64)
		for _, entry := range pcs {
			pc := gpusim.PC(entry)
			h = (h ^ uint64(byte(pc))) * prime64
			h = (h ^ uint64(byte(pc>>8))) * prime64
		}
		tp.Sig = h
		for _, o := range distinct[h] {
			if slices.Equal(p.Threads[o].PCs, pcs) {
				tp.PCs, tp.SiteBits = p.Threads[o].PCs, p.Threads[o].SiteBits
				continue threads
			}
		}
		for _, entry := range pcs {
			if gpusim.Wrote(entry) {
				pc := gpusim.PC(entry)
				if width[pc] < 0 {
					return nil, fmt.Errorf("trace: pc %d flagged as write but has no destination", pc)
				}
				tp.SiteBits += width[pc]
			}
		}
		tp.PCs = make([]uint16, len(pcs))
		copy(tp.PCs, pcs)
		distinct[h] = append(distinct[h], t)
	}
	return p, nil
}

// NumCTAs reports the number of CTAs in the profiled launch.
func (p *Profile) NumCTAs() int { return len(p.Threads) / p.ThreadsPerCTA }

// CTAThreads returns the flat thread id range [lo, hi) of a CTA.
func (p *Profile) CTAThreads(cta int) (lo, hi int) {
	return cta * p.ThreadsPerCTA, (cta + 1) * p.ThreadsPerCTA
}

// CTAOf maps a flat thread id to its CTA index.
func (p *Profile) CTAOf(thread int) int { return thread / p.ThreadsPerCTA }

// CTAAvgICnt is the average thread iCnt of one CTA, the paper's CTA-level
// grouping feature (Fig. 3, Tables III/IV "Avg. iCnt").
func (p *Profile) CTAAvgICnt(cta int) float64 {
	lo, hi := p.CTAThreads(cta)
	var sum int64
	for t := lo; t < hi; t++ {
		sum += p.Threads[t].ICnt
	}
	return float64(sum) / float64(hi-lo)
}

// CTAICnts returns the per-thread iCnts of one CTA.
func (p *Profile) CTAICnts(cta int) []int64 {
	lo, hi := p.CTAThreads(cta)
	out := make([]int64, 0, hi-lo)
	for t := lo; t < hi; t++ {
		out = append(out, p.Threads[t].ICnt)
	}
	return out
}

// TotalSites evaluates Eq. 1 of the paper: the exhaustive fault-site count,
// summing every destination-register bit of every dynamic instruction of
// every thread.
func (p *Profile) TotalSites() int64 {
	var sum int64
	for i := range p.Threads {
		sum += p.Threads[i].SiteBits
	}
	return sum
}

// TotalDyn is the total dynamic instruction count across all threads.
func (p *Profile) TotalDyn() int64 {
	var sum int64
	for i := range p.Threads {
		sum += p.Threads[i].ICnt
	}
	return sum
}

// SiteBitsOf returns the fault-site bit width of thread t's dynamic
// instruction i, or 0 when that instruction wrote no destination register.
func (p *Profile) SiteBitsOf(t int, i int64) int {
	entry := p.Threads[t].PCs[i]
	if !gpusim.Wrote(entry) {
		return 0
	}
	_, bits, _ := p.Prog.Instrs[gpusim.PC(entry)].DestReg()
	return bits
}
