package core

import (
	"repro/internal/gpusim"
	"repro/internal/trace"
)

// selection is the pruning pipeline's intermediate representation: for each
// representative thread, a per-dynamic-instruction weight. Weight w on
// instruction i of thread t means "inject into t's instruction i and let each
// outcome stand for w corresponding sites in the original population";
// weight 0 means pruned.
type selection struct {
	thread int
	weight []float64
}

// newSelection selects every dynamic instruction of a representative thread
// with its group population as weight (the state after stage 1).
func newSelection(rep int, icnt int64, population int64) *selection {
	s := &selection{thread: rep, weight: make([]float64, icnt)}
	for i := range s.weight {
		s.weight[i] = float64(population)
	}
	return s
}

// CommonBlock describes the instruction commonality found between one
// representative thread and the base thread (paper Fig. 5: the two
// PathFinder threads share everything except a 17-instruction middle block).
type CommonBlock struct {
	// Thread is the pruned representative.
	Thread int
	// Base is the thread whose sites absorb the pruned weight.
	Base int
	// Prefix and Suffix are the lengths (in dynamic instructions) of the
	// common leading and trailing blocks.
	Prefix, Suffix int64
	// ICnt is the pruned thread's total dynamic instruction count.
	ICnt int64
}

// PctCommon is the fraction of the thread's instructions that were pruned
// as common with the base (Table V "% Common Insn.").
func (c CommonBlock) PctCommon() float64 {
	if c.ICnt == 0 {
		return 0
	}
	return 100 * float64(c.Prefix+c.Suffix) / float64(c.ICnt)
}

// InstPruneResult summarizes stage 2.
type InstPruneResult struct {
	// Base is the base representative (largest iCnt).
	Base int
	// Blocks holds one entry per other representative, in input order.
	Blocks []CommonBlock
	// PrunedInsts counts pruned dynamic instructions across representatives.
	PrunedInsts int64
	// TotalInsts counts dynamic instructions across all representatives
	// before pruning.
	TotalInsts int64
}

// PctPruned is the fraction of representative instructions removed by
// instruction-wise pruning (Table VI "% Pruned Common Insn.").
func (r InstPruneResult) PctPruned() float64 {
	if r.TotalInsts == 0 {
		return 0
	}
	return 100 * float64(r.PrunedInsts) / float64(r.TotalInsts)
}

// minCommonInsts is the smallest common block worth pruning: transferring a
// couple of instructions between threads with almost no shared code buys
// nothing and muddies the weight accounting.
const minCommonInsts = 4

// minPrunableICnt gates instruction-wise pruning per representative.
// The paper explicitly skips this stage for kernels like Gaussian K1/K2 and
// K-Means K1 where one representative runs "very few instructions (less
// than 10)" while another runs hundreds: such threads play disparate roles
// (early-exit vs. full worker), and although their prefixes align
// textually, the same fault has opposite consequences — a corrupted thread
// id makes a worker *skip* its output (SDC) while it leaves an idle thread
// idle (masked). Representatives shorter than this threshold keep their own
// fault sites instead of transferring them to the base.
const minPrunableICnt = 16

// pruneCommonInstructions implements stage 2 (paper Section III-C): the
// static-PC traces of all representative threads are aligned against the
// base representative (the one with the largest iCnt); common leading and
// trailing blocks — the SIMT lockstep portions — are injected only in the
// base, which absorbs the pruned threads' population weights
// site-by-aligned-site.
func pruneCommonInstructions(prof *trace.Profile, sels []*selection) InstPruneResult {
	var res InstPruneResult
	if len(sels) < 2 {
		for _, s := range sels {
			res.TotalInsts += int64(len(s.weight))
		}
		return res
	}
	// Base: largest iCnt, ties to lowest thread id.
	base := sels[0]
	for _, s := range sels[1:] {
		if len(s.weight) > len(base.weight) ||
			(len(s.weight) == len(base.weight) && s.thread < base.thread) {
			base = s
		}
	}
	res.Base = base.thread
	basePCs := prof.Threads[base.thread].PCs

	for _, s := range sels {
		res.TotalInsts += int64(len(s.weight))
		if s == base {
			continue
		}
		pcs := prof.Threads[s.thread].PCs
		prefix := commonPrefix(pcs, basePCs)
		suffix := commonSuffix(pcs, basePCs)
		// Blocks may not overlap within the shorter thread.
		if prefix+suffix > len(pcs) {
			suffix = len(pcs) - prefix
		}
		if prefix+suffix > len(basePCs) {
			suffix = len(basePCs) - prefix
		}
		if prefix+suffix < minCommonInsts || len(pcs) < minPrunableICnt {
			res.Blocks = append(res.Blocks, CommonBlock{
				Thread: s.thread, Base: base.thread, ICnt: int64(len(pcs))})
			continue
		}
		for i := 0; i < prefix; i++ {
			base.weight[i] += s.weight[i]
			s.weight[i] = 0
		}
		for k := 0; k < suffix; k++ {
			bi := len(basePCs) - suffix + k
			si := len(pcs) - suffix + k
			base.weight[bi] += s.weight[si]
			s.weight[si] = 0
		}
		res.Blocks = append(res.Blocks, CommonBlock{
			Thread: s.thread, Base: base.thread,
			Prefix: int64(prefix), Suffix: int64(suffix), ICnt: int64(len(pcs)),
		})
		res.PrunedInsts += int64(prefix + suffix)
	}
	return res
}

// commonPrefix counts leading dynamic instructions with identical static PCs.
func commonPrefix(a, b []uint16) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if gpusim.PC(a[i]) != gpusim.PC(b[i]) {
			return i
		}
	}
	return n
}

// commonSuffix counts trailing dynamic instructions with identical static PCs.
func commonSuffix(a, b []uint16) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if gpusim.PC(a[len(a)-1-i]) != gpusim.PC(b[len(b)-1-i]) {
			return i
		}
	}
	return n
}
