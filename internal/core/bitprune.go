package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/trace"
)

// BitPositionsChecked returns the sampled bit positions for a register width
// under the paper's scheme (Section III-E): the register is divided into
// equal sections and one equally spaced position is taken per slot, e.g. 8
// samples of a 32-bit register select {3, 7, 11, 15, 19, 23, 27, 31}.
// samples <= 0 or >= width keeps every position. A sample count that does
// not divide the width has no equal-section interpretation and is rejected.
func BitPositionsChecked(width, samples int) ([]int, error) {
	if samples <= 0 || samples >= width {
		out := make([]int, width)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	if width%samples != 0 {
		return nil, fmt.Errorf("core: %d bit samples do not divide width %d (valid: divisors of %d, or 0 for all)",
			samples, width, width)
	}
	step := width / samples
	out := make([]int, samples)
	for j := range out {
		out[j] = (j+1)*step - 1
	}
	return out, nil
}

// BitPositions is BitPositionsChecked for callers that have already
// validated the sample count; it panics on a non-divisor. User-facing paths
// (BuildPlan) use the checked form and surface a plain error instead.
func BitPositions(width, samples int) []int {
	out, err := BitPositionsChecked(width, samples)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// BitPruneResult summarizes stage 4.
type BitPruneResult struct {
	// Samples is the configured per-32-bit-register sample count (0 = all).
	Samples int
	// PredPruned counts predicate flag bits pruned analytically: flags
	// no instruction of the program consults.
	PredPruned int64
	// GPRPruned counts 32-bit register bits pruned by sampling.
	GPRPruned int64
}

// expandBits implements stage 4 (paper Section III-E) and materializes the
// final weighted fault sites.
//
// For 32-bit destinations, bitSamples equally spaced positions stand for the
// whole register, each carrying width/samples of the weight. For 4-bit
// predicate destinations the zero flag is always injected. The sign, carry
// and overflow flags of $p r are injected only where the program consults
// them (fault.UnreadPredFlags): a flag no instruction reads can never
// change the run, so its sites are pruned as known-masked and their weight
// is returned in knownMasked for the estimator to credit to the masked
// class directly.
// In the 17 kernels every guard tests $p0's zero flag, so every other flag
// is credited, as the paper does. keepPred disables that rule (the ablation
// quantifying what it saves): every predicate flag bit then becomes an
// injection site.
func expandBits(prog *isa.Program, prof *trace.Profile, sels []*selection, bitSamples int, keepPred bool) (sites []fault.WeightedSite, knownMasked float64, res BitPruneResult, err error) {
	res.Samples = bitSamples
	unread := fault.UnreadPredFlags(prog)
	for _, s := range sels {
		tp := &prof.Threads[s.thread]
		for i := int64(0); i < tp.ICnt; i++ {
			w := s.weight[i]
			if w == 0 {
				continue
			}
			bits := prof.SiteBitsOf(s.thread, i)
			if bits == 0 {
				continue
			}
			if bits == isa.PredBits {
				var credit uint8
				if !keepPred {
					r, _, _ := prog.Instrs[gpusim.PC(tp.PCs[i])].DestReg()
					credit = unread[r.Index] &^ isa.FlagZero
				}
				var credited int
				for b := 0; b < bits; b++ {
					if credit&(1<<b) != 0 {
						credited++
						continue
					}
					sites = append(sites, fault.WeightedSite{
						Site:   fault.Site{Thread: s.thread, DynInst: i, Bit: b},
						Weight: w,
					})
				}
				knownMasked += w * float64(credited)
				res.PredPruned += int64(credited)
				continue
			}
			pos, perr := BitPositionsChecked(bits, bitSamples)
			if perr != nil {
				return nil, 0, res, perr
			}
			perBit := w * float64(bits) / float64(len(pos))
			for _, b := range pos {
				sites = append(sites, fault.WeightedSite{
					Site:   fault.Site{Thread: s.thread, DynInst: i, Bit: b},
					Weight: perBit,
				})
			}
			res.GPRPruned += int64(bits - len(pos))
		}
	}
	return sites, knownMasked, res, nil
}
