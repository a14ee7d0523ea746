package core

import (
	"repro/internal/fault"
	"repro/internal/trace"
)

// DeadPruneResult summarizes the optional dead-destination stage.
type DeadPruneResult struct {
	// Insts counts selected dynamic instructions pruned as dead writes.
	Insts int64
	// Weight is the weighted site mass credited to the masked class.
	Weight float64
}

// pruneDeadWrites implements the extension stage beyond the paper's four:
// selected instructions whose destination register is overwritten before any
// read (fault.DeadWrite) cannot produce anything but masked outcomes, so
// their sites are removed from the injection plan and their weighted mass is
// credited to the masked class analytically — the same mechanism as the
// paper's .pred flag rule, generalized via liveness.
func pruneDeadWrites(prof *trace.Profile, sels []*selection) (DeadPruneResult, float64) {
	var res DeadPruneResult
	for _, s := range sels {
		tp := &prof.Threads[s.thread]
		for i := int64(0); i < tp.ICnt; i++ {
			if s.weight[i] == 0 {
				continue
			}
			bits := prof.SiteBitsOf(s.thread, i)
			if bits == 0 || !fault.DeadWrite(prof.Prog, tp.PCs, i) {
				continue
			}
			res.Weight += s.weight[i] * float64(bits)
			s.weight[i] = 0
			res.Insts++
		}
	}
	return res, res.Weight
}
