package fault

import (
	"repro/internal/gpusim"
	"repro/internal/isa"
)

// decide returns the outcome of a persistent-model site that the golden
// trace already proves, so the campaign engine need not run it; ok is false
// when the site must run. It reads thread t's golden instruction sequence
// from the site's DynInst to the thread's end, and the program, and nothing
// else. Until its fault activates, a run is the golden run; each rule proves
// that the activated fault changes nothing, or freezes the CTA for good
// (DESIGN.md §3.1, decided sites):
//
//   - stuck-pred on flag f of $p r is Masked when no instruction of t from
//     DynInst on consults f of $p r: a guard on $p r whose condition code
//     tests f (gpusim.CondFlags), or any read of $p r as a source operand.
//     The clamp touches only that flag of t's own register.
//   - stuck-active-mask at 1 is Masked when t executes no bar.sync from
//     DynInst on: the stuck lane only skips parking at barriers.
//   - stuck-active-mask at 0 is Masked at t's last instruction (the lane is
//     done before it freezes), and Hang earlier when t retires no store
//     after DynInst: every CTA-mate then runs in its golden order on golden
//     memory, so none traps, and the frozen lane never retires, so the CTA
//     ends in the deadlock trap or the watchdog.
//   - stuck-barrier is Masked when the program has no bar.sync: the stuck
//     arrival state is never consulted.
//
// Transient models have no rule: the campaign worker does not call decide
// for them.
func (t *Target) decide(site Site, model Model) (Outcome, bool) {
	prog := t.Prog.Instrs
	rest := t.prep.profile.Threads[site.Thread].PCs[site.DynInst:]
	switch model {
	case ModelStuckPred:
		// Bit decodes as gpusim's newPersistState does: the high half is
		// stuck at 1, and within a half Bit selects register and flag.
		rem := site.Bit % (model.StuckBits() / 2)
		reg, flag := uint8(rem/isa.PredBits), uint8(1)<<(rem%isa.PredBits)
		for _, e := range rest {
			if predFlagsRead(&prog[gpusim.PC(e)], reg)&flag != 0 {
				return 0, false
			}
		}
		return Masked, true
	case ModelStuckActiveMask:
		if site.Bit&1 == 1 {
			for _, e := range rest {
				if prog[gpusim.PC(e)].Op == isa.OpBar {
					return 0, false
				}
			}
			return Masked, true
		}
		if len(rest) == 1 {
			return Masked, true
		}
		for _, e := range rest[1:] {
			if prog[gpusim.PC(e)].Dst.Kind == isa.OpdMem {
				return 0, false
			}
		}
		return Hang, true
	case ModelStuckBarrier:
		for i := range prog {
			if prog[i].Op == isa.OpBar {
				return 0, false
			}
		}
		return Masked, true
	}
	return 0, false
}

// predFlagsRead returns the flags of predicate register $p reg that in
// consults: those its guard's condition code tests, or all of them when it
// reads $p reg as an operand (a source, or a memory base).
func predFlagsRead(in *isa.Instruction, reg uint8) uint8 {
	reads := func(o isa.Operand) bool {
		return (o.Kind == isa.OpdReg || o.Kind == isa.OpdMem && o.BaseValid) &&
			o.Reg.Class == isa.RegPred && o.Reg.Index == reg
	}
	if in.Dst.Kind == isa.OpdMem && reads(in.Dst) {
		return 1<<isa.PredBits - 1
	}
	for _, s := range in.Srcs {
		if reads(s) {
			return 1<<isa.PredBits - 1
		}
	}
	if g := in.Guard; g.Active() && g.Reg.Class == isa.RegPred && g.Reg.Index == reg {
		return gpusim.CondFlags(g.Cond)
	}
	return 0
}
