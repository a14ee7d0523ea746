package fault

import (
	"slices"

	"repro/internal/gpusim"
	"repro/internal/isa"
)

// This file holds every outcome the golden trace proves without a run: the
// persistent-model sites the engine decides (decide) and the dest-value
// sites the plan credits (UnreadPredFlags, DeadWrite), each a scan over one
// read rule, flagsRead.

// decide returns the outcome of a persistent-model site that the golden
// trace already proves, so the campaign engine need not run it; ok is false
// when the site must run. It reads thread t's golden instruction sequence
// from the site's DynInst to the thread's end, and the program, and nothing
// else. Until its fault activates, a run is the golden run; each rule proves
// that the activated fault changes nothing, or freezes the CTA for good
// (DESIGN.md §3.1, decided sites):
//
//   - stuck-pred on flag f of $p r is Masked when no instruction of t from
//     DynInst on consults f of $p r (flagsRead). The clamp touches only
//     that flag of t's own register.
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
		_, reg, flag := gpusim.DecodeStuckPred(site.Bit)
		r := isa.Reg{Class: isa.RegPred, Index: uint8(reg)}
		for _, e := range rest {
			if flagsRead(&prog[gpusim.PC(e)], r)&flag != 0 {
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

// allFlags is every flag of a predicate register: what an operand read of
// a register consults.
const allFlags = 1<<isa.PredBits - 1

// flagsRead returns the flags of register r that in consults: all of them
// when it reads r as an operand (a source, or a memory base), else the
// ones its guard's condition code tests when it guards on r
// (gpusim.CondFlags). It is the read rule every outcome in this file is
// proved with.
func flagsRead(in *isa.Instruction, r isa.Reg) uint8 {
	reads := func(o isa.Operand) bool {
		return (o.Kind == isa.OpdReg || o.Kind == isa.OpdMem && o.BaseValid) && o.Reg == r
	}
	if in.Dst.Kind == isa.OpdMem && reads(in.Dst) || slices.ContainsFunc(in.Srcs, reads) {
		return allFlags
	}
	if in.Guard.Reg == r {
		return gpusim.CondFlags(in.Guard.Cond)
	}
	return 0
}

// UnreadPredFlags returns, for each predicate register $p r, the flags no
// instruction of prog consults: a fault confined to them never changes a
// run.
func UnreadPredFlags(prog *isa.Program) (unread [isa.NumPreds]uint8) {
	for r := range unread {
		read := uint8(0)
		for i := range prog.Instrs {
			read |= flagsRead(&prog.Instrs[i], isa.Reg{Class: isa.RegPred, Index: uint8(r)})
		}
		unread[r] = allFlags &^ read
	}
	return unread
}

// DeadWrite reports whether dynamic instruction i of a thread whose golden
// instruction sequence is pcs writes a dead DestReg: one that a later
// retired write of the thread (the value half of a dual destination
// included) overwrites, or the thread's end discards, before any
// instruction reads it. A guard on the register reads it whatever its
// condition code. Registers are thread-private, so a fault in a dead
// destination cannot change the run (Relyzer/MeRLiN-style equivalence).
func DeadWrite(prog *isa.Program, pcs []uint16, i int64) bool {
	r, _, ok := prog.Instrs[gpusim.PC(pcs[i])].DestReg()
	if !ok || !gpusim.Wrote(pcs[i]) {
		return false
	}
	for _, e := range pcs[i+1:] {
		in := &prog.Instrs[gpusim.PC(e)]
		if flagsRead(in, r) != 0 || in.Guard.Reg == r {
			return false
		}
		if gpusim.Wrote(e) && (in.DstPred == r || in.Dst.Kind == isa.OpdReg && in.Dst.Reg == r) {
			return true
		}
	}
	return true
}
