package gpusim

import "repro/internal/isa"

// Persistent (stuck-at) fault machinery. A persistent injection activates at
// the retirement of dynamic instruction DynInst of the injected thread —
// the same instant a transient fault would fire — and then holds its stuck
// value for the remainder of the run. The fault state is bound to the
// injected thread: predicate clamps only touch that thread's registers, a
// frozen or barrier-stuck lane stops mattering once the thread retires, so
// the fault's reach ends with the injected thread's CTA. The test-side
// reference interpreter shares every function in this file with the
// engine, so the plan-vs-reference differentials cannot see a bug here; the
// persistent-fault semantics themselves are pinned by TestInjectionKinds and
// the fault-level stuck-at differentials (DESIGN.md §3.9).

// persistState is the live state of an armed persistent fault, decoded once
// from the Injection at launch.
type persistState struct {
	kind    InjectKind
	thread  int   // flat id of the faulty thread
	dynInst int64 // activation point: live once thread.dynCount > dynInst
	active  bool

	stuck1 bool // the stuck value (false = stuck at 0)
	// InjectStuckPred only: the clamped register and flag bit.
	predReg  int
	predMask uint8
}

// stuckPredSpan is the per-value encoding width of InjectStuckPred's Bit
// field: one code point per (predicate register, flag bit) pair.
const stuckPredSpan = isa.NumPreds * isa.PredBits

// newPersistState decodes the injection's persistent-fault parameters; nil
// for transient (or absent) injections. The Bit field packs the fault
// location and stuck value:
//
//   - InjectStuckPred: Bit in [0, 2*NumPreds*PredBits) selects stuck value
//     (high half = stuck at 1), predicate register, and flag bit. Values are
//     reduced modulo the space so arbitrary fuzzed bits stay well-defined.
//   - InjectStuckActiveMask, InjectStuckBarrier: Bit&1 is the stuck value.
func newPersistState(inj *Injection) *persistState {
	if inj == nil || !inj.Kind.Persistent() {
		return nil
	}
	p := &persistState{kind: inj.Kind, thread: inj.Thread, dynInst: inj.DynInst}
	switch inj.Kind {
	case InjectStuckPred:
		b := inj.Bit % (2 * stuckPredSpan)
		if b < 0 {
			b += 2 * stuckPredSpan
		}
		p.stuck1 = b >= stuckPredSpan
		rem := b % stuckPredSpan
		p.predReg = rem / isa.PredBits
		p.predMask = 1 << uint(rem%isa.PredBits)
	default:
		p.stuck1 = inj.Bit&1 == 1
	}
	return p
}

// persistAfterStep enforces an armed persistent fault after one retired
// dynamic instruction of th, activating it when the step just crossed the
// activation point. It runs at the end of stepCompiled — only the
// injected thread's own steps write its predicate and barrier state, so a
// post-step clamp is in force before every later read. A stuck-at-1 active
// mask keeps the lane active through bar.sync, so a park the step just made
// is undone.
func (e *exec) persistAfterStep(th *threadState) {
	p := e.persist
	if th.flat != p.thread {
		return
	}
	if !p.active {
		if th.dynCount <= p.dynInst {
			return
		}
		p.active = true
	}
	switch p.kind {
	case InjectStuckPred:
		if p.stuck1 {
			th.preds[p.predReg] |= p.predMask
		} else {
			th.preds[p.predReg] &^= p.predMask
		}
	case InjectStuckActiveMask:
		if p.stuck1 {
			// The lane's active bit never clears: it blows through the
			// barrier instead of parking at it.
			th.waiting = false
		}
	}
}

// laneFrozen reports whether th is the faulty lane of an activated
// stuck-at-0 active-mask fault: the lane is never scheduled again. The
// scheduler's election consults this alongside done/waiting.
func (e *exec) laneFrozen(th *threadState) bool {
	p := e.persist
	return p != nil && p.active && p.kind == InjectStuckActiveMask &&
		!p.stuck1 && th.flat == p.thread
}

// resolveBarrier releases the waiters once every non-exited thread has
// arrived at the same barrier id, and detects completion and deadlock.
// progress reports whether the last scheduling round executed anything.
//
// Persistent faults bend the arrival rules: a thread whose barrier-arrival
// state is stuck at 1 counts as arrived while still running, one stuck at 0
// parks without its arrival ever registering (the barrier deadlocks), and a
// frozen lane (active mask stuck at 0) can never arrive at all.
func (e *exec) resolveBarrier(cta *ctaState, progress bool) (barrierStatus, *Trap) {
	p := e.persist
	if p != nil && !p.active {
		p = nil // not yet activated: fault-free barrier semantics
	}
	alive, waitingCnt := 0, 0
	ghosts := 0 // alive, running threads that count as arrived (stuck at 1)
	var stuck0, frozen *threadState
	var barID uint32
	uniform := true
	for _, th := range cta.threads {
		if th.done {
			continue
		}
		alive++
		if p != nil && th.flat == p.thread {
			switch p.kind {
			case InjectStuckBarrier:
				if p.stuck1 && !th.waiting {
					ghosts++
				} else if !p.stuck1 && th.waiting {
					stuck0 = th
				}
			case InjectStuckActiveMask:
				if !p.stuck1 {
					frozen = th
				}
			}
		}
		if th.waiting {
			if waitingCnt == 0 {
				barID = th.barID
			} else if th.barID != barID {
				uniform = false
			}
			waitingCnt++
		}
	}
	if alive == 0 {
		return ctaFinished, nil
	}
	if stuck0 != nil && waitingCnt == alive {
		// Every thread parked, but the faulty thread's arrival never
		// registers: the barrier can never be satisfied.
		return ctaRunning, &Trap{Kind: TrapDeadlock, Thread: stuck0.flat, PC: stuck0.pc,
			Msg: "barrier arrival state stuck at 0"}
	}
	if waitingCnt > 0 && waitingCnt+ghosts == alive && stuck0 == nil {
		if !uniform {
			return ctaRunning, &Trap{Kind: TrapDeadlock, Thread: -1, PC: -1,
				Msg: "threads waiting on different barrier ids"}
		}
		for _, th := range cta.threads {
			th.waiting = false
		}
		return ctaReleased, nil
	}
	if !progress {
		if frozen != nil {
			// The frozen lane can never retire (or arrive); once nothing
			// else is runnable the CTA is wedged for good.
			return ctaRunning, &Trap{Kind: TrapDeadlock, Thread: frozen.flat, PC: frozen.pc,
				Msg: "warp active-mask lane stuck at 0"}
		}
		if waitingCnt > 0 {
			// Cannot happen fault-free — exited threads reduce alive and
			// runnable threads always progress — but guard scheduler bugs.
			return ctaRunning, &Trap{Kind: TrapDeadlock, Thread: -1, PC: -1,
				Msg: "no runnable threads but barrier unsatisfied"}
		}
		return ctaFinished, nil
	}
	return ctaRunning, nil
}
