package gpusim

// The dispatch loops of the compiled plan. Two tiers:
//
//   - stepCompiled is the careful path: one dynamic instruction with every
//     observable intact (tracer callback, injection arm/disarm and
//     writeback, watchdog, guard annulment, persistent-fault enforcement).
//     It runs a warp while an injection is pending on it, and a lockstep
//     warp's control instructions.
//   - runThreadFast/runWarpBatch are the batched loops: they run a thread
//     until it parks or exits, or a lockstep warp's straight-line run,
//     without re-entering the scheduler, keeping only the per-instruction
//     dynCount/watchdog/guard work the architectural semantics require.
//     The golden run, which a Tracer or the checkpoint recorder observes,
//     takes their observing twins runThreadObserved/runWarpBatchObserved:
//     the same transitions, plus a Tracer.Record for every retired
//     instruction and the warp recorder's step/flush at exactly the
//     careful path's points.
//
// The batched loops are taken whenever no injection is pending on the warp
// (faultPending), so e.addrFlipBit is always -1 there and all injection
// arm/disarm points live in stepCompiled. A *persistent* injection
// (InjectKind.Persistent) never stops being pending: its warp stays on the
// careful path until the faulty thread exits and the fault dies with it.
// The observing twins are separate functions rather than hooks in the
// unobserved loops, which would pay a test per instruction on every
// injection run. All tiers run under the one scheduler, runCTA, and are
// pinned against the test-side reference interpreter (reference_test.go) —
// see DESIGN.md §3.8.

// stepCompiled executes one dynamic instruction via the plan, returning a
// trap on abnormal termination. A thread that parked at a barrier is left
// with waiting set and pc already advanced past the bar.sync.
func (e *exec) stepCompiled(th *threadState, cta *ctaState) *Trap {
	ops := e.plan.ops
	if th.pc < 0 || th.pc >= len(ops) {
		// Falling off the end retires the thread, like an implicit exit.
		th.done = true
		return nil
	}
	op := &ops[th.pc]

	th.dynCount++
	if th.dynCount > e.watchdog {
		return e.watchdogTrap(th)
	}

	executed := true
	if op.guard != nil {
		ok, tr := op.guard(th)
		if tr != nil {
			return tr
		}
		executed = ok
	}

	inj := e.launch.Inject
	injHere := inj != nil && th.flat == inj.Thread && th.dynCount-1 == inj.DynInst

	wrote := false
	if e.launch.Tracer != nil || injHere {
		if injHere {
			e.noteFault(cta)
		}
		wrote = executed && op.hasDest
		if e.launch.Tracer != nil {
			e.launch.Tracer.Record(th.flat, th.pc, wrote)
		}
	}
	if injHere && executed && inj.Kind == InjectMemAddr {
		e.addrFlipBit = inj.Bit
	}

	nextPC := th.pc + 1
	if executed {
		if op.seq != nil {
			if tr := op.seq(e, th, cta); tr != nil {
				e.addrFlipBit = -1
				return tr
			}
		} else {
			var tr *Trap
			nextPC, _, tr = op.ctrl(e, th, cta)
			if tr != nil {
				e.addrFlipBit = -1
				return tr
			}
		}
	}
	e.addrFlipBit = -1

	if injHere && wrote {
		switch inj.Kind {
		case InjectDestValue:
			e.flipRegBit(th, op.destReg, inj.Bit)
		case InjectDestDouble:
			e.flipRegBit(th, op.destReg, inj.Bit)
			e.flipRegBit(th, op.destReg, inj.Bit+1)
		case InjectDestByte:
			e.flipRegByte(th, op.destReg, inj.Bit)
		case InjectLaneCorrelated:
			e.flipLaneGroup(th, cta, op.destReg, inj.Bit)
		}
	}
	if e.persist != nil {
		e.persistAfterStep(th)
	}

	th.pc = nextPC
	return nil
}

// runThreadFast runs one unobserved thread until it parks, exits, or
// traps, batching straight-line runs. Loop shape equivalence to the
// reference: each iteration of exec.step either advances pc (sequential),
// redirects it (branch), parks (bar), or retires (exit/fall-off); this
// loop performs the same transitions with the per-instruction bookkeeping
// inlined. th.pc is kept current so traps built inside closures carry the
// faulting PC.
func (e *exec) runThreadFast(th *threadState, cta *ctaState) *Trap {
	ops := e.plan.ops
	n := len(ops)
	for {
		pc := th.pc
		if pc < 0 || pc >= n {
			th.done = true
			return nil
		}
		op := &ops[pc]
		if op.straight > 0 {
			end := pc + int(op.straight)
			for pc < end {
				op = &ops[pc]
				th.dynCount++
				if th.dynCount > e.watchdog {
					return e.watchdogTrap(th)
				}
				if op.guard != nil {
					ok, tr := op.guard(th)
					if tr != nil {
						return tr
					}
					if !ok {
						// Annulled: retires and counts, writes nothing.
						pc++
						th.pc = pc
						continue
					}
				}
				if tr := op.seq(e, th, cta); tr != nil {
					return tr
				}
				pc++
				th.pc = pc
			}
			continue
		}
		// Control instruction.
		th.dynCount++
		if th.dynCount > e.watchdog {
			return e.watchdogTrap(th)
		}
		if op.guard != nil {
			ok, tr := op.guard(th)
			if tr != nil {
				return tr
			}
			if !ok {
				th.pc = pc + 1
				continue
			}
		}
		nextPC, blocked, tr := op.ctrl(e, th, cta)
		if tr != nil {
			return tr
		}
		th.pc = nextPC
		if th.done || blocked {
			return nil
		}
	}
}

// runWarpBatch executes a straight-line run for the warp's min-PC lanes:
// the active set is every eligible lane at minPC, and the run extends to
// the earlier of the straight-run end and the lowest PC of any other
// alive lane (where diverged lanes would reconverge into the active set).
// Within that window the reference min-PC sweep would re-select exactly
// the active lanes every instruction, so executing instruction-major in
// warp order here retires the same dynamic instructions in the same order.
func (e *exec) runWarpBatch(warp []*threadState, minPC int, cta *ctaState) *Trap {
	ops := e.plan.ops
	active, limit := e.warpWindow(warp, minPC)
	for pc := minPC; pc < limit; pc++ {
		op := &ops[pc]
		for _, th := range active {
			th.dynCount++
			if th.dynCount > e.watchdog {
				return e.watchdogTrap(th)
			}
			if op.guard != nil {
				ok, tr := op.guard(th)
				if tr != nil {
					return tr
				}
				if !ok {
					th.pc = pc + 1
					continue
				}
			}
			if tr := op.seq(e, th, cta); tr != nil {
				return tr
			}
			th.pc = pc + 1
		}
	}
	return nil
}

// warpWindow returns runWarpBatch's window at minPC, the start of a
// straight-line run: the active lanes — every eligible lane at minPC, in
// warp order — and the PC the window ends at, the earlier of the run's end
// and the lowest PC of any other eligible lane.
func (e *exec) warpWindow(warp []*threadState, minPC int) ([]*threadState, int) {
	active := e.warpActive[:0]
	limit := minPC + int(e.plan.ops[minPC].straight)
	for _, th := range warp {
		if th.done || th.waiting {
			continue
		}
		if th.pc == minPC {
			active = append(active, th)
		} else if th.pc < limit {
			limit = th.pc
		}
	}
	e.warpActive = active
	return active, limit
}

// runThreadObserved is runThreadFast for an observed golden run: one
// instruction per iteration, each retired instruction recorded with the
// Tracer (wrote=false when annulled) before it executes, as stepCompiled
// records it, and the warp recorder stepped and flushed after it —
// including the step that falls off the end — because in serial mode every
// post-step point is resume-safe.
func (e *exec) runThreadObserved(th *threadState, cta *ctaState) *Trap {
	ops := e.plan.ops
	n := len(ops)
	tracer, rec := e.launch.Tracer, e.intra
	for {
		pc := th.pc
		if pc < 0 || pc >= n {
			th.done = true
			if rec != nil {
				rec.step()
				rec.flush()
			}
			return nil
		}
		op := &ops[pc]
		th.dynCount++
		if th.dynCount > e.watchdog {
			return e.watchdogTrap(th)
		}
		executed := true
		if op.guard != nil {
			ok, tr := op.guard(th)
			if tr != nil {
				return tr
			}
			executed = ok
		}
		if tracer != nil {
			tracer.Record(th.flat, pc, executed && op.hasDest)
		}
		nextPC, blocked := pc+1, false
		if executed {
			var tr *Trap
			if op.seq != nil {
				tr = op.seq(e, th, cta)
			} else {
				nextPC, blocked, tr = op.ctrl(e, th, cta)
			}
			if tr != nil {
				return tr
			}
		}
		th.pc = nextPC
		if rec != nil {
			rec.step()
			rec.flush()
		}
		if th.done || blocked {
			return nil
		}
	}
}

// runWarpBatchObserved is runWarpBatch for an observed golden run: each
// instruction of the window is the reference's min-PC sweep over the
// active lanes, so every lane's retirement is recorded and stepped as
// stepCompiled and the careful sweep would, and the warp recorder flushes
// once per instruction, at the sweep boundary.
func (e *exec) runWarpBatchObserved(warp []*threadState, minPC int, cta *ctaState) *Trap {
	ops := e.plan.ops
	tracer, rec := e.launch.Tracer, e.intra
	active, limit := e.warpWindow(warp, minPC)
	for pc := minPC; pc < limit; pc++ {
		op := &ops[pc]
		for _, th := range active {
			th.dynCount++
			if th.dynCount > e.watchdog {
				return e.watchdogTrap(th)
			}
			executed := true
			if op.guard != nil {
				ok, tr := op.guard(th)
				if tr != nil {
					return tr
				}
				executed = ok
			}
			if tracer != nil {
				tracer.Record(th.flat, pc, executed && op.hasDest)
			}
			if executed {
				if tr := op.seq(e, th, cta); tr != nil {
					return tr
				}
			}
			th.pc = pc + 1
			if rec != nil {
				rec.step()
			}
		}
		if rec != nil {
			rec.flush()
		}
	}
	return nil
}

// faultPending reports whether the launch's injection can still act on its
// thread th: a transient fault until the step that retires dynamic
// instruction DynInst has run, a persistent one until th exits and the
// fault dies with it. While it holds, th's warp stays on the careful path so
// every arm/fire/enforcement point in stepCompiled is observed.
func (e *exec) faultPending(th *threadState) bool {
	inj := e.launch.Inject
	return !th.done && (inj.Kind.Persistent() || th.dynCount <= inj.DynInst)
}

// runCTA is the CTA scheduler: rounds over the CTA's warps until every
// thread has exited, resolving barriers between rounds. Within a round each
// warp is driven until all its lanes park, exit or freeze: elect the
// minimal PC among the runnable lanes, issue one instruction to every lane
// at that PC, repeat. Min-PC election is a classic reconvergence heuristic:
// diverged paths serialize, and lanes rejoin as soon as they reach the same
// PC, without an explicit SIMT stack.
//
// Launch.WarpSize picks the warp width. Serial scheduling (WarpSize 0) is
// the same loop over one-lane warps: the election is trivial, so a thread
// simply runs until it parks at a barrier or exits before the next one
// starts, and every sweep boundary is a step boundary.
//
// A warp with no pending fault skips the per-instruction sweep for a
// batched loop that retires the identical dynamic instructions in the
// identical order: runThreadFast for a one-lane warp, runWarpBatch across
// the lanes of a lockstep warp's straight-line run. A launch a Tracer or
// the checkpoint recorder observes — the golden run — takes their
// observing twins instead, chosen once per call; a lockstep warp's control
// instructions and a warp with a pending fault take the careful sweep.
//
// Under serial scheduling the injected thread's exit is reported to
// Launch.AfterInjected once; if the hook stops the launch, runCTA returns
// nil with e.halted set and the CTA's later threads never run.
func (e *exec) runCTA(cta *ctaState) *Trap {
	lockstep := e.launch.WarpSize > 0
	width := max(e.launch.WarpSize, 1)
	observed := e.launch.Tracer != nil || e.intra != nil
	// The injected thread's CTA-local index; outside [0, len) in other CTAs.
	injLocal := -1
	if inj := e.launch.Inject; inj != nil {
		injLocal = inj.Thread - cta.threads[0].flat
	}
	ops := e.plan.ops
	for {
		progress := false
		for base := 0; base < len(cta.threads); base += width {
			end := min(base+width, len(cta.threads))
			warp := cta.threads[base:end]
			var injTh *threadState
			if injLocal >= base && injLocal < end {
				injTh = cta.threads[injLocal]
			}
			// Drive this warp until its lanes all park, exit or freeze.
			for {
				minPC := -1
				for _, th := range warp {
					if th.done || th.waiting || e.laneFrozen(th) {
						continue
					}
					if minPC < 0 || th.pc < minPC {
						minPC = th.pc
					}
				}
				if minPC < 0 {
					break
				}
				// An elected PC always retires at least one instruction.
				progress = true
				if injTh == nil || !e.faultPending(injTh) {
					if !lockstep {
						var trap *Trap
						if observed {
							trap = e.runThreadObserved(warp[0], cta)
						} else {
							trap = e.runThreadFast(warp[0], cta)
						}
						if trap != nil {
							return trap
						}
						continue
					}
					if minPC < len(ops) && ops[minPC].straight > 0 {
						var trap *Trap
						if observed {
							trap = e.runWarpBatchObserved(warp, minPC, cta)
						} else {
							trap = e.runWarpBatch(warp, minPC, cta)
						}
						if trap != nil {
							return trap
						}
						continue
					}
				}
				// Careful sweep: one instruction for every lane at minPC.
				for _, th := range warp {
					if th.done || th.waiting || th.pc != minPC || e.laneFrozen(th) {
						continue
					}
					if trap := e.stepCompiled(th, cta); trap != nil {
						return trap
					}
					if e.intra != nil {
						e.intra.step()
					}
				}
				if e.intra != nil {
					// Sweep boundaries are the resume-safe capture points: the
					// next election starts from scratch here, and every warp
					// earlier in the round is parked or done, so a resumed CTA
					// replays exactly this continuation.
					e.intra.flush()
				}
			}
			if injTh != nil && injTh.done && !lockstep && !e.injExited && e.launch.AfterInjected != nil {
				// The injected thread just exited: the threads before it in
				// serial order have run as far as the next barrier, the ones
				// after it have not run since.
				e.injExited = true
				if e.launch.AfterInjected() {
					e.halted = true
					return nil
				}
			}
		}
		status, trap := e.resolveBarrier(cta, progress)
		if trap != nil {
			return trap
		}
		if status == ctaFinished {
			return nil
		}
	}
}
