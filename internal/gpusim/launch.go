package gpusim

import (
	"errors"
	"fmt"
)

// Execute runs a kernel launch to completion on the device.
//
// CTAs run sequentially in launch order (ctaid.z-major, then y, then x-minor)
// and threads within a CTA are interleaved round-robin at barrier boundaries:
// each thread (each lockstep warp, when Launch.WarpSize > 0) runs until it
// parks at a bar.sync, exits, or traps; a barrier releases once every
// non-exited thread of the CTA has arrived (see runCTA). This is a
// functional (not timing) model, but it is deterministic, which the paper's
// methodology needs: a fault site (thread, dynamic instruction, bit) must
// denote the same architectural event in every run.
//
// Execute returns an error only for malformed launches; abnormal guest
// terminations (memory faults, hangs, deadlocks) are reported in
// Result.Trap because they are expected fault-injection outcomes.
//
// The returned Result is valid until the next Execute on the same Device: a
// launch runs in the device's launch scratch and overwrites the previous
// launch's Result in place (DESIGN.md §3.3).
func Execute(dev *Device, launch *Launch) (*Result, error) {
	return execute(dev, launch, (*exec).runCTA)
}

// execute is Execute with the per-CTA runner as a parameter: production
// always passes (*exec).runCTA, and the differential tests pass the
// reference interpreter's runner (reference_test.go) — the only way any code
// reaches the oracle.
func execute(dev *Device, launch *Launch, runCTA func(*exec, *ctaState) *Trap) (*Result, error) {
	if launch.Prog == nil || len(launch.Prog.Instrs) == 0 {
		return nil, errors.New("gpusim: empty program")
	}
	if n := len(launch.Prog.Instrs); n > maxInstrs {
		return nil, fmt.Errorf("gpusim: program has %d instructions, more than the %d a trace entry can address", n, maxInstrs)
	}
	if launch.Grid.Count() <= 0 || launch.Block.Count() <= 0 {
		return nil, fmt.Errorf("gpusim: bad geometry grid=%v block=%v", launch.Grid, launch.Block)
	}
	sharedBytes := launch.SharedBytes
	if sharedBytes == 0 {
		sharedBytes = DefaultSharedBytes
	}
	if need := ParamBase + 4*len(launch.Params); sharedBytes < need {
		return nil, fmt.Errorf("gpusim: shared memory %d too small for %d params", sharedBytes, len(launch.Params))
	}
	watchdog := launch.Watchdog
	if watchdog == 0 {
		watchdog = DefaultWatchdog
	}

	plan := planFor(launch.Prog)
	nCTA := launch.Grid.Count()
	if launch.FirstCTA < 0 || launch.FirstCTA >= nCTA {
		return nil, fmt.Errorf("gpusim: FirstCTA %d outside grid of %d CTAs", launch.FirstCTA, nCTA)
	}
	if ws := launch.Resume; ws != nil {
		if ws.cta != launch.FirstCTA {
			return nil, fmt.Errorf("gpusim: Resume snapshot for CTA %d but FirstCTA is %d", ws.cta, launch.FirstCTA)
		}
		if len(ws.dynAt) != launch.Block.Count() {
			return nil, fmt.Errorf("gpusim: Resume snapshot holds %d threads, block has %d", len(ws.dynAt), launch.Block.Count())
		}
		if ws.shared != nil && len(ws.shared) != sharedBytes {
			return nil, fmt.Errorf("gpusim: Resume snapshot shared size %d, launch wants %d", len(ws.shared), sharedBytes)
		}
		if len(ws.regs) != len(ws.live)*plan.nregs {
			return nil, fmt.Errorf("gpusim: Resume snapshot holds %d registers for %d live threads, program names %d per thread",
				len(ws.regs), len(ws.live), plan.nregs)
		}
	}
	// A fast-forwarded launch is only sound if the skipped prefix is
	// fault-free: the injection must lie at or after the resume point, still
	// armed. Injections in a skipped CTA — or past a mid-CTA snapshot's
	// already-retired instructions — would silently never fire (or fire
	// late), so they are rejected here rather than producing a plausible but
	// wrong outcome (DESIGN.md §3.1).
	if inj := launch.Inject; inj != nil && launch.FirstCTA > 0 {
		injCTA := inj.Thread / launch.Block.Count()
		if injCTA < launch.FirstCTA {
			return nil, fmt.Errorf("gpusim: injection thread %d lies in CTA %d, inside the prefix skipped by FirstCTA %d",
				inj.Thread, injCTA, launch.FirstCTA)
		}
	}
	if ws, inj := launch.Resume, launch.Inject; ws != nil && inj != nil {
		if local := inj.Thread - ws.cta*launch.Block.Count(); local >= 0 && local < len(ws.dynAt) {
			if ws.dynAt[local] > inj.DynInst {
				return nil, fmt.Errorf("gpusim: Resume snapshot postdates the injection: thread %d already retired %d dynamic instructions, injection at %d",
					inj.Thread, ws.dynAt[local], inj.DynInst)
			}
		}
	}

	// Everything below runs in the device's launch scratch (DESIGN.md §3.3):
	// the Result, the exec and one CTA's thread and shared-memory state are
	// reset here and per CTA, never reallocated while the geometry holds.
	threadsPerCTA := launch.Block.Count()
	s := dev.launchScratch(nCTA*threadsPerCTA, threadsPerCTA, sharedBytes)
	res, cta := &s.res, &s.cta
	e := &s.exec
	*e = exec{
		prog:        launch.Prog,
		dev:         dev,
		launch:      launch,
		res:         res,
		block:       launch.Block,
		grid:        launch.Grid,
		watchdog:    watchdog,
		ckpt:        dev.rec,
		addrFlipBit: -1,
		persist:     newPersistState(launch.Inject),
		plan:        plan,
		warpActive:  e.warpActive[:0],
		beforeFault: -1,
	}
	if ws := launch.Resume; ws != nil {
		for _, n := range ws.dynAt {
			e.resumed += n
		}
	}
	if e.ckpt != nil {
		e.intra = e.ckpt.warp
		e.ckpt.begin(threadsPerCTA)
	}

	// faultLive is what AfterCTA hears about a persistent fault: armed and
	// conservatively live until the injected thread's CTA has run, then
	// whether that thread failed to exit (CTAs retire only when every thread
	// is done or trapped, so the fault is retired with it). Transient and
	// absent injections are never live at a CTA boundary: a transient
	// fault's effects are ordinary memory state, fully captured by the
	// boundary snapshot's page images. It is recorded by value when the CTA
	// retires, because the next CTA reuses the thread's slot. Boundary exits
	// use it to refuse to stop while a scheduler-corrupting fault could still
	// diverge a later CTA (DESIGN.md §3.1).
	faultLive := e.persist != nil

	// CTAs run in ctaid.z-major, x-minor launch order; ctaIndex is the
	// linear position in that order, decoded back into grid coordinates so
	// a launch can resume at an arbitrary CTA (Launch.FirstCTA).
	for ctaIndex := launch.FirstCTA; ctaIndex < nCTA; ctaIndex++ {
		var resume *WarpSnapshot
		if ctaIndex == launch.FirstCTA {
			resume = launch.Resume
		}
		startCTA(cta, s.slots, launch, ctaIndex, plan.nregs, resume)
		if e.intra != nil {
			e.intra.beginCTA(ctaIndex, cta, plan.nregs)
		}
		trap := runCTA(e, cta)
		for _, th := range cta.threads {
			res.ThreadICnt[th.flat] = th.dynCount
			res.TotalDyn += th.dynCount
		}
		res.CTAsExecuted++
		if trap != nil {
			res.Trap = trap
			break
		}
		if e.halted {
			break
		}
		if p := e.persist; p != nil && p.thread/threadsPerCTA == ctaIndex {
			faultLive = !s.slots[p.thread-ctaIndex*threadsPerCTA].done
		}
		if e.ckpt != nil {
			e.ckpt.endCTA(ctaIndex)
		}
		if launch.AfterCTA != nil && launch.AfterCTA(ctaIndex, faultLive) {
			break
		}
	}
	res.Retired = res.TotalDyn - e.resumed
	res.BeforeFault = res.Retired
	if e.beforeFault >= 0 {
		res.BeforeFault = e.beforeFault
	}
	return res, nil
}

// noteFault records, once, when the injection reaches its dynamic
// instruction in CTA cta: the instructions the launch retired before it
// are the run's golden replay (Result.BeforeFault). The careful path calls
// it from the step that retires the injected instruction.
func (e *exec) noteFault(cta *ctaState) {
	n := e.res.TotalDyn - e.resumed - 1
	for _, th := range cta.threads {
		n += th.dynCount
	}
	e.beforeFault = n
}

// startCTA sets CTA ctaIndex of launch up in cta and slots (cta.threads[i]
// == &slots[i]): every thread at its start and shared memory holding the
// parameters — or, from ws, the CTA's state at the snapshot's capture
// point. A snapshot's state is copied out (params are part of its shared
// copy; a thread-start snapshot has none and gets the parameters), so it
// stays immutable across repeated resumes. Each slot gets its identity from
// its index and its retired count and exit from ws; a live thread
// (WarpSnapshot.isLive) takes the next captured execution state and nregs
// registers, any other one a zero execution state and zeroed registers.
// Registers from nregs on keep whatever an earlier launch left there: the
// program never names them (regFootprint).
func startCTA(cta *ctaState, slots []threadState, launch *Launch, ctaIndex, nregs int, ws *WarpSnapshot) {
	var live []threadExec
	var regs []uint32
	var shared []byte
	if ws != nil {
		live, regs, shared = ws.live, ws.regs, ws.shared
	}
	if shared != nil {
		copy(cta.shared, shared)
	} else {
		clear(cta.shared)
		for i, p := range launch.Params {
			putWord(cta.shared, ParamBase+4*i, p)
		}
	}
	gx, gy := max(launch.Grid.X, 1), max(launch.Grid.Y, 1)
	bx, by, bz := max(launch.Block.X, 1), max(launch.Block.Y, 1), max(launch.Block.Z, 1)
	ctaid := Dim3{ctaIndex % gx, (ctaIndex / gx) % gy, ctaIndex / (gx * gy)}
	base := ctaIndex * len(slots)
	tLinear := 0
	for tz := 0; tz < bz; tz++ {
		for ty := 0; ty < by; ty++ {
			for tx := 0; tx < bx; tx++ {
				slot := &slots[tLinear]
				slot.flat, slot.tid, slot.ctaid = base+tLinear, Dim3{tx, ty, tz}, ctaid
				slot.dynCount, slot.done = 0, false
				if ws != nil {
					slot.dynCount, slot.done = ws.dynAt[tLinear], ws.exited(tLinear)
				}
				if slot.dynCount > 0 && !slot.done { // the capture rule, WarpSnapshot.isLive
					slot.threadExec, live = live[0], live[1:]
					copy(slot.regs[:nregs], regs)
					regs = regs[nregs:]
				} else {
					slot.threadExec = threadExec{}
					clear(slot.regs[:nregs])
				}
				tLinear++
			}
		}
	}
}

// barrierStatus summarizes a CTA's barrier state after a scheduling round.
type barrierStatus uint8

const (
	ctaRunning  barrierStatus = iota // runnable threads remain
	ctaFinished                      // every thread exited
	ctaReleased                      // a barrier completed and was released
)

// ProfileTrace is the Tracer used for fault-free profiling runs: it records
// the static PC sequence of every thread, with the high bit of each entry
// marking instructions that wrote a live destination register (fault sites).
// The PC keeps the low 15 bits, so Execute rejects programs of more than
// maxInstrs static instructions, far beyond any kernel in this repository.
type ProfileTrace struct {
	// PCs[t] is thread t's dynamic instruction sequence.
	PCs [][]uint16
}

// WroteBit flags a trace entry whose instruction wrote a destination register.
const WroteBit = 0x8000

// maxInstrs is the longest program a trace entry can address: PCs 0 through
// WroteBit-1.
const maxInstrs = WroteBit

// NewProfileTrace allocates a trace for nThreads threads.
func NewProfileTrace(nThreads int) *ProfileTrace {
	return &ProfileTrace{PCs: make([][]uint16, nThreads)}
}

// Record implements Tracer.
func (p *ProfileTrace) Record(thread, pc int, wrote bool) {
	v := uint16(pc)
	if wrote {
		v |= WroteBit
	}
	p.PCs[thread] = append(p.PCs[thread], v)
}

// PC decodes a trace entry into the static PC.
func PC(entry uint16) int { return int(entry &^ WroteBit) }

// Wrote decodes a trace entry's destination-write flag.
func Wrote(entry uint16) bool { return entry&WroteBit != 0 }
