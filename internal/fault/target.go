package fault

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Range is a byte range of global memory that forms part of a kernel's
// output; outcome classification compares these ranges against the golden
// run.
type Range struct {
	Off, Len int
}

// Target is one kernel launch prepared for fault injection: program,
// geometry, pristine input state, and the golden output to compare against.
type Target struct {
	// Name identifies the target in reports ("GEMM K1").
	Name string
	// Prog is the kernel.
	Prog *isa.Program
	// Grid and Block define the launch geometry.
	Grid, Block gpusim.Dim3
	// Params are the kernel parameters.
	Params []uint32
	// SharedBytes is the per-CTA shared memory size (0 = default).
	SharedBytes int
	// Init is the pristine device state; every experiment runs on a clone.
	Init *gpusim.Device
	// Output lists the global-memory ranges that constitute the output.
	Output []Range

	// WarpSize selects the simulator's intra-CTA scheduler for every run of
	// this target, golden and injected alike: 0 interleaves threads serially
	// at barrier boundaries (the default), a positive value executes SIMT
	// lockstep warps of that width (gpusim.Launch.WarpSize).
	WarpSize int
	// FullRun disables the checkpointed fast-forward engine: every campaign
	// experiment re-executes the whole grid from the pristine device. The
	// fast-forward engine is bit-identical to this path by construction (see
	// DESIGN.md §3.1); the option exists as the verification and
	// benchmarking reference.
	FullRun bool
	// intraStart is the first intra-CTA capture stride of the golden run's
	// recorder (gpusim.NewCheckpointRecorder; 0 selects its default). Only
	// tests set it, through SetIntraStart, to make short CTAs capture.
	intraStart int

	// Cache, when non-nil, routes Prepare through a shared prepared-target
	// cache: the first target with a given key (see prepareKey) performs the
	// golden run, concurrent callers block on the in-flight entry, and later
	// callers adopt the immutable golden output, profile and checkpoint
	// store without re-executing. See PreparedCache. Set it before the first
	// Prepare; a single Target must still not be Prepared concurrently with
	// itself.
	Cache *PreparedCache

	// prep is what Prepare produced (or adopted from Cache); nil before.
	prep *preparedState

	// Cache provenance and cold golden-run wall-clock of this target's
	// Prepare, harvested once (by the first campaign run on it) into
	// CampaignStats; see takePrepStats.
	prepHits, prepMisses, prepShared int64
	prepWall                         time.Duration
}

// DefaultWatchdogFactor multiplies the fault-free maximum thread iCnt to
// obtain the hang-detection ceiling for injection runs. A corrupted loop
// counter can legitimately lengthen execution; 8x the fault-free maximum
// (plus slack) separates that from true runaways quickly.
const DefaultWatchdogFactor = 8

// launch builds a Launch for one run of the target.
func (t *Target) launch(inj *gpusim.Injection, tracer gpusim.Tracer, watchdog int64) gpusim.Launch {
	return gpusim.Launch{
		Prog:        t.Prog,
		Grid:        t.Grid,
		Block:       t.Block,
		Params:      t.Params,
		SharedBytes: t.SharedBytes,
		Watchdog:    watchdog,
		Inject:      inj,
		Tracer:      tracer,
		WarpSize:    t.WarpSize,
	}
}

// Threads is the total thread count of the launch.
func (t *Target) Threads() int { return t.Grid.Count() * t.Block.Count() }

// Prepare readies the target for injection: golden output, per-thread
// profile, injection watchdog, and (unless FullRun) the checkpoint store.
// It must be called before Profile, Golden, or RunSite; calling it again is
// a no-op. With Cache set, the golden run happens at most once per distinct
// prepared-target key process-wide — otherwise this target performs it
// itself.
func (t *Target) Prepare() error {
	if t.prep != nil {
		return nil
	}
	if t.Cache != nil {
		return t.Cache.prepare(t)
	}
	var err error
	t.prep, err = t.prepareCold()
	return err
}

// prepareCold runs the fault-free golden execution with tracing, capturing
// the golden output, the per-thread profile, the injection watchdog and,
// unless FullRun, the checkpoint store. It adds its wall-clock to the
// target's prepWall.
func (t *Target) prepareCold() (*preparedState, error) {
	start := time.Now()
	defer func() { t.prepWall += time.Since(start) }()
	if len(t.Output) == 0 {
		return nil, fmt.Errorf("fault: target %s has no output ranges", t.Name)
	}
	tr := gpusim.NewProfileTrace(t.Threads())
	dev := t.Init.Clone()
	launch := t.launch(nil, tr, 0)
	var rec *gpusim.CheckpointRecorder
	if !t.FullRun {
		rec = gpusim.NewCheckpointRecorder(t.Init, dev, t.Grid.Count(), t.intraStart)
	}
	res, err := gpusim.Execute(dev, &launch)
	if err != nil {
		return nil, fmt.Errorf("fault: target %s golden run: %w", t.Name, err)
	}
	if res.Trap != nil {
		return nil, fmt.Errorf("fault: target %s golden run trapped: %v", t.Name, res.Trap)
	}
	p := &preparedState{golden: t.extractOutput(dev), threadIndependent: threadIndependent(t.Prog)}
	if rec != nil {
		p.ckpt = rec.Finish()
	}

	prof, err := trace.Build(t.Prog, tr, t.Block.Count())
	if err != nil {
		return nil, fmt.Errorf("fault: target %s: %w", t.Name, err)
	}
	p.profile = prof

	var maxICnt int64
	for i := range prof.Threads {
		if prof.Threads[i].ICnt > maxICnt {
			maxICnt = prof.Threads[i].ICnt
		}
	}
	p.watchdog = DefaultWatchdogFactor*maxICnt + 1024
	return p, nil
}

// Profile returns the fault-free profile (Prepare must have succeeded).
func (t *Target) Profile() *trace.Profile {
	if t.prep == nil {
		panic("fault: Profile before Prepare")
	}
	return t.prep.profile
}

// Golden returns the golden output bytes.
func (t *Target) Golden() []byte {
	if t.prep == nil {
		panic("fault: Golden before Prepare")
	}
	return t.prep.golden
}

// extractOutput concatenates the output ranges of a device.
func (t *Target) extractOutput(dev *gpusim.Device) []byte {
	var n int
	for _, r := range t.Output {
		n += r.Len
	}
	out := make([]byte, 0, n)
	for _, r := range t.Output {
		out = dev.AppendRange(out, r.Off, r.Len)
	}
	return out
}

// matchesGolden compares a device's output ranges against the golden output
// without materializing a copy (the per-run hot path).
func (t *Target) matchesGolden(dev *gpusim.Device) bool {
	off := 0
	for _, r := range t.Output {
		if dev.FirstDiff(r.Off, t.prep.golden[off:off+r.Len]) >= 0 {
			return false
		}
		off += r.Len
	}
	return true
}

// Site identifies one fault site per the paper's model: thread id, dynamic
// instruction index, destination-register bit position.
type Site struct {
	Thread  int
	DynInst int64
	Bit     int
}

func (s Site) String() string {
	return fmt.Sprintf("t%d/i%d/b%d", s.Thread, s.DynInst, s.Bit)
}

// ErrNotASite reports injection at a dynamic instruction that writes no
// destination register.
var ErrNotASite = errors.New("fault: dynamic instruction writes no destination register")

// classify maps a completed run on dev to its outcome.
func (t *Target) classify(dev *gpusim.Device, res *gpusim.Result) Outcome {
	if res.Trap != nil {
		if res.Trap.Kind == gpusim.TrapWatchdog || res.Trap.Kind == gpusim.TrapDeadlock {
			return Hang
		}
		return Crash
	}
	if t.matchesGolden(dev) {
		return Masked
	}
	return SDC
}

// RunSite executes one fault-injection experiment under the paper's fault
// model (ModelDestValue) on a fresh clone of the pristine device, running
// the whole grid, and classifies its outcome. It validates against the
// golden profile that the site denotes a destination-writing dynamic
// instruction. This is the full-run reference path; campaigns (Run) use the
// checkpointed fast-forward engine, which is bit-identical.
func (t *Target) RunSite(site Site) (Outcome, error) {
	return t.RunSiteModel(site, ModelDestValue)
}

// Checkpoints exposes the golden checkpoint store built by Prepare — nil
// when fast-forwarding is disabled (FullRun).
func (t *Target) Checkpoints() *gpusim.Checkpoints {
	if t.prep == nil {
		return nil
	}
	return t.prep.ckpt
}

// WarpCheckpoints exposes the intra-CTA half of the checkpoint store
// (gpusim.Checkpoints.Warp) — nil under FullRun or when the golden run
// retired too few instructions per CTA for any capture.
func (t *Target) WarpCheckpoints() *gpusim.WarpCheckpoints {
	if ck := t.Checkpoints(); ck != nil {
		return ck.Warp()
	}
	return nil
}

// runCost carries per-run fast-forward metrics out of injectOn: the
// instructions the run executed before and after the fault fired, CTAs
// skipped, and whether it exited early or resumed inside the injected CTA.
// It rides the guard's per-attempt channel, whose buffer holds 48 bytes
// per siteResult: a wider runCost moves that allocation up a size class.
type runCost struct {
	replay       int64
	postFault    int64
	ctasSkipped  int32
	earlyExit    bool
	intraResumed bool
}

// injectOn is the campaign hot path: one unchecked injection experiment on a
// worker's device (the site must have been validated up front). It resets
// w.dev itself — from the checkpoint snapshot at the injected CTA's
// boundary, or from the pristine image under FullRun — and builds the run's
// launch in w, so a site allocates nothing of its own.
//
// Fast-forward soundness (details in DESIGN.md §3.1, persistent
// scheduler faults included): CTAs execute strictly sequentially and share
// only global memory, and the simulator is deterministic, so the snapshot
// at boundary c is the full run's state at the start of the injected CTA c.
// Persistent faults stay covered because every snapshot is
// scheduler-complete — boundary snapshots carry no live ledger by
// construction (every thread of prior CTAs has exited), warp snapshots
// capture the full per-thread ledger, and gpusim.Execute rejects a resume
// past the fault's activation point — so the fault re-arms and activates at
// the identical architectural event.
//
// The run starts at the latest golden point before its fault that can be
// rebuilt exactly: a warp snapshot captured inside the injected thread,
// else — under the thread exit's premises below — the injected thread's
// own start (Checkpoints.ThreadStart: threads run one at a time, so the
// memory there is the snapshot plus the last golden stores of the CTA's
// threads before it, and every one of them is done), else the latest warp
// snapshot before it, else the CTA boundary.
//
// The run then stops at the first of two points where deadOutcome can decide
// its outcome from the pages that may differ from the golden run. Under
// serial scheduling of a thread-independent program, with a fault that
// touches only the injected thread t, the first point is t's exit
// (w.threadExit; candidates from Checkpoints.AppendTouched): every later
// thread starts from fresh registers and parameter-only shared memory, so
// it differs from golden only through global memory. The second is the
// boundary after c with no persistent fault live (w.ctaExit; candidates from
// Checkpoints.AppendDivergent). At either point the run stops only when no
// later thread loads a word it would see differently, so every later thread
// replays the golden run — it cannot trap, and it changes memory only by
// golden stores — and an early exit can never hide a crash, hang or SDC the
// rest of the run would cause.
func (t *Target) injectOn(w *workerDevice, site Site, model Model) (Outcome, runCost, error) {
	var cost runCost
	dev := w.dev
	w.inj = gpusim.Injection{
		Thread: site.Thread, DynInst: site.DynInst, Bit: site.Bit,
		Kind: model,
	}
	w.launch = t.launch(&w.inj, nil, t.prep.watchdog)
	ck := t.prep.ckpt
	if ck == nil { // FullRun
		dev.ResetFrom(t.Init)
		res, err := gpusim.Execute(dev, &w.launch)
		if err != nil {
			return 0, cost, err
		}
		cost.replay, cost.postFault = res.BeforeFault, res.Retired-res.BeforeFault
		return t.classify(dev, res), cost, nil
	}
	tpc := t.Block.Count()
	cta := site.Thread / tpc
	local := site.Thread - cta*tpc
	snap, _ := ck.SnapshotFor(cta)
	dev.ResetFrom(snap)
	// Inner resume: the latest intra-CTA snapshot at which the injected
	// thread had not yet reached the fault site. Restoring its page delta on
	// top of the boundary snapshot reproduces the golden state at the
	// capture point exactly (CTAs share only global memory), so the injected
	// CTA's fault-free prefix is skipped. The delta — or the thread start's
	// patched words — is written through the tracked store path, so both
	// exits' candidate pages still include every page that may differ.
	var ws *gpusim.WarpSnapshot
	if wck := ck.Warp(); wck != nil {
		ws = wck.SnapshotBefore(cta, local, site.DynInst)
	}
	threadLocal := t.WarpSize == 0 && t.prep.threadIndependent && threadLocal(model)
	if threadLocal && local > 0 && (ws == nil || ws.DynAt(local) == 0) && ck.ThreadStart(dev, site.Thread) {
		w.dynAt = slices.Grow(w.dynAt[:0], tpc)[:tpc]
		for i := range local {
			w.dynAt[i] = t.prep.profile.Threads[site.Thread-local+i].ICnt
		}
		w.start.SetThreadStart(cta, local, w.dynAt)
		ws = &w.start
	} else if ws != nil {
		ws.RestorePages(dev)
	}
	if ws != nil {
		w.launch.Resume = ws
		cost.intraResumed = true
	}
	w.launch.FirstCTA = cta
	if w.afterCTA == nil {
		w.afterCTA, w.afterInjected = w.ctaExit, w.threadExit
	}
	w.t, w.thread, w.cta, w.exited = t, site.Thread, cta, false
	if cta+1 < ck.NumCTAs() {
		w.launch.AfterCTA = w.afterCTA
	}
	if threadLocal {
		w.launch.AfterInjected = w.afterInjected
	}
	res, err := gpusim.Execute(dev, &w.launch)
	if err != nil {
		return 0, cost, err
	}
	cost.replay, cost.postFault = res.BeforeFault, res.Retired-res.BeforeFault
	cost.ctasSkipped = int32(cta)
	if res.Trap == nil && w.exited {
		cost.earlyExit = true
		cost.ctasSkipped += int32(ck.NumCTAs() - (cta + 1))
		return w.exit, cost, nil
	}
	return t.classify(dev, res), cost, nil
}

// threadIndependent reports whether, under serial scheduling, a thread of
// prog can affect the later threads of its CTA only through global memory.
// Every memory write is an instruction whose destination is a memory
// operand, so it suffices that there is no barrier — each thread then runs
// from its first instruction to its exit before the next one starts — and
// that no destination is shared or local memory (const stores trap): every
// thread then starts from fresh registers and parameter-only shared memory.
func threadIndependent(prog *isa.Program) bool {
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		if in.Op == isa.OpBar || in.Dst.Kind == isa.OpdMem && in.Dst.Space != isa.SpaceGlobal {
			return false
		}
	}
	return true
}

// deadOutcome decides the outcome of a run paused right after thread after
// retired (the last thread of a CTA at a CTA boundary, the injected thread
// at its exit) whose global memory can differ from the golden run's at that
// point only on the pages div (DESIGN.md §3.1, early exits); ok is false
// when the run must go on instead. If a later thread may load a word of a
// div page whose value it would see differently (Checkpoints.ObservedAfter)
// the divergence can propagate, so the run goes on. Otherwise every later
// thread replays the golden run, and the final image is golden-final except
// on the div-page words no later thread stores to: the run is SDC if an
// output byte on such a word differs from the golden output, Masked if none
// does — with no div page at all, the run has converged. A differing word
// that a later thread may overwrite only in part (a sub-word store) cannot
// be decided without running, unless another word already makes the run
// SDC.
func (t *Target) deadOutcome(dev *gpusim.Device, after int, div []int32) (o Outcome, ok bool) {
	ck := t.prep.ckpt
	for _, p := range div {
		if ck.ObservedAfter(dev, p, after) {
			return 0, false
		}
	}
	undecided := false
	for _, p := range div {
		lo := int(p) * gpusim.PageSize
		hi := lo + gpusim.PageSize
		goff := 0 // offset of r's bytes in the golden output
		for _, r := range t.Output {
			if a, end := max(lo, r.Off), min(hi, r.Off+r.Len); a < end {
				sdc := dev.EachDiffWord(a, t.prep.golden[goff+a-r.Off:goff+end-r.Off], func(addr int) bool {
					stored, partial := ck.StoredAfter(addr, after)
					undecided = undecided || partial
					return !stored
				})
				if sdc {
					return SDC, true
				}
			}
			goff += r.Len
		}
	}
	return Masked, !undecided
}
