package fault

import (
	"errors"
	"fmt"

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
	// DESIGN.md §3.2); the option exists as the verification and
	// benchmarking reference.
	FullRun bool
	// CheckpointStride is the CTA-boundary distance between golden
	// snapshots; 0 picks gpusim.AutoCheckpointStride from the grid size.
	CheckpointStride int
	// IntraStride controls intra-CTA (warp-granular) checkpoints, which let
	// an injection resume mid-CTA instead of replaying the injected CTA's
	// fault-free prefix: 0 auto-tunes the capture stride to each CTA's
	// dynamic instruction count (see gpusim.DefaultIntraSnapshots), a
	// positive value captures at exactly that many retired instructions,
	// and a negative value disables intra-CTA checkpointing. Ignored when
	// FullRun is set.
	IntraStride int

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

	// Cache provenance of this target's Prepare, harvested once (by the
	// first campaign run on it) into CampaignStats; see takePrepStats.
	prepHits, prepMisses, prepShared int64
}

// DefaultWatchdogFactor multiplies the fault-free maximum thread iCnt to
// obtain the hang-detection ceiling for injection runs. A corrupted loop
// counter can legitimately lengthen execution; 8x the fault-free maximum
// (plus slack) separates that from true runaways quickly.
const DefaultWatchdogFactor = 8

// launch builds a Launch for one run of the target.
func (t *Target) launch(inj *gpusim.Injection, tracer gpusim.Tracer, watchdog int64) *gpusim.Launch {
	return &gpusim.Launch{
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
// the golden output, the per-thread profile, the injection watchdog and the
// checkpoint stores.
func (t *Target) prepareCold() (*preparedState, error) {
	if len(t.Output) == 0 {
		return nil, fmt.Errorf("fault: target %s has no output ranges", t.Name)
	}
	tr := gpusim.NewProfileTrace(t.Threads())
	dev := t.Init.Clone()
	launch := t.launch(nil, tr, 0)
	numCTAs := t.Grid.Count()
	var rec *gpusim.CheckpointRecorder
	if !t.FullRun && numCTAs > 1 {
		rec = gpusim.NewCheckpointRecorder(t.Init, dev, numCTAs, t.CheckpointStride)
		launch.AfterCTA = rec.AfterCTA
	}
	var wrec *gpusim.WarpCheckpointRecorder
	if !t.FullRun && t.IntraStride >= 0 {
		wrec = gpusim.NewWarpCheckpointRecorder(dev, numCTAs, t.IntraStride)
		if rec != nil {
			rec.AttachIntra(wrec)
		}
		launch.IntraRec = wrec
	}
	res, err := gpusim.Execute(dev, launch)
	if err != nil {
		return nil, fmt.Errorf("fault: target %s golden run: %w", t.Name, err)
	}
	if res.Trap != nil {
		return nil, fmt.Errorf("fault: target %s golden run trapped: %v", t.Name, res.Trap)
	}
	p := &preparedState{golden: t.extractOutput(dev)}
	if rec != nil {
		p.ckpt = rec.Finish()
	}
	if wrec != nil {
		if wck := wrec.Finish(); wck.Count() > 0 {
			p.wck = wck
		}
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
		if !dev.EqualRange(r.Off, t.prep.golden[off:off+r.Len]) {
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
// when fast-forwarding is disabled (FullRun) or the grid has a single CTA.
func (t *Target) Checkpoints() *gpusim.Checkpoints {
	if t.prep == nil {
		return nil
	}
	return t.prep.ckpt
}

// WarpCheckpoints exposes the intra-CTA snapshot store built by Prepare —
// nil when disabled (FullRun or a negative IntraStride) or when the golden
// run retired too few instructions per CTA for any capture.
func (t *Target) WarpCheckpoints() *gpusim.WarpCheckpoints {
	if t.prep == nil {
		return nil
	}
	return t.prep.wck
}

// runCost carries per-run fast-forward metrics out of injectOn.
type runCost struct {
	ctasSkipped  int64
	earlyExit    bool
	intraResumed bool
}

// injectOn is the campaign hot path: one unchecked injection experiment on a
// worker's device (the site must have been validated up front). It resets dev
// itself — from the checkpoint snapshot nearest the injected CTA when the
// target has a checkpoint store, from the pristine image otherwise.
//
// Fast-forward soundness (details in DESIGN.md §3.2 and, for persistent
// scheduler faults, §3.11): CTAs execute strictly sequentially and share
// only global memory, and the simulator is deterministic, so re-executing
// golden CTAs k..c-1 from the boundary-k snapshot reproduces the full run's
// state at the injected CTA c exactly. Persistent faults stay covered
// because every snapshot is scheduler-complete — boundary snapshots carry no
// live ledger by construction (every thread of prior CTAs has exited), warp
// snapshots capture the full per-thread ledger, and gpusim.Execute rejects a
// resume past the fault's activation point — so the fault re-arms and
// activates at the identical architectural event. After c completes without
// a trap, if the run's global memory equals the golden run's at boundary c+1
// (Checkpoints.Converged over the run's dirty pages) and no persistent fault
// is still live, the remaining CTAs replay the golden run and the outcome is
// Masked without executing them. A trap in a later CTA implies
// non-convergence at c+1, so the early exit can never hide a crash or hang.
func (t *Target) injectOn(dev *gpusim.Device, site Site, model Model) (Outcome, runCost, error) {
	var cost runCost
	ck, wck := t.prep.ckpt, t.prep.wck
	if ck == nil && wck == nil {
		dev.ResetFrom(t.Init)
		o, err := t.runSiteModelOn(dev, site, model)
		return o, cost, err
	}
	inj := &gpusim.Injection{
		Thread: site.Thread, DynInst: site.DynInst, Bit: site.Bit,
		Kind: model.kind(),
	}
	launch := t.launch(inj, nil, t.prep.watchdog)
	tpc := t.Block.Count()
	cta := site.Thread / tpc
	snap, first := t.Init, 0
	if ck != nil {
		snap, first = ck.SnapshotFor(cta)
	}
	dev.ResetFrom(snap)
	// Inner resume: the latest intra-CTA snapshot at which the injected
	// thread had not yet reached the fault site. Restoring its page delta on
	// top of the floor boundary snapshot reproduces the golden state at the
	// capture point exactly (CTAs share only global memory), so both the
	// inter-snapshot golden CTAs and the injected CTA's fault-free prefix
	// are skipped. The delta is written through the tracked store path, so
	// the convergence check below still hashes every divergent page.
	if wck != nil {
		if ws := wck.SnapshotBefore(cta, site.Thread-cta*tpc, site.DynInst); ws != nil {
			ws.RestorePages(dev)
			launch.Resume = ws
			first = cta
			cost.intraResumed = true
		}
	}
	launch.FirstCTA = first
	converged := false
	if ck != nil && cta+1 < ck.NumCTAs() {
		launch.AfterCTA = func(idx int, faultLive bool) bool {
			if idx != cta || faultLive {
				// Converged is meaningless while a persistent fault is
				// live: memory can match golden at the boundary while a
				// stuck lane or barrier ghost still diverges a later CTA.
				// A fault bound to a thread of CTA `cta` has always retired
				// here (the CTA only completes once its threads exit), so
				// the gate is a mechanical enforcement of that invariant
				// rather than a reachable branch today (DESIGN.md §3.11).
				return false
			}
			if ck.Converged(dev, cta+1) {
				converged = true
				return true
			}
			return false
		}
	}
	res, err := gpusim.Execute(dev, launch)
	if err != nil {
		return 0, cost, err
	}
	cost.ctasSkipped = int64(first)
	if res.Trap == nil && converged {
		cost.earlyExit = true
		cost.ctasSkipped += int64(ck.NumCTAs() - (cta + 1))
		return Masked, cost, nil
	}
	return t.classify(dev, res), cost, nil
}

// DestBitsAt reports the destination width in bits of thread t's dynamic
// instruction i (0 when it is not a fault site).
func (t *Target) DestBitsAt(thread int, dyn int64) int {
	return t.prep.profile.SiteBitsOf(thread, dyn)
}

// StaticPCAt reports the static PC of thread t's dynamic instruction i.
func (t *Target) StaticPCAt(thread int, dyn int64) int {
	return gpusim.PC(t.prep.profile.Threads[thread].PCs[dyn])
}

// Instr returns the static instruction at a PC.
func (t *Target) Instr(pc int) *isa.Instruction { return &t.Prog.Instrs[pc] }
