package fault

import (
	"sync/atomic"

	"repro/internal/gpusim"
)

// Snapshot-affine scheduling. The schedule order already sorts sites by CTA,
// so sites resuming from the same checkpoint snapshot are contiguous; what a
// per-site cursor would destroy is *which worker* runs them: a device that
// just reset from snapshot k pays a full owned-page restore the moment its
// worker picks up a site of snapshot k+1 (see Device.ResetFrom). So the work
// list is cut into chunks that never span a snapshot boundary, and workers
// take whole chunks off one shared cursor in schedule order. A worker's
// device switches snapshot sources at chunk boundaries only, and since each
// worker walks the schedule forwards it meets every snapshot at most once:
// AffinityResets is at most workers × snapshots.
// Scheduling can only change which device runs a site, never the site's
// outcome: every run resets its device to the same snapshot content
// regardless of provenance (DESIGN.md §3.4).

// chunk is a half-open run [lo, hi) of work positions sharing one affinity
// key (or an arbitrary run when the campaign has no affinity).
type chunk struct{ lo, hi int }

// chunkTargetSize picks the chunk granule: small enough that every worker
// takes several chunks (so no worker idles through a long tail), never below
// 16 sites (so the shared cursor is touched rarely).
func chunkTargetSize(nwork, workers int) int {
	t := nwork / (workers * 4)
	if t < 16 {
		t = 16
	}
	return t
}

// buildChunks cuts the work positions [0, nwork) into chunks of roughly
// target size that never span an affinity boundary. key is nil when the
// campaign has no affinity (full-run targets); then only size cuts apply.
func buildChunks(nwork int, key func(pos int) int, target int) []chunk {
	chunks := make([]chunk, 0, nwork/target+1)
	lo := 0
	for i := 1; i <= nwork; i++ {
		cut := i == nwork || i-lo >= target
		if !cut && key != nil && key(i) != key(lo) {
			cut = true
		}
		if cut {
			chunks = append(chunks, chunk{lo, i})
			lo = i
		}
	}
	return chunks
}

// chunkCursor hands a campaign's chunks to its workers, each chunk once, in
// schedule order. The first chunks are dealt before any worker starts,
// chunk w to worker w (the campaign sets taken to the worker count), so the
// order in which the Go scheduler gets to the workers cannot leave one
// without work: with fewer CPUs than workers, the first workers to run
// would otherwise drain the cursor before the last ones start.
type chunkCursor struct {
	chunks []chunk
	taken  atomic.Int64
}

// dealt returns worker w's first chunk; ok is false when there are fewer
// chunks than workers.
func (q *chunkCursor) dealt(w int) (c chunk, ok bool) {
	if w >= len(q.chunks) {
		return chunk{}, false
	}
	return q.chunks[w], true
}

// next returns the first chunk no worker has taken yet; ok is false once
// every chunk is handed out.
func (q *chunkCursor) next() (c chunk, ok bool) {
	i := int(q.taken.Add(1)) - 1
	if i >= len(q.chunks) {
		return chunk{}, false
	}
	return q.chunks[i], true
}

// workerDevice is what a campaign worker runs its sites on: a copy-on-write
// device, the site's launch and injection, the thread-start snapshot a run
// may resume from, and the state of injectOn's early-exit hooks with the
// candidate-page buffer they fill. A worker owns one for life, so
// consecutive sites of a snapshot group reset on ResetFrom's same-source
// fast path. All of it is reused site after site — the hooks are method
// values bound once, on the first site. Every run resets the device before
// use (from a checkpoint snapshot or the pristine image) and the reset is
// driven by the dirty-page list, so reuse is safe after trapped or failed
// runs.
type workerDevice struct {
	// dev is cloned from the pristine image on the first site the worker
	// executes.
	dev    *gpusim.Device
	model  Model
	launch gpusim.Launch
	inj    gpusim.Injection
	// start and dynAt (its per-thread counts) are the synthetic snapshot
	// of a thread-start resume (gpusim.WarpSnapshot.SetThreadStart).
	start gpusim.WarpSnapshot
	dynAt []int64

	// The worker's target, and the site being run: its thread and CTA.
	t      *Target
	thread int
	cta    int
	// div collects the pages an exit hook hands to deadOutcome; exit and
	// exited are what the hook decided.
	div    []int32
	exit   Outcome
	exited bool
	// afterCTA and afterInjected are ctaExit and threadExit, bound.
	afterCTA      func(cta int, faultLive bool) bool
	afterInjected func() bool
}

// ctaExit is the AfterCTA hook of a site's run: at the injected CTA's
// boundary, with no persistent fault live, it lists the pages where the
// run's memory differs from the golden run's there and asks deadOutcome
// whether the rest of the run is decided. A fault bound to a thread of the
// injected CTA has always retired at its boundary (the CTA only completes
// once its threads exit), so the faultLive gate is a mechanical enforcement
// of that invariant rather than a reachable branch today (DESIGN.md §3.1):
// memory can match golden at the boundary while a stuck lane or barrier
// ghost still diverges a later CTA.
func (w *workerDevice) ctaExit(idx int, faultLive bool) bool {
	if idx != w.cta || faultLive {
		return false
	}
	t := w.t
	w.div = t.prep.ckpt.AppendDivergent(w.dev, w.cta+1, w.div[:0])
	w.exit, w.exited = t.deadOutcome(w.dev, (w.cta+1)*t.Block.Count()-1, w.div)
	return w.exited
}

// threadExit is the AfterInjected hook of a site's run: when the injected
// thread has exited, it lists the pages that may differ from the golden run
// at that point and asks deadOutcome whether the rest of the run is
// decided (DESIGN.md §3.1, thread-boundary exit).
func (w *workerDevice) threadExit() bool {
	t := w.t
	w.div = t.prep.ckpt.AppendTouched(w.dev, w.cta, w.div[:0])
	w.exit, w.exited = t.deadOutcome(w.dev, w.thread, w.div)
	return w.exited
}

// run is the runSite hook the campaign engine calls through protect. A
// persistent-model site whose outcome decide proves returns it at once,
// every CTA counted as skipped; any other executes on the worker's device,
// which is cloned from the pristine image on the first site that runs. A
// FullRun target decides nothing: it is the reference the decided outcomes
// are held to.
func (w *workerDevice) run(s Site) (Outcome, runCost, error) {
	t := w.t
	if w.model.Persistent() && t.prep.ckpt != nil {
		if o, ok := t.decide(s, w.model); ok {
			return o, runCost{ctasSkipped: int32(t.Grid.Count()), decided: true}, nil
		}
	}
	if w.dev == nil {
		w.dev = t.Init.Clone()
	}
	return t.injectOn(w, s, w.model)
}

// close returns what the worker's device cost: its clone (if it executed a
// site), page copies and source switches.
func (w *workerDevice) close() CampaignStats {
	if w.dev == nil {
		return CampaignStats{}
	}
	return CampaignStats{
		DevicesCreated: 1,
		PagesCopied:    w.dev.TakePagesCopied(),
		AffinityResets: w.dev.TakeSrcSwitches(),
	}
}
