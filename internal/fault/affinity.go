package fault

import (
	"sync"
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
// with no attempt abandoned, AffinityResets is at most workers × snapshots.
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
// schedule order.
type chunkCursor struct {
	chunks []chunk
	taken  atomic.Int64
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

// deviceStats accumulates what a campaign's worker devices cost.
type deviceStats struct {
	created, pages, srcSw atomic.Int64
}

// harvest folds a device's page-copy and source-switch counters into the
// campaign's.
func (s *deviceStats) harvest(d *gpusim.Device) {
	s.pages.Add(d.TakePagesCopied())
	s.srcSw.Add(d.TakeSrcSwitches())
}

// workerDevice is what a campaign worker runs its sites on: a copy-on-write
// device, the site's launch and injection, the thread-start snapshot a run
// may resume from, and the state of injectOn's early-exit hooks with the
// candidate-page buffer they fill. All of it is reused site after site —
// the hooks are method values bound once, on the first site — and travels
// together between take and give.
type workerDevice struct {
	dev    *gpusim.Device
	launch gpusim.Launch
	inj    gpusim.Injection
	// start and dynAt (its per-thread counts) are the synthetic snapshot
	// of a thread-start resume (gpusim.WarpSnapshot.SetThreadStart).
	start gpusim.WarpSnapshot
	dynAt []int64

	// The site being run: its target, thread and CTA.
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
// of that invariant rather than a reachable branch today (DESIGN.md §3.11):
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
// decided (DESIGN.md §3.2, thread-boundary exit).
func (w *workerDevice) threadExit() bool {
	t := w.t
	w.div = t.prep.ckpt.AppendTouched(w.dev, w.cta, w.div[:0])
	w.exit, w.exited = t.deadOutcome(w.dev, w.thread, w.div)
	return w.exited
}

// workerRunner pins one workerDevice to a campaign worker so that
// consecutive sites of a snapshot group reset on ResetFrom's same-source
// fast path. Every run resets the device before use (from a checkpoint
// snapshot or the pristine image) and the reset is driven by the dirty-page
// list, so reuse is safe after trapped or failed runs. take detaches the
// pinned device (cloning the pristine image when the slot is empty), so a
// retry after an abandoned deadline attempt can never share a device or
// buffer with the stray goroutine still running the old attempt: the stray
// holds the detached device until its own give, which re-pins only if the
// slot is empty and otherwise harvests the device's counters and drops it —
// after the stray has stopped touching it.
type workerRunner struct {
	t     *Target
	model Model
	stats *deviceStats
	mu    sync.Mutex
	dev   *workerDevice
}

func (r *workerRunner) take() *workerDevice {
	r.mu.Lock()
	w := r.dev
	r.dev = nil
	r.mu.Unlock()
	if w == nil {
		r.stats.created.Add(1)
		w = &workerDevice{dev: r.t.Init.Clone()}
	}
	return w
}

func (r *workerRunner) give(w *workerDevice) {
	r.mu.Lock()
	if r.dev == nil {
		r.dev = w
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.stats.harvest(w.dev)
}

// run executes one site on the pinned device; it is the runSite hook the
// campaign engine calls under the durability guard.
func (r *workerRunner) run(s Site) (Outcome, runCost, error) {
	w := r.take()
	o, cost, err := r.t.injectOn(w, s, r.model)
	r.give(w)
	return o, cost, err
}

// close harvests the pinned device's counters (if any) into campaign stats.
func (r *workerRunner) close() {
	r.mu.Lock()
	w := r.dev
	r.dev = nil
	r.mu.Unlock()
	if w != nil {
		r.stats.harvest(w.dev)
	}
}
