package fault

import (
	"sync"

	"repro/internal/gpusim"
)

// Snapshot-affine scheduling. The schedule order already sorts sites by CTA,
// so sites resuming from the same checkpoint snapshot are contiguous; what a
// shared batch cursor destroys is *which worker* runs them: a pooled device
// that just reset from snapshot k pays a full owned-page restore the moment
// its worker picks up a site of snapshot k+1 (see Device.ResetFrom). The
// scheduler below instead cuts the work list into chunks that never span a
// snapshot boundary, assigns contiguous chunk runs to workers, and lets an
// idle worker steal whole chunks — so a device switches snapshot sources at
// chunk boundaries only, and AffinityResets stays near the number of chunk
// transitions rather than the number of sites. Scheduling can only change
// which device runs a site, never the site's outcome: every run resets its
// device to the same snapshot content regardless of provenance (DESIGN.md
// §3.4).

// chunk is a half-open run [lo, hi) of work positions sharing one affinity
// key (or an arbitrary run when the campaign has no affinity).
type chunk struct{ lo, hi int }

// chunkTargetSize picks the chunk granule: small enough that every worker
// gets several chunks (so stealing can rebalance), never below the old
// batch size of 16 (so the shared-state cadence stays coarse).
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

// chunkQueues deals chunks to workers: each worker owns a contiguous run of
// chunks (assigned proportionally by site count, so snapshot groups stay
// together even when their sizes are skewed) and, once its own queue
// drains, steals whole chunks from the back of the queue of the worker with
// the most remaining sites.
type chunkQueues struct {
	mu     sync.Mutex
	chunks []chunk
	queues [][]int // per-worker chunk indices, in execution order
	remain []int   // per-worker queued (not yet handed out) site count
}

func newChunkQueues(chunks []chunk, workers, nwork int) *chunkQueues {
	q := &chunkQueues{
		chunks: chunks,
		queues: make([][]int, workers),
		remain: make([]int, workers),
	}
	w, assigned := 0, 0
	for ci, c := range chunks {
		// Move to the next worker once this one holds its proportional
		// share of sites; chunk ci stays contiguous with its predecessors.
		for w < workers-1 && assigned >= (w+1)*nwork/workers {
			w++
		}
		q.queues[w] = append(q.queues[w], ci)
		q.remain[w] += c.hi - c.lo
		assigned += c.hi - c.lo
	}
	return q
}

// next hands worker w its next chunk: the front of its own queue, else a
// whole chunk stolen from the back of the fullest queue. ok is false when no
// work is left anywhere.
func (q *chunkQueues) next(w int) (c chunk, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var ci int
	if own := q.queues[w]; len(own) > 0 {
		ci, q.queues[w] = own[0], own[1:]
		q.remain[w] -= q.chunks[ci].hi - q.chunks[ci].lo
	} else {
		victim := -1
		for v := range q.queues {
			if len(q.queues[v]) > 0 && (victim < 0 || q.remain[v] > q.remain[victim]) {
				victim = v
			}
		}
		if victim < 0 {
			return chunk{}, false
		}
		vq := q.queues[victim]
		ci, q.queues[victim] = vq[len(vq)-1], vq[:len(vq)-1]
		q.remain[victim] -= q.chunks[ci].hi - q.chunks[ci].lo
	}
	return q.chunks[ci], true
}

// workerRunner pins one pooled device to a campaign worker so that
// consecutive sites of a snapshot group reset on ResetFrom's same-source
// fast path. take detaches the pinned device (falling back to the pool), so
// a retry after an abandoned deadline attempt can never share a device with
// the stray goroutine still running the old attempt: the stray holds the
// detached device until its own give, which re-pins only if the slot is
// empty and otherwise returns the device to the pool — after the stray has
// stopped touching it.
type workerRunner struct {
	t     *Target
	model Model
	pool  *devicePool
	mu    sync.Mutex
	dev   *gpusim.Device
}

func (r *workerRunner) take() *gpusim.Device {
	r.mu.Lock()
	d := r.dev
	r.dev = nil
	r.mu.Unlock()
	if d == nil {
		d = r.pool.get()
	}
	return d
}

func (r *workerRunner) give(d *gpusim.Device) {
	r.mu.Lock()
	if r.dev == nil {
		r.dev = d
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.pool.put(d)
}

// run executes one site on the pinned device; it is the runSite hook the
// campaign engine calls under the durability guard.
func (r *workerRunner) run(s Site) (Outcome, runCost, error) {
	d := r.take()
	o, cost, err := r.t.injectOn(d, s, r.model)
	r.give(d)
	return o, cost, err
}

// close returns the pinned device (if any) to the pool so its counters are
// harvested into campaign stats.
func (r *workerRunner) close() {
	r.mu.Lock()
	d := r.dev
	r.dev = nil
	r.mu.Unlock()
	if d != nil {
		r.pool.put(d)
	}
}
