package gpusim

import (
	"bytes"
	"slices"
	"unsafe"
)

// Intra-CTA (warp-granular) checkpointing captures the golden run's full
// architectural state at strided points *inside* a CTA — per-thread register
// files, predicate and offset registers, PCs, barrier arrival state, shared
// memory, and the global-memory pages the CTA has written so far — so that
// an injection into a site late in a CTA's dynamic trace can skip the
// fault-free prefix of that CTA instead of replaying it.
//
// Unlike CTA-boundary snapshots (copy-on-write Device clones), an intra-CTA
// snapshot must not clone the golden device mid-CTA: Clone freezes the device
// and clears the dirty-page tracking the CTA-boundary recorder harvests at
// the next boundary. Snapshots therefore store explicit page-content copies
// of the delta versus the CTA's boundary snapshot; resuming restores the
// delta through Device.WriteBytes, which marks those pages dirty and keeps
// the boundary divergence scan sound (restored pages are compared like any
// page the run wrote itself — see Checkpoints.AppendDivergent).
//
// Capture points are chosen so that re-entering the scheduler from a
// snapshot replays exactly the golden run's continuation: in serial mode
// after any retired instruction (threads before the current one in schedule
// order are all parked or exited, so the round loop re-reaches the current
// thread first), and in warp mode only at the end of a min-PC sweep (where
// the drive loop recomputes the minimum PC from scratch anyway).

// DefaultIntraSnapshots bounds the number of intra-CTA snapshots retained
// per CTA at the default start stride. The bound is a span: a CTA keeps its
// snapshots at the start stride over its first
// DefaultIntraSnapshots×defaultIntraStartStride (64Ki) retired instructions
// and is decimated only past that, so a smaller start stride keeps
// proportionally more snapshots and a short CTA keeps every capture.
const DefaultIntraSnapshots = 16

// defaultIntraStartStride is the initial capture stride in retired
// instructions; the recorder doubles it (decimating retained snapshots) once
// a CTA exceeds DefaultIntraSnapshots, so the effective K is tuned to the
// CTA's dynamic instruction count. The starting point is deliberately
// coarse: each capture copies the live threads' register files and the
// CTA's page delta, so short CTAs — whose whole prefix replays in about the
// time a snapshot restore takes —
// should get no intra snapshots at all rather than slow down every
// Prepare's golden run. Mid-CTA resume is aimed at the paper's regime of
// thousands-to-millions of dynamic instructions per CTA, where a <=4K
// prefix replay is noise.
const defaultIntraStartStride = 4096

// WarpSnapshot is one intra-CTA capture point: the complete architectural
// state needed to resume the CTA mid-flight, plus the global-memory delta
// versus the CTA's boundary snapshot. Immutable after capture.
//
// "Complete" includes the scheduler and synchronization ledger, which is
// what makes resuming sound under scheduler-corrupting persistent faults
// (DESIGN.md §3.1). The layout is compact and sized by the program, not
// the ISA: of the live threads only — those that have started and not
// exited — it keeps the execution state (threadExec: PC, predicate and
// offset registers, parked flag (waiting), barrier-arrival id (barID)) and
// the nregs registers the program names (execPlan.nregs); every thread
// keeps its retirement count (dynAt) and an exit bit. Restore (Execute)
// rebuilds the rest exactly: a thread that has not started is the fresh
// state every CTA starts from, and of an exited thread nothing but its exit
// and its count is ever read again — the schedulers skip it, and
// Result.ThreadICnt reads the count. Live threads are kept in CTA-local
// order, which is also the schedulers' fixed election order, so a thread's
// identity is its rank among the threads the capture rule (isLive) names;
// shared is the CTA's shared memory, one slice shared with the previous
// capture when their bytes are equal. dynAt pins each thread's position so
// SnapshotBefore can prove a snapshot predates a fault's activation point
// (armed-but-not-yet-activated persistState bookkeeping is derived, not
// stored: a resumed Execute re-arms the fault from the Injection and
// activation compares dynCount against DynInst, so a snapshot with
// dynAt[t] <= DynInst reproduces the armed state exactly; Execute rejects
// resumes past the activation point).
type WarpSnapshot struct {
	cta     int
	retired int64 // CTA-local retired-step count at capture
	// dynAt[t] is local thread t's dynamic instruction count at capture; a
	// site with DynInst >= dynAt[t] has not yet fired at this point.
	dynAt []int64
	// done is a bit set over local thread indices: the thread had exited.
	done []uint64
	// live holds the execution state of the started, not yet exited
	// threads in local order; regs holds their registers, nregs per thread
	// in the same order (len(regs) == len(live)·nregs).
	live []threadExec
	regs []uint32
	// shared is the CTA's shared memory; nil in a thread-start snapshot,
	// whose shared memory is the parameters every CTA starts from.
	shared []byte
	// pageIdx/pageDat hold the global-memory pages this CTA's prefix has
	// written, in page order, with content clipped to the device size.
	pageIdx []int32
	pageDat [][]byte
}

// CTA is the linear CTA index the snapshot was captured in.
func (ws *WarpSnapshot) CTA() int { return ws.cta }

// Retired is the CTA-local retired instruction count at capture.
func (ws *WarpSnapshot) Retired() int64 { return ws.retired }

// DynAt returns the dynamic instruction count of CTA-local thread t at
// capture time.
func (ws *WarpSnapshot) DynAt(t int) int64 { return ws.dynAt[t] }

// Waiting reports whether CTA-local thread t was parked at a barrier at
// capture time — part of the captured scheduler ledger.
func (ws *WarpSnapshot) Waiting(t int) bool {
	th := ws.liveThread(t)
	return th != nil && th.waiting
}

// BarrierID returns the barrier id CTA-local thread t was parked at (valid
// when Waiting(t)) — part of the captured scheduler ledger.
func (ws *WarpSnapshot) BarrierID(t int) uint32 {
	if th := ws.liveThread(t); th != nil {
		return th.barID
	}
	return 0
}

// Done reports whether CTA-local thread t had exited at capture time.
func (ws *WarpSnapshot) Done(t int) bool { return ws.exited(t) }

// exited reads local thread t's exit bit.
func (ws *WarpSnapshot) exited(t int) bool { return ws.done[t/64]&(1<<(t%64)) != 0 }

// isLive is the capture rule: local thread t had started and not exited,
// so the snapshot holds its execution state and registers.
func (ws *WarpSnapshot) isLive(t int) bool { return ws.dynAt[t] > 0 && !ws.exited(t) }

// liveThread returns local thread t's captured execution state, nil when t
// had not started or had exited.
func (ws *WarpSnapshot) liveThread(t int) *threadExec {
	if !ws.isLive(t) {
		return nil
	}
	rank := 0
	for i := range t {
		if ws.isLive(i) {
			rank++
		}
	}
	return &ws.live[rank]
}

// SetThreadStart makes ws the state of CTA cta at the start of its local
// thread local in a golden run of a thread-independent program under
// serial scheduling (no barrier, stores to global memory only): the
// threads before local have exited, with the retired counts dynAt[:local];
// the others have not started, so no thread is live; and shared memory
// holds the parameters, as when the CTA started — such a program never
// stores to shared memory, so that is its shared state at any point (a
// nil shared slice; startCTA writes the parameters). ws aliases dynAt,
// whose entries from local on it zeroes, and carries no page delta: the
// global memory at that point is the caller's to restore
// (Checkpoints.ThreadStart). Reusing one ws per worker keeps a resume
// allocation-free.
func (ws *WarpSnapshot) SetThreadStart(cta, local int, dynAt []int64) {
	clear(dynAt[local:])
	done := ws.done[:0]
	for i := 0; i < len(dynAt); i += 64 {
		done = append(done, 0)
	}
	var retired int64
	for i, n := range dynAt[:local] {
		done[i/64] |= 1 << (i % 64)
		retired += n
	}
	*ws = WarpSnapshot{cta: cta, retired: retired, dynAt: dynAt, done: done}
}

// RestorePages writes the snapshot's global-memory delta into dev, which
// must already hold the CTA's boundary snapshot content. Writing goes
// through the copy-on-write store path, so the restored pages are tracked
// dirty and take part in the divergence scan like run-written pages.
func (ws *WarpSnapshot) RestorePages(dev *Device) {
	for i, p := range ws.pageIdx {
		dev.WriteBytes(int(p)*PageSize, ws.pageDat[i])
	}
}

// sizeBytes approximates the memory the snapshot retains besides its shared
// memory, which may be one slice with its neighbours' and is counted once
// per slice by the recorder (see retain).
func (ws *WarpSnapshot) sizeBytes() int64 {
	n := 8*int64(len(ws.dynAt)+len(ws.done)) + int64(len(ws.live))*int64(unsafe.Sizeof(threadExec{})) + 4*int64(len(ws.regs))
	for _, d := range ws.pageDat {
		n += int64(len(d))
	}
	return n
}

// WarpCheckpoints is the immutable intra-CTA half of a Checkpoints store
// (Checkpoints.Warp): per-CTA lists of snapshots in capture order. Read-only
// after CheckpointRecorder.Finish and safe for concurrent use by campaign
// workers.
type WarpCheckpoints struct {
	perCTA [][]*WarpSnapshot
	count  int
	bytes  int64
}

// Count is the total number of snapshots retained across all CTAs.
func (w *WarpCheckpoints) Count() int { return w.count }

// Bytes approximates the memory retained by all snapshots (register files,
// shared memory, and page-delta copies).
func (w *WarpCheckpoints) Bytes() int64 { return w.bytes }

// PerCTA returns the number of snapshots retained for one CTA.
func (w *WarpCheckpoints) PerCTA(cta int) int { return len(w.perCTA[cta]) }

// Snapshot returns the ord-th retained snapshot of a CTA, in capture order.
func (w *WarpCheckpoints) Snapshot(cta, ord int) *WarpSnapshot { return w.perCTA[cta][ord] }

// SnapshotBefore returns the latest snapshot in cta at which CTA-local
// thread `local` had retired at most dyn dynamic instructions — the resume
// point for an injection at (local, dyn) — or nil when no snapshot precedes
// the site (the CTA prefix must then be replayed from the CTA boundary).
func (w *WarpCheckpoints) SnapshotBefore(cta, local int, dyn int64) *WarpSnapshot {
	if i := w.OrdinalBefore(cta, local, dyn); i >= 0 {
		return w.perCTA[cta][i]
	}
	return nil
}

// OrdinalBefore returns the index (within the CTA's snapshot list) of
// SnapshotBefore's choice, or -1 when no snapshot precedes the site. The
// campaign scheduler folds it into the affinity key so schedule chunks never
// span an intra-CTA snapshot boundary.
func (w *WarpCheckpoints) OrdinalBefore(cta, local int, dyn int64) int {
	if cta < 0 || cta >= len(w.perCTA) {
		return -1
	}
	snaps := w.perCTA[cta]
	// dynAt[local] is non-decreasing in capture order: scan from the latest.
	for i := len(snaps) - 1; i >= 0; i-- {
		if local < len(snaps[i].dynAt) && snaps[i].dynAt[local] <= dyn {
			return i
		}
	}
	return -1
}

// warpRecorder is the intra-CTA half of a CheckpointRecorder: it observes
// the golden run from inside the CTA schedulers and builds a WarpCheckpoints
// store. A capture's page delta is the device's dirty pages, which the
// boundary half harvests at every CTA boundary: the current CTA's writes
// relative to its boundary snapshot.
type warpRecorder struct {
	dev *Device
	ck  *WarpCheckpoints
	// startStride is the capture stride every CTA starts at; maxSnaps is
	// the number of snapshots a CTA retains before it is decimated.
	startStride int64
	maxSnaps    int

	// lastShared is the shared-memory slice of the latest capture, which the
	// next capture reuses when the bytes are equal; sharedRefs counts the
	// retained snapshots holding each such slice, so the store's byte count
	// includes every retained slice exactly once.
	lastShared []byte
	sharedRefs map[*byte]int

	cur         *ctaState
	curCTA      int
	nregs       int // the program's register footprint (execPlan.nregs)
	curStride   int64
	retired     int64
	nextCapture int64
	pending     bool
}

// newWarpRecorder prepares intra-CTA recording for a numCTAs-CTA golden run
// of dev. Captures start every start retired instructions
// (defaultIntraStartStride when start is 0), and a CTA's stride doubles
// whenever it would retain snapshots past the span DefaultIntraSnapshots
// describes: DefaultIntraSnapshots of them at the default start stride.
func newWarpRecorder(dev *Device, numCTAs, start int) *warpRecorder {
	if start <= 0 {
		start = defaultIntraStartStride
	}
	return &warpRecorder{
		dev:         dev,
		ck:          &WarpCheckpoints{perCTA: make([][]*WarpSnapshot, numCTAs)},
		startStride: int64(start),
		maxSnaps:    max(DefaultIntraSnapshots, DefaultIntraSnapshots*defaultIntraStartStride/start),
		sharedRefs:  make(map[*byte]int),
	}
}

// beginCTA rebinds the recorder to the CTA the launch is about to run, of
// a program whose register footprint is nregs. Called by Execute once per
// CTA.
func (r *warpRecorder) beginCTA(cta int, st *ctaState, nregs int) {
	r.curCTA = cta
	r.cur = st
	r.nregs = nregs
	r.curStride = r.startStride
	r.retired = 0
	r.nextCapture = r.curStride
	r.pending = false
}

// step accounts one retired instruction and marks a capture as due at stride
// boundaries. The schedulers call flush at resume-safe points only.
func (r *warpRecorder) step() {
	r.retired++
	if r.retired >= r.nextCapture {
		r.pending = true
	}
}

// flush captures a due snapshot. Call sites define the resume-safe points:
// after any step in serial mode, at min-PC sweep boundaries in warp mode.
func (r *warpRecorder) flush() {
	if !r.pending {
		return
	}
	r.pending = false
	r.capture()
	r.nextCapture = r.retired + r.curStride
}

// capture snapshots the current CTA state plus the global-memory delta
// versus the CTA's boundary snapshot.
func (r *warpRecorder) capture() {
	st := r.cur
	allDone := true
	for _, th := range st.threads {
		if !th.done {
			allDone = false
			break
		}
	}
	if allDone {
		// The CTA is about to finish; the boundary store covers this point.
		return
	}
	n, nlive := len(st.threads), 0
	for _, th := range st.threads {
		if th.dynCount > 0 && !th.done {
			nlive++
		}
	}
	ws := &WarpSnapshot{
		cta:     r.curCTA,
		retired: r.retired,
		dynAt:   make([]int64, n),
		done:    make([]uint64, (n+63)/64),
		live:    make([]threadExec, 0, nlive),
		regs:    make([]uint32, 0, nlive*r.nregs),
	}
	for i, th := range st.threads {
		ws.dynAt[i] = th.dynCount
		switch {
		case th.done:
			ws.done[i/64] |= 1 << (i % 64)
		case th.dynCount > 0:
			ws.live = append(ws.live, th.threadExec)
			ws.regs = append(ws.regs, th.regs[:r.nregs]...)
		}
	}
	if !bytes.Equal(r.lastShared, st.shared) {
		r.lastShared = append([]byte(nil), st.shared...)
	}
	ws.shared = r.lastShared
	// Delta pages: the current CTA's writes so far, the device's dirty index,
	// which holds no duplicates between the boundary recorder's harvests.
	ws.pageIdx = slices.Clone(r.dev.DirtyPages())
	slices.Sort(ws.pageIdx)
	ws.pageDat = make([][]byte, len(ws.pageIdx))
	for i, p := range ws.pageIdx {
		n := min(PageSize, r.dev.size-int(p)*PageSize)
		ws.pageDat[i] = append([]byte(nil), r.dev.pages[p][:n]...)
	}
	snaps := append(r.ck.perCTA[r.curCTA], ws)
	r.retain(ws, 1)
	// Decimation: keep memory proportional to at most maxSnaps snapshots per
	// CTA by doubling the stride and dropping every other snapshot, keeping
	// the later of each pair, which covers late sites. Any subset of
	// snapshots stays sound — SnapshotBefore just resumes from an earlier
	// point — so decimation never invalidates anything.
	if len(snaps) > r.maxSnaps {
		r.curStride *= 2
		kept := snaps[:0]
		for i, s := range snaps {
			if i%2 == 1 {
				kept = append(kept, s)
			} else {
				r.retain(s, -1)
			}
		}
		clear(snaps[len(kept):])
		snaps = kept
	}
	r.ck.perCTA[r.curCTA] = snaps
}

// retain adds (delta 1) or drops (delta -1) a snapshot in the store's
// totals, counting its shared-memory slice while at least one retained
// snapshot holds it.
func (r *warpRecorder) retain(ws *WarpSnapshot, delta int) {
	r.ck.count += delta
	r.ck.bytes += int64(delta) * ws.sizeBytes()
	key := &ws.shared[0]
	switch refs := r.sharedRefs[key] + delta; {
	case refs == 0:
		delete(r.sharedRefs, key)
		r.ck.bytes -= int64(len(ws.shared))
	case refs == 1 && delta > 0:
		r.sharedRefs[key] = refs
		r.ck.bytes += int64(len(ws.shared))
	default:
		r.sharedRefs[key] = refs
	}
}
