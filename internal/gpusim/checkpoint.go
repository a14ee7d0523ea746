package gpusim

import "bytes"

// Checkpointing captures the golden (fault-free) run's global-memory state at
// every CTA boundary so that injection runs can fast-forward: for a fault
// site in CTA c, the CTAs before c are bit-identical to the golden run (CTAs
// execute strictly sequentially and share only global memory), so the run
// resumes from the snapshot at boundary c instead of re-executing the
// prefix. Snapshots are copy-on-write Device clones — their cost is
// proportional to the CTAs' write sets plus one page table each, not the
// device footprint — and the snapshot at boundary c+1 is the golden image a
// run is compared against right after the injected CTA
// (Checkpoints.AppendDivergent); the last one is the golden run's final
// image. Access summaries of the golden run — the last thread to load each
// word, the last thread to store each word, the pages each CTA stores to —
// and its final image tell whether any later thread can observe or
// overwrite that divergence (AppendTouched, ObservedAfter, StoredAfter).
// "Last" is the largest flat thread index, so a question about the threads
// after the last thread of CTA c is the question about the CTAs after c.
// The same store summary rebuilds the golden memory at the start of a
// thread of a thread-independent kernel (ThreadStart). One recorder builds
// all of it for every grid size, a single CTA included, together with the
// intra-CTA snapshots of warpckpt.go.

// Checkpoints is the immutable result of recording a golden run: a snapshot
// at every CTA boundary, the run's access summaries and its intra-CTA
// snapshots (Warp). It is read-only after Finish and safe for concurrent
// use by campaign workers. Boundary b denotes the instant after CTAs [0, b)
// have executed; boundary 0 is the pristine image.
type Checkpoints struct {
	numCTAs int
	// snaps[b] is the frozen device state at boundary b, for b <= numCTAs:
	// snaps[numCTAs] is the golden run's final image.
	snaps []*Device
	bytes int64
	// loadWords[p], for each page the golden run loads from (nil for the
	// others), holds per 4-byte word of the page the last (largest flat
	// index) thread that loads it, -1 when none does. lastLoad[p] is the
	// largest entry of loadWords[p]: the last thread that loads page p, -1
	// when none does.
	loadWords [][]int32
	lastLoad  []int32
	// lastStore[p] is loadWords' twin for stores: per word of each page the
	// golden run stores to, the last thread that stores to it.
	lastStore [][]int32
	// both[p] is the largest min(last loader, last storer) over the words
	// of page p: a word loaded and stored after thread t exists on p iff
	// both[p] > t. -1 when no word of p is both loaded and stored.
	both []int32
	// partial holds the word indices (byte address / 4) the golden run
	// stores to with a sub-word access at least once; nil when it never
	// does.
	partial map[int]bool
	// storedIn[c] lists the pages CTA c stores to in the golden run.
	storedIn [][]int32
	// finalBytes counts the pages only the final image holds (privatized
	// after the last boundary before it).
	finalBytes int64
	// warp is the intra-CTA snapshot store, nil when nothing was captured.
	warp *WarpCheckpoints
	// tpc is the golden launch's threads per CTA. startOK is a bit set over
	// flat threads: bit t is set when no word is stored in the golden run
	// both by a thread in [c·tpc, t) and by a thread at or after t, c being
	// t's CTA — then ThreadStart can rebuild the memory at t's start (see
	// ThreadStart).
	tpc     int
	startOK []uint64
}

// NumCTAs is the grid size the checkpoints were recorded over.
func (c *Checkpoints) NumCTAs() int { return c.numCTAs }

// Count is the number of snapshots a run can resume from, one per CTA
// (including the pristine image).
func (c *Checkpoints) Count() int { return c.numCTAs }

// Bytes approximates the global-memory bytes retained by the snapshots
// beyond the pristine image (pages privatized by the golden run up to the
// last CTA boundary before the final image, at page granularity).
func (c *Checkpoints) Bytes() int64 { return c.bytes }

// Warp returns the intra-CTA snapshot store recorded with the boundary
// snapshots, nil when the golden run retired too few instructions per CTA
// for any capture.
func (c *Checkpoints) Warp() *WarpCheckpoints { return c.warp }

// SnapshotFor returns the snapshot at boundary cta and that boundary — the
// resume point for an injection into cta.
func (c *Checkpoints) SnapshotFor(cta int) (*Device, int) {
	return c.snaps[cta], cta
}

// SummaryBytes approximates the memory held by the golden run's access
// summaries, its final image and the snapshots' page tables (see
// AppendTouched, ObservedAfter, StoredAfter and ThreadStart): per page two
// word-table headers, lastLoad and both; one entry per word of every page
// the golden run loads or stores; the per-CTA stored-page lists; the final
// image's private pages; one thread-start bit per thread; and, for the
// final image and every snapshot but the pristine one, a page table of one
// slice header and two flags per page.
func (c *Checkpoints) SummaryBytes() int64 {
	n := (24+24+4+4)*int64(len(c.lastLoad)) + 24*int64(len(c.storedIn)) // headers, int32s
	for p := range c.lastLoad {
		n += 4 * int64(len(c.loadWords[p])+len(c.lastStore[p]))
	}
	for _, pages := range c.storedIn {
		n += 4 * int64(len(pages))
	}
	tables := (24 + 2) * int64(len(c.snaps)-1) * int64(c.snaps[0].NumPages())
	return n + 16*int64(len(c.partial)) + c.finalBytes + 8*int64(len(c.startOK)) + tables
}

// AppendDivergent appends to buf the pages on which dev — reset from
// SnapshotFor(boundary-1) and executed through CTA boundary-1 — differs from
// the golden run's global memory at boundary, and returns the extended
// slice: the pages of AppendTouched(dev, boundary-1) whose bytes differ
// from the snapshot at boundary. Any other page holds the resume
// snapshot's content, which CTA boundary-1 did not change. boundary runs
// from 1 to NumCTAs; the golden memory at NumCTAs is the final image.
//
// Callers must not act on the result while a persistent fault is live (the
// AfterCTA hook's faultLive flag): memory can match golden at the boundary
// while a stuck lane or barrier ghost still diverges a later CTA, so an
// early exit is only sound once the fault has retired with its thread
// (DESIGN.md §3.1).
func (c *Checkpoints) AppendDivergent(dev *Device, boundary int, buf []int32) []int32 {
	n := len(buf)
	buf = c.AppendTouched(dev, boundary-1, buf)
	golden := c.snaps[boundary]
	div := buf[:n]
	for _, p := range buf[n:] {
		if !bytes.Equal(dev.pages[p], golden.pages[p]) {
			div = append(div, p)
		}
	}
	return div
}

// Converged reports whether dev holds exactly the golden run's global memory
// at boundary: the empty case of AppendDivergent, under the same
// preconditions. If it does, the remaining CTAs of an injection run are
// bit-identical to golden (determinism; no cross-CTA state besides global
// memory), so the run is Masked without executing them.
func (c *Checkpoints) Converged(dev *Device, boundary int) bool {
	var buf [8]int32
	return len(c.AppendDivergent(dev, boundary, buf[:0])) == 0
}

// AppendTouched appends to buf the pages a run paused mid-CTA cta may hold
// differently from the golden run at the same point, and returns the
// extended slice: every page dev dirtied since its reset — replayed golden
// stores, a restored warp-snapshot delta, the fault's own stores — plus
// every page CTA cta stores to in the golden run that dev has not dirtied
// (a store the fault made the run skip leaves such a page at snapshot
// content). Any other page still holds the reset snapshot's content, which
// golden has not changed since: every golden store from the resume point on
// is replayed, restored or made by CTA cta. It is the mid-CTA analogue of
// AppendDivergent, without the comparison: no golden image exists mid-CTA.
func (c *Checkpoints) AppendTouched(dev *Device, cta int, buf []int32) []int32 {
	buf = append(buf, dev.dirtyIdx...)
	for _, p := range c.storedIn[cta] {
		if !dev.dirty[p] {
			buf = append(buf, p)
		}
	}
	return buf
}

// ObservedAfter reports whether a thread after thread t may observe how
// dev's page p differs from the golden run at the point where thread t
// retired: the word-granular refusal rule of the thread and CTA-boundary
// early exits (DESIGN.md §3.1). Its question is "does any later thread load a word whose value it
// would see differently", answered from the golden run's summaries:
//
//   - a word loaded and stored after t (both[p] > t): golden's value of it
//     at t is unknown — the final image shows the later store — so the page
//     refuses whatever dev holds;
//   - otherwise every word loaded after t is stored at or before t, so its
//     golden value at t is its golden final value: the page refuses iff
//     such a word differs between dev and the final image.
//
// The differing words are found by halving, so a page equal to the final
// image costs one comparison.
func (c *Checkpoints) ObservedAfter(dev *Device, p int32, t int) bool {
	if int(c.both[p]) > t {
		return true
	}
	if int(c.lastLoad[p]) <= t {
		return false
	}
	loads := c.loadWords[p]
	return eachDiffWord(dev.pages[p], c.snaps[c.numCTAs].pages[p], int(p)<<pageShift, func(addr int) bool {
		return int(loads[addr&pageMask>>2]) > t
	})
}

// StoredAfter reports whether some thread after thread t stores to the
// 4-byte word holding byte addr in the golden run, and, if one does,
// whether any golden store to that word is narrower than the word — then a
// later store may overwrite only part of it.
func (c *Checkpoints) StoredAfter(addr, t int) (stored, partial bool) {
	words := c.lastStore[addr>>pageShift]
	if words == nil || int(words[addr&pageMask>>2]) <= t {
		return false, false
	}
	return true, c.partial[addr>>2]
}

// ThreadStart writes into dev — reset from SnapshotFor(c), c being t's CTA
// — the golden run's global memory at the start of flat thread t of a
// thread-independent program under serial scheduling (no barrier, stores
// to global memory only), and reports whether it could; when it cannot it
// writes nothing. Threads of such a program run one at a time in flat
// order, so that memory is the snapshot plus the stores of threads
// [c·tpc, t). Word by word, on the pages CTA c stores to:
//
//   - a word whose last golden storer is in [c·tpc, t) takes its final
//     value, since no later thread stores it;
//   - a word no thread in [c·tpc, t) stores keeps the snapshot's value;
//   - a word stored both in [c·tpc, t) and at or after t has a value the
//     summaries cannot tell; then t's startOK bit is clear and ThreadStart
//     refuses.
//
// The patched words go through the tracked store path, so their pages are
// dirty like replayed golden stores and AppendTouched and AppendDivergent
// stay complete.
func (c *Checkpoints) ThreadStart(dev *Device, t int) bool {
	if c.startOK[t/64]&(1<<(t%64)) == 0 {
		return false
	}
	cta := t / c.tpc
	lo := cta * c.tpc
	for _, p := range c.storedIn[cta] {
		final := c.snaps[c.numCTAs].pages[p]
		for i, s := range c.lastStore[p] {
			if int(s) >= lo && int(s) < t {
				dev.storeMem(int(p)<<pageShift+4*i, 4, getWord(final, 4*i))
			}
		}
	}
	return true
}

// CheckpointRecorder observes the golden run on the device it is attached to
// and builds a Checkpoints store: at every CTA boundary it keeps the CTA's
// write set and takes a snapshot, on every global load and store it updates
// the access summaries, and its warp half captures snapshots inside each
// CTA. The recorded device must start as a fresh clone of pristine and must
// never be reset (the recorder harvests its dirty-page tracking; see
// Device.TakeDirtyPages). Injection runs execute on other devices, where the
// recorder pointer is nil and each global access pays one nil test.
type CheckpointRecorder struct {
	dev *Device
	ck  *Checkpoints
	// warp is the intra-CTA half, which Execute drives from the schedulers.
	warp *warpRecorder

	// The thread-start refusals (Checkpoints.startOK), built per CTA, whose
	// first thread is ctaStart. A word stored by threads a < … < m of a CTA
	// refuses the threads in (a, m], and, once a later CTA stores it too,
	// the rest of the CTA after m. ctaFirst holds, per page stored in the
	// CTA, per word the smallest thread storing it there (-1 for none);
	// ctaPages lists those pages and spare recycles their tables. refused is
	// a difference array over flat threads: a thread is refused when its
	// prefix sum is positive.
	ctaStart int
	ctaFirst [][]int32
	ctaPages []int32
	spare    [][]int32
	refused  []int32
}

// NewCheckpointRecorder prepares recording for a numCTAs-CTA golden run of
// dev, cloned from pristine, and attaches it to dev: the next launch on dev
// is the golden run, from CTA 0. The warp half captures a snapshot every
// intraStart retired instructions of a CTA to begin with (0 selects the
// default, 4096) and doubles the CTA's stride whenever it would retain more
// than DefaultIntraSnapshots. Call Finish after a successful Execute.
func NewCheckpointRecorder(pristine, dev *Device, numCTAs, intraStart int) *CheckpointRecorder {
	ck := &Checkpoints{
		numCTAs:   numCTAs,
		snaps:     []*Device{pristine},
		loadWords: make([][]int32, dev.NumPages()),
		lastStore: make([][]int32, dev.NumPages()),
		storedIn:  make([][]int32, numCTAs),
	}
	dev.TakeDirtyPages(nil) // discard host-side init writes, if any
	dev.TakePagesCopied()
	r := &CheckpointRecorder{dev: dev, ck: ck, warp: newWarpRecorder(dev, numCTAs, intraStart)}
	dev.rec = r
	return r
}

// noteLoad records a global load at byte address addr by flat thread
// thread. Accesses are width-aligned, so a load lies in one word.
func (r *CheckpointRecorder) noteLoad(addr, thread int) {
	noteWord(r.ck.loadWords, addr, thread)
}

// begin learns the golden launch's CTA size; Execute calls it before the
// first CTA runs.
func (r *CheckpointRecorder) begin(tpc int) {
	r.ck.tpc = tpc
	r.refused = make([]int32, r.ck.numCTAs*tpc+1)
	r.ctaFirst = make([][]int32, r.dev.NumPages())
}

// noteStore records a w-byte global store at byte address addr by flat
// thread thread.
func (r *CheckpointRecorder) noteStore(addr, w, thread int) {
	p, i := addr>>pageShift, addr&pageMask>>2
	if last := r.ck.lastStore[p]; last != nil {
		if prev := int(last[i]); prev >= 0 && prev < r.ctaStart {
			// The word's last store so far lies in an earlier CTA, which
			// refuses its threads after that store.
			r.refuse(prev+1, (prev/r.ck.tpc+1)*r.ck.tpc)
		}
	}
	noteWord(r.ck.lastStore, addr, thread)
	first := r.ctaFirst[p]
	if first == nil {
		if n := len(r.spare); n > 0 {
			first, r.spare = r.spare[n-1], r.spare[:n-1]
		} else {
			first = make([]int32, PageSize/4)
			for i := range first {
				first[i] = -1
			}
		}
		r.ctaFirst[p] = first
		r.ctaPages = append(r.ctaPages, int32(p))
	}
	if f := &first[i]; *f < 0 || int32(thread) < *f {
		*f = int32(thread)
	}
	if w < 4 {
		if r.ck.partial == nil {
			r.ck.partial = make(map[int]bool)
		}
		r.ck.partial[addr>>2] = true
	}
}

// noteWord raises the word table entry of byte address addr to thread,
// allocating the page's table on its first access. Taking the maximum
// rather than the latest makes the entry independent of the scheduler's
// interleaving: under barriers or lockstep warps a lower thread can access
// a word after a higher one.
func noteWord(tables [][]int32, addr, thread int) {
	p := addr >> pageShift
	words := tables[p]
	if words == nil {
		words = make([]int32, PageSize/4)
		for i := range words {
			words[i] = -1
		}
		tables[p] = words
	}
	if w := &words[addr&pageMask>>2]; int32(thread) > *w {
		*w = int32(thread)
	}
}

// endCTA runs when CTA cta of the golden run retires: it keeps the CTA's
// write set as its stored-page list, closes the CTA's thread-start
// refusals — every word stored in it by threads a < … < m refuses the
// threads in (a, m], whose start lies between two of its stores — and,
// below the last boundary, clones a snapshot. A CTA boundary needs no
// scheduler or barrier ledger beyond the device image — CTAs run strictly
// sequentially, a CTA retires only when every thread has exited, and
// threads of a fresh CTA start with an empty ledger (no parked flags, no
// barrier arrivals, election order fixed by thread order) — so the device
// clone IS the complete resume point (DESIGN.md §3.1).
func (r *CheckpointRecorder) endCTA(cta int) {
	b := cta + 1
	r.ck.storedIn[cta] = r.dev.TakeDirtyPages(nil)
	for _, p := range r.ctaPages {
		first, last := r.ctaFirst[p], r.ck.lastStore[p]
		for i, a := range first {
			if a >= 0 {
				r.refuse(int(a)+1, int(last[i])+1)
				first[i] = -1
			}
		}
		r.ctaFirst[p] = nil
		r.spare = append(r.spare, first)
	}
	r.ctaPages = r.ctaPages[:0]
	r.ctaStart = b * r.ck.tpc
	if b < r.ck.numCTAs {
		// Pages privatized since the previous snapshot are the bytes this
		// snapshot pins beyond it.
		r.ck.bytes += r.dev.TakePagesCopied() * PageSize
		r.ck.snaps = append(r.ck.snaps, r.dev.Clone())
	}
}

// refuse marks the threads [lo, hi) as unable to resume at their start.
func (r *CheckpointRecorder) refuse(lo, hi int) {
	if lo < hi {
		r.refused[lo]++
		r.refused[hi]--
	}
}

// Finish detaches the recorder from its device, precomputes the per-page
// load summaries and the thread-start bits, freezes the final image as the
// last snapshot and returns the immutable store, warp snapshots included.
// Call exactly once, after the golden run completed without a trap.
func (r *CheckpointRecorder) Finish() *Checkpoints {
	r.dev.rec = nil
	// The golden device runs no launch after the recording, but every
	// snapshot clone keeps it reachable (Device.src): drop its scratch.
	r.dev.scratch = nil
	ck := r.ck
	nThreads := len(r.refused) - 1
	ck.startOK = make([]uint64, (nThreads+63)/64)
	for t, depth := 0, int32(0); t < nThreads; t++ {
		if depth += r.refused[t]; depth == 0 {
			ck.startOK[t/64] |= 1 << (t % 64)
		}
	}
	r.refused, r.ctaFirst, r.spare = nil, nil, nil
	// Pages privatized since the last boundary snapshot are held by the
	// final image alone.
	ck.finalBytes = r.dev.TakePagesCopied() * PageSize
	ck.snaps = append(ck.snaps, r.dev.Clone())
	if w := r.warp.ck; w.count > 0 {
		ck.warp = w
	}
	ck.lastLoad = make([]int32, len(ck.loadWords))
	ck.both = make([]int32, len(ck.loadWords))
	for p, loads := range ck.loadWords {
		ck.lastLoad[p], ck.both[p] = -1, -1
		stores := ck.lastStore[p]
		for w, l := range loads {
			ck.lastLoad[p] = max(ck.lastLoad[p], l)
			if stores != nil {
				ck.both[p] = max(ck.both[p], min(l, stores[w]))
			}
		}
	}
	return ck
}
