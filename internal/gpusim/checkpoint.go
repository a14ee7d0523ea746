package gpusim

import "slices"

// Checkpointing captures the golden (fault-free) run's global-memory state at
// CTA boundaries so that injection runs can fast-forward: for a fault site in
// CTA c, the CTAs before c are bit-identical to the golden run (CTAs execute
// strictly sequentially and share only global memory), so the run can resume
// from the nearest snapshot at or below c instead of re-executing the prefix.
// Snapshots are copy-on-write Device clones — their cost is proportional to
// the inter-snapshot write sets, not the device footprint — and every CTA
// boundary additionally records per-page content hashes, so a run can list
// the pages on which it differs from golden state right after the injected
// CTA (Checkpoints.AppendDivergent). Access summaries of the golden run — the
// last thread to load each word, the last thread to store each word, the
// pages each CTA stores to — and its final image tell whether any later
// thread can observe or overwrite that divergence (AppendTouched,
// ObservedAfter, StoredAfter). "Last" is the largest flat thread index, so a
// question about the threads after the last thread of CTA c is the question
// about the CTAs after c. The same store summary rebuilds the golden memory
// at the start of a thread of a thread-independent kernel (ThreadStart).

// checkpointTableBytes bounds the page tables of an auto-strided store's
// snapshots. A snapshot is a copy-on-write Device clone: beyond the pages
// the golden run privatizes between snapshots (Bytes), it holds one slice
// header and two flags per page of global memory, snapshotPageBytes.
const (
	checkpointTableBytes = 16 << 20
	snapshotPageBytes    = 24 + 2
)

// AutoCheckpointStride picks a CTA-boundary snapshot stride for a grid of
// numCTAs CTAs over numPages pages of global memory: 1 — a snapshot at every
// boundary — unless the snapshots' page tables would exceed
// checkpointTableBytes, and then the smallest stride whose snapshots fit.
func AutoCheckpointStride(numCTAs, numPages int) int {
	fit := checkpointTableBytes / max(snapshotPageBytes*numPages, 1)
	if fit < 1 {
		return max(numCTAs, 1)
	}
	return max((numCTAs+fit-1)/fit, 1)
}

// Checkpoints is the immutable result of recording a golden run: snapshots at
// strided CTA boundaries plus per-boundary page hashes. It is read-only after
// Finish and safe for concurrent use by campaign workers. Boundary b denotes
// the instant after CTAs [0, b) have executed; boundary 0 is the pristine
// image.
type Checkpoints struct {
	stride  int
	numCTAs int
	// snaps[i] is the frozen device state at boundary i*stride.
	snaps []*Device
	// hashes[b] maps page index -> content hash for every page written
	// during CTAs [0, b); pages absent from the map still hold pristine
	// content. Maps are shared across boundaries with identical write sets.
	hashes []map[int32]uint64
	// mustWrite[b] lists the pages whose content at boundary b differs from
	// their content at the floor checkpoint boundary for CTA b-1 — the pages
	// a run resumed from that checkpoint must have dirtied to have reached
	// golden state at b.
	mustWrite [][]int32
	// pristineHash[p] is the hash of page p in the pristine image.
	pristineHash []uint64
	bytes        int64
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
	// final is the golden run's final image, frozen; finalBytes counts the
	// pages only it holds (privatized after the last snapshot).
	final      *Device
	finalBytes int64
	// tpc is the golden launch's threads per CTA. startOK is a bit set over
	// flat threads: bit t is set when no word is stored in the golden run
	// both by a thread in [f·tpc, t) and by a thread at or after t, where f
	// is the boundary of SnapshotFor(t's CTA) — then ThreadStart can rebuild
	// the memory at t's start (see ThreadStart).
	tpc     int
	startOK []uint64
}

// Stride is the CTA-boundary distance between snapshots.
func (c *Checkpoints) Stride() int { return c.stride }

// NumCTAs is the grid size the checkpoints were recorded over.
func (c *Checkpoints) NumCTAs() int { return c.numCTAs }

// Count is the number of snapshots retained (including the pristine image).
func (c *Checkpoints) Count() int { return len(c.snaps) }

// Bytes approximates the global-memory bytes retained by the snapshots
// beyond the pristine image (pages privatized by the golden run up to the
// last snapshot, at page granularity).
func (c *Checkpoints) Bytes() int64 { return c.bytes }

// SnapshotFor returns the snapshot with the largest boundary at or below cta,
// and that boundary — the resume point for an injection into cta.
func (c *Checkpoints) SnapshotFor(cta int) (*Device, int) {
	i := c.SnapshotIndex(cta)
	return c.snaps[i], i * c.stride
}

// SnapshotIndex returns the ordinal of the snapshot SnapshotFor(cta) resumes
// from. The campaign scheduler uses it as the affinity key: sites that share
// a snapshot index reset a pooled device on the same-source fast path.
func (c *Checkpoints) SnapshotIndex(cta int) int {
	i := cta / c.stride
	if i >= len(c.snaps) {
		i = len(c.snaps) - 1
	}
	return i
}

// SummaryBytes approximates the memory held by the golden run's access
// summaries and its final image (see AppendTouched, ObservedAfter,
// StoredAfter and ThreadStart): per page two word-table headers, lastLoad
// and both; one entry per word of every page the golden run loads or
// stores; the per-CTA stored-page lists; the final image's private pages;
// and one thread-start bit per thread.
func (c *Checkpoints) SummaryBytes() int64 {
	n := (24+24+4+4)*int64(len(c.lastLoad)) + 24*int64(len(c.storedIn)) // headers, int32s
	for p := range c.lastLoad {
		n += 4 * int64(len(c.loadWords[p])+len(c.lastStore[p]))
	}
	for _, pages := range c.storedIn {
		n += 4 * int64(len(pages))
	}
	return n + 16*int64(len(c.partial)) + c.finalBytes + 8*int64(len(c.startOK))
}

// AppendDivergent appends to buf the pages on which dev — reset from
// SnapshotFor(boundary-1) and executed through CTA boundary-1 — differs from
// the golden run's global memory at boundary, and returns the extended
// slice. A page diverges when the run dirtied it and it hashes differently
// from golden's content at boundary, or when golden changed it since the
// resume snapshot (mustWrite) and the run never dirtied it, so it still
// holds snapshot content. Each dirty page is hashed once; page equality is
// judged by 64-bit content hash (see Device.HashPage for the collision
// argument). Must not be called once boundary == NumCTAs: the final state is
// classified against the golden output instead.
//
// Callers must not act on the result while a persistent fault is live (the
// AfterCTA hook's faultLive flag): memory can match golden at the boundary
// while a stuck lane or barrier ghost still diverges a later CTA, so an
// early exit is only sound once the fault has retired with its thread
// (DESIGN.md §3.11).
func (c *Checkpoints) AppendDivergent(dev *Device, boundary int, buf []int32) []int32 {
	golden := c.hashes[boundary]
	for _, p := range dev.dirtyIdx {
		want, ok := golden[p]
		if !ok {
			want = c.pristineHash[p]
		}
		if dev.HashPage(int(p)) != want {
			buf = append(buf, p)
		}
	}
	for _, p := range c.mustWrite[boundary] {
		if !dev.dirty[p] {
			buf = append(buf, p)
		}
	}
	return buf
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
// AppendDivergent, without the hashing: no golden image exists mid-CTA.
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
// early exits (DESIGN.md §3.2). Its question is "does any later thread load a word whose value it
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
	return eachDiffWord(dev.pages[p], c.final.pages[p], int(p)<<pageShift, func(addr int) bool {
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

// ThreadStart writes into dev — reset from SnapshotFor(t's CTA), at
// boundary f — the golden run's global memory at the start of flat thread
// t of a thread-independent program under serial scheduling (no barrier,
// stores to global memory only), and reports whether it could; when it
// cannot it writes nothing. Threads of such a program run one at a time in
// flat order, so that memory is the snapshot plus the stores of threads
// [f·tpc, t). Word by word, on the pages CTAs f through t's CTA store to:
//
//   - a word whose last golden storer is in [f·tpc, t) takes its final
//     value, since no later thread stores it;
//   - a word no thread in [f·tpc, t) stores keeps the snapshot's value;
//   - a word stored both in [f·tpc, t) and at or after t has a value the
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
	_, f := c.SnapshotFor(cta)
	lo := f * c.tpc
	for x := f; x <= cta; x++ {
		for _, p := range c.storedIn[x] {
			final := c.final.pages[p]
			for i, s := range c.lastStore[p] {
				if int(s) >= lo && int(s) < t {
					dev.storeMem(int(p)<<pageShift+4*i, 4, getWord(final, 4*i))
				}
			}
		}
	}
	return true
}

// CheckpointRecorder observes the golden run on the device it is attached to
// and builds a Checkpoints store: at every CTA boundary it folds the CTA's
// write set into the page hashes and takes strided snapshots, and on every
// global load and store it updates the access summaries. The recorded device
// must start as a fresh clone of pristine and must never be reset (the
// recorder harvests its dirty-page tracking; see Device.TakeDirtyPages).
// Injection runs execute on other devices, where the recorder pointer is nil
// and each global access pays one nil test.
type CheckpointRecorder struct {
	dev *Device
	ck  *Checkpoints
	buf []int32
	// cur is the cumulative page->hash map at the last seen boundary.
	cur map[int32]uint64
	// intra, when non-nil, is the coupled intra-CTA recorder: it learns each
	// harvested CTA write set (its page deltas are relative to the last
	// retained boundary snapshot) and is told when a new snapshot is taken.
	intra *WarpCheckpointRecorder

	// The thread-start refusals (Checkpoints.startOK), built per segment —
	// the CTAs between two snapshots, whose first thread is segStart. A
	// word stored by threads a < … < m of a segment refuses the threads in
	// (a, m], and, once a later segment stores it too, the rest of the
	// segment after m. segFirst holds, per page stored in the segment, per
	// word the smallest thread storing it there (-1 for none); segPages
	// lists those pages and spare recycles their tables. refused is a
	// difference array over flat threads: a thread is refused when its
	// prefix sum is positive.
	segStart int
	segFirst [][]int32
	segPages []int32
	spare    [][]int32
	refused  []int32
}

// AttachIntra couples an intra-CTA recorder observing the same golden run:
// the boundary recorder forwards harvested write sets so warp snapshots can
// record page deltas relative to the retained boundary snapshots. Call
// before the golden Execute.
func (r *CheckpointRecorder) AttachIntra(w *WarpCheckpointRecorder) {
	r.intra = w
}

// NewCheckpointRecorder prepares recording for a numCTAs-CTA golden run of
// dev, cloned from pristine, and attaches it to dev: the next launch on dev
// is the golden run, from CTA 0. stride <= 0 selects AutoCheckpointStride.
// Call Finish after a successful Execute.
func NewCheckpointRecorder(pristine, dev *Device, numCTAs, stride int) *CheckpointRecorder {
	if stride <= 0 {
		stride = AutoCheckpointStride(numCTAs, dev.NumPages())
	}
	ck := &Checkpoints{
		stride:    stride,
		numCTAs:   numCTAs,
		snaps:     []*Device{pristine},
		hashes:    make([]map[int32]uint64, numCTAs+1),
		loadWords: make([][]int32, dev.NumPages()),
		lastStore: make([][]int32, dev.NumPages()),
		storedIn:  make([][]int32, numCTAs),
	}
	ck.hashes[0] = map[int32]uint64{}
	dev.TakeDirtyPages(nil) // discard host-side init writes, if any
	dev.TakePagesCopied()
	r := &CheckpointRecorder{dev: dev, ck: ck, cur: ck.hashes[0]}
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
	r.segFirst = make([][]int32, r.dev.NumPages())
}

// noteStore records a w-byte global store at byte address addr by flat
// thread thread.
func (r *CheckpointRecorder) noteStore(addr, w, thread int) {
	p, i := addr>>pageShift, addr&pageMask>>2
	if last := r.ck.lastStore[p]; last != nil {
		if prev := int(last[i]); prev >= 0 && prev < r.segStart {
			// The word's last store so far lies in an earlier segment, which
			// refuses its threads after that store.
			segEnd := min((prev/r.ck.tpc/r.ck.stride+1)*r.ck.stride, r.ck.numCTAs) * r.ck.tpc
			r.refuse(prev+1, segEnd)
		}
	}
	noteWord(r.ck.lastStore, addr, thread)
	first := r.segFirst[p]
	if first == nil {
		if n := len(r.spare); n > 0 {
			first, r.spare = r.spare[n-1], r.spare[:n-1]
		} else {
			first = make([]int32, PageSize/4)
			for i := range first {
				first[i] = -1
			}
		}
		r.segFirst[p] = first
		r.segPages = append(r.segPages, int32(p))
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
// write set as its stored-page list, folds it into the cumulative hash map
// and clones a snapshot at strided boundaries. A CTA boundary needs no
// scheduler or barrier ledger beyond the device image — CTAs run strictly
// sequentially, a CTA retires only when every thread has exited, and
// threads of a fresh CTA start with an empty ledger (no parked flags, no
// barrier arrivals, election order fixed by thread order) — so the device
// clone IS the complete resume point (DESIGN.md §3.11).
func (r *CheckpointRecorder) endCTA(cta int) {
	b := cta + 1
	r.buf = r.dev.TakeDirtyPages(r.buf)
	r.ck.storedIn[cta] = slices.Clone(r.buf)
	if r.intra != nil {
		r.intra.noteBoundaryWrites(r.buf)
	}
	if len(r.buf) > 0 {
		next := make(map[int32]uint64, len(r.cur)+len(r.buf))
		for p, h := range r.cur {
			next[p] = h
		}
		for _, p := range r.buf {
			next[p] = r.dev.HashPage(int(p))
		}
		r.cur = next
	}
	r.ck.hashes[b] = r.cur
	if b == r.ck.numCTAs || b%r.ck.stride == 0 {
		r.closeSegment()
		r.segStart = b * r.ck.tpc
	}
	if b < r.ck.numCTAs && b%r.ck.stride == 0 {
		// Pages privatized since the previous snapshot are the bytes this
		// snapshot pins beyond it.
		r.ck.bytes += r.dev.TakePagesCopied() * PageSize
		r.ck.snaps = append(r.ck.snaps, r.dev.Clone())
		if r.intra != nil {
			// Deltas of snapshots captured after this point are relative to
			// the boundary snapshot just retained.
			r.intra.resetBase()
		}
	}
}

// closeSegment ends the segment at a snapshot boundary (or the end of the
// grid): every word stored in it by threads a < … < m refuses the threads
// in (a, m], whose start lies between two of its stores.
func (r *CheckpointRecorder) closeSegment() {
	for _, p := range r.segPages {
		first, last := r.segFirst[p], r.ck.lastStore[p]
		for i, a := range first {
			if a >= 0 {
				r.refuse(int(a)+1, int(last[i])+1)
				first[i] = -1
			}
		}
		r.segFirst[p] = nil
		r.spare = append(r.spare, first)
	}
	r.segPages = r.segPages[:0]
}

// refuse marks the threads [lo, hi) as unable to resume at their start.
func (r *CheckpointRecorder) refuse(lo, hi int) {
	if lo < hi {
		r.refused[lo]++
		r.refused[hi]--
	}
}

// Finish detaches the recorder from its device, precomputes the per-boundary
// convergence obligations, the per-page load summaries and the thread-start
// bits, freezes the final image and returns the immutable store. Call
// exactly once, after the golden run completed without a trap.
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
	r.refused, r.segFirst, r.spare = nil, nil, nil
	// Pages privatized since the last snapshot are held by the final image
	// alone.
	ck.finalBytes = r.dev.TakePagesCopied() * PageSize
	ck.final = r.dev.Clone()
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
	pristine := ck.snaps[0]
	ck.pristineHash = make([]uint64, pristine.NumPages())
	for p := range ck.pristineHash {
		ck.pristineHash[p] = pristine.HashPage(p)
	}
	ck.mustWrite = make([][]int32, ck.numCTAs+1)
	for b := 1; b <= ck.numCTAs; b++ {
		floor := ((b - 1) / ck.stride) * ck.stride
		atFloor, atB := ck.hashes[floor], ck.hashes[b]
		var diff []int32
		for p, h := range atB {
			hf, ok := atFloor[p]
			if !ok {
				hf = ck.pristineHash[p]
			}
			if h != hf {
				diff = append(diff, p)
			}
		}
		ck.mustWrite[b] = diff
	}
	return ck
}
