// Package gpusim is a functional SIMT GPU simulator for the PTXPlus-flavoured
// ISA in internal/isa. It stands in for GPGPU-Sim (PTXPlus mode) as the
// fault-injection substrate of the reproduced paper: it executes a kernel
// grid thread by thread with CTA-level barrier scheduling, exposes the exact
// fault surface the paper targets (the destination register of every dynamic
// instruction of every thread), and classifies abnormal terminations
// (memory faults, watchdog hangs, barrier deadlocks) that fold into the
// paper's "other" outcome category.
//
// The memory system is built for injection campaigns that run the same
// kernel thousands of times with one bit flipped per run. Device holds
// global memory as copy-on-write pages (PageSize): Clone freezes the
// current image and shares every page, ResetFrom restores a pooled device
// to a frozen image copying only the pages a run dirtied, and HashPage
// summarizes page content for the prepared-target cache's key. Checkpoints
// layers a snapshot of the fault-free ("golden") run at every CTA boundary
// on top, so an injection into CTA k resumes from the snapshot at k instead
// of re-executing the fault-free prefix, and in a thread-independent kernel
// at the injected thread's own start (ThreadStart); AppendDivergent lists
// the pages on which a run's memory differs, byte for byte, from the
// snapshot at a boundary, and the golden run's access summaries and final
// image (ObservedAfter, StoredAfter) tell whether any later thread can
// observe or overwrite them, so a run can end early — at a CTA boundary, or
// where the injected thread exits — once its memory matches golden or its
// divergence is provably dead.
//
// Execution entry points: Execute runs a Launch to completion (or trap),
// optionally injecting one fault (Injection) and tracing every retired
// instruction (Tracer); ProfileTrace captures the per-thread dynamic PC
// streams the pruning methodology consumes.
package gpusim

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// Dim3 is a CUDA-style 3-component extent.
type Dim3 struct{ X, Y, Z int }

// Count returns the number of elements covered by the extent.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x == 0 {
		x = 1
	}
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// ParamBase is the byte offset in shared memory where kernel parameters are
// materialized, mirroring PTXPlus listings that read the first parameter at
// s[0x0010].
const ParamBase = 0x10

// DefaultSharedBytes is the per-CTA shared memory size when a launch does
// not specify one (16 KiB, the Fermi-era default the paper's baseline uses).
const DefaultSharedBytes = 16 * 1024

// DefaultWatchdog is the per-thread dynamic instruction ceiling when a
// launch does not specify one. Fault-free kernels in this repository run a
// few thousand dynamic instructions per thread at most, so one million
// indicates a runaway (hang) with a wide margin.
const DefaultWatchdog = 1_000_000

// Launch describes one kernel launch.
type Launch struct {
	// Prog is the assembled kernel.
	Prog *isa.Program
	// Grid and Block are the CTA grid and per-CTA thread extents.
	Grid, Block Dim3
	// Params are the kernel parameters, copied to each CTA's shared memory
	// at ParamBase (word k at byte ParamBase+4k).
	Params []uint32
	// SharedBytes is the per-CTA shared memory size; 0 means
	// DefaultSharedBytes.
	SharedBytes int
	// Watchdog is the per-thread dynamic instruction ceiling; 0 means
	// DefaultWatchdog. Exceeding it raises a TrapWatchdog (a hang).
	Watchdog int64
	// Inject, when non-nil, flips one destination-register bit at one
	// dynamic instruction of one thread.
	Inject *Injection
	// Tracer, when non-nil, observes every dynamic instruction.
	Tracer Tracer
	// WarpSize selects the intra-CTA scheduling model: 0 runs threads
	// serially to barrier boundaries (fast, the default); a positive value
	// executes threads in SIMT lockstep warps of that width with min-PC
	// reconvergence, like the paper's GPGPU-Sim substrate. Per-thread
	// dynamic traces — and therefore fault sites and outcomes — are
	// identical across modes for race-free kernels; the warp mode exists
	// to validate exactly that.
	WarpSize int
	// FirstCTA resumes the launch at the CTA with this linear index
	// (ctaid.z-major order, as Execute iterates). CTAs before it are skipped
	// entirely: the device must already hold their global-memory effects
	// (typically restored from a checkpoint snapshot), and their ThreadICnt
	// entries stay zero. CTAs do not share thread or shared-memory state, so
	// a resumed suffix is bit-identical to the same suffix of a full run.
	FirstCTA int
	// AfterCTA, when non-nil, is invoked after each CTA completes without a
	// trap, with the CTA's linear index and whether a persistent fault is
	// still live — armed or active with its injected thread not yet exited
	// (always false for transient or absent injections). Returning true
	// stops the launch early: remaining CTAs are not executed and the
	// Result reflects progress so far. An injection run's early exits hook
	// here — golden-state convergence, or divergence no later CTA can
	// observe — and the faultLive flag lets them refuse to stop while a
	// scheduler-corrupting fault could still diverge a later CTA (DESIGN.md
	// §3.2, §3.11).
	AfterCTA func(cta int, faultLive bool) bool
	// AfterInjected, when non-nil, is invoked once under serial scheduling
	// (WarpSize 0), when the injected thread has exited without a trap and
	// the scheduler moves on from it. Returning true stops the launch there,
	// mid-CTA: no later thread runs, and the Result reflects progress so
	// far. It is the thread-boundary twin of AfterCTA's early exits; only
	// the caller knows whether the kernel lets the rest of the run be
	// decided at that point (DESIGN.md §3.2). Lockstep warps never call it.
	AfterInjected func() bool
	// Resume, when non-nil, starts the CTA at FirstCTA from this intra-CTA
	// snapshot instead of from a fresh thread/shared-memory state. The
	// snapshot must have been captured in that CTA with the same block
	// geometry and scheduling mode, and the device must hold the CTA's
	// boundary state with the snapshot's page delta already restored
	// (see WarpSnapshot.RestorePages) — or, for a thread-start snapshot
	// (WarpSnapshot.SetThreadStart), the memory Checkpoints.ThreadStart
	// rebuilt.
	Resume *WarpSnapshot
}

// InjectKind selects the fault model applied at the injection point.
type InjectKind uint8

// Injection kinds. The paper's baseline model is InjectDestValue; the others
// reproduce additional modes of SASSIFI-style injectors the paper discusses
// in its related work — multi-bit value corruption (what SEC-DED ECC cannot
// correct), effective-address corruption in the load-store unit, spatially
// correlated multi-bit patterns — plus the persistent stuck-at faults in
// parallelism-management state studied by the permanent-fault literature.
//
// Transient kinds fire once, at the retirement of dynamic instruction
// Injection.DynInst of the injected thread. Persistent kinds (Persistent()
// reports true) instead *activate* there and then hold their stuck value for
// the remainder of the run; the fault state is bound to the injected thread
// and dies with it.
const (
	// InjectDestValue flips one destination-register bit after writeback.
	InjectDestValue InjectKind = iota
	// InjectDestDouble flips two adjacent destination-register bits.
	InjectDestDouble
	// InjectMemAddr flips one bit of the effective address of the
	// instruction's memory operand before the access executes.
	InjectMemAddr
	// InjectDestByte flips every bit of the destination-register byte
	// containing Bit (the whole flag nibble for a predicate destination).
	InjectDestByte
	// InjectLaneCorrelated flips bit Bit of the instruction's destination
	// register in every thread of the injected thread's lane group — the
	// warp under SIMT scheduling, a 32-wide group otherwise.
	InjectLaneCorrelated
	// InjectStuckPred holds one predicate-register flag bit of the injected
	// thread at a stuck value from the activation point on. Bit packs
	// (stuck value, predicate register, flag bit); see persistState.
	InjectStuckPred
	// InjectStuckActiveMask holds the injected thread's active-mask lane at
	// a stuck value (Bit&1): stuck at 0 freezes the lane (it is never
	// scheduled again), stuck at 1 keeps it active through barriers (it
	// never parks).
	InjectStuckActiveMask
	// InjectStuckBarrier holds the injected thread's barrier-arrival state
	// at a stuck value (Bit&1): stuck at 1 makes it count as always
	// arrived (barriers release without it), stuck at 0 makes its arrival
	// never register (a barrier including it deadlocks).
	InjectStuckBarrier
)

// String names the kind.
func (k InjectKind) String() string {
	switch k {
	case InjectDestDouble:
		return "dest-double"
	case InjectMemAddr:
		return "mem-addr"
	case InjectDestByte:
		return "dest-byte"
	case InjectLaneCorrelated:
		return "lane-correlated"
	case InjectStuckPred:
		return "stuck-pred"
	case InjectStuckActiveMask:
		return "stuck-active-mask"
	case InjectStuckBarrier:
		return "stuck-barrier"
	}
	return "dest-value"
}

// Persistent reports whether the kind is a stuck-at fault that persists from
// its activation point to the end of the run (as opposed to a transient
// single-event upset at one retirement).
func (k InjectKind) Persistent() bool {
	return k == InjectStuckPred || k == InjectStuckActiveMask || k == InjectStuckBarrier
}

// Injection is a single fault to apply during execution at dynamic
// instruction DynInst (0-based, counted over all instructions thread Thread
// issues). Under the paper's baseline model (InjectDestValue) bit Bit of the
// instruction's destination register is flipped after writeback
// (Section II-C); see InjectKind for the extended models.
type Injection struct {
	Thread  int        // flat global thread id
	DynInst int64      // dynamic instruction index within the thread
	Bit     int        // bit position (register or effective address)
	Kind    InjectKind // fault model
}

// Tracer observes retired dynamic instructions during a run. Implementations
// must be cheap: the profiler records one entry per dynamic instruction.
type Tracer interface {
	// Record is called for every retired dynamic instruction: thread is the
	// flat global thread id, pc the static instruction index, and wrote
	// whether the instruction wrote a live destination register (and is
	// therefore a fault site).
	Record(thread, pc int, wrote bool)
}

// TrapKind classifies abnormal terminations.
type TrapKind uint8

// Trap kinds. All of them map to the paper's "other" outcome class
// (crashes and hangs).
const (
	TrapNone     TrapKind = iota
	TrapMemFault          // out-of-range or misaligned access
	TrapWatchdog          // per-thread dynamic instruction ceiling exceeded
	TrapDeadlock          // CTA barrier cannot be satisfied
	TrapInvalid           // malformed execution (bad operand shape, ...)
)

// String names the trap kind.
func (k TrapKind) String() string {
	switch k {
	case TrapMemFault:
		return "memfault"
	case TrapWatchdog:
		return "watchdog"
	case TrapDeadlock:
		return "deadlock"
	case TrapInvalid:
		return "invalid"
	}
	return "none"
}

// Trap describes an abnormal termination of a run.
type Trap struct {
	Kind   TrapKind
	Thread int // flat global thread id, -1 when not thread-specific
	PC     int
	Msg    string
}

func (t *Trap) Error() string {
	return fmt.Sprintf("gpusim: %s at thread %d pc %d: %s", t.Kind, t.Thread, t.PC, t.Msg)
}

// Result summarizes a completed (or trapped) run. It lives in the executing
// device's launch scratch: a *Result is valid until the next Execute on the
// same Device, which overwrites it in place. Copy out what must outlive that.
type Result struct {
	// Trap is nil for a clean run.
	Trap *Trap
	// ThreadICnt is the per-flat-thread dynamic instruction count (the
	// paper's iCnt). On a trapped run it reflects progress made so far;
	// threads of CTAs skipped via Launch.FirstCTA, and threads an AfterCTA
	// or AfterInjected early stop never ran, stay at zero.
	ThreadICnt []int64
	// TotalDyn is the sum of ThreadICnt.
	TotalDyn int64
	// CTAsExecuted is the number of CTAs the launch actually ran, the one an
	// AfterInjected stop cut short included — smaller than the grid when
	// FirstCTA skipped a prefix, a hook stopped the launch early, or a trap
	// aborted it.
	CTAsExecuted int
	// Retired counts the dynamic instructions the launch executed itself:
	// TotalDyn less the counts a Resume snapshot carried in. BeforeFault is
	// the part of it retired before the injected instruction — the golden
	// replay of an injection run — and all of it when no injection reached
	// its instruction. Both are work counts: a pure function of the launch
	// and the device content, whatever the host.
	Retired, BeforeFault int64
}

// Global memory page geometry. Pages are the copy-on-write granule: a Clone
// shares every page with its source and privatizes a page on the first store
// to it, so the cost of an injection run's device is proportional to the
// pages it actually dirties, not to the device's total footprint. PageSize is
// a multiple of the widest access (4 bytes), so a width-aligned access never
// crosses a page boundary.
const (
	pageShift = 12
	// PageSize is the copy-on-write granule of global memory in bytes.
	PageSize = 1 << pageShift
	pageMask = PageSize - 1
)

// Device is the simulated GPU memory system shared by all CTAs of a launch.
// Global memory is paged with copy-on-write semantics (see PageSize); use
// WriteWords/ReadWords, WriteBytes, AppendRange, Bytes and FirstDiff to
// access it. The zero Device is not usable; construct with NewDevice.
type Device struct {
	// size is the byte length of global memory (the last page may extend
	// beyond it as padding; accesses are bounds-checked against size).
	size int
	// pages[i] backs bytes [i*PageSize, (i+1)*PageSize). A page is either
	// owned (private, writable) or shared (aliases another device's page
	// and must be privatized before the first store).
	pages [][]byte
	owned []bool
	// dirty marks owned pages written since the last ResetFrom; dirtyIdx
	// lists them so a reset touches only what a run actually changed.
	dirty    []bool
	dirtyIdx []int32
	// pagesCopied counts page-sized copies performed (copy-on-write
	// privatizations plus ResetFrom restores) since the last
	// TakePagesCopied.
	pagesCopied int64
	// src is the frozen image this device was cloned from or last reset
	// from. ResetFrom uses it to detect a source switch (resetting a pooled
	// device from a different checkpoint snapshot), which requires restoring
	// every owned page, not just the dirty ones.
	src *Device
	// srcSwitches counts ResetFrom calls that switched sources (the slow
	// full-restore path) since the last TakeSrcSwitches. Campaign stats
	// report this as AffinityResets: snapshot-affine scheduling exists to
	// keep it near the number of distinct snapshots per worker.
	srcSwitches int64
	// scratch is the launch scratch Execute runs in, built on the first
	// launch and kept for the device's life. Clone leaves it nil: a device
	// that is only ever a reset source never pays for one.
	scratch *launchScratch
	// rec is the CheckpointRecorder observing launches on this device —
	// set from NewCheckpointRecorder to Finish on the golden device, nil on
	// every other device (Clone leaves it nil).
	rec *CheckpointRecorder

	// Const is the read-only constant segment.
	Const []byte
}

// NewDevice allocates a device with the given global memory size in bytes.
// All pages start owned (private) and zeroed.
func NewDevice(globalBytes int) *Device {
	n := (globalBytes + PageSize - 1) / PageSize
	backing := make([]byte, n*PageSize)
	d := &Device{
		size:  globalBytes,
		pages: make([][]byte, n),
		owned: make([]bool, n),
		dirty: make([]bool, n),
	}
	for i := range d.pages {
		d.pages[i] = backing[i*PageSize : (i+1)*PageSize]
		d.owned[i] = true
	}
	return d
}

// Size is the byte length of global memory.
func (d *Device) Size() int { return d.size }

// Clone returns a copy-on-write snapshot of the device: the clone shares
// every global-memory page with the receiver, and either side privatizes a
// page on its first subsequent store. Cloning therefore freezes the
// receiver's current pages (the receiver also loses ownership, so its own
// next store to a page copies it first). The constant segment is deep-copied.
// Injection campaigns run each experiment on a clone (or on a pooled device
// reset from the pristine image; see ResetFrom).
func (d *Device) Clone() *Device {
	d.freeze()
	nd := &Device{
		size:  d.size,
		pages: append([][]byte(nil), d.pages...),
		owned: make([]bool, len(d.pages)),
		dirty: make([]bool, len(d.pages)),
		src:   d,
	}
	if d.Const != nil {
		nd.Const = append([]byte(nil), d.Const...)
	}
	return nd
}

// freeze releases ownership of every page, making the current storage
// immutable shared state. Idempotent, and write-free once frozen so that
// concurrent Clone/ResetFrom calls against a frozen pristine image are safe.
func (d *Device) freeze() {
	for i, o := range d.owned {
		if o {
			d.owned[i] = false
			d.dirty[i] = false
		}
	}
	if len(d.dirtyIdx) > 0 {
		d.dirtyIdx = d.dirtyIdx[:0]
	}
}

// privatize makes page p writable (copying shared storage on first
// ownership) and records it as dirty for the next ResetFrom.
func (d *Device) privatize(p int) {
	if !d.owned[p] {
		np := make([]byte, PageSize)
		copy(np, d.pages[p])
		d.pages[p] = np
		d.owned[p] = true
		d.pagesCopied++
	}
	d.dirty[p] = true
	d.dirtyIdx = append(d.dirtyIdx, int32(p))
}

// ResetFrom restores the device to the content of src, a frozen same-size
// image — typically the device this one was cloned from, or a checkpoint
// snapshot taken during the golden run. When src is the device's current
// source, only pages dirtied since the last reset are copied; already-private
// clean pages are left in place, so a pooled device converges to one page
// copy per page a run actually writes. Resetting from a *different* source
// restores every owned page (a clean private page may still hold the old
// source's content). src must not be written while devices reset from it
// remain in use.
func (d *Device) ResetFrom(src *Device) {
	if d.size != src.size {
		panic(fmt.Sprintf("gpusim: ResetFrom size mismatch: %d vs %d", d.size, src.size))
	}
	src.freeze()
	if d.src != src {
		for p := range d.pages {
			if d.owned[p] {
				copy(d.pages[p], src.pages[p])
				d.dirty[p] = false
				d.pagesCopied++
			} else {
				d.pages[p] = src.pages[p]
			}
		}
		d.dirtyIdx = d.dirtyIdx[:0]
		d.src = src
		d.srcSwitches++
		return
	}
	for _, p := range d.dirtyIdx {
		copy(d.pages[p], src.pages[p])
		d.dirty[p] = false
		d.pagesCopied++
	}
	d.dirtyIdx = d.dirtyIdx[:0]
	// Re-point still-shared pages at src's storage: after arbitrary
	// clone/reset chains every shared page must alias the reset source.
	for p := range d.pages {
		if !d.owned[p] {
			d.pages[p] = src.pages[p]
		}
	}
}

// TakePagesCopied returns the number of page copies (copy-on-write
// privatizations plus reset restores) performed since the last call, and
// resets the counter. Campaign statistics harvest this per pooled device.
func (d *Device) TakePagesCopied() int64 {
	n := d.pagesCopied
	d.pagesCopied = 0
	return n
}

// TakeSrcSwitches returns the number of ResetFrom source switches (full
// restores of every owned page, as opposed to dirty-only fast resets)
// since the last call, and resets the counter.
func (d *Device) TakeSrcSwitches() int64 {
	n := d.srcSwitches
	d.srcSwitches = 0
	return n
}

// Fingerprint returns a 64-bit content hash of the device: global-memory
// size and page contents plus the constant segment. Two devices built by
// the same deterministic initialization have equal fingerprints; the
// prepared-target cache folds it into its key so that targets that agree
// on name and geometry but differ in initial memory (distinct inputs)
// never share golden state. Cost is one HashPage pass per page — far
// cheaper than the golden run the cache amortizes.
func (d *Device) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(d.size)) * prime
	for p := range d.pages {
		h = (h ^ d.HashPage(p)) * prime
	}
	h = (h ^ uint64(len(d.Const))) * prime
	for i := 0; i+4 <= len(d.Const); i += 4 {
		h = (h ^ uint64(getWord(d.Const, i))) * prime
	}
	for i := len(d.Const) &^ 3; i < len(d.Const); i++ {
		h = (h ^ uint64(d.Const[i])) * prime
	}
	return h
}

// NumPages is the number of global-memory pages (see PageSize).
func (d *Device) NumPages() int { return len(d.pages) }

// DirtyPages returns the indices of pages written since the last ResetFrom
// (or TakeDirtyPages). The returned slice aliases internal state: treat it
// as read-only and invalid after the next store or reset.
func (d *Device) DirtyPages() []int32 { return d.dirtyIdx }

// TakeDirtyPages appends the indices of pages written since the last harvest
// to buf[:0] and re-arms dirty tracking without copying anything: a later
// store to the same page reports it again. This is how the golden run's
// checkpoint recorder observes per-CTA write sets. It breaks the dirty-page
// bookkeeping ResetFrom relies on, so it must only be used on devices that
// are never reset (the golden device is executed once and discarded).
func (d *Device) TakeDirtyPages(buf []int32) []int32 {
	buf = append(buf[:0], d.dirtyIdx...)
	for _, p := range buf {
		d.dirty[p] = false
	}
	d.dirtyIdx = d.dirtyIdx[:0]
	return buf
}

// HashPage returns a 64-bit hash of page p's content, folding eight bytes per
// step. Fingerprint folds it over every page for the prepared-target
// cache's key; no outcome depends on it, since a run is compared against
// golden state byte for byte (Checkpoints.AppendDivergent).
//
// Each word is passed through a full-avalanche finalizer (murmur3 fmix64)
// before the FNV-style fold. Folding raw words would be unsound: the fold's
// multiply only diffuses deltas upward, so a difference confined to a word's
// top bits survives as ±2^k and an equal top-bit delta in a later word
// cancels it — e.g. the same wrong 32-bit value stored at two aligned
// offsets 32 bytes apart hashes identically to the clean page.
func (d *Device) HashPage(p int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	pg := d.pages[p]
	for i := 0; i < PageSize; i += 8 {
		w := binary.LittleEndian.Uint64(pg[i:])
		w ^= w >> 33
		w *= 0xff51afd7ed558ccd
		w ^= w >> 33
		w *= 0xc4ceb9fe1a85ec53
		w ^= w >> 33
		h = (h ^ w) * prime
	}
	return h
}

// loadMem reads a w-byte little-endian value at addr. The caller has
// bounds- and alignment-checked the access, so it cannot cross a page.
func (d *Device) loadMem(addr, w int) uint32 {
	pg := d.pages[addr>>pageShift]
	off := addr & pageMask
	switch w {
	case 1:
		return uint32(pg[off])
	case 2:
		return uint32(pg[off]) | uint32(pg[off+1])<<8
	default:
		return getWord(pg, off)
	}
}

// storeMem writes a w-byte little-endian value at addr, privatizing the page
// on first write. The caller has bounds- and alignment-checked the access.
func (d *Device) storeMem(addr, w int, v uint32) {
	p := addr >> pageShift
	if !d.dirty[p] {
		d.privatize(p)
	}
	pg := d.pages[p]
	off := addr & pageMask
	switch w {
	case 1:
		pg[off] = byte(v)
	case 2:
		pg[off] = byte(v)
		pg[off+1] = byte(v >> 8)
	default:
		putWord(pg, off, v)
	}
}

// checkRange panics on out-of-device host accesses (guest accesses trap
// instead; see internal/gpusim load/store).
func (d *Device) checkRange(off, n int) {
	if off < 0 || n < 0 || off+n > d.size {
		panic(fmt.Sprintf("gpusim: device access [%d, %d) outside %d bytes", off, off+n, d.size))
	}
}

// WriteWords stores 32-bit words into global memory at a byte offset.
func (d *Device) WriteWords(byteOff int, words []uint32) {
	d.checkRange(byteOff, 4*len(words))
	for i, w := range words {
		d.storeMem(byteOff+4*i, 4, w)
	}
}

// ReadWords loads n 32-bit words from global memory at a byte offset.
func (d *Device) ReadWords(byteOff, n int) []uint32 {
	d.checkRange(byteOff, 4*n)
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.loadMem(byteOff+4*i, 4)
	}
	return out
}

// WriteBytes stores raw bytes into global memory at a byte offset.
func (d *Device) WriteBytes(off int, b []byte) {
	d.checkRange(off, len(b))
	for len(b) > 0 {
		p := off >> pageShift
		if !d.dirty[p] {
			d.privatize(p)
		}
		po := off & pageMask
		n := copy(d.pages[p][po:], b)
		b = b[n:]
		off += n
	}
}

// AppendRange appends n bytes of global memory starting at off to dst.
func (d *Device) AppendRange(dst []byte, off, n int) []byte {
	d.checkRange(off, n)
	for n > 0 {
		pg := d.pages[off>>pageShift]
		po := off & pageMask
		c := PageSize - po
		if c > n {
			c = n
		}
		dst = append(dst, pg[po:po+c]...)
		off += c
		n -= c
	}
	return dst
}

// Bytes returns a flat copy of global memory.
func (d *Device) Bytes() []byte {
	return d.AppendRange(make([]byte, 0, d.size), 0, d.size)
}

// FirstDiff returns the index of the first byte at which global memory
// starting at off differs from want, or -1 when the whole range matches,
// without materializing a copy — the hot path of golden-output comparison.
func (d *Device) FirstDiff(off int, want []byte) int {
	d.checkRange(off, len(want))
	for i := 0; i < len(want); {
		pg := d.pages[(off+i)>>pageShift]
		po := (off + i) & pageMask
		got := pg[po:min(PageSize, po+len(want)-i)]
		if w := want[i : i+len(got)]; !bytes.Equal(got, w) {
			// Halve [lo, hi), which holds the first differing byte.
			lo, hi := 0, len(got)
			for hi-lo > 1 {
				if mid := (lo + hi) / 2; bytes.Equal(got[lo:mid], w[lo:mid]) {
					lo = mid
				} else {
					hi = mid
				}
			}
			return i + lo
		}
		i += len(got)
	}
	return -1
}

// EachDiffWord calls fn once for every 4-byte word of global memory in
// [off, off+len(want)) that differs from want, in address order, passing the
// address of the word's first differing byte; it stops and returns true as
// soon as fn does. Like FirstDiff it compares without materializing a copy
// and finds differences by halving, so a matching range costs one
// comparison per page.
func (d *Device) EachDiffWord(off int, want []byte, fn func(addr int) bool) bool {
	d.checkRange(off, len(want))
	for i := 0; i < len(want); {
		pg := d.pages[(off+i)>>pageShift]
		po := (off + i) & pageMask
		got := pg[po:min(PageSize, po+len(want)-i)]
		if eachDiffWord(got, want[i:i+len(got)], off+i, fn) {
			return true
		}
		i += len(got)
	}
	return false
}

// diffLeaf is the range length below which eachDiffWord stops halving and
// compares byte by byte.
const diffLeaf = 64

// eachDiffWord is EachDiffWord on two equal-length byte slices, got holding
// the bytes at address addr. Halves split at word boundaries, so a word
// never straddles two of them and each differing word is reported once.
func eachDiffWord(got, want []byte, addr int, fn func(addr int) bool) bool {
	if bytes.Equal(got, want) {
		return false
	}
	if len(got) > diffLeaf {
		mid := (addr+len(got)/2)&^3 - addr
		return eachDiffWord(got[:mid], want[:mid], addr, fn) ||
			eachDiffWord(got[mid:], want[mid:], addr+mid, fn)
	}
	for i := 0; i < len(got); i++ {
		if got[i] != want[i] {
			if fn(addr + i) {
				return true
			}
			i = ((addr + i) | 3) - addr // skip the rest of this word
		}
	}
	return false
}

func putWord(mem []byte, off int, w uint32) {
	mem[off] = byte(w)
	mem[off+1] = byte(w >> 8)
	mem[off+2] = byte(w >> 16)
	mem[off+3] = byte(w >> 24)
}

func getWord(mem []byte, off int) uint32 {
	return uint32(mem[off]) | uint32(mem[off+1])<<8 |
		uint32(mem[off+2])<<16 | uint32(mem[off+3])<<24
}
