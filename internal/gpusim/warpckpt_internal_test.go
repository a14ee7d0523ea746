package gpusim

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"
)

// TestCompactSnapshotRestoresSlots: a compact warp snapshot restores the
// same thread slots a full copy of the CTA would, for every state a capture
// can meet a thread in — not started, running, parked at a barrier, exited
// — except the fields of an exited thread that nothing reads again
// (registers, PC, barrier state), which come back fresh. Only the nregs
// registers the program names are saved and restored: the slots it
// restores into hold another program's registers, which survive only from
// nregs on. A snapshot counts its execution states and those registers, not
// whole thread slots. Shared memory comes back byte for byte; captures with
// equal shared memory hold one slice, which the store counts once for as
// long as a snapshot holds it.
func TestCompactSnapshotRestoresSlots(t *testing.T) {
	launch := &Launch{Grid: Dim3{X: 3, Y: 1, Z: 1}, Block: Dim3{X: 2, Y: 3, Z: 1}, Params: []uint32{7, 9}}
	const cta, n, sharedBytes, nregs = 2, 6, 64, 5
	newCTA := func() (*ctaState, []threadState) {
		slots := make([]threadState, n)
		st := &ctaState{threads: make([]*threadState, n), shared: make([]byte, sharedBytes)}
		for i := range slots {
			st.threads[i] = &slots[i]
		}
		return st, slots
	}

	// The CTA as startCTA sets it up, then as execution leaves it.
	st, slots := newCTA()
	startCTA(st, slots, launch, cta, nregs, nil)
	st.shared[40] = 0x5A
	running := func(th *threadState, dyn int64, pc int) {
		th.dynCount, th.pc = dyn, pc
		th.regs[3], th.regs[nregs-1], th.preds[1], th.ofs[0] = uint32(dyn)*7, uint32(dyn), 2, 4
	}
	running(&slots[0], 9, 5)
	running(&slots[1], 4, 7)
	slots[1].waiting, slots[1].barID = true, 1
	running(&slots[2], 12, 20)
	slots[2].done = true
	// slots[3] has not started.
	running(&slots[4], 3, 2)
	slots[4].done = true
	running(&slots[5], 1, 1)
	full := slices.Clone(slots)

	dev := NewDevice(PageSize)
	dev.WriteWords(0, []uint32{1}) // the CTA's page delta: one page
	r := newWarpRecorder(dev, launch.Grid.Count(), 1)
	r.beginCTA(cta, st, nregs)
	r.capture()
	r.capture()
	a, b := r.ck.perCTA[cta][0], r.ck.perCTA[cta][1]
	if len(a.live) != 3 || len(a.regs) != 3*nregs {
		t.Fatalf("snapshot keeps %d execution states and %d registers, want the 3 live threads' and %d",
			len(a.live), len(a.regs), 3*nregs)
	}
	perLive := int64(unsafe.Sizeof(threadExec{})) + 4*nregs
	if want := 8*int64(n) + 8 + 3*perLive + PageSize; a.sizeBytes() != want {
		t.Fatalf("snapshot counts %d bytes, want %d: dynAt, done, %d per live thread and one page",
			a.sizeBytes(), want, perLive)
	}
	if &a.shared[0] != &b.shared[0] {
		t.Fatal("captures with equal shared memory hold two slices")
	}
	if want := a.sizeBytes() + b.sizeBytes() + sharedBytes; r.ck.bytes != want {
		t.Fatalf("store counts %d bytes, want %d (the shared slice once)", r.ck.bytes, want)
	}
	r.retain(a, -1)
	if want := b.sizeBytes() + sharedBytes; r.ck.bytes != want {
		t.Fatalf("after dropping one holder the store counts %d bytes, want %d", r.ck.bytes, want)
	}
	r.retain(b, -1)
	if r.ck.bytes != 0 || r.ck.count != 0 {
		t.Fatalf("empty store counts %d bytes in %d snapshots", r.ck.bytes, r.ck.count)
	}

	for ord, ws := range []*WarpSnapshot{a, b} {
		gst, got := newCTA()
		for i := range got {
			for r := range got[i].regs {
				got[i].regs[r] = 0xDEAD0000 | uint32(r)
			}
		}
		startCTA(gst, got, launch, cta, nregs, ws)
		if !bytes.Equal(gst.shared, st.shared) {
			t.Fatalf("snapshot %d: restored shared memory differs", ord)
		}
		for i := range got {
			want := full[i]
			if want.done {
				want = threadState{flat: want.flat, tid: want.tid, ctaid: want.ctaid, dynCount: want.dynCount, done: true}
			}
			if got[i].regs[nregs] != 0xDEAD0000|nregs {
				t.Fatalf("snapshot %d thread %d: restore wrote register %d, past the program's %d", ord, i, nregs, nregs)
			}
			g := got[i]
			clear(g.regs[nregs:])
			if g != want {
				t.Fatalf("snapshot %d thread %d: restored %+v, want %+v", ord, i, g, want)
			}
			if ws.Done(i) != full[i].done || ws.Waiting(i) != full[i].waiting || ws.DynAt(i) != full[i].dynCount {
				t.Fatalf("snapshot %d thread %d: ledger accessors disagree with the CTA", ord, i)
			}
		}
	}
}

// TestDecimationSpan pins the capture rule: a CTA keeps every capture over
// its first DefaultIntraSnapshots×defaultIntraStartStride retired
// instructions, whatever the start stride (16 at the default, more at a
// smaller one, never fewer than 16), and one capture past that it keeps the
// later of each pair and doubles its stride.
func TestDecimationSpan(t *testing.T) {
	launch := &Launch{Grid: Dim3{X: 1, Y: 1, Z: 1}, Block: Dim3{X: 2, Y: 1, Z: 1}}
	for _, c := range []struct{ start, keep int }{{0, 16}, {1024, 64}, {256, 256}, {8192, 16}} {
		slots := make([]threadState, 2)
		st := &ctaState{threads: []*threadState{&slots[0], &slots[1]}, shared: make([]byte, 16)}
		startCTA(st, slots, launch, 0, 1, nil)
		r := newWarpRecorder(NewDevice(PageSize), 1, c.start)
		r.beginCTA(0, st, 1)
		stride := r.curStride
		for i := 1; i <= c.keep+1; i++ {
			r.retired = int64(i) * stride
			r.capture()
			if n := len(r.ck.perCTA[0]); i <= c.keep && n != i {
				t.Fatalf("start %d: %d captures keep %d snapshots", c.start, i, n)
			}
		}
		snaps := r.ck.perCTA[0]
		if len(snaps) != c.keep/2 || r.curStride != 2*stride || r.ck.count != len(snaps) {
			t.Fatalf("start %d: after %d captures %d snapshots (count %d) at stride %d, want %d at %d",
				c.start, c.keep+1, len(snaps), r.ck.count, r.curStride, c.keep/2, 2*stride)
		}
		for ord, ws := range snaps {
			if want := int64(2*(ord+1)) * stride; ws.retired != want {
				t.Fatalf("start %d: snapshot %d at retired %d, want %d", c.start, ord, ws.retired, want)
			}
		}
	}
}
