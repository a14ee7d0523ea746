package gpusim

import (
	"bytes"
	"testing"
)

// TestDeviceCloneIsolation: writes on either side of a Clone must not be
// visible on the other, across several pages and repeated clones.
func TestDeviceCloneIsolation(t *testing.T) {
	dev := NewDevice(3*PageSize + 100)
	for p := 0; p < 3; p++ {
		dev.WriteBytes(p*PageSize+5, []byte{byte(p + 1)})
	}
	pristine := dev.Bytes()

	cl := dev.Clone()
	cl.WriteBytes(0, []byte{0xAA})
	cl.WriteBytes(2*PageSize+7, []byte{0xBB})
	if !bytes.Equal(dev.Bytes(), pristine) {
		t.Fatal("clone writes leaked into source")
	}

	// The source itself went copy-on-write at Clone: its next store must not
	// show through the clone (or through a second clone taken earlier).
	cl2 := dev.Clone()
	dev.WriteBytes(PageSize+1, []byte{0xCC})
	if cl.Bytes()[PageSize+1] == 0xCC || cl2.Bytes()[PageSize+1] == 0xCC {
		t.Fatal("source write visible through clones")
	}
	if cl2.Bytes()[0] == 0xAA {
		t.Fatal("sibling clone write visible")
	}
}

// TestFirstDiff: the first differing byte is found wherever it lies in a
// range that spans pages and starts mid-page, and a later difference never
// masks an earlier one.
func TestFirstDiff(t *testing.T) {
	dev := NewDevice(3*PageSize + 100)
	for i := 0; i < dev.Size(); i += 4 {
		dev.WriteWords(i, []uint32{uint32(i) * 2654435761})
	}
	const off = 37
	want := dev.AppendRange(nil, off, dev.Size()-off)
	if i := dev.FirstDiff(off, want); i != -1 {
		t.Fatalf("equal range: FirstDiff = %d", i)
	}
	for _, pos := range []int{0, 1, PageSize - off - 1, PageSize - off, 2*PageSize + 5, len(want) - 1} {
		w := append([]byte(nil), want...)
		w[pos] ^= 0x10
		if pos+9 < len(w) {
			w[pos+9] ^= 0x01
		}
		if i := dev.FirstDiff(off, w); i != pos {
			t.Fatalf("difference at %d: FirstDiff = %d", pos, i)
		}
	}
}

// TestEachDiffWord: every differing 4-byte word is reported exactly once,
// in address order, with the address of its first differing byte — over a
// range that spans pages and starts mid-word — and a true return stops the
// walk.
func TestEachDiffWord(t *testing.T) {
	dev := NewDevice(3*PageSize + 100)
	for i := 0; i < dev.Size(); i += 4 {
		dev.WriteWords(i, []uint32{uint32(i) * 2654435761})
	}
	const off = 37
	want := dev.AppendRange(nil, off, dev.Size()-off)
	w := append([]byte(nil), want...)
	// Runs of differing bytes: dense (every byte of 100), inside one word,
	// across a word boundary, across a page boundary, and the range's ends.
	var flips []int
	for i := 1000; i < 1100; i++ {
		flips = append(flips, i)
	}
	flips = append(flips, 0, 2, 3, 7, 8, 500, 501, PageSize-off-2, PageSize-off+1, 2*PageSize+9, len(w)-1)
	for _, i := range flips {
		w[i] ^= 0x41
	}
	var expect []int
	lastWord := -1
	for i := range w {
		if w[i] != want[i] && (off+i)/4 != lastWord {
			lastWord = (off + i) / 4
			expect = append(expect, off+i)
		}
	}
	var got []int
	if dev.EachDiffWord(off, w, func(addr int) bool { got = append(got, addr); return false }) {
		t.Fatal("EachDiffWord returned true though fn never did")
	}
	if len(got) != len(expect) {
		t.Fatalf("reported %d words, want %d", len(got), len(expect))
	}
	for i := range got {
		if got[i] != expect[i] {
			t.Fatalf("word %d reported at address %d, want %d", i, got[i], expect[i])
		}
	}
	n := 0
	if !dev.EachDiffWord(off, w, func(int) bool { n++; return n == 3 }) || n != 3 {
		t.Fatalf("walk did not stop at the third word (%d calls)", n)
	}
	if dev.EachDiffWord(off, want, func(int) bool { t.Fatal("called on an equal range"); return true }) {
		t.Fatal("equal range reported a difference")
	}
}

// TestDeviceResetFromRestoresPristine: a pooled device must be bit-identical
// to the pristine image after ResetFrom, across repeated dirty/reset cycles
// touching different page sets.
func TestDeviceResetFromRestoresPristine(t *testing.T) {
	pristine := NewDevice(4 * PageSize)
	for p := 0; p < 4; p++ {
		pristine.WriteBytes(p*PageSize, []byte{byte(0x10 + p)})
	}
	want := pristine.Bytes()

	dev := pristine.Clone()
	cycles := [][]int{{0}, {1, 3}, {0, 1, 2, 3}, {2}, {}}
	for ci, pages := range cycles {
		for _, p := range pages {
			dev.WriteBytes(p*PageSize+9, []byte{0xEE, 0xFF})
		}
		dev.ResetFrom(pristine)
		if !bytes.Equal(dev.Bytes(), want) {
			t.Fatalf("cycle %d: device differs from pristine after reset", ci)
		}
	}
	if !bytes.Equal(pristine.Bytes(), want) {
		t.Fatal("pristine image itself changed")
	}
}

// TestDevicePagesCopiedAccounting: the copy counter must count exactly the
// page-sized copies performed — one privatization per newly written page,
// one restore per dirty page at reset, and nothing in the steady state where
// a run re-dirties already-private pages.
func TestDevicePagesCopiedAccounting(t *testing.T) {
	pristine := NewDevice(4 * PageSize)
	dev := pristine.Clone()
	dev.TakePagesCopied()

	// First run dirties 2 shared pages: 2 privatizations.
	dev.WriteBytes(0, []byte{1})
	dev.WriteBytes(2*PageSize, []byte{1})
	if got := dev.TakePagesCopied(); got != 2 {
		t.Fatalf("privatizations = %d, want 2", got)
	}
	// Reset restores the 2 dirty pages.
	dev.ResetFrom(pristine)
	if got := dev.TakePagesCopied(); got != 2 {
		t.Fatalf("restores = %d, want 2", got)
	}
	// Second run re-dirties the same (now private) pages: no privatization,
	// only the 2 restores at reset.
	dev.WriteBytes(0, []byte{1})
	dev.WriteBytes(2*PageSize, []byte{1})
	dev.ResetFrom(pristine)
	if got := dev.TakePagesCopied(); got != 2 {
		t.Fatalf("steady-state copies = %d, want 2", got)
	}
	// An untouched run copies nothing at all.
	dev.ResetFrom(pristine)
	if got := dev.TakePagesCopied(); got != 0 {
		t.Fatalf("idle reset copied %d pages", got)
	}
}

// TestDeviceResetAfterSizePadding: sizes that are not page multiples keep
// bounds-checking at the logical size while resetting full pages.
func TestDeviceResetAfterSizePadding(t *testing.T) {
	pristine := NewDevice(10) // single partial page
	pristine.WriteBytes(0, []byte{1, 2, 3})
	dev := pristine.Clone()
	dev.WriteBytes(5, []byte{9})
	dev.ResetFrom(pristine)
	if !bytes.Equal(dev.Bytes(), pristine.Bytes()) {
		t.Fatal("partial-page device not restored")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-size host access did not panic")
		}
	}()
	dev.WriteBytes(10, []byte{1})
}

// TestDeviceResetFromSizeMismatch: resetting from a different-size image is
// a programming error and must panic rather than corrupt state.
func TestDeviceResetFromSizeMismatch(t *testing.T) {
	a := NewDevice(PageSize)
	b := NewDevice(2 * PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch accepted")
		}
	}()
	a.ResetFrom(b)
}
