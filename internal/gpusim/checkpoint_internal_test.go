package gpusim

import "testing"

// TestAutoCheckpointStride pins the byte-bound rule: a snapshot at every CTA
// boundary unless the snapshots' page tables — numCTAs × numPages entries
// at stride 1 — exceed checkpointTableBytes, and then the smallest stride
// whose snapshots fit. Every registry grid gets stride 1; the largest
// product there is NN K1 at paper scale, 168 CTAs × 126 pages.
func TestAutoCheckpointStride(t *testing.T) {
	fit := checkpointTableBytes / (snapshotPageBytes * 1000) // snapshots of a 1000-page device
	cases := []struct{ ctas, pages, want int }{
		{1, 1, 1}, {2, 1, 1}, {4, 1, 1},
		{36, 27, 1},   // HotSpot K1, paper
		{64, 48, 1},   // GEMM K1, paper
		{168, 126, 1}, // NN K1, paper
		{fit, 1000, 1}, {fit + 1, 1000, 2}, {2 * fit, 1000, 2}, {2*fit + 1, 1000, 3},
		{50, 1 << 20, 50}, // one snapshot's table alone is over the bound: the pristine image only
	}
	tables := func(ctas, pages, stride int) int {
		snaps := (ctas + stride - 1) / stride // boundaries 0, stride, … below ctas
		return snaps * pages * snapshotPageBytes
	}
	for _, c := range cases {
		s := AutoCheckpointStride(c.ctas, c.pages)
		if s != c.want {
			t.Fatalf("AutoCheckpointStride(%d, %d) = %d, want %d", c.ctas, c.pages, s, c.want)
		}
		if s < c.ctas && tables(c.ctas, c.pages, s) > checkpointTableBytes {
			t.Fatalf("%d CTAs × %d pages at stride %d: %d table bytes", c.ctas, c.pages, s, tables(c.ctas, c.pages, s))
		}
		if s > 1 && tables(c.ctas, c.pages, s-1) <= checkpointTableBytes {
			t.Fatalf("%d CTAs × %d pages: stride %d fits, %d chosen", c.ctas, c.pages, s-1, s)
		}
	}
}
