package baseline

import (
	"testing"

	"repro/internal/fault"
)

// unitDist builds the distribution of n unit-weight samples of which w were
// masked, the rest split between SDC and crash.
func unitDist(n, w int) fault.Dist {
	var d fault.Dist
	for i := 0; i < n; i++ {
		switch {
		case i < w:
			d.Add(fault.Masked, 1)
		case i%2 == 0:
			d.Add(fault.SDC, 1)
		default:
			d.Add(fault.Crash, 1)
		}
	}
	return d
}

// TestClassCountsExact: the success count handed to the Wilson margin is the
// class's sample count, not a percentage round-trip truncated towards zero
// (which lost one success at, among others, 7 of 9, 14 of 15 and 11 of 17).
func TestClassCountsExact(t *testing.T) {
	for _, c := range []struct{ n, w int }{{9, 7}, {15, 14}, {17, 11}} {
		if got := classCounts(unitDist(c.n, c.w))[fault.ClassMasked]; got != int64(c.w) {
			t.Errorf("%d masked of %d: counted %d", c.w, c.n, got)
		}
	}
	for n := 0; n <= 200; n++ {
		for w := 0; w <= n; w++ {
			got := classCounts(unitDist(n, w))
			var sum int64
			for _, k := range got {
				sum += k
			}
			if got[fault.ClassMasked] != int64(w) || sum != int64(n) {
				t.Fatalf("%d masked of %d: counted %v", w, n, got)
			}
		}
	}
}
