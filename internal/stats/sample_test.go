package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTStat(t *testing.T) {
	cases := []struct {
		conf float64
		want float64
	}{
		{0.95, 1.95996},
		{0.99, 2.57583},
		{0.998, 3.09023},
		{0.90, 1.64485},
	}
	for _, c := range cases {
		if got := TStat(c.conf); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("TStat(%v) = %v, want %v", c.conf, got, c.want)
		}
	}
}

func TestTStatPanics(t *testing.T) {
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TStat(%v) did not panic", bad)
				}
			}()
			TStat(bad)
		}()
	}
}

// TestSampleSizePaperNumbers checks the paper's Table II arithmetic: over a
// practically infinite population Eq. 2 at p = 0.5 is Eq. 4's worst case,
// 60K runs at 99.8% confidence / 0.63% margin and ~1062 runs at 95% / 3%.
func TestSampleSizePaperNumbers(t *testing.T) {
	const inf = 1 << 60
	n60 := SampleSize(inf, 0.0063, TStat(0.998), 0.5)
	if n60 < 58000 || n60 > 62000 {
		t.Errorf("60K case = %d", n60)
	}
	n1k := SampleSize(inf, 0.03, TStat(0.95), 0.5)
	if n1k < 1050 || n1k > 1080 {
		t.Errorf("1K case = %d", n1k)
	}
	// Any other p needs fewer samples.
	if got := SampleSize(inf, 0.03, TStat(0.95), 0.2); got >= n1k {
		t.Errorf("p=0.2 sample %d should be < %d", got, n1k)
	}
	// The finite-population correction reduces the sample for small N.
	if got := SampleSize(10000, 0.03, TStat(0.95), 0.5); got >= n1k {
		t.Errorf("finite-population sample %d should be < %d", got, n1k)
	}
	if got := SampleSize(0, 0.03, 1.96, 0.5); got != 0 {
		t.Errorf("empty population sample = %d", got)
	}
}

func TestBoxplot(t *testing.T) {
	b := NewBoxplot([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Mean != 3 {
		t.Fatalf("boxplot: %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Fatalf("quartiles: %+v", b)
	}
	if b.N != 5 {
		t.Fatalf("N = %d", b.N)
	}

	// Interpolated quartiles.
	b = NewBoxplot([]float64{0, 10})
	if b.Q1 != 2.5 || b.Median != 5 || b.Q3 != 7.5 {
		t.Fatalf("interpolated: %+v", b)
	}

	// Singleton and empty.
	b = NewBoxplot([]float64{7})
	if b.Min != 7 || b.Max != 7 || b.Median != 7 {
		t.Fatalf("singleton: %+v", b)
	}
	if NewBoxplot(nil).N != 0 {
		t.Fatal("empty boxplot N")
	}
}

func TestBoxplotDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewBoxplot(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestBoxplotDistance(t *testing.T) {
	a := NewBoxplot([]float64{0, 10, 20})
	b := NewBoxplot([]float64{0, 10, 25})
	if got := a.Distance(b); got != 5 {
		t.Fatalf("distance = %v, want 5", got)
	}
	if a.Distance(a) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Intn(1<<30) == NewRNG(2).Intn(1<<30) {
		// One collision is possible but wildly unlikely; draw more.
		x, y := NewRNG(1), NewRNG(2)
		same := true
		for i := 0; i < 10; i++ {
			if x.Int63n(1<<62) != y.Int63n(1<<62) {
				same = false
			}
		}
		if same {
			t.Fatal("different seeds produced identical streams")
		}
	}
}

func TestRNGSplit(t *testing.T) {
	// Splits with different names are independent; same name from the same
	// parent state reproduces.
	a := NewRNG(7).Split("loop")
	b := NewRNG(7).Split("loop")
	if a.Intn(1<<30) != b.Intn(1<<30) {
		t.Fatal("same split diverged")
	}
	c := NewRNG(7).Split("bits")
	d := NewRNG(7).Split("loop")
	if c.Intn(1<<30) == d.Intn(1<<30) && c.Intn(1<<30) == d.Intn(1<<30) {
		t.Fatal("different splits look identical")
	}
}

func TestSampleInts(t *testing.T) {
	g := NewRNG(3)
	got := g.SampleInts(100, 10)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate: %d", v)
		}
		seen[v] = true
	}
	// k >= n returns a permutation.
	all := g.SampleInts(5, 10)
	if len(all) != 5 {
		t.Fatalf("perm len = %d", len(all))
	}
}

// TestSampleIntsProperty: distinctness and range hold for arbitrary (n, k).
func TestSampleIntsProperty(t *testing.T) {
	g := NewRNG(11)
	f := func(n, k uint8) bool {
		nn := int(n%200) + 1
		kk := int(k % 200)
		got := g.SampleInts(nn, kk)
		want := kk
		if want > nn {
			want = nn
		}
		if len(got) != want {
			return false
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= nn || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileMonotonic: quartiles are ordered for any input.
func TestQuantileMonotonic(t *testing.T) {
	f := func(vals []float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // skip degenerate float inputs
			}
		}
		if len(vals) == 0 {
			return true
		}
		b := NewBoxplot(vals)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
