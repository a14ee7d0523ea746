package fault

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gpusim"
)

// TestBuildChunksProperties: chunks cover [0, nwork) exactly, respect the
// target size, and never span an affinity boundary.
func TestBuildChunksProperties(t *testing.T) {
	// Skewed affinity groups: one huge, several tiny, one mid-size.
	bounds := []int{0, 200, 205, 210, 215, 300, 317}
	key := func(pos int) int {
		for g := len(bounds) - 2; g >= 0; g-- {
			if pos >= bounds[g] {
				return g
			}
		}
		t.Fatalf("position %d outside all groups", pos)
		return -1
	}
	nwork := bounds[len(bounds)-1]
	const target = 16
	chunks := buildChunks(nwork, key, target)

	next := 0
	for i, c := range chunks {
		if c.lo != next || c.hi <= c.lo {
			t.Fatalf("chunk %d = %+v: not contiguous from %d", i, c, next)
		}
		if c.hi-c.lo > target {
			t.Fatalf("chunk %d = %+v exceeds target size %d", i, c, target)
		}
		if key(c.lo) != key(c.hi-1) {
			t.Fatalf("chunk %d = %+v spans groups %d and %d", i, c, key(c.lo), key(c.hi-1))
		}
		next = c.hi
	}
	if next != nwork {
		t.Fatalf("chunks cover [0, %d), want [0, %d)", next, nwork)
	}

	// Without a key, only size cuts apply: all chunks but the last are full.
	for i, c := range buildChunks(100, nil, 16) {
		if size := c.hi - c.lo; size != 16 && c.hi != 100 {
			t.Fatalf("keyless chunk %d = %+v has size %d", i, c, size)
		}
	}
}

// TestChunkQueuesCoverage: workers draining the chunk cursor concurrently
// are handed every work position exactly once, however the takes interleave
// (run under -race).
func TestChunkQueuesCoverage(t *testing.T) {
	for _, nwork := range []int{0, 1, 17, 1000} {
		for _, workers := range []int{1, 4} {
			cursor := chunkCursor{chunks: buildChunks(nwork, nil, chunkTargetSize(nwork, workers))}
			seen := make([]atomic.Int32, nwork)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						c, ok := cursor.next()
						if !ok {
							return
						}
						for p := c.lo; p < c.hi; p++ {
							seen[p].Add(1)
						}
					}
				}()
			}
			wg.Wait()
			for p := range seen {
				if n := seen[p].Load(); n != 1 {
					t.Fatalf("%d positions, %d workers: position %d handed out %d times", nwork, workers, p, n)
				}
			}
		}
	}
}

// TestWorkerRunnerDetachesStrayDevice: while an abandoned attempt still
// holds the worker's device, the retry's take clones a fresh one instead of
// sharing it; whichever attempt gives first re-pins, and the other device is
// harvested and dropped.
func TestWorkerRunnerDetachesStrayDevice(t *testing.T) {
	var stats deviceStats
	r := &workerRunner{t: &Target{Init: gpusim.NewDevice(2 * gpusim.PageSize)}, stats: &stats}

	stray := r.take() // the attempt the guard abandons at its deadline
	retry := r.take()
	if retry == stray {
		t.Fatal("retry shares the device an abandoned attempt still holds")
	}
	if n := stats.created.Load(); n != 2 {
		t.Fatalf("devices created = %d, want 2", n)
	}
	r.give(retry)
	if again := r.take(); again != retry {
		t.Fatal("the returned device was not re-pinned")
	}
	r.give(retry)

	stray.dev.WriteWords(0, []uint32{1}) // one copy-on-write privatization
	r.give(stray)                        // the slot is occupied: harvested, not pinned
	if r.dev != retry {
		t.Fatal("a late stray device displaced the pinned one")
	}
	if n := stats.pages.Load(); n != 1 {
		t.Fatalf("pages harvested from the stray device = %d, want 1", n)
	}
	r.close()
	if r.dev != nil || stats.created.Load() != 2 {
		t.Fatalf("after close: pinned %v, created %d", r.dev, stats.created.Load())
	}
}
