package fault

import (
	"testing"
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

// TestChunkQueuesCoverage: with stealing, every position is handed out
// exactly once regardless of which workers ask.
func TestChunkQueuesCoverage(t *testing.T) {
	const nwork, workers = 317, 4
	chunks := buildChunks(nwork, nil, chunkTargetSize(nwork, workers))
	q := newChunkQueues(chunks, workers, nwork)

	// Worker 3 drains everything alone: own queue first, then steals.
	seen := make([]bool, nwork)
	for {
		c, ok := q.next(3)
		if !ok {
			break
		}
		for p := c.lo; p < c.hi; p++ {
			if seen[p] {
				t.Fatalf("position %d handed out twice", p)
			}
			seen[p] = true
		}
	}
	for p, s := range seen {
		if !s {
			t.Fatalf("position %d never handed out", p)
		}
	}
}

// TestChunkQueuesProportional: contiguous assignment gives every worker a
// near-proportional share of sites, so pinned devices stay busy before any
// stealing happens.
func TestChunkQueuesProportional(t *testing.T) {
	const nwork, workers = 1000, 4
	chunks := buildChunks(nwork, nil, chunkTargetSize(nwork, workers))
	q := newChunkQueues(chunks, workers, nwork)
	for w, r := range q.remain {
		if r == 0 {
			t.Fatalf("worker %d assigned no sites", w)
		}
		share := float64(r) / float64(nwork)
		if share < 0.15 || share > 0.35 {
			t.Fatalf("worker %d holds %.0f%% of sites, want near %d%%", w, 100*share, 100/workers)
		}
	}
	// Each worker's run of chunks is contiguous in position order.
	for w, qs := range q.queues {
		for i := 1; i < len(qs); i++ {
			if chunks[qs[i]].lo != chunks[qs[i-1]].hi {
				t.Fatalf("worker %d queue not contiguous at chunk %d", w, i)
			}
		}
	}
}
