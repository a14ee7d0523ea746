package fault

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/gpusim"
	"repro/internal/trace"
)

// The prepared-target cache amortizes Target.Prepare across a pipeline:
// Plan.Estimate, AutoLoopIters, the adaptive baseline and campaign Run each
// build their own Target for the same kernel+scale, and without sharing each
// re-executes the golden run and rebuilds the checkpoint store. A
// PreparedCache keys the immutable prepared state (golden output, profile,
// watchdog, checkpoint store — all read-only after Prepare) and hands it to
// every later consumer with an equal key. The first caller runs the golden
// execution; concurrent callers with the same key block on the in-flight
// entry (singleflight); everyone else adopts the finished artifacts.
// Soundness argument and key derivation: DESIGN.md §3.4.

// DefaultPreparedCacheBytes bounds the retained checkpoint-store and
// golden-artifact bytes of the process-wide cache (see
// DefaultPreparedCache). 256 MiB holds every kernel of the built-in suite
// at small and paper scales with room to spare.
const DefaultPreparedCacheBytes int64 = 256 << 20

// prepareKey identifies one prepared-target equivalence class: targets with
// equal keys produce bit-identical golden runs, profiles and checkpoint
// stores, because the simulator is deterministic in all of these inputs.
// Program identity is covered by name+geometry for the built-in kernel
// suite; cfgHash folds params, output ranges and the initial device content
// so that same-named targets with different inputs (custom kernels) never
// collide.
type prepareKey struct {
	name        string
	grid, block gpusim.Dim3
	sharedBytes int
	warpSize    int
	fullRun     bool
	intraStart  int
	cfgHash     uint64
}

// prepareKey derives the cache key of a target. It hashes the initial
// device content (Device.Fingerprint) — one page-hash pass, far cheaper
// than the golden run being amortized.
func (t *Target) prepareKey() prepareKey {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime }
	mix(uint64(len(t.Params)))
	for _, p := range t.Params {
		mix(uint64(p))
	}
	mix(uint64(len(t.Output)))
	for _, r := range t.Output {
		mix(uint64(r.Off))
		mix(uint64(r.Len))
	}
	mix(t.Init.Fingerprint())
	return prepareKey{
		name:        t.Name,
		grid:        t.Grid,
		block:       t.Block,
		sharedBytes: t.SharedBytes,
		warpSize:    t.WarpSize,
		fullRun:     t.FullRun,
		intraStart:  t.intraStart,
		cfgHash:     h,
	}
}

// preparedState is the immutable artifact set one golden run produces. All
// fields are read-only after Prepare and safe to share across targets and
// goroutines.
type preparedState struct {
	golden   []byte
	watchdog int64
	profile  *trace.Profile
	ckpt     *gpusim.Checkpoints
	// threadIndependent records that the program has no barrier and stores
	// to no memory but global (see threadIndependent).
	threadIndependent bool
}

// approxBytes estimates the memory the entry pins beyond the pristine
// device: golden output, per-thread profiles and each distinct dynamic PC
// stream once (threads with equal traces share one exact-length copy; see
// trace.Build), checkpoint snapshot pages and page tables, access
// summaries (thread-start bits included) and the final image's private
// pages, and intra-CTA warp snapshots.
func (s *preparedState) approxBytes() int64 {
	n := int64(len(s.golden))
	if s.profile != nil {
		seen := make(map[*uint16]bool)
		for i := range s.profile.Threads {
			n += 48
			if pcs := s.profile.Threads[i].PCs; len(pcs) > 0 && !seen[&pcs[0]] {
				seen[&pcs[0]] = true
				n += int64(cap(pcs)) * 2
			}
		}
	}
	if s.ckpt != nil {
		n += s.ckpt.Bytes() + s.ckpt.SummaryBytes()
		if w := s.ckpt.Warp(); w != nil {
			n += w.Bytes()
		}
	}
	return n
}

// PrepareSource is where a target's prepared state came from: a golden run
// of its own, uncached or as its cache's miss; a finished cache entry (a
// hit); or another caller's in-flight golden run (shared).
type PrepareSource int

const (
	NotPrepared PrepareSource = iota
	PreparedUncached
	PreparedMiss
	PreparedHit
	PreparedShared
)

var prepareSourceNames = [...]string{"not prepared", "uncached", "cache miss", "cache hit", "shared in-flight"}

func (s PrepareSource) String() string { return prepareSourceNames[s] }

// PrepareStats is what a target's Prepare did, once: where its prepared
// state came from; the wall-clock of its golden run — the cold path, golden
// execution, checkpoint recording and profile build — or zero when the
// state was adopted; and its checkpoint store's snapshot count (the
// pristine image included), the approximate bytes the snapshots retain
// beyond that image, and the bytes of the intra-CTA snapshot store, all
// zero under FullRun. Unlike CampaignStats it does not add across
// campaigns.
type PrepareStats struct {
	Source                                PrepareSource
	Wall                                  time.Duration
	Checkpoints                           int
	CheckpointBytes, IntraCheckpointBytes int64
}

// PrepareStats reports what Prepare did for this target: the zero value
// before Prepare, and the same value after every later campaign or Prepare.
func (t *Target) PrepareStats() PrepareStats {
	s := t.prepared
	if ck := t.Checkpoints(); ck != nil {
		s.Checkpoints, s.CheckpointBytes = ck.Count(), ck.Bytes()
	}
	if wck := t.WarpCheckpoints(); wck != nil {
		s.IntraCheckpointBytes = wck.Bytes()
	}
	return s
}

// String renders the stats as the -stats "prepare:" line.
func (s PrepareStats) String() string {
	out := fmt.Sprintf("prepare: %v, %d checkpoints (%d KiB)", s.Source, s.Checkpoints, s.CheckpointBytes/1024)
	if s.IntraCheckpointBytes > 0 {
		out += fmt.Sprintf(", %d KiB warp snapshots", s.IntraCheckpointBytes/1024)
	}
	if s.Wall > 0 {
		out += fmt.Sprintf(", golden run %v", s.Wall.Round(time.Millisecond))
	}
	return out
}

// CacheStats is a point-in-time summary of a PreparedCache. The JSON tags
// are the keys of the "cache" object of fsserve's /stats document.
type CacheStats struct {
	// Hits counts Prepares served from a finished entry; Misses counts
	// Prepares that performed the golden run; Shared counts Prepares that
	// blocked on another caller's in-flight golden run.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Shared int64 `json:"shared"`
	// Evictions counts entries dropped to respect the byte bound.
	Evictions int64 `json:"evictions"`
	// Entries and Bytes describe current residency.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// String renders the stats in the -stats one-line style.
func (s CacheStats) String() string {
	return fmt.Sprintf("prepared cache: %d hits, %d misses, %d shared, %d evictions, %d entries (%.1f MiB)",
		s.Hits, s.Misses, s.Shared, s.Evictions, s.Entries,
		float64(s.Bytes)/(1<<20))
}

// prepEntry is one cache slot. ready is closed when the golden run
// finished (successfully or not); done/state/err are written before the
// close and only read after it (waiters) or under the cache lock (hits).
type prepEntry struct {
	key     prepareKey
	ready   chan struct{}
	done    bool
	state   *preparedState
	err     error
	bytes   int64
	lastUse int64
	// pins counts callers still between admitting/joining this entry and
	// installing its state: the creator from registration until its install
	// finishes, and every singleflight waiter until it wakes and installs.
	// A pinned entry is never evicted — without the pin, a concurrent
	// different-keyed install could evict the entry in that window
	// (evictLocked's keep only shields the entry being installed *by that
	// call*), and the next equal-keyed Prepare would re-run a golden run
	// whose result waiters were still adopting, double-counting the miss.
	pins int
}

// PreparedCache shares prepared-target state across Targets with equal
// keys. It is safe for concurrent use. Entries are evicted least recently
// used once retained bytes exceed the bound, except the entry being
// returned and entries still in flight. A zero PreparedCache is not usable;
// construct with NewPreparedCache or use DefaultPreparedCache.
type PreparedCache struct {
	mu       sync.Mutex
	maxBytes int64
	seq      int64
	bytes    int64
	entries  map[prepareKey]*prepEntry
	hits     int64
	misses   int64
	shared   int64
	evicted  int64
}

// NewPreparedCache builds a cache bounded to maxBytes of retained prepared
// state (approximate; see preparedState.approxBytes). maxBytes <= 0 selects
// DefaultPreparedCacheBytes.
func NewPreparedCache(maxBytes int64) *PreparedCache {
	if maxBytes <= 0 {
		maxBytes = DefaultPreparedCacheBytes
	}
	return &PreparedCache{
		maxBytes: maxBytes,
		entries:  make(map[prepareKey]*prepEntry),
	}
}

var processCache = NewPreparedCache(0)

// DefaultPreparedCache returns the process-wide prepared-target cache the
// CLIs and the experiments harness share.
func DefaultPreparedCache() *PreparedCache { return processCache }

// Stats returns a point-in-time summary.
func (c *PreparedCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Shared: c.shared,
		Evictions: c.evicted, Entries: len(c.entries), Bytes: c.bytes,
	}
}

// prepare is the Prepare path for a cache-routed target (t.Cache == c).
func (c *PreparedCache) prepare(t *Target) error {
	key := t.prepareKey()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.done {
			// Finished entries with errors are removed on completion, so a
			// resident done entry always holds usable state.
			c.hits++
			t.prepared.Source = PreparedHit
			c.seq++
			e.lastUse = c.seq
			t.prep = e.state
			c.mu.Unlock()
			return nil
		}
		// Another caller's golden run is in flight: wait for it. The pin
		// keeps the entry resident from here until this caller installed
		// its state, so the shared golden run can never be evicted out from
		// under a waiter that already joined it.
		e.pins++
		c.shared++
		t.prepared.Source = PreparedShared
		c.mu.Unlock()
		<-e.ready
		t.prep = e.state // nil when the shared golden run failed
		c.mu.Lock()
		e.pins--
		// Dropping the pin may unblock an eviction the byte bound already
		// owed; settle it now (still shielding the entry being returned)
		// rather than waiting for the next install.
		c.evictLocked(e)
		c.mu.Unlock()
		return e.err
	}

	// First caller for this key: publish the in-flight entry (pinned until
	// its install completes), run the golden execution outside the lock,
	// then finalize.
	e := &prepEntry{key: key, ready: make(chan struct{}), pins: 1}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	start := time.Now()
	e.state, e.err = t.prepareCold()
	t.prep, t.prepared = e.state, PrepareStats{Source: PreparedMiss, Wall: time.Since(start)}

	c.mu.Lock()
	if e.err != nil {
		// Do not cache failures: a later caller may fix the target (or the
		// failure may be transient) and should get a fresh attempt.
		delete(c.entries, key)
	} else {
		e.bytes = e.state.approxBytes()
		e.done = true
		c.seq++
		e.lastUse = c.seq
		c.bytes += e.bytes
		c.evictLocked(e)
	}
	e.pins--
	close(e.ready)
	c.mu.Unlock()
	return e.err
}

// evictLocked drops least-recently-used finished entries until retained
// bytes fit the bound. The entry being returned (keep, may be nil),
// in-flight entries, and pinned entries (callers still adopting their
// state; see prepEntry.pins) are never evicted, so the newest entry is
// always admitted — a single oversized kernel degrades the cache to
// pass-through rather than failing — and a concurrent install can never
// invalidate a golden run another caller is mid-way through adopting.
func (c *PreparedCache) evictLocked(keep *prepEntry) {
	for c.bytes > c.maxBytes {
		var victim *prepEntry
		for _, e := range c.entries {
			if e == keep || !e.done || e.pins > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victim.key)
		c.bytes -= victim.bytes
		c.evicted++
	}
}
