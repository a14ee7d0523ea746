package fault

import (
	"testing"

	"repro/internal/gpusim"
)

// entryFor registers a finished entry of the given size directly, the
// white-box seam for eviction-policy tests.
func entryFor(c *PreparedCache, name string, bytes int64) *prepEntry {
	e := &prepEntry{
		key:   prepareKey{name: name},
		ready: make(chan struct{}),
		done:  true,
		bytes: bytes,
	}
	close(e.ready)
	c.seq++
	e.lastUse = c.seq
	c.entries[e.key] = e
	c.bytes += bytes
	return e
}

// TestEvictLockedSkipsPinned pins the eviction-vs-in-flight-handoff fix:
// an entry some caller is still adopting (pins > 0) must survive any
// concurrent install's eviction pass, no matter how over budget the cache
// is; dropping the pin makes it an ordinary LRU victim again.
func TestEvictLockedSkipsPinned(t *testing.T) {
	c := NewPreparedCache(10)
	c.mu.Lock()
	defer c.mu.Unlock()

	pinned := entryFor(c, "pinned", 8)
	pinned.pins = 1
	loose := entryFor(c, "loose", 8) // more recently used than pinned
	entryFor(c, "inflight", 0).done = false

	// 16 bytes resident against a 10-byte bound: eviction wants victims.
	// LRU order would pick "pinned" first; the pin must divert it to
	// "loose" and then stop (the in-flight entry is never a victim).
	c.evictLocked(nil)
	if _, ok := c.entries[pinned.key]; !ok {
		t.Fatal("pinned entry was evicted while a caller was adopting it")
	}
	if _, ok := c.entries[loose.key]; ok {
		t.Fatal("unpinned LRU entry survived an over-budget eviction pass")
	}
	if c.evicted != 1 {
		t.Fatalf("evictions = %d, want 1", c.evicted)
	}
	// The surviving pinned entry alone fits the bound again.
	if c.bytes != 8 {
		t.Fatalf("resident bytes = %d, want 8", c.bytes)
	}

	// Unpinned, the same entry becomes a normal victim.
	pinned.pins = 0
	entryFor(c, "newer", 8)
	c.evictLocked(nil)
	if _, ok := c.entries[pinned.key]; ok {
		t.Fatal("unpinned entry survived eviction despite being the LRU victim")
	}
}

// TestApproxBytesCountsSummaries: the byte bound counts the checkpoint
// store's access summaries and final image. On deadExitTarget they are the
// bulk of the entry — against a few hundred bytes of PC trace, a word table
// for each of the five loaded and seven stored pages, the four pages the
// last CTA privatizes after the last snapshot, which only the final image
// holds, a thread-start bit per thread, and the page tables of the final
// image and the three snapshots after the pristine one, 26 bytes per page
// each — so an estimate that left them out would admit entries over the
// bound. The page tables are what grows with the grid: on NN K1 at paper
// scale they outweigh the summaries.
func TestApproxBytesCountsSummaries(t *testing.T) {
	tg := deadExitTarget(t)
	s := tg.prep
	parts := int64(len(s.golden)) + s.ckpt.Bytes() + s.ckpt.SummaryBytes()
	if w := s.ckpt.Warp(); w != nil {
		parts += w.Bytes()
	}
	if s.ckpt.Count() != 4 {
		t.Fatalf("%d snapshots of a 4-CTA grid", s.ckpt.Count())
	}
	tables := int64((24 + 2) * s.ckpt.Count() * tg.Init.NumPages())
	if s.ckpt.SummaryBytes() < (5+7+4)*gpusim.PageSize+8*int64((tg.Threads()+63)/64)+tables {
		t.Fatalf("summaries of 5 loaded and 7 stored pages, a final image of 4 private pages, %d thread-start bits and %d bytes of page tables report %d bytes",
			tg.Threads(), tables, s.ckpt.SummaryBytes())
	}
	// Every thread's profile costs 48 bytes, every distinct trace its
	// entries once: threads with equal traces hold one copy.
	distinct := map[*uint16]int64{}
	for _, tp := range s.profile.Threads {
		distinct[&tp.PCs[0]] = 2 * int64(len(tp.PCs))
	}
	if len(distinct) >= tg.Threads() {
		t.Fatalf("%d distinct traces among %d threads: none shared", len(distinct), tg.Threads())
	}
	want := parts + 48*int64(tg.Threads())
	for _, n := range distinct {
		want += n
	}
	if got := s.approxBytes(); got != want {
		t.Fatalf("approxBytes = %d, want golden + snapshots + summaries + profiles + distinct traces = %d", got, want)
	}

	// The cache charges exactly that estimate.
	c := NewPreparedCache(0)
	cached := deadExitTarget(t)
	cached.prep, cached.Cache = nil, c
	if err := cached.Prepare(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Bytes != cached.prep.approxBytes() {
		t.Fatalf("cache holds %d bytes, entry estimates %d", st.Bytes, cached.prep.approxBytes())
	}
}

// TestEvictLockedKeepShield: the entry being returned by the current call
// is never its own victim, even when it is the only evictable entry.
func TestEvictLockedKeepShield(t *testing.T) {
	c := NewPreparedCache(1)
	c.mu.Lock()
	defer c.mu.Unlock()

	keep := entryFor(c, "keep", 100)
	c.evictLocked(keep)
	if _, ok := c.entries[keep.key]; !ok {
		t.Fatal("keep entry evicted by its own install pass")
	}
	if c.evicted != 0 {
		t.Fatalf("evictions = %d, want 0", c.evicted)
	}
}
