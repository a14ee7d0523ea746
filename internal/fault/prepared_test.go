package fault_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/stats"
)

// buildGEMM builds a fresh GEMM K1 instance (deterministic: equal-keyed
// across calls) with the given prepared-target cache attached.
func buildGEMM(t *testing.T, cache *fault.PreparedCache) *fault.Target {
	t.Helper()
	spec, ok := kernels.ByName("GEMM K1")
	if !ok {
		t.Skip("GEMM K1 not in registry")
	}
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	inst.Target.Cache = cache
	return inst.Target
}

// TestPreparedCacheConcurrent: N goroutines Prepare equal-keyed targets
// against one cache; exactly one golden run happens (one miss), everyone
// else hits the finished entry or blocks on the in-flight one, and all
// targets share the same immutable artifacts. Run under -race this also
// exercises the singleflight synchronization.
func TestPreparedCacheConcurrent(t *testing.T) {
	const n = 8
	cache := fault.NewPreparedCache(0)
	targets := make([]*fault.Target, n)
	for i := range targets {
		targets[i] = buildGEMM(t, cache)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = targets[i].Prepare()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}

	st := cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d golden runs observed, want exactly 1 (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Shared != n-1 {
		t.Fatalf("hits %d + shared %d != %d (stats %+v)", st.Hits, st.Shared, n-1, st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("residency: %+v", st)
	}
	for i := 1; i < n; i++ {
		if targets[i].Profile() != targets[0].Profile() {
			t.Fatalf("target %d holds a private profile; artifacts were not shared", i)
		}
		if targets[i].Checkpoints() != targets[0].Checkpoints() {
			t.Fatalf("target %d holds a private checkpoint store", i)
		}
		if !bytes.Equal(targets[i].Golden(), targets[0].Golden()) {
			t.Fatalf("target %d golden output differs", i)
		}
	}
}

// TestPreparedCacheEviction: a byte bound of 1 forces every insertion to
// evict the previous entry (the newest is always admitted), and an evicted
// key re-Prepares from scratch with correct campaign results.
func TestPreparedCacheEviction(t *testing.T) {
	cache := fault.NewPreparedCache(1)

	tgA := buildGEMM(t, cache)
	if err := tgA.Prepare(); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("after A: %+v", st)
	}

	// A different first intra-CTA capture stride is a different key.
	tgB := buildGEMM(t, cache)
	fault.SetIntraStart(tgB, 7)
	if err := tgB.Prepare(); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Entries != 1 {
		t.Fatalf("byte bound not respected: %d entries resident (%+v)", st.Entries, st)
	}
	if st.Evictions != 1 || st.Misses != 2 {
		t.Fatalf("after B: %+v", st)
	}

	// A's key was evicted: a fresh equal-keyed target must re-Prepare (a
	// miss, not a hit) and produce correct results.
	tgA2 := buildGEMM(t, cache)
	if err := tgA2.Prepare(); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("evicted entry not re-prepared: %+v", st)
	}

	cold := buildGEMM(t, nil)
	if err := cold.Prepare(); err != nil {
		t.Fatal(err)
	}
	sites := fault.Uniform(fault.NewSpace(cold.Profile()).Random(stats.NewRNG(3), 64))
	want, err := fault.Run(cold, sites, fault.CampaignOptions{KeepPerSite: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fault.Run(tgA2, sites, fault.CampaignOptions{KeepPerSite: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist != want.Dist {
		t.Fatalf("re-prepared campaign dist %v, cold %v", got.Dist, want.Dist)
	}
	for i := range want.PerSite {
		if got.PerSite[i] != want.PerSite[i] {
			t.Fatalf("site %v: re-prepared %v, cold %v", sites[i].Site, got.PerSite[i], want.PerSite[i])
		}
	}
}

// TestCachedCampaignBitIdentical: campaigns on a cache-adopted target are
// bit-identical to uncached ones — Dist, PerSite, and the serialized report
// JSON — on a kernel whose exhaustive site space reaches all four outcomes
// including barrier-deadlock hangs and address crashes (chainHangTarget).
func TestCachedCampaignBitIdentical(t *testing.T) {
	cold := chainHangTarget(t)
	if err := cold.Prepare(); err != nil {
		t.Fatal(err)
	}

	cache := fault.NewPreparedCache(0)
	warm := chainHangTarget(t)
	warm.Cache = cache
	if err := warm.Prepare(); err != nil { // performs the golden run
		t.Fatal(err)
	}
	adopted := chainHangTarget(t)
	adopted.Cache = cache
	if err := adopted.Prepare(); err != nil { // adopts shared state
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache provenance: %+v", st)
	}

	sites := exhaustiveSites(cold)
	opt := func() fault.CampaignOptions {
		return fault.CampaignOptions{Parallelism: 4, KeepPerSite: true}
	}
	want, err := fault.Run(cold, sites, opt())
	if err != nil {
		t.Fatal(err)
	}
	for name, tg := range map[string]*fault.Target{"warm": warm, "adopted": adopted} {
		got, err := fault.Run(tg, sites, opt())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Dist != want.Dist {
			t.Fatalf("%s dist %v, uncached %v", name, got.Dist, want.Dist)
		}
		for i := range want.PerSite {
			if got.PerSite[i] != want.PerSite[i] {
				t.Fatalf("%s site %v: %v, uncached %v", name, sites[i].Site, got.PerSite[i], want.PerSite[i])
			}
		}
		var wbuf, gbuf bytes.Buffer
		if err := report.Write(&wbuf, report.NewProfile(want.Dist)); err != nil {
			t.Fatal(err)
		}
		if err := report.Write(&gbuf, report.NewProfile(got.Dist)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wbuf.Bytes(), gbuf.Bytes()) {
			t.Fatalf("%s report JSON differs:\n%s\nvs uncached:\n%s", name, gbuf.String(), wbuf.String())
		}
	}
}

// TestAffinityScheduling: on a checkpointed target, snapshot-affine chunk
// scheduling keeps pinned devices on ResetFrom's same-source fast path —
// AffinityResets stays far below the run count and within the cursor's
// bound of one switch per worker per snapshot — each worker creates exactly
// one device, and parallel scheduling never changes outcomes relative to a
// serial campaign.
func TestAffinityScheduling(t *testing.T) {
	tg := buildGEMM(t, nil)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	if tg.Checkpoints() == nil {
		t.Skip("target built without checkpoints; affinity does not apply")
	}
	sites := fault.Uniform(fault.NewSpace(tg.Profile()).Random(stats.NewRNG(11), 400))

	const workers = 4
	serial, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: 1, KeepPerSite: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: workers, KeepPerSite: true})
	if err != nil {
		t.Fatal(err)
	}
	if par.Dist != serial.Dist {
		t.Fatalf("parallel dist %v, serial %v", par.Dist, serial.Dist)
	}
	for i := range serial.PerSite {
		if par.PerSite[i] != serial.PerSite[i] {
			t.Fatalf("site %v: parallel %v, serial %v", sites[i].Site, par.PerSite[i], serial.PerSite[i])
		}
	}
	for w, st := range map[int]fault.CampaignStats{1: serial.Stats, workers: par.Stats} {
		if st.AffinityResets >= int64(st.Runs)/2 {
			t.Fatalf("%d workers: %d affinity resets for %d runs — pinning ineffective",
				w, st.AffinityResets, st.Runs)
		}
		// No attempt is abandoned here (st.Retries == 0), so each worker
		// keeps its one device and walks the schedule forwards, meeting
		// every snapshot at most once.
		if st.Retries != 0 {
			t.Fatalf("%d workers: %d retries on a healthy campaign", w, st.Retries)
		}
		if bound := int64(w * st.Checkpoints); st.AffinityResets > bound {
			t.Fatalf("%d workers: %d affinity resets exceed workers × checkpoints = %d",
				w, st.AffinityResets, bound)
		}
		if st.DevicesCreated != w {
			t.Fatalf("%d workers: %d devices created", w, st.DevicesCreated)
		}
	}
}

// TestCampaignReportsCachePrep: the first campaign on a cache-routed target
// reports its Prepare provenance and golden-run wall-clock in CampaignStats
// exactly once; a second campaign on the same target reports zeros, so
// pipeline-aggregated sinks count each golden run once.
func TestCampaignReportsCachePrep(t *testing.T) {
	cache := fault.NewPreparedCache(0)
	tg := buildGEMM(t, cache)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	sites := fault.Uniform(fault.NewSpace(tg.Profile()).Random(stats.NewRNG(9), 16))

	first, err := fault.Run(tg, sites, fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheMisses != 1 || first.Stats.CacheHits != 0 || first.Stats.PrepareWall <= 0 {
		t.Fatalf("first campaign prep stats: %+v", first.Stats)
	}
	second, err := fault.Run(tg, sites, fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheMisses != 0 || second.Stats.CacheHits != 0 || second.Stats.PreparedShared != 0 || second.Stats.PrepareWall != 0 {
		t.Fatalf("second campaign double-counts prep: %+v", second.Stats)
	}

	adopted := buildGEMM(t, cache)
	if err := adopted.Prepare(); err != nil {
		t.Fatal(err)
	}
	res, err := fault.Run(adopted, sites, fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 1 || res.Stats.CacheMisses != 0 || res.Stats.PrepareWall != 0 {
		t.Fatalf("adopted target prep stats: %+v", res.Stats)
	}
}

// TestPreparedCacheEvictionUnderContention storms a deliberately undersized
// cache (every entry oversized, so each install runs the eviction loop)
// with concurrent Prepares across two keys. Under -race this exercises the
// pin accounting that keeps a just-admitted entry resident while concurrent
// equal-keyed callers adopt it; behaviorally, every Prepare must succeed
// with complete artifacts, the accounting must balance (hits + shared +
// misses = Prepares), and the cache must never do more golden runs than
// cold-start generations (misses can only be caused by real evictions, so
// misses <= evictions + residents per key).
func TestPreparedCacheEvictionUnderContention(t *testing.T) {
	const goroutines, rounds = 8, 6
	cache := fault.NewPreparedCache(1) // everything is oversized

	total := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		for r := 0; r < rounds; r++ {
			total += 2
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := buildGEMM(t, cache)
				if err := a.Prepare(); err != nil {
					t.Errorf("key A: %v", err)
					return
				}
				if a.Profile() == nil || len(a.Golden()) == 0 {
					t.Error("key A: incomplete artifacts after Prepare")
				}
				b := buildGEMM(t, cache)
				fault.SetIntraStart(b, 7) // distinct key: installs contend with A's
				if err := b.Prepare(); err != nil {
					t.Errorf("key B: %v", err)
					return
				}
				if b.Profile() == nil || len(b.Golden()) == 0 {
					t.Error("key B: incomplete artifacts after Prepare")
				}
			}()
		}
	}
	wg.Wait()

	st := cache.Stats()
	if st.Hits+st.Shared+st.Misses != int64(total) {
		t.Fatalf("accounting: hits %d + shared %d + misses %d != %d prepares (%+v)",
			st.Hits, st.Shared, st.Misses, total, st)
	}
	// Every miss after the two cold starts must be explained by an
	// eviction: a miss without a prior eviction of that key would mean an
	// admitted entry vanished mid-handoff — the window the pin closes.
	if st.Misses > st.Evictions+2 {
		t.Fatalf("%d golden runs but only %d evictions (+2 cold starts): entries vanished mid-handoff (%+v)",
			st.Misses, st.Evictions, st)
	}
}
