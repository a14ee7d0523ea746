package fault

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// fastGuard are failure-isolation options tuned so retry/quarantine tests
// run in microseconds.
func fastGuard(par int) CampaignOptions {
	return CampaignOptions{Parallelism: par, maxAttempts: 2, retryBackoff: time.Microsecond, KeepPerSite: true}
}

// TestRunWithQuarantine: in the default isolating mode, a permanently
// erroring site and a panicking site are each retried maxAttempts times and
// then quarantined as EngineError; the rest of the campaign completes.
func TestRunWithQuarantine(t *testing.T) {
	const n = 40
	res, st, err := runWith(fakeSites(n), nil, fastGuard(4),
		func(s Site) (Outcome, runCost, error) {
			switch s.Thread {
			case 7:
				return 0, runCost{}, errors.New("permanent engine fault")
			case 11:
				panic("interpreter invariant violated")
			}
			return Masked, runCost{}, nil
		})
	if err != nil {
		t.Fatalf("isolating campaign returned error: %v", err)
	}
	if res.Dist.W[EngineError] != 2 || res.Dist.Total() != n {
		t.Fatalf("dist = %+v, want 2 engine errors of %d total", res.Dist, n)
	}
	if len(res.Quarantined) != 2 || res.Quarantined[0].Index != 7 || res.Quarantined[1].Index != 11 {
		t.Fatalf("quarantined = %+v", res.Quarantined)
	}
	if !strings.Contains(res.Quarantined[1].Err, "interpreter invariant violated") {
		t.Fatalf("panic cause lost: %q", res.Quarantined[1].Err)
	}
	if res.PerSite[7] != EngineError || res.PerSite[11] != EngineError || res.PerSite[0] != Masked {
		t.Fatalf("per-site outcomes: %v", res.PerSite[:12])
	}
	if st.Quarantined != 2 || st.Retries != 2 {
		t.Fatalf("stats: quarantined %d retries %d, want 2 and 2", st.Quarantined, st.Retries)
	}
	if st.Runs != n-2+2*2 {
		t.Fatalf("runs = %d, want %d", st.Runs, n-2+2*2)
	}
}

// TestRunWithRetryTransient: a site that fails once and then succeeds costs
// one retry and contributes its real outcome, not EngineError.
func TestRunWithRetryTransient(t *testing.T) {
	const n = 20
	var flaky atomic.Int64
	res, st, err := runWith(fakeSites(n), nil, fastGuard(2),
		func(s Site) (Outcome, runCost, error) {
			if s.Thread == 3 && flaky.Add(1) == 1 {
				return 0, runCost{}, errors.New("transient")
			}
			return SDC, runCost{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerSite[3] != SDC {
		t.Fatalf("flaky site outcome = %v, want SDC", res.PerSite[3])
	}
	if st.Retries != 1 || st.Quarantined != 0 || len(res.Quarantined) != 0 {
		t.Fatalf("retries %d quarantined %d", st.Retries, st.Quarantined)
	}
	if st.Runs != n+1 {
		t.Fatalf("runs = %d, want %d", st.Runs, n+1)
	}
}

// TestRunWithSiteDeadline: an attempt exceeding the wall-clock deadline is
// abandoned and the site quarantined, even though the site function never
// returns an error on its own.
func TestRunWithSiteDeadline(t *testing.T) {
	opt := CampaignOptions{Parallelism: 2, maxAttempts: 1, siteDeadline: 5 * time.Millisecond, KeepPerSite: true}
	release := make(chan struct{})
	defer close(release)
	res, st, err := runWith(fakeSites(10), nil, opt,
		func(s Site) (Outcome, runCost, error) {
			if s.Thread == 4 {
				<-release // wedged until the test ends
			}
			return Masked, runCost{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerSite[4] != EngineError || st.Quarantined != 1 {
		t.Fatalf("wedged site: outcome %v, quarantined %d", res.PerSite[4], st.Quarantined)
	}
	if len(res.Quarantined) != 1 || !strings.Contains(res.Quarantined[0].Err, "deadline") {
		t.Fatalf("quarantine record: %+v", res.Quarantined)
	}
}

// TestRunWithInterrupt: closing the interrupt channel stops the campaign
// after the in-flight sites and surfaces ErrInterrupted.
func TestRunWithInterrupt(t *testing.T) {
	const n = 200
	intr := make(chan struct{})
	var executed atomic.Int64
	_, st, err := runWith(fakeSites(n), nil,
		CampaignOptions{Parallelism: 1, Interrupt: intr},
		func(s Site) (Outcome, runCost, error) {
			if executed.Add(1) == 5 {
				close(intr)
			}
			return Masked, runCost{}, nil
		})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if got := executed.Load(); got < 5 || got > 20 {
		t.Fatalf("executed %d sites after interrupt at 5", got)
	}
	if st.Runs != executed.Load() {
		t.Fatalf("stats runs %d != executed %d", st.Runs, executed.Load())
	}
}

// TestShardOwnedCountsOwns: the closed form a shard's completion target
// comes from counts exactly the schedule positions owns hands it, zero
// Shard included.
func TestShardOwnedCountsOwns(t *testing.T) {
	shards := []Shard{{}}
	for count := 1; count <= 5; count++ {
		for index := 0; index < count; index++ {
			shards = append(shards, Shard{Index: index, Count: count})
		}
	}
	for _, sh := range shards {
		for n := 0; n <= 64; n++ {
			want := 0
			for pos := 0; pos < n; pos++ {
				if sh.owns(pos) {
					want++
				}
			}
			if got := sh.Owned(n); got != want {
				t.Fatalf("shard %d/%d of %d positions: Owned %d, owns counts %d", sh.Index, sh.Count, n, got, want)
			}
		}
	}
}

// TestShardPartition: shards are disjoint, cover everything, and their
// per-shard distributions merge to the unsharded one.
func TestShardPartition(t *testing.T) {
	const n, shards = 97, 3
	sites := fakeSites(n)
	outcomeOf := func(s Site) Outcome { return Outcome(s.Thread % 3) }
	run := func(sh Shard) (*CampaignResult, []bool) {
		seen := make([]bool, n)
		var mu sync.Mutex
		res, _, err := runWith(sites, nil, CampaignOptions{Parallelism: 4, Shard: sh, KeepPerSite: true},
			func(s Site) (Outcome, runCost, error) {
				mu.Lock()
				seen[s.Thread] = true
				mu.Unlock()
				return outcomeOf(s), runCost{}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res, seen
	}

	full, _ := run(Shard{})
	if full.Completed != n {
		t.Fatalf("unsharded completed %d of %d", full.Completed, n)
	}

	var merged Dist
	covered := make([]bool, n)
	total := 0
	for idx := 0; idx < shards; idx++ {
		res, seen := run(Shard{Index: idx, Count: shards})
		total += res.Completed
		for i, s := range seen {
			if s && covered[i] {
				t.Fatalf("site %d executed by two shards", i)
			}
			covered[i] = covered[i] || s
		}
		merged.Merge(res.Dist)
	}
	if total != n {
		t.Fatalf("shards completed %d sites, want %d", total, n)
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("site %d executed by no shard", i)
		}
	}
	if merged != full.Dist {
		t.Fatalf("merged shard dist %+v != full dist %+v", merged, full.Dist)
	}

	// Invalid shards are rejected.
	for _, sh := range []Shard{{Index: 3, Count: 3}, {Index: -1, Count: 2}, {Index: 0, Count: -1}} {
		if _, _, err := runWith(sites, nil, CampaignOptions{Shard: sh},
			func(s Site) (Outcome, runCost, error) { return Masked, runCost{}, nil }); err == nil {
			t.Fatalf("shard %+v accepted", sh)
		}
	}
}

// journalFP builds a fingerprint for raw runWith journal tests.
func journalFP(n int) journal.Fingerprint {
	return journal.Fingerprint{Kernel: "fake", Seed: 1, Model: "dest-value", Sites: n, ShardCount: 1}
}

// TestRunWithJournalResume: a campaign stopped mid-way leaves completed
// outcomes in the journal; the rerun replays them (never re-executing),
// finishes the rest, and the aggregate matches an uninterrupted run.
func TestRunWithJournalResume(t *testing.T) {
	const n, stopAt = 100, 60
	sites := fakeSites(n)
	outcomeOf := func(s Site) Outcome { return Outcome(s.Thread % 4) }
	path := filepath.Join(t.TempDir(), "c.journal")

	ref, _, err := runWith(sites, nil, CampaignOptions{Parallelism: 2, KeepPerSite: true},
		func(s Site) (Outcome, runCost, error) { return outcomeOf(s), runCost{}, nil })
	if err != nil {
		t.Fatal(err)
	}

	j, err := journal.Open(path, journalFP(n))
	if err != nil {
		t.Fatal(err)
	}
	intr := make(chan struct{})
	_, _, err = runWith(sites, nil, CampaignOptions{Parallelism: 2, Journal: j, Interrupt: intr},
		func(s Site) (Outcome, runCost, error) {
			if s.Thread == stopAt {
				close(intr)
			}
			return outcomeOf(s), runCost{}, nil
		})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	j.Close()

	j2, err := journal.Open(path, journalFP(n))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// The stopping site itself is journaled; the sites queued behind it in
	// its chunk never run.
	if got := len(j2.Replayed()); got == 0 || got == n {
		t.Fatalf("%d of %d sites journaled before the stop, want a partial journal", got, n)
	}
	var reexecuted atomic.Int64
	journaled := map[int]bool{}
	for _, r := range j2.Replayed() {
		journaled[r.Index] = true
	}
	res, st, err := runWith(sites, nil, CampaignOptions{Parallelism: 2, KeepPerSite: true, Journal: j2},
		func(s Site) (Outcome, runCost, error) {
			if journaled[s.Thread] {
				reexecuted.Add(1)
			}
			return outcomeOf(s), runCost{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if reexecuted.Load() != 0 {
		t.Fatalf("%d journaled sites were re-executed on resume", reexecuted.Load())
	}
	if st.Replayed != int64(len(journaled)) || st.Runs != int64(n-len(journaled)) {
		t.Fatalf("replayed %d runs %d, journal had %d of %d", st.Replayed, st.Runs, len(journaled), n)
	}
	if res.Dist != ref.Dist {
		t.Fatalf("resumed dist %+v != reference %+v", res.Dist, ref.Dist)
	}
	for i := range ref.PerSite {
		if res.PerSite[i] != ref.PerSite[i] {
			t.Fatalf("site %d: resumed %v, reference %v", i, res.PerSite[i], ref.PerSite[i])
		}
	}
}

// TestRunWithJournalSiteMismatch: a journal whose records do not match the
// campaign's site list (same fingerprint, different derivation) is rejected
// instead of replayed.
func TestRunWithJournalSiteMismatch(t *testing.T) {
	const n = 10
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := journal.Open(path, journalFP(n))
	if err != nil {
		t.Fatal(err)
	}
	// Record index 0 with a site key that is not sites[0].
	if err := j.Append(journal.Record{Index: 0, Thread: 999, Outcome: uint8(Masked), Weight: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := journal.Open(path, journalFP(n))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	_, _, err = runWith(fakeSites(n), nil, CampaignOptions{Journal: j2},
		func(s Site) (Outcome, runCost, error) { return Masked, runCost{}, nil })
	if err == nil || !strings.Contains(err.Error(), "campaign site") {
		t.Fatalf("mismatched journal accepted: %v", err)
	}
}

// TestRunWithJournalQuarantineReplay: quarantined sites round-trip through
// the journal — the resumed campaign reports them without re-running them.
func TestRunWithJournalQuarantineReplay(t *testing.T) {
	const n = 30
	sites := fakeSites(n)
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := journal.Open(path, journalFP(n))
	if err != nil {
		t.Fatal(err)
	}
	opt := fastGuard(2)
	opt.Journal = j
	res1, _, err := runWith(sites, nil, opt,
		func(s Site) (Outcome, runCost, error) {
			if s.Thread == 5 {
				return 0, runCost{}, errors.New("permanent")
			}
			return Masked, runCost{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := journal.Open(path, journalFP(n))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	opt2 := fastGuard(2)
	opt2.Journal = j2
	res2, st, err := runWith(sites, nil, opt2,
		func(s Site) (Outcome, runCost, error) {
			t.Error("fully journaled campaign executed a site")
			return Masked, runCost{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 0 || st.Replayed != n {
		t.Fatalf("runs %d replayed %d, want 0 and %d", st.Runs, st.Replayed, n)
	}
	if res2.Dist != res1.Dist {
		t.Fatalf("replayed dist %+v != original %+v", res2.Dist, res1.Dist)
	}
	if len(res2.Quarantined) != 1 || res2.Quarantined[0].Index != 5 ||
		!strings.Contains(res2.Quarantined[0].Err, "permanent") {
		t.Fatalf("quarantine lost in replay: %+v", res2.Quarantined)
	}
}

// TestStatsSinkConcurrentAdd: StatsSink.Add (and through it
// CampaignStats.Merge) is safe under concurrent use — run with -race — and
// loses no counts.
func TestStatsSinkConcurrentAdd(t *testing.T) {
	var sink StatsSink
	const workers, adds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				sink.Add(CampaignStats{
					Runs: 1, Wall: time.Millisecond, PagesCopied: 2, DevicesCreated: 1,
					CTAsSkipped: 3, EarlyExits: 1, Retries: 1, Quarantined: 1, Replayed: 2,
					Checkpoints: w + 1, CheckpointBytes: int64(1024 * (w + 1)),
				})
			}
		}(w)
	}
	wg.Wait()
	got := sink.Total()
	const total = workers * adds
	if got.Runs != total || got.PagesCopied != 2*total || got.DevicesCreated != total ||
		got.CTAsSkipped != 3*total || got.EarlyExits != total || got.Retries != total ||
		got.Quarantined != total || got.Replayed != 2*total || got.Wall != total*time.Millisecond {
		t.Fatalf("lost updates: %+v", got)
	}
	if got.Checkpoints != workers || got.CheckpointBytes != int64(1024*workers) {
		t.Fatalf("max-merged checkpoint figures: %+v", got)
	}
}

// TestDistMergeCommutative: the merge path aggregates shard distributions
// in file order, so Dist addition must commute — with weights that are
// exact in binary floating point, bit-exactly.
func TestDistMergeCommutative(t *testing.T) {
	mk := func(seed int) Dist {
		var d Dist
		for i := 0; i < 64; i++ {
			d.Add(Outcome((i*seed+3)%int(numOutcomes)), []float64{0.25, 0.5, 1, 2}[i%4])
		}
		return d
	}
	a, b, c := mk(1), mk(5), mk(11)

	ab := a
	ab.Merge(b)
	ab.Merge(c)
	cb := c
	cb.Merge(b)
	cb.Merge(a)
	if ab != cb {
		t.Fatalf("merge order changed the distribution:\n%+v\n%+v", ab, cb)
	}
	wantN := a.N + b.N + c.N
	if ab.N != wantN {
		t.Fatalf("experiment count %d, want %d", ab.N, wantN)
	}
	wantW := a.Total() + b.Total() + c.Total()
	if ab.Total() != wantW {
		t.Fatalf("total weight %v, want %v", ab.Total(), wantW)
	}
}

// TestEngineErrorClassAndString: the quarantine bucket folds into the
// paper's "other" class and has a stable name.
func TestEngineErrorClassAndString(t *testing.T) {
	if EngineError.Class() != ClassOther {
		t.Fatalf("EngineError class = %v", EngineError.Class())
	}
	if EngineError.String() != "engine-error" {
		t.Fatalf("EngineError string = %q", EngineError)
	}
	if !EngineError.Valid() || Outcome(numOutcomes).Valid() {
		t.Fatal("Outcome.Valid bounds wrong")
	}
	var f SiteFailure
	f.Site = Site{Thread: 1}
	f.Err = "x"
	if fmt.Sprint(f) == "" {
		t.Fatal("empty SiteFailure string")
	}
}
