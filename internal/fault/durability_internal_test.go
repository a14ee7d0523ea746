package fault

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestRunWithQuarantine: a permanently erroring site and a panicking site
// each run once and are quarantined as EngineError, the panic's cause kept;
// the rest of the campaign completes.
func TestRunWithQuarantine(t *testing.T) {
	const n = 40
	var calls [n]atomic.Int32
	res, st, err := runWith(fakeSites(n), nil, CampaignOptions{Parallelism: 4, KeepPerSite: true},
		func(s Site) (Outcome, runCost, error) {
			calls[s.Thread].Add(1)
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
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("site %d ran %d times, want once", i, c)
		}
	}
	if st.Quarantined != 2 || st.Retries != 0 || st.Runs != n {
		t.Fatalf("stats: quarantined %d retries %d runs %d, want 2, 0 and %d", st.Quarantined, st.Retries, st.Runs, n)
	}
}

// TestWorkerKeepsOneRunner: a worker takes one runner from newRunner for
// life. A panicking site is quarantined and the same runner goes on to the
// next site; the runner is cleaned up once, and what its cleanup reports
// is the campaign's device count.
func TestWorkerKeepsOneRunner(t *testing.T) {
	var threads []int // the sites the runner was handed, in order
	runners, cleanups := 0, 0
	eng := campaignEngine{
		newRunner: func() (func(Site) (Outcome, runCost, error), func() CampaignStats) {
			runners++
			run := func(s Site) (Outcome, runCost, error) {
				threads = append(threads, s.Thread)
				if s.Thread == 4 {
					panic("engine bug")
				}
				return Masked, runCost{}, nil
			}
			cleanup := func() CampaignStats {
				cleanups++
				return CampaignStats{DevicesCreated: 1}
			}
			return run, cleanup
		},
	}
	res, st, err := runEngine(fakeSites(10), nil, CampaignOptions{Parallelism: 1, KeepPerSite: true}, eng)
	if err != nil {
		t.Fatal(err)
	}
	if runners != 1 || cleanups != 1 {
		t.Fatalf("newRunner called %d times, cleanup %d; want 1 and 1", runners, cleanups)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(threads, want) {
		t.Fatalf("runner ran %v, want %v", threads, want)
	}
	if res.PerSite[4] != EngineError || st.Quarantined != 1 || st.Runs != 10 || st.DevicesCreated != 1 {
		t.Fatalf("site 4 %v; quarantined %d, runs %d, devices %d; want engine-error, 1, 10, 1",
			res.PerSite[4], st.Quarantined, st.Runs, st.DevicesCreated)
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
	opt := CampaignOptions{Parallelism: 2, KeepPerSite: true, Journal: j}
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
	opt2 := CampaignOptions{Parallelism: 2, KeepPerSite: true, Journal: j2}
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

// TestLiveStatsMatchJournal: the live engine's counters equal
// CampaignStats.AddRecord summed over its journal's records, and its
// quarantine list is the records' — under parallel workers, quarantines
// and fast-forward costs. TestLiveStatsMatchMerged checks the
// same on real kernels through report.NewMerged, which this package cannot
// import.
func TestLiveStatsMatchJournal(t *testing.T) {
	const n = 90
	sites := fakeSites(n)
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := journal.Open(path, journalFP(n))
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := runWith(sites, nil, CampaignOptions{Parallelism: 3, Journal: j},
		func(s Site) (Outcome, runCost, error) {
			i := s.Thread
			if i%17 == 5 {
				return 0, runCost{}, errors.New("permanent")
			}
			return Outcome(i % 3), runCost{ctasSkipped: int32(i % 4), earlyExit: i%2 == 0, intraResumed: i%5 == 0}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want CampaignStats
	var quar []SiteFailure
	for _, r := range recs {
		want.AddRecord(r)
		if f, ok := failureOf(r); ok {
			quar = append(quar, f)
		}
	}
	got := CampaignStats{Runs: st.Runs, Retries: st.Retries, Quarantined: st.Quarantined,
		CTAsSkipped: st.CTAsSkipped, EarlyExits: st.EarlyExits, IntraSkips: st.IntraSkips}
	if got != want {
		t.Fatalf("live counters %+v, from the journal %+v", got, want)
	}
	if want.Quarantined == 0 || want.CTAsSkipped == 0 || want.EarlyExits == 0 || want.IntraSkips == 0 {
		t.Fatalf("the stub exercised too little: %+v", want)
	}
	if !reflect.DeepEqual(res.Quarantined, quar) {
		t.Fatalf("live quarantine %+v, from the journal %+v", res.Quarantined, quar)
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
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				sink.Add(CampaignStats{
					Runs: 1, Wall: time.Millisecond, PagesCopied: 2, DevicesCreated: 1,
					CTAsSkipped: 3, EarlyExits: 1, Retries: 1, Quarantined: 1, Replayed: 2,
				})
			}
		}()
	}
	wg.Wait()
	got := sink.Total()
	const total = workers * adds
	if got.Runs != total || got.PagesCopied != 2*total || got.DevicesCreated != total ||
		got.CTAsSkipped != 3*total || got.EarlyExits != total || got.Retries != total ||
		got.Quarantined != total || got.Replayed != 2*total || got.Wall != total*time.Millisecond {
		t.Fatalf("lost updates: %+v", got)
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
// paper's "other" class and has a stable name, and quarantines and retries
// print only what happened.
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
	// A site this build quarantined ran once; only a record of a build
	// that retried names its attempts, and only such records count retries.
	f := SiteFailure{Site: Site{Thread: 1}, Attempts: 1, Err: "x"}
	if got := fmt.Sprint(f); strings.Contains(got, "attempt") || !strings.HasSuffix(got, "quarantined: x") {
		t.Fatalf("one-attempt failure prints %q", got)
	}
	f.Attempts = 3
	if got := fmt.Sprint(f); !strings.Contains(got, "quarantined after 3 attempts: x") {
		t.Fatalf("three-attempt failure prints %q", got)
	}
	st := CampaignStats{Runs: 4, Quarantined: 1}
	if got := st.String(); strings.Contains(got, "retries") || !strings.Contains(got, ", 1 quarantined") {
		t.Fatalf("stats without retries print %q", got)
	}
	st.Retries = 2
	if got := st.String(); !strings.Contains(got, ", 2 retries, 1 quarantined") {
		t.Fatalf("stats with retries print %q", got)
	}
}
