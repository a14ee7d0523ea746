package fault

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// fakeSites builds n weighted sites whose Thread field encodes the index, so
// a runSite stub can recover it.
func fakeSites(n int) []WeightedSite {
	sites := make([]WeightedSite, n)
	for i := range sites {
		sites[i] = WeightedSite{Site: Site{Thread: i}, Weight: 1}
	}
	return sites
}

// runWith drives runEngine with a single shared site evaluator and no
// scheduling affinity: the stub-runner harness of the engine's behavioral
// tests (here and in durability_internal_test.go).
func runWith(sites []WeightedSite, order []int, opt CampaignOptions,
	runSite func(Site) (Outcome, runCost, error)) (*CampaignResult, CampaignStats, error) {
	return runEngine(sites, order, opt, campaignEngine{
		newRunner: func() (func(Site) (Outcome, runCost, error), func()) {
			return runSite, func() {}
		},
	})
}

// openFakeJournal opens a fresh journal for an n-site stub campaign.
func openFakeJournal(t *testing.T, n int) *journal.Journal {
	t.Helper()
	j, err := journal.Open(filepath.Join(t.TempDir(), "c.journal"), journalFP(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// TestRunWithErrorMessageNamesSite: a journal-append failure ends the
// campaign with an error that wraps the cause and the identity of the site
// whose outcome could not be recorded.
func TestRunWithErrorMessageNamesSite(t *testing.T) {
	sites := fakeSites(50)
	j := openFakeJournal(t, len(sites))
	_, _, err := runWith(sites, nil, CampaignOptions{Parallelism: 1, Journal: j},
		func(s Site) (Outcome, runCost, error) {
			if s.Thread == 17 {
				j.Close() // the append of this very site is the first to fail
			}
			return Masked, runCost{}, nil
		})
	if !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("cause lost: %v", err)
	}
	if want := fmt.Sprintf("site %v", sites[17].Site); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}

// TestRunWithCancelsPromptly: after a journal-append failure, remaining
// sites must be skipped instead of drained. With the failure near the front
// of a large campaign, the executed count must stay far below the total.
func TestRunWithCancelsPromptly(t *testing.T) {
	const n = 3000
	const failIdx = 5
	j := openFakeJournal(t, n)
	var executed atomic.Int64
	_, st, err := runWith(fakeSites(n), nil, CampaignOptions{Parallelism: 4, Journal: j},
		func(s Site) (Outcome, runCost, error) {
			executed.Add(1)
			if s.Thread == failIdx {
				j.Close()
			}
			time.Sleep(20 * time.Microsecond)
			return Masked, runCost{}, nil
		})
	if !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("err = %v, want journal.ErrClosed", err)
	}
	if got := executed.Load(); got > n/2 {
		t.Fatalf("executed %d of %d sites after an early error", got, n)
	}
	if st.Runs != executed.Load() {
		t.Fatalf("stats counted %d runs, executed %d", st.Runs, executed.Load())
	}
}

// TestRunWithStats: a clean run reports one executed run per site and a
// consistent rate.
func TestRunWithStats(t *testing.T) {
	const n = 64
	res, st, err := runWith(fakeSites(n), nil, CampaignOptions{Parallelism: 3},
		func(s Site) (Outcome, runCost, error) { return SDC, runCost{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != n {
		t.Fatalf("runs = %d, want %d", st.Runs, n)
	}
	if st.Wall <= 0 || st.RunsPerSec <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if res.Dist.Total() != n {
		t.Fatalf("dist total = %v", res.Dist.Total())
	}
}

// TestStatsSinkMerge: sinks accumulate counters across campaigns and keep
// the per-target checkpoint figures as a max.
func TestStatsSinkMerge(t *testing.T) {
	var sink StatsSink
	sink.Add(CampaignStats{Runs: 10, Wall: time.Second, PagesCopied: 4, DevicesCreated: 2,
		CTAsSkipped: 7, EarlyExits: 3, Checkpoints: 4, CheckpointBytes: 8192, PrepareWall: time.Millisecond})
	sink.Add(CampaignStats{Runs: 30, Wall: time.Second, PagesCopied: 1, DevicesCreated: 5,
		CTAsSkipped: 1, EarlyExits: 1, Checkpoints: 2, CheckpointBytes: 4096, PrepareWall: 2 * time.Millisecond})
	got := sink.Total()
	if got.Runs != 40 || got.Wall != 2*time.Second || got.PagesCopied != 5 || got.DevicesCreated != 7 ||
		got.PrepareWall != 3*time.Millisecond {
		t.Fatalf("merged: %+v", got)
	}
	if got.CTAsSkipped != 8 || got.EarlyExits != 4 || got.Checkpoints != 4 || got.CheckpointBytes != 8192 {
		t.Fatalf("merged fast-forward stats: %+v", got)
	}
	if got.RunsPerSec != 20 {
		t.Fatalf("rate = %v, want 20", got.RunsPerSec)
	}
	if got.String() == "" {
		t.Fatal("empty stats string")
	}
}

// TestProgressHook: the Progress hook sees one call per completed site plus
// the initial replay snapshot, counts monotonically to the campaign total,
// and always reports the full campaign size as total.
func TestProgressHook(t *testing.T) {
	const n = 40
	var calls, last, bad atomic.Int64
	last.Store(-1)
	progress := func(completed, total int) {
		calls.Add(1)
		if total != n {
			bad.Store(1)
		}
		// Monotone non-decreasing: concurrent workers may race the counter
		// read back, but the value handed to each call is the post-increment
		// count, so tracking the max is enough.
		for {
			prev := last.Load()
			if int64(completed) <= prev || last.CompareAndSwap(prev, int64(completed)) {
				break
			}
		}
	}
	res, _, err := runWith(fakeSites(n), nil, CampaignOptions{Parallelism: 4, Progress: progress},
		func(s Site) (Outcome, runCost, error) { return Masked, runCost{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d, want %d", res.Completed, n)
	}
	if got := calls.Load(); got != n+1 { // n sites + the initial replay snapshot
		t.Fatalf("progress called %d times, want %d", got, n+1)
	}
	if last.Load() != n {
		t.Fatalf("final reported completion %d, want %d", last.Load(), n)
	}
	if bad.Load() != 0 {
		t.Fatal("progress reported a total different from the campaign size")
	}
}
