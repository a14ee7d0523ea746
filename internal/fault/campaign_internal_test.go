package fault

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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

// TestRunWithDeterministicLowestError: whichever worker hits an error first,
// runWith must report the error of the lowest-index failing site. The old
// engine reported whichever failing site a worker saw first, which varied
// with scheduling.
func TestRunWithDeterministicLowestError(t *testing.T) {
	const n = 400
	failAt := map[int]error{
		41:  errors.New("fail-41"),
		42:  errors.New("fail-42"),
		350: errors.New("fail-350"),
	}
	for _, par := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 5; trial++ {
			_, _, err := runWith(fakeSites(n), nil, CampaignOptions{Parallelism: par, FailFast: true},
				func(s Site) (Outcome, runCost, error) {
					if e, ok := failAt[s.Thread]; ok {
						return 0, runCost{}, e
					}
					return Masked, runCost{}, nil
				})
			if err == nil {
				t.Fatalf("par %d: error swallowed", par)
			}
			if !errors.Is(err, failAt[41]) {
				t.Fatalf("par %d trial %d: got %v, want the site-41 error", par, trial, err)
			}
		}
	}
}

// TestRunWithErrorMessageNamesSite: the reported error wraps the failing
// site's identity.
func TestRunWithErrorMessageNamesSite(t *testing.T) {
	sentinel := errors.New("boom")
	sites := fakeSites(50)
	_, _, err := runWith(sites, nil, CampaignOptions{Parallelism: 2, FailFast: true},
		func(s Site) (Outcome, runCost, error) {
			if s.Thread == 17 {
				return 0, runCost{}, sentinel
			}
			return Masked, runCost{}, nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("sentinel lost: %v", err)
	}
	if want := fmt.Sprintf("site %v", sites[17].Site); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}

// TestRunWithCancelsPromptly: after the first error, remaining sites must be
// skipped instead of drained. With the error near the front of a large
// campaign, the executed count must stay far below the total; the old engine
// let every already-queued site run to completion.
func TestRunWithCancelsPromptly(t *testing.T) {
	const n = 3000
	const failIdx = 5
	var executed atomic.Int64
	_, st, err := runWith(fakeSites(n), nil, CampaignOptions{Parallelism: 4, FailFast: true},
		func(s Site) (Outcome, runCost, error) {
			executed.Add(1)
			if s.Thread == failIdx {
				return 0, runCost{}, errors.New("early failure")
			}
			time.Sleep(20 * time.Microsecond)
			return Masked, runCost{}, nil
		})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if got := executed.Load(); got > n/2 {
		t.Fatalf("executed %d of %d sites after an early error", got, n)
	}
	if st.Runs != executed.Load() {
		t.Fatalf("stats counted %d runs, executed %d", st.Runs, executed.Load())
	}
}

// TestRunWithExecutesEverySiteBelowError: the determinism guarantee rests on
// every site below the final error index having been executed — verify the
// engine upholds it.
func TestRunWithExecutesEverySiteBelowError(t *testing.T) {
	const n = 500
	const failIdx = 321
	seen := make([]atomic.Bool, n)
	_, _, err := runWith(fakeSites(n), nil, CampaignOptions{Parallelism: 8, FailFast: true},
		func(s Site) (Outcome, runCost, error) {
			seen[s.Thread].Store(true)
			if s.Thread == failIdx {
				return 0, runCost{}, errors.New("late failure")
			}
			return Masked, runCost{}, nil
		})
	if err == nil {
		t.Fatal("error swallowed")
	}
	for i := 0; i < failIdx; i++ {
		if !seen[i].Load() {
			t.Fatalf("site %d below the failing index was never executed", i)
		}
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
		CTAsSkipped: 7, EarlyExits: 3, Checkpoints: 4, CheckpointBytes: 8192})
	sink.Add(CampaignStats{Runs: 30, Wall: time.Second, PagesCopied: 1, DevicesCreated: 5,
		CTAsSkipped: 1, EarlyExits: 1, Checkpoints: 2, CheckpointBytes: 4096})
	got := sink.Total()
	if got.Runs != 40 || got.Wall != 2*time.Second || got.PagesCopied != 5 || got.DevicesCreated != 7 {
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
