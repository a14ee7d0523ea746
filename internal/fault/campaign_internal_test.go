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
		newRunner: func() (func(Site) (Outcome, runCost, error), func() CampaignStats) {
			return runSite, func() CampaignStats { return CampaignStats{} }
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
	if st.Wall <= 0 || st.RunsPerSec() <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if res.Dist.Total() != n {
		t.Fatalf("dist total = %v", res.Dist.Total())
	}
}

// TestStatsSinkMerge: sinks accumulate counters across campaigns.
func TestStatsSinkMerge(t *testing.T) {
	var sink StatsSink
	sink.Add(CampaignStats{Runs: 10, Wall: time.Second, PagesCopied: 4, DevicesCreated: 2,
		CTAsSkipped: 7, EarlyExits: 3})
	sink.Add(CampaignStats{Runs: 30, Wall: time.Second, PagesCopied: 1, DevicesCreated: 5,
		CTAsSkipped: 1, EarlyExits: 1})
	got := sink.Total()
	if got.Runs != 40 || got.Wall != 2*time.Second || got.PagesCopied != 5 || got.DevicesCreated != 7 {
		t.Fatalf("merged: %+v", got)
	}
	if got.CTAsSkipped != 8 || got.EarlyExits != 4 {
		t.Fatalf("merged fast-forward stats: %+v", got)
	}
	if got.RunsPerSec() != 20 {
		t.Fatalf("rate = %v, want 20", got.RunsPerSec())
	}
	if got.String() == "" {
		t.Fatal("empty stats string")
	}
}

// TestProgressHook: the Progress hook receives the record of every site
// the run executes, exactly once and only after the record is journaled —
// a quarantined site's included — and nothing for the sites replayed from
// the journal.
func TestProgressHook(t *testing.T) {
	const n, replayed, failing = 40, 10, 30
	sites := fakeSites(n)
	j := openFakeJournal(t, n)
	for i := 0; i < replayed; i++ {
		if err := j.Append(journalRecord(i, sites[i], Masked, runCost{}, "")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j, err := journal.Open(j.Path(), journalFP(n))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	var calls [n]atomic.Int64
	var seen atomic.Int64
	var badQuarantine, unjournaled atomic.Bool
	opt := CampaignOptions{Parallelism: 4, KeepPerSite: true, Journal: j}
	opt.Progress = func(r journal.Record) {
		calls[r.Index].Add(1)
		// Each record handed over so far was appended before its call.
		if k := seen.Add(1); j.Count() < replayed+int(k) {
			unjournaled.Store(true)
		}
		if r.Index == failing && (Outcome(r.Outcome) != EngineError || r.Err == "") {
			badQuarantine.Store(true)
		}
	}
	res, _, err := runWith(sites, nil, opt, func(s Site) (Outcome, runCost, error) {
		if s.Thread == failing {
			return 0, runCost{}, errors.New("boom")
		}
		return SDC, runCost{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n || len(res.Quarantined) != 1 {
		t.Fatalf("completed %d, quarantined %d; want %d and 1", res.Completed, len(res.Quarantined), n)
	}
	for i := range calls {
		want := int64(1)
		if i < replayed {
			want = 0
		}
		if got := calls[i].Load(); got != want {
			t.Errorf("site %d: progress called %d times, want %d", i, got, want)
		}
	}
	if unjournaled.Load() {
		t.Error("progress saw a record before it was journaled")
	}
	if badQuarantine.Load() {
		t.Errorf("site %d's record is not its quarantine record", failing)
	}
}
