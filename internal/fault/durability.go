package fault

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/journal"
)

// This file is the campaign durability layer: per-site failure isolation
// (panic recovery, wall-clock deadline, retry with exponential backoff,
// quarantine into EngineError), deterministic shard partitioning, the
// journal glue that makes campaigns resumable after a crash or kill -9, and
// cooperative interruption. DESIGN.md §3.3 documents the semantics.

// Failure-isolation settings of every production campaign.
const (
	// DefaultMaxAttempts is how many times a failing site is executed
	// before quarantine.
	DefaultMaxAttempts = 3
	// DefaultSiteDeadline is the per-attempt wall-clock ceiling. It sits on
	// top of the simulator's own step watchdog (which bounds dynamic
	// instructions, not wall time) as the last line of defense against an
	// engine bug that spins without retiring instructions.
	DefaultSiteDeadline = 30 * time.Second
	// DefaultRetryBackoff is the sleep before the first retry; it doubles
	// per attempt.
	DefaultRetryBackoff = time.Millisecond
)

// ErrInterrupted is wrapped by Run when the campaign stops because
// CampaignOptions.Interrupt fired. Completed sites are already journaled
// (when a journal is attached), so rerunning with the same journal resumes.
var ErrInterrupted = errors.New("fault: campaign interrupted")

// errSitePanic and errSiteDeadline classify quarantine causes.
var (
	errSitePanic    = errors.New("fault: site execution panicked")
	errSiteDeadline = errors.New("fault: site deadline exceeded")
)

// Shard deterministically partitions a campaign across processes. Shard i
// of n owns every n-th schedule position starting at i — the partition is
// applied after scheduleOrder, so each shard's subsequence stays CTA-sorted
// and keeps the fast-forward engine's snapshot locality. The zero Shard
// means "the whole campaign"; Count 0 with any other Index is invalid.
type Shard struct {
	Index, Count int
}

// normalize maps the zero value to the canonical 1-shard form.
func (s Shard) normalize() Shard {
	if s.Count == 0 {
		return Shard{Index: 0, Count: 1}
	}
	return s
}

func (s Shard) validate() error {
	if s.Count == 0 && s.Index != 0 {
		return fmt.Errorf("fault: shard index %d requires a shard count", s.Index)
	}
	n := s.normalize()
	if n.Count < 1 || n.Index < 0 || n.Index >= n.Count {
		return fmt.Errorf("fault: invalid shard %d/%d", s.Index, s.Count)
	}
	return nil
}

// owns reports whether schedule position pos belongs to this shard.
func (s Shard) owns(pos int) bool {
	n := s.normalize()
	return pos%n.Count == n.Index
}

// Owned is how many of the schedule positions 0..n-1 this shard owns — its
// completion target on an n-site campaign.
func (s Shard) Owned(n int) int {
	sh := s.normalize()
	if n <= sh.Index {
		return 0
	}
	return (n - sh.Index + sh.Count - 1) / sh.Count
}

// SiteFailure records one quarantined site: the engine could not produce an
// outcome for it within DefaultMaxAttempts attempts, so its
// outcome is EngineError and the cause is kept here (and in the journal).
type SiteFailure struct {
	// Index is the site's input-order index.
	Index int
	// Site is the site itself.
	Site Site
	// Attempts is how many executions were tried.
	Attempts int
	// Err describes the last failure.
	Err string
}

func (f SiteFailure) String() string {
	return fmt.Sprintf("site %v (index %d): quarantined after %d attempts: %s",
		f.Site, f.Index, f.Attempts, f.Err)
}

// guard bundles the resolved failure-isolation settings of one campaign.
type guard struct {
	maxAttempts int
	deadline    time.Duration
	backoff     time.Duration
}

func newGuard(opt CampaignOptions) guard {
	g := guard{
		maxAttempts: opt.maxAttempts,
		deadline:    opt.siteDeadline,
		backoff:     opt.retryBackoff,
	}
	if g.maxAttempts <= 0 {
		g.maxAttempts = DefaultMaxAttempts
	}
	if g.deadline <= 0 {
		g.deadline = DefaultSiteDeadline
	}
	if g.backoff <= 0 {
		g.backoff = DefaultRetryBackoff
	}
	return g
}

// protect invokes runSite with panic recovery, converting a panic into an
// error carrying a truncated stack.
func protect(runSite func(Site) (Outcome, runCost, error), s Site) (o Outcome, c runCost, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if len(stack) > 2048 {
				stack = stack[:2048]
			}
			err = fmt.Errorf("%w: %v\n%s", errSitePanic, r, stack)
		}
	}()
	return runSite(s)
}

// siteResult carries one attempt's result out of its goroutine.
type siteResult struct {
	o    Outcome
	cost runCost
	err  error
}

// once executes a single guarded attempt. The attempt runs in its own
// goroutine so a wedged simulator call can be abandoned at the deadline: the
// stray goroutine finishes (or trips the step watchdog) on its own and its
// result is discarded via the buffered channel. Its pooled device returns
// to the pool late, never concurrently reused.
func (g guard) once(runSite func(Site) (Outcome, runCost, error), s Site) (Outcome, runCost, error) {
	ch := make(chan siteResult, 1)
	go func() {
		o, c, err := protect(runSite, s)
		ch <- siteResult{o, c, err}
	}()
	timer := time.NewTimer(g.deadline)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.o, r.cost, r.err
	case <-timer.C:
		return 0, runCost{}, fmt.Errorf("%w (%v)", errSiteDeadline, g.deadline)
	}
}

// run executes one site with retries. A nil error means a real outcome;
// a non-nil error means the site is quarantined and the returned outcome is
// EngineError. attempts reports how many executions ran.
func (g guard) run(runSite func(Site) (Outcome, runCost, error), s Site) (o Outcome, cost runCost, attempts int, err error) {
	backoff := g.backoff
	for attempts = 1; ; attempts++ {
		o, cost, err = g.once(runSite, s)
		if err == nil {
			return o, cost, attempts, nil
		}
		if attempts >= g.maxAttempts {
			return EngineError, runCost{}, attempts, err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// JournalFingerprint builds the campaign fingerprint a journal is opened
// with. Scale and seed describe how the site list was derived and come from
// the caller; everything else comes from the prepared target and campaign
// shape. A journal recorded under any differing field is stale — its
// outcomes were measured in a different experiment — and journal.Open
// rejects it. The target's checkpoint strides and FullRun are not part of
// it: they cannot change an outcome, so a journal resumes under any.
func (t *Target) JournalFingerprint(model Model, sites int, scale string, seed int64, shard Shard) journal.Fingerprint {
	sh := shard.normalize()
	return journal.Fingerprint{
		Kernel:     t.Name,
		Scale:      scale,
		Seed:       seed,
		Model:      model.String(),
		Warp:       t.WarpSize,
		Sites:      sites,
		ShardIndex: sh.Index,
		ShardCount: sh.Count,
	}
}

// validateJournal cross-checks an attached journal against the campaign the
// engine is about to run: the header must be the fingerprint this target,
// model, size and shard produce. Scale and seed describe how the caller
// derived the site list, which the engine cannot see, so they are taken
// from the header (journal.Open already held them to the caller's
// fingerprint, and replay checks every record's site key).
func (t *Target) validateJournal(j *journal.Journal, model Model, nsites int, shard Shard) error {
	fp := j.Fingerprint()
	if want := t.JournalFingerprint(model, nsites, fp.Scale, fp.Seed, shard); fp != want {
		return fmt.Errorf("fault: journal %s was recorded for a different campaign (%s)", j.Path(), want.Diff(fp))
	}
	return nil
}

// journalRecord assembles the write-ahead record of one completed site.
func journalRecord(i int, ws WeightedSite, o Outcome, cost runCost, attempts int, quarantine string) journal.Record {
	return journal.Record{
		Index:        i,
		Thread:       ws.Site.Thread,
		DynInst:      ws.Site.DynInst,
		Bit:          ws.Site.Bit,
		Outcome:      uint8(o),
		Weight:       ws.Weight,
		CTAsSkipped:  int64(cost.ctasSkipped),
		EarlyExit:    cost.earlyExit,
		IntraResumed: cost.intraResumed,
		Attempts:     attempts,
		Err:          quarantine,
	}
}

// replayJournal applies the records already on disk: their outcomes are
// final, so the engine marks them done and skips them. Each record's site
// key must match the campaign's site list — a mismatch means the journal
// was produced for a different site derivation than the fingerprint
// admitted, and resuming would be unsound.
func replayJournal(j *journal.Journal, sites []WeightedSite, outcomes []Outcome, done []bool) (replayed int64, quarantined []SiteFailure, err error) {
	for _, r := range j.Replayed() {
		if r.Index < 0 || r.Index >= len(sites) {
			return 0, nil, fmt.Errorf("fault: journal %s: site index %d out of range [0,%d)", j.Path(), r.Index, len(sites))
		}
		ws := sites[r.Index]
		if key := (Site{Thread: r.Thread, DynInst: r.DynInst, Bit: r.Bit}); key != ws.Site {
			return 0, nil, fmt.Errorf("fault: journal %s: record %d holds site %v, campaign site %d is %v",
				j.Path(), r.Index, key, r.Index, ws.Site)
		}
		if o := Outcome(r.Outcome); !o.Valid() {
			return 0, nil, fmt.Errorf("fault: journal %s: record %d holds unknown outcome %d", j.Path(), r.Index, r.Outcome)
		}
		if done[r.Index] {
			return 0, nil, fmt.Errorf("fault: journal %s: duplicate record for site index %d", j.Path(), r.Index)
		}
		outcomes[r.Index] = Outcome(r.Outcome)
		done[r.Index] = true
		replayed++
		if r.Err != "" {
			quarantined = append(quarantined, SiteFailure{
				Index: r.Index, Site: ws.Site, Attempts: r.Attempts, Err: r.Err,
			})
		}
	}
	return replayed, quarantined, nil
}
