package fault

import (
	"cmp"
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
// cooperative interruption. DESIGN.md §3.5 documents the semantics.

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

// attempter runs one campaign worker's sites, each attempt on its own
// goroutine so a wedged simulator call can be abandoned at the deadline;
// panics are recovered (protect), failures retried with doubling backoff
// and, after maxAttempts, quarantined. It holds the worker's current
// runner, one result channel and one deadline timer, all reused attempt
// after attempt. An abandoned attempt finishes (or trips the step
// watchdog) on its own, keeping its runner — a runner owns its device for
// life — and its channel, where its result lands unread; the retry takes
// a fresh runner and channel, so it never shares a device with the stray.
type attempter struct {
	maxAttempts int
	deadline    time.Duration
	backoff     time.Duration

	newRunner func() (func(Site) (Outcome, runCost, error), func() CampaignStats)
	runSite   func(Site) (Outcome, runCost, error)
	cleanup   func() CampaignStats
	res       chan siteResult
	timer     *time.Timer
	// strays counts the devices abandoned attempts kept.
	strays int
}

// newAttempter resolves the failure-isolation settings (opt's positive
// overrides, else the defaults) and takes the worker's first runner.
func newAttempter(opt CampaignOptions, eng campaignEngine) *attempter {
	a := &attempter{
		maxAttempts: cmp.Or(max(opt.maxAttempts, 0), DefaultMaxAttempts),
		deadline:    cmp.Or(max(opt.siteDeadline, 0), DefaultSiteDeadline),
		backoff:     cmp.Or(max(opt.retryBackoff, 0), DefaultRetryBackoff),
		newRunner:   eng.newRunner,
		res:         make(chan siteResult, 1),
	}
	a.runSite, a.cleanup = a.newRunner()
	a.timer = time.NewTimer(a.deadline)
	if !a.timer.Stop() {
		<-a.timer.C
	}
	return a
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

// attempt is the body of one attempt's goroutine.
func attempt(res chan<- siteResult, runSite func(Site) (Outcome, runCost, error), s Site) {
	o, c, err := protect(runSite, s)
	res <- siteResult{o, c, err}
}

// once executes a single attempt against the deadline. The timer follows
// the pre-Go 1.23 channel rules go.mod selects: a Stop that returns false
// leaves a tick in C, drained before the next Reset.
func (a *attempter) once(s Site) (Outcome, runCost, error) {
	go attempt(a.res, a.runSite, s)
	a.timer.Reset(a.deadline)
	select {
	case r := <-a.res:
		if !a.timer.Stop() {
			<-a.timer.C
		}
		return r.o, r.cost, r.err
	case <-a.timer.C:
		// The stray keeps its runner, device and channel.
		a.strays++
		a.runSite, a.cleanup = a.newRunner()
		a.res = make(chan siteResult, 1)
		return 0, runCost{}, fmt.Errorf("%w (%v)", errSiteDeadline, a.deadline)
	}
}

// run executes one site with retries. A nil error means a real outcome;
// a non-nil error means the site is quarantined and the returned outcome is
// EngineError. attempts reports how many executions ran.
func (a *attempter) run(s Site) (o Outcome, cost runCost, attempts int, err error) {
	backoff := a.backoff
	for attempts = 1; ; attempts++ {
		o, cost, err = a.once(s)
		if err == nil {
			return o, cost, attempts, nil
		}
		if attempts >= a.maxAttempts {
			return EngineError, runCost{}, attempts, err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// close returns what the worker's devices cost: its current runner's
// counters, plus one device per abandoned attempt. A stray's page copies
// and source switches are not counted — its device is never handed back.
func (a *attempter) close() CampaignStats {
	st := a.cleanup()
	st.DevicesCreated += a.strays
	return st
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

// failureOf is the quarantine entry of a completed site's record, live or
// replayed; ok is false when the record holds a real outcome.
func failureOf(r journal.Record) (f SiteFailure, ok bool) {
	site := Site{Thread: r.Thread, DynInst: r.DynInst, Bit: r.Bit}
	return SiteFailure{Index: r.Index, Site: site, Attempts: r.Attempts, Err: r.Err}, r.Err != ""
}

// replayJournal applies the records already on disk: their outcomes are
// final, so the engine marks them done and skips them. The decoder admitted
// each index once, below the Sites validateJournal pinned to len(sites);
// each record's site key must match the campaign's site list — a mismatch
// means the journal was produced for a different site derivation than the
// fingerprint admitted, and resuming would be unsound.
func replayJournal(j *journal.Journal, sites []WeightedSite, outcomes []Outcome, done []bool) (replayed int64, quarantined []SiteFailure, err error) {
	for _, r := range j.Replayed() {
		ws := sites[r.Index]
		if key := (Site{Thread: r.Thread, DynInst: r.DynInst, Bit: r.Bit}); key != ws.Site {
			return 0, nil, fmt.Errorf("fault: journal %s: record %d holds site %v, campaign site %d is %v",
				j.Path(), r.Index, key, r.Index, ws.Site)
		}
		if o := Outcome(r.Outcome); !o.Valid() {
			return 0, nil, fmt.Errorf("fault: journal %s: record %d holds unknown outcome %d", j.Path(), r.Index, r.Outcome)
		}
		outcomes[r.Index] = Outcome(r.Outcome)
		done[r.Index] = true
		replayed++
		if f, ok := failureOf(r); ok {
			quarantined = append(quarantined, f)
		}
	}
	return replayed, quarantined, nil
}
