package fault

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// WeightedSite pairs a fault site with the population weight it represents.
// After pruning, one representative site stands for all the sites it pruned;
// campaign aggregation multiplies its outcome by the weight so the estimated
// profile refers to the original, unpruned population.
type WeightedSite struct {
	Site   Site
	Weight float64
}

// Uniform wraps plain sites with weight 1.
func Uniform(sites []Site) []WeightedSite {
	ws := make([]WeightedSite, len(sites))
	for i, s := range sites {
		ws[i] = WeightedSite{Site: s, Weight: 1}
	}
	return ws
}

// CampaignStats is the observability block of one campaign: how much work
// ran, how fast, and what the copy-on-write device layer cost: counters that
// add across campaigns (Merge). What Prepare did is the target's PrepareStats.
type CampaignStats struct {
	// Runs is the number of injection experiments executed (including a
	// failing one, excluding sites skipped after cancellation).
	Runs int64
	// Wall is the elapsed wall-clock time of the campaign.
	Wall time.Duration
	// PagesCopied counts global-memory page copies performed by the
	// copy-on-write device layer (first-store privatizations plus
	// pristine-reset restores) across the worker devices.
	PagesCopied int64
	// DevicesCreated is the number of device clones the campaign
	// materialized: one per worker that executed a site (a decided site
	// needs no device).
	DevicesCreated int
	// CTAsSkipped counts CTA executions the checkpointed fast-forward
	// engine avoided, summed over all runs: golden prefixes resumed from a
	// snapshot plus suffixes skipped by an early exit.
	CTAsSkipped int64
	// EarlyExits counts runs classified at the injected CTA's boundary,
	// without executing the remaining CTAs: Masked because the run's global
	// memory converged to golden state, or Masked or SDC because no later
	// CTA loads the pages where it differs (DESIGN.md §3.1).
	EarlyExits int64
	// IntraSkips counts runs resumed inside the injected CTA — from an
	// intra-CTA (warp-granular) snapshot, or at the injected thread's start
	// (DESIGN.md §3.1) — skipping the CTA's fault-free prefix in addition to
	// whole prefix CTAs.
	IntraSkips int64
	// ReplayInstrs and PostFaultInstrs count the dynamic instructions the
	// runs executed before their fault fired — golden replay the snapshots
	// did not skip — and from the fault on (gpusim.Result.BeforeFault,
	// Retired). They are work, not time: the same on any host and at any
	// parallelism.
	ReplayInstrs, PostFaultInstrs int64
	// Decided counts sites whose outcome the golden trace proved, returned
	// without executing anything (DESIGN.md §3.1, decided sites). They
	// count in Runs, with every CTA skipped and no instructions.
	Decided int64
	// Replayed counts sites whose outcome was restored from the campaign
	// journal instead of executed (resume path); they are excluded from
	// Runs.
	Replayed int64
	// Retries counts extra executions spent re-attempting failing sites.
	// This build runs every site once; only records of older builds that
	// retried carry them.
	Retries int64
	// Quarantined counts sites whose execution failed and were bucketed as
	// EngineError.
	Quarantined int64
	// AffinityResets counts worker-device resets that switched checkpoint
	// sources — the slow full-restore path of Device.ResetFrom that
	// snapshot-affine scheduling exists to avoid. At most workers ×
	// PrepareStats.Checkpoints; near Runs unpinned.
	AffinityResets int64
}

// RunsPerSec is Runs divided by Wall (outcomes per second); 0 without a
// wall time.
func (s CampaignStats) RunsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Runs) / s.Wall.Seconds()
}

// AddRecord counts one completed site from its journal record: attempts as
// runs, the attempts beyond the first as retries, an engine error as a
// quarantine, and its fast-forward savings. The live engine and
// report.NewMerged both count sites through it, so their stats agree.
func (s *CampaignStats) AddRecord(r journal.Record) {
	s.Runs += int64(r.Attempts)
	if r.Attempts > 1 {
		s.Retries += int64(r.Attempts - 1)
	}
	if r.Err != "" {
		s.Quarantined++
	}
	s.CTAsSkipped += r.CTAsSkipped
	if r.EarlyExit {
		s.EarlyExits++
	}
	if r.IntraResumed {
		s.IntraSkips++
	}
}

// Merge accumulates another campaign's stats. Every counter adds, wall
// times too: campaigns in one pipeline run back to back.
func (s *CampaignStats) Merge(o CampaignStats) {
	s.Runs += o.Runs
	s.Wall += o.Wall
	s.PagesCopied += o.PagesCopied
	s.DevicesCreated += o.DevicesCreated
	s.CTAsSkipped += o.CTAsSkipped
	s.EarlyExits += o.EarlyExits
	s.IntraSkips += o.IntraSkips
	s.ReplayInstrs += o.ReplayInstrs
	s.PostFaultInstrs += o.PostFaultInstrs
	s.Decided += o.Decided
	s.Replayed += o.Replayed
	s.Retries += o.Retries
	s.Quarantined += o.Quarantined
	s.AffinityResets += o.AffinityResets
}

// String renders the stats for CLI -stats output.
func (s CampaignStats) String() string {
	out := fmt.Sprintf("%d runs in %v (%.0f/s), %d pages copied, %d devices, %d CTAs skipped, %d early exits",
		s.Runs, s.Wall.Round(time.Millisecond), s.RunsPerSec(), s.PagesCopied,
		s.DevicesCreated, s.CTAsSkipped, s.EarlyExits)
	if s.IntraSkips > 0 {
		out += fmt.Sprintf(", %d intra-CTA skips", s.IntraSkips)
	}
	if s.Runs > 0 {
		out += fmt.Sprintf(", %.0f replay + %.0f post-fault instrs/site",
			float64(s.ReplayInstrs)/float64(s.Runs), float64(s.PostFaultInstrs)/float64(s.Runs))
	}
	if s.Decided > 0 {
		out += fmt.Sprintf(", %d decided without running", s.Decided)
	}
	if s.Replayed > 0 {
		out += fmt.Sprintf(", %d replayed from journal", s.Replayed)
	}
	if s.Retries > 0 {
		out += fmt.Sprintf(", %d retries", s.Retries)
	}
	if s.Quarantined > 0 {
		out += fmt.Sprintf(", %d quarantined", s.Quarantined)
	}
	if s.AffinityResets > 0 {
		out += fmt.Sprintf(", %d affinity resets", s.AffinityResets)
	}
	return out
}

// StatsSink accumulates campaign stats across several fault.Run calls —
// e.g. every campaign of a pruning pipeline or experiment sweep — by adding
// their counters. Safe for concurrent use. Attach via CampaignOptions.Sink.
type StatsSink struct {
	mu    sync.Mutex
	total CampaignStats
}

// Add merges one campaign's stats into the sink.
func (k *StatsSink) Add(s CampaignStats) {
	k.mu.Lock()
	k.total.Merge(s)
	k.mu.Unlock()
}

// Total returns the accumulated stats.
func (k *StatsSink) Total() CampaignStats {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.total
}

// CampaignResult is the aggregate of an injection campaign.
type CampaignResult struct {
	// Dist is the weighted outcome distribution (the resilience profile).
	// It covers every completed site: executed this run, replayed from the
	// journal, or quarantined (EngineError). On a sharded campaign it
	// covers only this shard's sites.
	Dist Dist
	// PerSite, when requested, holds the outcome of each injected site in
	// input order. On a sharded campaign, entries for sites owned by other
	// shards are meaningless (zero).
	PerSite []Outcome
	// Completed is the number of sites contributing to Dist.
	Completed int
	// Quarantined lists the sites bucketed as EngineError, sorted by
	// input-order index (including ones replayed from the journal).
	Quarantined []SiteFailure
	// Stats describes the campaign's execution.
	Stats CampaignStats
}

// CampaignOptions tunes Run.
type CampaignOptions struct {
	// Parallelism is the worker count; 0 means GOMAXPROCS.
	Parallelism int
	// KeepPerSite retains each site's individual outcome.
	KeepPerSite bool
	// Sink, when non-nil, additionally accumulates this campaign's stats
	// (also on error, so cancelled campaigns stay visible).
	Sink *StatsSink

	// Journal, when non-nil, makes the campaign durable: each completed
	// site is appended to it, and sites already recorded (from an earlier,
	// interrupted run) are replayed instead of executed — the resumed
	// campaign's result is bit-identical to an uninterrupted one. The
	// journal must have been opened with the fingerprint of this exact
	// campaign (see Target.JournalFingerprint).
	Journal *journal.Journal
	// Shard restricts execution to a deterministic 1/Count slice of the
	// schedule (see Shard); the zero value runs everything.
	Shard Shard
	// Interrupt, when non-nil, stops the campaign cooperatively once the
	// channel is closed: workers finish their current site, the journal
	// keeps every completed outcome, and Run returns ErrInterrupted.
	Interrupt <-chan struct{}
	// Progress, when non-nil, receives the record of every site this run
	// completes, quarantined sites included, once the record is appended
	// to the attached journal: the stream live readers (fsserve's status,
	// fsadvise's live door) consume. Replayed sites are never passed; they
	// are the journal's Replayed records. Called concurrently from
	// campaign workers; it must be fast and safe for concurrent use.
	Progress func(journal.Record)
}

// Run executes one fault-injection experiment per weighted site under the
// paper's fault model (ModelDestValue), in parallel, and aggregates the
// weighted outcome distribution. The target must be Prepared. Each worker
// keeps one copy-on-write device and resets it before every experiment, so
// runs are independent and the aggregation is deterministic regardless of
// scheduling; unless Target.FullRun is set, each run fast-forwards from the
// golden checkpoint nearest its injected CTA and may stop at the injected
// CTA's boundary once the rest of the run is provably the golden run's,
// with outcomes bit-identical to full runs. The whole site
// list is validated up front, so an invalid site fails before any
// experiment executes, reporting the lowest-index invalid site.
//
// Execution failures are isolated per site: each site runs once, and one
// whose execution errs or panics is quarantined into the EngineError outcome
// (CampaignResult.Quarantined) while the campaign continues. With a Journal
// attached the campaign is durable and resumable, with Shard it runs one
// deterministic slice of the schedule, and Interrupt stops it cooperatively
// (see CampaignOptions).
func Run(t *Target, sites []WeightedSite, opt CampaignOptions) (*CampaignResult, error) {
	return RunModel(t, sites, ModelDestValue, opt)
}

// RunModel is Run under any fault model: it validates the site list, wires
// the unchecked fast-forward runner to the parallel engine, one device-owning
// runner per worker, and hands the stats to the sink.
func RunModel(t *Target, sites []WeightedSite, model Model, opt CampaignOptions) (*CampaignResult, error) {
	// Validate once, outside the hot loop: the engine below runs unchecked.
	// Input order makes the reported error the lowest-index invalid site.
	for i := range sites {
		if err := t.validateSiteModel(sites[i].Site, model); err != nil {
			return nil, fmt.Errorf("site %v: %w", sites[i].Site, err)
		}
	}
	if opt.Journal != nil {
		if err := t.validateJournal(opt.Journal, model, len(sites), opt.Shard); err != nil {
			return nil, err
		}
	}

	// Freeze the pristine image now: workers clone it concurrently (see
	// workerDevice.run), and freezing is only write-free once already frozen.
	t.Init.Clone() // freeze eagerly; the throwaway clone is trivially small
	eng := campaignEngine{
		newRunner: func() (func(Site) (Outcome, runCost, error), func() CampaignStats) {
			w := &workerDevice{t: t, model: model}
			return w.run, w.close
		},
	}
	ck, wck := t.Checkpoints(), t.WarpCheckpoints()
	if ck != nil {
		tpc := t.Block.Count()
		// The affinity key is the CTA, whose boundary snapshot a site resets
		// from, refined by the intra-CTA snapshot ordinal. Affinity needs
		// only the CTA; the refinement keeps chunks short where CTAs hold
		// many sites, so no worker idles behind a long last chunk (keyed by
		// CTA alone, K-Means K2 paper's 9-CTA campaign ran ~10% slower on
		// 2 workers).
		eng.affinityOf = func(i int) int {
			s := sites[i].Site
			cta := s.Thread / tpc
			key := cta
			if wck != nil {
				key = key*1_000_003 + wck.OrdinalBefore(cta, s.Thread-cta*tpc, s.DynInst) + 1
			}
			return key
		}
	}
	res, st, err := runEngine(sites, scheduleOrder(sites), opt, eng)
	if opt.Sink != nil {
		opt.Sink.Add(st)
	}
	if err != nil {
		return nil, err
	}
	res.Stats = st
	return res, nil
}

// scheduleOrder returns a campaign's execution order: a permutation sorted
// by (CTA, thread, dyn inst, bit) — thread order implies CTA order — so
// consecutive batch work shares a checkpoint snapshot and stays page-local.
// It is a function of the site list alone, so a shard owns the same sites
// whether its target fast-forwards or runs FullRun. Aggregation and error
// reporting remain input-ordered. Returns nil (identity) for fewer than two
// sites.
func scheduleOrder(sites []WeightedSite) []int {
	if len(sites) < 2 {
		return nil
	}
	order := make([]int, len(sites))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := sites[order[a]].Site, sites[order[b]].Site
		if sa.Thread != sb.Thread {
			return sa.Thread < sb.Thread
		}
		if sa.DynInst != sb.DynInst {
			return sa.DynInst < sb.DynInst
		}
		return sa.Bit < sb.Bit
	})
	return order
}

// campaignEngine supplies the per-worker execution hooks of runEngine.
type campaignEngine struct {
	// newRunner builds a site executor and its cleanup, which returns what
	// the executor's device cost. A worker takes one for life and cleans it
	// up on exit. Campaigns hand out workerDevices.
	newRunner func() (run func(Site) (Outcome, runCost, error), cleanup func() CampaignStats)
	// affinityOf, when non-nil, maps an input-order site index to its
	// scheduling affinity key (the snapshot pair it resumes from): chunks
	// never span affinity boundaries, so a worker's pinned device switches
	// reset sources only between chunks.
	affinityOf func(inputIdx int) int
}

// runEngine is the shared parallel campaign engine. order, when non-nil, is
// the permutation mapping schedule position to input index (identity when
// nil): sites execute in schedule order, while outcomes, aggregation and
// error attribution stay in input order. The engine first replays the
// attached journal (outcomes already on disk are final) and drops schedule
// positions owned by other shards, leaving a work list that is cut into
// contiguous chunks along affinity boundaries (see buildChunks) which
// workers take off a shared cursor; each completed site is journaled
// before the campaign moves on. Scheduling affects only which worker (and
// so which device) runs a site — every run resets its device to the
// same snapshot content, so outcomes are independent of the schedule.
//
// Each site runs once, through protect: a site whose run errs or panics is
// quarantined as EngineError with its cause journaled. Only a journal-append
// failure or an Interrupt stops the campaign, and both stop it the same way:
// workers finish their current site and take no more.
//
// Each worker counts the sites it runs in its own CampaignStats, through
// the record it journals (AddRecord), and keeps its own quarantine list;
// it folds both into the campaign's when it exits.
func runEngine(sites []WeightedSite, order []int, opt CampaignOptions,
	eng campaignEngine) (*CampaignResult, CampaignStats, error) {

	if err := opt.Shard.validate(); err != nil {
		return nil, CampaignStats{}, err
	}
	if len(sites) == 0 {
		return &CampaignResult{}, CampaignStats{}, nil
	}
	input := func(pos int) int {
		if order == nil {
			return pos
		}
		return order[pos]
	}

	start := time.Now()
	outcomes := make([]Outcome, len(sites))
	done := make([]bool, len(sites))
	var st CampaignStats
	var quarantined []SiteFailure
	if j := opt.Journal; j != nil {
		var err error
		if st.Replayed, quarantined, err = replayJournal(j, sites, outcomes, done); err != nil {
			return nil, st, err
		}
	}

	// The work list: schedule positions owned by this shard whose site is
	// not already journaled.
	work := make([]int, 0, len(sites))
	for pos := 0; pos < len(sites); pos++ {
		if opt.Shard.owns(pos) && !done[input(pos)] {
			work = append(work, pos)
		}
	}

	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}

	// A journal-append failure stops the campaign. The first one reported
	// is returned: every later append to the same broken journal fails too,
	// so which of them is named carries no information.
	var failed atomic.Bool
	var appendErr error // written by the one worker that flips failed, read after wg.Wait
	fail := func(i int, err error) {
		if failed.CompareAndSwap(false, true) {
			appendErr = fmt.Errorf("site %v: %w", sites[i].Site, err)
		}
	}

	var interrupted atomic.Bool
	stop := func() bool {
		if failed.Load() || interrupted.Load() {
			return true
		}
		if opt.Interrupt == nil {
			return false
		}
		select {
		case <-opt.Interrupt:
			interrupted.Store(true)
			return true
		default:
			return false
		}
	}

	// Cut the work list into affinity-respecting chunks. The work list is a
	// subsequence of the schedule order, so positions with equal affinity
	// keys are already contiguous within it.
	var key func(pos int) int
	if eng.affinityOf != nil {
		key = func(pos int) int { return eng.affinityOf(input(work[pos])) }
	}
	var cursor chunkCursor
	if workers > 0 {
		cursor.chunks = buildChunks(len(work), key, chunkTargetSize(len(work), workers))
		cursor.taken.Store(int64(workers)) // chunk w is dealt to worker w
	}

	var mu sync.Mutex // guards st and quarantined while exiting workers fold in
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runSite, cleanup := eng.newRunner()
			var tally CampaignStats
			var quar []SiteFailure
			defer func() {
				tally.Merge(cleanup())
				mu.Lock()
				st.Merge(tally)
				quarantined = append(quarantined, quar...)
				mu.Unlock()
			}()
			for c, ok := cursor.dealt(w); ok && !stop(); c, ok = cursor.next() {
				for wpos := c.lo; wpos < c.hi; wpos++ {
					if stop() {
						break
					}
					i := input(work[wpos])
					o, cost, err := protect(runSite, sites[i].Site)
					var quarErr string
					if err != nil {
						o, cost, quarErr = EngineError, runCost{}, err.Error()
					}
					rec := journalRecord(i, sites[i], o, cost, quarErr)
					tally.AddRecord(rec)
					tally.ReplayInstrs += cost.replay
					tally.PostFaultInstrs += cost.postFault
					if cost.decided {
						tally.Decided++
					}
					if f, ok := failureOf(rec); ok {
						quar = append(quar, f)
					}
					outcomes[i] = o
					done[i] = true
					if j := opt.Journal; j != nil {
						if jerr := j.Append(rec); jerr != nil {
							fail(i, jerr)
							break
						}
					}
					if opt.Progress != nil {
						opt.Progress(rec)
					}
				}
			}
		}()
	}
	wg.Wait()

	st.Wall = time.Since(start)
	if failed.Load() {
		return nil, st, appendErr
	}

	// Aggregation is always in input order — independent of scheduling,
	// sharding, and how the work was split between replay and execution —
	// so resumed and merged campaigns are bit-identical to uninterrupted
	// ones.
	res := &CampaignResult{}
	for i, ws := range sites {
		if done[i] {
			res.Dist.Add(outcomes[i], ws.Weight)
			res.Completed++
		}
	}
	if interrupted.Load() {
		return nil, st, fmt.Errorf("%w: %d/%d sites completed", ErrInterrupted, res.Completed, len(sites))
	}
	slices.SortFunc(quarantined, func(a, b SiteFailure) int { return cmp.Compare(a.Index, b.Index) })
	res.Quarantined = quarantined
	if opt.KeepPerSite {
		res.PerSite = outcomes
	}
	return res, st, nil
}
