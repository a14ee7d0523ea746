package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	cspec "repro/internal/campaign" // the server-side record type is named campaign
	"repro/internal/fault"
	"repro/internal/journal"
)

// Config shapes a Server. The zero value of every field selects a usable
// default except DataDir, which is required.
type Config struct {
	// DataDir holds one write-ahead journal per campaign. It is created if
	// missing; existing journals in it are recovered on New.
	DataDir string
	// Workers is the number of campaigns executing concurrently (default 2).
	// Each campaign additionally fans out over Parallelism engine workers.
	Workers int
	// QueueDepth bounds the number of admitted-but-not-yet-running
	// campaigns (default 16); submissions beyond it are rejected with
	// ErrQueueFull rather than queued without bound.
	QueueDepth int
	// Parallelism is the per-campaign engine worker count (0 = GOMAXPROCS).
	Parallelism int
	// SyncEvery is the journal auto-fsync cadence in records (default 64;
	// negative disables periodic fsync). Bounds how many journaled
	// outcomes a host crash can lose; a daemon crash loses none.
	SyncEvery int
	// Cache is the shared prepared-target cache; nil uses the process-wide
	// default, so campaigns for the same (kernel, scale, warp size) share
	// one golden run.
	Cache *fault.PreparedCache
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull rejects a submission when QueueDepth campaigns are
	// already waiting (HTTP 429).
	ErrQueueFull = errors.New("service: admission queue is full")
	// ErrUnknownCampaign reports a campaign id the server has never seen
	// (HTTP 404).
	ErrUnknownCampaign = errors.New("service: unknown campaign")
	// ErrNotFinished reports a final-report request for a campaign that is
	// still queued or running (HTTP 409).
	ErrNotFinished = errors.New("service: campaign has not finished")
	// ErrBadRequest wraps request-validation failures on read endpoints
	// (malformed advice options, advice on a sharded campaign; HTTP 400).
	ErrBadRequest = errors.New("service: bad request")
)

// State is a campaign's lifecycle position.
type State string

const (
	// StateQueued: admitted, journal header on disk, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: executing on a worker.
	StateRunning State = "running"
	// StateDone: every owned site journaled; the final report is ready.
	StateDone State = "done"
	// StateInterrupted: stopped by shutdown mid-run; the journal holds
	// every completed site and a restarted server resumes it.
	StateInterrupted State = "interrupted"
	// StateFailed: the engine reported a campaign-level error.
	StateFailed State = "failed"
)

// campaign is the server-side record of one submission.
type campaign struct {
	id   string
	sub  Submission
	path string
	sink *fault.StatsSink

	// completed counts journaled sites (replayed + executed), updated
	// live from the engine's Progress hook.
	completed atomic.Int64

	mu     sync.Mutex
	state  State
	errMsg string
	// j is the open journal while the campaign runs; Snapshot serves the
	// live status profile.
	j *journal.Journal
	// recs is the final index-sorted record list once the campaign is
	// done (run to completion now, or recovered complete from disk).
	recs []journal.Record
}

// Server accepts campaign submissions, deduplicates them by fingerprint,
// and runs them on a bounded worker pool. See the package comment for the
// full lifecycle.
type Server struct {
	cfg Config

	mu        sync.Mutex
	campaigns map[string]*campaign
	queued    int
	running   int
	// submitted/dedupHits/engineRuns make the dedup guarantee observable:
	// duplicate submissions raise dedupHits while engineRuns stays put.
	submitted  int64
	dedupHits  int64
	engineRuns int64

	queue    chan *campaign
	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Server over cfg.DataDir, recovering every journal found
// there: complete journals surface as done campaigns (their reports are
// immediately servable), incomplete ones re-enter the run queue and resume
// through the engine's replay path when Start launches the workers.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("service: Config.DataDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.SyncEvery == 0 {
		cfg.SyncEvery = 64
	}
	if cfg.Cache == nil {
		cfg.Cache = fault.DefaultPreparedCache()
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}

	s := &Server{
		cfg:       cfg,
		campaigns: make(map[string]*campaign),
		stopc:     make(chan struct{}),
	}
	recovered, err := s.recover()
	if err != nil {
		return nil, err
	}
	// Recovered campaigns bypass admission control (they were admitted in
	// a previous life), so the queue channel gets slack for all of them on
	// top of the configured depth: enqueues never block under s.mu.
	s.queue = make(chan *campaign, cfg.QueueDepth+len(recovered))
	for _, c := range recovered {
		s.queued++
		s.queue <- c
	}
	return s, nil
}

// recover scans the data directory and rebuilds campaign state from the
// journals' own fingerprints — the fingerprint carries every submission
// field, so no separate metadata store exists to drift out of sync.
func (s *Server) recover() ([]*campaign, error) {
	paths, err := filepath.Glob(filepath.Join(s.cfg.DataDir, "*.journal"))
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	sort.Strings(paths)
	var pending []*campaign
	for _, path := range paths {
		fp, recs, err := journal.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("service: recover %s: %w", path, err)
		}
		sub, err := cspec.FromFingerprint(fp)
		if err != nil {
			return nil, fmt.Errorf("service: recover %s: %w", path, err)
		}
		c := s.newCampaign(sub)
		if path != c.path {
			// A journal named by an older build's address — one whose hash
			// still covered checkpoint strides or full-run, which no longer
			// identify a campaign — is adopted under the address this build
			// gives its campaign. If that address is taken the two files
			// claim one campaign and an operator has to choose.
			if err := journal.Rename(path, c.path); err != nil {
				return nil, fmt.Errorf("service: recover %s: journal belongs at %s (fingerprint %s): %w", path, c.path, fp, err)
			}
		}
		c.completed.Store(int64(len(recs)))
		if len(recs) >= sub.OwnedSites() {
			sort.Slice(recs, func(i, k int) bool { return recs[i].Index < recs[k].Index })
			c.state = StateDone
			c.recs = recs
		} else {
			pending = append(pending, c)
		}
		s.campaigns[c.id] = c
	}
	return pending, nil
}

// newCampaign is the queued record of a validated submission; its id and
// journal path are the spec's content address.
func (s *Server) newCampaign(sub Submission) *campaign {
	id := sub.ID()
	return &campaign{
		id:    id,
		sub:   sub,
		path:  filepath.Join(s.cfg.DataDir, id+".journal"),
		state: StateQueued,
		sink:  &fault.StatsSink{},
	}
}

// Start launches the worker pool. Call once, before serving HTTP.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Stop shuts the pool down cooperatively: queued campaigns stay queued (in
// their journals, for the next incarnation), running campaigns are
// interrupted at the next site boundary with every completed outcome
// journaled, and Stop returns when all workers have exited. Safe to call
// more than once.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { close(s.stopc) })
	s.wg.Wait()
}

// Submit admits a campaign. The returned bool reports deduplication: true
// means an identical campaign (same fingerprint) already exists and the
// returned id names it — no second engine run is started, matching how the
// prepared-target cache singleflights golden runs.
func (s *Server) Submit(sub Submission) (string, bool, error) {
	sub = withDefaults(sub)
	if err := sub.Validate(); err != nil {
		return "", false, err
	}
	c := s.newCampaign(sub)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitted++
	if _, ok := s.campaigns[c.id]; ok {
		s.dedupHits++
		return c.id, true, nil
	}
	if s.queued >= s.cfg.QueueDepth {
		return "", false, ErrQueueFull
	}

	// Write the journal header before acknowledging the submission: an
	// admitted-but-queued campaign must survive a daemon restart, and the
	// journal is the only durable record of it.
	j, err := journal.Open(c.path, sub.Fingerprint())
	if err != nil {
		return "", false, fmt.Errorf("service: create journal: %w", err)
	}
	if err := j.Close(); err != nil {
		return "", false, fmt.Errorf("service: create journal: %w", err)
	}

	s.campaigns[c.id] = c
	s.queued++
	s.queue <- c // never blocks: queued is bounded by QueueDepth <= cap
	return c.id, false, nil
}

// worker drains the run queue until Stop.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopc:
			return
		case c := <-s.queue:
			s.runCampaign(c)
		}
	}
}

// runCampaign executes one campaign end to end: prepare the spec's target
// (the call fsprune's campaign action makes), open the journal (replaying
// any prior progress), run the engine, and record the terminal state.
func (s *Server) runCampaign(c *campaign) {
	s.mu.Lock()
	s.queued--
	s.running++
	s.engineRuns++
	s.mu.Unlock()
	c.mu.Lock()
	c.state = StateRunning
	c.mu.Unlock()

	recs, err := s.execute(c)

	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.j = nil
	switch {
	case err == nil:
		c.state = StateDone
		c.recs = recs
	case errors.Is(err, fault.ErrInterrupted):
		// Shutdown, not failure: the journal holds every completed site
		// and recovery re-queues the campaign on the next start.
		c.state = StateInterrupted
	default:
		c.state = StateFailed
		c.errMsg = err.Error()
	}
}

// execute is the engine-facing half of runCampaign; it returns the final
// index-sorted record list on full completion.
func (s *Server) execute(c *campaign) ([]journal.Record, error) {
	p, err := c.sub.Prepare(s.cfg.Cache)
	if err != nil {
		return nil, err
	}
	j, err := journal.Open(c.path, c.sub.Fingerprint())
	if err != nil {
		return nil, err
	}
	j.KeepRecords()
	if s.cfg.SyncEvery > 0 {
		j.AutoSync(s.cfg.SyncEvery)
	}
	c.mu.Lock()
	c.j = j
	c.mu.Unlock()

	_, runErr := p.Run(fault.CampaignOptions{
		Parallelism: s.cfg.Parallelism,
		Sink:        c.sink,
		Journal:     j,
		Interrupt:   s.stopc,
		Progress:    func(completed, _ int) { c.completed.Store(int64(completed)) },
	})

	c.mu.Lock()
	c.j = nil
	c.mu.Unlock()
	recs := j.Snapshot()
	if cerr := j.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return nil, runErr
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].Index < recs[k].Index })
	return recs, nil
}

// lookup resolves a campaign id, tolerating a ".journal" suffix pasted
// from the data directory.
func (s *Server) lookup(id string) (*campaign, error) {
	id = strings.TrimSuffix(id, ".journal")
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCampaign, id)
	}
	return c, nil
}
