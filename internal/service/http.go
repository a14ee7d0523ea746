package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/advisor"
	"repro/internal/fault"
	"repro/internal/report"
)

// Status is the body of GET /campaigns/{id}.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Submission echoes the normalized campaign parameters (defaults
	// filled in), so the caller sees what actually runs.
	Submission Submission `json:"submission"`
	// OwnedSites is this shard's completion target; Completed counts
	// journaled sites toward it (live while running).
	OwnedSites int    `json:"owned_sites"`
	Completed  int    `json:"completed"`
	Error      string `json:"error,omitempty"`
	// Profile is the incremental outcome profile read from the journal —
	// partial while the campaign runs, final once done. Omitted while the
	// campaign is queued.
	Profile *report.Profile `json:"profile,omitempty"`
}

// Status reports a campaign's live state. While the campaign runs, the
// profile comes from the open journal's in-memory record snapshot; once
// done, from the final index-sorted record list.
func (s *Server) Status(id string) (Status, error) {
	c, err := s.lookup(id)
	if err != nil {
		return Status{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:         c.id,
		State:      c.state,
		Submission: c.sub,
		OwnedSites: c.sub.OwnedSites(),
		Completed:  int(c.completed.Load()),
		Error:      c.errMsg,
	}
	var recs = c.recs
	if c.j != nil {
		recs = c.j.Snapshot()
	}
	if recs != nil {
		dist, err := report.MergedDist(recs)
		if err != nil {
			return Status{}, err
		}
		p := report.NewProfile(dist)
		st.Profile = &p
	}
	return st, nil
}

// Report returns the campaign's final report document — the same bytes
// fsmerge would emit for its journal, because both aggregate the
// index-sorted records through report.NewMerged.
func (s *Server) Report(id string) (report.Merged, error) {
	c, err := s.lookup(id)
	if err != nil {
		return report.Merged{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StateDone {
		return report.Merged{}, ErrNotFinished
	}
	return report.NewMerged(c.sub.Fingerprint(), c.recs)
}

// Advice returns the campaign's selective-hardening advice document — the
// same bytes fsadvise emits for the campaign's journal, because both
// attribute the index-sorted records through advisor.FromJournal and
// analyze with the same options.
func (s *Server) Advice(id string, opt advisor.Options) (*report.Advice, error) {
	c, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	state, fp, recs := c.state, c.sub.Fingerprint(), c.recs
	c.mu.Unlock()
	if state != StateDone {
		return nil, fmt.Errorf("%w: campaign is %s", ErrNotFinished, state)
	}
	if fp.ShardCount != 1 {
		// One shard's journal holds only its own sites; a ranking from it
		// would be blind to every other shard's outcomes. Merge the shard
		// journals with fsmerge and advise offline with fsadvise -journal.
		return nil, fmt.Errorf("%w: advice requires an unsharded campaign (this is shard %d of %d)",
			ErrBadRequest, fp.ShardIndex, fp.ShardCount)
	}
	// Prepared like the campaign itself was, so advice is attributed
	// against exactly the profile it ran on; the shared prepared-target
	// cache makes this Prepare a lookup, not a golden re-run.
	p, err := c.sub.Prepare(s.cfg.Cache)
	if err != nil {
		return nil, err
	}
	in, err := advisor.FromJournal(p.Target, fp, recs)
	if err != nil {
		return nil, err
	}
	adv, err := advisor.Analyze(in, opt)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return adv, nil
}

// CampaignStats is the per-campaign entry of the /stats document.
type CampaignStats struct {
	ID         string          `json:"id"`
	Kernel     string          `json:"kernel"`
	State      State           `json:"state"`
	OwnedSites int             `json:"owned_sites"`
	Completed  int             `json:"completed"`
	Campaign   report.Campaign `json:"campaign"`
}

// Stats is the body of GET /stats.
type Stats struct {
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	Queued     int   `json:"queued"`
	Running    int   `json:"running"`
	Submitted  int64 `json:"submitted"`
	// DedupHits counts submissions answered by an existing campaign;
	// EngineRuns counts campaigns actually handed to the engine. Duplicate
	// concurrent submissions show up as DedupHits without EngineRuns
	// moving — the observable form of the dedup guarantee.
	DedupHits  int64            `json:"dedup_hits"`
	EngineRuns int64            `json:"engine_runs"`
	Cache      fault.CacheStats `json:"cache"`
	Campaigns  []CampaignStats  `json:"campaigns"`
}

// Stats snapshots the worker pool, the prepared-target cache, and every
// campaign's engine counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Queued:     s.queued,
		Running:    s.running,
		Submitted:  s.submitted,
		DedupHits:  s.dedupHits,
		EngineRuns: s.engineRuns,
		Cache:      s.cfg.Cache.Stats(),
	}
	campaigns := make([]*campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		campaigns = append(campaigns, c)
	}
	s.mu.Unlock()
	sort.Slice(campaigns, func(i, k int) bool { return campaigns[i].id < campaigns[k].id })
	for _, c := range campaigns {
		c.mu.Lock()
		st.Campaigns = append(st.Campaigns, CampaignStats{
			ID:         c.id,
			Kernel:     c.sub.Kernel,
			State:      c.state,
			OwnedSites: c.sub.OwnedSites(),
			Completed:  int(c.completed.Load()),
			Campaign:   report.NewCampaign(c.sink.Total()),
		})
		c.mu.Unlock()
	}
	return st
}

// submitResponse is the body of POST /campaigns.
type submitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Deduped is true when an identical campaign already existed and this
	// submission was folded into it.
	Deduped bool   `json:"deduped"`
	URL     string `json:"url"`
}

// Handler returns the service's HTTP surface. Routes:
//
//	POST /campaigns               submit (202 accepted, 200 deduplicated,
//	                              413 body over MaxSubmissionBytes)
//	GET  /campaigns/{id}          live status + incremental profile
//	GET  /campaigns/{id}/report   final report (409 until done)
//	GET  /campaigns/{id}/advice   selective-hardening advice (409 until done;
//	                              ?rank-by= ?budget= ?confidence= options)
//	GET  /healthz                 liveness probe
//	GET  /stats                   pool, cache, and per-campaign counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /campaigns/{id}/advice", s.handleAdvice)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// Limits at the HTTP byte boundary. Constants, not flags: a submission is
// ten scalar fields, and every response is built from memory or (advice on a
// cold cache) one Prepare.
const (
	// MaxSubmissionBytes bounds a POST /campaigns body (overflow is 413).
	MaxSubmissionBytes = 64 << 10
	// The timeouts cmd/fsserve gives its http.Server.
	ReadHeaderTimeout = 5 * time.Second
	ReadTimeout       = 30 * time.Second
	WriteTimeout      = 2 * time.Minute
	IdleTimeout       = 2 * time.Minute
)

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sub Submission
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSubmissionBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	id, deduped, err := s.Submit(sub)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, serr := s.Status(id)
	if serr != nil {
		writeError(w, http.StatusInternalServerError, serr)
		return
	}
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{
		ID: id, State: st.State, Deduped: deduped, URL: "/campaigns/" + id,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, statusCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	doc, err := s.Report(r.PathValue("id"))
	if err != nil {
		writeError(w, statusCode(err), err)
		return
	}
	// report.Write, not writeJSON: the body must be byte-identical to the
	// document fsmerge writes for the same journal.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = report.Write(w, doc)
}

func (s *Server) handleAdvice(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opt := advisor.Options{RankBy: q.Get("rank-by")}
	if v := q.Get("confidence"); v != "" {
		c, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad confidence %q: %v", v, err))
			return
		}
		opt.Confidence = c
	}
	budgets, err := advisor.ParseBudgets(q.Get("budget"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opt.Budgets = budgets
	adv, err := s.Advice(r.PathValue("id"), opt)
	if err != nil {
		writeError(w, statusCode(err), err)
		return
	}
	// report.Write, not writeJSON: the body must be byte-identical to the
	// document fsadvise -json writes for the same campaign.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = report.Write(w, adv)
}

// statusCode maps service errors onto HTTP codes.
func statusCode(err error) int {
	switch {
	case errors.Is(err, ErrUnknownCampaign):
		return http.StatusNotFound
	case errors.Is(err, ErrNotFinished):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
