package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/stats"
)

// The submission mix: mixSeeds campaigns on each of the mixKernels, all at
// small scale with mixSites sites, so the engine work per campaign is a few
// tens of milliseconds and the service's own share of a request is visible.
var mixKernels = []string{
	"GEMM K1", "2DCONV K1", "PathFinder K1", "MVT K1",
	"Gaussian K2", "LUD K46", "NN K1", "K-Means K1",
}

const (
	mixSeeds     = 15
	mixSites     = 500
	pollInterval = 2 * time.Millisecond
	// adviceEvery: every n-th campaign of the mix also fetches advice.
	adviceEvery = 4
	pollTimeout = 60 * time.Second
	// warmupSubmissions is the size of the untimed warm-up mix, whose
	// journals the set-up measurement then recovers.
	warmupSubmissions = 16
)

// submissionMix returns the distinct submissions of one mix in the order
// clients claim them. Every submission seed and the order derive from seed.
func submissionMix(seed int64, div int) []service.Submission {
	ks, seeds, sites := mixKernels, mixSeeds, mixSites
	if div > 1 {
		ks, seeds, sites = mixKernels[:2], 2, max(mixSites/div, 8)
	}
	var subs []service.Submission
	for _, k := range ks {
		for j := 1; j <= seeds; j++ {
			subs = append(subs, service.Submission{Kernel: k, Seed: seed*100 + int64(j), Sites: sites})
		}
	}
	order := stats.NewRNG(seed).Split("service-mix").Perm(len(subs))
	out := make([]service.Submission, len(subs))
	for i, o := range order {
		out[i] = subs[o]
	}
	return out
}

// requestTimes is what a client measured for one distinct submission.
type requestTimes struct {
	sub    service.Submission
	id     string
	report []byte
	// Milliseconds. total is first byte of the POST to last byte of the
	// report; dup is the same for the identical re-POST.
	submit, queue, run, reportGet, total, dup, advice float64
	status                                            []float64
}

// mixServer is one in-process daemon behind loopback HTTP.
type mixServer struct {
	srv     *service.Server
	ts      *httptest.Server
	dataDir string
}

func (m *mixServer) stop() {
	m.ts.Close()
	m.srv.Stop()
}

// startServer is the workload's set-up: a data directory (recovered when it
// already holds journals), a fresh prepared cache, the daemon and its
// listener, confirmed by one /healthz round trip.
func (r *run) startServer(tag string) (*mixServer, float64, error) {
	t0 := time.Now()
	m := &mixServer{dataDir: filepath.Join(r.dir, "srv-"+tag)}
	var err error
	m.srv, err = service.New(service.Config{
		DataDir: m.dataDir, Workers: r.cfg.workers, Parallelism: 1, Cache: fault.NewPreparedCache(0),
	})
	if err != nil {
		return nil, 0, err
	}
	m.srv.Start()
	m.ts = httptest.NewServer(m.srv.Handler())
	resp, err := http.Get(m.ts.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		m.stop()
		return nil, 0, err
	}
	return m, time.Since(t0).Seconds(), nil
}

// mixClient is one closed-loop client: one connection, one request in
// flight.
type mixClient struct {
	base string
	http *http.Client
	// rejected counts 429 responses.
	rejected *atomic.Int64
}

// do performs one request and returns status, body and milliseconds. Any
// status other than want is a failed operation.
func (c *mixClient) do(sp *spanRef, name, method, path string, body []byte, want int) (int, []byte, float64, error) {
	s := sp.child(name)
	defer s.end()
	t0 := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := time.Since(t0).Seconds() * 1e3
	if err != nil {
		return 0, nil, 0, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		c.rejected.Add(1)
	}
	if resp.StatusCode != want {
		err = fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, data)
	}
	return resp.StatusCode, data, ms, err
}

// submitToReport drives one distinct submission through the service: POST,
// poll until done, GET the report, re-POST the identical body and GET the
// report again, and for every adviceEvery-th campaign GET the advice.
func (c *mixClient) submitToReport(sp *spanRef, sub service.Submission, withAdvice bool) (requestTimes, error) {
	rt := requestTimes{sub: sub}
	body, err := json.Marshal(sub)
	if err != nil {
		return rt, err
	}
	start := time.Now()
	_, data, ms, err := c.do(sp, "service.submit", "POST", "/campaigns", body, http.StatusAccepted)
	if err != nil {
		return rt, err
	}
	rt.submit = ms
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &accepted); err != nil {
		return rt, err
	}
	rt.id = accepted.ID

	posted := time.Now()
	var running time.Time
	for {
		time.Sleep(pollInterval)
		_, data, ms, err := c.do(sp, "service.status", "GET", "/campaigns/"+rt.id, nil, http.StatusOK)
		if err != nil {
			return rt, err
		}
		rt.status = append(rt.status, ms)
		var st service.Status
		if err := json.Unmarshal(data, &st); err != nil {
			return rt, err
		}
		if running.IsZero() && st.State != service.StateQueued {
			running = time.Now()
			rt.queue = running.Sub(posted).Seconds() * 1e3
		}
		if st.State == service.StateDone {
			rt.run = time.Since(running).Seconds() * 1e3
			break
		}
		if st.State == service.StateFailed || st.State == service.StateInterrupted {
			return rt, fmt.Errorf("campaign %s ended %s: %s", rt.id, st.State, st.Error)
		}
		if time.Since(posted) > pollTimeout {
			return rt, fmt.Errorf("campaign %s still %s after %v", rt.id, st.State, pollTimeout)
		}
	}
	if _, rt.report, rt.reportGet, err = c.do(sp, "service.report_get", "GET", "/campaigns/"+rt.id+"/report", nil, http.StatusOK); err != nil {
		return rt, err
	}
	rt.total = time.Since(start).Seconds() * 1e3

	dupStart := time.Now()
	if _, _, _, err = c.do(sp, "service.submit_dup", "POST", "/campaigns", body, http.StatusOK); err != nil {
		return rt, err
	}
	_, again, _, err := c.do(sp, "service.report_get", "GET", "/campaigns/"+rt.id+"/report", nil, http.StatusOK)
	if err != nil {
		return rt, err
	}
	rt.dup = time.Since(dupStart).Seconds() * 1e3
	if !bytes.Equal(again, rt.report) {
		return rt, fmt.Errorf("campaign %s: the duplicate's report differs from the original's", rt.id)
	}
	if withAdvice {
		if _, _, rt.advice, err = c.do(sp, "service.advice_get", "GET", "/campaigns/"+rt.id+"/advice", nil, http.StatusOK); err != nil {
			return rt, err
		}
	}
	return rt, nil
}

// requestsPer is the number of HTTP requests one submission costs besides
// its status polls: POST, report, duplicate POST, report.
const requestsPer = 4

// mixRep is what one run of the whole mix measured.
type mixRep struct {
	reqs     []requestTimes
	wall     float64 // seconds
	alloc    uint64
	statsGet float64
	stats    service.Stats
	rejected int64
	inproc   []float64
}

// runMix runs the mix on m: W clients, each claiming the next submission
// when its previous one is complete.
func (r *run) runMix(m *mixServer, tag string, mix []service.Submission) (mixRep, error) {
	var rep mixRep
	rep.reqs = make([]requestTimes, len(mix))
	var next, rejected atomic.Int64
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	alloc0 := totalAlloc()
	start := time.Now()
	for w := 0; w < r.cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			c := &mixClient{base: m.ts.URL, http: &http.Client{Transport: tr}, rejected: &rejected}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(mix) {
					return
				}
				sub := mix[i]
				sp := r.rec.root(fmt.Sprintf("%s/%s/%s-seed%d", r.cfg.workload, tag, sub.Kernel, sub.Seed), "request")
				rt, err := c.submitToReport(sp, sub, i%adviceEvery == 0)
				sp.end()
				rep.reqs[i] = rt
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	rep.wall = time.Since(start).Seconds()
	rep.alloc = totalAlloc() - alloc0
	rep.rejected = rejected.Load()
	if firstErr != nil {
		return rep, firstErr
	}
	c := &mixClient{base: m.ts.URL, http: http.DefaultClient, rejected: &rejected}
	_, data, ms, err := c.do(nil, "service.stats_get", "GET", "/stats", nil, http.StatusOK)
	if err != nil {
		return rep, err
	}
	rep.statsGet = ms
	return rep, json.Unmarshal(data, &rep.stats)
}

// inProcess drives one warm campaign per kernel through Server.Submit and
// Server.Report, without HTTP; the gap to the HTTP path is HTTP's share.
func (r *run) inProcess(m *mixServer, mix []service.Submission) ([]float64, error) {
	seen := map[string]bool{}
	var ms []float64
	for _, s := range mix {
		if seen[s.Kernel] {
			continue
		}
		seen[s.Kernel] = true
		sub := service.Submission{Kernel: s.Kernel, Seed: s.Seed + 50, Sites: s.Sites}
		t0 := time.Now()
		id, _, err := m.srv.Submit(sub)
		if err != nil {
			return nil, err
		}
		for {
			time.Sleep(pollInterval)
			st, err := m.srv.Status(id)
			if err != nil {
				return nil, err
			}
			if st.State == service.StateDone {
				break
			}
			if time.Since(t0) > pollTimeout || st.State == service.StateFailed {
				return nil, fmt.Errorf("in-process campaign %s is %s", id, st.State)
			}
		}
		doc, err := m.srv.Report(id)
		if err != nil {
			return nil, err
		}
		if err := report.Write(io.Discard, doc); err != nil {
			return nil, err
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return ms, nil
}

// verifyMix holds output check 4 (each report's bytes equal NewMerged +
// Write over the campaign's own journal), the campaign digests, and the
// full-run reference check on a subsample of each campaign's sites.
func (r *run) verifyMix(m *mixServer, rep mixRep, ref *fullRunRef, record bool) error {
	for _, rt := range rep.reqs {
		name := fmt.Sprintf("%s/seed%d", rt.sub.Kernel, rt.sub.Seed)
		fp, recs, err := journal.Merge([]string{filepath.Join(m.dataDir, rt.id+".journal")}, false)
		if err != nil {
			return err
		}
		want, err := mergedReport(nil, fp, recs)
		if err != nil {
			return err
		}
		r.check("report = journal "+name, bytes.Equal(want, rt.report), "the served report differs from NewMerged+Write over the campaign's journal")
		digest := digestRecords(recs)
		if !record {
			r.check("repeatable outcomes "+name, digest == r.digests[name], "outcomes differ between repetitions")
			continue
		}
		r.digests[name] = digest
		sites := make([]fault.WeightedSite, len(recs))
		outs := make([]fault.Outcome, len(recs))
		var engineErrs int64
		for i, rec := range recs {
			sites[i] = fault.WeightedSite{Site: fault.Site{Thread: rec.Thread, DynInst: rec.DynInst, Bit: rec.Bit}, Weight: rec.Weight}
			outs[i] = fault.Outcome(rec.Outcome)
			if rec.Err != "" {
				engineErrs++
			}
		}
		r.ops(0, engineErrs)
		c := campaignSpec{kernel: rt.sub.Kernel, scale: kernels.ScaleSmall, model: fault.ModelDestValue}
		if err := ref.verify(name, c, sites, outs); err != nil {
			return err
		}
	}
	return nil
}

func runServiceMix(r *run) error {
	mix := submissionMix(r.cfg.seed, r.cfg.size.div)
	perCampaign := mix[0].Sites

	// The warm-up's data directory then serves the set-up measurement: a
	// daemon start over a directory that holds finished journals, so set-up
	// includes the restart recovery a real daemon pays, not only a
	// sub-millisecond listener.
	if r.cfg.size.warmup {
		m, _, err := r.startServer("warmup")
		if err != nil {
			return err
		}
		_, err = r.runMix(m, "warmup", mix[:min(len(mix), warmupSubmissions)])
		m.stop()
		if err != nil {
			return err
		}
	}
	var setups []float64
	setUpStart := time.Now()
	for k := 0; r.moreSetUps(k, setUpStart); k++ {
		t0 := time.Now()
		submissionMix(r.cfg.seed, r.cfg.size.div)
		gen := time.Since(t0).Seconds()
		m, secs, err := r.startServer("warmup")
		if err != nil {
			return err
		}
		m.stop()
		setups = append(setups, gen+secs)
	}
	r.setMedian("setup_s", setups)

	var reps []mixRep
	var traced []bool
	ref := fullRunRef{r: r}
	start := time.Now()
	// One mix is a statistical sample on its own (its requests are the
	// samples), so a single repetition is enough when -seconds is short.
	for k := 0; r.moreReps(k, 1, start); k++ {
		traced = append(traced, r.traceRep(k))
		tag := fmt.Sprintf("rep%d", k)
		m, _, err := r.startServer(tag)
		if err != nil {
			return err
		}
		rep, err := r.runMix(m, tag, mix)
		if err == nil && r.cfg.trace && k == 0 {
			rep.inproc, err = r.inProcess(m, mix)
		}
		m.stop()
		if err != nil {
			return err
		}
		if err := r.verifyMix(m, rep, &ref, k == 0); err != nil {
			return err
		}
		reps = append(reps, rep)
	}
	r.rec.enable(r.cfg.trace)

	var total, dup, submit, queue, runMS, reportGet, advice, status, cold, walls, rates, perSec []float64
	var alloc uint64
	var engineRuns, dedupHits, misses []int64
	for _, rep := range reps {
		firstOf := map[string]bool{}
		for _, rt := range rep.reqs {
			total, dup = append(total, rt.total), append(dup, rt.dup)
			submit, queue, runMS = append(submit, rt.submit), append(queue, rt.queue), append(runMS, rt.run)
			reportGet, status = append(reportGet, rt.reportGet), append(status, rt.status...)
			if rt.advice > 0 {
				advice = append(advice, rt.advice)
			}
			if !firstOf[rt.sub.Kernel] {
				firstOf[rt.sub.Kernel] = true
				cold = append(cold, rt.total)
			}
			polls := int64(len(rt.status))
			r.ops(int64(perCampaign)+requestsPer+polls, 0)
		}
		r.ops(0, rep.rejected)
		walls = append(walls, rep.wall*1e3)
		rates = append(rates, float64(len(mix)*perCampaign)/rep.wall)
		perSec = append(perSec, float64(len(mix))/rep.wall)
		alloc += rep.alloc
		engineRuns = append(engineRuns, rep.stats.EngineRuns)
		dedupHits = append(dedupHits, rep.stats.DedupHits)
		misses = append(misses, rep.stats.Cache.Misses)
	}
	r.setMedian("sites_per_s", rates)
	r.setMedian("campaigns_per_s", perSec)
	r.setMedian("result_p50_ms", total)
	r.set("submit_to_report_p90_ms", quantile(total, 0.90), len(total))
	if p := supportedTail(len(total)); p < 90 {
		r.logf("note: submit_to_report_p90_ms has n=%d; ten samples beyond the percentile support only p%d", len(total), p)
	}
	r.setMedian("dedup_p50_ms", dup)
	r.set("alloc_kb_per_site", float64(alloc)/1024/float64(len(reps)*len(mix)*perCampaign), len(reps))
	r.setTraceOverhead(walls, traced)
	r.sameAcrossReps("service.engine_runs", engineRuns)
	r.sameAcrossReps("service.dedup_hits", dedupHits)
	r.sameAcrossReps("service.cache_misses", misses)
	r.check("one engine run per distinct submission", engineRuns[0] == int64(len(mix)) && dedupHits[0] == int64(len(mix)),
		"%d engine runs and %d dedup hits for %d distinct submissions", engineRuns[0], dedupHits[0], len(mix))

	r.setMedian("service.submit_ms", submit)
	r.setMedian("service.queue_wait_ms", queue)
	r.setMedian("service.run_ms", runMS)
	r.setMedian("service.report_get_ms", reportGet)
	r.setMedian("service.advice_get_ms", advice)
	r.setMedian("service.status_get_ms", status)
	r.set("service.cold_submit_to_report_ms", mean(cold), len(cold))
	last := reps[len(reps)-1]
	r.set("service.stats_get_ms", last.statsGet, 1)
	r.set("service.engine_runs", float64(last.stats.EngineRuns), 1)
	r.set("service.dedup_hits", float64(last.stats.DedupHits), 1)
	r.set("service.cache_hits", float64(last.stats.Cache.Hits+last.stats.Cache.Shared), 1)
	r.set("service.cache_misses", float64(last.stats.Cache.Misses), 1)
	r.set("service.rejected_429", float64(last.rejected), 1)
	var engine fault.CampaignStats // summed over the last mix's campaigns
	var engineMS float64
	for _, c := range last.stats.Campaigns {
		engine.Merge(fault.CampaignStats{
			Runs: c.Campaign.Runs, CTAsSkipped: c.Campaign.CTAsSkipped, EarlyExits: c.Campaign.EarlyExits,
			IntraSkips: c.Campaign.IntraSkips, PagesCopied: c.Campaign.PagesCopied,
			AffinityResets: c.Campaign.AffinityResets, DevicesCreated: c.Campaign.DevicesCreated,
			Retries: c.Campaign.Retries, Quarantined: c.Campaign.Quarantined,
		})
		engineMS += c.Campaign.WallMS
	}
	if engineMS > 0 {
		r.set("service.engine_sites_per_s", float64(engine.Runs)/engineMS*1e3, len(last.stats.Campaigns))
		r.setEngineCounters(engine)
		r.set("fault.site_us", engineMS*1e3/float64(engine.Runs), len(last.stats.Campaigns))
	}
	ref.setSpeedup()
	if in := reps[0].inproc; len(in) > 0 {
		r.set("service.inproc_submit_to_report_ms", mean(in), len(in))
	}

	if r.cfg.trace {
		c := campaignSpec{kernel: mix[0].Kernel, scale: kernels.ScaleSmall, model: fault.ModelDestValue, sites: perCampaign}
		ps, err := setUp(nil, []campaignSpec{c}, mix[0].Seed)
		if err != nil {
			return err
		}
		return r.probeLayers(ps[0])
	}
	return nil
}
