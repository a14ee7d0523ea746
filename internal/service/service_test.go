package service_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/stats"
)

// standalone runs a submission's campaign directly through fault.Run with
// its own journal — the fsprune-equivalent reference — and returns the
// campaign distribution plus the journal-derived report bytes (the byte
// stream fsmerge would emit, which /report must reproduce exactly).
func standalone(t *testing.T, dir string, sub service.Submission) (fault.Dist, []byte) {
	t.Helper()
	spec, ok := kernels.ByName(sub.Kernel)
	if !ok {
		t.Fatalf("unknown kernel %q", sub.Kernel)
	}
	sc := kernels.ScaleSmall
	if sub.Scale == kernels.ScalePaper.String() {
		sc = kernels.ScalePaper
	}
	inst, err := spec.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	inst.Target.WarpSize = sub.Warp
	if err := inst.Target.Prepare(); err != nil {
		t.Fatal(err)
	}
	seed := sub.Seed
	if seed == 0 {
		seed = campaign.DefaultSeed
	}
	model := fault.ModelDestValue
	if sub.Model != "" {
		model, err = fault.ParseModel(sub.Model)
		if err != nil {
			t.Fatal(err)
		}
	}
	space := fault.NewSpace(inst.Target.Profile())
	rng := stats.NewRNG(seed).Split("baseline")
	sites := fault.Uniform(space.RandomModel(rng, sub.Sites, model))

	shard := fault.Shard{Index: sub.ShardIndex, Count: sub.ShardCount}
	if shard.Count == 0 {
		shard = fault.Shard{Index: 0, Count: 1}
	}
	fp := inst.Target.JournalFingerprint(model, len(sites), sc.String(), seed, shard)
	path := filepath.Join(dir, "reference.journal")
	j, err := journal.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fault.RunModel(inst.Target, sites, model, fault.CampaignOptions{Journal: j, Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	gotFP, recs, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != fp {
		t.Fatalf("journal fingerprint mismatch: %s", fp.Diff(gotFP))
	}
	doc, err := report.NewMerged(fp, recs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return res.Dist, buf.Bytes()
}

// postCampaign submits via the HTTP surface and returns the decoded body.
func postCampaign(t *testing.T, ts *httptest.Server, sub service.Submission) (id string, deduped bool, code int) {
	t.Helper()
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, out.Deduped, resp.StatusCode
}

// getStatus fetches GET /campaigns/{id}.
func getStatus(t *testing.T, ts *httptest.Server, id string) service.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls until the campaign reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) service.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := getStatus(t, ts, id)
		switch st.State {
		case service.StateDone:
			return st
		case service.StateFailed, service.StateInterrupted:
			t.Fatalf("campaign %s ended %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still %s after deadline", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// reportBytes fetches the raw GET /campaigns/{id}/report body.
func reportBytes(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: HTTP %d: %s", id, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

func getStats(t *testing.T, ts *httptest.Server) service.Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatsKeys pins the wire names of the /stats document, the "cache"
// object's included. Decoding into service.Stats would follow a renamed
// tag silently, so the body is decoded into maps and the key sets compared.
func TestStatsKeys(t *testing.T) {
	srv, err := service.New(service.Config{DataDir: t.TempDir(), Cache: fault.NewPreparedCache(1)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var cache map[string]json.RawMessage
	if err := json.Unmarshal(doc["cache"], &cache); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		doc  map[string]json.RawMessage
		want []string
	}{
		{"/stats", doc, []string{"workers", "queue_depth", "queued", "running", "submitted", "dedup_hits", "engine_runs", "cache", "campaigns"}},
		{"/stats cache", cache, []string{"hits", "misses", "shared", "evictions", "entries", "bytes"}},
	} {
		if len(c.doc) != len(c.want) {
			t.Errorf("%s has %d keys, want %d: %v", c.name, len(c.doc), len(c.want), c.want)
		}
		for _, k := range c.want {
			if _, ok := c.doc[k]; !ok {
				t.Errorf("%s lacks key %q", c.name, k)
			}
		}
	}
}

// TestConcurrentCampaignsMatchStandalone drives the service's headline
// guarantee end to end over HTTP: two distinct campaigns plus a duplicate
// of the first, submitted concurrently, produce final reports
// byte-identical to the fsprune-journal-derived reference — and the
// duplicate is folded into the existing run (one engine run, visible in
// /stats).
func TestConcurrentCampaignsMatchStandalone(t *testing.T) {
	srv, err := service.New(service.Config{
		DataDir:     t.TempDir(),
		Workers:     3,
		Parallelism: 2,
		Cache:       fault.NewPreparedCache(256 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	subA := service.Submission{Kernel: "GEMM K1", Sites: 40, Seed: 7}
	subB := service.Submission{Kernel: "Gaussian K1", Sites: 30, Seed: 11}

	type submitResult struct {
		id      string
		deduped bool
		code    int
	}
	results := make([]submitResult, 3)
	var wg sync.WaitGroup
	for i, sub := range []service.Submission{subA, subB, subA} {
		wg.Add(1)
		go func(i int, sub service.Submission) {
			defer wg.Done()
			id, deduped, code := postCampaign(t, ts, sub)
			results[i] = submitResult{id, deduped, code}
		}(i, sub)
	}
	wg.Wait()

	if results[0].id != results[2].id {
		t.Fatalf("duplicate submission got a different id: %s vs %s", results[0].id, results[2].id)
	}
	if results[0].id == results[1].id {
		t.Fatalf("distinct submissions share id %s", results[0].id)
	}
	dedups := 0
	for _, r := range results {
		if r.deduped {
			dedups++
		}
	}
	if dedups != 1 {
		t.Fatalf("want exactly 1 deduplicated submission, got %d (%+v)", dedups, results)
	}

	stA := waitDone(t, ts, results[0].id)
	stB := waitDone(t, ts, results[1].id)
	if stA.Completed != 40 || stB.Completed != 30 {
		t.Fatalf("completed %d/%d, want 40/30", stA.Completed, stB.Completed)
	}

	distA, wantA := standalone(t, t.TempDir(), subA)
	distB, wantB := standalone(t, t.TempDir(), subB)
	if got := reportBytes(t, ts, results[0].id); !bytes.Equal(got, wantA) {
		t.Errorf("campaign A report differs from standalone reference:\ngot:  %s\nwant: %s", got, wantA)
	}
	if got := reportBytes(t, ts, results[1].id); !bytes.Equal(got, wantB) {
		t.Errorf("campaign B report differs from standalone reference:\ngot:  %s\nwant: %s", got, wantB)
	}
	// The live status profile must be the same bit-identical distribution.
	if pa := report.NewProfile(distA); stA.Profile == nil || *stA.Profile != pa {
		t.Errorf("campaign A status profile %+v, want %+v", stA.Profile, pa)
	}
	if pb := report.NewProfile(distB); stB.Profile == nil || *stB.Profile != pb {
		t.Errorf("campaign B status profile %+v, want %+v", stB.Profile, pb)
	}

	st := getStats(t, ts)
	if st.Submitted != 3 || st.DedupHits != 1 || st.EngineRuns != 2 {
		t.Errorf("stats submitted/dedup/engine = %d/%d/%d, want 3/1/2",
			st.Submitted, st.DedupHits, st.EngineRuns)
	}
	if len(st.Campaigns) != 2 {
		t.Errorf("stats lists %d campaigns, want 2", len(st.Campaigns))
	}
}

// TestRestartMidCampaignResumes kills the daemon (Stop) mid-campaign,
// starts a fresh Server over the same data directory, and verifies the
// recovered campaign resumes through journal replay to the exact bytes an
// uninterrupted run produces.
func TestRestartMidCampaignResumes(t *testing.T) {
	dir := t.TempDir()
	sub := service.Submission{Kernel: "GEMM K1", Sites: 120, Seed: 5}

	srv, err := service.New(service.Config{
		DataDir:     dir,
		Workers:     1,
		Parallelism: 1,
		SyncEvery:   1,
		Cache:       fault.NewPreparedCache(256 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	id, deduped, err := srv.Submit(sub)
	if err != nil || deduped {
		t.Fatalf("submit: id=%s deduped=%v err=%v", id, deduped, err)
	}
	// Let it make some progress, then pull the plug.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := srv.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign made no progress (state %s)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Stop()

	st, err := srv.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == service.StateFailed {
		t.Fatalf("campaign failed at shutdown: %s", st.Error)
	}
	if st.State == service.StateDone {
		// The campaign raced to completion before Stop; the restart below
		// then only exercises done-journal recovery, which is still worth
		// asserting, but log it so a flakily-fast machine is visible.
		t.Logf("campaign completed before shutdown; resume path not exercised")
	}

	// "Restart the daemon": a fresh Server over the same data directory.
	srv2, err := service.New(service.Config{
		DataDir:     dir,
		Workers:     1,
		Parallelism: 1,
		Cache:       fault.NewPreparedCache(256 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	defer srv2.Stop()
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()

	st2 := waitDone(t, ts, id)
	if st2.Completed != sub.Sites {
		t.Fatalf("resumed campaign completed %d sites, want %d", st2.Completed, sub.Sites)
	}
	_, want := standalone(t, t.TempDir(), sub)
	if got := reportBytes(t, ts, id); !bytes.Equal(got, want) {
		t.Errorf("resumed report differs from uninterrupted reference:\ngot:  %s\nwant: %s", got, want)
	}
	if st.State == service.StateInterrupted {
		// The resumed run must actually have replayed the first
		// incarnation's journaled outcomes rather than redone them.
		stats := getStats(t, ts)
		var replayed int64
		for _, c := range stats.Campaigns {
			if c.ID == id {
				replayed = c.Campaign.Replayed
			}
		}
		if replayed < 3 {
			t.Errorf("resumed campaign replayed %d journaled sites, want >= 3", replayed)
		}
	}

	// Third incarnation: the finished journal recovers as a done campaign
	// whose report is immediately servable, byte-identical again.
	srv3, err := service.New(service.Config{DataDir: dir, Cache: fault.NewPreparedCache(1)})
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	st3 := getStatus(t, ts3, id)
	if st3.State != service.StateDone {
		t.Fatalf("recovered finished campaign is %s, want done", st3.State)
	}
	if got := reportBytes(t, ts3, id); !bytes.Equal(got, want) {
		t.Errorf("recovered report differs from reference")
	}
}

// TestSubmitValidation exercises the fsprune-equivalent request rules.
func TestSubmitValidation(t *testing.T) {
	srv, err := service.New(service.Config{DataDir: t.TempDir(), Cache: fault.NewPreparedCache(1)})
	if err != nil {
		t.Fatal(err)
	}
	// No Start: validation happens at admission, before any worker runs.
	bad := []struct {
		name string
		sub  service.Submission
	}{
		{"unknown kernel", service.Submission{Kernel: "No Such K9"}},
		{"unknown scale", service.Submission{Kernel: "GEMM K1", Scale: "huge"}},
		{"unknown model", service.Submission{Kernel: "GEMM K1", Model: "stuck-everything"}},
		{"negative sites", service.Submission{Kernel: "GEMM K1", Sites: -1}},
		{"negative warp", service.Submission{Kernel: "GEMM K1", Warp: -2}},
		{"shard index without count", service.Submission{Kernel: "GEMM K1", ShardIndex: 1}},
		{"shard index out of range", service.Submission{Kernel: "GEMM K1", ShardIndex: 2, ShardCount: 2}},
		{"negative shard index", service.Submission{Kernel: "GEMM K1", ShardIndex: -1, ShardCount: 2}},
	}
	for _, tc := range bad {
		if _, _, err := srv.Submit(tc.sub); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.sub)
		}
	}
	// A valid sharded submission is admitted and normalized.
	id, deduped, err := srv.Submit(service.Submission{Kernel: "GEMM K1", ShardIndex: 1, ShardCount: 2})
	if err != nil || deduped {
		t.Fatalf("valid sharded submit: %v (deduped %v)", err, deduped)
	}
	st, err := srv.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Submission.Scale != "small" || st.Submission.Seed != campaign.DefaultSeed || st.Submission.Sites != campaign.DefaultSites {
		t.Errorf("submission not normalized: %+v", st.Submission)
	}
	if want := (campaign.DefaultSites - 1 + 2 - 1) / 2; st.OwnedSites != want {
		t.Errorf("owned sites %d, want %d", st.OwnedSites, want)
	}
}

// TestStuckModelCampaign runs a persistent-fault campaign through the
// service: the model is part of the campaign identity (no dedup against the
// dest-value twin), the final report is byte-identical to the standalone
// engine reference with zero full-run fallbacks (scheduler-corrupting
// models ride the fast-forward engine since DESIGN.md §3.1, so the
// omitempty field stays out of the JSON), and a restarted daemon recovers
// the journal back into a submission under the same model.
func TestStuckModelCampaign(t *testing.T) {
	dir := t.TempDir()
	srv, err := service.New(service.Config{
		DataDir:     dir,
		Workers:     2,
		Parallelism: 2,
		Cache:       fault.NewPreparedCache(256 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mask := service.Submission{Kernel: "GEMM K1", Sites: 40, Seed: 3, Model: "stuck-active-mask"}
	base := service.Submission{Kernel: "GEMM K1", Sites: 40, Seed: 3}
	idMask, deduped, code := postCampaign(t, ts, mask)
	if code != http.StatusAccepted && code != http.StatusOK || deduped {
		t.Fatalf("mask submit: HTTP %d deduped=%v", code, deduped)
	}
	idBase, deduped, _ := postCampaign(t, ts, base)
	if deduped || idBase == idMask {
		t.Fatalf("model excluded from campaign identity: base %s vs mask %s (deduped %v)",
			idBase, idMask, deduped)
	}
	waitDone(t, ts, idMask)
	waitDone(t, ts, idBase)

	_, want := standalone(t, t.TempDir(), mask)
	got := reportBytes(t, ts, idMask)
	if !bytes.Equal(got, want) {
		t.Errorf("stuck-model report differs from standalone reference:\ngot:  %s\nwant: %s", got, want)
	}
	var doc report.Merged
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Model != "stuck-active-mask" {
		t.Errorf("report model = %q", doc.Model)
	}
	if doc.Campaign.CTAsSkipped == 0 {
		t.Errorf("stuck-model campaign never fast-forwarded: %s", got)
	}
	srv.Stop()

	// Restart over the same data directory: the stuck-model journal must
	// recover as a done campaign under the same id and model.
	srv2, err := service.New(service.Config{DataDir: dir, Cache: fault.NewPreparedCache(1)})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	st := getStatus(t, ts2, idMask)
	if st.State != service.StateDone {
		t.Fatalf("recovered stuck-model campaign is %s, want done", st.State)
	}
	if st.Submission.Model != "stuck-active-mask" {
		t.Fatalf("recovered submission model = %q", st.Submission.Model)
	}
	if got := reportBytes(t, ts2, idMask); !bytes.Equal(got, want) {
		t.Errorf("recovered stuck-model report differs from reference")
	}
}

// TestAdmissionControl fills the queue (no workers draining it) and
// verifies overflow is ErrQueueFull / HTTP 429 while duplicates of queued
// campaigns still deduplicate instead of consuming a slot.
func TestAdmissionControl(t *testing.T) {
	srv, err := service.New(service.Config{
		DataDir:    t.TempDir(),
		QueueDepth: 2,
		Cache:      fault.NewPreparedCache(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately not started: every admitted campaign stays queued.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, _, err := srv.Submit(service.Submission{Kernel: "GEMM K1", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Submit(service.Submission{Kernel: "GEMM K1", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Submit(service.Submission{Kernel: "GEMM K1", Seed: 3}); !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	// Duplicate of a queued campaign dedups rather than 429ing.
	_, deduped, err := srv.Submit(service.Submission{Kernel: "GEMM K1", Seed: 2})
	if err != nil || !deduped {
		t.Fatalf("duplicate of queued campaign: deduped=%v err=%v", deduped, err)
	}
	// And over HTTP the overflow maps to 429.
	_, _, code := postCampaign(t, ts, service.Submission{Kernel: "GEMM K1", Seed: 4})
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow HTTP code %d, want 429", code)
	}
}

// TestHTTPErrors covers the error surface: unknown id 404, report before
// completion 409, malformed body 400.
func TestHTTPErrors(t *testing.T) {
	srv, err := service.New(service.Config{DataDir: t.TempDir(), Cache: fault.NewPreparedCache(1)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/campaigns/deadbeef00000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign: HTTP %d, want 404", resp.StatusCode)
	}

	id, _, err := srv.Submit(service.Submission{Kernel: "GEMM K1", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(fmt.Sprintf("%s/campaigns/%s/report", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("report of queued campaign: HTTP %d, want 409", resp.StatusCode)
	}

	for _, tc := range []struct {
		name, body string
		want       int
		names      string // what the error body must mention
	}{
		{"malformed body", `{"kernel": 42}`, http.StatusBadRequest, "kernel"},
		{"retired full_run field", `{"kernel": "GEMM K1", "full_run": true}`, http.StatusBadRequest, "full_run"},
		{"retired ckpt_stride field", `{"kernel":"GEMM K1","ckpt_stride":2}`, http.StatusBadRequest, "ckpt_stride"},
		{"oversize body", `{"kernel": "` + strings.Repeat("x", service.MaxSubmissionBytes) + `"}`, http.StatusRequestEntityTooLarge, "too large"},
	} {
		resp, err = http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if derr != nil || !strings.Contains(body.Error, tc.names) {
			t.Errorf("%s: error body %q does not name %q (%v)", tc.name, body.Error, tc.names, derr)
		}
	}
}

// TestRecoverSeedZeroJournal: a journal fsprune wrote under -seed 0, named
// by its campaign id, recovers as seed 0 — complete, so straight to done
// with its report servable. (An omitted JSON seed still means DefaultSeed;
// only recovery can carry an explicit 0.)
func TestRecoverSeedZeroJournal(t *testing.T) {
	sub := service.Submission{Kernel: "GEMM K1", Scale: "small", Seed: 0, Model: "dest-value", Sites: 40, ShardCount: 1}
	p, err := sub.Prepare(fault.NewPreparedCache(256 << 20))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, err := journal.Open(filepath.Join(dir, sub.ID()+".journal"), sub.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(fault.CampaignOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := service.New(service.Config{DataDir: dir, Cache: fault.NewPreparedCache(1)})
	if err != nil {
		t.Fatalf("seed-0 journal does not recover: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st := getStatus(t, ts, sub.ID())
	if st.State != service.StateDone || st.Submission.Seed != 0 || st.Completed != 40 {
		t.Fatalf("recovered seed-0 campaign: state %s seed %d completed %d", st.State, st.Submission.Seed, st.Completed)
	}
	var doc report.Merged
	if err := json.Unmarshal(reportBytes(t, ts, sub.ID()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Seed != 0 || doc.Sites != 40 {
		t.Errorf("seed-0 report carries seed %d, sites %d", doc.Seed, doc.Sites)
	}

	// Over HTTP the same request without a seed is a different campaign.
	srv.Start()
	defer srv.Stop()
	id, deduped, _ := postCampaign(t, ts, service.Submission{Kernel: "GEMM K1", Sites: 40})
	if deduped || id == sub.ID() {
		t.Errorf("omitted seed deduplicated against the seed-0 campaign (id %s)", id)
	}
	if got := getStatus(t, ts, id).Submission.Seed; got != campaign.DefaultSeed {
		t.Errorf("omitted seed ran as %d, want %d", got, campaign.DefaultSeed)
	}
}

// frame appends one journal frame (u32 length, u32 CRC32C, payload) to buf.
func frame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(buf, payload...)
}

// TestRecoverRejectsRepeatedIndex: a complete 40-site journal whose record
// of site 5 is a second copy of site 4's holds 40 records but not 40
// sites. Recovery must refuse it as corrupt — not serve a report that
// counts site 4 twice and misses site 5 — and the error names the file
// once. fsprune's -journal resume (journal.Open) and fsmerge
// (journal.Merge) refuse the same file the same way.
func TestRecoverRejectsRepeatedIndex(t *testing.T) {
	sub := service.Submission{Kernel: "GEMM K1", Scale: "small", Seed: 1, Model: "dest-value", Sites: 40, ShardCount: 1}
	p, err := sub.Prepare(fault.NewPreparedCache(256 << 20))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, sub.ID()+".journal")
	j, err := journal.Open(path, sub.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(fault.CampaignOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fp, recs, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs[5] = recs[4]
	header, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	data := frame(nil, header)
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		data = frame(data, payload)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = service.New(service.Config{DataDir: dir, Cache: fault.NewPreparedCache(1)})
	if !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(err.Error(), "record 5: site 4 recorded twice") {
		t.Fatalf("recovering a journal that repeats site 4: err = %v, want ErrCorrupt naming record 5", err)
	}
	if n := strings.Count(err.Error(), path); n != 1 {
		t.Errorf("recovery error names the journal %d times, want once: %v", n, err)
	}
	if _, err := journal.Open(path, sub.Fingerprint()); !errors.Is(err, journal.ErrCorrupt) {
		t.Errorf("resume (journal.Open): err = %v, want ErrCorrupt", err)
	}
	if _, _, err := journal.Merge([]string{path}, false); !errors.Is(err, journal.ErrCorrupt) {
		t.Errorf("fsmerge (journal.Merge): err = %v, want ErrCorrupt", err)
	}
}

// TestRecoverAdoptsRetiredAddress: a data directory written by a build whose
// campaign id still hashed the checkpoint strides (or the full-run switch)
// holds journals under names this build would never compute. New adopts such
// a journal — half its records present — under the address of the campaign
// it belongs to, resumes it and serves the standalone reference's report
// bytes. The journal is framed by hand (u32 length, u32 CRC32C, JSON): no
// type of this build can write its header. Its records are the reference
// run's, cost fields included, so the whole report can be compared; that
// outcomes survive a change of strides is for internal/fault's
// TestCampaignInterruptResumeAcrossStrides to prove.
func TestRecoverAdoptsRetiredAddress(t *testing.T) {
	sub := service.Submission{Kernel: "GEMM K1", Scale: "small", Seed: 5, Model: "dest-value", Sites: 80, ShardCount: 1}
	refDir := t.TempDir()
	_, want := standalone(t, refDir, sub)
	fp, recs, err := journal.ReadFile(filepath.Join(refDir, "reference.journal"))
	if err != nil {
		t.Fatal(err)
	}
	// oldJournal frames the first half of the reference records under a
	// header carrying keys between warp and sites, where the old struct had
	// them, and names the file as the old build did: by the header's hash.
	oldJournal := func(dir, keys string) string {
		header, err := json.Marshal(fp)
		if err != nil {
			t.Fatal(err)
		}
		header = bytes.Replace(header, []byte(`"sites"`), []byte(keys+`"sites"`), 1)
		data := frame(nil, header)
		for _, r := range recs[:len(recs)/2] {
			payload, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			data = frame(data, payload)
		}
		sum := sha256.Sum256(header)
		path := filepath.Join(dir, hex.EncodeToString(sum[:8])+".journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	for _, keys := range []string{`"stride":3,"intra_stride":-1,`, `"full_run":true,`} {
		t.Run(keys, func(t *testing.T) {
			dir := t.TempDir()
			oldPath := oldJournal(dir, keys)
			newPath := filepath.Join(dir, sub.ID()+".journal")
			if oldPath == newPath {
				t.Fatal("the retired keys did not change the journal's address")
			}
			srv, err := service.New(service.Config{DataDir: dir, Workers: 1, Cache: fault.NewPreparedCache(256 << 20)})
			if err != nil {
				t.Fatalf("journal under a retired address does not recover: %v", err)
			}
			if _, err := os.Stat(oldPath); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("the retired address still exists after adoption (%v)", err)
			}
			if _, err := os.Stat(newPath); err != nil {
				t.Errorf("adopted journal is not at the campaign's address: %v", err)
			}
			srv.Start()
			defer srv.Stop()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			if st := waitDone(t, ts, sub.ID()); st.Completed != sub.Sites {
				t.Fatalf("adopted campaign completed %d sites, want %d", st.Completed, sub.Sites)
			}
			if got := reportBytes(t, ts, sub.ID()); !bytes.Equal(got, want) {
				t.Errorf("adopted report differs from the standalone reference:\ngot:  %s\nwant: %s", got, want)
			}
			stats := getStats(t, ts)
			if len(stats.Campaigns) != 1 || stats.Campaigns[0].ID != sub.ID() {
				t.Fatalf("campaigns listed: %+v, want only %s", stats.Campaigns, sub.ID())
			}
			if got := stats.Campaigns[0].Campaign.Replayed; got != int64(len(recs)/2) {
				t.Errorf("adopted campaign replayed %d journaled sites, want %d", got, len(recs)/2)
			}
		})
	}

	// Two files claiming one campaign: New refuses and names both.
	dir := t.TempDir()
	oldPath := oldJournal(dir, `"stride":3,`)
	newPath := filepath.Join(dir, sub.ID()+".journal")
	j, err := journal.Open(newPath, sub.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = service.New(service.Config{DataDir: dir, Cache: fault.NewPreparedCache(1)})
	if err == nil || !strings.Contains(err.Error(), oldPath) || !strings.Contains(err.Error(), newPath) {
		t.Fatalf("New over two journals of one campaign: %v, want an error naming %s and %s", err, oldPath, newPath)
	}
}

// adviceBytes fetches the raw GET /campaigns/{id}/advice body.
func adviceBytes(t *testing.T, ts *httptest.Server, id, query string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/advice" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advice %s: HTTP %d: %s", id, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// TestAdviceEndpoint checks the tentpole's service-side guarantee: the
// /advice body is byte-identical to what fsadvise emits for the campaign's
// journal (both funnel through advisor.FromJournal + Analyze +
// report.Write), for the default options and for an explicit option set.
func TestAdviceEndpoint(t *testing.T) {
	srv, err := service.New(service.Config{
		DataDir: t.TempDir(),
		Cache:   fault.NewPreparedCache(256 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sub := service.Submission{Kernel: "GEMM K1", Sites: 60, Seed: 3}
	id, _, code := postCampaign(t, ts, sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitDone(t, ts, id)

	// The standalone reference: run the identical campaign into a journal
	// and advise from it the way fsadvise -journal does.
	dir := t.TempDir()
	_, _ = standalone(t, dir, sub)
	fp, recs, err := journal.ReadFile(filepath.Join(dir, "reference.journal"))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := kernels.ByName(sub.Kernel)
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Target.Prepare(); err != nil {
		t.Fatal(err)
	}
	in, err := advisor.FromJournal(inst.Target, fp, recs)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		query string
		opt   advisor.Options
	}{
		{"", advisor.Options{}},
		{"?rank-by=severity&budget=2,10&confidence=0.99",
			advisor.Options{RankBy: advisor.RankSeverity, Budgets: []float64{2, 10}, Confidence: 0.99}},
	}
	for _, c := range cases {
		adv, err := advisor.Analyze(in, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := report.Write(&want, adv); err != nil {
			t.Fatal(err)
		}
		if got := adviceBytes(t, ts, id, c.query); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("advice %q differs from the fsadvise reference:\ngot:  %s\nwant: %s",
				c.query, got, want.String())
		}
	}
}

// TestAdviceErrors maps the advice endpoint's failure modes onto status
// codes: unknown campaign 404, unfinished 409, bad options 400.
func TestAdviceErrors(t *testing.T) {
	srv, err := service.New(service.Config{DataDir: t.TempDir(), Cache: fault.NewPreparedCache(256 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/campaigns/deadbeef00000000/advice"); code != http.StatusNotFound {
		t.Errorf("unknown campaign: HTTP %d, want 404", code)
	}

	id, _, code := postCampaign(t, ts, service.Submission{Kernel: "GEMM K1", Sites: 40, Seed: 13})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitDone(t, ts, id)
	if code := get("/campaigns/" + id + "/advice?rank-by=chaos"); code != http.StatusBadRequest {
		t.Errorf("bad rank-by: HTTP %d, want 400", code)
	}
	if code := get("/campaigns/" + id + "/advice?confidence=2"); code != http.StatusBadRequest {
		t.Errorf("bad confidence: HTTP %d, want 400", code)
	}
	if code := get("/campaigns/" + id + "/advice?budget=a,b"); code != http.StatusBadRequest {
		t.Errorf("bad budget: HTTP %d, want 400", code)
	}

	// A queued campaign (worker pool busy or stopped) cannot be advised.
	srv2, err := service.New(service.Config{DataDir: t.TempDir(), Cache: fault.NewPreparedCache(256 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the submission stays queued.
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	qid, _, err := srv2.Submit(service.Submission{Kernel: "GEMM K1", Sites: 40, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts2.URL + "/campaigns/" + qid + "/advice")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("advice of queued campaign: HTTP %d, want 409", resp.StatusCode)
	}

	// A sharded campaign's journal covers only its own sites; advising
	// from it must be rejected as a bad request, not mis-ranked.
	sid, _, code := postCampaign(t, ts, service.Submission{
		Kernel: "GEMM K1", Sites: 40, Seed: 13, ShardIndex: 0, ShardCount: 2,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit shard: HTTP %d", code)
	}
	waitDone(t, ts, sid)
	if code := get("/campaigns/" + sid + "/advice"); code != http.StatusBadRequest {
		t.Errorf("advice of sharded campaign: HTTP %d, want 400", code)
	}
}
