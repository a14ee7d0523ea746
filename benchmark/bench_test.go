package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
)

func TestMedianAndQuantile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	in := []float64{5, 1, 4, 2, 3}
	if got := quantile(in, 0.25); got != 2 {
		t.Errorf("quartile = %v, want 2", got)
	}
	if !reflect.DeepEqual(in, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", in)
	}
	if got := quantile([]float64{0, 10}, 0.9); math.Abs(got-9) > 1e-12 {
		t.Errorf("interpolated p90 = %v, want 9", got)
	}
	if got := relSpread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relSpread = %v, want 0.2", got)
	}
}

// TestSupportedTail pins the ten-samples-beyond rule: a percentile is
// reported only when at least ten samples lie beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {120, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "rep", StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, Name: "a", StartUS: 10, EndUS: 30},
		{ID: 2, Parent: 0, Name: "a", StartUS: 20, EndUS: 50},    // overlaps span 1: counted once
		{ID: 3, Parent: 0, Name: "b", StartUS: 90, EndUS: 120},   // clipped to its parent's end
		{ID: 4, Parent: 2, Name: "leaf", StartUS: 25, EndUS: 45}, // a grandchild does not touch rep
	}
	self := selfTimesMS(spans)
	want := map[string]float64{
		"rep":  (100 - (40 + 10)) / 1e3,
		"a":    (20 + (30 - 20)) / 1e3,
		"b":    30 / 1e3,
		"leaf": 20 / 1e3,
	}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-12 {
			t.Errorf("self[%s] = %v ms, want %v", name, self[name], w)
		}
	}
	if got := totalsByTraceMS([]span{
		{Trace: "w/rep1", Name: "x", StartUS: 0, EndUS: 1000},
		{Trace: "w/rep0", Name: "x", StartUS: 0, EndUS: 2000},
		{Trace: "w/rep0", Name: "x", StartUS: 0, EndUS: 3000},
		{Trace: "w/rep0", Name: "y", StartUS: 0, EndUS: 9000},
	}, "x"); !reflect.DeepEqual(got, []float64{5, 1}) {
		t.Errorf("totalsByTraceMS = %v, want [5 1]", got)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := newRecorder()
	sp := r.root("t", "rep") // off: a nil span, and every method on it is a no-op
	sp.child("x").end()
	sp.end()
	r.enable(true)
	sp = r.root("t", "rep")
	c := sp.child("x")
	c.end()
	if got := r.closed(); len(got) != 1 || got[0].Name != "x" || got[0].Parent != 0 || got[0].Trace != "t" {
		t.Errorf("closed spans = %+v, want the one ended child", got)
	}
}

// TestDigestIgnoresCompletionOrder: a journal's records arrive in
// completion order; the digest must depend on site index alone and agree
// with the live campaign's.
func TestDigestIgnoresCompletionOrder(t *testing.T) {
	outs := make([]fault.Outcome, 500)
	recs := make([]journal.Record, len(outs))
	for i := range outs {
		outs[i] = fault.Outcome(i * 7 % 4)
		recs[i] = journal.Record{Index: i, Outcome: uint8(outs[i])}
	}
	want := digestOutcomes(outs)
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 5; k++ {
		rng.Shuffle(len(recs), func(a, b int) { recs[a], recs[b] = recs[b], recs[a] })
		if got := digestRecords(recs); got != want {
			t.Fatalf("shuffle %d: digest %s, want %s", k, got, want)
		}
	}
	outs[17] = (outs[17] + 1) % 4
	if digestOutcomes(outs) == want {
		t.Error("digest did not change with an outcome")
	}
}

func TestSubmissionMixDeterministic(t *testing.T) {
	a, b := submissionMix(1, 1), submissionMix(1, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different mixes")
	}
	if len(a) != len(mixKernels)*mixSeeds {
		t.Fatalf("mix has %d submissions, want %d", len(a), len(mixKernels)*mixSeeds)
	}
	type id struct {
		kernel string
		seed   int64
	}
	seen := map[id]bool{}
	perKernel := map[string]int{}
	for _, s := range a {
		if seen[id{s.Kernel, s.Seed}] {
			t.Errorf("duplicate submission %+v", s)
		}
		seen[id{s.Kernel, s.Seed}] = true
		perKernel[s.Kernel]++
		if s.Seed <= 0 || s.Sites != mixSites {
			t.Errorf("submission %+v: want a positive seed and %d sites", s, mixSites)
		}
	}
	for _, k := range mixKernels {
		if perKernel[k] != mixSeeds {
			t.Errorf("%s has %d submissions, want %d", k, perKernel[k], mixSeeds)
		}
	}
	c := submissionMix(2, 1)
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 gave the same mix")
	}
	for _, s := range c {
		if seen[id{s.Kernel, s.Seed}] {
			t.Errorf("seed 2 repeats seed 1's submission %+v", s)
		}
	}
}

// benchmarkJSON is the schema of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and metrics.go in
// step and inside the driver's limits.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || names[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		names[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q differs from metrics.go %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, metrics.go %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	if len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 || len(doc.Workloads) > 8 {
		t.Error("more workloads or metrics than the driver accepts")
	}
	setup := false
	for i, m := range doc.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v differs from metrics.go %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bad unit %q or bound %v", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s [s, lower] is missing from end_to_end")
	}
	for i, m := range doc.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v differs from metrics.go %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || len(data) > 64<<10 {
		t.Errorf("run_seconds %d, paths %v, %d bytes: outside the driver's limits", doc.RunSeconds, doc.Paths, len(data))
	}
}

// smokeSize is about 1/50 of the full size: it keeps every workload
// building and its checks passing inside tier-1's go test ./... without
// adding materially to its time.
var smokeSize = sizing{div: 50, minReps: 1, setupReps: 1, warmup: false, checkSites: 8}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, seconds: 0.01, trace: trace, workers: workerCount(),
		dataDir: t.TempDir(), traceDir: t.TempDir(), size: smokeSize, out: io.Discard,
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		res, err := execute(w, smokeConfig(t, w.Name, false))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v, %d of %d operations failed", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s reported %d end-to-end metrics, want %d", w.Name, len(res.Metrics), len(endToEnd))
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive reading", w.Name, name, m.Value)
			}
		}
	}
}

// TestSmokeTraced runs the traced path (spans, probes, the in-process
// service path) on the three workloads with small kernels.
func TestSmokeTraced(t *testing.T) {
	exercised := map[string][]string{
		"shallow-durable": {"journal.overhead_pct", "journal.merge_ms", "gpusim.converged_us", "fault.runsite_p50_us", "replay_sites_per_s"},
		"prune-suite":     {"core.build_plan_ms", "core.estimate_ms", "baseline.fixed_ms", "profile_s", "trace.build_ms"},
		"service-mix":     {"service.submit_ms", "service.inproc_submit_to_report_ms", "service.engine_sites_per_s", "dedup_p50_ms"},
	}
	for name, must := range exercised {
		w, _ := workloadByName(name)
		cfg := smokeConfig(t, name, true)
		res, err := execute(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: correct=%v with %d per-layer metrics, want %d", name, res.Correct, len(res.Metrics), len(perLayer))
		}
		for _, m := range must {
			if res.Metrics[m].Value == 0 {
				t.Errorf("%s: %s was not measured", name, m)
			}
		}
		data, err := os.ReadFile(cfg.traceDir + "/trace-" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 || len(tf.SelfMS) == 0 {
			t.Errorf("%s: trace file has %d spans (%v)", name, len(tf.Spans), err)
		}
	}
}
