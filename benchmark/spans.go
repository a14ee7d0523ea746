package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program under test are ROADMAP item 1a).
type span struct {
	ID int `json:"id"`
	// Parent is the id of the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// Trace groups the spans of one request: "<workload>/rep<k>" for
	// campaign work, "<workload>/rep<k>/<kernel>-seed<n>" for one service
	// request.
	Trace string `json:"trace"`
	Name  string `json:"name"`
	// StartUS and EndUS are microseconds since the recorder's epoch.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recorder keeps spans in memory until the workload ends. The zero value of
// `on` drops everything, so untraced runs pay one branch per call site.
type recorder struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// enable switches recording on or off; the traced run alternates it per
// repetition to measure its own overhead.
func (r *recorder) enable(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// spanRef is an open span. A nil *spanRef is valid and records nothing, so
// call sites need no "is tracing on" checks.
type spanRef struct {
	r     *recorder
	id    int
	trace string
}

func (r *recorder) open(parent int, trace, name string) *spanRef {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return nil
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartUS: float64(now.Nanoseconds()) / 1e3, EndUS: -1,
	})
	return &spanRef{r: r, id: id, trace: trace}
}

// root opens a span with no parent under the given trace id.
func (r *recorder) root(trace, name string) *spanRef { return r.open(-1, trace, name) }

// child opens a span caused by s, sharing its trace id.
func (s *spanRef) child(name string) *spanRef {
	if s == nil {
		return nil
	}
	return s.r.open(s.id, s.trace, name)
}

// end closes the span.
func (s *spanRef) end() {
	if s == nil {
		return
	}
	now := time.Since(s.r.epoch)
	s.r.mu.Lock()
	s.r.spans[s.id].EndUS = float64(now.Nanoseconds()) / 1e3
	s.r.mu.Unlock()
}

// closed returns a copy of every span that has ended.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.EndUS >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// totalsByTraceMS sums the durations of the named spans per trace id and
// returns the sums in trace-id order: the per-repetition cost of a layer
// that is called many times in one repetition.
func totalsByTraceMS(spans []span, name string) []float64 {
	byTrace := map[string]float64{}
	for _, s := range spans {
		if s.Name == name {
			byTrace[s.Trace] += (s.EndUS - s.StartUS) / 1e3
		}
	}
	out := make([]float64, 0, len(byTrace))
	for _, k := range sortedKeys(byTrace) {
		out = append(out, byTrace[k])
	}
	return out
}

// selfTimesMS returns, per span name, the summed self time in milliseconds:
// each span's duration minus the part of its interval covered by its child
// spans (overlapping children are counted once, and a child is clipped to
// its parent's interval).
func selfTimesMS(spans []span) map[string]float64 {
	type iv struct{ lo, hi float64 }
	children := map[int][]iv{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.StartUS, s.EndUS})
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := 0.0, s.StartUS
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.EndUS - s.StartUS - covered) / 1e3
	}
	return self
}

// traceFile is the document written as trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfMS is per-span-name self time; see selfTimesMS.
	SelfMS map[string]float64 `json:"self_ms"`
	Spans  []span             `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, SelfMS: selfTimesMS(spans), Spans: spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
