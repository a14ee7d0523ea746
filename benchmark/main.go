// Command benchmark is the repository's benchmark: five campaign workloads,
// each run in its own process, reporting end-to-end metrics from an
// untraced run and per-layer metrics from a separate traced run, with the
// outputs of every run checked. BENCHMARK.json at the repository root
// names the command, the workloads and the metrics; README.md beside this
// file says how the layers' metrics move the end-to-end ones.
//
//	go run ./benchmark                     every workload, untraced
//	go run ./benchmark -trace 1            every workload, traced
//	go run ./benchmark -workload deep-paper -seed 2 -seconds 10 -trace 0
//	go run ./benchmark -aa 3               two interleaved sets of 3 suites
//	go run ./benchmark -update-golden      re-record golden.json (seed 1)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload process prints. The first four keys
// are the driver's contract; the rest appear only with -detail, for the
// parent process that runs the suite (-aa compares the extras too, and
// -update-golden records the digests and counts).
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Extras  map[string]metricValue `json:"extras,omitempty"`
	Digests map[string]string      `json:"digests,omitempty"`
	Counts  map[string]int64       `json:"counts,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", goldenSeed, "derives every site list and every submission seed")
	seconds := flag.Float64("seconds", 10, "length of a workload's timed region")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics, trace_overhead_pct, trace-<workload>.json")
	aa := flag.Int("aa", 0, "run the whole suite 2N times as two interleaved sets and compare them")
	update := flag.Bool("update-golden", false, "re-record benchmark/golden.json from this run (seed 1, from the repository root)")
	dataDir := flag.String("datadir", ".bench_tmp", "parent of the per-run journal and service data directories")
	detail := flag.Bool("detail", false, "internal: add the other metric list, digests and exact counts to the result line")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-aa n] [-update-golden] [-datadir dir]")
		os.Exit(2)
	}

	if *workload != "" {
		def, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			os.Exit(2)
		}
		cfg := config{
			workload: def.Name, seed: *seed, seconds: *seconds, trace: *trace == 1,
			workers: workerCount(), dataDir: *dataDir, traceDir: ".", size: fullSize, out: os.Stdout,
		}
		os.Exit(runChild(def, cfg, *detail))
	}

	s := suite{seed: *seed, seconds: *seconds, trace: *trace, dataDir: *dataDir}
	switch {
	case *update:
		os.Exit(s.updateGolden())
	case *aa > 0:
		os.Exit(s.aa(*aa))
	default:
		_, code := s.runAll(os.Stdout)
		os.Exit(code)
	}
}

// runChild runs one workload in this process and prints its result line.
func runChild(def workloadDef, cfg config, detail bool) int {
	runtime.GOMAXPROCS(cfg.workers)
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	load := loadavg()
	fmt.Fprintf(cfg.out, "== %s (seed %d, %.0f s, trace %v)\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	printHygiene(cfg.out, cfg.workers, cfg.dataDir, load)
	res, err := execute(def, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(cfg.out, "loadavg at end: %s\n", loadavg())
	if !detail {
		res.Extras, res.Digests, res.Counts = nil, nil, nil
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(cfg.out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and assembles its result: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func execute(def workloadDef, cfg config) (*result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	if err := def.run(r); err != nil {
		return nil, err
	}
	r.checkGolden()
	r.set("peak_rss_mb", peakRSSMiB(), 1)
	r.set("failed_ops_pct", 100*float64(r.failed)/float64(r.attempted), 1)

	res := &result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}, Extras: map[string]metricValue{},
		Digests: r.digests, Counts: r.counts,
	}
	reported, other := endToEnd, perLayer
	if cfg.trace {
		reported, other = perLayer, endToEnd
		path := filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".json")
		if err := writeTrace(path, cfg.workload, cfg.seed, r.rec.closed()); err != nil {
			return nil, err
		}
		r.logf("wrote %s", path)
	}
	for _, d := range reported {
		s, ok := r.values[d.Name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		// A layer the workload does not exercise reports 0.
		res.Metrics[d.Name] = metricValue{s.v, d.Unit}
	}
	for _, d := range other {
		if s, ok := r.values[d.Name]; ok {
			res.Extras[d.Name] = metricValue{s.v, d.Unit}
		}
	}

	printMetrics(cfg.out, "end-to-end", endToEnd, r.values, false)
	printMetrics(cfg.out, "per-layer and workload (-> the end-to-end metric each should move)", perLayer, r.values, true)
	passed := 0
	for _, c := range r.checks {
		if c.OK {
			passed++
		} else {
			r.logf("CHECK FAILED %s: %s", c.Name, c.Detail)
		}
	}
	r.logf("checks: %d of %d passed; operations: %d attempted, %d failed", passed, len(r.checks), r.attempted, r.failed)
	return res, nil
}

// suite runs workloads in child processes.
type suite struct {
	seed    int64
	seconds float64
	trace   int
	dataDir string
}

// child re-executes this program for one workload, relays what it prints
// except the result line, and returns that line decoded.
func (s suite) child(out io.Writer, workload string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(s.seed),
		"-seconds", fmt.Sprint(s.seconds), "-trace", fmt.Sprint(s.trace), "-datadir", s.dataDir, "-detail")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Fprintln(out, stdout.String())
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	fmt.Fprintln(out, strings.Join(lines[:len(lines)-1], "\n"))
	return &res, nil
}

// runAll runs every workload once and prints the suite's summary.
func (s suite) runAll(out io.Writer) (map[string]*result, int) {
	results := map[string]*result{}
	code := 0
	for _, w := range workloads {
		res, err := s.child(out, w.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
			continue
		}
		if !res.Correct {
			code = 1
		}
		results[w.Name] = res
	}
	defs := endToEnd
	if s.trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(out, "\n%-46s", "metric")
	for _, w := range workloads {
		fmt.Fprintf(out, " %16s", w.Name)
	}
	fmt.Fprintln(out)
	for _, d := range defs {
		fmt.Fprintf(out, "%-46s", d.Name+" ["+d.Unit+"]")
		for _, w := range workloads {
			if res := results[w.Name]; res != nil {
				fmt.Fprintf(out, " %16.4f", res.Metrics[d.Name].Value)
			} else {
				fmt.Fprintf(out, " %16s", "failed")
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%-46s", "failed/attempted operations")
	for _, w := range workloads {
		if res := results[w.Name]; res != nil {
			fmt.Fprintf(out, " %16s", fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		} else {
			fmt.Fprintf(out, " %16s", "failed")
		}
	}
	fmt.Fprintln(out)
	return results, code
}

// updateGolden re-records golden.json from one untraced suite at seed 1.
func (s suite) updateGolden() int {
	s.seed, s.trace = goldenSeed, 0
	results, _ := s.runAll(os.Stdout)
	g := map[string]goldenWorkload{}
	for _, w := range workloads {
		res := results[w.Name]
		if res == nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s did not finish; golden.json not written\n", w.Name)
			return 1
		}
		g[w.Name] = goldenWorkload{Digests: res.Digests, Counts: res.Counts}
	}
	if err := writeGolden(g); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s; rerun to confirm the golden-digest check passes\n", goldenPath)
	return 0
}

// aa is the acceptance instrument: 2n suites of the same code as two
// interleaved sets A and B, compared the way a parent and a change would
// be. For each workload and end-to-end metric it prints both medians, the
// wider of the two sets' relative spreads, and a verdict: "within bound"
// when B's median is no worse than A's by more than the metric's bound,
// "UNRESOLVED" when the spread is wider than the bound (the comparison
// cannot tell), "OUT OF BOUND" otherwise. setup_s is judged on its medians
// alone, as the driver does.
func (s suite) aa(n int) int {
	s.trace = 0
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	code := 0
	for i := 0; i < 2*n; i++ {
		side := i % 2
		fmt.Printf("---- suite %d of %d (set %c)\n", i+1, 2*n, 'A'+side)
		results, c := s.runAll(io.Discard)
		if c != 0 {
			code = c
		}
		for w, res := range results {
			for _, group := range []map[string]metricValue{res.Metrics, res.Extras} {
				for m, v := range group {
					sets[side][key{w, m}] = append(sets[side][key{w, m}], v.Value)
				}
			}
		}
	}
	bounded := map[string]metricDef{}
	for _, d := range endToEnd {
		bounded[d.Name] = d
	}
	fmt.Printf("\n%-16s %-26s %14s %14s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			k := key{w.Name, d.Name}
			a, b := sets[0][k], sets[1][k]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			spread := max(relSpread(a), relSpread(b))
			bd, gated := bounded[d.Name]
			verdict := "not gated"
			if gated {
				worse := (mb - ma) / ma
				if d.Better == "higher" {
					worse = (ma - mb) / ma
				}
				switch {
				case d.Name == "setup_s" && worse <= bd.Bound:
					// As in the driver's acceptance rule, set-up is judged on
					// its medians alone: it is milliseconds on most
					// workloads and its spread is not a resolution limit.
					verdict = "within bound (medians only)"
				case spread > bd.Bound:
					verdict = "UNRESOLVED"
					code = 1
				case worse > bd.Bound:
					verdict = "OUT OF BOUND"
					code = 1
				default:
					verdict = "within bound"
				}
			}
			fmt.Printf("%-16s %-26s %14.4f %14.4f %7.1f%% %7.0f%%  %s\n",
				w.Name, d.Name, ma, mb, 100*spread, 100*bd.Bound, verdict)
		}
	}
	return code
}
