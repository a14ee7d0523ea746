package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sizing scales a workload. The full size is what BENCHMARK.json's numbers
// are taken at; the smoke test runs every workload at about 1/50 of it.
type sizing struct {
	// div divides every site count; anything but 1 skips the golden-digest
	// check, whose digests are recorded at full size.
	div int
	// minReps is the least number of timed repetitions, however short
	// -seconds is.
	minReps int
	// setupReps is the least number of times set-up is repeated for the
	// setup_s median; cheap set-ups repeat more often (moreSetUps).
	setupReps int
	// warmup runs one untimed repetition before the timed ones.
	warmup bool
	// checkSites is the per-campaign subsample rerun on a FullRun target.
	checkSites int
}

var fullSize = sizing{div: 1, minReps: 3, setupReps: 5, warmup: true, checkSites: 64}

// config is one workload run's input.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workers is W: GOMAXPROCS, engine parallelism and client count.
	workers int
	// dataDir holds journals and service data; a fresh directory is made
	// under it per run and removed afterwards.
	dataDir string
	// traceDir is where a traced run writes trace-<workload>.json.
	traceDir string
	size     sizing
	out      io.Writer
}

// sample is a metric value with the number of measurements behind it.
type sample struct {
	v float64
	n int
}

// checkResult is the outcome of one output check.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// run accumulates everything one workload run produces.
type run struct {
	cfg config
	rec *recorder
	dir string

	attempted, failed int64
	checks            []checkResult
	values            map[string]sample
	digests           map[string]string
	counts            map[string]int64
	// probeShards, when a workload sets it, names the shard journals of
	// its first campaign for the traced run's read-side probe.
	probeShards []string
}

func newRun(cfg config) (*run, error) {
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dataDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	return &run{
		cfg: cfg, rec: newRecorder(), dir: dir,
		values:  map[string]sample{},
		digests: map[string]string{},
		counts:  map[string]int64{},
	}, nil
}

func (r *run) cleanup() { os.RemoveAll(r.dir) }

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.cfg.out, format+"\n", args...) }

// set records a metric value measured from n samples.
func (r *run) set(name string, v float64, n int) { r.values[name] = sample{v, n} }

// setMedian records the median of vs, with its sample count.
func (r *run) setMedian(name string, vs []float64) { r.set(name, median(vs), len(vs)) }

// ops counts attempted and failed operations (sites, HTTP requests).
func (r *run) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// check records an output check; a failed check is a failed operation.
func (r *run) check(name string, ok bool, format string, args ...any) {
	c := checkResult{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
	r.ops(1, 0)
	if !ok {
		r.failed++
	}
}

// sameAcrossReps checks that a simulated statistic repeated exactly (output
// check 5) and records it under counts for the golden file.
func (r *run) sameAcrossReps(name string, perRep []int64) {
	ok := true
	for _, v := range perRep {
		ok = ok && v == perRep[0]
	}
	r.check("repeatable "+name, ok, "values across repetitions: %v", perRep)
	if len(perRep) > 0 {
		r.counts[name] = perRep[0]
	}
}

// moreReps reports whether another timed repetition is due: at least
// `least` (an even number when tracing, so traced and untraced halves
// match), then until the timed region has lasted -seconds.
func (r *run) moreReps(done, least int, timedStart time.Time) bool {
	if r.cfg.trace && least < 2 {
		least = 2
	}
	if done < least || (r.cfg.trace && done%2 == 1) {
		return true
	}
	return done < 64 && time.Since(timedStart).Seconds() < r.cfg.seconds
}

// setUpBudget is how long a cheap set-up keeps repeating: the more samples,
// the steadier the median of a millisecond-scale measurement.
const setUpBudget = 500 * time.Millisecond

// moreSetUps reports whether set-up should run again: at least setupReps
// times, then until setUpBudget is spent, at most 50 times.
func (r *run) moreSetUps(done int, start time.Time) bool {
	least := r.cfg.size.setupReps
	return done < least || (least > 1 && done < 50 && time.Since(start) < setUpBudget)
}

// traceRep switches the recorder for repetition k of a traced run: odd
// repetitions are recorded, even ones are not, and the ratio of their
// medians is trace_overhead_pct.
func (r *run) traceRep(k int) bool {
	on := r.cfg.trace && k%2 == 1
	r.rec.enable(on)
	return on
}

// setTraceOverhead records trace_overhead_pct from per-repetition walls.
func (r *run) setTraceOverhead(walls []float64, traced []bool) {
	var on, off []float64
	for i, w := range walls {
		if traced[i] {
			on = append(on, w)
		} else {
			off = append(off, w)
		}
	}
	if len(on) > 0 && len(off) > 0 {
		r.set("trace_overhead_pct", 100*(median(on)/median(off)-1), len(on))
	}
}

// totalAlloc reads the cumulative bytes allocated by this process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(b))[:3], " ")
}

// fsName names the filesystem holding dir, by the magic numbers that
// matter for fsync cost.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}

// workerCount is W = min(nproc, 4).
func workerCount() int { return min(runtime.NumCPU(), 4) }

// printHygiene prints what a reader needs to judge the noise of a run.
func printHygiene(w io.Writer, workers int, dataDir, load string) {
	abs, _ := filepath.Abs(dataDir)
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s data-dir=%s (%s) loadavg=%s\n",
		runtime.NumCPU(), workers, runtime.Version(), abs, fsName(dataDir), load)
	if l1, err := strconv.ParseFloat(strings.Fields(load)[0], 64); err == nil && l1 > float64(workers) {
		fmt.Fprintf(w, "warning: load1 %.2f exceeds W=%d; timings will be noisy\n", l1, workers)
	}
}

// printMetrics prints the named metrics that were measured, one per line
// with unit and sample count; withMoves adds what a per-layer metric should
// move.
func printMetrics(w io.Writer, title string, defs []metricDef, values map[string]sample, withMoves bool) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		s, ok := values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %16.4f %-8s (n=%d, %s is better)", d.Name, s.v, d.Unit, s.n, d.Better)
		if withMoves {
			fmt.Fprintf(w, " -> %s", d.Moves)
		}
		fmt.Fprintln(w)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
