package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/trace"
)

// Probe budgets: how long one layer's call is repeated. The whole probe
// stays within a few seconds on every workload.
const (
	cheapBudget = 40 * time.Millisecond  // microsecond-scale calls
	dearBudget  = 200 * time.Millisecond // millisecond-scale calls
	// probeSites is the size of the probe's own journaled campaign, and
	// the cap on sites timed one by one for fault.runsite_*.
	probeSites    = 512
	runSiteBudget = 1500 * time.Millisecond
	runSiteCap    = 2000
)

// measure calls f for about budget (at least 3 and at most 100000 calls),
// running the untimed prep before each call when it is not nil, and
// returns the median seconds per call and the number of calls. The budget
// shrinks with the run's size, so the smoke test's probes are a few calls.
func (r *run) measure(budget time.Duration, prep, f func()) (float64, int) {
	budget /= time.Duration(r.cfg.size.div)
	var secs []float64
	start := time.Now()
	for len(secs) < 3 || (time.Since(start) < budget && len(secs) < 100000) {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), len(secs)
}

// setMeasured records a measure result scaled into the metric's unit.
func (r *run) setMeasured(name string, scale float64, budget time.Duration, prep, f func()) {
	secs, n := r.measure(budget, prep, f)
	r.set(name, secs*scale, n)
}

// probeLayers times calls into each layer's public functions on the
// workload's first campaign: its kernel, its prepared target, its sites.
// These are the per-layer metrics that do not come out of the workload's
// own repetitions. Errors inside timed closures are checked once, on an
// untimed first call.
func (r *run) probeLayers(p prepared) error {
	c, t := p.spec, p.target
	spec, _ := kernels.ByName(c.kernel)
	sp := r.rec.root(r.cfg.workload+"/probe", "probe")
	defer sp.end()

	// kernels, ptx.
	r.setMeasured("kernels.build_ms", 1e3, cheapBudget, nil, func() { spec.Build(c.scale) })
	src := t.Prog.String()
	if _, err := ptx.Assemble("probe", src); err != nil {
		return fmt.Errorf("probe: reassemble %s: %w", c.kernel, err)
	}
	r.setMeasured("ptx.assemble_ms", 1e3, cheapBudget, nil, func() { ptx.Assemble("probe", src) })

	// gpusim execution: bare Execute, no campaign machinery.
	launch := func(warp int, tr gpusim.Tracer) *gpusim.Launch {
		return &gpusim.Launch{
			Prog: t.Prog, Grid: t.Grid, Block: t.Block, Params: t.Params,
			SharedBytes: t.SharedBytes, WarpSize: warp, Tracer: tr,
		}
	}
	res, err := gpusim.Execute(t.Init.Clone(), launch(c.warp, nil))
	if err != nil || res.Trap != nil {
		return fmt.Errorf("probe: golden execute of %s: %v %v", c.kernel, err, res)
	}
	r.set("gpusim.total_dyn", float64(res.TotalDyn), 1)
	for _, mode := range []struct {
		name string
		warp int
	}{{"serial", 0}, {"warp32", 32}} {
		secs, n := r.measure(dearBudget, nil, func() { gpusim.Execute(t.Init.Clone(), launch(mode.warp, nil)) })
		r.set("gpusim.instrs_per_s."+mode.name, float64(res.TotalDyn)/secs, n)
		if (mode.warp == 0) == (c.warp == 0) {
			r.set("gpusim.execute_golden_ms", secs*1e3, n)
		}
	}
	var tr *gpusim.ProfileTrace
	r.setMeasured("gpusim.profile_trace_ms", 1e3, dearBudget, nil, func() {
		tr = gpusim.NewProfileTrace(t.Threads())
		gpusim.Execute(t.Init.Clone(), launch(c.warp, tr))
	})
	if _, err := trace.Build(t.Prog, tr, t.Block.Count()); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	r.setMeasured("trace.build_ms", 1e3, dearBudget, nil, func() { trace.Build(t.Prog, tr, t.Block.Count()) })

	// fault prepare: cold, and through a warm cache.
	var fresh *fault.Target
	build := func(cache *fault.PreparedCache) func() {
		return func() {
			inst, _ := spec.Build(c.scale)
			fresh = inst.Target
			fresh.WarpSize, fresh.Cache = c.warp, cache
		}
	}
	r.setMeasured("fault.prepare_cold_ms", 1e3, dearBudget, build(nil), func() { fresh.Prepare() })
	cache := fault.NewPreparedCache(0)
	build(cache)()
	if err := fresh.Prepare(); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	r.setMeasured("fault.prepare_hit_ms", 1e3, cheapBudget, build(cache), func() { fresh.Prepare() })
	r.setMeasured("fault.space_sample_ms", 1e3, dearBudget, nil, func() { sampleSites(t, r.cfg.seed, len(p.sites), c.model) })

	r.probeMemory(t, launch(c.warp, nil))
	r.probeRunSite(p)
	if err := r.probeJournalWrites(); err != nil {
		return err
	}
	return r.probeReadSide(p)
}

// probeMemory times the copy-on-write device and the snapshot stores. The
// device first runs the kernel once, so it owns every page the kernel
// writes, as a pooled campaign device does after its first sites.
func (r *run) probeMemory(t *fault.Target, launch *gpusim.Launch) {
	r.setMeasured("gpusim.clone_us", 1e6, cheapBudget, nil, func() { t.Init.Clone() })
	dev := t.Init.Clone()
	gpusim.Execute(dev, launch)
	dev.ResetFrom(t.Init)
	pages := dev.NumPages()
	dirty := func() {
		for k := 0; k < 4; k++ {
			dev.WriteWords((k*pages/4)*gpusim.PageSize, []uint32{uint32(k + 1)})
		}
	}
	r.setMeasured("gpusim.reset_same_us", 1e6, cheapBudget, dirty, func() { dev.ResetFrom(t.Init) })

	n := min(pages, 64)
	secs, calls := r.measure(cheapBudget, nil, func() {
		for p := 0; p < n; p++ {
			dev.HashPage(p)
		}
	})
	r.set("gpusim.hash_page_ns", secs*1e9/float64(n), calls*n)

	ck, wck := t.Checkpoints(), t.WarpCheckpoints()
	if ck != nil {
		r.set("gpusim.ckpt_bytes", float64(ck.Bytes()), 1)
		if ck.Count() >= 2 {
			a, _ := ck.SnapshotFor(0)
			b, _ := ck.SnapshotFor(ck.NumCTAs() - 1)
			flip := false
			r.setMeasured("gpusim.reset_cross_us", 1e6, cheapBudget, dirty, func() {
				if flip = !flip; flip {
					dev.ResetFrom(b)
				} else {
					dev.ResetFrom(a)
				}
			})
		}
		// Golden state at boundary 1: resume at CTA 0, stop after it.
		snap, first := ck.SnapshotFor(0)
		dev.ResetFrom(snap)
		l := *launch
		l.FirstCTA = first
		l.AfterCTA = func(cta int, _ bool) bool { return cta == 0 }
		gpusim.Execute(dev, &l)
		r.setMeasured("gpusim.converged_us", 1e6, cheapBudget, nil, func() { ck.Converged(dev, 1) })
	}
	if wck != nil {
		r.set("gpusim.warp_ckpt_bytes", float64(wck.Bytes()), 1)
		for cta := 0; cta < t.Grid.Count(); cta++ {
			if wck.PerCTA(cta) == 0 {
				continue
			}
			ws := wck.Snapshot(cta, wck.PerCTA(cta)-1)
			floor := t.Init
			if ck != nil {
				floor, _ = ck.SnapshotFor(cta)
			}
			r.setMeasured("gpusim.warp_restore_us", 1e6, cheapBudget,
				func() { dev.ResetFrom(floor) }, func() { ws.RestorePages(dev) })
			break
		}
	}
}

// probeRunSite times sites one by one through the full-run reference path
// on one pooled device, for the per-site latency distribution a campaign's
// aggregate rate hides.
func (r *run) probeRunSite(p prepared) {
	dev := p.target.Init.Clone()
	var us []float64
	start := time.Now()
	budget := runSiteBudget / time.Duration(r.cfg.size.div)
	for i := 0; i < len(p.sites) && i < runSiteCap && (i < 3 || time.Since(start) < budget); i++ {
		dev.ResetFrom(p.target.Init)
		t0 := time.Now()
		if _, err := p.target.RunSiteModelOn(dev, p.sites[i].Site, p.spec.model); err != nil {
			r.check("probe run-site", false, "%v", err)
			return
		}
		us = append(us, time.Since(t0).Seconds()*1e6)
	}
	r.set("fault.runsite_p50_us", quantile(us, 0.50), len(us))
	r.set("fault.runsite_p99_us", quantile(us, 0.99), len(us))
}

// syntheticRecord is record i of a synthetic journal, shaped like the
// engine's: every field a real record carries is set.
func syntheticRecord(i int) journal.Record {
	return journal.Record{
		Index: i, Thread: i % 256, DynInst: int64(i) * 7 % 4096, Bit: i % 32,
		Outcome: uint8(i % 4), Weight: 1, CTAsSkipped: int64(i % 5),
		EarlyExit: i%2 == 0, IntraResumed: i%3 == 0, Attempts: 1,
	}
}

// probeJournalWrites times the journal's write path on synthetic records:
// plain appends, appends under AutoSync(64), and a bare fsync of the data
// directory's filesystem.
func (r *run) probeJournalWrites() error {
	appendLoop := func(name string, n, syncEvery int) (secsPerRec, bytesPerRec float64, err error) {
		path := filepath.Join(r.dir, name)
		defer os.Remove(path)
		j, err := journal.Open(path, journal.Fingerprint{Kernel: "synthetic", Model: "dest-value", Sites: n, ShardCount: 1})
		if err != nil {
			return 0, 0, err
		}
		defer j.Close()
		j.AutoSync(syncEvery)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := j.Append(syntheticRecord(i)); err != nil {
				return 0, 0, err
			}
		}
		secs := time.Since(t0).Seconds()
		st, err := os.Stat(path)
		if err != nil {
			return 0, 0, err
		}
		return secs / float64(n), float64(st.Size()) / float64(n), nil
	}
	const plain, synced = 20000, 2048
	secs, bytes, err := appendLoop("probe-append.journal", plain, 0)
	if err != nil {
		return err
	}
	r.set("journal.append_us", secs*1e6, plain)
	r.set("journal.bytes_per_record", bytes, plain)
	if secs, _, err = appendLoop("probe-sync64.journal", synced, 64); err != nil {
		return err
	}
	r.set("journal.append_sync64_us", secs*1e6, synced)

	path := filepath.Join(r.dir, "probe-fsync.journal")
	defer os.Remove(path)
	j, err := journal.Open(path, journal.Fingerprint{Kernel: "synthetic", Model: "dest-value", Sites: 64, ShardCount: 1})
	if err != nil {
		return err
	}
	defer j.Close()
	i := 0
	r.setMeasured("journal.fsync_ms", 1e3, cheapBudget, func() { j.Append(syntheticRecord(i)); i++ }, func() { j.Sync() })
	return nil
}

// probeReadSide times the journal read path, the report and the advisor on
// real shard journals: the workload's own when it has them (probeShards,
// set by shallow-durable), otherwise those of a small campaign run here.
func (r *run) probeReadSide(p prepared) error {
	paths := r.probeShards
	if paths == nil {
		var err error
		if paths, err = r.runShards(p, p.sites[:min(len(p.sites), probeSites)], "probe-shard"); err != nil {
			return fmt.Errorf("probe campaign: %w", err)
		}
	}
	fp0, _, err := journal.ReadFile(paths[0])
	if err != nil {
		return err
	}
	r.setMeasured("journal.readfile_ms", 1e3, cheapBudget, nil, func() { journal.ReadFile(paths[0]) })
	r.setMeasured("journal.open_replay_ms", 1e3, cheapBudget, nil, func() {
		if j, err := journal.Open(paths[0], fp0); err == nil {
			j.Close()
		}
	})
	fp, recs, err := journal.Merge(paths, false)
	if err != nil {
		return err
	}
	r.setMeasured("journal.merge_ms", 1e3, cheapBudget, nil, func() { journal.Merge(paths, false) })

	// One recorded pass gives the document sizes and checks for errors; the
	// timings then come from the spans of repeated passes.
	sp := r.rec.root(r.cfg.workload+"/probe-read", "probe-read")
	defer sp.end()
	doc, err := mergedReport(nil, fp, recs)
	if err != nil {
		return err
	}
	adv, err := adviceBytes(nil, p.target, fp, recs)
	if err != nil {
		return err
	}
	r.set("report.bytes", float64(len(doc)), 1)
	r.set("advisor.bytes", float64(len(adv)), 1)
	for k := 0; k < 9; k++ {
		mergedReport(sp, fp, recs)
		adviceBytes(sp, p.target, fp, recs)
	}
	spans := r.rec.closed()
	for name, metric := range map[string]string{
		"report.new_merged":    "report.new_merged_ms",
		"report.write":         "report.write_ms",
		"advisor.from_journal": "advisor.from_journal_ms",
		"advisor.analyze":      "advisor.analyze_ms",
	} {
		r.setMedian(metric, childDurationsMS(spans, sp, name))
	}
	return nil
}

// childDurationsMS returns the durations of parent's direct children with
// the given name.
func childDurationsMS(spans []span, parent *spanRef, name string) []float64 {
	if parent == nil {
		return nil
	}
	var out []float64
	for _, s := range spans {
		if s.Parent == parent.id && s.Name == name {
			out = append(out, (s.EndUS-s.StartUS)/1e3)
		}
	}
	return out
}
