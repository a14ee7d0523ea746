package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/advisor"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/stats"
)

// campaignSpec is one injection campaign of a workload.
type campaignSpec struct {
	kernel string
	scale  kernels.Scale
	warp   int
	model  fault.Model
	sites  int
}

// key names the campaign in digests and golden.json.
func (c campaignSpec) key() string {
	return fmt.Sprintf("%s/%s/warp%d/%s/n%d", c.kernel, c.scale, c.warp, c.model, c.sites)
}

// targetKey identifies the prepared target a campaign runs on; campaigns
// that differ only in model and size share one.
func (c campaignSpec) targetKey() string {
	return fmt.Sprintf("%s/%s/warp%d", c.kernel, c.scale, c.warp)
}

// prepared is a campaign ready to run: its target and its site list.
type prepared struct {
	spec   campaignSpec
	target *fault.Target
	sites  []fault.WeightedSite
}

// fingerprint is the journal fingerprint of the campaign, or of its first
// nsites sites, as one shard.
func (p prepared) fingerprint(seed int64, nsites int, shard fault.Shard) journal.Fingerprint {
	return p.target.JournalFingerprint(p.spec.model, nsites, p.spec.scale.String(), seed, shard)
}

// buildTarget builds a kernel and Prepares it, recording one span per call
// into a layer.
func buildTarget(sp *spanRef, kernel string, scale kernels.Scale, warp int, fullRun bool,
	cache *fault.PreparedCache) (*fault.Target, error) {
	spec, ok := kernels.ByName(kernel)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", kernel)
	}
	b := sp.child("kernels.build")
	inst, err := spec.Build(scale)
	b.end()
	if err != nil {
		return nil, err
	}
	t := inst.Target
	t.WarpSize = warp
	t.FullRun = fullRun
	t.Cache = cache
	p := sp.child("fault.prepare")
	err = t.Prepare()
	p.end()
	return t, err
}

// sampleSites derives a campaign's site list the way fsprune, fsadvise and
// fsserve do: uniform random sites of the model's own space, from the
// "baseline" split of the seed.
func sampleSites(t *fault.Target, seed int64, n int, model fault.Model) []fault.WeightedSite {
	rng := stats.NewRNG(seed).Split("baseline")
	return fault.Uniform(fault.NewSpace(t.Profile()).RandomModel(rng, n, model))
}

// setUp builds, cold-Prepares and samples every campaign of specs, once.
func setUp(sp *spanRef, specs []campaignSpec, seed int64) ([]prepared, error) {
	targets := map[string]*fault.Target{}
	out := make([]prepared, len(specs))
	for i, c := range specs {
		t := targets[c.targetKey()]
		if t == nil {
			var err error
			if t, err = buildTarget(sp, c.kernel, c.scale, c.warp, false, nil); err != nil {
				return nil, fmt.Errorf("%s: %w", c.kernel, err)
			}
			targets[c.targetKey()] = t
		}
		s := sp.child("fault.space_sample")
		out[i] = prepared{spec: c, target: t, sites: sampleSites(t, seed, c.sites, c.model)}
		s.end()
	}
	return out, nil
}

// timedSetUp repeats set-up for the setup_s median, checks that the
// simulated instruction count repeats exactly, and returns the last one.
func (r *run) timedSetUp(specs []campaignSpec) ([]prepared, error) {
	var secs []float64
	var dyn []int64
	var last []prepared
	start := time.Now()
	for k := 0; r.moreSetUps(k, start); k++ {
		t0 := time.Now()
		ps, err := setUp(nil, specs, r.cfg.seed)
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		var total int64
		for _, p := range ps {
			total += p.target.Profile().TotalDyn()
		}
		dyn = append(dyn, total)
		last = ps
	}
	r.setMedian("setup_s", secs)
	r.sameAcrossReps("gpusim.total_dyn", dyn)
	return last, nil
}

// scaled applies the run's size divisor to the site counts.
func (r *run) scaled(specs []campaignSpec) []campaignSpec {
	out := append([]campaignSpec(nil), specs...)
	for i := range out {
		out[i].sites = max(out[i].sites/r.cfg.size.div, 8)
	}
	return out
}

// campaignRep is what one repetition of a campaign workload measured.
type campaignRep struct {
	walls  []float64 // seconds per campaign
	stats  []fault.CampaignStats
	res    []*fault.CampaignResult
	traced bool
	// tag names the repetition's journals (journalPath).
	tag string
}

func (c campaignRep) wall() float64 { return sum(c.walls) }

// journalPath names the journal of campaign i in repetition tag.
func (r *run) journalPath(tag string, i int) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s-c%d.journal", tag, i))
}

// runRep runs every campaign once. With durable set each campaign writes a
// fresh journal (opened before and closed after the engine run, inside the
// timed region, as fsprune -journal does) named by journalPath(tag, i).
func (r *run) runRep(root *spanRef, ps []prepared, durable bool, tag string) (campaignRep, error) {
	var rep campaignRep
	for i, p := range ps {
		opt := fault.CampaignOptions{Parallelism: r.cfg.workers, KeepPerSite: true}
		sp := root.child("campaign " + p.spec.key())
		t0 := time.Now()
		var j *journal.Journal
		if durable {
			fp := p.fingerprint(r.cfg.seed, len(p.sites), fault.Shard{})
			o := sp.child("journal.open")
			var err error
			j, err = journal.Open(r.journalPath(tag, i), fp)
			o.end()
			if err != nil {
				return rep, err
			}
			opt.Journal = j
		}
		e := sp.child("fault.run")
		res, err := fault.RunModel(p.target, p.sites, p.spec.model, opt)
		e.end()
		if j != nil {
			c := sp.child("journal.close")
			cerr := j.Close()
			c.end()
			if err == nil {
				err = cerr
			}
		}
		if err != nil {
			return rep, fmt.Errorf("%s: %w", p.spec.key(), err)
		}
		rep.walls = append(rep.walls, time.Since(t0).Seconds())
		sp.end()
		rep.stats = append(rep.stats, res.Stats)
		rep.res = append(rep.res, res)
	}
	return rep, nil
}

// engineErrors counts outcomes the engine failed to produce.
func engineErrors(outs []fault.Outcome) int64 {
	var n int64
	for _, o := range outs {
		if o == fault.EngineError {
			n++
		}
	}
	return n
}

// runTimedReps is the shared timed region of the campaign workloads: one
// untimed warm-up, then repetitions until moreReps says stop. It records
// the end-to-end metrics, the engine counters, output check 5 and the
// campaign digests, and returns the repetitions.
func (r *run) runTimedReps(ps []prepared, durable bool) ([]campaignRep, error) {
	if r.cfg.size.warmup {
		if _, err := r.runRep(nil, ps, durable, "warmup"); err != nil {
			return nil, err
		}
	}
	var nsites int64
	for _, p := range ps {
		nsites += int64(len(p.sites))
	}
	var reps []campaignRep
	alloc0 := totalAlloc()
	start := time.Now()
	for k := 0; r.moreReps(k, r.cfg.size.minReps, start); k++ {
		traced := r.traceRep(k)
		tag := fmt.Sprintf("rep%d", k)
		root := r.rec.root(r.cfg.workload+"/"+tag, "rep")
		rep, err := r.runRep(root, ps, durable, tag)
		root.end()
		if err != nil {
			return nil, err
		}
		rep.traced, rep.tag = traced, tag
		reps = append(reps, rep)
		if durable && k > 0 {
			for i := range ps { // keep only the newest journals
				os.Remove(r.journalPath(fmt.Sprintf("rep%d", k-1), i))
			}
		}
	}
	alloc := totalAlloc() - alloc0
	r.rec.enable(r.cfg.trace) // the rest of a traced run is recorded

	var walls []float64
	var traced []bool
	perRep := make([][]float64, len(reps))
	for k, rep := range reps {
		walls = append(walls, rep.wall()*1e3)
		traced = append(traced, rep.traced)
		perRep[k] = rep.walls
	}
	repSecs := typical(perRep)
	r.set("sites_per_s", float64(nsites)/repSecs, len(reps))
	r.set("result_p50_ms", repSecs*1e3, len(reps))
	r.set("alloc_kb_per_site", float64(alloc)/1024/float64(nsites*int64(len(reps))), len(reps))
	r.setTraceOverhead(walls, traced)

	// Output check 5 and the digests: simulated results repeat exactly.
	var total fault.CampaignStats
	for i, p := range ps {
		var runs []int64
		same := true
		first := digestOutcomes(reps[0].res[i].PerSite)
		for _, rep := range reps {
			runs = append(runs, rep.stats[i].Runs)
			same = same && digestOutcomes(rep.res[i].PerSite) == first
			r.ops(int64(len(p.sites)), rep.stats[i].Quarantined+engineErrors(rep.res[i].PerSite))
		}
		r.sameAcrossReps("runs "+p.spec.key(), runs)
		r.check("repeatable outcomes "+p.spec.key(), same, "per-site outcomes differ between repetitions")
		r.digests[p.spec.key()] = first
		total.Merge(reps[len(reps)-1].stats[i])
	}

	r.set("fault.site_us", repSecs*float64(r.cfg.workers)/float64(nsites)*1e6, len(reps))
	r.setEngineCounters(total)
	return reps, nil
}

// setEngineCounters records the engine's counters for one repetition's
// campaigns; every ratio is over its runs.
func (r *run) setEngineCounters(total fault.CampaignStats) {
	runs := float64(total.Runs)
	r.set("fault.runs", runs, 1)
	r.set("fault.ctas_skipped_per_site", float64(total.CTAsSkipped)/runs, 1)
	r.set("fault.early_exit_ratio", float64(total.EarlyExits)/runs, 1)
	r.set("fault.intra_skip_ratio", float64(total.IntraSkips)/runs, 1)
	r.set("fault.pages_per_site", float64(total.PagesCopied)/runs, 1)
	r.set("fault.affinity_resets", float64(total.AffinityResets), 1)
	r.set("fault.devices_created", float64(total.DevicesCreated), 1)
	r.set("fault.retries", float64(total.Retries), 1)
	r.set("fault.quarantined", float64(total.Quarantined), 1)
}

// fullRunRef reruns a subsample of sites on a FullRun target of the same
// kernel (output check 2: the checkpointed engine is bit-identical to the
// reference engine) and returns the reference's seconds per site.
type fullRunRef struct {
	r       *run
	targets map[string]*fault.Target
	secs    float64
	sites   int
}

func (f *fullRunRef) verify(name string, c campaignSpec, sites []fault.WeightedSite, want []fault.Outcome) error {
	n := min(f.r.cfg.size.checkSites, len(sites))
	sub := make([]fault.WeightedSite, n)
	exp := make([]fault.Outcome, n)
	for k := 0; k < n; k++ {
		i := k * len(sites) / n
		sub[k], exp[k] = sites[i], want[i]
	}
	if f.targets == nil {
		f.targets = map[string]*fault.Target{}
	}
	t := f.targets[c.targetKey()]
	if t == nil {
		var err error
		if t, err = buildTarget(nil, c.kernel, c.scale, c.warp, true, nil); err != nil {
			return err
		}
		f.targets[c.targetKey()] = t
	}
	t0 := time.Now()
	res, err := fault.RunModel(t, sub, c.model, fault.CampaignOptions{Parallelism: f.r.cfg.workers, KeepPerSite: true})
	if err != nil {
		return err
	}
	f.secs += time.Since(t0).Seconds()
	f.sites += n
	diff := 0
	for k := range exp {
		if res.PerSite[k] != exp[k] {
			diff++
		}
	}
	f.r.check("full-run reference "+name, diff == 0, "%d of %d subsampled sites differ from the FullRun engine", diff, n)
	return nil
}

// setSpeedup records fault.fullrun_site_us and fault.ff_speedup_x.
func (f *fullRunRef) setSpeedup() {
	if f.sites == 0 {
		return
	}
	us := f.secs * float64(f.r.cfg.workers) / float64(f.sites) * 1e6
	f.r.set("fault.fullrun_site_us", us, f.sites)
	if s, ok := f.r.values["fault.site_us"]; ok && s.v > 0 {
		f.r.set("fault.ff_speedup_x", us/s.v, f.sites)
	}
}

// runCampaigns is a whole campaign workload: set-up, timed repetitions,
// the full-run reference check, and in a traced run the layer probes.
func (r *run) runCampaigns(specs []campaignSpec, durable bool, after func(ps []prepared, last campaignRep) error) error {
	ps, err := r.timedSetUp(r.scaled(specs))
	if err != nil {
		return err
	}
	reps, err := r.runTimedReps(ps, durable)
	if err != nil {
		return err
	}
	last := reps[len(reps)-1]
	ref := fullRunRef{r: r}
	for i, p := range ps {
		if err := ref.verify(p.spec.key(), p.spec, p.sites, last.res[i].PerSite); err != nil {
			return err
		}
	}
	ref.setSpeedup()
	if after != nil {
		if err := after(ps, last); err != nil {
			return err
		}
	}
	if r.cfg.trace {
		// Per-model rates (one campaign per model on warp-persistent).
		for i, p := range ps {
			var rates []float64
			for _, rep := range reps {
				rates = append(rates, float64(len(p.sites))/rep.walls[i])
			}
			r.setMedian("fault.sites_per_s."+p.spec.model.String(), rates)
		}
		return r.probeLayers(ps[0])
	}
	return nil
}

func runDeepPaper(r *run) error {
	return r.runCampaigns([]campaignSpec{
		{"HotSpot K1", kernels.ScalePaper, 0, fault.ModelDestValue, 1500},
		{"K-Means K2", kernels.ScalePaper, 0, fault.ModelDestValue, 1000},
	}, false, nil)
}

func runWarpPersistent(r *run) error {
	return r.runCampaigns([]campaignSpec{
		{"HotSpot K1", kernels.ScalePaper, 32, fault.ModelStuckActiveMask, 800},
		{"HotSpot K1", kernels.ScalePaper, 32, fault.ModelLaneCorrelated, 600},
		{"HotSpot K1", kernels.ScalePaper, 32, fault.ModelMemAddr, 800},
		{"HotSpot K1", kernels.ScalePaper, 32, fault.ModelStuckPred, 1500},
	}, false, nil)
}

func runShallowDurable(r *run) error {
	return r.runCampaigns([]campaignSpec{
		{"GEMM K1", kernels.ScaleSmall, 0, fault.ModelDestValue, 8000},
		{"2DCONV K1", kernels.ScaleSmall, 0, fault.ModelDestValue, 8000},
		{"PathFinder K1", kernels.ScaleSmall, 0, fault.ModelDestValue, 8000},
	}, true, r.readSide)
}

// Read-side repetition counts: replay and report are cheap next to the
// campaigns, so they repeat for a median inside one run.
const (
	replayReps = 5
	reportReps = 15
)

// readSide is the part of shallow-durable that reads journals: reopen and
// replay the complete journals, rerun the campaigns as two shards, then
// merge the shard journals into report and advice bytes. It holds output
// check 3 (replayed = live, merged shards = unsharded).
func (r *run) readSide(ps []prepared, last campaignRep) error {
	var nsites int
	for _, p := range ps {
		nsites += len(p.sites)
	}

	var replayRates []float64
	for k := 0; k < replayReps; k++ {
		root := r.rec.root(fmt.Sprintf("%s/replay%d", r.cfg.workload, k), "replay")
		t0 := time.Now()
		for i, p := range ps {
			fp := p.fingerprint(r.cfg.seed, len(p.sites), fault.Shard{})
			o := root.child("journal.open")
			j, err := journal.Open(r.journalPath(last.tag, i), fp)
			o.end()
			if err != nil {
				return err
			}
			e := root.child("fault.run")
			res, err := fault.RunModel(p.target, p.sites, p.spec.model, fault.CampaignOptions{Parallelism: r.cfg.workers, Journal: j})
			e.end()
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			if k == 0 {
				r.check("replayed = live "+p.spec.key(),
					res.Dist == last.res[i].Dist && res.Stats.Replayed == int64(len(p.sites)) && res.Stats.Runs == 0,
					"replayed %v (replayed %d, ran %d), live %v", res.Dist, res.Stats.Replayed, res.Stats.Runs, last.res[i].Dist)
			}
		}
		root.end()
		replayRates = append(replayRates, float64(nsites)/time.Since(t0).Seconds())
	}
	r.setMedian("replay_sites_per_s", replayRates)

	// The same campaigns as two shards, each with its own journal.
	shardPaths := make([][]string, len(ps))
	for i, p := range ps {
		var err error
		if shardPaths[i], err = r.runShards(p, p.sites, fmt.Sprintf("shard-c%d", i)); err != nil {
			return err
		}
		r.ops(int64(len(p.sites)), 0)
	}

	var reportMS []float64
	for k := 0; k < reportReps; k++ {
		root := r.rec.root(fmt.Sprintf("%s/report%d", r.cfg.workload, k), "report")
		t0 := time.Now()
		for i, p := range ps {
			m := root.child("journal.merge")
			fp, recs, err := journal.Merge(shardPaths[i], false)
			m.end()
			if err != nil {
				return err
			}
			if _, err := mergedReport(root, fp, recs); err != nil {
				return err
			}
			if _, err := adviceBytes(root, p.target, fp, recs); err != nil {
				return err
			}
			if k == 0 {
				dist, err := report.MergedDist(recs)
				r.check("merged shards = unsharded "+p.spec.key(), err == nil && dist == last.res[i].Dist,
					"merged %v (%v), unsharded %v", dist, err, last.res[i].Dist)
				r.check("merged digest "+p.spec.key(), digestRecords(recs) == r.digests[p.spec.key()],
					"the shard journals' outcomes differ from the live campaign's")
			}
		}
		root.end()
		reportMS = append(reportMS, time.Since(t0).Seconds()*1e3)
	}
	r.probeShards = shardPaths[0]
	r.logf("report_ms samples: %.1f", reportMS)
	r.setMedian("report_ms", reportMS)
	// On this workload the user-visible latency is the read side.
	r.setMedian("result_p50_ms", reportMS)

	if r.cfg.trace {
		return r.journalOverhead(ps)
	}
	return nil
}

// runShards runs sites as a two-shard campaign of p, each shard with its own
// journal named <prefix>-<shard>.journal, and returns the journal paths.
func (r *run) runShards(p prepared, sites []fault.WeightedSite, prefix string) ([]string, error) {
	var paths []string
	for s := 0; s < 2; s++ {
		shard := fault.Shard{Index: s, Count: 2}
		path := filepath.Join(r.dir, fmt.Sprintf("%s-%d.journal", prefix, s))
		j, err := journal.Open(path, p.fingerprint(r.cfg.seed, len(sites), shard))
		if err != nil {
			return nil, err
		}
		_, err = fault.RunModel(p.target, sites, p.spec.model,
			fault.CampaignOptions{Parallelism: r.cfg.workers, Journal: j, Shard: shard})
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// mergedReport encodes the report document of merged records, as fsmerge
// and the service do.
func mergedReport(sp *spanRef, fp journal.Fingerprint, recs []journal.Record) ([]byte, error) {
	n := sp.child("report.new_merged")
	doc, err := report.NewMerged(fp, recs)
	n.end()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := sp.child("report.write")
	err = report.Write(&buf, doc)
	w.end()
	return buf.Bytes(), err
}

// adviceBytes encodes the advice document of merged records, as fsadvise
// -journal and GET /advice do.
func adviceBytes(sp *spanRef, t *fault.Target, fp journal.Fingerprint, recs []journal.Record) ([]byte, error) {
	f := sp.child("advisor.from_journal")
	in, err := advisor.FromJournal(t, fp, recs)
	f.end()
	if err != nil {
		return nil, err
	}
	a := sp.child("advisor.analyze")
	adv, err := advisor.Analyze(in, advisor.Options{})
	a.end()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := sp.child("advisor.write")
	err = report.Write(&buf, adv)
	w.end()
	return buf.Bytes(), err
}

// journalOverhead is journal.overhead_pct: the same sites with and without
// a journal, alternating so drift hits both sides.
func (r *run) journalOverhead(ps []prepared) error {
	var with, without []float64
	for k := 0; k < 3; k++ {
		for _, durable := range []bool{true, false} {
			rep, err := r.runRep(nil, ps, durable, fmt.Sprintf("ovh%d", k))
			if err != nil {
				return err
			}
			if durable {
				with = append(with, rep.wall())
				for i := range ps {
					os.Remove(r.journalPath(fmt.Sprintf("ovh%d", k), i))
				}
			} else {
				without = append(without, rep.wall())
			}
		}
	}
	r.set("journal.overhead_pct", 100*(median(with)/median(without)-1), len(with))
	return nil
}
