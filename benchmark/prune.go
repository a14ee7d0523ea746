package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernels"
)

// baselineRuns is the size of the random baseline each pruned estimate is
// compared against. It is a sampled reference, not exhaustive truth.
const baselineRuns = 400

// pruneKernel is what one kernel of one prune-suite repetition produced.
type pruneKernel struct {
	name      string
	target    *fault.Target
	plan      *core.Plan
	res       *fault.CampaignResult
	base      *baseline.Result
	setupSec  float64 // Build + Prepare
	profSec   float64 // Build to pruned estimate
	totalSec  float64 // Build to baseline
	errPP     float64
	reduction float64
}

// pruneOne runs the paper's method on one kernel, cold: the cache is fresh
// for the repetition and every kernel's key is distinct, so Prepare always
// performs the golden run.
func (r *run) pruneOne(root *spanRef, spec kernels.Spec, cache *fault.PreparedCache) (pruneKernel, error) {
	k := pruneKernel{name: spec.Meta.Name()}
	sp := root.child("kernel " + k.name)
	defer sp.end()
	opt := fault.CampaignOptions{Parallelism: r.cfg.workers, KeepPerSite: true}
	t0 := time.Now()
	var err error
	if k.target, err = buildTarget(sp, k.name, kernels.ScaleSmall, 0, false, cache); err != nil {
		return k, err
	}
	k.setupSec = time.Since(t0).Seconds()
	b := sp.child("core.build_plan")
	k.plan, err = core.BuildPlan(k.target, core.Options{Seed: r.cfg.seed})
	b.end()
	if err != nil {
		return k, err
	}
	e := sp.child("core.estimate")
	k.res, err = k.plan.EstimateResult(opt)
	e.end()
	if err != nil {
		return k, err
	}
	k.profSec = time.Since(t0).Seconds()
	f := sp.child("baseline.fixed")
	k.base, err = baseline.Fixed(k.target, baseline.Options{
		MaxRuns: max(baselineRuns/r.cfg.size.div, 8), Seed: r.cfg.seed, Campaign: opt,
	})
	f.end()
	if err != nil {
		return k, err
	}
	k.totalSec = time.Since(t0).Seconds()
	k.errPP = k.res.Dist.MaxClassDelta(k.base.Dist)
	k.reduction = k.plan.Reduction()
	return k, nil
}

func runPruneSuite(r *run) error {
	specs := kernels.All()
	if r.cfg.size.div > 1 {
		// The smoke size: two cheap kernels, one with and one without
		// instruction commonality.
		specs = nil
		for _, name := range []string{"2DCONV K1", "Gaussian K1"} {
			s, _ := kernels.ByName(name)
			specs = append(specs, s)
		}
	}
	rep := func(root *spanRef) ([]pruneKernel, error) {
		cache := fault.NewPreparedCache(0)
		out := make([]pruneKernel, 0, len(specs))
		for _, spec := range specs {
			k, err := r.pruneOne(root, spec, cache)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Meta.Name(), err)
			}
			out = append(out, k)
		}
		return out, nil
	}
	if r.cfg.size.warmup {
		if _, err := rep(nil); err != nil {
			return err
		}
	}

	var reps [][]pruneKernel
	var traced []bool
	alloc0 := totalAlloc()
	start := time.Now()
	for k := 0; r.moreReps(k, r.cfg.size.minReps, start); k++ {
		traced = append(traced, r.traceRep(k))
		root := r.rec.root(fmt.Sprintf("%s/rep%d", r.cfg.workload, k), "rep")
		ks, err := rep(root)
		root.end()
		if err != nil {
			return err
		}
		reps = append(reps, ks)
	}
	alloc := totalAlloc() - alloc0
	r.rec.enable(r.cfg.trace)

	// Per repetition: totals for the exact-repeat checks and the trace
	// overhead. The reported timings are of the typical repetition.
	var total []float64
	var injections, planSites, totalDyn []int64
	for _, ks := range reps {
		var t float64
		var inj, sites, dyn int64
		for _, k := range ks {
			t += k.totalSec
			inj += k.res.Stats.Runs + k.base.Stats.Runs
			sites += int64(len(k.plan.Sites))
			dyn += k.target.Profile().TotalDyn()
			r.ops(int64(len(k.plan.Sites)+k.base.Runs),
				k.res.Stats.Quarantined+k.base.Stats.Quarantined+engineErrors(k.res.PerSite))
		}
		total = append(total, t)
		injections, planSites, totalDyn = append(injections, inj), append(planSites, sites), append(totalDyn, dyn)
	}
	setups, profiles, wholes := make([][]float64, len(reps)), make([][]float64, len(reps)), make([][]float64, len(reps))
	for k, ks := range reps {
		for _, kn := range ks {
			setups[k], profiles[k], wholes[k] = append(setups[k], kn.setupSec), append(profiles[k], kn.profSec), append(wholes[k], kn.totalSec)
		}
	}
	setup, profile, whole := typical(setups), typical(profiles), typical(wholes)
	r.set("setup_s", setup, len(reps))
	r.set("profile_s", profile, len(reps))
	r.set("result_p50_ms", profile*1e3, len(reps))
	r.set("sites_per_s", float64(injections[0])/whole, len(reps))
	r.set("alloc_kb_per_site", float64(alloc)/1024/float64(sum64(injections)), len(reps))
	r.setTraceOverhead(total, traced)
	r.sameAcrossReps("fault.runs", injections)
	r.sameAcrossReps("core.plan_sites", planSites)
	r.sameAcrossReps("gpusim.total_dyn", totalDyn)
	r.set("core.plan_sites", float64(planSites[0]), 1)
	var engine fault.CampaignStats // the last repetition's campaigns
	for _, k := range reps[len(reps)-1] {
		engine.Merge(k.res.Stats)
		engine.Merge(k.base.Stats)
	}
	r.setEngineCounters(engine)
	r.set("fault.site_us", engine.Wall.Seconds()*float64(r.cfg.workers)/float64(engine.Runs)*1e6, 1)

	// Accuracy and digests: deterministic for a seed, so repetitions agree.
	last := reps[len(reps)-1]
	var worst, logRed float64
	ref := fullRunRef{r: r}
	for i, k := range last {
		worst = math.Max(worst, k.errPP)
		logRed += math.Log(k.reduction)
		digest, same := digestOutcomes(k.res.PerSite), true
		for _, ks := range reps[:len(reps)-1] {
			same = same && digestOutcomes(ks[i].res.PerSite) == digest && ks[i].base.Dist == k.base.Dist
		}
		r.check("repeatable outcomes "+k.name, same, "pruned or baseline outcomes differ between repetitions")
		r.digests[k.name+"/pruned"] = digest
		r.digests[k.name+"/baseline"] = digestDist(k.base.Dist)
		c := campaignSpec{kernel: k.name, scale: kernels.ScaleSmall, model: fault.ModelDestValue}
		if err := ref.verify(k.name, c, k.plan.Sites, k.res.PerSite); err != nil {
			return err
		}
	}
	ref.setSpeedup()
	r.set("prune_err_pp", worst, len(last))
	r.set("site_reduction_x", math.Exp(logRed/float64(len(last))), len(last))

	if r.cfg.trace {
		spans := r.rec.closed()
		for name, metric := range map[string]string{
			"core.build_plan": "core.build_plan_ms",
			"core.estimate":   "core.estimate_ms",
			"baseline.fixed":  "baseline.fixed_ms",
		} {
			r.setMedian(metric, totalsByTraceMS(spans, name))
		}
		p := last[0]
		return r.probeLayers(prepared{
			spec:   campaignSpec{kernel: p.name, scale: kernels.ScaleSmall, model: fault.ModelDestValue, sites: len(p.plan.Sites)},
			target: p.target, sites: p.plan.Sites,
		})
	}
	return nil
}

func sum64(vs []int64) int64 {
	var t int64
	for _, v := range vs {
		t += v
	}
	return t
}
