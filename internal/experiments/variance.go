package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
)

// RunVariance is an extension: it quantifies how much of the pruned
// estimate's error is sampling noise. Loop-iteration and bit-position
// sampling are the pipeline's only random choices, so re-running the plan
// under several seeds and measuring the spread of the estimated classes
// separates seed variance from the method's systematic (extrapolation)
// error. A methodology whose per-seed spread is small compared to its
// baseline delta is limited by representativeness, not by sampling — which
// is what the paper's single-seed evaluation implicitly assumes.
func RunVariance(cfg Config) error {
	w := cfg.out()
	const seeds = 5
	for _, name := range []string{"PathFinder K1", "SYRK K1", "K-Means K2"} {
		if !cfg.selected(name) {
			continue
		}
		inst, err := buildPrepared(name, cfg)
		if err != nil {
			return err
		}
		var per [fault.NumClasses][]float64
		sites := 0
		for s := 0; s < seeds; s++ {
			plan, err := core.BuildPlan(inst.Target, core.Options{Seed: cfg.Seed + int64(s)*101})
			if err != nil {
				return err
			}
			d, err := plan.Estimate(cfg.campaign())
			if err != nil {
				return err
			}
			sites = len(plan.Sites)
			for c := fault.Class(0); c < fault.NumClasses; c++ {
				per[c] = append(per[c], d.Pct(c))
			}
		}
		fmt.Fprintf(w, "Extension (seed variance, %s): %d seeds, ~%d sites each\n",
			name, seeds, sites)
		fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "class", "mean", "stddev", "spread")
		for c := fault.Class(0); c < fault.NumClasses; c++ {
			mean, sd, spread := moments(per[c])
			fmt.Fprintf(w, "%-8s %9.2f%% %9.2f %9.2f\n", c, mean, sd, spread)
		}
	}
	return nil
}

// moments returns mean, sample standard deviation, and max-min spread.
func moments(xs []float64) (mean, sd, spread float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		mean += x
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	mean /= float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		sd = math.Sqrt(ss / float64(len(xs)-1))
	}
	return mean, sd, hi - lo
}
