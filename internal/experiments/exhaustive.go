package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stats"
)

// RunExhaustive is an extension the paper could not afford: on small
// kernels the simulator is fast enough to inject into *every* fault site
// (Eq. 1's full population) and obtain the true resilience profile — not a
// statistical approximation. The experiment compares, against that ground
// truth: (a) the pruned-space estimate, and (b) an Eq. 2-sized random
// sample, directly measuring the error of each.
func RunExhaustive(cfg Config) error {
	w := cfg.out()
	// Kernels whose small-scale site counts keep a full sweep under a
	// minute on one core.
	for _, name := range []string{"Gaussian K125", "Gaussian K1"} {
		if !cfg.selected(name) {
			continue
		}
		inst, err := buildPrepared(name, cfg)
		if err != nil {
			return err
		}
		prof := inst.Target.Profile()
		space := fault.NewSpace(prof)

		// Ground truth: every site, weight 1.
		var all []fault.Site
		for t := range prof.Threads {
			all = append(all, space.ThreadSites(t, nil)...)
		}
		if int64(len(all)) != space.Total() {
			return fmt.Errorf("experiments: enumerated %d sites, Eq. 1 says %d",
				len(all), space.Total())
		}
		truth, err := fault.Run(inst.Target, fault.Uniform(all), cfg.campaign())
		if err != nil {
			return err
		}

		// The paper's two approaches, judged against the truth.
		plan, err := core.BuildPlan(inst.Target, core.Options{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		pruned, err := plan.Estimate(cfg.campaign())
		if err != nil {
			return err
		}
		n := stats.SampleSize(space.Total(), 0.03, stats.TStat(0.95), 0.5)
		rng := stats.NewRNG(cfg.Seed).Split("exhaustive" + name)
		sample, err := cfg.uniform(inst.Target, rng, int(n), fault.ModelDestValue)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "Extension (exhaustive ground truth, %s): %d fault sites\n",
			name, space.Total())
		fmt.Fprintf(w, "%-26s %8s | %7s %7s %7s | %6s\n",
			"campaign", "#runs", "masked", "sdc", "other", "maxΔpp")
		fmt.Fprintf(w, "%-26s %8d | %s | %6s\n",
			"exhaustive (truth)", len(all), distRow(truth.Dist), "-")
		fmt.Fprintf(w, "%-26s %8d | %s | %6.2f\n",
			"pruned estimate", len(plan.Sites), distRow(pruned),
			pruned.MaxClassDelta(truth.Dist))
		fmt.Fprintf(w, "%-26s %8d | %s | %6.2f\n",
			"random (95%/±3% per Eq.2)", n, distRow(sample.Dist),
			sample.Dist.MaxClassDelta(truth.Dist))
	}
	return nil
}

func init() {
	register(Experiment{ID: "exhaustive", Title: "Extension: pruned and sampled campaigns vs true exhaustive ground truth", Run: RunExhaustive})
}
