package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stats"
)

// The experiments in this file go beyond the paper's figures: they exercise
// the design choices DESIGN.md calls out as ablation candidates and the
// extended fault models the paper's related-work section attributes to
// SASSIFI-class injectors. They are clearly marked as extensions in reports.

// RunModels compares the resilience profile of one kernel under the three
// fault models: the paper's single-bit destination flip, the double-bit
// flip (what SEC-DED ECC cannot correct), and the LSU effective-address
// flip. Sites are drawn at random per model from the matching site
// population.
func RunModels(cfg Config) error {
	w := cfg.out()
	const runs = 600
	for _, name := range []string{"2DCONV K1", "MVT K1"} {
		if !cfg.selected(name) {
			continue
		}
		inst, err := buildPrepared(name, cfg)
		if err != nil {
			return err
		}
		prof := inst.Target.Profile()
		space := fault.NewSpace(prof)
		rng := stats.NewRNG(cfg.Seed).Split("models" + name)

		fmt.Fprintf(w, "Extension (fault models, %s): outcome profile per model (%d runs each)\n",
			name, runs)
		fmt.Fprintf(w, "%-12s | %7s %7s %7s\n", "model", "masked", "sdc", "other")

		for _, model := range []fault.Model{
			fault.ModelDestValue, fault.ModelDestDouble, fault.ModelMemAddr,
		} {
			var res *fault.CampaignResult
			if model == fault.ModelMemAddr {
				// Sample uniformly over memory-instruction address bits. The
				// pool draw (rng.Intn) is this table's published stream;
				// RandomModel draws mem-addr sites with Int63n and would
				// change the row.
				var pool []fault.Site
				for t := range prof.Threads {
					pool = append(pool, space.MemAddrSites(t, nil)...)
				}
				if len(pool) == 0 {
					continue
				}
				sites := make([]fault.Site, runs)
				for i := range sites {
					sites[i] = pool[rng.Intn(len(pool))]
				}
				res, err = fault.RunModel(inst.Target, fault.Uniform(sites), model, cfg.campaign())
			} else {
				res, err = cfg.uniform(inst.Target, rng, runs, model)
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s | %s\n", model, distRow(res.Dist))
		}
	}
	return nil
}

// RunAblation quantifies the stage-1 design choices on accuracy and cost:
// the paper's iCnt classifier vs. the stricter static-PC-signature
// classifier, and the two-step CTA-then-thread grouping vs. one-step
// kernel-wide grouping (the paper argues one-step is unsound for kernels
// whose equal-iCnt threads run different code).
func RunAblation(cfg Config) error {
	w := cfg.out()
	configs := []struct {
		name string
		opt  core.GroupingOptions
	}{
		{"two-step iCnt (paper)", core.GroupingOptions{}},
		{"two-step +signature", core.GroupingOptions{BySignature: true}},
		{"one-step iCnt", core.GroupingOptions{SkipCTAGrouping: true}},
		{"one-step +signature", core.GroupingOptions{SkipCTAGrouping: true, BySignature: true}},
	}
	for _, name := range []string{"HotSpot K1", "2DCONV K1", "Gaussian K2"} {
		if !cfg.selected(name) {
			continue
		}
		inst, err := buildPrepared(name, cfg)
		if err != nil {
			return err
		}
		rng := stats.NewRNG(cfg.Seed).Split("ablation" + name)
		base, err := cfg.uniform(inst.Target, rng, cfg.baselineRuns(), fault.ModelDestValue)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "Extension (grouping ablation, %s): baseline %s\n", name, base.Dist)
		fmt.Fprintf(w, "%-24s %8s %8s | %7s %7s %7s | %6s\n",
			"classifier", "groups", "#sites", "masked", "sdc", "other", "maxΔpp")
		for _, c := range configs {
			plan, err := core.BuildPlan(inst.Target, core.Options{
				Seed: cfg.Seed, Grouping: c.opt,
			})
			if err != nil {
				return err
			}
			est, err := plan.Estimate(cfg.campaign())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-24s %8d %8d | %s | %6.2f\n",
				c.name, len(plan.ThreadGroups), len(plan.Sites),
				distRow(est), est.MaxClassDelta(base.Dist))
		}
	}
	return nil
}

func init() {
	register(Experiment{ID: "models", Title: "Extension: fault-model comparison (dest-value / dest-double / mem-addr)", Run: RunModels})
	register(Experiment{ID: "ablation", Title: "Extension: stage-1 grouping classifier ablation", Run: RunAblation})
}
