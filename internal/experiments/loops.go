package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// RunTable7 reproduces Table VII: per kernel, the loop iteration count of
// the busiest thread and the percentage of dynamic instructions inside
// loops, sorted ascending by loop share like the paper.
func RunTable7(cfg Config) error {
	w := cfg.out()
	type row struct {
		name    string
		threads int
		iters   int
		pct     float64
	}
	var rows []row
	for _, spec := range kernels.All() {
		if !cfg.selected(spec.Meta.Name()) {
			continue
		}
		inst, err := buildPrepared(spec.Meta.Name(), cfg)
		if err != nil {
			return err
		}
		prof := inst.Target.Profile()
		var inLoop, total int64
		maxIters := 0
		for t := range prof.Threads {
			s := trace.SummarizeLoops(prof.Threads[t].PCs)
			inLoop += s.InLoopInstrs
			total += s.Instrs
			if s.TotalIters > maxIters {
				maxIters = s.TotalIters
			}
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(inLoop) / float64(total)
		}
		rows = append(rows, row{
			name: spec.Meta.Name(), threads: inst.Target.Threads(),
			iters: maxIters, pct: pct,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].pct < rows[j].pct })
	fmt.Fprintf(w, "Table VII: loop statistics (scale=%s)\n", cfg.Scale)
	fmt.Fprintf(w, "%-16s %9s %11s %14s\n", "Kernel", "#Threads", "#LoopIter", "%InsnInLoop")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9d %11d %13.2f%%\n", r.name, r.threads, r.iters, r.pct)
	}
	return nil
}

// fig6Subjects mirrors the paper's loop-stability subjects; K-Means K1 runs
// under two different seeds (Fig. 6c/6d) to show the stability point does
// not depend on which iterations the sampler picks.
var fig6Subjects = []struct {
	name string
	seed int64
}{
	{"PathFinder K1", 0},
	{"SYRK K1", 0},
	{"K-Means K1", 0},
	{"K-Means K1", 1},
}

// RunFig6 reproduces Fig. 6: the estimated outcome distribution as a
// function of the number of sampled loop iterations. The distribution
// stabilizes after a handful of iterations.
func RunFig6(cfg Config) error {
	w := cfg.out()
	const maxIters = 15
	for _, sub := range fig6Subjects {
		if !cfg.selected(sub.name) {
			continue
		}
		inst, err := buildPrepared(sub.name, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig. 6 (%s, seed=%d): outcome distribution vs sampled loop iterations\n",
			sub.name, sub.seed)
		fmt.Fprintf(w, "%8s %9s | %7s %7s %7s\n", "numIter", "#sites", "masked", "sdc", "other")
		for n := 1; n <= maxIters; n++ {
			plan, err := core.BuildPlan(inst.Target, core.Options{
				Seed:      cfg.Seed + sub.seed*7919,
				LoopIters: n,
			})
			if err != nil {
				return err
			}
			d, err := plan.Estimate(cfg.campaign())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%8d %9d | %s\n", n, len(plan.Sites), distRow(d))
		}
	}
	return nil
}
