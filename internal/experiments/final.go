package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/textplot"
)

// RunFig9 reproduces Fig. 9, the paper's headline evaluation: for every
// kernel, the pruned fault-site subspace's weighted outcome distribution
// against the random-baseline campaign (the paper's statistically sound
// approximation of ground truth). The paper reports average class deltas of
// 1.68 / 1.90 / 1.64 percentage points.
func RunFig9(cfg Config) error {
	w := cfg.out()
	fmt.Fprintf(w, "Fig. 9: pruned vs baseline resilience profiles (scale=%s, baseline=%d runs)\n",
		cfg.Scale, cfg.baselineRuns())
	fmt.Fprintf(w, "%-16s %8s | %23s | %23s | %6s\n",
		"Kernel", "#inject", "pruned msk/sdc/other", "baseline msk/sdc/other", "maxΔpp")
	var sumDelta [fault.NumClasses]float64
	var n int
	for _, spec := range kernels.TableIKernels() {
		if !cfg.selected(spec.Meta.Name()) {
			continue
		}
		inst, err := buildPrepared(spec.Meta.Name(), cfg)
		if err != nil {
			return err
		}
		plan, err := core.BuildPlan(inst.Target, core.Options{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		est, err := plan.Estimate(cfg.campaign())
		if err != nil {
			return err
		}
		rng := stats.NewRNG(cfg.Seed).Split("fig9" + spec.Meta.Name())
		res, err := cfg.uniform(inst.Target, rng, cfg.baselineRuns(), fault.ModelDestValue)
		if err != nil {
			return err
		}
		base := res.Dist
		fmt.Fprintf(w, "%-16s %8d | %s | %s | %6.2f\n",
			spec.Meta.Name(), len(plan.Sites), distRow(est), distRow(base),
			est.MaxClassDelta(base))
		for c := fault.Class(0); c < fault.NumClasses; c++ {
			sumDelta[c] += math.Abs(est.Pct(c) - base.Pct(c))
		}
		n++
	}
	if n > 0 {
		fmt.Fprintf(w, "average |Δ|: masked %.2f  sdc %.2f  other %.2f (paper: 1.68 / 1.90 / 1.64)\n",
			sumDelta[fault.ClassMasked]/float64(n),
			sumDelta[fault.ClassSDC]/float64(n),
			sumDelta[fault.ClassOther]/float64(n))
	}
	return nil
}

// fig10Class buckets kernels the way the paper's Fig. 10 splits its
// subplots.
func fig10Class(plan *core.Plan) string {
	if len(plan.ThreadGroups) == 1 {
		return "(c) single representative - instruction pruning not applicable"
	}
	if plan.InstPrune.PrunedInsts == 0 {
		return "(b) without instruction-wise commonality"
	}
	return "(a) with instruction-wise commonality"
}

// RunFig10 reproduces Fig. 10: the fault-site population after each
// progressive pruning stage, normalized to the exhaustive space, with the
// final pruned count next to the baseline campaign size.
func RunFig10(cfg Config) error {
	w := cfg.out()
	fmt.Fprintf(w, "Fig. 10: fault sites surviving each pruning stage (scale=%s)\n", cfg.Scale)
	fmt.Fprintf(w, "%-16s %12s %10s %10s %10s %8s %9s %9s  %s\n",
		"Kernel", "exhaustive", "thread", "inst", "loop", "bit",
		"log10red", "baseline", "class")
	for _, spec := range kernels.TableIKernels() {
		if !cfg.selected(spec.Meta.Name()) {
			continue
		}
		inst, err := buildPrepared(spec.Meta.Name(), cfg)
		if err != nil {
			return err
		}
		plan, err := core.BuildPlan(inst.Target, core.Options{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		s := plan.Stages
		fmt.Fprintf(w, "%-16s %12d %10d %10d %10d %8d %9.2f %9d  %s\n",
			spec.Meta.Name(), s.Exhaustive, s.Thread, s.Inst, s.Loop, s.Bit,
			math.Log10(plan.Reduction()), cfg.baselineRuns(), fig10Class(plan))
		textplot.LogBars(w,
			[]string{"  exhaustive", "  +thread", "  +inst", "  +loop", "  +bit"},
			[]float64{float64(s.Exhaustive), float64(s.Thread),
				float64(s.Inst), float64(s.Loop), float64(s.Bit)}, 48)
	}
	return nil
}
