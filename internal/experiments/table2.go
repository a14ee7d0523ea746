package experiments

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/stats"
)

// RunTable2 reproduces Table II: how many fault-injection experiments GEMM
// needs at different confidence/error targets (Eq. 2-4), the estimated
// wall-clock at the paper's nominal one minute per experiment, and the
// masked-output percentage actually measured at each sample size. The paper
// contrasts 60K runs (99.8%, ±0.63%) against 1,062 runs (95%, ±3%) to show
// that the cheap campaign misestimates the profile.
func RunTable2(cfg Config) error {
	w := cfg.out()
	inst, err := buildPrepared("GEMM K1", cfg)
	if err != nil {
		return err
	}
	total := fault.NewSpace(inst.Target.Profile()).Total()

	type row struct {
		conf   float64
		margin float64
	}
	rows := []row{
		{0.998, 0.0063},
		{0.95, 0.03},
	}

	fmt.Fprintf(w, "Table II: fault sites and statistics for GEMM (scale=%s)\n", cfg.Scale)
	fmt.Fprintf(w, "%-12s %-8s %12s %14s %12s\n",
		"Confidence", "Margin", "#FaultSites", "Est.Time", "Masked(%)")
	fmt.Fprintf(w, "%-12s %-8s %12d %14s %12s\n",
		"100%", "0.0%", total, estTime(total), "?")

	rng := stats.NewRNG(cfg.Seed)
	for _, r := range rows {
		t := stats.TStat(r.conf)
		n := stats.SampleSize(total, r.margin, t, 0.5)
		// The reproduction's simulator is fast enough to actually run the
		// campaign (capped by cfg.BaselineRuns to keep the small scale
		// snappy); the paper could only run the 60K case.
		runs := int(n)
		if runs > cfg.baselineRuns() {
			runs = cfg.baselineRuns()
		}
		res, err := cfg.uniform(inst.Target, rng.Split(fmt.Sprintf("table2-%v", r.conf)), runs, fault.ModelDestValue)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %-8s %12d %14s %11.1f%%  (measured over %d runs)\n",
			fmt.Sprintf("%.1f%%", r.conf*100),
			fmt.Sprintf("±%.2f%%", r.margin*100),
			n, estTime(n), res.Dist.Pct(fault.ClassMasked), runs)
	}
	return nil
}

// estTime renders the paper's nominal cost of one minute per experiment.
func estTime(n int64) string {
	d := time.Duration(n) * time.Minute
	switch {
	case d > 365*24*time.Hour:
		return fmt.Sprintf("%.0f years", d.Hours()/24/365)
	case d > 48*time.Hour:
		return fmt.Sprintf("%.0f days", d.Hours()/24)
	default:
		return fmt.Sprintf("%.0f hours", d.Hours())
	}
}
