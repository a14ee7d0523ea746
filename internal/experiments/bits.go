package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
)

// fig78Kernels mirrors the paper's bit-study subjects.
var fig78Kernels = []string{"2DCONV K1", "MVT K1"}

// RunFig7 reproduces Fig. 7: the outcome distribution per destination
// register type (.u32-style 32-bit registers vs 4-bit .pred registers) and
// bit-position section. Higher 32-bit sections produce fewer masked
// outcomes; in .pred registers only the zero flag (bit 0) matters.
func RunFig7(cfg Config) error {
	w := cfg.out()
	for _, name := range fig78Kernels {
		if !cfg.selected(name) {
			continue
		}
		inst, err := buildPrepared(name, cfg)
		if err != nil {
			return err
		}
		// Stages 1-3 only: keep every bit position and every predicate
		// flag so the sections can be compared.
		plan, err := core.BuildPlan(inst.Target, core.Options{
			Seed:             cfg.Seed,
			BitSamples:       -1,
			DisablePredPrune: true,
		})
		if err != nil {
			return err
		}
		res, err := fault.Run(plan.Target, plan.Sites, cfg.campaign())
		if err != nil {
			return err
		}

		type key struct {
			pred    bool
			section int
		}
		agg := map[key]*fault.Dist{}
		prof := inst.Target.Profile()
		for i, ws := range plan.Sites {
			bits := prof.SiteBitsOf(ws.Site.Thread, ws.Site.DynInst)
			k := key{pred: bits == isa.PredBits}
			if k.pred {
				k.section = ws.Site.Bit
			} else {
				k.section = ws.Site.Bit / 8
			}
			d := agg[k]
			if d == nil {
				d = &fault.Dist{}
				agg[k] = d
			}
			d.Add(res.PerSite[i], ws.Weight)
		}

		fmt.Fprintf(w, "Fig. 7 (%s): outcomes by register type and bit section\n", name)
		fmt.Fprintf(w, "%-10s %-10s | %7s %7s %7s\n", "RegType", "Bits", "masked", "sdc", "other")
		for s := 0; s < 4; s++ {
			if d := agg[key{pred: false, section: s}]; d != nil {
				fmt.Fprintf(w, "%-10s %-10s | %s\n", ".u32",
					fmt.Sprintf("%d-%d", 8*s, 8*s+7), distRow(*d))
			}
		}
		for b := 0; b < isa.PredBits; b++ {
			if d := agg[key{pred: true, section: b}]; d != nil {
				fmt.Fprintf(w, "%-10s %-10d | %s\n", ".pred", b, distRow(*d))
			}
		}
	}
	return nil
}

// RunFig8 reproduces Fig. 8: the estimated masked/SDC percentages as the
// number of sampled bit positions per 32-bit register grows from 4 to all
// 32. The paper finds 16 samples sufficient.
func RunFig8(cfg Config) error {
	w := cfg.out()
	for _, name := range fig78Kernels {
		if !cfg.selected(name) {
			continue
		}
		inst, err := buildPrepared(name, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig. 8 (%s): outcomes vs sampled bit positions\n", name)
		fmt.Fprintf(w, "%8s %9s | %7s %7s %7s\n", "#bits", "#sites", "masked", "sdc", "other")
		for _, samples := range []int{4, 8, 16, -1} {
			plan, err := core.BuildPlan(inst.Target, core.Options{
				Seed:       cfg.Seed,
				BitSamples: samples,
			})
			if err != nil {
				return err
			}
			d, err := plan.Estimate(cfg.campaign())
			if err != nil {
				return err
			}
			label := fmt.Sprintf("%d", samples)
			if samples < 0 {
				label = "all"
			}
			fmt.Fprintf(w, "%8s %9d | %s\n", label, len(plan.Sites), distRow(d))
		}
	}
	return nil
}
