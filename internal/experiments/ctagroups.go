package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/textplot"
)

// boxplotGroupThreshold is the masked-percentage distance under which two
// CTA boxplots classify together in the injection-driven grouping (Fig. 2).
const boxplotGroupThreshold = 10.0

// findTargetPC locates the n-th occurrence of an opcode in a program — the
// paper's CTA study manually picks target instructions by line and opcode
// ("line=34, opcode=mad"); occurrence order is the deterministic equivalent.
func findTargetPC(inst *kernels.Instance, op isa.Opcode, occurrence int) (int, error) {
	seen := 0
	for pc := range inst.Target.Prog.Instrs {
		if inst.Target.Prog.Instrs[pc].Op == op {
			if seen == occurrence {
				return pc, nil
			}
			seen++
		}
	}
	return 0, fmt.Errorf("experiments: %s has no occurrence %d of %s",
		inst.Meta.Name(), occurrence, op)
}

// fig2Kernel describes one subject of the CTA grouping study.
type fig2Kernel struct {
	name       string
	op         isa.Opcode
	occurrence int
}

// fig2Kernels mirrors the paper's two subjects: 2DCONV (a mad) and HotSpot
// (an add), both from the middle of the compute path.
var fig2Kernels = []fig2Kernel{
	{name: "2DCONV K1", op: isa.OpMad, occurrence: 3},
	{name: "HotSpot K1", op: isa.OpAdd, occurrence: 7},
}

// ctaMaskedBoxplots injects into every dynamic occurrence of the target
// instruction (a sampled subset of bits per occurrence) across all threads
// and summarizes the per-thread masked percentage per CTA.
func ctaMaskedBoxplots(cfg Config, inst *kernels.Instance, pc int, bitsPerSite int) ([]stats.Boxplot, error) {
	prof := inst.Target.Profile()
	space := fault.NewSpace(prof)

	// Collect sites thread by thread so per-thread percentages fall out.
	type threadSpan struct{ lo, hi, thread int }
	var sites []fault.Site
	var spans []threadSpan
	positions := core.BitPositions(32, bitsPerSite)
	for t := range prof.Threads {
		lo := len(sites)
		for _, s := range space.InstructionSites(pc, []int{t}) {
			keep := false
			for _, b := range positions {
				if s.Bit == b {
					keep = true
					break
				}
			}
			if keep {
				sites = append(sites, s)
			}
		}
		if len(sites) > lo {
			spans = append(spans, threadSpan{lo: lo, hi: len(sites), thread: t})
		}
	}
	res, err := fault.Run(inst.Target, fault.Uniform(sites), cfg.campaign())
	if err != nil {
		return nil, err
	}

	perCTA := make([][]float64, prof.NumCTAs())
	for _, sp := range spans {
		masked := 0
		for i := sp.lo; i < sp.hi; i++ {
			if res.PerSite[i].Class() == fault.ClassMasked {
				masked++
			}
		}
		cta := prof.CTAOf(sp.thread)
		perCTA[cta] = append(perCTA[cta], 100*float64(masked)/float64(sp.hi-sp.lo))
	}
	boxes := make([]stats.Boxplot, len(perCTA))
	for i, vals := range perCTA {
		boxes[i] = stats.NewBoxplot(vals)
	}
	return boxes, nil
}

// greedyGroupBoxplots assigns CTAs to groups by boxplot distance, in launch
// order, mirroring how the paper reads its Fig. 2/3 color bands.
func greedyGroupBoxplots(boxes []stats.Boxplot, threshold float64) []int {
	groups := make([]int, len(boxes))
	var reps []stats.Boxplot
	for i, b := range boxes {
		assigned := -1
		for g, rb := range reps {
			if b.Distance(rb) <= threshold {
				assigned = g
				break
			}
		}
		if assigned < 0 {
			assigned = len(reps)
			reps = append(reps, b)
		}
		groups[i] = assigned
	}
	return groups
}

func printBoxplotTable(cfg Config, title string, boxes []stats.Boxplot, groups []int) {
	w := cfg.out()
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-5s %-6s %8s %8s %8s %8s %8s %8s\n",
		"CTA", "Group", "Min", "Q1", "Median", "Q3", "Max", "Mean")
	labels := make([]string, len(boxes))
	tags := make([]string, len(boxes))
	for i, b := range boxes {
		labels[i] = fmt.Sprintf("C%d", i)
		tags[i] = fmt.Sprintf("G-%d", groups[i]+1)
		fmt.Fprintf(w, "C%-4d %-6s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f\n",
			i, tags[i], b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
	}
	textplot.Boxplots(w, labels, boxes, tags, 52)
}

// RunFig2 reproduces Fig. 2: CTAs grouped by the distribution of masked
// outcomes when faults are injected at one target instruction.
func RunFig2(cfg Config) error {
	for _, fk := range fig2Kernels {
		if !cfg.selected(fk.name) {
			continue
		}
		inst, err := buildPrepared(fk.name, cfg)
		if err != nil {
			return err
		}
		pc, err := findTargetPC(inst, fk.op, fk.occurrence)
		if err != nil {
			return err
		}
		boxes, err := ctaMaskedBoxplots(cfg, inst, pc, 8)
		if err != nil {
			return err
		}
		groups := greedyGroupBoxplots(boxes, boxplotGroupThreshold)
		printBoxplotTable(cfg, fmt.Sprintf(
			"Fig. 2 (%s): per-CTA masked%% boxplots, target pc=%d opcode=%s",
			fk.name, pc, fk.op), boxes, groups)
	}
	return nil
}

// RunFig3 reproduces Fig. 3: the same CTAs grouped by their thread-iCnt
// distributions — one fault-free run instead of hundreds of thousands of
// injections — and shows the grouping agrees with the exact multiset
// classification the pruning pipeline uses.
func RunFig3(cfg Config) error {
	w := cfg.out()
	for _, fk := range fig2Kernels {
		if !cfg.selected(fk.name) {
			continue
		}
		inst, err := buildPrepared(fk.name, cfg)
		if err != nil {
			return err
		}
		prof := inst.Target.Profile()
		boxes := make([]stats.Boxplot, prof.NumCTAs())
		for c := range boxes {
			icnts := prof.CTAICnts(c)
			vals := make([]float64, len(icnts))
			for i, x := range icnts {
				vals[i] = float64(x)
			}
			boxes[c] = stats.NewBoxplot(vals)
		}
		exact := core.GroupCTAs(prof)
		exactOf := make([]int, prof.NumCTAs())
		for gi, g := range exact {
			for _, m := range g.Members {
				exactOf[m] = gi
			}
		}
		printBoxplotTable(cfg, fmt.Sprintf(
			"Fig. 3 (%s): per-CTA thread iCnt boxplots", fk.name), boxes, exactOf)
		fmt.Fprintf(w, "iCnt-multiset grouping: %d groups over %d CTAs\n",
			len(exact), prof.NumCTAs())
	}
	return nil
}

// runGroupTable prints a Table III/IV-style CTA+thread group table.
func runGroupTable(cfg Config, name, caption string) error {
	w := cfg.out()
	inst, err := buildPrepared(name, cfg)
	if err != nil {
		return err
	}
	plan, err := core.BuildPlan(inst.Target, core.Options{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	prof := inst.Target.Profile()
	fmt.Fprintln(w, caption)
	fmt.Fprintf(w, "%-8s %10s %10s   %-8s %10s %12s\n",
		"CTAGrp", "Avg.iCnt", "CTAProp%", "ThdGrp", "Thd.iCnt", "ThdProp%")
	for gi, g := range plan.CTAGroups {
		fmt.Fprintf(w, "C-%-6d %10.1f %9.2f%%\n", gi+1, g.AvgICnt,
			100*g.Proportion(prof.NumCTAs()))
		tgIdx := 0
		for _, tg := range plan.ThreadGroups {
			if tg.CTAGroup != gi {
				continue
			}
			tgIdx++
			fmt.Fprintf(w, "%-8s %10s %10s   T-%d%-5d %10d %11.2f%%\n",
				"", "", "", gi+1, tgIdx, tg.ICnt,
				100*float64(tg.InCTACount)/float64(prof.ThreadsPerCTA))
		}
	}
	return nil
}

// RunTable3 reproduces Table III (2DCONV CTA and thread groups).
func RunTable3(cfg Config) error {
	return runGroupTable(cfg, "2DCONV K1", "Table III: CTA and thread groups for 2DCONV")
}

// RunTable4 reproduces Table IV (HotSpot CTA and thread groups).
func RunTable4(cfg Config) error {
	return runGroupTable(cfg, "HotSpot K1", "Table IV: CTA and thread groups for HotSpot")
}

// RunFig4 reproduces Fig. 4: inside one CTA, the per-thread masked
// percentage tracks the per-thread iCnt, validating iCnt as the thread
// classifier. Reported per thread group (the paper plots per-thread dots).
func RunFig4(cfg Config) error {
	w := cfg.out()
	const sitesPerThread = 24
	for _, name := range []string{"2DCONV K1", "HotSpot K1"} {
		if !cfg.selected(name) {
			continue
		}
		inst, err := buildPrepared(name, cfg)
		if err != nil {
			return err
		}
		prof := inst.Target.Profile()
		space := fault.NewSpace(prof)
		ctaGroups := core.GroupCTAs(prof)
		groups := core.GroupThreads(prof, ctaGroups, core.GroupingOptions{})

		// Use the most populous CTA group's representative CTA (the paper
		// picks 2DCONV C-2 and HotSpot C-9 by hand).
		best := 0
		for gi, g := range ctaGroups {
			if len(g.Members) > len(ctaGroups[best].Members) {
				best = gi
			}
		}
		lo, hi := prof.CTAThreads(ctaGroups[best].Rep)

		// A stratified draw — sitesPerThread distinct sites from every
		// thread of the CTA — not a uniform campaign, so not cfg.uniform.
		rng := stats.NewRNG(cfg.Seed).Split("fig4" + name)
		type agg struct {
			masked, total int
			count         int
		}
		perGroup := map[int]*agg{}
		groupOf := func(thread int) int {
			for gi, g := range groups {
				if g.CTAGroup != best {
					continue
				}
				if prof.Threads[thread].ICnt == g.ICnt {
					return gi
				}
			}
			return -1
		}
		var sites []fault.Site
		var owner []int
		for t := lo; t < hi; t++ {
			all := space.ThreadSites(t, nil)
			for _, i := range rng.SampleInts(len(all), sitesPerThread) {
				sites = append(sites, all[i])
				owner = append(owner, groupOf(t))
			}
		}
		res, err := fault.Run(inst.Target, fault.Uniform(sites), cfg.campaign())
		if err != nil {
			return err
		}
		for i, o := range res.PerSite {
			a := perGroup[owner[i]]
			if a == nil {
				a = &agg{}
				perGroup[owner[i]] = a
			}
			a.total++
			if o.Class() == fault.ClassMasked {
				a.masked++
			}
		}
		fmt.Fprintf(w, "Fig. 4 (%s, CTA group C-%d): thread groups vs masked%%\n", name, best+1)
		fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "ThdGrp", "iCnt", "Threads", "Masked%")
		idx := 0
		for gi, g := range groups {
			if g.CTAGroup != best {
				continue
			}
			idx++
			a := perGroup[gi]
			if a == nil || a.total == 0 {
				continue
			}
			fmt.Fprintf(w, "T-%-6d %10d %10d %9.1f%%\n",
				idx, g.ICnt, g.InCTACount, 100*float64(a.masked)/float64(a.total))
		}
	}
	return nil
}
