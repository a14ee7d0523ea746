package advisor

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/report"
	"repro/internal/stats"
)

// groupAcc accumulates one ranking group's outcomes. Weighted masses are
// accumulated in campaign-index order (float addition is not associative,
// and byte-identical advice across the live and journal paths depends on
// a fixed order).
type groupAcc struct {
	samples int64
	sumW    float64
	sumW2   float64
	masked  float64
	sdc     float64
	due     float64
	eng     float64
}

func (g *groupAcc) add(o fault.Outcome, w float64) {
	g.samples++
	g.sumW += w
	g.sumW2 += w * w
	switch o {
	case fault.Masked:
		g.masked += w
	case fault.SDC:
		g.sdc += w
	case fault.Crash, fault.Hang:
		g.due += w
	case fault.EngineError:
		g.eng += w
	}
}

func (g *groupAcc) total() float64 { return g.masked + g.sdc + g.due + g.eng }

// stats renders the accumulator as report.RankStats at the given
// confidence level under the given ranking criterion.
func (g *groupAcc) stats(rankBy string, confidence float64) report.RankStats {
	total := g.total()
	pct := func(v float64) float64 {
		if total == 0 {
			return 0
		}
		return v / total * 100
	}
	// The interval's honest sample size is the Kish effective sample size,
	// not the record count: under pruned-campaign weights a group's heavy
	// sites dominate its rates, and pretending every record is a full
	// observation would shrink the bounds below what the data supports.
	// For uniform weights ESS equals the count exactly, so unweighted
	// campaigns keep their classic count-based Wilson interval bit for bit
	// (DESIGN.md §3.10).
	ess := stats.KishESS(g.sumW, g.sumW2)
	var pSDC float64
	if total > 0 {
		pSDC = g.sdc / total
	}
	lo, hi := stats.WilsonProportionInterval(pSDC, ess, confidence)
	rs := report.RankStats{
		Samples:      g.samples,
		EffectiveN:   ess,
		Weight:       total,
		MaskedPct:    pct(g.masked),
		SDCPct:       pct(g.sdc),
		DUEPct:       pct(g.due),
		EngineErrPct: pct(g.eng),
		SDCLoPct:     lo * 100,
		SDCHiPct:     hi * 100,
	}
	switch rankBy {
	case RankDUE:
		rs.Score = rs.DUEPct
	case RankSeverity:
		rs.Score = rs.SDCPct + 0.25*rs.DUEPct
	default:
		rs.Score = rs.SDCPct
	}
	return rs
}

// Analyze aggregates an attributed campaign into per-thread and
// per-instruction vulnerability rankings and the simulated protection
// frontier. The result depends only on Input and Options — both the live
// and journal paths call it with identical inputs for equal campaigns, so
// the JSON document (report.Write of the return value) is byte-identical.
func Analyze(in *Input, opt Options) (*report.Advice, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return nil, err
	}
	if in.Prof == nil {
		return nil, fmt.Errorf("advisor: input has no profile")
	}
	if len(in.Records) == 0 {
		return nil, fmt.Errorf("advisor: no outcome records to analyze")
	}

	// One pass in record order: overall distribution plus both groupings.
	var dist fault.Dist
	threads := map[int]*groupAcc{}
	insts := map[int]*groupAcc{}
	for _, r := range in.Records {
		dist.Add(r.Outcome, r.Weight)
		tg := threads[r.Thread]
		if tg == nil {
			tg = &groupAcc{}
			threads[r.Thread] = tg
		}
		tg.add(r.Outcome, r.Weight)
		if r.PC < 0 || r.PC >= len(in.Prof.Prog.Instrs) {
			return nil, fmt.Errorf("advisor: record names PC %d but the program has %d instructions",
				r.PC, len(in.Prof.Prog.Instrs))
		}
		ig := insts[r.PC]
		if ig == nil {
			ig = &groupAcc{}
			insts[r.PC] = ig
		}
		ig.add(r.Outcome, r.Weight)
	}

	// Per-instruction dynamic counts, the overhead model's denominator.
	dynCount := make([]int64, len(in.Prof.Prog.Instrs))
	var totalDyn int64
	for t := range in.Prof.Threads {
		for _, entry := range in.Prof.Threads[t].PCs {
			dynCount[gpusim.PC(entry)]++
			totalDyn++
		}
	}
	if totalDyn == 0 {
		return nil, fmt.Errorf("advisor: profile has no dynamic instructions")
	}

	adv := &report.Advice{
		Fingerprint: in.Header,
		RankBy:      opt.RankBy,
		Confidence:  opt.Confidence,
		DMRSound:    DMRSound(in.Model),
		Profile:     report.NewProfile(dist),
	}

	perCTA := in.Prof.ThreadsPerCTA
	for _, t := range sortedKeys(threads) {
		adv.Threads = append(adv.Threads, report.ThreadRank{
			Thread:    t,
			CTA:       t / perCTA,
			RankStats: threads[t].stats(opt.RankBy, opt.Confidence),
		})
	}
	sortRanked(adv.Threads, func(r report.ThreadRank) (float64, int) { return r.Score, r.Thread })

	for _, pc := range sortedKeys(insts) {
		adv.Instructions = append(adv.Instructions, report.InstRank{
			PC:          pc,
			Instr:       in.Prof.Prog.Instrs[pc].String(),
			DynCount:    dynCount[pc],
			OverheadPct: overheadPct(dynCount[pc], totalDyn),
			RankStats:   insts[pc].stats(opt.RankBy, opt.Confidence),
		})
	}
	sortRanked(adv.Instructions, func(r report.InstRank) (float64, int) { return r.Score, r.PC })

	adv.Frontier = frontier(insts, dynCount, totalDyn, dist, opt.Budgets)
	return adv, nil
}

// overheadPct is the modeled cost of protecting one static instruction:
// duplicate-and-compare re-executes the instruction and adds a comparison,
// two extra dynamic instructions per protected execution.
func overheadPct(dyn, totalDyn int64) float64 {
	return float64(2*dyn) / float64(totalDyn) * 100
}

func sortedKeys(m map[int]*groupAcc) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// sortRanked orders by descending score, breaking ties by ascending key so
// the ranking is total (map iteration order never shows through).
func sortRanked[T any](s []T, key func(T) (float64, int)) {
	sort.SliceStable(s, func(a, b int) bool {
		sa, ka := key(s[a])
		sb, kb := key(s[b])
		if sa != sb {
			return sa > sb
		}
		return ka < kb
	})
}

// frontier simulates selective protection. Instructions are protected
// greedily by SDC mass per unit overhead (the classic knapsack-relaxation
// order); protecting an instruction converts its entire SDC mass to
// detected and leaves every other outcome untouched — the composition
// argument for why per-instruction deltas sum is in DESIGN.md §3.10. The
// frontier always ranks by SDC regardless of Options.RankBy: detection is
// what duplicate-and-compare buys, and DUE mass is already detected.
//
// With no budgets, one point per greedy prefix is emitted (point 0 = no
// protection). With budgets, each budget gets the largest prefix whose
// modeled overhead fits. Either way resilience is monotone in budget by
// construction: a larger budget admits a superset prefix, and each
// protected instruction moves SDC mass to detected without creating any.
func frontier(insts map[int]*groupAcc, dynCount []int64, totalDyn int64,
	dist fault.Dist, budgets []float64) []report.FrontierPoint {
	type cand struct {
		pc   int
		sdcW float64
		cost float64
	}
	cands := make([]cand, 0, len(insts))
	for pc, g := range insts {
		cands = append(cands, cand{pc: pc, sdcW: g.sdc, cost: overheadPct(dynCount[pc], totalDyn)})
	}
	// Greedy order: SDC mass per unit overhead, descending; ties by
	// ascending PC. Every sampled PC executed at least once, so cost > 0.
	sort.Slice(cands, func(a, b int) bool {
		ra := cands[a].sdcW / cands[a].cost
		rb := cands[b].sdcW / cands[b].cost
		if ra != rb {
			return ra > rb
		}
		return cands[a].pc < cands[b].pc
	})

	totalW := dist.Total()
	point := func(k int, budget *float64) report.FrontierPoint {
		var overhead, detectedW float64
		var pcs []int
		for _, c := range cands[:k] {
			overhead += c.cost
			detectedW += c.sdcW
			pcs = append(pcs, c.pc)
		}
		p := report.FrontierPoint{
			BudgetPct:   budget,
			Protected:   k,
			PCs:         pcs,
			OverheadPct: overhead,
		}
		if totalW > 0 {
			p.SDCPct = (dist.W[fault.SDC] - detectedW) / totalW * 100
			p.DetectedPct = detectedW / totalW * 100
		}
		return p
	}

	if len(budgets) == 0 {
		out := make([]report.FrontierPoint, 0, len(cands)+1)
		for k := 0; k <= len(cands); k++ {
			out = append(out, point(k, nil))
		}
		return out
	}
	out := make([]report.FrontierPoint, 0, len(budgets))
	for _, b := range budgets {
		k := 0
		overhead := 0.0
		for k < len(cands) && overhead+cands[k].cost <= b {
			overhead += cands[k].cost
			k++
		}
		budget := b
		out = append(out, point(k, &budget))
	}
	return out
}
