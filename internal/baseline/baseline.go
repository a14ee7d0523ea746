// Package baseline implements the statistical random-injection campaign the
// paper evaluates its pruning against (Section II-D): uniform sampling over
// the exhaustive fault-site space, sized by Eq. 2 up front, or a prefix of a
// campaign's own site list cut where the measured class proportions reach a
// target confidence interval. It is the in-repo stand-in for
// LLFI-GPU/SASSIFI-style sampled injection, and the source of the "ground
// truth" profiles in the experiments.
package baseline

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/stats"
)

// Every baseline is at the paper's 95% confidence; Fixed plans for its ±3%
// margin, and Adaptive looks at its margins every adaptiveStep sites.
const (
	confidence   = 0.95
	fixedMargin  = 0.03
	adaptiveStep = 250
)

// Options configures a fixed-size baseline campaign.
type Options struct {
	// MaxRuns caps the campaign (0 = the Eq. 2 size).
	MaxRuns int
	// Seed drives sampling.
	Seed int64
	// Campaign tunes the injection workers.
	Campaign fault.CampaignOptions
}

// Result is the outcome of a baseline campaign.
type Result struct {
	// Dist is the sampled resilience profile.
	Dist fault.Dist
	// Runs is the number of injection experiments executed.
	Runs int
	// Margins is the achieved Wilson half-width per class.
	Margins [fault.NumClasses]float64
	// Planned is the Eq. 2 sample size over the dest-value site space for
	// the campaign's margin, for comparison with the achieved Runs.
	Planned int64
	// Stats aggregates the campaign execution stats (all steps of an
	// adaptive campaign).
	Stats fault.CampaignStats
}

// classCounts is the number of samples in each class of a distribution built
// from unit-weight samples, where every outcome weight is a whole count.
func classCounts(d fault.Dist) (n [fault.NumClasses]int64) {
	for o, w := range d.W {
		n[fault.Outcome(o).Class()] += int64(math.Round(w))
	}
	return n
}

// classMargins computes the per-class 95% Wilson half-widths of a
// distribution built from unit-weight samples.
func classMargins(d fault.Dist) [fault.NumClasses]float64 {
	var m [fault.NumClasses]float64
	for c, successes := range classCounts(d) {
		m[c] = stats.MarginAt(successes, d.N, confidence)
	}
	return m
}

// planned is the Eq. 2 size of a campaign over space at margin.
func planned(space *fault.Space, margin float64) int64 {
	return stats.SampleSize(space.Total(), margin, stats.TStat(confidence), 0.5)
}

// Fixed runs the paper's fixed-size campaign: the Eq. 2 sample size for 95%
// confidence and a ±3% margin over the target's fault-site space (capped by
// MaxRuns when set), drawn from the seed's "baseline-fixed" stream. The
// target is Prepared if needed (through its fault.PreparedCache when one is
// attached, sharing the golden run with the pruned pipeline it is compared
// against).
func Fixed(t *fault.Target, opt Options) (*Result, error) {
	if err := t.Prepare(); err != nil {
		return nil, err
	}
	space := fault.NewSpace(t.Profile())
	out := &Result{Planned: planned(space, fixedMargin)}
	out.Runs = int(out.Planned)
	if opt.MaxRuns > 0 && opt.MaxRuns < out.Runs {
		out.Runs = opt.MaxRuns
	}
	rng := stats.NewRNG(opt.Seed).Split("baseline-fixed")
	sites := space.Random(rng, out.Runs)
	res, err := fault.Run(t, fault.Uniform(sites), opt.Campaign)
	if err != nil {
		return nil, err
	}
	out.Dist, out.Stats = res.Dist, res.Stats
	out.Margins = classMargins(out.Dist)
	return out, nil
}

// Adaptive is a stopping rule over p's own campaign: it runs p.Sites() in
// order, adaptiveStep sites at a time, and stops at the first step after
// which every class's 95% Wilson half-width is at most margin, or when the
// list (Spec.Sites long) is exhausted. The site list is prefix-stable, so
// the result is exactly the campaign of the same spec with Sites = Runs.
// Because the achieved margin depends on the true proportions (Eq. 3's
// p(1-p) term), it typically stops well below the Eq. 4 worst-case size —
// the practical advantage over fixed planning at p=0.5.
func Adaptive(p *campaign.Prepared, margin float64, opt fault.CampaignOptions) (*Result, error) {
	sites := p.Sites()
	out := &Result{Planned: planned(fault.NewSpace(p.Target.Profile()), margin)}
	for out.Runs < len(sites) {
		step := sites[out.Runs:min(out.Runs+adaptiveStep, len(sites))]
		res, err := fault.RunModel(p.Target, step, p.Model, opt)
		if err != nil {
			return nil, err
		}
		out.Dist.Merge(res.Dist)
		out.Stats.Merge(res.Stats)
		out.Runs += len(step)
		out.Margins = classMargins(out.Dist)
		if slices.Max(out.Margins[:]) <= margin {
			break
		}
	}
	return out, nil
}

// String renders the result for reports.
func (r *Result) String() string {
	return fmt.Sprintf("%s after %d runs (planned %d; margins %.2f/%.2f/%.2f pp)",
		r.Dist, r.Runs, r.Planned,
		100*r.Margins[fault.ClassMasked],
		100*r.Margins[fault.ClassSDC],
		100*r.Margins[fault.ClassOther])
}
