// Package baseline implements the statistical random-injection campaign the
// paper evaluates its pruning against (Section II-D): uniform sampling over
// the exhaustive fault-site space, sized by Eq. 2-4 up front or adaptively
// grown until the measured class proportions reach a target confidence
// interval. It is the in-repo stand-in for LLFI-GPU/SASSIFI-style sampled
// injection, and the source of the "ground truth" profiles in the
// experiments.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/stats"
)

// Options configures a baseline campaign.
type Options struct {
	// Confidence is the two-sided confidence level (0 = 0.95).
	Confidence float64
	// Margin is the target half-width of every class's Wilson interval,
	// in proportion units (0 = 0.03, the paper's 95%/±3% cheap campaign).
	Margin float64
	// MaxRuns caps the adaptive campaign (0 = the Eq. 4 worst case for the
	// chosen confidence and margin).
	MaxRuns int
	// Batch is the number of runs added per adaptive step (0 = 250).
	Batch int
	// Seed drives sampling.
	Seed int64
	// Campaign tunes the injection workers.
	Campaign fault.CampaignOptions
}

func (o Options) confidence() float64 {
	if o.Confidence == 0 {
		return 0.95
	}
	return o.Confidence
}

func (o Options) margin() float64 {
	if o.Margin == 0 {
		return 0.03
	}
	return o.Margin
}

// Result is the outcome of a baseline campaign.
type Result struct {
	// Dist is the sampled resilience profile.
	Dist fault.Dist
	// Runs is the number of injection experiments executed.
	Runs int
	// Margins is the achieved Wilson half-width per class.
	Margins [fault.NumClasses]float64
	// Planned is the Eq. 2 sample size for the requested targets, for
	// comparison with the adaptively achieved Runs.
	Planned int64
	// Stats aggregates the campaign execution stats (all batches for an
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

// classMargins computes the per-class Wilson half-widths of a distribution
// built from unit-weight samples.
func classMargins(d fault.Dist, confidence float64) [fault.NumClasses]float64 {
	var m [fault.NumClasses]float64
	for c, successes := range classCounts(d) {
		m[c] = stats.MarginAt(successes, d.N, confidence)
	}
	return m
}

// Fixed runs the paper's fixed-size campaign: the Eq. 2 sample size for the
// requested confidence/margin over the target's fault-site space (capped by
// MaxRuns when set). The target is Prepared if needed (through its
// fault.PreparedCache when one is attached, sharing the golden run with the
// pruned pipeline it is compared against).
func Fixed(t *fault.Target, opt Options) (*Result, error) {
	if err := t.Prepare(); err != nil {
		return nil, err
	}
	space := fault.NewSpace(t.Profile())
	planned := stats.SampleSize(space.Total(), opt.margin(), stats.TStat(opt.confidence()), 0.5)
	runs := planned
	if opt.MaxRuns > 0 && int64(opt.MaxRuns) < runs {
		runs = int64(opt.MaxRuns)
	}
	rng := stats.NewRNG(opt.Seed).Split("baseline-fixed")
	sites := space.Random(rng, int(runs))
	res, err := fault.Run(t, fault.Uniform(sites), opt.Campaign)
	if err != nil {
		return nil, err
	}
	return &Result{
		Dist:    res.Dist,
		Runs:    int(runs),
		Margins: classMargins(res.Dist, opt.confidence()),
		Planned: planned,
		Stats:   res.Stats,
	}, nil
}

// Adaptive grows the campaign in batches until every class's Wilson
// interval half-width is at most the target margin, or the run cap is hit.
// Because the achieved margin depends on the true proportions (Eq. 3's
// p(1-p) term), adaptive campaigns typically stop well below the Eq. 4
// worst-case size — the practical advantage over fixed planning at p=0.5.
func Adaptive(t *fault.Target, opt Options) (*Result, error) {
	if err := t.Prepare(); err != nil {
		return nil, err
	}
	space := fault.NewSpace(t.Profile())
	planned := stats.SampleSize(space.Total(), opt.margin(), stats.TStat(opt.confidence()), 0.5)
	maxRuns := opt.MaxRuns
	if maxRuns <= 0 {
		maxRuns = int(stats.SampleSizeWorstCase(opt.margin(), stats.TStat(opt.confidence())))
	}
	batch := opt.Batch
	if batch <= 0 {
		batch = 250
	}
	if batch > maxRuns {
		batch = maxRuns
	}

	rng := stats.NewRNG(opt.Seed).Split("baseline-adaptive")
	out := &Result{Planned: planned}
	for out.Runs < maxRuns {
		n := batch
		if out.Runs+n > maxRuns {
			n = maxRuns - out.Runs
		}
		sites := space.Random(rng, n)
		res, err := fault.Run(t, fault.Uniform(sites), opt.Campaign)
		if err != nil {
			return nil, err
		}
		out.Dist.Merge(res.Dist)
		out.Stats.Merge(res.Stats)
		out.Runs += n

		out.Margins = classMargins(out.Dist, opt.confidence())
		done := true
		for _, m := range out.Margins {
			if m > opt.margin() {
				done = false
				break
			}
		}
		if done {
			return out, nil
		}
	}
	return out, nil
}

// String renders the result for reports.
func (r *Result) String() string {
	if r == nil {
		return "<nil baseline>"
	}
	return fmt.Sprintf("%s after %d runs (planned %d; margins %.2f/%.2f/%.2f pp)",
		r.Dist, r.Runs, r.Planned,
		100*r.Margins[fault.ClassMasked],
		100*r.Margins[fault.ClassSDC],
		100*r.Margins[fault.ClassOther])
}

// ErrNoSites reports an empty fault-site space.
var ErrNoSites = errors.New("baseline: target has no fault sites")
