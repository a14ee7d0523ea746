package core

import (
	"fmt"

	"repro/internal/fault"
)

// AutoLoopResult records the adaptive loop-sample search.
type AutoLoopResult struct {
	// Iters is the selected sample size.
	Iters int
	// Steps holds the estimated profile at each tried sample size.
	Steps []fault.Dist
}

// AutoLoopOptions tunes AutoLoopIters.
type AutoLoopOptions struct {
	// Base is the pipeline configuration; its LoopIters field is ignored.
	Base Options
	// Campaign tunes the injection runs.
	Campaign fault.CampaignOptions
}

// The adaptive search's bounds: the paper finds stability between 3 and 15
// sampled iterations and declares stability when adding an iteration no
// longer moves the distribution. DefaultAutoLoopMax caps the search,
// DefaultAutoLoopStablePP is the largest class movement, in percentage
// points, between consecutive sample sizes that counts as stable, and
// DefaultAutoLoopStableRuns consecutive stable steps end it.
const (
	DefaultAutoLoopMax        = 15
	DefaultAutoLoopStablePP   = 2.0
	DefaultAutoLoopStableRuns = 2
)

// AutoLoopIters implements the paper's adaptive loop-sampling procedure
// (Section III-D): "we randomly add iterations one by one, until the result
// is stable". Starting from one sampled iteration, it rebuilds the plan and
// re-estimates the profile at each sample size until
// DefaultAutoLoopStableRuns consecutive increments each move every outcome
// class by at most DefaultAutoLoopStablePP percentage points, and returns the
// first size of that stable window.
//
// The search runs real injection campaigns, so its cost is the sum of the
// per-step plan sizes; on pruned plans this is still orders of magnitude
// below one exhaustive campaign. Every step re-plans on the same target, so
// the golden run and checkpoint store are built once — and with a
// fault.PreparedCache attached, shared with the rest of the pipeline.
func AutoLoopIters(t *fault.Target, opt AutoLoopOptions) (*AutoLoopResult, error) {
	res := &AutoLoopResult{}
	stable := 0
	var prev fault.Dist
	for n := 1; n <= DefaultAutoLoopMax; n++ {
		o := opt.Base
		o.LoopIters = n
		plan, err := BuildPlan(t, o)
		if err != nil {
			return nil, fmt.Errorf("core: auto loop at %d iterations: %w", n, err)
		}
		d, err := plan.Estimate(opt.Campaign)
		if err != nil {
			return nil, fmt.Errorf("core: auto loop at %d iterations: %w", n, err)
		}
		res.Steps = append(res.Steps, d)
		if n > 1 && d.MaxClassDelta(prev) <= DefaultAutoLoopStablePP {
			stable++
			if stable >= DefaultAutoLoopStableRuns {
				res.Iters = n - DefaultAutoLoopStableRuns
				return res, nil
			}
		} else {
			stable = 0
		}
		prev = d
	}
	// Never stabilized within the cap: use the cap, like the paper's
	// K-Means K1 case that needs all 15.
	res.Iters = DefaultAutoLoopMax
	return res, nil
}
