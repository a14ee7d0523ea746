package core

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options configures the pruning pipeline.
type Options struct {
	// Grouping tunes stage 1.
	Grouping GroupingOptions
	// DisableInstPrune skips stage 2.
	DisableInstPrune bool
	// LoopIters is the number of loop iterations to sample in stage 3;
	// 0 uses DefaultLoopIters; negative disables loop pruning.
	LoopIters int
	// BitSamples is the number of sampled positions per 32-bit register in
	// stage 4; 0 uses DefaultBitSamples; negative keeps all bits.
	BitSamples int
	// DisablePredPrune keeps all four predicate flag bits as injection
	// sites instead of pruning the non-zero flags no instruction consults
	// analytically.
	DisablePredPrune bool
	// DeadWritePrune enables the extension stage beyond the paper's four:
	// sites at destinations that are overwritten before any read are
	// credited to the masked class analytically (see fault.DeadWrite).
	DeadWritePrune bool
	// Seed drives the loop-iteration sampler.
	Seed int64
}

// DefaultLoopIters is the stage-3 sample size when unspecified. The paper
// finds stability between 3 and 15 sampled iterations with an average of
// 7.22 across kernels; 8 is a safe default.
const DefaultLoopIters = 8

// DefaultBitSamples is the stage-4 sample count when unspecified; the paper
// finds 16 of 32 bit positions sufficient (Fig. 8).
const DefaultBitSamples = 16

// StageSites records the fault-site population surviving each progressive
// stage (the bars of the paper's Fig. 10). Its JSON form is the "stages"
// object of report.Plan.
type StageSites struct {
	Exhaustive int64 `json:"exhaustive"` // Eq. 1 over the whole kernel
	Thread     int64 `json:"thread"`     // after CTA- and thread-wise pruning
	Inst       int64 `json:"inst"`       // after instruction-wise pruning
	Loop       int64 `json:"loop"`       // after loop-wise pruning
	Bit        int64 `json:"bit"`        // final: the number of injection experiments
}

// Plan is the output of the pruning pipeline: the weighted fault sites to
// inject plus the accounting that reproduces the paper's evaluation tables.
type Plan struct {
	Target *fault.Target

	CTAGroups    []CTAGroup
	ThreadGroups []ThreadGroup
	InstPrune    InstPruneResult
	LoopPrune    LoopPruneResult
	DeadPrune    DeadPruneResult
	BitPrune     BitPruneResult

	// Sites are the injection experiments with population weights.
	Sites []fault.WeightedSite
	// KnownMasked is weight credited to the masked class without running
	// experiments (analytically pruned predicate flag bits).
	KnownMasked float64

	Stages StageSites
}

// BuildPlan runs the four progressive pruning stages over a prepared
// target. It Prepares the target if the caller has not; with a
// fault.PreparedCache attached to the target, that Prepare is served from
// the cache when an equal-keyed target already ran its golden execution.
func BuildPlan(t *fault.Target, opt Options) (*Plan, error) {
	if err := t.Prepare(); err != nil {
		return nil, err
	}
	prof := t.Profile()
	space := fault.NewSpace(prof)

	p := &Plan{Target: t}
	p.Stages.Exhaustive = space.Total()

	// Stage 1: CTA-wise + thread-wise.
	p.CTAGroups = GroupCTAs(prof)
	p.ThreadGroups = GroupThreads(prof, p.CTAGroups, opt.Grouping)
	if err := ValidateGrouping(prof, p.ThreadGroups); err != nil {
		return nil, err
	}
	sels := make([]*selection, len(p.ThreadGroups))
	for i, g := range p.ThreadGroups {
		sels[i] = newSelection(g.Rep, prof.Threads[g.Rep].ICnt, g.Population)
		p.Stages.Thread += prof.Threads[g.Rep].SiteBits
	}

	// Stage 2: instruction-wise.
	if !opt.DisableInstPrune {
		p.InstPrune = pruneCommonInstructions(prof, sels)
	} else {
		for _, s := range sels {
			p.InstPrune.TotalInsts += int64(len(s.weight))
		}
	}
	p.Stages.Inst = selectedBits(prof, sels)

	// Stage 3: loop-wise.
	loopIters := opt.LoopIters
	if loopIters == 0 {
		loopIters = DefaultLoopIters
	}
	if loopIters > 0 {
		rng := stats.NewRNG(opt.Seed)
		p.LoopPrune = pruneLoops(prof, sels, loopIters, rng)
	}
	p.Stages.Loop = selectedBits(prof, sels)

	// Optional extension stage: dead-destination pruning.
	var deadMasked float64
	if opt.DeadWritePrune {
		p.DeadPrune, deadMasked = pruneDeadWrites(prof, sels)
	}

	// Stage 4: bit-wise.
	bitSamples := opt.BitSamples
	if bitSamples == 0 {
		bitSamples = DefaultBitSamples
	}
	if bitSamples < 0 {
		bitSamples = 0 // keep all positions
	}
	var expandErr error
	p.Sites, p.KnownMasked, p.BitPrune, expandErr = expandBits(t.Prog, prof, sels, bitSamples, opt.DisablePredPrune)
	if expandErr != nil {
		return nil, expandErr
	}
	p.KnownMasked += deadMasked
	p.Stages.Bit = int64(len(p.Sites))

	if len(p.Sites) == 0 {
		return nil, errors.New("core: pruning produced no fault sites")
	}
	return p, nil
}

// selectedBits sums the destination bits of still-selected instructions.
func selectedBits(prof *trace.Profile, sels []*selection) int64 {
	var n int64
	for _, s := range sels {
		for i := range s.weight {
			if s.weight[i] > 0 {
				n += int64(prof.SiteBitsOf(s.thread, int64(i)))
			}
		}
	}
	return n
}

// TotalWeight is the weighted site mass the plan represents (experiments
// plus analytically pruned bits). Under signature-refined grouping it equals
// the exhaustive site count exactly; under plain iCnt grouping it can differ
// slightly when equal-iCnt threads mix destination widths differently.
func (p *Plan) TotalWeight() float64 {
	w := p.KnownMasked
	for _, s := range p.Sites {
		w += s.Weight
	}
	return w
}

// EstimateResult runs the plan's injection experiments and returns the full
// campaign result — the estimated error resilience profile of the complete
// fault-site population (analytically pruned weight credited to the masked
// class) plus the campaign's execution stats.
func (p *Plan) EstimateResult(opt fault.CampaignOptions) (*fault.CampaignResult, error) {
	res, err := fault.Run(p.Target, p.Sites, opt)
	if err != nil {
		return nil, err
	}
	res.Dist.W[fault.Masked] += p.KnownMasked
	return res, nil
}

// Estimate is EstimateResult reduced to the estimated profile.
func (p *Plan) Estimate(opt fault.CampaignOptions) (fault.Dist, error) {
	res, err := p.EstimateResult(opt)
	if err != nil {
		return fault.Dist{}, err
	}
	return res.Dist, nil
}

// Reduction reports the overall fault-site reduction factor achieved.
func (p *Plan) Reduction() float64 {
	if p.Stages.Bit == 0 {
		return 0
	}
	return float64(p.Stages.Exhaustive) / float64(p.Stages.Bit)
}

// String summarizes the plan.
func (p *Plan) String() string {
	return fmt.Sprintf("%s: %d CTA groups, %d thread groups, sites %d -> %d -> %d -> %d -> %d (%.1fx)",
		p.Target.Name, len(p.CTAGroups), len(p.ThreadGroups),
		p.Stages.Exhaustive, p.Stages.Thread, p.Stages.Inst, p.Stages.Loop, p.Stages.Bit,
		p.Reduction())
}
