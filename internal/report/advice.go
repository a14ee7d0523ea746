package report

import "repro/internal/journal"

// Advice is the JSON document produced by the selective-hardening advisor
// (internal/advisor): per-thread and per-static-instruction vulnerability
// rankings derived from a completed campaign, plus a simulated
// protection frontier (resilience vs duplicate-and-compare cost). It is
// served identically by `fsadvise -json` and the campaign service's
// GET /campaigns/{id}/advice — both funnel through advisor.Analyze and
// report.Write, so the bytes match.
type Advice struct {
	// Fingerprint is the journal header of the campaign the advice was
	// derived from.
	journal.Fingerprint
	// RankBy is the ranking criterion ("sdc", "due" or "severity") and
	// Confidence the Wilson-interval confidence level behind the
	// sdc_lo_pct / sdc_hi_pct bounds.
	RankBy     string  `json:"rank_by"`
	Confidence float64 `json:"confidence"`
	// DMRSound reports whether the duplicate-and-compare protection model
	// is sound for the campaign's fault model: instruction-level DMR
	// detects transient corruption of an instruction's destination value,
	// so the frontier is meaningful for the dest-* and lane-correlated
	// models but only indicative for address faults and persistent
	// stuck-at state (see DESIGN.md §3.10).
	DMRSound bool `json:"dmr_sound"`
	// Profile is the campaign's overall outcome distribution.
	Profile Profile `json:"profile"`
	// Threads and Instructions are the vulnerability rankings, sorted by
	// descending score (ties broken by ascending thread id / PC). Every
	// group with at least one sample appears; consumers truncate.
	Threads      []ThreadRank `json:"threads"`
	Instructions []InstRank   `json:"instructions"`
	// Frontier is the simulated resilience-vs-cost curve: point k protects
	// the k highest-value static instructions (greedy by SDC mass per unit
	// overhead). Point 0 is the unprotected baseline.
	Frontier []FrontierPoint `json:"frontier"`
}

// RankStats is the per-group outcome summary shared by thread and
// instruction rankings. Percentages are weighted shares of the group's
// site mass; the Wilson bounds are computed on the weighted SDC proportion
// at the group's Kish effective sample size (EffectiveN), the honest
// information content of a weighted sample.
type RankStats struct {
	// Samples is the number of injection outcomes observed in the group.
	Samples int64 `json:"samples"`
	// EffectiveN is the Kish effective sample size of the group's weights,
	// (Σw)²/Σw² — equal to Samples for uniform weights, strictly smaller
	// under pruned-campaign weights. It is the n behind the Wilson bounds.
	EffectiveN float64 `json:"effective_n"`
	// Weight is the group's share of the campaign's weighted site mass.
	Weight float64 `json:"weight"`
	// MaskedPct / SDCPct / DUEPct partition the group's weight. DUE
	// (detected/unrecoverable error) covers Crash and Hang. EngineErrPct
	// is the quarantined remainder, omitted when zero.
	MaskedPct    float64 `json:"masked_pct"`
	SDCPct       float64 `json:"sdc_pct"`
	DUEPct       float64 `json:"due_pct"`
	EngineErrPct float64 `json:"engine_err_pct,omitempty"`
	// SDCLoPct / SDCHiPct bound the group's true SDC probability at the
	// document's confidence level (Wilson score interval on the weighted
	// SDC proportion, evaluated at EffectiveN trials).
	SDCLoPct float64 `json:"sdc_lo_pct"`
	SDCHiPct float64 `json:"sdc_hi_pct"`
	// Score is the ranking criterion's value for the group.
	Score float64 `json:"score"`
}

// ThreadRank is one thread's entry in the vulnerability ranking.
type ThreadRank struct {
	// Thread is the flat thread id; CTA its block index.
	Thread int `json:"thread"`
	CTA    int `json:"cta"`
	RankStats
}

// InstRank is one static instruction's entry in the vulnerability ranking.
type InstRank struct {
	// PC is the static program counter; Instr its disassembly.
	PC    int    `json:"pc"`
	Instr string `json:"instr"`
	// DynCount is the instruction's dynamic execution count across all
	// threads — the basis of the protection-overhead model.
	DynCount int64 `json:"dyn_count"`
	// OverheadPct is the modeled cost of protecting this instruction
	// alone: duplicate-and-compare adds two dynamic instructions per
	// execution, so 100 * 2*DynCount / totalDynamicInstructions.
	OverheadPct float64 `json:"overhead_pct"`
	RankStats
}

// FrontierPoint is one point on the simulated protection frontier.
type FrontierPoint struct {
	// BudgetPct echoes the requested overhead budget when the frontier was
	// swept over explicit budgets; nil on the default per-prefix sweep.
	BudgetPct *float64 `json:"budget_pct,omitempty"`
	// Protected is how many instructions the point protects; PCs lists
	// them in protection order.
	Protected int   `json:"protected"`
	PCs       []int `json:"pcs,omitempty"`
	// OverheadPct is the modeled dynamic-instruction overhead of the
	// protected set.
	OverheadPct float64 `json:"overhead_pct"`
	// SDCPct and DetectedPct describe the simulated outcome: protecting an
	// instruction converts its SDC mass to detected, so SDCPct falls and
	// DetectedPct rises as the budget grows; all other outcome mass is
	// unchanged.
	SDCPct      float64 `json:"sdc_pct"`
	DetectedPct float64 `json:"detected_pct"`
}
