// Package report serializes analysis results (profiles, plans, campaign
// outcomes) into stable JSON documents for downstream tooling — spreadsheet
// imports, CI dashboards, regression diffs. Only derived summaries are
// exported, never raw traces, so documents stay small at any kernel scale.
package report

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/trace"
)

// Profile is the JSON summary of a resilience profile.
type Profile struct {
	MaskedPct float64 `json:"masked_pct"`
	SDCPct    float64 `json:"sdc_pct"`
	OtherPct  float64 `json:"other_pct"`
	// CrashPct and HangPct split OtherPct by cause.
	CrashPct float64 `json:"crash_pct"`
	HangPct  float64 `json:"hang_pct"`
	// EngineErrPct is the weight share of quarantined sites (EngineError):
	// not a paper outcome, surfaced so a degraded campaign is visible in
	// its report.
	EngineErrPct float64 `json:"engine_err_pct,omitempty"`
	// Experiments is the unweighted injection-run count behind the profile.
	Experiments int64 `json:"experiments"`
	// Weight is the weighted site mass the profile represents.
	Weight float64 `json:"weight"`
}

// NewProfile converts a fault.Dist.
func NewProfile(d fault.Dist) Profile {
	return Profile{
		MaskedPct:    d.Pct(fault.ClassMasked),
		SDCPct:       d.Pct(fault.ClassSDC),
		OtherPct:     d.Pct(fault.ClassOther),
		CrashPct:     d.PctOutcome(fault.Crash),
		HangPct:      d.PctOutcome(fault.Hang),
		EngineErrPct: d.PctOutcome(fault.EngineError),
		Experiments:  d.N,
		Weight:       d.Total(),
	}
}

// ThreadGroup is the JSON summary of one stage-1 thread group.
type ThreadGroup struct {
	CTAGroup   int   `json:"cta_group"`
	ICnt       int64 `json:"icnt"`
	Rep        int   `json:"rep"`
	Population int64 `json:"population"`
}

// Plan is the JSON summary of a pruning plan.
type Plan struct {
	Kernel       string          `json:"kernel"`
	Threads      int             `json:"threads"`
	CTAGroups    int             `json:"cta_groups"`
	ThreadGroups []ThreadGroup   `json:"thread_groups"`
	Stages       core.StageSites `json:"stages"`
	Sites        int             `json:"sites"`
	KnownMasked  float64         `json:"known_masked_weight"`
	Reduction    float64         `json:"reduction"`
	// InstPrunedPct is Table VI's "% pruned common instructions".
	InstPrunedPct float64 `json:"inst_pruned_pct"`
}

// NewPlan converts a core.Plan.
func NewPlan(p *core.Plan) Plan {
	out := Plan{
		Kernel:        p.Target.Name,
		Threads:       p.Target.Threads(),
		CTAGroups:     len(p.CTAGroups),
		Stages:        p.Stages,
		Sites:         len(p.Sites),
		KnownMasked:   p.KnownMasked,
		Reduction:     p.Reduction(),
		InstPrunedPct: p.InstPrune.PctPruned(),
	}
	for _, g := range p.ThreadGroups {
		out.ThreadGroups = append(out.ThreadGroups, ThreadGroup{
			CTAGroup: g.CTAGroup, ICnt: g.ICnt, Rep: g.Rep, Population: g.Population,
		})
	}
	return out
}

// KernelProfile is the JSON summary of a fault-free profiling run.
type KernelProfile struct {
	Kernel     string  `json:"kernel"`
	Threads    int     `json:"threads"`
	CTAs       int     `json:"ctas"`
	TotalDyn   int64   `json:"total_dynamic_instructions"`
	FaultSites int64   `json:"fault_sites"`
	MinICnt    int64   `json:"min_icnt"`
	MaxICnt    int64   `json:"max_icnt"`
	LoopIters  int     `json:"max_loop_iterations"`
	PctInLoops float64 `json:"pct_instructions_in_loops"`
}

// NewKernelProfile summarizes a prepared target's profile.
func NewKernelProfile(name string, prof *trace.Profile) KernelProfile {
	out := KernelProfile{
		Kernel:   name,
		Threads:  len(prof.Threads),
		CTAs:     prof.NumCTAs(),
		TotalDyn: prof.TotalDyn(),
	}
	out.FaultSites = prof.TotalSites()
	var inLoop, total int64
	if len(prof.Threads) > 0 {
		out.MinICnt = prof.Threads[0].ICnt
	}
	for i := range prof.Threads {
		c := prof.Threads[i].ICnt
		if c < out.MinICnt {
			out.MinICnt = c
		}
		if c > out.MaxICnt {
			out.MaxICnt = c
		}
		s := trace.SummarizeLoops(prof.Threads[i].PCs)
		inLoop += s.InLoopInstrs
		total += s.Instrs
		if s.TotalIters > out.LoopIters {
			out.LoopIters = s.TotalIters
		}
	}
	if total > 0 {
		out.PctInLoops = 100 * float64(inLoop) / float64(total)
	}
	return out
}

// Campaign is the JSON summary of a campaign's execution stats; WithPrepare
// adds its target's checkpoint and cache keys (fault.PrepareStats).
type Campaign struct {
	Runs                 int64   `json:"runs"`
	WallMS               float64 `json:"wall_ms"`
	RunsPerSec           float64 `json:"runs_per_sec"`
	PagesCopied          int64   `json:"pages_copied"`
	DevicesCreated       int     `json:"devices_created"`
	CTAsSkipped          int64   `json:"ctas_skipped,omitempty"`
	EarlyExits           int64   `json:"early_exits,omitempty"`
	IntraSkips           int64   `json:"intra_skips,omitempty"`
	Checkpoints          int     `json:"checkpoints,omitempty"`
	CheckpointBytes      int64   `json:"checkpoint_bytes,omitempty"`
	IntraCheckpointBytes int64   `json:"intra_checkpoint_bytes,omitempty"`
	Replayed             int64   `json:"replayed,omitempty"`
	Retries              int64   `json:"retries,omitempty"`
	Quarantined          int64   `json:"quarantined,omitempty"`
	CacheHits            int64   `json:"cache_hits,omitempty"`
	CacheMisses          int64   `json:"cache_misses,omitempty"`
	PreparedShared       int64   `json:"prepared_shared,omitempty"`
	AffinityResets       int64   `json:"affinity_resets,omitempty"`
}

// NewCampaign converts fault.CampaignStats; it fills no per-target key.
func NewCampaign(s fault.CampaignStats) Campaign {
	return Campaign{
		Runs:           s.Runs,
		WallMS:         float64(s.Wall.Microseconds()) / 1000,
		RunsPerSec:     s.RunsPerSec(),
		PagesCopied:    s.PagesCopied,
		DevicesCreated: s.DevicesCreated,
		CTAsSkipped:    s.CTAsSkipped,
		EarlyExits:     s.EarlyExits,
		IntraSkips:     s.IntraSkips,
		Replayed:       s.Replayed,
		Retries:        s.Retries,
		Quarantined:    s.Quarantined,
		AffinityResets: s.AffinityResets,
	}
}

// WithPrepare fills the per-target keys from the campaign target's
// PrepareStats: its checkpoint store sizes, and a 1 in the cache key that
// names where its prepared state came from.
func (c Campaign) WithPrepare(p fault.PrepareStats) Campaign {
	c.Checkpoints, c.CheckpointBytes, c.IntraCheckpointBytes = p.Checkpoints, p.CheckpointBytes, p.IntraCheckpointBytes
	switch p.Source {
	case fault.PreparedHit:
		c.CacheHits = 1
	case fault.PreparedMiss:
		c.CacheMisses = 1
	case fault.PreparedShared:
		c.PreparedShared = 1
	}
	return c
}

// Merged is the JSON document fsmerge emits for a campaign recombined from
// shard journals — and the campaign service serves as a final report, and
// fsprune -action campaign -json prints: the campaign's journal header,
// coverage counters, and the merged resilience profile.
type Merged struct {
	journal.Fingerprint
	Completed   int     `json:"completed"`
	Quarantined int     `json:"quarantined,omitempty"`
	Profile     Profile `json:"profile"`
	// Campaign aggregates the execution counters recorded in the journals
	// (attempt counts and fast-forward savings, tallied by
	// fault.CampaignStats.AddRecord as the live campaign tallies them; wall
	// time is not recorded per shard and stays zero). fsprune's document
	// holds the live campaign's stats instead.
	Campaign Campaign `json:"campaign"`
}

// NewMerged aggregates journal records into the Merged document. The
// records must be sorted by site index (the order journal.ReadFile and
// journal.Merge return):
// aggregating in that order reproduces the engine's input-order float
// summation, so the document is bit-identical to the live campaign's — and
// deterministic, which is what lets fsmerge output and the campaign
// service's reports be compared byte for byte. Records carrying an unknown
// outcome fail rather than skew the profile.
func NewMerged(fp journal.Fingerprint, recs []journal.Record) (Merged, error) {
	var dist fault.Dist
	var stats fault.CampaignStats
	for _, r := range recs {
		o := fault.Outcome(r.Outcome)
		if !o.Valid() {
			return Merged{}, fmt.Errorf("report: record for site %d holds unknown outcome %d", r.Index, r.Outcome)
		}
		dist.Add(o, r.Weight)
		stats.AddRecord(r)
	}
	return Merged{
		Fingerprint: fp,
		Completed:   len(recs),
		Quarantined: int(stats.Quarantined),
		Profile:     NewProfile(dist),
		Campaign:    NewCampaign(stats),
	}, nil
}

// MergedDist recomputes the weighted outcome distribution of a record
// stream in the given order — the incremental profile a live status reader
// shows while a campaign is still appending.
func MergedDist(recs []journal.Record) (fault.Dist, error) {
	var dist fault.Dist
	for _, r := range recs {
		o := fault.Outcome(r.Outcome)
		if !o.Valid() {
			return fault.Dist{}, fmt.Errorf("report: record for site %d holds unknown outcome %d", r.Index, r.Outcome)
		}
		dist.Add(o, r.Weight)
	}
	return dist, nil
}

// Estimate bundles a plan with its estimated and baseline profiles.
type Estimate struct {
	Plan     Plan     `json:"plan"`
	Pruned   Profile  `json:"pruned"`
	Baseline *Profile `json:"baseline,omitempty"`
	// MaxDeltaPP is the largest class difference in percentage points,
	// present only with a baseline.
	MaxDeltaPP *float64 `json:"max_delta_pp,omitempty"`
	// Campaign holds the execution stats of the pruned campaign when
	// requested (-stats).
	Campaign *Campaign `json:"campaign,omitempty"`
}

// NewEstimate assembles the document; baseline may be nil to omit. The
// caller sets Campaign.
func NewEstimate(p *core.Plan, pruned fault.Dist, baseline *fault.Dist) Estimate {
	e := Estimate{Plan: NewPlan(p), Pruned: NewProfile(pruned)}
	if baseline != nil {
		bp := NewProfile(*baseline)
		e.Baseline = &bp
		d := pruned.MaxClassDelta(*baseline)
		e.MaxDeltaPP = &d
	}
	return e
}

// Write emits v as indented JSON.
func Write(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
