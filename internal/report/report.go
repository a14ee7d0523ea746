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

// Stage mirrors core.StageSites.
type Stage struct {
	Exhaustive int64 `json:"exhaustive"`
	Thread     int64 `json:"thread"`
	Inst       int64 `json:"inst"`
	Loop       int64 `json:"loop"`
	Bit        int64 `json:"bit"`
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
	Kernel       string        `json:"kernel"`
	Threads      int           `json:"threads"`
	CTAGroups    int           `json:"cta_groups"`
	ThreadGroups []ThreadGroup `json:"thread_groups"`
	Stages       Stage         `json:"stages"`
	Sites        int           `json:"sites"`
	KnownMasked  float64       `json:"known_masked_weight"`
	Reduction    float64       `json:"reduction"`
	// InstPrunedPct is Table VI's "% pruned common instructions".
	InstPrunedPct float64 `json:"inst_pruned_pct"`
}

// NewPlan converts a core.Plan.
func NewPlan(p *core.Plan) Plan {
	out := Plan{
		Kernel:        p.Target.Name,
		Threads:       p.Target.Threads(),
		CTAGroups:     len(p.CTAGroups),
		Stages:        Stage(p.Stages),
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

// Campaign is the JSON summary of a campaign's execution stats.
type Campaign struct {
	Runs            int64   `json:"runs"`
	WallMS          float64 `json:"wall_ms"`
	RunsPerSec      float64 `json:"runs_per_sec"`
	PagesCopied     int64   `json:"pages_copied"`
	DevicesCreated  int     `json:"devices_created"`
	CTAsSkipped     int64   `json:"ctas_skipped,omitempty"`
	EarlyExits      int64   `json:"early_exits,omitempty"`
	IntraSkips      int64   `json:"intra_skips,omitempty"`
	Checkpoints     int     `json:"checkpoints,omitempty"`
	CheckpointBytes int64   `json:"checkpoint_bytes,omitempty"`
	// IntraCheckpointBytes is the memory retained by the intra-CTA
	// (warp-granular) snapshot store.
	IntraCheckpointBytes int64 `json:"intra_checkpoint_bytes,omitempty"`
	Replayed             int64 `json:"replayed,omitempty"`
	Retries              int64 `json:"retries,omitempty"`
	Quarantined          int64 `json:"quarantined,omitempty"`
	CacheHits            int64 `json:"cache_hits,omitempty"`
	CacheMisses          int64 `json:"cache_misses,omitempty"`
	PreparedShared       int64 `json:"prepared_shared,omitempty"`
	AffinityResets       int64 `json:"affinity_resets,omitempty"`
}

// NewCampaign converts fault.CampaignStats.
func NewCampaign(s fault.CampaignStats) Campaign {
	return Campaign{
		Runs:                 s.Runs,
		WallMS:               float64(s.Wall.Microseconds()) / 1000,
		RunsPerSec:           s.RunsPerSec,
		PagesCopied:          s.PagesCopied,
		DevicesCreated:       s.DevicesCreated,
		CTAsSkipped:          s.CTAsSkipped,
		EarlyExits:           s.EarlyExits,
		IntraSkips:           s.IntraSkips,
		Checkpoints:          s.Checkpoints,
		CheckpointBytes:      s.CheckpointBytes,
		IntraCheckpointBytes: s.IntraCheckpointBytes,
		Replayed:             s.Replayed,
		Retries:              s.Retries,
		Quarantined:          s.Quarantined,
		CacheHits:            s.CacheHits,
		CacheMisses:          s.CacheMisses,
		PreparedShared:       s.PreparedShared,
		AffinityResets:       s.AffinityResets,
	}
}

// Merged is the JSON document fsmerge emits for a campaign recombined from
// shard journals — and the campaign service serves as a final report: the
// identifying fingerprint fields, coverage counters, and the merged
// resilience profile.
type Merged struct {
	Kernel      string  `json:"kernel"`
	Scale       string  `json:"scale"`
	Seed        int64   `json:"seed"`
	Model       string  `json:"model"`
	Shards      int     `json:"shards"`
	Sites       int     `json:"sites"`
	Completed   int     `json:"completed"`
	Quarantined int     `json:"quarantined,omitempty"`
	Profile     Profile `json:"profile"`
	// Campaign aggregates the execution counters recorded in the journals
	// (attempt counts and fast-forward savings; wall time is not recorded
	// per shard and stays zero).
	Campaign Campaign `json:"campaign"`
}

// NewMerged aggregates journal records into the Merged document. The
// records must be sorted by site index (journal.Merge's output order):
// aggregating in that order reproduces the engine's input-order float
// summation, so the document is bit-identical to the live campaign's — and
// deterministic, which is what lets fsmerge output and the campaign
// service's reports be compared byte for byte. Records carrying an unknown
// outcome fail rather than skew the profile.
func NewMerged(fp journal.Fingerprint, recs []journal.Record) (Merged, error) {
	var dist fault.Dist
	var stats fault.CampaignStats
	quarantined := 0
	for _, r := range recs {
		o := fault.Outcome(r.Outcome)
		if !o.Valid() {
			return Merged{}, fmt.Errorf("report: record for site %d holds unknown outcome %d", r.Index, r.Outcome)
		}
		dist.Add(o, r.Weight)
		stats.Runs += int64(r.Attempts)
		stats.CTAsSkipped += r.CTAsSkipped
		if r.EarlyExit {
			stats.EarlyExits++
		}
		if r.IntraResumed {
			stats.IntraSkips++
		}
		if r.Attempts > 1 {
			stats.Retries += int64(r.Attempts - 1)
		}
		if r.Err != "" {
			stats.Quarantined++
			quarantined++
		}
	}
	return Merged{
		Kernel:      fp.Kernel,
		Scale:       fp.Scale,
		Seed:        fp.Seed,
		Model:       fp.Model,
		Shards:      fp.ShardCount,
		Sites:       fp.Sites,
		Completed:   len(recs),
		Quarantined: quarantined,
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

// NewEstimate assembles the document; baseline and stats may be nil to omit.
func NewEstimate(p *core.Plan, pruned fault.Dist, baseline *fault.Dist, stats *fault.CampaignStats) Estimate {
	e := Estimate{Plan: NewPlan(p), Pruned: NewProfile(pruned)}
	if baseline != nil {
		bp := NewProfile(*baseline)
		e.Baseline = &bp
		d := pruned.MaxClassDelta(*baseline)
		e.MaxDeltaPP = &d
	}
	if stats != nil {
		c := NewCampaign(*stats)
		e.Campaign = &c
	}
	return e
}

// Write emits v as indented JSON.
func Write(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
