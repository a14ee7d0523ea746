// Package advisor turns a completed injection campaign into selective-
// hardening advice: a per-thread and per-static-instruction vulnerability
// ranking (SDC / DUE / masked rates with Wilson-interval confidence
// bounds), and a simulated protection frontier — duplicate-and-compare on
// a chosen instruction set converts the set's SDC mass to detected, at a
// cost modeled from the profile's per-instruction dynamic counts. It is
// the follow-up paper's "partial protection" idea (Yang et al., arXiv
// 2103.02825) rebuilt on this repo's campaign data.
//
// Input construction is deliberately split from analysis, and there is one
// input door: FromJournal attributes journal records, whether replayed from
// a file or collected live from the engine's record stream
// (fault.CampaignOptions.Progress), so Analyze — and therefore the emitted
// report.Advice JSON — is byte-identical across live and replayed advice.
// DESIGN.md §3.10 documents the statistical model and the
// protection-simulation composition argument.
package advisor

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/journal"
	"repro/internal/trace"
)

// SiteRecord is one attributed injection outcome: the thread and dynamic
// instruction that took the fault, the static instruction executing there,
// the outcome, and the site's population weight.
type SiteRecord struct {
	Thread  int
	DynInst int64
	PC      int
	Outcome fault.Outcome
	Weight  float64
}

// Input is a campaign prepared for analysis: its journal header, the
// attributed outcome records in campaign-index order, and the kernel
// profile the overhead model reads dynamic instruction counts from.
type Input struct {
	// Header is the campaign's journal header; the advice document carries
	// it whole.
	Header journal.Fingerprint
	// Model is Header.Model, parsed.
	Model fault.Model
	// Records holds one attributed outcome per campaign site, in campaign
	// index order (the order aggregation must follow for determinism).
	Records []SiteRecord
	// Prof is the kernel's dynamic profile.
	Prof *trace.Profile
}

// FromJournal attributes journal records — one file via journal.ReadFile,
// a sharded campaign recombined via journal.Merge, or a live campaign's
// Progress records collected by site index — against the target they were
// recorded on. The records must be the complete campaign in site-index
// order, as ReadFile and Merge return them — a ranking from a partial
// campaign would be biased toward whichever sites finished first — and
// every record is validated against t's profile, so a journal replayed
// onto the wrong build fails loudly instead of mis-attributing.
func FromJournal(t *fault.Target, fp journal.Fingerprint, recs []journal.Record) (*Input, error) {
	model, err := fault.ParseModel(fp.Model)
	if err != nil {
		return nil, err
	}
	if fp.Sites <= 0 || len(recs) != fp.Sites {
		return nil, fmt.Errorf("advisor: %d of %d sites recorded (campaign incomplete)", len(recs), fp.Sites)
	}
	prof := t.Profile()
	out := make([]SiteRecord, len(recs))
	for i, r := range recs {
		if r.Index != i {
			return nil, fmt.Errorf("advisor: record %d holds site %d (records must be in site-index order)", i, r.Index)
		}
		if r.Thread >= len(prof.Threads) {
			return nil, fmt.Errorf("advisor: site %d names thread %d but the target has %d threads (journal from a different kernel or scale?)",
				r.Index, r.Thread, len(prof.Threads))
		}
		tp := &prof.Threads[r.Thread]
		if r.DynInst >= tp.ICnt {
			return nil, fmt.Errorf("advisor: site %d names dynamic instruction %d but thread %d retires %d (journal from a different kernel or scale?)",
				r.Index, r.DynInst, r.Thread, tp.ICnt)
		}
		o := fault.Outcome(r.Outcome)
		if !o.Valid() {
			return nil, fmt.Errorf("advisor: site %d holds unknown outcome %d", r.Index, r.Outcome)
		}
		out[i] = SiteRecord{
			Thread:  r.Thread,
			DynInst: r.DynInst,
			PC:      gpusim.PC(tp.PCs[r.DynInst]),
			Outcome: o,
			Weight:  r.Weight,
		}
	}
	return &Input{Header: fp, Model: model, Records: out, Prof: prof}, nil
}

// Ranking criteria.
const (
	// RankSDC orders by the group's weighted SDC share.
	RankSDC = "sdc"
	// RankDUE orders by the group's weighted DUE (crash+hang) share.
	RankDUE = "due"
	// RankSeverity orders by SDC share plus a quarter of the DUE share:
	// silent corruption dominates, but a group that also crashes often is
	// worse than one that doesn't (the SDC-pattern severity weighting).
	RankSeverity = "severity"
)

// Options tunes Analyze.
type Options struct {
	// RankBy is the ranking criterion: RankSDC (default), RankDUE or
	// RankSeverity.
	RankBy string
	// Confidence is the Wilson-interval confidence level (default 0.95).
	Confidence float64
	// Budgets, when non-empty, sweeps the frontier over these overhead
	// budgets (percent) instead of emitting every greedy prefix. Sorted
	// and deduplicated before use.
	Budgets []float64
}

// Normalize applies defaults and validates: it is the one rule set for
// advice options. Analyze calls it; a front end calls it too, to reject a
// bad option before it prepares or runs a campaign.
func (o Options) Normalize() (Options, error) {
	if o.RankBy == "" {
		o.RankBy = RankSDC
	}
	switch o.RankBy {
	case RankSDC, RankDUE, RankSeverity:
	default:
		return o, fmt.Errorf("advisor: unknown rank-by %q (want %s, %s or %s)",
			o.RankBy, RankSDC, RankDUE, RankSeverity)
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		return o, fmt.Errorf("advisor: confidence %v out of range (0,1)", o.Confidence)
	}
	if len(o.Budgets) > 0 {
		b := make([]float64, 0, len(o.Budgets))
		for _, v := range o.Budgets {
			if v < 0 {
				return o, fmt.Errorf("advisor: negative budget %v", v)
			}
			b = append(b, v)
		}
		sort.Float64s(b)
		dedup := b[:1]
		for _, v := range b[1:] {
			if v != dedup[len(dedup)-1] {
				dedup = append(dedup, v)
			}
		}
		o.Budgets = dedup
	}
	return o, nil
}

// ParseBudgets parses a comma-separated list of overhead budgets
// ("5,10,25.5") as percentages. Shared by the fsadvise -budget flag and
// the service's ?budget= query parameter so both paths accept the same
// syntax.
func ParseBudgets(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("advisor: bad budget %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// DMRSound reports whether instruction-level duplicate-and-compare is a
// sound detector for the model's faults: DMR re-executes an instruction
// and compares destination values, which catches transient corruption of
// the destination (dest-value, dest-double, dest-byte, lane-correlated)
// but not address faults that corrupt memory state directly, nor
// persistent stuck-at faults in scheduler state that corrupt both copies
// identically. For unsound models the frontier is still emitted — as an
// upper bound on what DMR could achieve — with dmr_sound=false in the
// report.
func DMRSound(m fault.Model) bool { return m.Destination() }
