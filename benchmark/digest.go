package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/fault"
	"repro/internal/journal"
)

// digestOutcomes hashes a campaign's per-site outcomes in site-index order.
func digestOutcomes(outs []fault.Outcome) string {
	b := make([]byte, len(outs))
	for i, o := range outs {
		b[i] = byte(o)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// digestRecords hashes journal records the same way. A journal's on-disk
// order is completion order, which depends on scheduling, so the records
// are ordered by site index first; the digest of a complete journal equals
// digestOutcomes of the live campaign's PerSite.
func digestRecords(recs []journal.Record) string {
	sorted := append([]journal.Record(nil), recs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Index < sorted[b].Index })
	outs := make([]fault.Outcome, len(sorted))
	for i, r := range sorted {
		outs[i] = fault.Outcome(r.Outcome)
	}
	return digestOutcomes(outs)
}

// digestDist hashes an aggregate distribution, for campaigns whose
// per-site outcomes the layer under test does not expose (baseline.Fixed).
func digestDist(d fault.Dist) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%v/%d", d.W, d.N)))
	return hex.EncodeToString(sum[:12])
}

// goldenSeed is the seed golden.json was recorded with; other seeds skip
// output check 1 and keep checks 2-5.
const goldenSeed = 1

// goldenWorkload is what one workload must reproduce exactly at goldenSeed.
type goldenWorkload struct {
	// Digests maps a campaign key to the digest of its outcomes.
	Digests map[string]string `json:"digests"`
	// Counts holds simulated statistics that must repeat exactly.
	Counts map[string]int64 `json:"counts"`
}

//go:embed golden.json
var goldenJSON []byte

const goldenPath = "benchmark/golden.json"

func loadGolden() (map[string]goldenWorkload, error) {
	g := map[string]goldenWorkload{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// writeGolden rewrites golden.json in the source tree; -update-golden must
// run from the repository root.
func writeGolden(g map[string]goldenWorkload) error {
	if _, err := os.Stat(goldenPath); err != nil {
		return fmt.Errorf("-update-golden must run from the repository root: %w", err)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

// checkGolden is output check 1: every digest and exact count of this run
// equals the recorded one.
func (r *run) checkGolden() {
	if r.cfg.seed != goldenSeed || r.cfg.size.div != 1 {
		r.logf("check golden digests: skipped (seed %d, size 1/%d; recorded for seed %d at full size)",
			r.cfg.seed, r.cfg.size.div, goldenSeed)
		return
	}
	g, err := loadGolden()
	if err != nil {
		r.check("golden digests", false, "%v", err)
		return
	}
	want, ok := g[r.cfg.workload]
	if !ok {
		r.check("golden digests", false, "no entry for %s; run -update-golden", r.cfg.workload)
		return
	}
	var diffs []string
	for _, k := range sortedKeys(want.Digests) {
		if got := r.digests[k]; got != want.Digests[k] {
			diffs = append(diffs, fmt.Sprintf("%s: got %q want %q", k, got, want.Digests[k]))
		}
	}
	for _, k := range sortedKeys(want.Counts) {
		if got := r.counts[k]; got != want.Counts[k] {
			diffs = append(diffs, fmt.Sprintf("%s: got %d want %d", k, got, want.Counts[k]))
		}
	}
	if len(r.digests) != len(want.Digests) || len(r.counts) != len(want.Counts) {
		diffs = append(diffs, fmt.Sprintf("%d digests and %d counts, recorded %d and %d",
			len(r.digests), len(r.counts), len(want.Digests), len(want.Counts)))
	}
	if len(diffs) > 4 {
		diffs = append(diffs[:4], fmt.Sprintf("and %d more", len(diffs)-4))
	}
	r.check("golden digests", len(diffs) == 0, "%v", diffs)
}
