package fault_test

import (
	"bytes"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/report"
)

// plansFile records the SHA-256 of fsprune -action plan -json for every
// small kernel, with the default options and with -dead: the plan's
// analytic credits (unread predicate flags, dead writes) in bytes.
const plansFile = "testdata/plans.json"

type planEntry struct {
	Plan   string `json:"plan"`
	SHA256 string `json:"sha256"`
}

// TestPlanTable holds the report.Plan document of each of the 17 small
// kernels, built as fsprune -action plan -json builds it, with and without
// the dead-write stage, to testdata/plans.json.
func TestPlanTable(t *testing.T) {
	specs := kernels.All()
	got := make([][2]planEntry, len(specs))
	t.Run("build", func(t *testing.T) {
		for i, ks := range specs {
			t.Run(ks.Meta.Name(), func(t *testing.T) {
				t.Parallel()
				inst, err := ks.Build(kernels.ScaleSmall)
				if err != nil {
					t.Fatal(err)
				}
				for j, dead := range []bool{false, true} {
					plan, err := core.BuildPlan(inst.Target, core.Options{Seed: campaign.DefaultSeed, DeadWritePrune: dead})
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := report.Write(&buf, report.NewPlan(plan)); err != nil {
						t.Fatal(err)
					}
					name := ks.Meta.Name() + " small default"
					if dead {
						name = ks.Meta.Name() + " small dead"
					}
					got[i][j] = planEntry{Plan: name, SHA256: digest(buf.Bytes())}
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	var table []planEntry
	for _, g := range got {
		table = append(table, g[0], g[1])
	}
	goldenTable(t, plansFile, table, func(e planEntry) string { return e.Plan }, func(g, w planEntry) {
		if g.SHA256 != w.SHA256 {
			t.Errorf("%s: plan SHA-256 %s, recorded %s", g.Plan, g.SHA256, w.SHA256)
		}
	})
}
