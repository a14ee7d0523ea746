package fault_test

import (
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/kernels"
)

const workFile = "testdata/work.json"

// workBudget is the engine work of one fixed campaign: exact counters that
// repeat on any host and, except PagesCopied and AffinityResets, at any
// parallelism.
type workBudget struct {
	Campaign        string `json:"campaign"`
	PrepareDyn      int64  `json:"prepare_dyn"`
	ReplayInstrs    int64  `json:"replay_instrs"`
	PostFaultInstrs int64  `json:"post_fault_instrs"`
	CTAsSkipped     int64  `json:"ctas_skipped"`
	EarlyExits      int64  `json:"early_exits"`
	IntraSkips      int64  `json:"intra_skips"`
	Decided         int64  `json:"decided"`
	PagesCopied     int64  `json:"pages_copied"`
	AffinityResets  int64  `json:"affinity_resets"`
}

type counter struct {
	name string
	v    int64
}

func (b workBudget) counters() []counter {
	return []counter{
		{"prepare_dyn", b.PrepareDyn}, {"replay_instrs", b.ReplayInstrs},
		{"post_fault_instrs", b.PostFaultInstrs}, {"ctas_skipped", b.CTAsSkipped},
		{"early_exits", b.EarlyExits}, {"intra_skips", b.IntraSkips}, {"decided", b.Decided},
		{"pages_copied", b.PagesCopied}, {"affinity_resets", b.AffinityResets},
	}
}

// workSpecs are the budgeted campaigns: every small kernel at seed 1 with
// 300 dest-value sites under serial scheduling, the SIMT scheduler and
// stuck-pred on GEMM K1 and HotSpot K1, the other two persistent models,
// whose sites decide also settles (stuck-active-mask on HotSpot K1 under
// the SIMT scheduler, stuck-barrier on the barrier-free GEMM K1), and a
// GEMM K1 paper probe.
func workSpecs() []campaign.Spec {
	var specs []campaign.Spec
	for _, k := range kernels.All() {
		specs = append(specs, campaign.Spec{Kernel: k.Meta.Name(), Scale: "small", Seed: 1, Sites: 300, Model: "dest-value"})
	}
	for _, k := range []string{"GEMM K1", "HotSpot K1"} {
		specs = append(specs,
			campaign.Spec{Kernel: k, Scale: "small", Seed: 1, Sites: 300, Model: "dest-value", Warp: 32},
			campaign.Spec{Kernel: k, Scale: "small", Seed: 1, Sites: 300, Model: "stuck-pred"})
	}
	return append(specs,
		campaign.Spec{Kernel: "HotSpot K1", Scale: "small", Seed: 1, Sites: 300, Model: "stuck-active-mask", Warp: 32},
		campaign.Spec{Kernel: "GEMM K1", Scale: "small", Seed: 1, Sites: 300, Model: "stuck-barrier"},
		campaign.Spec{Kernel: "GEMM K1", Scale: "paper", Seed: 1, Sites: 10, Model: "dest-value"})
}

// measureWork runs one budgeted campaign at -par 1 and -par 2 and checks
// that both did the same per-site work.
func measureWork(t *testing.T, s campaign.Spec) workBudget {
	t.Helper()
	p, err := s.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]fault.CampaignStats
	for i := range runs {
		res, err := p.Run(fault.CampaignOptions{Parallelism: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Retries != 0 || res.Stats.Quarantined != 0 {
			t.Fatalf("-par %d: %d retries, %d quarantined", i+1, res.Stats.Retries, res.Stats.Quarantined)
		}
		runs[i] = res.Stats
	}
	type perSite struct{ replay, postFault, ctasSkipped, earlyExits, intraSkips, decided int64 }
	of := func(st fault.CampaignStats) perSite {
		return perSite{st.ReplayInstrs, st.PostFaultInstrs, st.CTAsSkipped, st.EarlyExits, st.IntraSkips, st.Decided}
	}
	if a, b := of(runs[0]), of(runs[1]); a != b {
		t.Fatalf("per-site work differs: -par 1 %+v, -par 2 %+v", a, b)
	}
	st := runs[0]
	return workBudget{
		Campaign:        fmt.Sprintf("%s %s %s warp %d, %d sites", s.Kernel, s.Scale, s.Model, s.Warp, s.Sites),
		PrepareDyn:      p.Target.Profile().TotalDyn(),
		ReplayInstrs:    st.ReplayInstrs,
		PostFaultInstrs: st.PostFaultInstrs,
		CTAsSkipped:     st.CTAsSkipped,
		EarlyExits:      st.EarlyExits,
		IntraSkips:      st.IntraSkips,
		Decided:         st.Decided,
		PagesCopied:     st.PagesCopied,
		AffinityResets:  st.AffinityResets,
	}
}

// TestWorkBudgets holds the engine's work to the checked-in budgets of
// testdata/work.json: a counter that grows fails, naming the campaign and
// the delta, and so does one that shrinks, so a gain enters the file in the
// change that makes it (go test ./internal/fault -run TestWorkBudgets
// -update re-records).
func TestWorkBudgets(t *testing.T) {
	var got []workBudget
	for _, s := range workSpecs() {
		got = append(got, measureWork(t, s))
	}
	goldenTable(t, workFile, got, func(b workBudget) string { return b.Campaign }, func(g, w workBudget) {
		wc := w.counters()
		for i, c := range g.counters() {
			switch d := c.v - wc[i].v; {
			case d > 0:
				t.Errorf("%s: %s grew by %d (%d, budget %d)", g.Campaign, c.name, d, c.v, wc[i].v)
			case d < 0:
				t.Errorf("%s: %s shrank by %d (%d, budget %d); re-record with -update", g.Campaign, c.name, -d, c.v, wc[i].v)
			}
		}
	})
}
