package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
)

// lightCfg keeps every experiment affordable on a single core: small scale,
// trimmed baselines, and a cheap kernel subset for the multi-kernel sweeps.
func lightCfg(buf *bytes.Buffer, subset ...string) Config {
	return Config{
		Scale:        kernels.ScaleSmall,
		BaselineRuns: 400,
		Seed:         1,
		Out:          buf,
		Kernels:      subset,
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("registry has %d experiments, want 20 (16 paper artifacts + 4 extensions)", len(all))
	}
	// Presentation order: table1 first, then the paper's figures, then the
	// extensions.
	if all[0].ID != "table1" || all[len(all)-1].ID != "variance" {
		t.Fatalf("ordering broken: %s .. %s", all[0].ID, all[len(all)-1].ID)
	}
	for _, e := range all {
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Fatalf("ByID(%s) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	cfg := lightCfg(&buf, "Gaussian K1", "MVT K1")
	if err := RunTable1(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Gaussian", "mvt_kernel1", "#FaultSites"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "GEMM") {
		t.Fatal("kernel subset filter ignored")
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable2(lightCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"GEMM", "99.8%", "95.0%", "years"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2AndFig3(t *testing.T) {
	var buf bytes.Buffer
	// 2DCONV only: HotSpot's instruction-targeted campaign is the expensive
	// half and fig9 already covers HotSpot end to end.
	cfg := lightCfg(&buf, "2DCONV K1")
	cfg.Stats = new(fault.StatsSink)
	if err := RunFig2(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "target pc=") {
		t.Fatalf("fig2 output:\n%s", buf.String())
	}
	if cfg.Stats.Total().Runs == 0 {
		t.Fatal("fig2's campaigns bypassed Config.Stats")
	}
	buf.Reset()
	if err := RunFig3(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "iCnt-multiset grouping") {
		t.Fatalf("fig3 output:\n%s", buf.String())
	}
}

func TestGroupTables(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable3(lightCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CTAGrp") || !strings.Contains(buf.String(), "T-1") {
		t.Fatalf("table3 output:\n%s", buf.String())
	}
	buf.Reset()
	if err := RunTable4(lightCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "HotSpot") {
		t.Fatalf("table4 output:\n%s", buf.String())
	}
}

func TestFig4(t *testing.T) {
	var buf bytes.Buffer
	cfg := lightCfg(&buf, "2DCONV K1")
	cfg.Stats = new(fault.StatsSink)
	if err := RunFig4(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Masked%") {
		t.Fatalf("fig4 output:\n%s", buf.String())
	}
	if cfg.Stats.Total().Runs == 0 {
		t.Fatal("fig4's campaigns bypassed Config.Stats")
	}
}

func TestFig5AndTable5(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig5(lightCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "common prefix") || !strings.Contains(out, "common suffix") {
		t.Fatalf("fig5 output:\n%s", out)
	}
	buf.Reset()
	if err := RunTable5(lightCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "%CommonInsn") {
		t.Fatalf("table5 output:\n%s", buf.String())
	}
}

func TestTable6(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable6(lightCfg(&buf, "2DCONV K1", "Gaussian K2")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "%PrunedInsn") || !strings.Contains(out, "Average") {
		t.Fatalf("table6 output:\n%s", out)
	}
}

func TestTable7(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable7(lightCfg(&buf, "MVT K1", "NN K1", "PathFinder K1")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "%InsnInLoop") {
		t.Fatalf("table7 output:\n%s", out)
	}
	// Sorted ascending by loop share: NN (0%) before MVT (~97%).
	if strings.Index(out, "NN K1") > strings.Index(out, "MVT K1") {
		t.Fatalf("table7 not sorted:\n%s", out)
	}
}

func TestFig6(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig6(lightCfg(&buf, "PathFinder K1")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "numIter") {
		t.Fatalf("fig6 output:\n%s", buf.String())
	}
}

func TestFig7AndFig8(t *testing.T) {
	var buf bytes.Buffer
	cfg := lightCfg(&buf, "2DCONV K1")
	cfg.Stats = new(fault.StatsSink)
	if err := RunFig7(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, ".pred") || !strings.Contains(out, ".u32") {
		t.Fatalf("fig7 output:\n%s", out)
	}
	if cfg.Stats.Total().Runs == 0 {
		t.Fatal("fig7's campaign bypassed Config.Stats")
	}
	buf.Reset()
	if err := RunFig8(lightCfg(&buf, "2DCONV K1")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "all") {
		t.Fatalf("fig8 output:\n%s", buf.String())
	}
}

func TestFig9(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig9(lightCfg(&buf, "Gaussian K1", "2DCONV K1")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "average |Δ|") {
		t.Fatalf("fig9 output:\n%s", out)
	}
}

func TestFig10(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig10(lightCfg(&buf, "Gaussian K1", "GEMM K1", "2DCONV K1")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The three Fig. 10 kernel classes must each appear for this subset.
	for _, want := range []string{"(a) with", "(b) without", "(c) single"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig10 missing class %q:\n%s", want, out)
		}
	}
}

func TestModelsExtension(t *testing.T) {
	var buf bytes.Buffer
	if err := RunModels(lightCfg(&buf, "2DCONV K1")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dest-value", "dest-double", "mem-addr"} {
		if !strings.Contains(out, want) {
			t.Fatalf("models output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationExtension(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAblation(lightCfg(&buf, "2DCONV K1")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "one-step iCnt") || !strings.Contains(out, "two-step +signature") {
		t.Fatalf("ablation output:\n%s", out)
	}
}

func TestExhaustiveExtension(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExhaustive(lightCfg(&buf, "Gaussian K125")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "exhaustive (truth)") || !strings.Contains(out, "pruned estimate") {
		t.Fatalf("exhaustive output:\n%s", out)
	}
}

func TestVarianceExtension(t *testing.T) {
	var buf bytes.Buffer
	if err := RunVariance(lightCfg(&buf, "PathFinder K1")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "stddev") || !strings.Contains(out, "spread") {
		t.Fatalf("variance output:\n%s", out)
	}
}

func TestUnknownKernelFails(t *testing.T) {
	if _, err := buildPrepared("No Such K9", Config{Scale: kernels.ScaleSmall}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}
