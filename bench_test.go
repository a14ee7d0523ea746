// Benchmarks regenerating each of the paper's tables and figures (one
// benchmark per artifact; see DESIGN.md section 4 for the mapping).
// Multi-kernel artifacts use a representative kernel subset so a full
// -bench=. sweep stays affordable on a single core; cmd/experiments
// regenerates the complete versions. Nothing here is recorded or gated: the
// repository's performance instrument is ./benchmark (BENCHMARK.json), which
// times every layer these artifacts run on.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/kernels"
)

// benchCfg builds the trimmed experiment configuration used by the
// per-artifact benchmarks.
func benchCfg(subset ...string) experiments.Config {
	return experiments.Config{
		Scale:        kernels.ScaleSmall,
		BaselineRuns: 400,
		Seed:         1,
		Out:          io.Discard,
		Kernels:      subset,
	}
}

// benchSubset is a cross-section of the suite: one kernel from each Fig. 10
// class — with instruction commonality (2DCONV), without (Gaussian K1), and
// single-representative (GEMM).
var benchSubset = []string{"2DCONV K1", "Gaussian K1", "GEMM K1"}

func runExperiment(b *testing.B, id string, cfg experiments.Config) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1", benchCfg(benchSubset...)) }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2", benchCfg()) }
func BenchmarkFig2(b *testing.B)   { runExperiment(b, "fig2", benchCfg("2DCONV K1")) }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3", benchCfg("2DCONV K1")) }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3", benchCfg()) }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4", benchCfg()) }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4", benchCfg("2DCONV K1")) }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5", benchCfg()) }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5", benchCfg()) }
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6", benchCfg("2DCONV K1")) }
func BenchmarkTable7(b *testing.B) { runExperiment(b, "table7", benchCfg(benchSubset...)) }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6", benchCfg("PathFinder K1")) }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7", benchCfg("2DCONV K1")) }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8", benchCfg("2DCONV K1")) }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9", benchCfg(benchSubset...)) }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10", benchCfg(benchSubset...)) }

// Extension benchmarks (not paper artifacts).
func BenchmarkModels(b *testing.B)     { runExperiment(b, "models", benchCfg("2DCONV K1")) }
func BenchmarkAblation(b *testing.B)   { runExperiment(b, "ablation", benchCfg("2DCONV K1")) }
func BenchmarkExhaustive(b *testing.B) { runExperiment(b, "exhaustive", benchCfg("Gaussian K125")) }
