// Benchmarks regenerating each of the paper's tables and figures (one
// benchmark per artifact; see DESIGN.md section 4 for the mapping).
// Multi-kernel artifacts use a representative kernel subset so a full
// -bench=. sweep stays affordable on a single core; cmd/experiments
// regenerates the complete versions. Nothing here is recorded or gated: the
// repository's performance instrument is ./benchmark (BENCHMARK.json), which
// times every layer these artifacts run on. The one pair kept beside the
// artifacts, BenchmarkCampaignIntraCTA{,BoundaryOnly}, prices a
// configuration ./benchmark never runs (intra-CTA snapshots disabled).
package repro_test

import (
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/ptx"
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

// intraBenchTarget builds a synthetic long-loop kernel for the intra-CTA
// resume benchmarks: 4 CTAs x 16 threads, each thread spinning a 160-iteration
// accumulator loop (~810 dynamic instructions per thread, ~13K per CTA — well
// past the >=4K/CTA regime where mid-CTA resume pays), writing out[gid] last.
func intraBenchTarget(b *testing.B) *fault.Target {
	b.Helper()
	prog, err := ptx.Assemble("longloop", `
		cvt.u32.u16 $r0, %tid.x
		cvt.u32.u16 $r1, %ctaid.x
		cvt.u32.u16 $r2, %ntid.x
		mad.lo.u32 $r3, $r1, $r2, $r0        // gid
		mov.u32 $r4, $r124                   // acc = 0
		mov.u32 $r5, $r124                   // i = 0
		mov.u32 $r6, s[0x0014]               // iters
		lloop: add.u32 $r4, $r4, $r3
		add.u32 $r4, $r4, 0x00000001
		add.u32 $r5, $r5, 0x00000001
		set.lt.u32.u32 $p0/$o127, $r5, $r6
		@$p0.ne bra lloop
		shl.u32 $r7, $r3, 0x00000002
		add.u32 $r7, $r7, s[0x0010]          // &out[gid]
		st.global.u32 [$r7], $r4
		exit
	`)
	if err != nil {
		b.Fatal(err)
	}
	const threads = 4 * 16
	return &fault.Target{
		Name:   "longloop",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 4, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 16, Y: 1, Z: 1},
		Params: []uint32{0, 160},
		Init:   gpusim.NewDevice(threads * 4),
		Output: []fault.Range{{Off: 0, Len: threads * 4}},
	}
}

// benchIntraCampaign times a campaign of late-trace sites (destination writes
// in the last stretch of each thread's dynamic trace — the worst case for
// CTA-boundary-only fast-forward, which must replay the injected CTA's whole
// fault-free prefix) with intra-CTA snapshots auto-tuned or disabled. The
// BenchmarkCampaignIntraCTA / BenchmarkCampaignIntraCTABoundaryOnly ratio is
// the win of mid-CTA resume DESIGN.md §3.5 quotes; run the two back to back
// on the same machine for the ratio.
func benchIntraCampaign(b *testing.B, intraStride int) {
	tgt := intraBenchTarget(b)
	tgt.IntraStride = intraStride
	if err := tgt.Prepare(); err != nil {
		b.Fatal(err)
	}
	if intraStride >= 0 && tgt.WarpCheckpoints() == nil {
		b.Fatal("no intra-CTA snapshot store on the long-loop kernel")
	}
	// Sites live in the last CTA's threads so every run fast-forwards the
	// earlier CTAs through the boundary store in both configurations and the
	// measured difference is purely the injected CTA's fault-free prefix.
	prof := tgt.Profile()
	var raw []fault.Site
	for th := tgt.Threads() - 16; th < tgt.Threads(); th++ {
		found := 0
		for dyn := prof.Threads[th].ICnt - 1; dyn >= 0 && found < 16; dyn-- {
			bits := tgt.DestBitsAt(th, dyn)
			if bits == 0 {
				continue
			}
			raw = append(raw, fault.Site{Thread: th, DynInst: dyn, Bit: (th + 7*found) % bits})
			found++
		}
	}
	sites := fault.Uniform(raw)
	opt := fault.CampaignOptions{Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fault.Run(tgt, sites, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignIntraCTA(b *testing.B)             { benchIntraCampaign(b, 0) }
func BenchmarkCampaignIntraCTABoundaryOnly(b *testing.B) { benchIntraCampaign(b, -1) }
