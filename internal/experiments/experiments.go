// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I-VII, Figures 2-10) from the reproduction's simulator,
// fault injector and pruning pipeline. Each experiment prints a plain-text
// table shaped like the paper's artifact so EXPERIMENTS.md can record
// paper-vs-measured side by side.
package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/stats"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale selects the kernel geometry. ScaleSmall (default) keeps
	// injection campaigns tractable; ScalePaper reproduces the paper's
	// thread counts (use for the profiling-only experiments like Table I).
	Scale kernels.Scale
	// BaselineRuns is the random-campaign size standing in for the paper's
	// 60K-run ground truth; 0 uses DefaultBaselineRuns.
	BaselineRuns int
	// Parallelism caps campaign workers; 0 = GOMAXPROCS.
	Parallelism int
	// Seed drives all sampling.
	Seed int64
	// Out receives the report (defaults to io.Discard if nil).
	Out io.Writer
	// Kernels restricts multi-kernel experiments (Tables I, VI, VII,
	// Figs. 6, 9, 10) to the named subset; nil runs the paper's full set.
	Kernels []string
	// Stats, when non-nil, accumulates campaign execution stats across
	// every injection campaign the experiment runs.
	Stats *fault.StatsSink
}

// DefaultBaselineRuns is the default random-baseline campaign size. The
// paper uses 60K runs (99.8% confidence, 0.63% margin); 3000 runs keep the
// same role at small scale with a ~1.8% margin at 95% confidence.
const DefaultBaselineRuns = 3000

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) baselineRuns() int {
	if c.BaselineRuns <= 0 {
		return DefaultBaselineRuns
	}
	return c.BaselineRuns
}

// campaign is the options every experiment's campaigns run under. Per-site
// outcomes are always kept: fig2, fig4 and fig7 read them, and the engine
// holds the slice either way.
func (c Config) campaign() fault.CampaignOptions {
	return fault.CampaignOptions{Parallelism: c.Parallelism, Sink: c.Stats, KeepPerSite: true}
}

// selected reports whether a multi-kernel experiment runs the named kernel:
// any kernel when Kernels is empty, otherwise only the kernels it lists.
func (c Config) selected(name string) bool {
	return len(c.Kernels) == 0 || slices.Contains(c.Kernels, name)
}

// uniform runs n sites drawn uniformly with rng from the destination-register
// site space (model is dest-value or dest-double, which share it) — every
// uniform random campaign an experiment runs. Callers pass the RNG, not a
// stream name, because table2 splits two streams off one parent and models
// draws both destination-register models from one.
func (c Config) uniform(t *fault.Target, rng *stats.RNG, n int, model fault.Model) (*fault.CampaignResult, error) {
	sites := fault.NewSpace(t.Profile()).Random(rng, n)
	return fault.RunModel(t, fault.Uniform(sites), model, c.campaign())
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the stable handle ("table1", "fig9").
	ID string
	// Title describes what the paper shows.
	Title string
	// Run executes the experiment and writes its report to cfg.Out.
	Run func(cfg Config) error
}

// registry is every experiment in presentation order: the paper's tables
// and figures as the paper presents them, then the extensions.
var registry = []Experiment{
	{ID: "table1", Title: "Threads and exhaustive fault sites per kernel (Table I)", Run: RunTable1},
	{ID: "table2", Title: "GEMM statistical sampling vs exhaustive (Table II)", Run: RunTable2},
	{ID: "fig2", Title: "CTA grouping from fault-injection outcomes (Fig. 2)", Run: RunFig2},
	{ID: "fig3", Title: "CTA grouping from thread iCnt distributions (Fig. 3)", Run: RunFig3},
	{ID: "table3", Title: "2DCONV CTA and thread groups (Table III)", Run: RunTable3},
	{ID: "table4", Title: "HotSpot CTA and thread groups (Table IV)", Run: RunTable4},
	{ID: "fig4", Title: "Thread grouping inside one CTA (Fig. 4)", Run: RunFig4},
	{ID: "fig5", Title: "PathFinder representative-thread code alignment (Fig. 5)", Run: RunFig5},
	{ID: "table5", Title: "Instruction-wise pruning on two PathFinder threads (Table V)", Run: RunTable5},
	{ID: "table6", Title: "Instruction-wise pruning summary (Table VI)", Run: RunTable6},
	{ID: "fig6", Title: "Outcome stability vs sampled loop iterations (Fig. 6)", Run: RunFig6},
	{ID: "fig7", Title: "Outcomes by register type and bit section (Fig. 7)", Run: RunFig7},
	{ID: "fig8", Title: "Outcomes vs number of sampled bit positions (Fig. 8)", Run: RunFig8},
	{ID: "table7", Title: "Loop statistics per kernel (Table VII)", Run: RunTable7},
	{ID: "fig9", Title: "Pruned vs baseline resilience profiles, all kernels (Fig. 9)", Run: RunFig9},
	{ID: "fig10", Title: "Fault-site reduction per pruning stage (Fig. 10)", Run: RunFig10},
	{ID: "models", Title: "Extension: fault-model comparison (dest-value / dest-double / mem-addr)", Run: RunModels},
	{ID: "ablation", Title: "Extension: stage-1 grouping classifier ablation", Run: RunAblation},
	{ID: "exhaustive", Title: "Extension: pruned and sampled campaigns vs true exhaustive ground truth", Run: RunExhaustive},
	{ID: "variance", Title: "Extension: pruned-estimate variance across sampling seeds", Run: RunVariance},
}

// All returns every experiment in presentation order.
func All() []Experiment { return slices.Clone(registry) }

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	i := slices.IndexFunc(registry, func(e Experiment) bool { return e.ID == id })
	if i < 0 {
		return Experiment{}, false
	}
	return registry[i], true
}

// buildPrepared builds and prepares a kernel instance. Every experiment
// funnels through here, and Prepare routes through the process-wide
// prepared-target cache: an experiment sweep re-building the same
// kernel+scale (each table and figure builds its own instances) performs
// one golden run per distinct configuration instead of one per instance.
func buildPrepared(name string, cfg Config) (*kernels.Instance, error) {
	p, err := campaign.Spec{
		Kernel: name,
		Scale:  cfg.Scale.String(),
		Model:  fault.ModelDestValue.String(),
	}.Prepare(fault.DefaultPreparedCache())
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return p.Instance, nil
}

// distRow formats a three-class profile as table cells.
func distRow(d fault.Dist) string {
	return fmt.Sprintf("%7.2f %7.2f %7.2f",
		d.Pct(fault.ClassMasked), d.Pct(fault.ClassSDC), d.Pct(fault.ClassOther))
}
