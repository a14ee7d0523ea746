// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I-VII, Figures 2-10) from the reproduction's simulator,
// fault injector and pruning pipeline. Each experiment prints a plain-text
// table shaped like the paper's artifact so EXPERIMENTS.md can record
// paper-vs-measured side by side.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/kernels"
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

// selectKernels filters a kernel list by the config's subset.
func (c Config) selectKernels(specs []kernels.Spec) []kernels.Spec {
	if len(c.Kernels) == 0 {
		return specs
	}
	keep := make(map[string]bool, len(c.Kernels))
	for _, name := range c.Kernels {
		keep[name] = true
	}
	var out []kernels.Spec
	for _, s := range specs {
		if keep[s.Meta.Name()] {
			out = append(out, s)
		}
	}
	return out
}

// selectNames filters a name list by the config's subset.
func (c Config) selectNames(names []string) []string {
	if len(c.Kernels) == 0 {
		return names
	}
	keep := make(map[string]bool, len(c.Kernels))
	for _, name := range c.Kernels {
		keep[name] = true
	}
	var out []string
	for _, n := range names {
		if keep[n] {
			out = append(out, n)
		}
	}
	return out
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

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

func init() {
	register(Experiment{ID: "table1", Title: "Threads and exhaustive fault sites per kernel (Table I)", Run: RunTable1})
	register(Experiment{ID: "table2", Title: "GEMM statistical sampling vs exhaustive (Table II)", Run: RunTable2})
	register(Experiment{ID: "fig2", Title: "CTA grouping from fault-injection outcomes (Fig. 2)", Run: RunFig2})
	register(Experiment{ID: "fig3", Title: "CTA grouping from thread iCnt distributions (Fig. 3)", Run: RunFig3})
	register(Experiment{ID: "table3", Title: "2DCONV CTA and thread groups (Table III)", Run: RunTable3})
	register(Experiment{ID: "table4", Title: "HotSpot CTA and thread groups (Table IV)", Run: RunTable4})
	register(Experiment{ID: "fig4", Title: "Thread grouping inside one CTA (Fig. 4)", Run: RunFig4})
	register(Experiment{ID: "fig5", Title: "PathFinder representative-thread code alignment (Fig. 5)", Run: RunFig5})
	register(Experiment{ID: "table5", Title: "Instruction-wise pruning on two PathFinder threads (Table V)", Run: RunTable5})
	register(Experiment{ID: "table6", Title: "Instruction-wise pruning summary (Table VI)", Run: RunTable6})
	register(Experiment{ID: "table7", Title: "Loop statistics per kernel (Table VII)", Run: RunTable7})
	register(Experiment{ID: "fig6", Title: "Outcome stability vs sampled loop iterations (Fig. 6)", Run: RunFig6})
	register(Experiment{ID: "fig7", Title: "Outcomes by register type and bit section (Fig. 7)", Run: RunFig7})
	register(Experiment{ID: "fig8", Title: "Outcomes vs number of sampled bit positions (Fig. 8)", Run: RunFig8})
	register(Experiment{ID: "fig9", Title: "Pruned vs baseline resilience profiles, all kernels (Fig. 9)", Run: RunFig9})
	register(Experiment{ID: "fig10", Title: "Fault-site reduction per pruning stage (Fig. 10)", Run: RunFig10})
}

// All returns the experiments sorted by ID (tables first, then figures).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

// order gives the paper's presentation order.
func order(id string) int {
	seq := []string{"table1", "table2", "fig2", "fig3", "table3", "table4",
		"fig4", "fig5", "table5", "table6", "fig6", "fig7", "fig8",
		"table7", "fig9", "fig10", "models", "ablation", "exhaustive", "variance"}
	for i, s := range seq {
		if s == id {
			return i
		}
	}
	return len(seq)
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
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
