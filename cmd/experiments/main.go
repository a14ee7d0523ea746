// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig9 -exp table1
//	experiments -exp all -scale small -baseline 3000
//
// Each experiment prints a plain-text table; EXPERIMENTS.md records the
// outputs next to the paper's reported values.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/kernels"
)

type expList []string

func (l *expList) String() string { return strings.Join(*l, ",") }
func (l *expList) Set(v string) error {
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			*l = append(*l, s)
		}
	}
	return nil
}

func main() {
	var exps expList
	flag.Var(&exps, "exp", "experiment id (table1..table7, fig2..fig10, or 'all'); repeatable")
	list := flag.Bool("list", false, "list available experiments")
	scale := flag.String("scale", "small", "kernel scale: small or paper")
	baseline := flag.Int("baseline", 0, "baseline campaign size (0 = default)")
	seed := flag.Int64("seed", 1, "random seed")
	par := flag.Int("par", 0, "campaign parallelism (0 = GOMAXPROCS)")
	outPath := flag.String("out", "", "also append the reports to this file")
	kernelFilter := flag.String("kernels", "", "comma-separated kernel subset (default: the paper's full set)")
	showStats := flag.Bool("stats", false, "report per-experiment campaign stats (runs, rate, COW pages, devices, fast-forward skips)")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if len(exps) == 0 {
		fmt.Fprintln(os.Stderr, "no experiments selected; use -exp <id> or -list")
		os.Exit(2)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}
	cfg := experiments.Config{
		BaselineRuns: *baseline,
		Parallelism:  *par,
		Seed:         *seed,
		Out:          out,
	}
	if *kernelFilter != "" {
		for _, k := range strings.Split(*kernelFilter, ",") {
			if k = strings.TrimSpace(k); k != "" {
				cfg.Kernels = append(cfg.Kernels, k)
			}
		}
	}
	sc, err := kernels.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Scale = sc

	selected := []experiments.Experiment{}
	if len(exps) == 1 && exps[0] == "all" {
		selected = experiments.All()
	} else {
		for _, id := range exps {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now()
		if *showStats {
			cfg.Stats = &fault.StatsSink{}
		}
		fmt.Fprintf(out, "=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *showStats {
			fmt.Fprintf(out, "campaign stats: %s\n", cfg.Stats.Total())
		}
		fmt.Fprintf(out, "--- %s done in %v ---\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *showStats {
		fmt.Fprintf(out, "%s\n", fault.DefaultPreparedCache().Stats())
	}
}
