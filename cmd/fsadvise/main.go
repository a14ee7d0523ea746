// Command fsadvise turns a completed injection campaign into selective-
// hardening advice: per-thread and per-static-instruction vulnerability
// rankings with confidence intervals, and a simulated duplicate-and-compare
// protection frontier (resilience vs modeled overhead).
//
// It consumes either a recorded campaign journal (the durable output of
// `fsprune -action campaign -journal FILE`, or several shard journals) or
// runs a live campaign itself:
//
//	fsadvise -journal gemm.journal
//	fsadvise -journal s0.journal,s1.journal -budget 5,10,25 -json
//	fsadvise -kernel "GEMM K1" -sites 2000 -rank-by severity
//
// Both paths produce byte-identical JSON for the same campaign — the
// journal replay attributes exactly the outcomes the live run records.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/advisor"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/interrupts"
	"repro/internal/journal"
	"repro/internal/report"
)

func main() {
	journalSpec := flag.String("journal", "", "comma-separated campaign journal(s) to analyze (shards of one campaign merge)")
	kernel := flag.String("kernel", "", `kernel for a live campaign, e.g. "GEMM K1" (mutually exclusive with -journal)`)
	scale := flag.String("scale", "small", "kernel scale for a live campaign: small or paper")
	seed := flag.Int64("seed", 1, "site-sampling seed for a live campaign")
	sites := flag.Int("sites", 3000, "campaign size for a live campaign")
	modelName := flag.String("model", "dest-value", "fault model for a live campaign: "+fault.ModelNames())
	par := flag.Int("par", 0, "live-campaign parallelism (0 = GOMAXPROCS)")
	rankBy := flag.String("rank-by", "sdc", "ranking criterion: sdc | due | severity")
	budgetSpec := flag.String("budget", "", `overhead budgets to sweep, percent ("5,10,25"); empty = every greedy prefix`)
	confidence := flag.Float64("confidence", 0.95, "Wilson-interval confidence level")
	top := flag.Int("top", 10, "ranking rows to print in text mode (0 = all)")
	width := flag.Int("width", 60, "frontier plot width in characters")
	asJSON := flag.Bool("json", false, "emit the machine-readable advice document instead of text")
	flag.Parse()

	if (*journalSpec == "") == (*kernel == "") {
		usageError("exactly one of -journal or -kernel is required")
	}
	budgets, err := advisor.ParseBudgets(*budgetSpec)
	if err != nil {
		usageError("%v", err)
	}
	opt := advisor.Options{RankBy: *rankBy, Confidence: *confidence, Budgets: budgets}

	var in *advisor.Input
	if *journalSpec != "" {
		in = fromJournals(strings.Split(*journalSpec, ","))
	} else {
		spec := campaign.Spec{Kernel: *kernel, Scale: *scale, Seed: *seed, Sites: *sites, Model: *modelName}
		if err := spec.Validate(); err != nil {
			usageError("%v", err)
		}
		in = fromLiveCampaign(spec, *par)
	}

	adv, err := advisor.Analyze(in, opt)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		fatal(report.Write(os.Stdout, adv))
		return
	}
	advisor.Render(os.Stdout, adv, *top, *width)
}

// fromJournals replays one or more shard journals of a single campaign and
// prepares the spec the fingerprint describes, so attribution resolves
// against the same profile the campaign ran on.
func fromJournals(paths []string) *advisor.Input {
	for i := range paths {
		paths[i] = strings.TrimSpace(paths[i])
	}
	fp, recs, err := journal.Merge(paths, false)
	fatal(err)
	spec, err := campaign.FromFingerprint(fp)
	fatal(err)
	p, err := spec.Prepare(fault.DefaultPreparedCache())
	fatal(err)
	in, err := advisor.FromJournal(p.Target, fp, recs)
	fatal(err)
	return in
}

// fromLiveCampaign runs the campaign fsprune would run for the same flags
// with per-site outcomes retained, then attributes the result.
func fromLiveCampaign(spec campaign.Spec, par int) *advisor.Input {
	p, err := spec.Prepare(fault.DefaultPreparedCache())
	fatal(err)
	// The site list is derived once and shared by the run and its
	// attribution. A live campaign is never sharded, so the engine takes
	// the whole list.
	sites := p.Sites()
	res, err := fault.RunModel(p.Target, sites, p.Model, fault.CampaignOptions{
		Parallelism: par,
		KeepPerSite: true,
		Interrupt:   interrupts.Notify(),
	})
	if errors.Is(err, fault.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		fmt.Fprintln(os.Stderr, "advice needs a complete campaign; nothing was saved (record one with fsprune -journal and advise from that)")
		os.Exit(130)
	}
	fatal(err)
	in, err := advisor.FromCampaign(p.Target, spec.Fingerprint(), sites, res)
	fatal(err)
	return in
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
