// Command fsprune drives the fault-site pruning pipeline on one kernel:
// profile it, enumerate its exhaustive fault-site space, build the pruned
// plan, estimate its error resilience profile against a random baseline, or
// run a durable, resumable injection campaign.
//
// Usage:
//
//	fsprune -list
//	fsprune -kernel "GEMM K1" -action plan
//	fsprune -kernel "2DCONV K1" -action estimate -baseline 3000
//	fsprune -kernel "HotSpot K1" -action profile -scale paper
//	fsprune -kernel "GEMM K1" -action campaign -journal gemm.journal
//	fsprune -kernel "GEMM K1" -action campaign -journal s0.journal -shard 0/2
//	fsprune -kernel "GEMM K1" -action campaign -model stuck-pred -stats
//
// A campaign with -journal survives interruption: SIGINT/SIGTERM (or a
// crash) leaves every completed site on disk, and rerunning the same command
// resumes where it stopped. Shard journals are recombined with fsmerge.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	bl "repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/interrupts"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	list := flag.Bool("list", false, "list available kernels")
	kernel := flag.String("kernel", "", `kernel name, e.g. "GEMM K1"`)
	action := flag.String("action", "estimate", "profile | sites | plan | estimate | baseline | campaign")
	scale := flag.String("scale", "small", "kernel scale: small or paper")
	baseline := flag.Int("baseline", 3000, "baseline campaign size")
	modelName := flag.String("model", "dest-value", "fault model for -action campaign: "+fault.ModelNames())
	seed := flag.Int64("seed", 1, "random seed")
	par := flag.Int("par", 0, "campaign parallelism (0 = GOMAXPROCS)")
	loopIters := flag.Int("loop-iters", 0, "sampled loop iterations (0 = default, <0 = disable)")
	autoLoop := flag.Bool("auto-loop", false, "pick the loop sample size adaptively (paper Section III-D)")
	bitSamples := flag.Int("bit-samples", 0, "sampled bit positions per register (0 = default, <0 = all)")
	flag.IntVar(bitSamples, "bits", 0, "alias for -bit-samples")
	margin := flag.Float64("margin", 0.03, "target error margin for -action baseline (adaptive)")
	deadPrune := flag.Bool("dead", false, "enable the dead-destination extension stage")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	showStats := flag.Bool("stats", false, "report campaign execution stats (runs, rate, COW pages, devices, fast-forward skips)")
	warp := flag.Int("warp", 0, "SIMT lockstep warp width for every run (0 = serial thread interleaving)")
	journalPath := flag.String("journal", "", "write-ahead outcome journal for -action campaign (created, or resumed if it exists)")
	shardSpec := flag.String("shard", "", `run only shard "i/n" of the campaign (with -action campaign)`)
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file (written on normal exit)")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on normal exit")
	flag.Parse()

	if *list {
		for _, s := range kernels.All() {
			fmt.Printf("%-16s %-10s %-20s %6d threads (paper)\n",
				s.Meta.Name(), s.Meta.Suite, s.Meta.Kernel, s.Meta.PaperThreads)
		}
		return
	}

	// Every action runs on the campaign the flags name; the Spec owns the
	// usage rules, the target wiring, the site recipe and the fingerprint.
	spec := campaign.Spec{
		Kernel: *kernel,
		Scale:  *scale,
		Seed:   *seed,
		Sites:  *baseline,
		Model:  *modelName,
		Warp:   *warp,
	}
	if *shardSpec != "" {
		i, n, ok := strings.Cut(*shardSpec, "/")
		var err1, err2 error
		spec.ShardIndex, err1 = strconv.Atoi(i)
		spec.ShardCount, err2 = strconv.Atoi(n)
		if !ok || err1 != nil || err2 != nil || spec.ShardCount == 0 {
			usageError("invalid -shard %q (want i/n, e.g. 0/4)", *shardSpec)
		}
	}
	if err := spec.Validate(); err != nil {
		usageError("%v", err)
	}
	if *par < 0 {
		usageError("-par must be >= 0 (0 = GOMAXPROCS), got %d", *par)
	}
	// Flags that contradict each other are rejected up front instead of
	// silently ignored: -auto-loop overwrites any explicit -loop-iters
	// choice.
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *autoLoop && explicit["loop-iters"] {
		usageError("-auto-loop selects the loop sample size itself; it cannot be combined with an explicit -loop-iters")
	}
	if (*journalPath != "" || *shardSpec != "") && *action != "campaign" {
		usageError("-journal and -shard apply only to -action campaign")
	}
	if *modelName != fault.ModelDestValue.String() {
		// The pruning pipeline (plan/estimate/baseline) is the paper's
		// dest-value methodology; alternate models run plain campaigns.
		if *action != "campaign" {
			usageError("-model %s applies only to -action campaign (the pruning pipeline is defined over dest-value sites)", *modelName)
		}
		// Bit-sampling subsamples destination-register bit positions, which
		// mem-addr and stuck-at sites do not have.
		if explicit["bits"] || explicit["bit-samples"] {
			usageError("-bit-samples subsamples destination-register bits; it cannot be combined with -model %s", *modelName)
		}
	}

	// pprof profiles cover everything from here on and are flushed when main
	// returns normally; error exits (usage mistakes, fatal, forced
	// interrupt) drop them.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			fatal(err)
			runtime.GC()
			fatal(pprof.WriteHeapProfile(f))
			fatal(f.Close())
		}()
	}

	// SIGINT/SIGTERM interrupt campaigns cooperatively: workers finish
	// their in-flight sites, the journal keeps every completed outcome, and
	// the process reports partial progress. A second signal forces exit 130
	// even while the first is still draining (see internal/interrupts).
	interrupt := interrupts.Notify()

	sink := &fault.StatsSink{}
	options := func() fault.CampaignOptions {
		return fault.CampaignOptions{Parallelism: *par, Sink: sink, Interrupt: interrupt}
	}

	// Every Prepare of this process goes through the shared cache: the
	// pipeline stages below (auto-loop, plan, estimate, baseline) each
	// amortize this target's golden run instead of repeating it.
	inst, err := spec.Prepare(fault.DefaultPreparedCache())
	fatal(err)
	prof := inst.Target.Profile()
	space := fault.NewSpace(prof)

	switch *action {
	case "profile":
		if *asJSON {
			fatal(report.Write(os.Stdout, report.NewKernelProfile(spec.Kernel, prof)))
			return
		}
		fmt.Printf("%s (%s): %d threads, %d CTAs, %d dynamic instructions\n",
			spec.Kernel, spec.Scale, inst.Target.Threads(), prof.NumCTAs(), prof.TotalDyn())
		groups := core.GroupCTAs(prof)
		fmt.Printf("CTA groups: %d\n", len(groups))
		for gi, g := range groups {
			fmt.Printf("  C-%d: %d CTAs, avg iCnt %.1f\n", gi+1, len(g.Members), g.AvgICnt)
		}
		tgs := core.GroupThreads(prof, groups, core.GroupingOptions{})
		fmt.Printf("thread groups: %d\n", len(tgs))
		for _, tg := range tgs {
			ls := trace.SummarizeLoops(prof.Threads[tg.Rep].PCs)
			fmt.Printf("  rep t%d: iCnt %d, population %d, loops %d (%d iters, %.1f%% in loop)\n",
				tg.Rep, tg.ICnt, tg.Population, ls.Loops, ls.TotalIters, ls.PctInLoop())
		}

	case "sites":
		fmt.Printf("%s (%s): exhaustive fault sites (Eq. 1) = %d\n",
			spec.Kernel, spec.Scale, space.Total())
		t := stats.TStat(0.998)
		fmt.Printf("random baseline for 99.8%% CI, 0.63%% margin: %d runs\n",
			stats.SampleSize(space.Total(), 0.0063, t, 0.5))
		t = stats.TStat(0.95)
		fmt.Printf("random baseline for 95%% CI, 3%% margin: %d runs\n",
			stats.SampleSize(space.Total(), 0.03, t, 0.5))

	case "plan", "estimate":
		iters := *loopIters
		if *autoLoop {
			auto, err := core.AutoLoopIters(inst.Target, core.AutoLoopOptions{
				Base:     core.Options{Seed: *seed, BitSamples: *bitSamples},
				Campaign: options(),
			})
			fatal(err)
			iters = auto.Iters
			fmt.Printf("adaptive loop sampling selected %d iterations (%d steps tried)\n",
				auto.Iters, len(auto.Steps))
		}
		plan, err := core.BuildPlan(inst.Target, core.Options{
			Seed:           *seed,
			LoopIters:      iters,
			BitSamples:     *bitSamples,
			DeadWritePrune: *deadPrune,
		})
		fatal(err)
		if *action == "plan" {
			if *asJSON {
				fatal(report.Write(os.Stdout, report.NewPlan(plan)))
			} else {
				fmt.Println(plan)
			}
			return
		}
		if !*asJSON {
			fmt.Println(plan)
		}
		estRes, err := plan.EstimateResult(options())
		fatal(err)
		est := estRes.Dist
		res, err := inst.Run(options())
		fatal(err)
		if *asJSON {
			var cs *fault.CampaignStats
			if *showStats {
				cs = &estRes.Stats
			}
			fatal(report.Write(os.Stdout, report.NewEstimate(plan, est, &res.Dist, cs)))
			return
		}
		fmt.Printf("pruned estimate:  %s\n", est)
		fmt.Printf("random baseline:  %s\n", res.Dist)
		fmt.Printf("max class delta:  %.2f pp\n", est.MaxClassDelta(res.Dist))
		if *showStats {
			fmt.Printf("pruned campaign:  %s\n", estRes.Stats)
			fmt.Printf("all campaigns:    %s\n", sink.Total())
			fmt.Printf("%s\n", fault.DefaultPreparedCache().Stats())
		}

	case "baseline":
		// The shortest 250-site prefix of this seed's campaign (at most
		// -baseline sites) whose every class reaches -margin.
		res, err := bl.Adaptive(inst, *margin, options())
		fatal(err)
		fmt.Printf("adaptive random baseline: %s\n", res)
		if *showStats {
			fmt.Printf("campaign stats: %s\n", res.Stats)
			fmt.Printf("%s\n", fault.DefaultPreparedCache().Stats())
		}

	case "campaign":
		// A fixed-size uniform random campaign — the durable workhorse.
		// The site list derives deterministically from (kernel, scale,
		// seed, size, model), which is exactly what the journal fingerprint
		// pins.
		opt := options()
		var j *journal.Journal
		if *journalPath != "" {
			j, err = journal.Open(*journalPath, spec.Fingerprint())
			fatal(err)
			opt.Journal = j
		}
		res, err := inst.Run(opt)
		if errors.Is(err, fault.ErrInterrupted) {
			if j != nil {
				if cerr := j.Close(); cerr != nil {
					fmt.Fprintf(os.Stderr, "journal close: %v\n", cerr)
				}
			}
			fmt.Fprintf(os.Stderr, "%v\n", err)
			fmt.Fprintf(os.Stderr, "partial stats: %s\n", sink.Total())
			if *journalPath != "" {
				fmt.Fprintf(os.Stderr, "completed outcomes are saved in %s; rerun the same command to resume\n", *journalPath)
			} else {
				fmt.Fprintln(os.Stderr, "progress was lost; rerun with -journal FILE to make campaigns resumable")
			}
			os.Exit(130)
		}
		fatal(err)
		if j != nil {
			fatal(j.Close())
		}

		if *asJSON {
			doc := struct {
				Kernel    string          `json:"kernel"`
				Scale     string          `json:"scale"`
				Seed      int64           `json:"seed"`
				Model     string          `json:"model"`
				Shard     string          `json:"shard,omitempty"`
				Sites     int             `json:"sites"`
				Completed int             `json:"completed"`
				Profile   report.Profile  `json:"profile"`
				Campaign  report.Campaign `json:"campaign"`
			}{
				Kernel:    spec.Kernel,
				Scale:     spec.Scale,
				Seed:      spec.Seed,
				Model:     spec.Model,
				Shard:     *shardSpec,
				Sites:     spec.Sites,
				Completed: res.Completed,
				Profile:   report.NewProfile(res.Dist),
				Campaign:  report.NewCampaign(sink.Total()),
			}
			fatal(report.Write(os.Stdout, doc))
			return
		}
		if *shardSpec != "" {
			fmt.Printf("%s (%s): model %s, shard %s, %d of %d sites\n",
				spec.Kernel, spec.Scale, spec.Model, *shardSpec, res.Completed, spec.Sites)
		} else {
			fmt.Printf("%s (%s): model %s, %d sites\n", spec.Kernel, spec.Scale, spec.Model, res.Completed)
		}
		fmt.Printf("profile: %s\n", res.Dist)
		if n := len(res.Quarantined); n > 0 {
			fmt.Printf("quarantined sites: %d\n", n)
			for _, q := range res.Quarantined {
				fmt.Printf("  %s\n", q)
			}
		}
		if *showStats {
			fmt.Printf("campaign stats: %s\n", sink.Total())
			fmt.Printf("%s\n", fault.DefaultPreparedCache().Stats())
		}

	default:
		fmt.Fprintf(os.Stderr, "unknown action %q\n", *action)
		os.Exit(2)
	}
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
