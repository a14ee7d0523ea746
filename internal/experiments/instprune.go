package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/kernels"
)

// pathfinderReps builds the PathFinder plan and returns the base
// representative and the other representative with the largest common block
// (the paper's threads "a" and "b" in Fig. 5 / Table V).
func pathfinderReps(cfg Config) (*kernels.Instance, *core.Plan, core.CommonBlock, error) {
	inst, err := buildPrepared("PathFinder K1", cfg)
	if err != nil {
		return nil, nil, core.CommonBlock{}, err
	}
	plan, err := core.BuildPlan(inst.Target, core.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, nil, core.CommonBlock{}, err
	}
	var best core.CommonBlock
	for _, b := range plan.InstPrune.Blocks {
		if b.Prefix+b.Suffix > best.Prefix+best.Suffix {
			best = b
		}
	}
	if best.ICnt == 0 {
		return nil, nil, core.CommonBlock{}, fmt.Errorf("experiments: PathFinder has no common block")
	}
	return inst, plan, best, nil
}

// RunFig5 reproduces Fig. 5: the instruction-stream alignment of the two
// PathFinder representative threads — identical prefix, a divergent middle
// block in the longer thread, identical suffix.
func RunFig5(cfg Config) error {
	w := cfg.out()
	inst, _, blk, err := pathfinderReps(cfg)
	if err != nil {
		return err
	}
	prof := inst.Target.Profile()
	a, b := blk.Base, blk.Thread
	fmt.Fprintf(w, "Fig. 5 (PathFinder): PTXPlus alignment of representative threads\n")
	fmt.Fprintf(w, "thread a (base): id=%d iCnt=%d\n", a, prof.Threads[a].ICnt)
	fmt.Fprintf(w, "thread b:        id=%d iCnt=%d\n", b, prof.Threads[b].ICnt)
	fmt.Fprintf(w, "common prefix: %d instructions\n", blk.Prefix)
	fmt.Fprintf(w, "middle block only in a: %d instructions\n",
		prof.Threads[a].ICnt-blk.Prefix-blk.Suffix)
	fmt.Fprintf(w, "middle block only in b: %d instructions\n",
		prof.Threads[b].ICnt-blk.Prefix-blk.Suffix)
	fmt.Fprintf(w, "common suffix: %d instructions (%.1f%% of b common with a)\n",
		blk.Suffix, blk.PctCommon())

	// Show the first divergent region like the paper's side-by-side listing.
	fmt.Fprintln(w, "first instructions after the common prefix:")
	for k := int64(0); k < 5; k++ {
		i := blk.Prefix + k
		line := func(t int) string {
			if i >= prof.Threads[t].ICnt {
				return "<end>"
			}
			pc := gpusim.PC(prof.Threads[t].PCs[i])
			return inst.Target.Prog.Instrs[pc].String()
		}
		fmt.Fprintf(w, "  a: %-50s | b: %s\n", line(a), line(b))
	}
	return nil
}

// RunTable5 reproduces Table V: injecting only into the common portion of
// the two PathFinder representatives yields nearly identical masked/SDC
// distributions, justifying the extrapolation.
func RunTable5(cfg Config) error {
	w := cfg.out()
	inst, _, blk, err := pathfinderReps(cfg)
	if err != nil {
		return err
	}
	prof := inst.Target.Profile()
	space := fault.NewSpace(prof)

	fmt.Fprintln(w, "Table V: outcomes on the common instruction block of two PathFinder threads")
	fmt.Fprintf(w, "%-8s %6s %12s %8s %8s\n", "Thread", "iCnt", "%CommonInsn", "%MSK", "%SDC")
	for _, t := range []int{blk.Base, blk.Thread} {
		icnt := prof.Threads[t].ICnt
		keep := func(dyn int64) bool {
			return dyn < blk.Prefix || dyn >= icnt-blk.Suffix
		}
		sites := space.ThreadSites(t, keep)
		res, err := fault.Run(inst.Target, fault.Uniform(sites), cfg.campaign())
		if err != nil {
			return err
		}
		common := 100 * float64(blk.Prefix+blk.Suffix) / float64(icnt)
		fmt.Fprintf(w, "t%-7d %6d %11.1f%% %7.1f%% %7.1f%%\n",
			t, icnt, common, res.Dist.Pct(fault.ClassMasked), res.Dist.Pct(fault.ClassSDC))
	}
	return nil
}

// RunTable6 reproduces Table VI: per kernel, the percentage of
// representative instructions pruned as common blocks and the error this
// introduces, measured by comparing the pipeline's estimate with and without
// stage 2 (the paper compares against exhaustive injection on the
// thread-pruned space).
func RunTable6(cfg Config) error {
	w := cfg.out()
	fmt.Fprintln(w, "Table VI: instruction-wise pruning summary")
	fmt.Fprintf(w, "%-16s %14s %12s %12s\n",
		"Kernel", "%PrunedInsn", "ErrMSK(pp)", "ErrSDC(pp)")
	var sumPruned, sumMsk, sumSdc float64
	var n int
	for _, spec := range kernels.TableIKernels() {
		if !cfg.selected(spec.Meta.Name()) {
			continue
		}
		inst, err := buildPrepared(spec.Meta.Name(), cfg)
		if err != nil {
			return err
		}
		with, err := core.BuildPlan(inst.Target, core.Options{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		if with.InstPrune.PrunedInsts == 0 {
			continue // not applicable / no commonality, as in the paper
		}
		without, err := core.BuildPlan(inst.Target, core.Options{
			Seed: cfg.Seed, DisableInstPrune: true,
		})
		if err != nil {
			return err
		}
		dWith, err := with.Estimate(cfg.campaign())
		if err != nil {
			return err
		}
		dWithout, err := without.Estimate(cfg.campaign())
		if err != nil {
			return err
		}
		errMsk := dWith.Pct(fault.ClassMasked) - dWithout.Pct(fault.ClassMasked)
		errSdc := dWith.Pct(fault.ClassSDC) - dWithout.Pct(fault.ClassSDC)
		fmt.Fprintf(w, "%-16s %13.2f%% %+11.2f %+11.2f\n",
			spec.Meta.Name(), with.InstPrune.PctPruned(), errMsk, errSdc)
		sumPruned += with.InstPrune.PctPruned()
		sumMsk += errMsk
		sumSdc += errSdc
		n++
	}
	if n > 0 {
		fmt.Fprintf(w, "%-16s %13.2f%% %+11.2f %+11.2f\n",
			"Average", sumPruned/float64(n), sumMsk/float64(n), sumSdc/float64(n))
	}
	return nil
}
