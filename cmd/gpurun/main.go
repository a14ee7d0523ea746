// Command gpurun runs one workload kernel on the gpusim simulator and dumps
// execution statistics — the simulator's debugging tool.
//
// Usage:
//
//	gpurun -kernel "PathFinder K1"
//	gpurun -kernel "GEMM K1" -disasm
//	gpurun -kernel "2DCONV K1" -trace 12 -n 30
//	gpurun -kernel "MVT K1" -inject "0:100:5"
//	gpurun -kernel "MVT K1" -inject "0:100:1" -model stuck-pred
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/gpusim"
)

func main() {
	kernel := flag.String("kernel", "", `kernel name, e.g. "GEMM K1"`)
	scale := flag.String("scale", "small", "kernel scale: small or paper")
	disasm := flag.Bool("disasm", false, "print the kernel's assembly and exit")
	traceThread := flag.Int("trace", -1, "dump the dynamic instruction trace of one thread")
	traceLen := flag.Int("n", 50, "trace length cap")
	inject := flag.String("inject", "", "inject one fault, format thread:dyninst:bit")
	modelName := flag.String("model", "dest-value", "fault model for -inject: "+fault.ModelNames())
	warp := flag.Int("warp", 0, "SIMT lockstep warp width (0 = thread-serial scheduling)")
	showStats := flag.Bool("stats", false, "report prepared-target cache stats after the run")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file (written on normal exit)")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on normal exit")
	flag.Parse()

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

	inst, err := campaign.Spec{
		Kernel: *kernel,
		Scale:  *scale,
		Model:  *modelName,
	}.Prepare(fault.DefaultPreparedCache())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *disasm {
		fmt.Printf("// %s (%s, %s)\n", inst.Meta.Kernel, inst.Meta.Suite, inst.Meta.App)
		fmt.Print(inst.Target.Prog.String())
		return
	}

	prof := inst.Target.Profile()
	fmt.Printf("%s: grid %v block %v = %d threads, %d dynamic instructions\n",
		inst.Meta.Name(), inst.Target.Grid, inst.Target.Block,
		inst.Target.Threads(), prof.TotalDyn())

	if *warp > 0 {
		// Re-execute under SIMT lockstep scheduling and verify equivalence.
		dev := inst.Target.Init.Clone()
		res, err := gpusim.Execute(dev, &gpusim.Launch{
			Prog:     inst.Target.Prog,
			Grid:     inst.Target.Grid,
			Block:    inst.Target.Block,
			Params:   inst.Target.Params,
			WarpSize: *warp,
		})
		fatal(err)
		if res.Trap != nil {
			fatal(res.Trap)
		}
		fmt.Printf("warp=%d lockstep run: %d dynamic instructions (scheduling-equivalent: %v)\n",
			*warp, res.TotalDyn, res.TotalDyn == prof.TotalDyn())
	}

	var minI, maxI int64
	minI = prof.Threads[0].ICnt
	for i := range prof.Threads {
		if c := prof.Threads[i].ICnt; c < minI {
			minI = c
		} else if c > maxI {
			maxI = c
		}
	}
	fmt.Printf("thread iCnt: min %d, max %d\n", minI, maxI)
	fmt.Printf("exhaustive fault sites: %d\n", fault.NewSpace(prof).Total())

	if *traceThread >= 0 {
		tp := prof.Threads[*traceThread]
		n := int(tp.ICnt)
		if n > *traceLen {
			n = *traceLen
		}
		fmt.Printf("trace of thread %d (first %d of %d):\n", *traceThread, n, tp.ICnt)
		for i := 0; i < n; i++ {
			pc := gpusim.PC(tp.PCs[i])
			mark := " "
			if gpusim.Wrote(tp.PCs[i]) {
				mark = "*"
			}
			fmt.Printf("  %5d %s pc=%-4d %s\n", i, mark, pc, inst.Target.Prog.Instrs[pc].String())
		}
	}

	if *inject != "" {
		var site fault.Site
		if _, err := fmt.Sscanf(*inject, "%d:%d:%d", &site.Thread, &site.DynInst, &site.Bit); err != nil {
			fatal(fmt.Errorf("bad -inject %q: %v", *inject, err))
		}
		outcome, err := inst.Target.RunSiteModel(site, inst.Model)
		fatal(err)
		fmt.Printf("injection %v (%s) -> %s\n", site, inst.Model, outcome)
	}

	if *showStats {
		fmt.Printf("%s\n", fault.DefaultPreparedCache().Stats())
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
