package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/kernels"
)

// RunTable1 reproduces Table I: the number of threads and the exhaustive
// fault-site count (Eq. 1) of every kernel, next to the values the paper
// reports for its GPGPU-Sim/PTXPlus builds. One fault-free profiling run per
// kernel suffices — no injections.
func RunTable1(cfg Config) error {
	w := cfg.out()
	fmt.Fprintf(w, "Table I: threads and exhaustive fault sites (scale=%s)\n", cfg.Scale)
	fmt.Fprintf(w, "%-10s %-10s %-20s %-5s %9s %15s %15s\n",
		"Suite", "App", "Kernel", "ID", "#Threads", "#FaultSites", "Paper")
	for _, spec := range kernels.TableIKernels() {
		if !cfg.selected(spec.Meta.Name()) {
			continue
		}
		inst, err := buildPrepared(spec.Meta.Name(), cfg)
		if err != nil {
			return err
		}
		space := fault.NewSpace(inst.Target.Profile())
		fmt.Fprintf(w, "%-10s %-10s %-20s %-5s %9d %15d %15.2e\n",
			spec.Meta.Suite, spec.Meta.App, spec.Meta.Kernel, spec.Meta.ID,
			inst.Target.Threads(), space.Total(), spec.Meta.PaperSites)
	}
	return nil
}
