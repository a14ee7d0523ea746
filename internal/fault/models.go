package fault

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/gpusim"
)

// Model selects the fault model for an injection experiment: the
// simulator's injection kind, whose docs define each model and whose Sites
// method is the one site rule. The paper's methodology uses ModelDestValue
// (single bit flip in the destination register, Section II-C); the
// extended models reproduce the additional SASSIFI-style modes discussed in
// the paper's related work and are used by the model-comparison experiment.
type Model = gpusim.InjectKind

// Fault models.
const (
	ModelDestValue       = gpusim.InjectDestValue
	ModelDestDouble      = gpusim.InjectDestDouble
	ModelMemAddr         = gpusim.InjectMemAddr
	ModelDestByte        = gpusim.InjectDestByte
	ModelLaneCorrelated  = gpusim.InjectLaneCorrelated
	ModelStuckPred       = gpusim.InjectStuckPred
	ModelStuckActiveMask = gpusim.InjectStuckActiveMask
	ModelStuckBarrier    = gpusim.InjectStuckBarrier
	NumModels            = gpusim.NumInjectKinds
)

// ModelNames lists every model name, comma-separated — for usage errors.
func ModelNames() string {
	var b strings.Builder
	for m := Model(0); m < NumModels; m++ {
		if m > 0 {
			b.WriteString(", ")
		}
		b.WriteString(m.String())
	}
	return b.String()
}

// ParseModel maps a CLI/JSON model name back to the Model constant.
func ParseModel(s string) (Model, error) {
	for m := Model(0); m < NumModels; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown fault model %q (known: %s)", s, ModelNames())
}

// threadLocal reports whether the model is a transient fault that touches
// only the injected thread: once that thread has exited, the fault's only
// traces are in global memory. Lane-correlated faults also flip registers
// of threads that have not run yet; persistent faults are left to the CTA
// boundary, where the fault-liveness gate of DESIGN.md §3.1 applies.
func threadLocal(m Model) bool {
	switch m {
	case ModelDestValue, ModelDestDouble, ModelDestByte, ModelMemAddr:
		return true
	}
	return false
}

// ErrNotAMemSite reports a ModelMemAddr injection at a dynamic instruction
// that computes no memory address.
var ErrNotAMemSite = errors.New("fault: dynamic instruction has no memory operand")

// destination reports whether the model injects into the destination
// register, drawing from the paper's site space (Eq. 1).
func destination(m Model) bool { return m != ModelMemAddr && !m.Persistent() }

// validateSiteModel checks a site against the golden profile and the
// model's site rule.
func (t *Target) validateSiteModel(site Site, model Model) error {
	if t.prep == nil {
		return errors.New("fault: injection before Prepare")
	}
	if model >= NumModels {
		return fmt.Errorf("fault: unknown model %d", model)
	}
	prof := t.prep.profile
	if site.Thread < 0 || site.Thread >= len(prof.Threads) {
		return fmt.Errorf("fault: thread %d out of range", site.Thread)
	}
	tp := &prof.Threads[site.Thread]
	if site.DynInst < 0 || site.DynInst >= tp.ICnt {
		return fmt.Errorf("fault: dyn inst %d out of range for thread %d (iCnt %d)",
			site.DynInst, site.Thread, tp.ICnt)
	}
	entry := tp.PCs[site.DynInst]
	w := model.Sites(&t.Prog.Instrs[gpusim.PC(entry)], gpusim.Wrote(entry))
	switch {
	case w == 0 && model == ModelMemAddr:
		return ErrNotAMemSite
	case w == 0:
		return ErrNotASite
	case site.Bit < 0 || site.Bit >= w:
		return fmt.Errorf("fault: bit %d out of range (%d %s sites at this instruction)", site.Bit, w, model)
	}
	return nil
}

// RunSiteModel executes one full-grid fault-injection experiment under the
// given fault model on a fresh clone of the pristine device.
func (t *Target) RunSiteModel(site Site, model Model) (Outcome, error) {
	return t.RunSiteModelOn(t.Init.Clone(), site, model)
}

// RunSiteModelOn is RunSiteModel on a caller-provided device, which must
// hold the pristine initial state (a Clone of Init, or a used device after
// ResetFrom). The device is left in its post-run state; the caller owns
// resetting it before reuse.
func (t *Target) RunSiteModelOn(dev *gpusim.Device, site Site, model Model) (Outcome, error) {
	if err := t.validateSiteModel(site, model); err != nil {
		return 0, err
	}
	return t.runSiteModelOn(dev, site, model)
}

func (t *Target) runSiteModelOn(dev *gpusim.Device, site Site, model Model) (Outcome, error) {
	inj := &gpusim.Injection{
		Thread: site.Thread, DynInst: site.DynInst, Bit: site.Bit,
		Kind: model,
	}
	launch := t.launch(inj, nil, t.prep.watchdog)
	res, err := gpusim.Execute(dev, &launch)
	if err != nil {
		return 0, err
	}
	return t.classify(dev, res), nil
}
