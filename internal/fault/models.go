package fault

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/gpusim"
	"repro/internal/isa"
)

// Model selects the fault model for an injection experiment. The paper's
// methodology uses ModelDestValue (single bit flip in the destination
// register, Section II-C); the extended models reproduce the additional
// SASSIFI-style modes discussed in the paper's related work and are used by
// the model-comparison experiment.
type Model uint8

// Fault models.
const (
	// ModelDestValue is the paper's baseline single-bit flip.
	ModelDestValue Model = iota
	// ModelDestDouble flips two adjacent destination bits — the
	// double-bit error a SEC-DED code detects but cannot correct.
	ModelDestDouble
	// ModelMemAddr flips one bit of the effective address computed by a
	// memory instruction (an LSU address-path fault).
	ModelMemAddr
	// ModelDestByte flips the whole destination byte containing the site
	// bit — the spatially contiguous multi-bit pattern of the SDC-anatomy
	// literature.
	ModelDestByte
	// ModelLaneCorrelated flips the site bit of the destination register in
	// every thread of the injected thread's lane group — the same-bit-
	// across-lanes pattern of a datapath fault shared by a SIMT lane group.
	ModelLaneCorrelated
	// ModelStuckPred holds one predicate-register flag bit of the injected
	// thread at a stuck value from the site's dynamic instruction to the
	// end of the run. Site.Bit packs (stuck value, predicate register,
	// flag bit); see StuckBits.
	ModelStuckPred
	// ModelStuckActiveMask holds the injected thread's active-mask lane at
	// the stuck value Site.Bit&1: stuck at 0 freezes the lane, stuck at 1
	// keeps it active through barriers.
	ModelStuckActiveMask
	// ModelStuckBarrier holds the injected thread's barrier-arrival state
	// at the stuck value Site.Bit&1: stuck at 1 releases barriers without
	// it, stuck at 0 deadlocks any barrier that includes it.
	ModelStuckBarrier
	NumModels
)

// String names the model. The names are the CLI -model vocabulary and the
// journal fingerprint's model field.
func (m Model) String() string {
	switch m {
	case ModelDestDouble:
		return "dest-double"
	case ModelMemAddr:
		return "mem-addr"
	case ModelDestByte:
		return "dest-byte"
	case ModelLaneCorrelated:
		return "lane-correlated"
	case ModelStuckPred:
		return "stuck-pred"
	case ModelStuckActiveMask:
		return "stuck-active-mask"
	case ModelStuckBarrier:
		return "stuck-barrier"
	}
	return "dest-value"
}

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

// Persistent reports whether the model is a stuck-at fault that persists
// from its activation site to the end of the run.
func (m Model) Persistent() bool {
	switch m {
	case ModelStuckPred, ModelStuckActiveMask, ModelStuckBarrier:
		return true
	}
	return false
}

// threadLocal reports whether the model is a transient fault that touches
// only the injected thread: once that thread has exited, the fault's only
// traces are in global memory. Lane-correlated faults also flip registers
// of threads that have not run yet; persistent faults are left to the CTA
// boundary, where the fault-liveness gate of DESIGN.md §3.11 applies.
func (m Model) threadLocal() bool {
	switch m {
	case ModelDestValue, ModelDestDouble, ModelDestByte, ModelMemAddr:
		return true
	}
	return false
}

// StuckBits is the size of a persistent model's Site.Bit encoding space (0
// for transient models): stuck value × location. ModelStuckPred enumerates
// both stuck values of every flag bit of every predicate register; the
// mask and barrier models only their two stuck values.
func (m Model) StuckBits() int {
	switch m {
	case ModelStuckPred:
		return 2 * isa.NumPreds * isa.PredBits
	case ModelStuckActiveMask, ModelStuckBarrier:
		return 2
	}
	return 0
}

// kind maps the model to the simulator's injection kind.
func (m Model) kind() gpusim.InjectKind {
	switch m {
	case ModelDestDouble:
		return gpusim.InjectDestDouble
	case ModelMemAddr:
		return gpusim.InjectMemAddr
	case ModelDestByte:
		return gpusim.InjectDestByte
	case ModelLaneCorrelated:
		return gpusim.InjectLaneCorrelated
	case ModelStuckPred:
		return gpusim.InjectStuckPred
	case ModelStuckActiveMask:
		return gpusim.InjectStuckActiveMask
	case ModelStuckBarrier:
		return gpusim.InjectStuckBarrier
	}
	return gpusim.InjectDestValue
}

// ErrNotAMemSite reports a ModelMemAddr injection at a dynamic instruction
// that computes no memory address.
var ErrNotAMemSite = errors.New("fault: dynamic instruction has no memory operand")

// destination reports whether the model injects into the destination
// register, drawing from the paper's site space (Eq. 1).
func (m Model) destination() bool { return m != ModelMemAddr && !m.Persistent() }

// sitesAt is the site rule: the number of sites (bits) one dynamic
// instance of in carries under m, given whether it wrote its destination.
// Destination-register models flip a bit of a written destination;
// mem-addr one of the 32 bits of any effective address (a memory operand,
// source or destination); persistent models activate at every retired
// instruction, with StuckBits encodings each. Every site space, draw and
// validation in this package goes through it.
func (m Model) sitesAt(in *isa.Instruction, wrote bool) int {
	switch {
	case m == ModelMemAddr:
		if in.Dst.Kind == isa.OpdMem {
			return 32
		}
		for _, s := range in.Srcs {
			if s.Kind == isa.OpdMem {
				return 32
			}
		}
		return 0
	case m.Persistent():
		return m.StuckBits()
	case wrote:
		_, bits, _ := in.DestReg()
		return bits
	}
	return 0
}

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
	w := model.sitesAt(&t.Prog.Instrs[gpusim.PC(entry)], gpusim.Wrote(entry))
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
		Kind: model.kind(),
	}
	launch := t.launch(inj, nil, t.prep.watchdog)
	res, err := gpusim.Execute(dev, &launch)
	if err != nil {
		return 0, err
	}
	return t.classify(dev, res), nil
}
