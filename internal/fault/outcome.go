// Package fault implements the paper's fault-injection methodology on top of
// the gpusim substrate: single-bit destination-register fault sites (Eq. 1),
// outcome classification into masked / SDC / other (Section II-B), the
// exhaustive fault-site space with uniform random sampling (the 60K-run
// baseline), and a parallel campaign runner.
//
// The central types: Target is one kernel launch prepared for injection
// (Prepare performs the golden run, builds the per-thread profile and the
// checkpoint store; a PreparedCache shares that work across targets with
// equal keys); Site names one fault (thread, dynamic instruction, bit); Run
// executes a weighted-site campaign on per-worker copy-on-write devices with
// checkpointed fast-forward, snapshot-affine scheduling, per-site failure
// isolation (retry, deadline, quarantine into EngineError), and optional
// durability through a write-ahead journal with deterministic sharding. A
// campaign's execution is summarized by CampaignStats; its aggregate
// outcome by Dist, the paper's resilience profile.
package fault

import "fmt"

// Outcome classifies the effect of one injected fault.
type Outcome uint8

// Outcomes. Crash and Hang both belong to the paper's "other" class but are
// tracked separately because the simulator can tell them apart. EngineError
// is not a paper outcome at all: it marks a site the engine itself failed
// on (panic, internal error, or per-site deadline) and quarantined after
// retries, so a long campaign degrades gracefully instead of aborting.
const (
	Masked      Outcome = iota // output identical to golden
	SDC                        // run completed, output differs
	Crash                      // memory fault / invalid execution
	Hang                       // watchdog expired or barrier deadlock
	EngineError                // site quarantined after repeated engine failures
	numOutcomes
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case SDC:
		return "sdc"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	case EngineError:
		return "engine-error"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Valid reports whether o is a defined outcome — the bounds check for
// outcomes deserialized from a journal.
func (o Outcome) Valid() bool { return o < numOutcomes }

// Class is the paper's three-way outcome classification.
type Class uint8

// Classes per Section II-B of the paper.
const (
	ClassMasked Class = iota
	ClassSDC
	ClassOther
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassMasked:
		return "masked"
	case ClassSDC:
		return "sdc"
	case ClassOther:
		return "other"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Class maps an outcome to its paper class.
func (o Outcome) Class() Class {
	switch o {
	case Masked:
		return ClassMasked
	case SDC:
		return ClassSDC
	default:
		return ClassOther
	}
}

// Dist is a (possibly weighted) distribution of fault-injection outcomes —
// the paper's "error resilience profile". Weights support the pruning
// stages, where one representative site stands for a population of pruned
// sites.
type Dist struct {
	W [numOutcomes]float64
	// N is the number of actual injection experiments aggregated (unweighted).
	N int64
}

// Add records one experiment with the given weight.
func (d *Dist) Add(o Outcome, weight float64) {
	d.W[o] += weight
	d.N++
}

// Merge accumulates another distribution.
func (d *Dist) Merge(o Dist) {
	for i := range d.W {
		d.W[i] += o.W[i]
	}
	d.N += o.N
}

// Total is the summed weight.
func (d Dist) Total() float64 {
	var t float64
	for _, w := range d.W {
		t += w
	}
	return t
}

// Pct returns the percentage (0-100) of weight in a class.
func (d Dist) Pct(c Class) float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	var w float64
	for o := Outcome(0); o < numOutcomes; o++ {
		if o.Class() == c {
			w += d.W[o]
		}
	}
	return 100 * w / t
}

// PctOutcome returns the percentage (0-100) of weight in a single outcome.
func (d Dist) PctOutcome(o Outcome) float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return 100 * d.W[o] / t
}

// MaxClassDelta is the largest absolute percentage-point difference between
// two profiles across the three paper classes — the accuracy metric of the
// evaluation (Fig. 9 compares pruned vs. baseline per class).
func (d Dist) MaxClassDelta(o Dist) float64 {
	var m float64
	for c := Class(0); c < NumClasses; c++ {
		delta := d.Pct(c) - o.Pct(c)
		if delta < 0 {
			delta = -delta
		}
		if delta > m {
			m = delta
		}
	}
	return m
}

// String formats the profile as "masked 52.1% sdc 30.0% other 17.9% (n=...)".
func (d Dist) String() string {
	return fmt.Sprintf("masked %.1f%% sdc %.1f%% other %.1f%% (n=%d)",
		d.Pct(ClassMasked), d.Pct(ClassSDC), d.Pct(ClassOther), d.N)
}
