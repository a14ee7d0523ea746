// Package kernels defines the reproduction's workload suite: the 10
// applications (17 static kernels, counting NN) from Rodinia and Polybench
// that the paper evaluates, rewritten in the PTXPlus-flavoured assembly of
// internal/ptx with Go host code that generates inputs, declares output
// ranges, and computes reference outputs for correctness testing.
//
// Every kernel supports two scales: ScalePaper matches the paper's Table I
// thread geometry (for fault-site accounting), and ScaleSmall shrinks the
// problem so injection campaigns and the test suite stay fast while
// preserving the kernel's structure (thread classes, divergence, loops).
package kernels

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/isa"
)

// Scale selects a problem size.
type Scale uint8

// Scales.
const (
	// ScalePaper reproduces the thread geometry of the paper's Table I.
	ScalePaper Scale = iota
	// ScaleSmall is a reduced geometry for injection campaigns and tests.
	ScaleSmall
)

// String names the scale.
func (s Scale) String() string {
	if s == ScalePaper {
		return "paper"
	}
	return "small"
}

// ParseScale maps a scale name ("small" or "paper") to its Scale. Every
// entry point that accepts a scale from outside the program goes through
// it, so a misspelt name is an error everywhere rather than a silent small.
func ParseScale(name string) (Scale, error) {
	switch name {
	case ScaleSmall.String():
		return ScaleSmall, nil
	case ScalePaper.String():
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want %q or %q)", name, ScaleSmall, ScalePaper)
}

// Meta describes a kernel in the paper's terms.
type Meta struct {
	Suite  string // "Rodinia" or "Polybench"
	App    string // application name, e.g. "HotSpot"
	Kernel string // kernel function name, e.g. "calculate_temp"
	ID     string // paper kernel id, e.g. "K1"
	// PaperThreads and PaperSites echo the paper's Table I for comparison
	// in EXPERIMENTS.md (PaperSites 0 when the kernel is not in Table I).
	PaperThreads int
	PaperSites   float64
	// HasLoops mirrors Table VII's loop column.
	HasLoops bool
}

// Name is the canonical "App KID" identifier ("Gaussian K126").
func (m Meta) Name() string { return m.App + " " + m.ID }

// Instance is a buildable kernel instance: an injection target plus the
// host-computed reference output used to validate the simulator.
type Instance struct {
	Meta   Meta
	Scale  Scale
	Target *fault.Target
	// WantOutput is the reference output (same byte layout as
	// Target.Golden()) computed by a plain Go implementation.
	WantOutput []byte
}

// Spec is a registered kernel.
type Spec struct {
	Meta Meta
	// Build constructs an instance at the given scale.
	Build func(s Scale) (*Instance, error)
}

var registry []Spec

// register adds a kernel at package init; order defines report order.
func register(s Spec) { registry = append(registry, s) }

// init registers every kernel in the paper's Table I order (Rodinia first,
// then Polybench), with NN — which appears only in the paper's Table VII —
// last. Centralized here so report order never depends on file-init order.
func init() {
	register(Spec{Meta: hotspotMeta, Build: buildHotSpot})
	register(Spec{Meta: kmeans1Meta, Build: buildKMeans1})
	register(Spec{Meta: kmeans2Meta, Build: buildKMeans2})
	register(Spec{Meta: gaussianK1Meta, Build: buildGaussianFan1Early})
	register(Spec{Meta: gaussianK2Meta, Build: buildGaussianFan2Early})
	register(Spec{Meta: gaussianK125Meta, Build: buildGaussianFan1Late})
	register(Spec{Meta: gaussianK126Meta, Build: buildGaussianFan2Late})
	register(Spec{Meta: pathfinderMeta, Build: buildPathFinder})
	register(Spec{Meta: ludPerimeterMeta, Build: buildLUDPerimeter})
	register(Spec{Meta: ludInternalMeta, Build: buildLUDInternal})
	register(Spec{Meta: ludDiagonalMeta, Build: buildLUDDiagonal})
	register(Spec{Meta: conv2dMeta, Build: buildConv2D})
	register(Spec{Meta: mvtMeta, Build: buildMVT})
	register(Spec{Meta: mm2Meta, Build: buildMM2})
	register(Spec{Meta: gemmMeta, Build: buildGEMM})
	register(Spec{Meta: syrkMeta, Build: buildSYRK})
	register(Spec{Meta: nnMeta, Build: buildNN})
}

// All returns the registered kernels in registration (paper Table I) order.
func All() []Spec { return append([]Spec(nil), registry...) }

// ByName finds a kernel by its Meta.Name ("GEMM K1"), case-sensitively.
func ByName(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Meta.Name() == name {
			return s, true
		}
	}
	return Spec{}, false
}

// TableIKernels returns the 16 kernels of the paper's Table I (everything
// except NN, which the paper evaluates only in the loop study).
func TableIKernels() []Spec {
	var out []Spec
	for _, s := range registry {
		if s.Meta.PaperSites > 0 {
			out = append(out, s)
		}
	}
	return out
}

// --- host-side helpers -------------------------------------------------

// synth generates a deterministic, well-conditioned float32 input stream:
// values in [-2, 2) with a period long enough to avoid accidental symmetry.
func synth(seed, i int) float32 {
	x := uint32(seed)*2654435761 + uint32(i)*40503 + 12829
	x ^= x >> 13
	x *= 2246822519
	x ^= x >> 16
	return float32(int32(x%4096)-2048) / 1024
}

// synthPos is synth shifted to (0.25, 4.25): safe as a divisor.
func synthPos(seed, i int) float32 {
	v := synth(seed, i)
	if v < 0 {
		v = -v
	}
	return v + 0.25
}

// f32w converts a float32 to its register/memory word.
func f32w(f float32) uint32 { return math.Float32bits(f) }

// wordsF32 packs float32s into words.
func wordsF32(fs []float32) []uint32 {
	out := make([]uint32, len(fs))
	for i, f := range fs {
		out[i] = f32w(f)
	}
	return out
}

// bytesOfWords serializes words little-endian (the device byte order).
func bytesOfWords(ws []uint32) []byte {
	out := make([]byte, 4*len(ws))
	for i, w := range ws {
		out[4*i] = byte(w)
		out[4*i+1] = byte(w >> 8)
		out[4*i+2] = byte(w >> 16)
		out[4*i+3] = byte(w >> 24)
	}
	return out
}

// buildTarget assembles the common Target plumbing.
func buildTarget(name string, prog *isa.Program, grid, block gpusim.Dim3, params []uint32,
	dev *gpusim.Device, output []fault.Range, sharedBytes int) *fault.Target {
	return &fault.Target{
		Name:        name,
		Prog:        prog,
		Grid:        grid,
		Block:       block,
		Params:      params,
		SharedBytes: sharedBytes,
		Init:        dev,
		Output:      output,
	}
}
