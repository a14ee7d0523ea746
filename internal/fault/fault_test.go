package fault_test

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/stats"
	"repro/internal/trace"
)

// tinyTarget builds a 2-CTA, 8-threads-per-CTA integer kernel with a
// divergent early exit (threads with gid >= 12 idle) and a small loop:
// out[i] = sum of in[i..i+3].
func tinyTarget(t *testing.T) *fault.Target {
	t.Helper()
	prog, err := ptx.Assemble("tiny", `
		cvt.u32.u16 $r0, %tid.x
		cvt.u32.u16 $r1, %ctaid.x
		cvt.u32.u16 $r2, %ntid.x
		mad.lo.u32 $r0, $r1, $r2, $r0
		set.ge.u32.u32 $p0/$o127, $r0, 12
		@$p0.ne bra lexit
		shl.u32 $r3, $r0, 0x00000002
		add.u32 $r3, $r3, s[0x0010]      // &in[i]
		mov.u32 $r4, $r124               // acc
		mov.u32 $r5, $r124               // k
		lloop: ld.global.u32 $r6, [$r3]
		add.u32 $r4, $r4, $r6
		add.u32 $r3, $r3, 0x00000004
		add.u32 $r5, $r5, 0x00000001
		set.lt.u32.u32 $p0/$o127, $r5, 4
		@$p0.ne bra lloop
		shl.u32 $r7, $r0, 0x00000002
		add.u32 $r7, $r7, s[0x0014]      // &out[i]
		st.global.u32 [$r7], $r4
		lexit: exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(4 * 64)
	in := make([]uint32, 16)
	for i := range in {
		in[i] = uint32(i*i + 1)
	}
	dev.WriteWords(0, in)
	return &fault.Target{
		Name:   "tiny",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 2, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 8, Y: 1, Z: 1},
		Params: []uint32{0, 4 * 16},
		Init:   dev,
		Output: []fault.Range{{Off: 4 * 16, Len: 4 * 12}},
	}
}

func TestOutcomeClasses(t *testing.T) {
	if fault.Masked.Class() != fault.ClassMasked ||
		fault.SDC.Class() != fault.ClassSDC ||
		fault.Crash.Class() != fault.ClassOther ||
		fault.Hang.Class() != fault.ClassOther {
		t.Fatal("outcome class mapping broken")
	}
	for _, o := range []fault.Outcome{fault.Masked, fault.SDC, fault.Crash, fault.Hang} {
		if o.String() == "" {
			t.Fatalf("outcome %d unnamed", o)
		}
	}
}

func TestDistMath(t *testing.T) {
	var d fault.Dist
	d.Add(fault.Masked, 3)
	d.Add(fault.SDC, 1)
	d.Add(fault.Crash, 0.5)
	d.Add(fault.Hang, 0.5)
	if d.Total() != 5 {
		t.Fatalf("total = %v", d.Total())
	}
	if d.Pct(fault.ClassMasked) != 60 {
		t.Fatalf("masked pct = %v", d.Pct(fault.ClassMasked))
	}
	if d.Pct(fault.ClassOther) != 20 {
		t.Fatalf("other pct = %v", d.Pct(fault.ClassOther))
	}
	if d.N != 4 {
		t.Fatalf("N = %d", d.N)
	}

	var e fault.Dist
	e.Add(fault.Masked, 5)
	e.Merge(d)
	if e.Total() != 10 || e.N != 5 {
		t.Fatalf("merge: %+v", e)
	}

	var empty fault.Dist
	if empty.Pct(fault.ClassMasked) != 0 || empty.PctOutcome(fault.SDC) != 0 {
		t.Fatal("empty dist pct should be 0")
	}

	var f fault.Dist
	f.Add(fault.Masked, 1)
	var g fault.Dist
	g.Add(fault.SDC, 1)
	if got := f.MaxClassDelta(g); got != 100 {
		t.Fatalf("max delta = %v", got)
	}
}

func TestTargetPrepareAndGolden(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Golden: out[i] = sum in[i..i+3] for i < 12.
	golden := tg.Golden()
	if len(golden) != 4*12 {
		t.Fatalf("golden len = %d", len(golden))
	}
	word := func(i int) uint32 {
		return uint32(golden[4*i]) | uint32(golden[4*i+1])<<8 |
			uint32(golden[4*i+2])<<16 | uint32(golden[4*i+3])<<24
	}
	for i := 0; i < 12; i++ {
		want := uint32(0)
		for k := 0; k < 4; k++ {
			want += uint32((i+k)*(i+k) + 1)
		}
		if word(i) != want {
			t.Fatalf("golden[%d] = %d, want %d", i, word(i), want)
		}
	}
	// Prepare is idempotent.
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareProgramLengthLimit: the golden run's trace addresses 32768
// static instructions; a longer program fails Prepare with the limit named
// instead of recording wrapped PCs.
func TestPrepareProgramLengthLimit(t *testing.T) {
	target := func(movs int) *fault.Target {
		return &fault.Target{
			Name:   "long",
			Prog:   ptx.MustAssemble("long", strings.Repeat("mov.u32 $r1, 1\n", movs)+"exit\n"),
			Grid:   gpusim.Dim3{X: 1, Y: 1, Z: 1},
			Block:  gpusim.Dim3{X: 1, Y: 1, Z: 1},
			Init:   gpusim.NewDevice(16),
			Output: []fault.Range{{Off: 0, Len: 4}},
		}
	}
	tg := target(0x8000 - 1)
	if err := tg.Prepare(); err != nil {
		t.Fatalf("32768-instruction program: %v", err)
	}
	if got := tg.Profile().Threads[0].ICnt; got != 0x8000 {
		t.Fatalf("32768-instruction program retired %d instructions", got)
	}
	if err := target(0x8000).Prepare(); err == nil || !strings.Contains(err.Error(), "32768") {
		t.Fatalf("32769-instruction program: err = %v, want the limit named", err)
	}
}

func TestRunSiteValidation(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := tg.RunSite(fault.Site{Thread: -1}); err == nil {
		t.Error("negative thread accepted")
	}
	if _, err := tg.RunSite(fault.Site{Thread: 999}); err == nil {
		t.Error("out-of-range thread accepted")
	}
	if _, err := tg.RunSite(fault.Site{Thread: 0, DynInst: 99999}); err == nil {
		t.Error("out-of-range dyn inst accepted")
	}
	if _, err := tg.RunSite(fault.Site{Thread: 0, DynInst: 0, Bit: 64}); err == nil {
		t.Error("out-of-range bit accepted")
	}
	// Dyn inst 5 of thread 0 is the guarded bra: not a site.
	if _, err := tg.RunSite(fault.Site{Thread: 0, DynInst: 5, Bit: 0}); err != fault.ErrNotASite {
		t.Errorf("branch site error = %v, want ErrNotASite", err)
	}
}

func TestInjectionDeterminism(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	site := fault.Site{Thread: 3, DynInst: 10, Bit: 7}
	a, err := tg.RunSite(site)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tg.RunSite(site)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same site gave %v then %v", a, b)
	}
}

func TestInjectionOutcomeKinds(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Thread 15 is idle (gid >= 12): any fault in its tiny prologue that
	// does not resurrect it is masked. Bit 0 of its first cvt result
	// changes tid parity -> gid 30 -> still idle -> masked.
	o, err := tg.RunSite(fault.Site{Thread: 15, DynInst: 0, Bit: 0})
	if err != nil {
		t.Fatal(err)
	}
	if o != fault.Masked {
		t.Fatalf("idle-thread fault = %v, want masked", o)
	}
	// Thread 0, the accumulator add (dyn 11), low bit: direct data
	// corruption -> SDC.
	o, err = tg.RunSite(fault.Site{Thread: 0, DynInst: 11, Bit: 0})
	if err != nil {
		t.Fatal(err)
	}
	if o != fault.SDC {
		t.Fatalf("accumulator fault = %v, want sdc", o)
	}
	// Thread 0, address register high bit (dyn 7 computes &in[i]): the
	// next load lands far out of range -> crash.
	o, err = tg.RunSite(fault.Site{Thread: 0, DynInst: 7, Bit: 31})
	if err != nil {
		t.Fatal(err)
	}
	if o != fault.Crash {
		t.Fatalf("address fault = %v, want crash", o)
	}
}

func TestSpaceTotalsAndDecode(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	prof := tg.Profile()
	space := fault.NewSpace(prof)
	if space.Total() != prof.TotalSites() {
		t.Fatalf("space total %d != profile %d", space.Total(), prof.TotalSites())
	}

	// Decoding every index and re-encoding must reconstruct the space:
	// count sites per thread and compare against SiteBits.
	perThread := make([]int64, len(prof.Threads))
	for idx := int64(0); idx < space.Total(); idx++ {
		s := space.Site(idx)
		perThread[s.Thread]++
		if bits := tg.Profile().SiteBitsOf(s.Thread, s.DynInst); s.Bit >= bits {
			t.Fatalf("decoded bit %d out of %d at %v", s.Bit, bits, s)
		}
	}
	for i := range perThread {
		if perThread[i] != prof.Threads[i].SiteBits {
			t.Fatalf("thread %d decoded %d sites, want %d",
				i, perThread[i], prof.Threads[i].SiteBits)
		}
	}
}

// oracleWidth is the test's own statement of each model's site rule,
// written from the Model docs rather than shared with the sampler: the
// number of sites (bits) thread th's dynamic instruction i carries.
// Destination-register models flip a bit of a destination the instance
// wrote; mem-addr one of the 32 bits of the address of any memory operand;
// stuck-pred packs (stuck value, predicate register, flag bit); the mask
// and barrier models encode only their stuck value; persistent models
// activate at every retired instruction.
func oracleWidth(prof *trace.Profile, m fault.Model, th int, i int64) int {
	entry := prof.Threads[th].PCs[i]
	in := &prof.Prog.Instrs[gpusim.PC(entry)]
	switch m {
	case fault.ModelMemAddr:
		for _, o := range append([]isa.Operand{in.Dst}, in.Srcs...) {
			if o.Kind == isa.OpdMem {
				return 32
			}
		}
		return 0
	case fault.ModelStuckPred:
		return 2 * isa.NumPreds * isa.PredBits
	case fault.ModelStuckActiveMask, fault.ModelStuckBarrier:
		return 2
	}
	if !gpusim.Wrote(entry) {
		return 0
	}
	_, bits, ok := in.DestReg()
	if !ok {
		panic("wrote flag on an instruction without a destination")
	}
	return bits
}

// annulledTarget builds a one-CTA kernel whose guarded destination writes
// and load are annulled in half its threads: instances that carry a
// destination yet wrote none, which no registered kernel retires.
func annulledTarget(t *testing.T) *fault.Target {
	t.Helper()
	prog, err := ptx.Assemble("annulled", `
		cvt.u32.u16 $r0, %tid.x
		mov.u32 $r1, $r124
		set.ge.u32.u32 $p0/$o127, $r0, 4
		@$p0.ne add.u32 $r1, $r0, 0x00000001
		@$p0.ne ld.global.u32 $r1, [0x00000000]
		shl.u32 $r2, $r0, 0x00000002
		st.global.u32 [$r2], $r1
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	return &fault.Target{
		Name:   "annulled",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 1, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 8, Y: 1, Z: 1},
		Init:   gpusim.NewDevice(4 * 8),
		Output: []fault.Range{{Off: 0, Len: 4 * 8}},
	}
}

// TestSpaceSiteMatchesEnumeration is the oracle of every model's site
// space: for each model, ForModel's flat index space is exactly the
// concatenation, thread by thread, of the sites oracleWidth admits — Total,
// every Site(i), every ThreadSites — a draw is an index into that
// concatenation, and RunSiteModel's validation accepts every enumerated
// site and rejects the first bit past each dynamic instruction's width,
// with the model's sentinel where the instruction is no site at all.
func TestSpaceSiteMatchesEnumeration(t *testing.T) {
	targets := []*fault.Target{annulledTarget(t)}
	for _, name := range []string{"Gaussian K125", "Gaussian K126", "PathFinder K1"} {
		spec, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("unknown kernel %q", name)
		}
		inst, err := spec.Build(kernels.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, inst.Target)
	}
	for _, tg := range targets {
		name := tg.Name
		if err := tg.Prepare(); err != nil {
			t.Fatal(err)
		}
		prof := tg.Profile()
		for m := fault.Model(0); m < fault.NumModels; m++ {
			space := fault.NewSpace(prof).ForModel(m)
			var all []fault.Site
			for th := range prof.Threads {
				var want []fault.Site
				for i := int64(0); i < prof.Threads[th].ICnt; i++ {
					w := oracleWidth(prof, m, th, i)
					for b := 0; b < w; b++ {
						want = append(want, fault.Site{Thread: th, DynInst: i, Bit: b})
					}
					err := fault.ValidateSite(tg, fault.Site{Thread: th, DynInst: i, Bit: w}, m)
					switch {
					case w == 0 && m == fault.ModelMemAddr && err != fault.ErrNotAMemSite,
						w == 0 && m != fault.ModelMemAddr && err != fault.ErrNotASite,
						w > 0 && (err == nil || err == fault.ErrNotASite || err == fault.ErrNotAMemSite):
						t.Fatalf("%s %s: bit %d at %d:%d: validation says %v", name, m, w, th, i, err)
					}
				}
				if got := space.ThreadSites(th, nil); !slices.Equal(got, want) {
					t.Fatalf("%s %s: thread %d enumerates %d sites, oracle %d", name, m, th, len(got), len(want))
				}
				all = append(all, want...)
			}
			if int64(len(all)) != space.Total() {
				t.Fatalf("%s %s: oracle has %d sites, Total %d", name, m, len(all), space.Total())
			}
			for idx, want := range all {
				if got := space.Site(int64(idx)); got != want {
					t.Fatalf("%s %s: Site(%d) = %v, oracle has %v", name, m, idx, got, want)
				}
				if err := fault.ValidateSite(tg, want, m); err != nil {
					t.Fatalf("%s %s: enumerated site %v rejected: %v", name, m, want, err)
				}
			}
			const draws = 500
			got := fault.NewSpace(prof).RandomModel(stats.NewRNG(31), draws, m)
			rng := stats.NewRNG(31)
			for i, s := range got {
				if want := all[rng.Int63n(int64(len(all)))]; s != want {
					t.Fatalf("%s %s: draw %d = %v, oracle has %v", name, m, i, s, want)
				}
			}
		}
	}
}

func TestSpaceSitePanics(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	space.Site(space.Total())
}

func TestThreadSitesAndFilter(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	all := space.ThreadSites(0, nil)
	if int64(len(all)) != tg.Profile().Threads[0].SiteBits {
		t.Fatalf("thread sites %d != SiteBits %d", len(all), tg.Profile().Threads[0].SiteBits)
	}
	first := space.ThreadSites(0, func(dyn int64) bool { return dyn == 0 })
	if len(first) != 32 {
		t.Fatalf("filtered sites = %d, want 32", len(first))
	}
}

func TestInstructionSites(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	// PC 11 is the accumulator add inside the 4-iteration loop: an active
	// thread hits it 4 times -> 128 sites.
	sites := space.InstructionSites(11, []int{0})
	if len(sites) != 128 {
		t.Fatalf("instruction sites = %d, want 128", len(sites))
	}
	// An idle thread never executes it.
	if got := space.InstructionSites(11, []int{15}); len(got) != 0 {
		t.Fatalf("idle thread sites = %d, want 0", len(got))
	}
}

func TestRandomSampling(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	rng := stats.NewRNG(9)
	sites := space.Random(rng, 200)
	if len(sites) != 200 {
		t.Fatalf("sampled %d", len(sites))
	}
	for _, s := range sites {
		if bits := tg.Profile().SiteBitsOf(s.Thread, s.DynInst); bits == 0 || s.Bit >= bits {
			t.Fatalf("invalid sampled site %v", s)
		}
	}
}

func TestCampaignSerialEqualsParallel(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	sites := fault.Uniform(space.Random(stats.NewRNG(4), 120))

	serial, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: 1, KeepPerSite: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: 4, KeepPerSite: true})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Dist != parallel.Dist {
		t.Fatalf("serial %v != parallel %v", serial.Dist, parallel.Dist)
	}
	for i := range serial.PerSite {
		if serial.PerSite[i] != parallel.PerSite[i] {
			t.Fatalf("per-site outcome %d differs", i)
		}
	}
}

func TestCampaignWeights(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	sites := []fault.WeightedSite{
		{Site: fault.Site{Thread: 0, DynInst: 0, Bit: 0}, Weight: 10},
		{Site: fault.Site{Thread: 0, DynInst: 0, Bit: 1}, Weight: 1},
	}
	res, err := fault.Run(tg, sites, fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist.Total() != 11 {
		t.Fatalf("weighted total = %v", res.Dist.Total())
	}
	if res.Dist.N != 2 {
		t.Fatalf("N = %d", res.Dist.N)
	}
}

func TestCampaignEmpty(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	res, err := fault.Run(tg, nil, fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist.Total() != 0 {
		t.Fatal("empty campaign nonzero")
	}
}

func TestCampaignPropagatesErrors(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	bad := []fault.WeightedSite{{Site: fault.Site{Thread: 0, DynInst: 5, Bit: 0}, Weight: 1}}
	if _, err := fault.Run(tg, bad, fault.CampaignOptions{}); err == nil {
		t.Fatal("campaign swallowed a site error")
	}
}

// TestBitFlipInvolution: injecting the same site twice in one run is not
// expressible through the public API, but the involution shows up as:
// a site whose flipped bit is re-flipped by a second run returns the same
// outcome (determinism), and flipping a bit of a dead value is masked.
// Checked as a quick property over random valid sites.
func TestSiteOutcomeStability(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	f := func(raw uint32) bool {
		idx := int64(raw) % space.Total()
		s := space.Site(idx)
		a, err1 := tg.RunSite(s)
		b, err2 := tg.RunSite(s)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
