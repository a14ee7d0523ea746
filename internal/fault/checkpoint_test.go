package fault_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/stats"
)

// chainHangTarget builds the adversarial multi-CTA kernel for checkpoint
// equivalence: 4 CTAs of 8 threads with cross-CTA global-memory dependence
// (each CTA accumulates into acc[tid], which the next CTA reads) plus a
// predicate-guarded barrier split, so exhaustive injection reaches all four
// outcomes — including barrier deadlocks (hangs) and address faults
// (crashes) in any CTA. acc lives on page 0 and out on page 1, which no CTA
// loads, so a fault confined to out is divergence no later CTA observes.
func chainHangTarget(t *testing.T) *fault.Target {
	t.Helper()
	prog, err := ptx.Assemble("chainhang", `
		cvt.u32.u16 $r0, %tid.x
		cvt.u32.u16 $r1, %ctaid.x
		cvt.u32.u16 $r2, %ntid.x
		mad.lo.u32 $r3, $r1, $r2, $r0      // gid
		set.ge.u32.u32 $p0/$o127, $r0, 8   // never true fault-free
		@$p0.ne bra lother
		bar.sync 0x00000000
		bra lwork
		lother: bar.sync 0x00000001
		lwork: shl.u32 $r4, $r0, 0x00000002
		add.u32 $r4, $r4, s[0x0010]        // &acc[tid]
		ld.global.u32 $r5, [$r4]
		add.u32 $r5, $r5, $r3
		add.u32 $r5, $r5, 0x00000001
		st.global.u32 [$r4], $r5           // acc[tid] += gid+1
		shl.u32 $r6, $r3, 0x00000002
		add.u32 $r6, $r6, s[0x0014]        // &out[gid]
		set.lt.u32.u32 $p1/$o127, $r0, 8   // always true fault-free
		mov.u32 $r7, 0x00000000
		@$p1.ne mov.u32 $r7, $r5
		st.global.u32 [$r6], $r7           // out[gid] = acc[tid], or 0 if $p1 fails
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(gpusim.PageSize + 4*32)
	dev.WriteWords(0, []uint32{7, 11, 13, 17, 19, 23, 29, 31})
	return &fault.Target{
		Name:   "chainhang",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 4, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 8, Y: 1, Z: 1},
		Params: []uint32{0, gpusim.PageSize},
		Init:   dev,
		Output: []fault.Range{{Off: 0, Len: 32}, {Off: gpusim.PageSize, Len: 4 * 32}},
	}
}

// assertEveryCapture fails unless tg's golden run kept every intra-CTA
// capture it made at first stride `stride`, so a campaign over it resumes
// from nearly every mid-CTA point. A capture follows the first scheduler
// sweep that retires the stride's worth of instructions, and a sweep
// retires one instruction per lane of a warp; decimation would have
// dropped a CTA's first capture, widened its gaps and left it at most
// gpusim.DefaultIntraSnapshots snapshots.
func assertEveryCapture(t *testing.T, tg *fault.Target, stride int) {
	t.Helper()
	wck := tg.WarpCheckpoints()
	lanes := int64(max(tg.WarpSize, 1))
	for cta := 0; cta < tg.Grid.Count(); cta++ {
		if n := wck.PerCTA(cta); n <= gpusim.DefaultIntraSnapshots {
			t.Fatalf("stride %d: CTA %d keeps %d snapshots, a decimated store's count", stride, cta, n)
		}
		var prev int64
		for ord := 0; ord < wck.PerCTA(cta); ord++ {
			at := wck.Snapshot(cta, ord).Retired()
			if gap := at - prev; gap < int64(stride) || gap >= int64(stride)+lanes {
				t.Fatalf("stride %d: CTA %d snapshot %d at retired %d, %d after the previous capture",
					stride, cta, ord, at, gap)
			}
			prev = at
		}
	}
}

// exhaustiveSites enumerates every fault site of the target.
func exhaustiveSites(tg *fault.Target) []fault.WeightedSite {
	space := fault.NewSpace(tg.Profile())
	var sites []fault.Site
	for th := 0; th < tg.Threads(); th++ {
		sites = append(sites, space.ThreadSites(th, nil)...)
	}
	return fault.Uniform(sites)
}

// deadExits runs tg's campaign over the sites whose full-run outcome (want)
// is SDC and returns its early exits. A convergence exit is always Masked,
// so each of these is a dead-divergence exit (DESIGN.md §3.1).
func deadExits(t *testing.T, tg *fault.Target, sites []fault.WeightedSite, want []fault.Outcome, model fault.Model) int64 {
	t.Helper()
	var sdc []fault.WeightedSite
	for i, o := range want {
		if o == fault.SDC {
			sdc = append(sdc, sites[i])
		}
	}
	res, err := fault.RunModel(tg, sdc, model, fault.CampaignOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.EarlyExits
}

// TestCheckpointMatchesFullRunExhaustive is the central equivalence property
// of the fast-forward engine: on a cross-CTA-dependent kernel with reachable
// crash and hang sites, the checkpointed campaign must give outcome-for-
// outcome identical results to full runs from the pristine image — for every
// site, under both schedulers, at several parallelism levels — with both
// boundary exits, convergence and dead divergence, actually firing.
func TestCheckpointMatchesFullRunExhaustive(t *testing.T) {
	type cfg struct {
		name string
		warp int
		pars []int
	}
	cfgs := []cfg{
		{name: "stride1", pars: []int{1, 4}},
		{name: "stride1-warp4", warp: 4, pars: []int{4}},
	}
	for _, c := range cfgs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tg := chainHangTarget(t)
			tg.WarpSize = c.warp
			if err := tg.Prepare(); err != nil {
				t.Fatal(err)
			}
			if tg.Checkpoints() == nil {
				t.Fatal("no checkpoint store on a multi-CTA target")
			}
			sites := exhaustiveSites(tg)
			if len(sites) < 1000 {
				t.Fatalf("implausibly small exhaustive space: %d", len(sites))
			}

			// Reference: the full-run path (fresh clone, whole grid).
			want := make([]fault.Outcome, len(sites))
			seen := map[fault.Outcome]int{}
			for i, ws := range sites {
				o, err := tg.RunSite(ws.Site)
				if err != nil {
					t.Fatalf("reference %v: %v", ws.Site, err)
				}
				want[i] = o
				seen[o]++
			}
			for _, o := range []fault.Outcome{fault.Masked, fault.SDC, fault.Crash, fault.Hang} {
				if seen[o] == 0 {
					t.Fatalf("exhaustive space reaches no %v outcome: %v", o, seen)
				}
			}

			for _, par := range c.pars {
				res, err := fault.Run(tg, sites, fault.CampaignOptions{
					Parallelism: par, KeepPerSite: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if res.PerSite[i] != want[i] {
						t.Fatalf("par %d: site %v gave %v, full run gave %v",
							par, sites[i].Site, res.PerSite[i], want[i])
					}
				}
				if res.Stats.CTAsSkipped == 0 {
					t.Fatal("fast-forward never skipped a CTA")
				}
				if res.Stats.EarlyExits == 0 {
					t.Fatal("no convergence early exits on a mostly-masked space")
				}
				if n := tg.PrepareStats().Checkpoints; n != 4 {
					t.Fatalf("stats report %d checkpoints, want one per CTA, 4", n)
				}
			}
			if deadExits(t, tg, sites, want, fault.ModelDestValue) == 0 {
				t.Fatal("no SDC site exited at its CTA's boundary: the dead-divergence exit never fired")
			}
		})
	}
}

// TestIntraCheckpointMatchesFullRunExhaustive is the equivalence property of
// the intra-CTA (warp-granular) resume layer: on the adversarial chainhang
// kernel — cross-CTA global dependence, predicate-guarded barriers, all four
// outcome classes reachable — a campaign resuming from mid-CTA snapshots must
// give outcome-for-outcome identical results to full runs from the pristine
// image, at first capture strides 1/2/3, under both schedulers. Every
// capture is kept (assertEveryCapture), so sites resume from nearly every
// mid-CTA scheduler and barrier state. Runs under -race via `make race`.
func TestIntraCheckpointMatchesFullRunExhaustive(t *testing.T) {
	for _, warp := range []int{0, 4} {
		warp := warp
		name := "serial"
		if warp > 0 {
			name = "warp4"
		}
		t.Run(name, func(t *testing.T) {
			// Reference: the full-run engine (fresh clone, whole grid), both
			// per-site and through the campaign engine with FullRun set.
			ref := chainHangTarget(t)
			ref.WarpSize = warp
			ref.FullRun = true
			fault.SetIntraStart(ref, 2) // must be ignored under FullRun
			if err := ref.Prepare(); err != nil {
				t.Fatal(err)
			}
			if ref.WarpCheckpoints() != nil {
				t.Fatal("FullRun target built an intra-CTA snapshot store")
			}
			sites := exhaustiveSites(ref)
			want := make([]fault.Outcome, len(sites))
			seen := map[fault.Outcome]int{}
			for i, ws := range sites {
				o, err := ref.RunSite(ws.Site)
				if err != nil {
					t.Fatalf("reference %v: %v", ws.Site, err)
				}
				want[i] = o
				seen[o]++
			}
			for _, o := range []fault.Outcome{fault.Masked, fault.SDC, fault.Crash, fault.Hang} {
				if seen[o] == 0 {
					t.Fatalf("exhaustive space reaches no %v outcome: %v", o, seen)
				}
			}
			fres, err := fault.Run(ref, sites, fault.CampaignOptions{Parallelism: 4, KeepPerSite: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if fres.PerSite[i] != want[i] {
					t.Fatalf("full-run campaign: site %v gave %v, reference %v",
						sites[i].Site, fres.PerSite[i], want[i])
				}
			}
			if fres.Stats.IntraSkips != 0 || ref.PrepareStats().IntraCheckpointBytes != 0 {
				t.Fatalf("full-run campaign reports intra-CTA work: %+v, %+v", fres.Stats, ref.PrepareStats())
			}

			for _, intra := range []int{1, 2, 3} {
				tg := chainHangTarget(t)
				tg.WarpSize = warp
				fault.SetIntraStart(tg, intra)
				if err := tg.Prepare(); err != nil {
					t.Fatal(err)
				}
				wck := tg.WarpCheckpoints()
				if wck == nil || wck.Count() == 0 {
					t.Fatalf("intra %d: no intra-CTA snapshots", intra)
				}
				assertEveryCapture(t, tg, intra)
				res, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: 4, KeepPerSite: true})
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if res.PerSite[i] != want[i] {
						t.Fatalf("intra %d: site %v gave %v, full run gave %v",
							intra, sites[i].Site, res.PerSite[i], want[i])
					}
				}
				if res.Stats.IntraSkips == 0 {
					t.Fatalf("intra %d: no site resumed from an intra-CTA snapshot", intra)
				}
				if b := tg.PrepareStats().IntraCheckpointBytes; b != wck.Bytes() || wck.Bytes() <= 0 {
					t.Fatalf("intra %d: stats report %d snapshot bytes, store holds %d",
						intra, b, wck.Bytes())
				}
			}
		})
	}
}

// TestCheckpointGaussianEquivalence covers the paper's cross-CTA-dependency
// kernels: Gaussian Fan1 (2 CTAs) and Fan2 (4 CTAs) at small geometry. For a
// deterministic site sample, the checkpointed campaign, the FullRun-option
// campaign, and the per-site full-run reference must all agree.
func TestCheckpointGaussianEquivalence(t *testing.T) {
	for _, kname := range []string{"Gaussian K1", "Gaussian K2"} {
		kname := kname
		t.Run(kname, func(t *testing.T) {
			spec, ok := kernels.ByName(kname)
			if !ok {
				t.Fatalf("kernel %q missing", kname)
			}
			inst, err := spec.Build(kernels.ScaleSmall)
			if err != nil {
				t.Fatal(err)
			}
			tg := inst.Target
			if err := tg.Prepare(); err != nil {
				t.Fatal(err)
			}
			space := fault.NewSpace(tg.Profile())
			sites := fault.Uniform(space.Random(stats.NewRNG(41), 400))
			// Exhaust two whole threads in different CTAs so every
			// dynamic instruction, including address computations that
			// crash under high-bit flips, is covered somewhere.
			sites = append(sites, fault.Uniform(space.ThreadSites(0, nil))...)
			sites = append(sites, fault.Uniform(space.ThreadSites(tg.Threads()-1, nil))...)

			want := make([]fault.Outcome, len(sites))
			for i, ws := range sites {
				o, err := tg.RunSite(ws.Site)
				if err != nil {
					t.Fatalf("reference %v: %v", ws.Site, err)
				}
				want[i] = o
			}

			res, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: 4, KeepPerSite: true})
			if err != nil {
				t.Fatal(err)
			}
			// An independent instance with the fast-forward engine
			// disabled: the reference path through the campaign engine.
			finst, err := spec.Build(kernels.ScaleSmall)
			if err != nil {
				t.Fatal(err)
			}
			ftg := finst.Target
			ftg.FullRun = true
			if err := ftg.Prepare(); err != nil {
				t.Fatal(err)
			}
			fres, err := fault.Run(ftg, sites, fault.CampaignOptions{Parallelism: 4, KeepPerSite: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if res.PerSite[i] != want[i] {
					t.Fatalf("site %v: checkpoint %v, reference %v",
						sites[i].Site, res.PerSite[i], want[i])
				}
				if fres.PerSite[i] != want[i] {
					t.Fatalf("full-run campaign: site %v: %v, reference %v",
						sites[i].Site, fres.PerSite[i], want[i])
				}
			}
			if res.Stats.CTAsSkipped == 0 || tg.PrepareStats().Checkpoints == 0 {
				t.Fatalf("fast-forward inactive: %+v, %+v", res.Stats, tg.PrepareStats())
			}
			if fres.Stats.CTAsSkipped != 0 || ftg.PrepareStats().Checkpoints != 0 || fres.Stats.EarlyExits != 0 {
				t.Fatalf("FullRun target still fast-forwarded: %+v, %+v", fres.Stats, ftg.PrepareStats())
			}
			if ftg.Checkpoints() != nil {
				t.Fatal("FullRun target built a checkpoint store")
			}
		})
	}
}

// TestCheckpointSingleCTA: a single-CTA grid gets the store every other
// grid gets — one snapshot to resume from, the pristine image — and its
// campaigns match the full-run reference on a barrier kernel (LUD K46) and
// a thread-independent one (LUD K44), where the thread exit now fires.
func TestCheckpointSingleCTA(t *testing.T) {
	for _, kname := range []string{"LUD K46", "LUD K44"} {
		t.Run(kname, func(t *testing.T) {
			spec, ok := kernels.ByName(kname)
			if !ok {
				t.Fatalf("%s missing", kname)
			}
			inst, err := spec.Build(kernels.ScaleSmall)
			if err != nil {
				t.Fatal(err)
			}
			tg := inst.Target
			if err := tg.Prepare(); err != nil {
				t.Fatal(err)
			}
			if ck := tg.Checkpoints(); ck == nil || ck.Count() != 1 {
				t.Fatalf("1-CTA grid has checkpoint store %v, want one snapshot", ck)
			}
			space := fault.NewSpace(tg.Profile())
			sites := fault.Uniform(space.Random(stats.NewRNG(43), 300))
			want := make([]fault.Outcome, len(sites))
			for i, ws := range sites {
				o, err := tg.RunSite(ws.Site)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = o
			}
			res, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: 4, KeepPerSite: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if res.PerSite[i] != want[i] {
					t.Fatalf("site %v: %v, reference %v", sites[i].Site, res.PerSite[i], want[i])
				}
			}
			if res.Stats.CTAsSkipped != 0 || tg.PrepareStats().Checkpoints != 1 {
				t.Fatalf("single-CTA campaign stats: %+v, %+v", res.Stats, tg.PrepareStats())
			}
			if kname == "LUD K44" && res.Stats.EarlyExits == 0 {
				t.Fatal("no thread exit on a thread-independent single-CTA kernel")
			}
		})
	}
}

// TestWarpCampaignEquivalence is the -warp smoke test: a campaign under SIMT
// lockstep scheduling (Target.WarpSize, as set by fsprune -warp) must give
// site-for-site the same outcomes as the serial scheduler on a real kernel.
func TestWarpCampaignEquivalence(t *testing.T) {
	spec, ok := kernels.ByName("Gaussian K1")
	if !ok {
		t.Fatal("Gaussian K1 missing")
	}
	run := func(warp int) (*fault.CampaignResult, []fault.WeightedSite) {
		inst, err := spec.Build(kernels.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		tg := inst.Target
		tg.WarpSize = warp
		if err := tg.Prepare(); err != nil {
			t.Fatal(err)
		}
		space := fault.NewSpace(tg.Profile())
		sites := fault.Uniform(space.Random(stats.NewRNG(97), 250))
		res, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: 4, KeepPerSite: true})
		if err != nil {
			t.Fatal(err)
		}
		return res, sites
	}
	serial, sites := run(0)
	warped, wsites := run(4)
	if len(sites) != len(wsites) {
		t.Fatal("site populations diverge between schedulers")
	}
	for i := range sites {
		if sites[i] != wsites[i] {
			t.Fatalf("site %d differs between schedulers", i)
		}
		if serial.PerSite[i] != warped.PerSite[i] {
			t.Fatalf("site %v: serial %v, warp %v", sites[i].Site, serial.PerSite[i], warped.PerSite[i])
		}
	}
	if serial.Dist != warped.Dist {
		t.Fatalf("distributions diverge: %v vs %v", serial.Dist, warped.Dist)
	}
}
