package fault_test

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/stats"
)

// hangTarget builds a kernel where a predicate flip sends one thread to the
// wrong barrier id — a guaranteed deadlock, classified as a hang. Fault-free,
// every thread takes barrier 0 and stores 1.
func hangTarget(t *testing.T) *fault.Target {
	t.Helper()
	prog, err := ptx.Assemble("hang", `
		cvt.u32.u16 $r0, %tid.x
		set.ge.u32.u32 $p0/$o127, $r0, 8
		@$p0.ne bra lother
		bar.sync 0x00000000
		bra lstore
		lother: bar.sync 0x00000001
		lstore: shl.u32 $r1, $r0, 0x00000002
		mov.u32 $r2, 0x00000001
		st.global.u32 [$r1], $r2
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	return &fault.Target{
		Name:   "hang",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 1, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 8, Y: 1, Z: 1},
		Init:   gpusim.NewDevice(64),
		Output: []fault.Range{{Off: 0, Len: 32}},
	}
}

// hangSite is a site of hangTarget whose injection deadlocks the CTA: flip
// the zero flag of thread 3's barrier-selecting predicate (dyn inst 1).
var hangSite = fault.Site{Thread: 3, DynInst: 1, Bit: 0}

func TestHangSiteDeadlocks(t *testing.T) {
	tg := hangTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	o, err := tg.RunSite(hangSite)
	if err != nil {
		t.Fatal(err)
	}
	if o != fault.Hang {
		t.Fatalf("barrier-flip site = %v, want hang", o)
	}
}

// referenceOutcomes runs every site on a fresh clone of the pristine device —
// the semantics the pooled engine must reproduce exactly.
func referenceOutcomes(t *testing.T, tg *fault.Target, sites []fault.WeightedSite, model fault.Model) []fault.Outcome {
	t.Helper()
	out := make([]fault.Outcome, len(sites))
	for i, ws := range sites {
		o, err := tg.RunSiteModel(ws.Site, model)
		if err != nil {
			t.Fatalf("reference site %v: %v", ws.Site, err)
		}
		out[i] = o
	}
	return out
}

// TestPooledMatchesFreshClone is the central equivalence property of the
// pooled copy-on-write runner: across kernels, fault models and parallelism
// levels, fault.Run/RunModel must give outcome-for-outcome identical results
// to a fresh clone per site — including after crash and hang sites, whose
// poisoned device state must not leak through pool reuse.
func TestPooledMatchesFreshClone(t *testing.T) {
	type tc struct {
		name   string
		target *fault.Target
		sites  []fault.Site // known sites prepended to a random sample
	}
	cases := []tc{
		{
			name:   "tiny",
			target: tinyTarget(t),
			// Known masked, SDC and crash sites (see TestInjectionOutcomeKinds).
			sites: []fault.Site{
				{Thread: 15, DynInst: 0, Bit: 0},
				{Thread: 0, DynInst: 11, Bit: 0},
				{Thread: 0, DynInst: 7, Bit: 31},
			},
		},
		{
			name:   "hang",
			target: hangTarget(t),
			sites:  []fault.Site{hangSite},
		},
	}
	if spec, ok := kernels.ByName("PathFinder K1"); ok {
		inst, err := spec.Build(kernels.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{name: "PathFinder K1", target: inst.Target})
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tg := c.target
			if err := tg.Prepare(); err != nil {
				t.Fatal(err)
			}
			space := fault.NewSpace(tg.Profile())
			sites := fault.Uniform(c.sites)
			for _, s := range space.Random(stats.NewRNG(77), 60) {
				sites = append(sites, fault.WeightedSite{Site: s, Weight: 1})
			}
			// Interleave the special sites through the list so crash/hang
			// runs are followed by normal runs on the same pooled device.
			for i, s := range c.sites {
				sites = append(sites, fault.WeightedSite{Site: s, Weight: 1})
				mid := (len(sites) / 2) + i
				sites[mid], sites[len(sites)-1] = sites[len(sites)-1], sites[mid]
			}

			for model := fault.Model(0); model < fault.NumModels; model++ {
				sites := sites
				switch {
				case model == fault.ModelMemAddr:
					// Random destination sites are not valid mem-addr
					// sites; build a matching population instead.
					var mem []fault.WeightedSite
					for _, s := range space.ForModel(fault.ModelMemAddr).ThreadSites(0, nil) {
						mem = append(mem, fault.WeightedSite{Site: s, Weight: 1})
					}
					if len(mem) > 64 {
						mem = mem[:64]
					}
					if len(mem) == 0 {
						continue
					}
					sites = mem
				case model.Persistent():
					// Persistent models encode (stuck value, location) in Bit;
					// fold the destination-site bits into that range so the
					// special crash/hang sites stay in the mix.
					folded := make([]fault.WeightedSite, len(sites))
					for i, ws := range sites {
						ws.Site.Bit %= model.StuckBits()
						folded[i] = ws
					}
					sites = folded
				}
				want := referenceOutcomes(t, tg, sites, model)
				for _, par := range []int{1, 4} {
					res, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{
						Parallelism: par, KeepPerSite: true,
					})
					if err != nil {
						t.Fatalf("model %v par %d: %v", model, par, err)
					}
					for i := range want {
						if res.PerSite[i] != want[i] {
							t.Fatalf("model %v par %d: site %v gave %v, reference %v",
								model, par, sites[i].Site, res.PerSite[i], want[i])
						}
					}
					if res.Stats.Runs != int64(len(sites)) {
						t.Fatalf("model %v par %d: stats runs %d != %d sites",
							model, par, res.Stats.Runs, len(sites))
					}
					// No attempt is abandoned, so every worker that ran a
					// site cloned exactly one device.
					if res.Stats.DevicesCreated < 1 || res.Stats.DevicesCreated > par {
						t.Fatalf("model %v par %d: devices created %d out of [1, %d]",
							model, par, res.Stats.DevicesCreated, par)
					}
				}
			}
		})
	}
}

// TestSiteLoopAllocBytes pins the allocation-free site loop: the launch
// scratch, the launch and the injection ride the worker's pinned device
// (DESIGN.md §3.1), so a site costs a few small headers — the durability
// guard's deadline timer, a trap — where it used to rebuild a CTA's thread
// and shared-memory state per launched CTA (~95 KiB a site on this kernel).
// TotalAlloc is process-wide, so this test must not run beside others (no
// t.Parallel in this package).
func TestSiteLoopAllocBytes(t *testing.T) {
	const n, limit = 300, 4 << 10
	for _, c := range []struct {
		model fault.Model
		warp  int
	}{
		{fault.ModelDestValue, 0},
		{fault.ModelStuckPred, 32},
	} {
		tg, sites := tunedCampaign(t, "HotSpot K1", c.model, c.warp, tuning{}, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := fault.RunModel(tg, sites, c.model, fault.CampaignOptions{Parallelism: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%v warp %d: %v", c.model, c.warp, err)
		}
		perSite := (after.TotalAlloc - before.TotalAlloc) / n
		t.Logf("%v warp %d: %d B/site", c.model, c.warp, perSite)
		if perSite >= limit {
			t.Errorf("%v warp %d: %d B allocated per site, want < %d", c.model, c.warp, perSite, limit)
		}
		// One worker, one pinned device, one scratch: nothing was abandoned.
		if res.Stats.DevicesCreated != 1 {
			t.Errorf("%v warp %d: devices created %d, want 1", c.model, c.warp, res.Stats.DevicesCreated)
		}
	}
}

// TestWorkCountersRepeatAcrossParallelism: the instructions a campaign's
// runs execute before and after their faults fire are work, not time — a
// pure function of target, sites and model — so they repeat exactly at
// -par 1 and -par 2, whichever worker and device ran a site. Against the
// full-run engine, which replays every instruction before the fault, the
// checkpointed engine's golden replay is what its snapshots and the
// thread-start resume did not skip.
func TestWorkCountersRepeatAcrossParallelism(t *testing.T) {
	for _, c := range []struct {
		kernel string
		model  fault.Model
		warp   int
	}{
		{"K-Means K2", fault.ModelDestValue, 0},
		{"GEMM K1", fault.ModelMemAddr, 0},
		{"HotSpot K1", fault.ModelStuckPred, 32},
	} {
		tg, sites := tunedCampaign(t, c.kernel, c.model, c.warp, tuneAuto, 300)
		var st [2]fault.CampaignStats
		for i, par := range []int{1, 2} {
			res, err := fault.RunModel(tg, sites, c.model, fault.CampaignOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			st[i] = res.Stats
		}
		if st[0].ReplayInstrs != st[1].ReplayInstrs || st[0].PostFaultInstrs != st[1].PostFaultInstrs {
			t.Fatalf("%s %v: par 1 counts %d replay + %d post-fault, par 2 %d + %d", c.kernel, c.model,
				st[0].ReplayInstrs, st[0].PostFaultInstrs, st[1].ReplayInstrs, st[1].PostFaultInstrs)
		}
		if st[0].ReplayInstrs <= 0 || st[0].PostFaultInstrs <= 0 {
			t.Fatalf("%s %v: counts %d replay + %d post-fault", c.kernel, c.model, st[0].ReplayInstrs, st[0].PostFaultInstrs)
		}
		ks, _ := kernels.ByName(c.kernel)
		inst, err := ks.Build(kernels.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		ref := inst.Target
		ref.WarpSize, ref.FullRun = c.warp, true
		if err := ref.Prepare(); err != nil {
			t.Fatal(err)
		}
		full, err := fault.RunModel(ref, sites, c.model, fault.CampaignOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if full.Stats.ReplayInstrs <= st[0].ReplayInstrs {
			t.Fatalf("%s %v: full runs replay %d instructions, checkpointed runs %d", c.kernel, c.model,
				full.Stats.ReplayInstrs, st[0].ReplayInstrs)
		}
	}
}

// TestPooledStatsPagesCopied: the pooled runner's page-copy count reflects
// real work — positive on a campaign with stores, and far below the
// fresh-clone equivalent (every run copying the whole device).
func TestPooledStatsPagesCopied(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	sites := fault.Uniform(space.Random(stats.NewRNG(5), 100))
	res, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PagesCopied <= 0 {
		t.Fatal("no page copies recorded for a storing campaign")
	}
	// tinyTarget's device fits one page: steady state is <= 2 copies per run
	// (one privatize on first dirtying, one restore), typically just 1.
	if res.Stats.PagesCopied > 2*res.Stats.Runs {
		t.Fatalf("%d page copies across %d runs", res.Stats.PagesCopied, res.Stats.Runs)
	}
}

// TestCampaignErrorDeterministicPublic: through the public API, a campaign
// with several invalid sites must report the lowest-index one's error at any
// parallelism — the regression the shared stop flag fixes.
func TestCampaignErrorDeterministicPublic(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	sites := fault.Uniform(space.Random(stats.NewRNG(6), 200))
	// Dyn inst 5 writes no destination (guarded bra): ErrNotASite. Plant an
	// out-of-range site earlier and the not-a-site later; the earlier one
	// must win every time.
	sites[40] = fault.WeightedSite{Site: fault.Site{Thread: 0, DynInst: 99999, Bit: 0}, Weight: 1}
	sites[150] = fault.WeightedSite{Site: fault.Site{Thread: 0, DynInst: 5, Bit: 0}, Weight: 1}
	for _, par := range []int{1, 2, 8} {
		for trial := 0; trial < 3; trial++ {
			_, err := fault.Run(tg, sites, fault.CampaignOptions{Parallelism: par})
			if err == nil {
				t.Fatalf("par %d: error swallowed", par)
			}
			if errors.Is(err, fault.ErrNotASite) {
				t.Fatalf("par %d: reported the later site's error: %v", par, err)
			}
		}
	}
}
