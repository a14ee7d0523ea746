package fault_test

import (
	"testing"

	"repro/internal/fault"
)

func TestModelNames(t *testing.T) {
	names := map[fault.Model]string{
		fault.ModelDestValue:  "dest-value",
		fault.ModelDestDouble: "dest-double",
		fault.ModelMemAddr:    "mem-addr",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("model %d = %q, want %q", m, m.String(), want)
		}
	}
}

func TestRunSiteModelDestValueDelegates(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	site := fault.Site{Thread: 0, DynInst: 11, Bit: 0}
	a, err := tg.RunSite(site)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tg.RunSiteModel(site, fault.ModelDestValue)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("dest-value model diverged: %v vs %v", a, b)
	}
}

func TestRunSiteModelValidation(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := tg.RunSiteModel(fault.Site{Thread: 999}, fault.ModelDestDouble); err == nil {
		t.Error("bad thread accepted")
	}
	if _, err := tg.RunSiteModel(fault.Site{Thread: 0, DynInst: 99999}, fault.ModelMemAddr); err == nil {
		t.Error("bad dyn inst accepted")
	}
	if _, err := tg.RunSiteModel(fault.Site{Thread: 0, DynInst: 0, Bit: 99}, fault.ModelMemAddr); err == nil {
		t.Error("bad address bit accepted")
	}
	// Dyn inst 0 (cvt) touches no memory: not a mem-addr site.
	if _, err := tg.RunSiteModel(fault.Site{Thread: 0, DynInst: 0, Bit: 0}, fault.ModelMemAddr); err != fault.ErrNotAMemSite {
		t.Errorf("non-memory site error = %v", err)
	}
	// Branch has no destination: not a dest-double site.
	if _, err := tg.RunSiteModel(fault.Site{Thread: 0, DynInst: 5, Bit: 0}, fault.ModelDestDouble); err != fault.ErrNotASite {
		t.Errorf("branch dest-double error = %v", err)
	}
	if _, err := tg.RunSiteModel(fault.Site{Thread: 0, DynInst: 0, Bit: 0}, fault.Model(99)); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestMemAddrSites(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile()).ForModel(fault.ModelMemAddr)
	// Active thread 0 runs: the s[0x10]/s[0x14] param reads (dyn 7 and 17),
	// the 4 loop loads (dyn 10, 16, 22, 28) and the final store — each
	// contributes 32 address-bit sites.
	sites := space.ThreadSites(0, nil)
	if len(sites) == 0 || len(sites)%32 != 0 {
		t.Fatalf("mem sites = %d", len(sites))
	}
	for _, s := range sites {
		if s.Bit < 0 || s.Bit >= 32 {
			t.Fatalf("bad bit %v", s)
		}
		if _, err := tg.RunSiteModel(s, fault.ModelMemAddr); err != nil {
			t.Fatalf("enumerated site rejected: %v: %v", s, err)
		}
		break // one run suffices; the loop guards enumeration validity
	}
	// Idle thread 15 touches no memory.
	if got := space.ThreadSites(15, nil); len(got) != 0 {
		t.Fatalf("idle thread mem sites = %d", len(got))
	}
	// Filter keeps only one dynamic instruction.
	first := sites[0]
	only := space.ThreadSites(0, func(dyn int64) bool { return dyn == first.DynInst })
	if len(only) != 32 {
		t.Fatalf("filtered mem sites = %d, want 32", len(only))
	}
}

func TestRunModelCampaign(t *testing.T) {
	tg := tinyTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	sites := fault.Uniform(space.ForModel(fault.ModelMemAddr).ThreadSites(0, nil)[:64])
	res, err := fault.RunModel(tg, sites, fault.ModelMemAddr, fault.CampaignOptions{KeepPerSite: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist.N != 64 || len(res.PerSite) != 64 {
		t.Fatalf("campaign shape: n=%d per=%d", res.Dist.N, len(res.PerSite))
	}
	// High address bits must produce crashes on this tiny device.
	var crashes int
	for _, o := range res.PerSite {
		if o == fault.Crash {
			crashes++
		}
	}
	if crashes == 0 {
		t.Fatal("no crashes from address faults on a 256-byte device")
	}
}
