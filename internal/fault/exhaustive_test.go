package fault_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
)

// exhaustiveFile records, for every site of a few small kernels, the
// outcome the FullRun reference engine gives it.
const exhaustiveFile = "testdata/exhaustive.json"

// exhaustiveEntry is one exhaustive campaign: the SHA-256 of its outcome
// vector (one byte per site, in Space enumeration order) and its Dist.
type exhaustiveEntry struct {
	Campaign string     `json:"campaign"`
	Outcomes string     `json:"outcomes_sha256"`
	Dist     fault.Dist `json:"dist"`
}

// exhaustiveCase is one kernel under one scheduler, every dest-value site.
type exhaustiveCase struct {
	kernel string
	warp   int
}

func (c exhaustiveCase) name() string {
	return fmt.Sprintf("%s small dest-value warp %d", c.kernel, c.warp)
}

// run injects every dest-value site of c, thread by thread in Space order,
// on the fast-forward engine or, with fullRun, on the FullRun reference.
func (c exhaustiveCase) run(t *testing.T, fullRun bool) (exhaustiveEntry, []fault.Site, []fault.Outcome) {
	t.Helper()
	ks, ok := kernels.ByName(c.kernel)
	if !ok {
		t.Fatalf("unknown kernel %q", c.kernel)
	}
	inst, err := ks.Build(kernels.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	tg := inst.Target
	tg.WarpSize, tg.FullRun = c.warp, fullRun
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	var sites []fault.Site
	for th := range tg.Threads() {
		sites = append(sites, space.ThreadSites(th, nil)...)
	}
	res, err := fault.Run(tg, fault.Uniform(sites), fault.CampaignOptions{
		Parallelism: min(runtime.GOMAXPROCS(0), 4), KeepPerSite: true})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]byte, len(res.PerSite))
	for i, o := range res.PerSite {
		vec[i] = byte(o)
	}
	return exhaustiveEntry{
		Campaign: fmt.Sprintf("%s, %d sites", c.name(), len(sites)),
		Outcomes: digest(vec),
		Dist:     res.Dist,
	}, sites, res.PerSite
}

// TestExhaustiveFastForward runs the fast-forward engine over every
// dest-value site of the three smallest kernels (Gaussian K125, K1 and
// K126) under both schedulers, and holds each outcome vector and Dist to
// the FullRun reference's, recorded in testdata/exhaustive.json. -update
// re-records from FullRun runs, and fails if the fast-forward engine
// disagrees with them. On a mismatch the test reruns the reference to name
// the first differing site.
func TestExhaustiveFastForward(t *testing.T) {
	var cases []exhaustiveCase
	for _, k := range []string{"Gaussian K125", "Gaussian K1", "Gaussian K126"} {
		for _, w := range []int{0, 32} {
			cases = append(cases, exhaustiveCase{k, w})
		}
	}
	// The fast-forward vectors, kept to name the first differing site.
	type vector struct {
		c     exhaustiveCase
		sites []fault.Site
		outs  []fault.Outcome
	}
	vectors := make(map[string]vector)
	var got []exhaustiveEntry
	for _, c := range cases {
		e, sites, outs := c.run(t, false)
		vectors[e.Campaign] = vector{c, sites, outs}
		if *update {
			ref, _, refOuts := c.run(t, true)
			firstDiff(t, c, sites, outs, refOuts)
			e = ref
		}
		got = append(got, e)
	}
	goldenTable(t, exhaustiveFile, got, func(e exhaustiveEntry) string { return e.Campaign },
		func(g, w exhaustiveEntry) {
			if g == w {
				return
			}
			t.Errorf("%s: outcomes %s dist %+v, FullRun recorded %s dist %+v", g.Campaign, g.Outcomes, g.Dist, w.Outcomes, w.Dist)
			v := vectors[g.Campaign]
			_, _, refOuts := v.c.run(t, true)
			firstDiff(t, v.c, v.sites, v.outs, refOuts)
		})
}

// firstDiff fails naming the first site where the fast-forward outcomes
// differ from the reference's.
func firstDiff(t *testing.T, c exhaustiveCase, sites []fault.Site, got, ref []fault.Outcome) {
	t.Helper()
	for i := range got {
		if got[i] != ref[i] {
			t.Errorf("%s: first differing site %d %+v: fast-forward %v, FullRun %v", c.name(), i, sites[i], got[i], ref[i])
			return
		}
	}
}
