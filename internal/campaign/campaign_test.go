package campaign_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/stats"
)

// valid is the spec every Validate case perturbs.
var valid = campaign.Spec{Kernel: "GEMM K1", Scale: "small", Seed: 1, Sites: 40, Model: "dest-value"}

// TestValidate is the one table of usage rules: the union of what fsprune
// used to range-check on its flags and what the service rejected at
// admission.
func TestValidate(t *testing.T) {
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	with := func(f func(*campaign.Spec)) campaign.Spec { s := valid; f(&s); return s }
	bad := []struct {
		name string
		spec campaign.Spec
	}{
		{"unknown kernel", with(func(s *campaign.Spec) { s.Kernel = "No Such K9" })},
		{"empty kernel", with(func(s *campaign.Spec) { s.Kernel = "" })},
		{"unknown scale", with(func(s *campaign.Spec) { s.Scale = "huge" })},
		{"empty scale", with(func(s *campaign.Spec) { s.Scale = "" })},
		{"unknown model", with(func(s *campaign.Spec) { s.Model = "stuck-everything" })},
		{"empty model", with(func(s *campaign.Spec) { s.Model = "" })},
		{"negative sites", with(func(s *campaign.Spec) { s.Sites = -1 })},
		{"fsprune -baseline -5", with(func(s *campaign.Spec) { s.Sites = -5 })},
		{"zero sites", with(func(s *campaign.Spec) { s.Sites = 0 })},
		{"sites over MaxSites", with(func(s *campaign.Spec) { s.Sites = campaign.MaxSites + 1 })},
		{"fsserve sites 200000000", with(func(s *campaign.Spec) { s.Sites = 200_000_000 })},
		{"negative warp", with(func(s *campaign.Spec) { s.Warp = -2 })},
		{"shard index without count", with(func(s *campaign.Spec) { s.ShardIndex = 1 })},
		{"shard index out of range", with(func(s *campaign.Spec) { s.ShardIndex, s.ShardCount = 2, 2 })},
		{"negative shard index", with(func(s *campaign.Spec) { s.ShardIndex, s.ShardCount = -1, 2 })},
		{"negative shard count", with(func(s *campaign.Spec) { s.ShardCount = -3 })},
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.spec)
		}
	}
	good := []campaign.Spec{
		with(func(s *campaign.Spec) { s.Seed = 0 }),
		with(func(s *campaign.Spec) { s.Seed = -7 }),
		with(func(s *campaign.Spec) { s.Warp = 32 }),
		with(func(s *campaign.Spec) { s.ShardIndex, s.ShardCount = 1, 2 }),
		with(func(s *campaign.Spec) { s.ShardCount = 1 }),
		with(func(s *campaign.Spec) { s.Sites = campaign.MaxSites }),
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("rejected %+v: %v", s, err)
		}
	}
	over := with(func(s *campaign.Spec) { s.Sites = campaign.MaxSites + 1 })
	if err := over.Validate(); err == nil || !strings.Contains(err.Error(), strconv.Itoa(campaign.MaxSites)) {
		t.Errorf("oversized campaign: error %v does not name the bound %d", err, campaign.MaxSites)
	}
}

// TestFingerprintRoundTrip: FromFingerprint and Fingerprint are exact
// inverses over every header an entry point can write — seed 0 included,
// which the service's copy of the defaults used to rewrite to 1.
func TestFingerprintRoundTrip(t *testing.T) {
	n := 0
	for m := fault.Model(0); m < fault.NumModels; m++ {
		for _, scale := range []string{"small", "paper"} {
			for _, seed := range []int64{0, 1, -7} {
				for _, sh := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}} {
					for _, warp := range []int{0, 32} {
						fp := journal.Fingerprint{
							Kernel: "GEMM K1", Scale: scale, Seed: seed, Model: m.String(),
							Warp: warp, Sites: 40,
							ShardIndex: sh[0], ShardCount: sh[1],
						}
						spec, err := campaign.FromFingerprint(fp)
						if err != nil {
							t.Fatalf("%s: %v", fp, err)
						}
						if got := spec.Fingerprint(); got != fp {
							t.Fatalf("round trip: %s", fp.Diff(got))
						}
						n++
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no fingerprints exercised")
	}

	base := valid.Fingerprint()
	for name, mut := range map[string]func(*journal.Fingerprint){
		"unknown model":          func(fp *journal.Fingerprint) { fp.Model = "stuck-everything" },
		"unknown kernel":         func(fp *journal.Fingerprint) { fp.Kernel = "No Such K9" },
		"shard count 0 header":   func(fp *journal.Fingerprint) { fp.ShardCount = 0 },
		"shard index past count": func(fp *journal.Fingerprint) { fp.ShardIndex = 1 },
	} {
		fp := base
		mut(&fp)
		if _, err := campaign.FromFingerprint(fp); err == nil {
			t.Errorf("%s: accepted %s", name, fp)
		}
	}
}

// handRecipe is the independent oracle for Prepare and Sites: the campaign
// recipe as fsprune, fsadvise and fsserve each used to spell it.
func handRecipe(t *testing.T, s campaign.Spec, model fault.Model) (*fault.Target, []fault.WeightedSite) {
	t.Helper()
	ks, ok := kernels.ByName(s.Kernel)
	if !ok {
		t.Fatalf("unknown kernel %q", s.Kernel)
	}
	sc, err := kernels.ParseScale(s.Scale)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ks.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	inst.Target.WarpSize = s.Warp
	if err := inst.Target.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(inst.Target.Profile())
	rng := stats.NewRNG(s.Seed).Split("baseline")
	return inst.Target, fault.Uniform(space.RandomModel(rng, s.Sites, model))
}

// TestSpecMatchesHandRecipe: for two kernels and every model, the Spec's
// site list is the hand recipe's site for site, and its kernel-free
// fingerprint is the one the prepared target reports — the check that
// replaces the runtime cross-check the service used to make.
func TestSpecMatchesHandRecipe(t *testing.T) {
	cache := fault.NewPreparedCache(256 << 20)
	for _, kernel := range []string{"GEMM K1", "HotSpot K1"} {
		for m := fault.Model(0); m < fault.NumModels; m++ {
			spec := campaign.Spec{
				Kernel: kernel, Scale: "small", Seed: int64(m) - 1, Sites: 60, Model: m.String(),
				Warp:       32 * (int(m) % 2),
				ShardIndex: int(m) % 2, ShardCount: 2 * (int(m) % 2),
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			p, err := spec.Prepare(cache)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			tgt, want := handRecipe(t, spec, m)
			if got := p.Sites(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: Sites() differs from the hand recipe", kernel, m)
			}
			if p.Model != m {
				t.Errorf("%s/%s: prepared model %s", kernel, m, p.Model)
			}
			shard := fault.Shard{Index: spec.ShardIndex, Count: spec.ShardCount}
			for _, on := range []*fault.Target{p.Target, tgt} {
				engine := on.JournalFingerprint(m, len(want), spec.Scale, spec.Seed, shard)
				if got := spec.Fingerprint(); got != engine {
					t.Errorf("%s/%s: Spec.Fingerprint drifts from Target.JournalFingerprint (%s)", kernel, m, engine.Diff(got))
				}
			}
		}
	}
}

// TestSitesPrefixStable: under every model a campaign's site list is the
// first Sites entries of any larger campaign of the same seed — the
// property that makes baseline.Adaptive's cut-off a campaign of its own.
func TestSitesPrefixStable(t *testing.T) {
	cache := fault.NewPreparedCache(256 << 20)
	for m := fault.Model(0); m < fault.NumModels; m++ {
		p, err := campaign.Spec{Kernel: "GEMM K1", Scale: "small", Seed: 3, Sites: 700, Model: m.String()}.Prepare(cache)
		if err != nil {
			t.Fatal(err)
		}
		long := p.Sites()
		for _, n := range []int{1, 249, 250, 251, 699} {
			q := *p
			q.Spec.Sites = n
			if got := q.Sites(); !reflect.DeepEqual(got, long[:n]) {
				t.Errorf("%s: the %d-site list is not a prefix of the %d-site list", m, n, len(long))
			}
		}
	}
}

// TestOwnedSites: the completion target equals the schedule positions the
// engine's shard partition hands out (p%count == index), and an actual
// sharded run completes exactly that many sites.
func TestOwnedSites(t *testing.T) {
	for n := 0; n <= 64; n++ {
		for count := 1; count <= 5; count++ {
			for index := 0; index < count; index++ {
				want := 0
				for p := 0; p < n; p++ {
					if p%count == index {
						want++
					}
				}
				s := campaign.Spec{Sites: n, ShardIndex: index, ShardCount: count}
				if got := s.OwnedSites(); got != want {
					t.Fatalf("sites %d shard %d/%d: owned %d, want %d", n, index, count, got, want)
				}
			}
		}
	}
	if got := (campaign.Spec{Sites: 7}).OwnedSites(); got != 7 {
		t.Errorf("unsharded 7-site spec owns %d", got)
	}

	cache := fault.NewPreparedCache(256 << 20)
	total := 0
	for index := 0; index < 3; index++ {
		s := valid
		s.ShardIndex, s.ShardCount = index, 3
		p, err := s.Prepare(cache)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(fault.CampaignOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != s.OwnedSites() {
			t.Errorf("shard %d/3 completed %d sites, OwnedSites says %d", index, res.Completed, s.OwnedSites())
		}
		total += res.Completed
	}
	if total != valid.Sites {
		t.Errorf("three shards completed %d sites of %d", total, valid.Sites)
	}
}

// TestIDStable pins the content address to the ids the service handed out
// before the Spec existed (sha256 of the fingerprint's JSON, first 8
// bytes), so existing data directories recover under the same names. The
// hex values are the ones the last build whose fingerprint still carried
// checkpoint strides assigned these same specs: dropping the strides from
// identity renamed no default-stride campaign.
func TestIDStable(t *testing.T) {
	for _, tc := range []struct {
		spec campaign.Spec
		id   string
	}{
		{campaign.Spec{Kernel: "GEMM K1", Scale: "small", Seed: 1, Sites: 3000, Model: "dest-value"},
			"874c191932987914"},
		{campaign.Spec{Kernel: "HotSpot K1", Scale: "paper", Seed: 7, Sites: 1500, Model: "stuck-pred",
			Warp: 32, ShardIndex: 1, ShardCount: 2},
			"02a7c6d3fd107756"},
		{campaign.Spec{Kernel: "2DCONV K1", Scale: "small", Seed: 42, Sites: 200, Model: "mem-addr"},
			"daf4e12e26ebe55b"},
	} {
		if got := tc.spec.ID(); got != tc.id {
			t.Errorf("%+v: id %s, want %s", tc.spec, got, tc.id)
		}
	}
	a, b := valid, valid
	b.ShardCount = 1
	if a.ID() != b.ID() {
		t.Errorf("unsharded spelled 0/0 and 0/1 got different ids: %s vs %s", a.ID(), b.ID())
	}
}

// FuzzSpec feeds arbitrary JSON to the submission decoder fsserve uses
// (unknown fields rejected) and holds the usage rules to their contract:
// nothing panics; a spec Validate accepts stays within MaxSites and
// survives the journal header round trip with its fingerprint and id; and
// a spec Validate rejects cannot come back in through a header either.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kernel":"GEMM K1","scale":"small","seed":1,"sites":3000,"model":"dest-value"}`,
		`{"kernel":"HotSpot K1","scale":"paper","seed":7,"sites":1500,"model":"stuck-pred","warp":32,"shard_index":1,"shard_count":2}`,
		`{"kernel":"GEMM K1","scale":"small","seed":1,"sites":200000000,"model":"dest-value"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s campaign.Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&s) != nil {
			return
		}
		back, err := campaign.FromFingerprint(s.Fingerprint())
		if verr := s.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("Validate rejects %+v (%v), but FromFingerprint accepts its header", s, verr)
			}
			return
		}
		if s.Sites > campaign.MaxSites {
			t.Fatalf("Validate accepted %d sites, over MaxSites %d", s.Sites, campaign.MaxSites)
		}
		if err != nil {
			t.Fatalf("valid %+v: FromFingerprint: %v", s, err)
		}
		if got, want := back.Fingerprint(), s.Fingerprint(); got != want {
			t.Fatalf("valid %+v: header round trip: %s", s, want.Diff(got))
		}
		if back.ID() != s.ID() {
			t.Fatalf("valid %+v: id %s after the round trip, want %s", s, back.ID(), s.ID())
		}
	})
}
