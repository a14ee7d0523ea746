// Package campaign holds the one definition of "what campaign is this?".
// A Spec is the journal header's tuple (kernel, scale, seed, size, fault
// model, scheduler width, shard) that the paper's accuracy claim is a
// function of — what decides the site list and each site's outcome, and
// nothing about how fast the engine gets there; every entry point —
// fsprune's and fsadvise's flags, fsserve's JSON submissions, a recovered
// journal header — is an adapter onto it, and
// everything downstream is derived here exactly once: the usage rules
// (Validate), the journal fingerprint and its inverse (Fingerprint,
// FromFingerprint), the content-addressed identity (ID), a shard's
// completion target (OwnedSites), the prepared injection target (Prepare)
// and, on that, the site list (Prepared.Sites) and the engine run
// (Prepared.Run). The values an omitted seed or size stands for decide the
// fingerprint and the id, so they are spelled here once (DefaultSeed,
// DefaultSites). Filling them in is the adapters' job: "omitted" is only
// observable at an adapter (a flag default, a missing JSON field), and
// Validate rejects and never rewrites.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/stats"
)

// The seed and campaign size an entry point uses when its caller names none:
// fsprune's and fsadvise's flag defaults and fsserve's omitted JSON fields.
// MaxSites, 17× the paper's 60K-run baseline, is the largest size Validate
// admits: the site list costs memory per site before the first site runs.
const (
	DefaultSeed  = 1
	DefaultSites = 3000
	MaxSites     = 1 << 20
)

// Spec describes one uniform random injection campaign. It is the journal
// header's type (journal.Fingerprint documents the fields and their JSON,
// fsserve's submission wire format), so the campaign tuple is declared
// once; the methods below are what a campaign derives from it.
type Spec journal.Fingerprint

// Validate is the only copy of the campaign usage rules.
func (s Spec) Validate() error {
	if _, ok := kernels.ByName(s.Kernel); !ok {
		return fmt.Errorf("unknown kernel %q (fsprune -list names them)", s.Kernel)
	}
	if _, err := kernels.ParseScale(s.Scale); err != nil {
		return err
	}
	if _, err := fault.ParseModel(s.Model); err != nil {
		return err
	}
	if s.Sites <= 0 || s.Sites > MaxSites {
		return fmt.Errorf("campaign size (sites) must be in [1, %d], got %d", MaxSites, s.Sites)
	}
	if s.Warp < 0 {
		return fmt.Errorf("warp width must be >= 0 (0 = serial interleaving), got %d", s.Warp)
	}
	if s.ShardCount == 0 && s.ShardIndex != 0 {
		return fmt.Errorf("shard index %d requires a shard count", s.ShardIndex)
	}
	if sh := s.shard(); sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return fmt.Errorf("invalid shard %d/%d (want 0 <= index < count)", s.ShardIndex, s.ShardCount)
	}
	return nil
}

// shard is the spec's shard in the canonical form the journal header
// carries: unsharded is shard 0 of 1.
func (s Spec) shard() fault.Shard {
	if s.ShardCount == 0 {
		return fault.Shard{Index: s.ShardIndex, Count: 1}
	}
	return fault.Shard{Index: s.ShardIndex, Count: s.ShardCount}
}

// OwnedSites is the number of campaign sites this spec's shard executes —
// the completion target of its journal.
func (s Spec) OwnedSites() int { return s.shard().Owned(s.Sites) }

// Fingerprint is the journal header of the spec's campaign: the spec itself,
// with unsharded (ShardCount 0) spelled 0/1. It equals what
// Target.JournalFingerprint reports on the prepared target (pinned by this
// package's tests), without building a kernel.
func (s Spec) Fingerprint() journal.Fingerprint {
	fp := journal.Fingerprint(s)
	fp.ShardCount = s.shard().Count
	return fp
}

// FromFingerprint is Fingerprint's inverse: the spec a journal header was
// written for. It fails on headers no entry point of this build writes — a
// fault model it does not implement, a kernel it does not register, or an
// unsharded campaign not spelled 0/1.
func FromFingerprint(fp journal.Fingerprint) (Spec, error) {
	if _, err := fault.ParseModel(fp.Model); err != nil {
		return Spec{}, fmt.Errorf("journal was recorded under a fault model this build cannot run: %w", err)
	}
	s := Spec(fp)
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	if got := s.Fingerprint(); got != fp {
		return Spec{}, fmt.Errorf("journal header is not one this build writes (%s)", fp.Diff(got))
	}
	return s, nil
}

// ID is the campaign's content address: fsserve's dedup key, status URL
// and (suffixed .journal) journal filename. A function of the fingerprint
// alone, so a recovered journal resumes under the id it was submitted with.
func (s Spec) ID() string {
	payload, _ := json.Marshal(s.Fingerprint()) // a struct of scalars cannot fail to marshal
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:8])
}

// Prepared is a spec bound to its built, prepared kernel instance.
type Prepared struct {
	Spec Spec
	*kernels.Instance
	// Model is Spec.Model, parsed.
	Model fault.Model
}

// Prepare builds the spec's kernel at its scale, copies the engine shape
// onto the target and prepares it through cache (nil prepares uncached).
// It reads only Kernel, Scale, Model and Warp, so tools that need a
// prepared target but run no campaign (gpurun, the experiments harness) may
// leave the rest unset.
func (s Spec) Prepare(cache *fault.PreparedCache) (*Prepared, error) {
	ks, ok := kernels.ByName(s.Kernel)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", s.Kernel)
	}
	sc, err := kernels.ParseScale(s.Scale)
	if err != nil {
		return nil, err
	}
	model, err := fault.ParseModel(s.Model)
	if err != nil {
		return nil, err
	}
	inst, err := ks.Build(sc)
	if err != nil {
		return nil, err
	}
	inst.Target.WarpSize = s.Warp
	inst.Target.Cache = cache
	if err := inst.Target.Prepare(); err != nil {
		return nil, err
	}
	return &Prepared{Spec: s, Instance: inst, Model: model}, nil
}

// Sites derives the campaign's site list: Spec.Sites uniform draws from the
// model's site space, from the seed's "baseline" stream. The list is a pure
// function of (kernel, scale, seed, size, model) — what the fingerprint
// pins — and identical for every shard.
func (p *Prepared) Sites() []fault.WeightedSite {
	space := fault.NewSpace(p.Target.Profile())
	rng := stats.NewRNG(p.Spec.Seed).Split("baseline")
	return fault.Uniform(space.RandomModel(rng, p.Spec.Sites, p.Model))
}

// Run executes the spec's shard of the campaign. opt carries the
// per-process concerns (parallelism, journal, interrupt, sinks); the shard
// is the spec's.
func (p *Prepared) Run(opt fault.CampaignOptions) (*fault.CampaignResult, error) {
	opt.Shard = p.Spec.shard()
	return fault.RunModel(p.Target, p.Sites(), p.Model, opt)
}
