// Package service implements the campaign service behind the fsserve
// daemon: a long-lived, multi-tenant front end to the injection-campaign
// engine. A submission is a campaign.Spec (kernel, scale, seed, fault-model
// shape, shard): the service fills in omitted fields, and validation, the
// journal fingerprint, the campaign id and the engine run are the Spec's —
// the same derivation fsprune's campaign action uses. Submissions are
// deduplicated by id — two identical submissions share one engine run, like
// PreparedCache singleflights golden runs. Admitted campaigns execute on a
// bounded worker pool behind a bounded admission queue (overflow is
// rejected, HTTP 429); each campaign writes its write-ahead journal under
// the server's data directory, so a crashed or restarted daemon recovers
// every incomplete campaign from disk and resumes it through the engine's
// replay path, bit-identical to an uninterrupted run.
//
// The HTTP surface (Server.Handler): POST /campaigns submits, GET
// /campaigns/{id} reports live status with an incremental outcome profile
// tallied from the engine's record stream, GET /campaigns/{id}/report
// serves the final deterministic report document (byte-identical to
// fsmerge's for the same journal), GET /healthz probes liveness, and GET
// /stats exposes the worker pool, the shared prepared-target cache, and
// per-campaign engine stats.
package service

import (
	cspec "repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/kernels"
)

// Submission is one campaign request: a campaign.Spec in its JSON wire
// form. A submission that names only a kernel is valid — Submit fills the
// omitted fields with the campaign defaults fsprune's flags use too.
type Submission = cspec.Spec

// withDefaults fills the fields a submission omitted. Over JSON, omitted
// and zero are the same thing, so an explicit seed 0 cannot be submitted
// (it means campaign.DefaultSeed); recovery does not pass through here, so
// a journal fsprune wrote under -seed 0 still recovers as seed 0.
func withDefaults(sub Submission) Submission {
	if sub.Scale == "" {
		sub.Scale = kernels.ScaleSmall.String()
	}
	if sub.Seed == 0 {
		sub.Seed = cspec.DefaultSeed
	}
	if sub.Sites == 0 {
		sub.Sites = cspec.DefaultSites
	}
	if sub.Model == "" {
		sub.Model = fault.ModelDestValue.String()
	}
	if sub.ShardCount == 0 && sub.ShardIndex == 0 {
		sub.ShardCount = 1 // unsharded, spelled as the journal header spells it
	}
	return sub
}
