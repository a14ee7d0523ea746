package fault

// SetIntraStart sets the first intra-CTA capture stride of t's golden run
// (gpusim.NewCheckpointRecorder's intraStart; 0 is its default), so tests
// can make short CTAs capture warp snapshots. Call it before Prepare.
func SetIntraStart(t *Target, stride int) { t.intraStart = stride }

// ValidateSite is RunSiteModel's up-front site check, without the run.
func ValidateSite(t *Target, s Site, m Model) error { return t.validateSiteModel(s, m) }
