package fault

// SetIntraStart sets the first intra-CTA capture stride of t's golden run
// (gpusim.NewCheckpointRecorder's intraStart; 0 is its default), so tests
// can make short CTAs capture warp snapshots. Call it before Prepare.
func SetIntraStart(t *Target, stride int) { t.intraStart = stride }

// ValidateSite is RunSiteModel's up-front site check, without the run.
func ValidateSite(t *Target, s Site, m Model) error { return t.validateSiteModel(s, m) }

// Decide is the campaign engine's decide: the outcome a persistent-model
// site gets without running, ok false when it must run.
func Decide(t *Target, s Site, m Model) (Outcome, bool) { return t.decide(s, m) }

// Executor returns a runner of t's sites under m through the campaign's
// executing path (injectOn) on one reused worker device, which never
// decides: the reference Decide is held to.
func Executor(t *Target, m Model) func(Site) (Outcome, error) {
	w := &workerDevice{t: t, model: m, dev: t.Init.Clone()}
	return func(s Site) (Outcome, error) {
		o, _, err := t.injectOn(w, s, m)
		return o, err
	}
}
