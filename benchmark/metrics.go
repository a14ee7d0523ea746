package main

// metricDef names one metric the benchmark reports. BENCHMARK.json at the
// repo root repeats name, unit, direction and bound; a test keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; 0 for
	// per-layer metrics, which have none.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric it should
	// move (and where); for an end-to-end metric it says what it means on
	// each workload.
	Moves string
}

// endToEnd lists the metrics every workload reports from the untraced run.
// The bounds are about three times the spread (interquartile range over
// median) of ten runs with ten seeds on the 2-vCPU box the benchmark was
// defined on: 5-12 % for the timings, of which 3-6 % is host noise at a
// fixed seed and the rest is the seed's own site list; up to 5 % for
// allocation, all of it the seed; up to 6 % for peak RSS.
// The driver's contract makes every workload report every end-to-end
// metric, so the list holds only what is defined everywhere; the metrics a
// single workload adds (profile_s, replay_sites_per_s, ...) are in perLayer
// under "workload".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"everything before the first timed operation: kernel build, cold Prepare, site-list generation, server start; on prune-suite the Build+Prepare share of a repetition"},
	{"sites_per_s", "sites/s", "higher", 0.25,
		"fault sites classified per host second of campaign wall-clock, median of repetitions; on prune-suite pruned+baseline injections per second of the whole repetition; on service-mix sites of distinct campaigns per second of the mix"},
	{"result_p50_ms", "ms", "lower", 0.25,
		"median wall-clock from asking to result: all of a repetition's campaigns (deep-paper, warp-persistent), shard journals to report and advice bytes (shallow-durable), cold Build to pruned profile over 17 kernels (prune-suite), POST to report bytes (service-mix)"},
	{"alloc_kb_per_site", "KiB/site", "lower", 0.15,
		"runtime.MemStats.TotalAlloc over the timed region divided by sites classified in it"},
	{"peak_rss_mb", "MiB", "lower", 0.20,
		"VmHWM of the workload's own process at exit"},
}

// perLayer lists the metrics of single layers, reported by the traced run.
// A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// kernels, ptx: probe kernel, per call.
	{"kernels.build_ms", "ms", "lower", 0, "profile_s and setup_s on prune-suite; nothing elsewhere"},
	{"ptx.assemble_ms", "ms", "lower", 0, "profile_s and setup_s on prune-suite; nothing elsewhere"},
	// gpusim execution: bare Execute on the probe kernel.
	{"gpusim.instrs_per_s.serial", "instr/s", "higher", 0, "sites_per_s on deep-paper and shallow-durable; profile_s through the golden run"},
	{"gpusim.instrs_per_s.warp32", "instr/s", "higher", 0, "sites_per_s on warp-persistent"},
	{"gpusim.total_dyn", "count", "lower", 0, "exact; simulated statistic, must not move"},
	{"gpusim.execute_golden_ms", "ms", "lower", 0, "setup_s; profile_s"},
	{"gpusim.profile_trace_ms", "ms", "lower", 0, "setup_s; profile_s"},
	// gpusim memory and snapshots.
	{"gpusim.clone_us", "us", "lower", 0, "sites_per_s on shallow-durable; invisible on deep-paper"},
	{"gpusim.reset_same_us", "us", "lower", 0, "sites_per_s on shallow-durable; invisible on deep-paper"},
	{"gpusim.reset_cross_us", "us", "lower", 0, "sites_per_s on shallow-durable (times fault.affinity_resets)"},
	{"gpusim.hash_page_ns", "ns", "lower", 0, "sites_per_s on shallow-durable through Converged; setup_s through Prepare"},
	{"gpusim.converged_us", "us", "lower", 0, "sites_per_s on shallow-durable (times early exits)"},
	{"gpusim.warp_restore_us", "us", "lower", 0, "sites_per_s on shallow-durable and deep-paper (times intra skips)"},
	{"gpusim.ckpt_bytes", "B", "lower", 0, "peak_rss_mb"},
	{"gpusim.warp_ckpt_bytes", "B", "lower", 0, "peak_rss_mb"},
	{"trace.build_ms", "ms", "lower", 0, "profile_s; setup_s"},
	// fault prepare.
	{"fault.prepare_cold_ms", "ms", "lower", 0, "setup_s everywhere; profile_s; first-per-kernel tail of submit_to_report_p90_ms"},
	{"fault.prepare_hit_ms", "ms", "lower", 0, "result_p50_ms on service-mix (14 of 15 submissions per kernel)"},
	// fault engine, from the workload's own campaigns.
	{"fault.site_us", "us", "lower", 0, "sites_per_s (wall x W / runs)"},
	{"fault.runsite_p50_us", "us", "lower", 0, "sites_per_s; full-run reference path through RunSiteModelOn"},
	{"fault.runsite_p99_us", "us", "lower", 0, "sites_per_s tail"},
	{"fault.fullrun_site_us", "us", "lower", 0, "denominator of fault.ff_speedup_x"},
	{"fault.ff_speedup_x", "x", "higher", 0, "sites_per_s on deep-paper (prefix sharing should raise it)"},
	{"fault.space_sample_ms", "ms", "lower", 0, "setup_s"},
	{"fault.runs", "count", "lower", 0, "exact; denominator of every ratio below"},
	{"fault.ctas_skipped_per_site", "count", "higher", 0, "sites_per_s on deep-paper"},
	{"fault.early_exit_ratio", "ratio", "higher", 0, "sites_per_s (suffix skipped)"},
	{"fault.intra_skip_ratio", "ratio", "higher", 0, "sites_per_s (prefix of the injected CTA skipped)"},
	{"fault.pages_per_site", "count", "lower", 0, "sites_per_s and alloc_kb_per_site on shallow-durable"},
	{"fault.affinity_resets", "count", "lower", 0, "sites_per_s on shallow-durable"},
	{"fault.devices_created", "count", "lower", 0, "alloc_kb_per_site; peak_rss_mb"},
	{"fault.retries", "count", "lower", 0, "failed operations"},
	{"fault.quarantined", "count", "lower", 0, "failed operations"},
	{"fault.sites_per_s.stuck-active-mask", "sites/s", "higher", 0, "sites_per_s on warp-persistent"},
	{"fault.sites_per_s.lane-correlated", "sites/s", "higher", 0, "sites_per_s on warp-persistent"},
	{"fault.sites_per_s.mem-addr", "sites/s", "higher", 0, "sites_per_s on warp-persistent"},
	{"fault.sites_per_s.stuck-pred", "sites/s", "higher", 0, "sites_per_s on warp-persistent"},
	// core, baseline: prune-suite, summed over the 17 kernels of a repetition.
	{"core.build_plan_ms", "ms", "lower", 0, "profile_s"},
	{"core.estimate_ms", "ms", "lower", 0, "profile_s"},
	{"core.plan_sites", "count", "lower", 0, "exact; moves only when prune_err_pp and site_reduction_x are re-baselined"},
	{"baseline.fixed_ms", "ms", "lower", 0, "sites_per_s on prune-suite"},
	// journal: synthetic records plus the probe campaign's real journals.
	{"journal.append_us", "us", "lower", 0, "sites_per_s on shallow-durable only"},
	{"journal.append_sync64_us", "us", "lower", 0, "result_p50_ms on service-mix"},
	{"journal.fsync_ms", "ms", "lower", 0, "informational: the data directory's disk, not the program"},
	{"journal.open_replay_ms", "ms", "lower", 0, "replay_sites_per_s"},
	{"journal.readfile_ms", "ms", "lower", 0, "report_ms; setup of a restarted daemon"},
	{"journal.merge_ms", "ms", "lower", 0, "report_ms"},
	{"journal.bytes_per_record", "B", "lower", 0, "sites_per_s on shallow-durable only"},
	{"journal.overhead_pct", "%", "lower", 0, "sites_per_s on shallow-durable only (same sites with and without a journal)"},
	// report, advisor: the probe campaign's journals.
	{"report.new_merged_ms", "ms", "lower", 0, "report_ms; service.report_get_ms"},
	{"report.write_ms", "ms", "lower", 0, "report_ms; service.report_get_ms"},
	{"report.bytes", "B", "lower", 0, "service.report_get_ms"},
	{"advisor.from_journal_ms", "ms", "lower", 0, "report_ms; service.advice_get_ms"},
	{"advisor.analyze_ms", "ms", "lower", 0, "report_ms; service.advice_get_ms"},
	{"advisor.bytes", "B", "lower", 0, "service.advice_get_ms"},
	// service: client-side timestamps, status polls and /stats.
	{"service.submit_ms", "ms", "lower", 0, "result_p50_ms and dedup_p50_ms on service-mix (validate + fingerprint + header fsync)"},
	{"service.queue_wait_ms", "ms", "lower", 0, "result_p50_ms on service-mix; about 0 in this closed loop"},
	{"service.run_ms", "ms", "lower", 0, "result_p50_ms on service-mix"},
	{"service.report_get_ms", "ms", "lower", 0, "result_p50_ms and dedup_p50_ms on service-mix"},
	{"service.advice_get_ms", "ms", "lower", 0, "sites_per_s on service-mix (every 4th campaign)"},
	{"service.status_get_ms", "ms", "lower", 0, "service.run_ms (polled every 2 ms)"},
	{"service.stats_get_ms", "ms", "lower", 0, "nothing timed; read once"},
	{"service.cold_submit_to_report_ms", "ms", "lower", 0, "submit_to_report_p90_ms (first submission per kernel)"},
	{"service.inproc_submit_to_report_ms", "ms", "lower", 0, "result_p50_ms on service-mix minus the HTTP share"},
	{"service.engine_sites_per_s", "sites/s", "higher", 0, "sites_per_s on service-mix; compare with fault.site_us on shallow-durable"},
	{"service.engine_runs", "count", "lower", 0, "exact; one per distinct submission"},
	{"service.dedup_hits", "count", "higher", 0, "exact; one per duplicate submission"},
	{"service.cache_hits", "count", "higher", 0, "result_p50_ms on service-mix"},
	{"service.cache_misses", "count", "lower", 0, "submit_to_report_p90_ms"},
	{"service.rejected_429", "count", "lower", 0, "failed operations"},
	{"trace_overhead_pct", "%", "lower", 0, "traced over untraced repetition median; nothing, by construction"},
	// workload: what one workload's user sees beyond the shared end-to-end list.
	{"profile_s", "s", "lower", 0, "prune-suite: cold Build to pruned profile, summed over 17 kernels, baseline excluded"},
	{"prune_err_pp", "pp", "lower", 0, "prune-suite: max over kernels of the max-class delta, pruned estimate vs the 400-run random baseline (not exhaustive truth)"},
	{"site_reduction_x", "x", "higher", 0, "prune-suite: geometric mean of Plan.Reduction()"},
	{"replay_sites_per_s", "sites/s", "higher", 0, "shallow-durable: journal.Open on the complete journal plus fault.Run replaying every site"},
	{"report_ms", "ms", "lower", 0, "shallow-durable: equals result_p50_ms there"},
	{"submit_to_report_p90_ms", "ms", "lower", 0, "service-mix: POST to report bytes, 90th percentile"},
	{"dedup_p50_ms", "ms", "lower", 0, "service-mix: duplicate POST to report bytes"},
	{"campaigns_per_s", "1/s", "higher", 0, "service-mix: distinct campaigns completed per second of the mix"},
	{"failed_ops_pct", "%", "lower", 0, "every workload: failed over attempted operations; must stay 0"},
}

// workloadDef names a workload and why it is in the suite.
type workloadDef struct {
	Name string
	Why  string
	run  func(*run) error
}

var workloads = []workloadDef{
	{"deep-paper", "HotSpot K1 and K-Means K2 at paper scale, no journal: gpusim stepping and the fault fast-forward do nearly all the work, so prefix sharing and engine changes show here", runDeepPaper},
	{"shallow-durable", "three small kernels, 8K journaled sites each, then replay, shard merge, report and advice: per-site overhead and the journal's write and read sides dominate, stepping is the small share", runShallowDurable},
	{"warp-persistent", "HotSpot K1 at paper scale under the SIMT-lockstep scheduler with persistent and warp-wide fault models: pins the simulator's careful path, which deep-paper bypasses", runWarpPersistent},
	{"prune-suite", "all 17 kernels cold through Build, Prepare, BuildPlan, pruned estimate and a 400-run baseline: the paper's method end to end, where cost moved into Prepare shows; the only accuracy figure", runPruneSuite},
	{"service-mix", "in-process fsserve behind loopback HTTP, W closed-loop clients over 120 distinct small campaigns, half of all POSTs duplicates: the cold POST to report-bytes path, where service overhead shows", runServiceMix},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
