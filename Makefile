GO ?= go

# The perf trajectory across PRs: `make bench` records the current tree as
# $(BENCH_OUT); `make ci` (via bench-check) fails when any benchmark present
# in both files regressed more than 25% against $(BENCH_PREV).
#
# BENCH_COUNT is 6 because the gate runs on a shared single-vCPU box where
# contention arrives in bursts: with only 2 samples per pass, both can land
# inside one burst and a healthy benchmark reads as a >25% REGRESS purely
# from noise (observed on PR 9's gate runs — interleaved re-measurement
# showed unchanged medians). Six samples per pass, spread across
# $(BENCH_PASSES) interleaved suite passes, put minutes between a
# benchmark's samples so at least some of them dodge every burst; the
# min-merge in benchjson then recovers the uncontended time.
BENCH_PREV  ?= BENCH_pr10.json
BENCH_OUT   ?= BENCH_pr14.json
BENCH_COUNT ?= 6
BENCH_PASSES ?= 3

.PHONY: ci vet build test race fuzz-smoke campaign-smoke stuckat-smoke service-smoke advise-smoke doccheck recipe-check bench-smoke bench bench-check bench-full

ci: vet build race fuzz-smoke campaign-smoke stuckat-smoke service-smoke advise-smoke doccheck recipe-check bench-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Ten seconds of native fuzzing per target (go test runs one -fuzz target at
# a time): the compiled plan and its scheduler against the test-side
# reference interpreter, on random programs with barriers, under both
# scheduler widths and every injection kind. A plain `go test` only replays
# the seeds and the checked-in corpus (internal/gpusim/testdata/fuzz).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlanMatchesReference$$' -fuzztime 10s ./internal/gpusim
	$(GO) test -run '^$$' -fuzz '^FuzzExecuteNeverPanics$$' -fuzztime 10s ./internal/gpusim

# The durability differentials under the race detector: interrupt-and-resume
# bit-identity and shard-merge equality.
campaign-smoke:
	$(GO) test -race -run 'TestCampaignInterruptResume|TestCampaignShardMerge' ./internal/fault

# Persistent-fault smoke against the real fsprune CLI: snapshots carry the
# full scheduler/synchronization ledger (DESIGN.md §3.11), so every
# persistent model — scheduler-corrupting ones included — must ride the
# fast-forward engine. For each model the -stats line must show CTA
# skipping, and the -json report must omit the legacy full_run_fallbacks
# field (only reports merged from old-era journals carry it).
stuckat-smoke:
	for m in stuck-active-mask stuck-barrier stuck-pred; do \
		out=$$($(GO) run ./cmd/fsprune -kernel "GEMM K1" -action campaign -model $$m -baseline 40 -stats) || exit 1; \
		echo "$$out" | grep "CTAs skipped" > /dev/null || { echo "stuckat-smoke: $$m stats line lacks CTA skipping"; exit 1; }; \
		echo "$$out" | grep " 0 CTAs skipped" && { echo "stuckat-smoke: $$m campaign skipped no CTAs"; exit 1; }; \
		$(GO) run ./cmd/fsprune -kernel "GEMM K1" -action campaign -model $$m -baseline 40 -json | grep full_run_fallbacks && { echo "stuckat-smoke: $$m json carries full_run_fallbacks"; exit 1; }; \
	done; exit 0

# The campaign service end to end against the real fsserve binary: serve on
# a random port, submit, SIGTERM mid-campaign (clean exit 0), restart,
# resume, and compare the final report byte-for-byte with the standalone
# journal-derived reference.
service-smoke:
	$(GO) test -race -run 'TestServeSmoke' ./cmd/fsserve

# Hardening-advisor smoke against the real CLIs: record a small campaign
# journal with fsprune, advise from it with fsadvise, and check the JSON
# document carries the frontier and its overhead axis; the live-campaign
# door must produce the byte-identical document.
advise-smoke:
	t=$$(mktemp -d) && \
	$(GO) run ./cmd/fsprune -kernel "GEMM K1" -action campaign -baseline 120 -journal $$t/a.journal > /dev/null && \
	$(GO) run ./cmd/fsadvise -journal $$t/a.journal -json > $$t/replay.json && \
	grep -q '"frontier"' $$t/replay.json && grep -q '"overhead_pct"' $$t/replay.json && \
	$(GO) run ./cmd/fsadvise -kernel "GEMM K1" -sites 120 -json > $$t/live.json && \
	cmp $$t/replay.json $$t/live.json && \
	{ $(GO) run ./cmd/fsadvise -kernel "GEMM K1" -sites -1 > /dev/null 2> $$t/neg.err; [ $$? -eq 1 ]; } && \
	grep -q "exit status 2" $$t/neg.err && ! grep -q "panic:" $$t/neg.err && \
	rm -rf $$t

# Documentation gate: every internal package carries a package comment,
# every `go run ./cmd/...` invocation quoted in README/DESIGN/ARCHITECTURE/
# EXPERIMENTS code fences names a real command and real flags, every cmd/*
# binary and every flag it defines is documented in README, and inline flag
# references in EXPERIMENTS.md name flags some command defines.
doccheck:
	$(GO) run ./cmd/doccheck

# One campaign recipe: the site-sampling stream and the copy of the engine
# strides onto a built kernel instance live in internal/campaign and nowhere
# else outside tests. Fails, printing the offending lines, when either
# appears in more than one non-test file under cmd/ and internal/.
recipe-check:
	@for pat in 'Split("baseline")' '\.\(CheckpointStride\|IntraStride\) *=[^=]'; do \
		hits=$$(grep -rn --include='*.go' --exclude='*_test.go' -e "$$pat" cmd internal); \
		if [ $$(echo "$$hits" | cut -d: -f1 | sort -u | grep -c .) -gt 1 ]; then \
			echo "recipe-check: $$pat is pasted outside internal/campaign:"; echo "$$hits"; exit 1; \
		fi; \
	done

# One iteration of the headline benchmark, piped through benchjson: catches
# gross regressions and panics in the campaign engine (and keeps the JSON
# extractor building) without a full benchmark run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTable2$$' -benchtime 1x . | $(GO) run ./cmd/benchjson > /dev/null

# Table/figure and campaign-engine benchmarks in smoke mode (one iteration
# each), recorded as ns/op per benchmark in $(BENCH_OUT). The recording is
# the best of $(BENCH_PASSES) full suite passes × $(BENCH_COUNT) samples
# each, min-merged by benchjson: a single 1x sample swings tens of percent
# with scheduler and GC jitter, and on a shared single-vCPU box contention
# arrives in bursts of tens of seconds — back-to-back samples of one
# benchmark all land inside the same burst, so the passes interleave the
# whole suite to spread each benchmark's samples minutes apart. Repeats
# share the process-wide prepared cache, so cache-backed benches report
# their warm path; BenchmarkPipelineColdPrepare attaches a fresh cache per
# iteration and stays the designated cold-Prepare gauge.
bench:
	for i in $$(seq $(BENCH_PASSES)); do \
		$(GO) test -run '^$$' -bench '^Benchmark(Table|Fig|Campaign|Pipeline|InterpStep)' -benchtime 1x -count $(BENCH_COUNT) . || exit 1; \
	done | $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# Regression gate: rerun the benchmarks and diff against the previous PR's
# recording; any >25% slowdown fails with a readable per-benchmark report.
# -allow-missing keeps ci green on clones without the baseline recording.
# -min-time-ms 5 is the noise floor: sub-5ms benches jitter tens of percent
# at smoke sample counts (interleaved reruns show unchanged medians), so
# they are reported but cannot flake the gate.
bench-check: bench
	$(GO) run ./cmd/benchdiff -allow-missing -max-regress 25 -min-time-ms 5 $(BENCH_PREV) $(BENCH_OUT)

# The full benchmark suite with allocation stats (slow).
bench-full:
	$(GO) test -run '^$$' -bench . -benchtime 3x -benchmem .
