GO ?= go

.PHONY: ci vet build test race fuzz-smoke campaign-smoke stuckat-smoke service-smoke advise-smoke examples-smoke doccheck recipe-check bench bench-record experiments

# The perf smoke is part of race: TestSmokeEveryWorkload and TestSmokeTraced
# in ./benchmark run every workload, traced and untraced, at reduced size.
ci: vet build race fuzz-smoke campaign-smoke stuckat-smoke service-smoke advise-smoke examples-smoke doccheck recipe-check

# vet also fails on any file gofmt would rewrite, naming it.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

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
# skipping.
stuckat-smoke:
	for m in stuck-active-mask stuck-barrier stuck-pred; do \
		out=$$($(GO) run ./cmd/fsprune -kernel "GEMM K1" -action campaign -model $$m -baseline 40 -stats) || exit 1; \
		echo "$$out" | grep "CTAs skipped" > /dev/null || { echo "stuckat-smoke: $$m stats line lacks CTA skipping"; exit 1; }; \
		echo "$$out" | grep " 0 CTAs skipped" && { echo "stuckat-smoke: $$m campaign skipped no CTAs"; exit 1; }; \
	done; exit 0

# The campaign service end to end against the real fsserve binary: serve on
# a random port, submit, SIGTERM mid-campaign (clean exit 0), restart,
# resume, and compare the final report byte-for-byte with the standalone
# journal-derived reference.
service-smoke:
	$(GO) test -race -run 'TestServeSmoke' ./cmd/fsserve

# Hardening-advisor smoke against the real CLIs: in the destination,
# address and stuck-at site spaces, record a small campaign journal with
# fsprune, advise from it with fsadvise, and check the JSON document
# carries the frontier and its overhead axis; the live-campaign door must
# produce the byte-identical document.
advise-smoke:
	t=$$(mktemp -d) && \
	$(GO) build -o $$t ./cmd/fsprune ./cmd/fsadvise && \
	for m in dest-value mem-addr stuck-pred; do \
		$$t/fsprune -kernel "GEMM K1" -action campaign -model $$m -baseline 120 -journal $$t/$$m.journal > /dev/null && \
		$$t/fsadvise -journal $$t/$$m.journal -json > $$t/$$m.replay.json && \
		grep -q '"frontier"' $$t/$$m.replay.json && grep -q '"overhead_pct"' $$t/$$m.replay.json && \
		$$t/fsadvise -kernel "GEMM K1" -model $$m -sites 120 -json > $$t/$$m.live.json && \
		cmp $$t/$$m.replay.json $$t/$$m.live.json || exit 1; \
	done && \
	{ $(GO) run ./cmd/fsadvise -kernel "GEMM K1" -sites -1 > /dev/null 2> $$t/neg.err; [ $$? -eq 1 ]; } && \
	grep -q "exit status 2" $$t/neg.err && ! grep -q "panic:" $$t/neg.err && \
	rm -rf $$t

# Documentation gate: every internal package carries a package comment,
# every `go run ./cmd/...` invocation quoted in README/DESIGN/ARCHITECTURE/
# EXPERIMENTS code fences names a real command and real flags, every cmd/*
# binary and every flag it defines is documented in README, inline flag
# references in EXPERIMENTS.md name flags some command defines, and every
# Test…/Fuzz… name those files or benchmark/README.md cite is a real test.
doccheck:
	$(GO) run ./cmd/doccheck

# One campaign recipe, one set of random draws, and identity without tuning.
# Among non-test files under cmd/ and internal/: the site-sampling stream
# (Split("baseline")) and the per-model draw (RandomModel) live only in
# internal/campaign; the plain uniform dest-value draw (Random) only in
# baseline.Fixed's file and the experiments' one helper — the draws
# themselves are defined in internal/fault, so callers are counted outside
# it; and no file assigns a target's FullRun — an engine parameter tests and
# the benchmark set to check the checkpointed = full-run contract, not part
# of what a campaign is. Fails, printing the offending lines, when a pattern
# appears in more files than allowed.
recipe-check:
	@check() { \
		hits=$$(grep -rn --include='*.go' --exclude='*_test.go' -e "$$2" cmd internal | grep -v "$$3"); \
		if [ $$(echo "$$hits" | cut -d: -f1 | sort -u | grep -c .) -gt $$1 ]; then \
			echo "recipe-check: $$2 appears in more than $$1 non-test file(s):"; echo "$$hits"; exit 1; \
		fi; \
	}; \
	check 1 'Split("baseline")' '^$$' && \
	check 1 '\.RandomModel(' '^internal/fault/' && \
	check 2 '\.Random(' '^internal/fault/' && \
	check 0 '\.FullRun *=[^=]' '^$$'

# Every example program runs to completion (vet and build only compile
# them).
examples-smoke:
	for e in examples/*/; do \
		$(GO) run ./$$e > /dev/null || { echo "examples-smoke: $$e failed"; exit 1; }; \
	done

# The repository benchmark (benchmark/README.md): five output-checked
# workloads, each in its own process, end-to-end metrics against the bounds
# in BENCHMARK.json. Timings are only comparable within one session; to judge
# a change, alternate this tree with a build of the parent commit.
bench:
	$(GO) run ./benchmark

# The trajectory file: each workload's result line (the last line a workload
# process prints) as one JSON object keyed by workload.
bench-record:
	@[ -n "$(PR)" ] || { echo "bench-record: set PR to the change's number (make bench-record PR=<n>)"; exit 1; }
	for w in deep-paper shallow-durable warp-persistent prune-suite service-mix; do \
		out=$$($(GO) run ./benchmark -workload $$w) || exit 1; \
		printf '"%s": %s\n' $$w "$$(printf '%s\n' "$$out" | tail -n 1)"; \
	done > BENCH_pr$(PR).json
	sed -i -e '$$!s/$$/,/' -e '1s/^/{\n/' -e '$$s/$$/\n}/' BENCH_pr$(PR).json

# Regenerates experiments_output.txt (untracked), the transcript every
# "measured" value in EXPERIMENTS.md comes from: seed 1, the whole suite at
# small scale, then the two profiling-only tables at paper scale. -out
# appends, hence the rm.
experiments:
	rm -f experiments_output.txt
	$(GO) run ./cmd/experiments -exp all -out experiments_output.txt > /dev/null
	$(GO) run ./cmd/experiments -exp table1,table7 -scale paper -out experiments_output.txt > /dev/null
