GO ?= go

.PHONY: all build test race race-short chaos chaos-nightly fuzz lint trace insight flows bench kernels storagebench microbench clean

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The PR-budget race pass CI runs on every pull request: the full test
# surface under the race detector, with -short trimming the large-rank
# sweeps the full `make race` keeps.
race-short:
	$(GO) test -race -short ./...

# The chaos suite: every fault-injection and recovery test (rank
# crashes, dropped/corrupted/duplicated payloads, flaky storage,
# checkpoint restores) under the race detector. No injected fault may
# hang; each test carries a hard real-time guard. -short keeps PR runs
# quick by shrinking the large-rank sweeps; nightly runs them in full.
chaos:
	$(GO) test -race -short -run Chaos ./...

# The full chaos suite at nightly scale: large-rank sweeps included,
# cache bypassed so every fault schedule actually replays.
chaos-nightly:
	$(GO) test -race -count=1 -run Chaos ./...

# Brief coverage-guided fuzz of the merge frame decoder, the
# checkpoint decoder, the complex decoder (round trip to a fixed point),
# the Chrome-trace parser (no panic, and every accepted trace analyzes)
# and the gradient's cell order (against the cube.Compare oracle) on
# top of the seeded corpus that `make test` already replays.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCellOrder -fuzztime 30s ./internal/gradient/
	$(GO) test -run '^$$' -fuzz FuzzChaosUnframe -fuzztime 30s ./internal/merge/
	$(GO) test -run '^$$' -fuzz FuzzChaosDecodeCheckpoint -fuzztime 30s ./internal/pario/
	$(GO) test -run '^$$' -fuzz FuzzDeserialize -fuzztime 30s ./internal/mscomplex/
	$(GO) test -run '^$$' -fuzz FuzzGlueSerialized -fuzztime 30s ./internal/mscomplex/
	$(GO) test -run '^$$' -fuzz FuzzParseChromeTrace -fuzztime 30s ./internal/obs/analyze/

# The lint umbrella is exactly what the CI lint job enforces:
# formatting and go vet. The repo's own invariants (no host clock on the
# simulated path, sorted map output, allocation-free kernels) are
# tier-1 tests (DESIGN §11), so `make test` checks them.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...

# One small traced pipeline run: generate a sinusoid volume, run msc
# with tracing on 16 ranks, then validate the trace JSON (well-formed,
# monotonic timestamps per track, every flow start paired with exactly
# one finish). Artifacts: trace.json, flows.json.
trace:
	$(GO) run ./cmd/mkdata -kind sinusoid -n 33 -features 4 -o /tmp/parms-trace.raw
	$(GO) run ./cmd/msc -in /tmp/parms-trace.raw -dims 33x33x33 -procs 16 -merge full \
		-trace trace.json -flows flows.json -out /tmp/parms-trace.msc
	$(GO) run ./cmd/tracecheck -flows trace.json

# Trace analytics over the canned traced run: critical path, straggler
# flags, per-round merge attribution, and the tuning recommendation —
# printed as the human table and written as the machine-readable
# insight.json artifact (byte-identical across same-trace runs).
insight: trace
	$(GO) run ./cmd/msinsight -trace trace.json
	$(GO) run ./cmd/msinsight -trace trace.json -json > insight.json

# The message-flow view of the canned traced run: the rank×rank
# communication matrix and the bucketed virtual-time timeline, rebuilt
# from the trace's flow events (plus the raw flows.json dump the trace
# target already wrote).
flows: trace
	$(GO) run ./cmd/msinsight -trace trace.json -flows

# Traced strong-scaling sweep; writes a BENCH_<timestamp>.json snapshot
# with per-stage times, imbalance ratios, and communication volumes.
# `make test` already checks the same sweep field by field against the
# committed golden (TestBenchGolden); a declared model change re-pins it
# with `go run ./cmd/msbench -exp bench -q -json
# internal/experiments/testdata/bench_golden.json`.
bench:
	$(GO) run ./cmd/msbench -exp bench

# The intra-rank kernel surface in one target: worker-pool unit tests,
# the cross-width byte-equivalence and sweep-determinism suite, the
# pooled gradient/tracer microbenchmarks, the one-block gradient and
# trace microbenchmarks of the smooth-field pipeline case and the
# merge-heavy noise-field pipeline (add -cpuprofile to profile the
# merge path).
kernels:
	$(GO) test ./internal/kernel/ ./internal/serial/
	$(GO) test -run '^$$' -bench 'Pooled' -benchtime 3x ./internal/gradient/ ./internal/mscomplex/
	$(GO) test -run '^$$' -bench 'GradientSmoothBlock' -benchtime 3x -benchmem ./internal/gradient/
	$(GO) test -run '^$$' -bench 'TraceSmoothBlock' -benchtime 3x -benchmem ./internal/mscomplex/
	$(GO) test -run '^$$' -bench 'PipelineNoiseMerge' -benchtime 3x -benchmem .

# The complex-storage microbenchmarks with their allocation counts:
# encode and decode of one 33³ block's complex, an eight-block glue and
# the one-block trace (the EXPERIMENTS storage tables in one command).
storagebench:
	$(GO) test -run '^$$' -bench 'Compact32|Serialize32|Deserialize32|Glue8Blocks|Trace32$$' -benchmem ./internal/mscomplex/

# The paper-evaluation drivers as Go microbenchmarks.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

clean:
	$(GO) clean ./...
