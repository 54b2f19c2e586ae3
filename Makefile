# Maya cache reproduction — build/verify targets.
#
# `make ci` is the tier-1 gate: everything a PR must keep green.

GO ?= go

.PHONY: all build test vet lint bench-module check race e2e bench bench-profile fuzz-smoke ci clean

all: build

# build compiles every package and command.
build:
	$(GO) build ./...

# test runs the full unit/integration suite.
test:
	$(GO) test ./...

# vet runs go vet plus mayavet, the simulator-specific analyzers
# (randsource, maporder, uncheckederr, narrowcast, plus the
# interprocedural seedflow, snapshotfields, goroutinectx, atomicmix — see
# internal/vet). Extra flags pass through VETFLAGS, e.g.
# `make vet VETFLAGS='-only seedflow -format json'`.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/mayavet $(VETFLAGS) ./...

# lint fails on any gofmt-unclean Go file outside the analyzer's fixture
# module, and on any `// Deprecated:` doc comment: an operation has one
# entrypoint, so a replaced API is deleted, not kept beside its successor.
lint:
	@unformatted=$$(gofmt -l . | grep -v '^internal/vet/testdata/' || true); \
	if [ -n "$$unformatted" ]; then \
	  echo "lint: gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi
	@if grep -rn --include='*.go' '^[[:space:]]*// Deprecated:' . >&2; then \
	  echo "lint: delete the deprecated API instead of keeping it" >&2; exit 1; fi

# bench-module vets and tests the benchmark's nested module, which the
# root `go test ./...` skips, so an API it compiles against cannot be
# removed unnoticed.
bench-module:
	cd internal/bench/workload && $(GO) vet ./... && $(GO) test ./...

# check re-runs the suite with the mayacheck build tag: the hot cache
# structures self-verify their FPTR/RPTR bijection, occupancy conservation,
# and ball-count invariants on every run, the index front cross-checks
# every memo hit, and the fault-injection tests prove the audits fire on
# corrupted tag stores.
check:
	$(GO) test -tags mayacheck ./internal/core/... ./internal/mirage/... ./internal/buckets/... ./internal/cachesim/... ./internal/faults/... ./internal/ceaser/... ./internal/baseline/... ./internal/probe/... ./internal/cachemodel/...
	$(GO) test -tags mayacheck ./internal/bench -run 'TestGolden|TestMemoEquivalenceProperty'

# race runs the race detector over the multi-core simulator paths, the
# concurrent sweep harness, and the shard-parallel Monte-Carlo engine
# (scheduling-invariance and mid-run cancellation hammers; -short keeps
# the sharded model/attack tests at CI scale).
race:
	$(GO) test -race ./internal/cachesim/... ./internal/core/... ./internal/experiments/... ./internal/harness/... ./internal/faults/... ./internal/snapshot/...
	$(GO) test -race ./internal/dist/
	$(GO) test -race -cover ./internal/serve/
	$(GO) test -race ./internal/vet/ ./cmd/mayavet/
	$(GO) test -race -short ./internal/mc/... ./internal/pprofutil/...
	$(GO) test -race -short -run 'Sharded' ./internal/buckets/
	$(GO) test -race -short -run 'Trials|MedianDistinguishWorker|EvictionSetTrials|ReplacementPredictabilityCtx' ./internal/attack/

# e2e exercises the CLIs end to end through e2e.sh, the same script
# ci.sh runs: mayasim fault isolation, checkpoint resume and
# SIGKILL-mid-ROI snapshot resume (byte-identical tables), securitysim
# shard invariance and flag validation, attacksim worker invariance and
# flag validation, the mayafleet chaos fabric, retry exhaustion and flag
# misuse, and the mayaserve session daemon's kill -9 recovery
# (byte-identical results) and 429 load shedding. The script runs under
# `set -eu`, so any failed check fails the target.
e2e:
	sh ./e2e.sh

# bench runs the continuous benchmark suite in quick mode and writes
# BENCH.json: per-design LLC access-path microbenchmarks (ns/access,
# allocs/access, B/access), a 4-core macro mix (events/sec), the
# shard-parallel Monte-Carlo security micro (iters/sec, serial vs 8x8,
# with the measured speedup), and the session-service load scenarios
# (admission/turnaround latency percentiles, sessions/sec, shed rate). The
# numbers are pinned and seed-deterministic, so comparing BENCH.json
# across commits on the same machine tracks simulator performance; the
# run also re-exercises the zero-alloc and golden-fixture guards via the
# bench package's init paths. Drop -quick for the full-length suite.
bench:
	$(GO) run ./cmd/mayabench -quick -out BENCH.json

# bench-profile runs just the micro tier (the LLC access path, both the
# fast-hash overhead rows and the real-PRINCE memoized rows) under the CPU
# profiler and prints the ten hottest functions by flat time — the
# shortest loop for "where did the ns/access go".
bench-profile:
	@TMP=$$(mktemp -d); trap 'rm -rf "$$TMP"' EXIT; \
	$(GO) run ./cmd/mayabench -quick -micro -cpuprofile "$$TMP/micro.pprof" \
	    -out "$$TMP/BENCH.json"; \
	$(GO) tool pprof -top -nodecount=10 "$$TMP/micro.pprof"

# fuzz-smoke gives each fuzz target a short budget — enough to catch
# regressions in the PRINCE round-trip, trace-parser robustness and the
# fully-associative cache's flat index (against its map-based reference)
# without stalling CI. Corpus crashers live under testdata/fuzz and
# replay in normal `go test` runs.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzEncryptDecryptRoundTrip -fuzztime=10s ./internal/prince/
	$(GO) test -run=^$$ -fuzz=FuzzReadEvents$$ -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzReadEventsRoundTrip -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/snapshot/
	$(GO) test -run=^$$ -fuzz=FuzzFAIndex -fuzztime=10s ./internal/baseline/

# ci is the tier-1 verification gate: ci.sh, the one script that runs
# every step in order (correctness first, the mayabench -compare timing
# gate last).
ci:
	sh ./ci.sh

clean:
	$(GO) clean ./...
