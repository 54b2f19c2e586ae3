# Maya cache reproduction — build/verify targets.
#
# `make ci` is the tier-1 gate: everything a PR must keep green. The lint,
# bench-module, check and race targets run ci.sh's steps of the same
# names, so their package lists live in ci.sh only (those steps call `go`
# from PATH, not $(GO)).

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
# module, on any `// Deprecated:` doc comment, and on any exported Must...
# function in a non-test file: an operation has one entrypoint, so a
# replaced API is deleted, not kept beside its successor, and no
# constructor has a panicking twin.
lint:
	sh ./ci.sh lint

# bench-module vets and tests the benchmark's nested module, which the
# root `go test ./...` skips, so an API it compiles against cannot be
# removed unnoticed.
bench-module:
	sh ./ci.sh bench-module

# check re-runs the suite with the mayacheck build tag: the hot cache
# structures self-verify their FPTR/RPTR bijection, occupancy conservation,
# and ball-count invariants on every run, the index front cross-checks
# every memo hit, and the fault-injection tests prove the audits fire on
# corrupted tag stores.
check:
	sh ./ci.sh check

# race runs the race detector over the multi-core simulator paths, the
# concurrent sweep harness, and the shard-parallel Monte-Carlo engine
# (scheduling-invariance and mid-run cancellation hammers; -short keeps
# the sharded model/attack tests at CI scale).
race:
	sh ./ci.sh race-sim race-dist race-serve race-vet race-mc

# e2e exercises the CLIs end to end through e2e.sh, the same script
# ci.sh runs: mayasim fault isolation, checkpoint resume, a checkpoint
# shared across experiments and SIGKILL-mid-ROI snapshot resume
# (byte-identical tables), securitysim
# shard invariance and flag validation, attacksim worker invariance and
# flag validation, the mayafleet chaos fabric, retry exhaustion and flag
# misuse, and the mayaserve session daemon's kill -9 recovery
# (byte-identical results) and 429 load shedding. The script runs under
# `set -eu`, so any failed check fails the target.
e2e:
	sh ./e2e.sh

# bench runs the continuous benchmark suite in quick mode and writes
# BENCH.json: per-design LLC access-path microbenchmarks (ns/access,
# allocs/access, B/access, memo hit rate) and a 4-core macro mix
# (events/sec, one row per design). The workloads are pinned and
# seed-deterministic, so comparing BENCH.json across commits on the same
# machine tracks simulator performance. Serve and Monte-Carlo cost are
# the benchmark of record's serve-closed and secmc workloads
# (internal/bench/workload/run.sh). Drop -quick for the full-length suite.
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
# regressions in the PRINCE round-trip, snapshot-decoder robustness, the
# fully-associative cache's flat index (against its map-based reference)
# and the LRU recency list (against the stamp scan) without stalling CI.
# Corpus crashers live under testdata/fuzz and replay in normal `go test`
# runs.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzEncryptDecryptRoundTrip -fuzztime=10s ./internal/prince/
	$(GO) test -run=^$$ -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/snapshot/
	$(GO) test -run=^$$ -fuzz=FuzzFAIndex -fuzztime=10s ./internal/baseline/
	$(GO) test -run=^$$ -fuzz=FuzzLRUList -fuzztime=10s ./internal/baseline/

# ci is the tier-1 verification gate: ci.sh, the one script that runs
# every step in order (correctness first, the mayabench -compare timing
# gate last).
ci:
	sh ./ci.sh

clean:
	$(GO) clean ./...
