#!/bin/sh
# ci.sh — tier-1 verification gate, equivalent to `make ci` for
# environments without make. Every step must pass.
set -eu

echo "==> build"
go build ./...

echo "==> test"
go test ./...

echo "==> vet (go vet + mayavet, all eight analyzers)"
go vet ./...
# Any finding fails: the repo must be clean under the full suite,
# including the interprocedural analyzers (seedflow, snapshotfields,
# goroutinectx, atomicmix).
go run ./cmd/mayavet ./...

echo "==> gofmt + no deprecated twins"
# Every Go file outside the analyzer's fixture module must be gofmt-clean,
# and no doc comment may mark an API deprecated: an operation has one
# entrypoint, so a replaced API is deleted, not kept beside its successor.
unformatted=$(gofmt -l . | grep -v '^internal/vet/testdata/' || true)
if [ -n "$unformatted" ]; then
  echo "ci: gofmt needed on:" >&2; echo "$unformatted" >&2; exit 1
fi
if grep -rn --include='*.go' '^[[:space:]]*// Deprecated:' . >&2; then
  echo "ci: delete the deprecated API instead of keeping it" >&2; exit 1
fi

echo "==> benchmark module (internal/bench/workload): vet + test"
# A nested module, so the root go test ./... skips it; a removed API it
# compiles against must fail here, not only when the benchmark runs.
(cd internal/bench/workload && go vet ./... && go test ./...)

echo "==> race detector (mayavet parallel loader + analyzer pool)"
go test -race ./internal/vet/ ./cmd/mayavet/

echo "==> invariant-checked tests (-tags mayacheck)"
# The index front cross-checks every memo hit and the skewed store audits
# itself under this tag, so every design that uses them runs here, plus
# the golden and memo-equivalence runs of the bench package.
go test -tags mayacheck ./internal/core/... ./internal/mirage/... ./internal/buckets/... ./internal/cachesim/... ./internal/faults/... ./internal/ceaser/... ./internal/baseline/... ./internal/probe/... ./internal/cachemodel/...
go test -tags mayacheck ./internal/bench -run 'TestGolden|TestMemoEquivalenceProperty'

echo "==> race detector (multi-core simulator paths)"
go test -race ./internal/cachesim/... ./internal/core/... ./internal/experiments/... ./internal/harness/... ./internal/faults/... ./internal/snapshot/...

echo "==> race detector (distributed fabric: chaos determinism, migration, cancellation)"
# The dist suite's chaos test byte-compares a 3-worker fabric run — with
# an injected mid-cell SIGKILL, dropped RPCs, and stalled heartbeats —
# against the serial harness run, under the race detector.
go test -race ./internal/dist/

echo "==> race detector (Monte-Carlo engine: shard invariance + cancellation hammer)"
# The mc engine's scheduling-invariance and mid-run-cancellation tests are
# the concurrency gate for the shard-parallel paths; -short keeps the
# sharded buckets/attack tests at CI scale.
go test -race -short ./internal/mc/... ./internal/pprofutil/...
go test -race -short -run 'Sharded' ./internal/buckets/
go test -race -short -run 'Trials|MedianDistinguishWorker|EvictionSetTrials|ReplacementPredictabilityCtx' ./internal/attack/

echo "==> race detector + coverage (session service: admission, shedding, crash recovery)"
# The serve suite's crash test byte-compares results across a hard-killed
# and a recovered daemon; -cover keeps the robustness paths measured.
go test -race -cover ./internal/serve/

echo "==> e2e smoke (e2e.sh)"
sh ./e2e.sh

echo "==> bench: memo-off golden byte-match"
# Disabling index memoization must not move a single result bit: the
# golden end-to-end fixtures are regenerated with the memo forced off and
# byte-compared against the committed (memo-on) encodings.
go test ./internal/bench -run 'TestGoldenMemoOff' -count=1

echo "==> bench: continuous benchmark suite (quick) + regression gate"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
# The quick suite doubles as a smoke test of the bench pipeline itself:
# it must build every design through the registry, run the pinned micro
# workloads (an xor-hasher row per design, a real-hash row per randomized
# design) and macro workloads (serial and parallel rows per design), emit
# a parseable BENCH.json, and hold every micro and macro row within 10%
# of the committed baseline (ci-bench-baseline.json) after normalizing
# out the run-wide machine-speed factor, so shared-runner noise does not
# flake the gate (regenerate the baseline with
# `go run ./cmd/mayabench -quick -out ci-bench-baseline.json` after an
# intentional perf change); a tier none of whose rows matches the
# baseline fails. Serve and Monte-Carlo cost are measured by the
# benchmark of record's serve-closed and secmc workloads
# (internal/bench/workload/run.sh), not here. mayabench writes the report
# before it compares, so the pipeline checks run first and the gate's
# exit status applies last: a timing failure never hides a correctness
# one.
gate=0
go run ./cmd/mayabench -quick -out "$TMP/BENCH.json" -compare ci-bench-baseline.json || gate=$?
test -s "$TMP/BENCH.json"
grep -q '"parallelism"' "$TMP/BENCH.json"
# The real-hash micro tier must report memo telemetry: a memoized row with
# no hit-rate field means the memo silently disabled itself.
grep -q '"real_hash"' "$TMP/BENCH.json"
grep -q '"memo_hit_rate"' "$TMP/BENCH.json"
if [ "$gate" -ne 0 ]; then
  echo "ci: mayabench -compare regression gate failed (exit $gate)" >&2; exit "$gate"
fi

echo "ci: all green"
