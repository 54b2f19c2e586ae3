#!/bin/sh
# ci.sh — tier-1 verification gate, equivalent to `make ci` for
# environments without make. Every step must pass.
#
# `sh ./ci.sh` runs every step in order. `sh ./ci.sh STEP...` runs only
# the named steps (build, test, vet, inline, lint, bench-module, race-vet,
# check, race-sim, race-dist, race-mc, race-serve, e2e, memo-off,
# bench-gate); the Makefile's lint, check, race and bench-module targets
# run their steps this way, so each package list lives here only.
set -eu

step_build() {
  echo "==> build"
  go build ./...
}

step_test() {
  echo "==> test"
  go test ./...
}

step_vet() {
  echo "==> vet (go vet + mayavet, all eight analyzers)"
  go vet ./...
  # Any finding fails: the repo must be clean under the full suite,
  # including the interprocedural analyzers (seedflow, snapshotfields,
  # goroutinectx, atomicmix).
  go run ./cmd/mayavet ./...
}

step_inline() {
  echo "==> inlined Monte-Carlo draws, snapshot encoders and LRU victims (go build -gcflags=-m)"
  # The bucket-and-balls kernel is fast because every draw compiles inline:
  # rng's xoshiro step (Rand.Next, and (*Rand).Uint64 built on it) and the
  # precomputed bound's accept test (Bound.Map) must stay under the
  # compiler's inlining budget, and the kernel in buckets.go must inline
  # both. Snapshot saves are fast because the encoders' fixed-width writes
  # and the record helper ((*Encoder).U8/U32/U64/Record) inline into the
  # encode loops, as in Maya's and Mirage's tag loops, which also read each
  # tag's line and SDID from the skewed store ((*Skewed).Line/SDID) inline.
  # Every core's L1D and L2 pick an LRU victim with one load of the set's
  # recency-list end, which only stays a load while (*lruPolicy).victim
  # inlines into (*SetAssoc).Access. An edit that pushes one over the
  # budget passes every test while silently costing the Monte Carlo, the
  # saves or the private caches their speed, so it fails here.
  inl=$(go build -gcflags=-m ./internal/rng ./internal/buckets ./internal/snapshot ./internal/core ./internal/mirage ./internal/baseline 2>&1)
  for want in 'rng\.go:.*can inline (\*Rand)\.Uint64$' 'rng\.go:.*can inline Rand\.Next$' \
      'rng\.go:.*can inline Bound\.Map$' 'buckets\.go:.*inlining call to rng\.Rand\.Next$' \
      'buckets\.go:.*inlining call to rng\.Bound\.Map$' \
      'codec\.go:.*can inline (\*Encoder)\.U8$' 'codec\.go:.*can inline (\*Encoder)\.U32$' \
      'codec\.go:.*can inline (\*Encoder)\.U64$' 'codec\.go:.*can inline (\*Encoder)\.Record$' \
      'core/state\.go:.*inlining call to snapshot\.(\*Encoder)\.Record$' \
      'core/state\.go:.*inlining call to probe\.(\*Skewed)\.Line$' \
      'core/state\.go:.*inlining call to probe\.(\*Skewed)\.SDID$' \
      'mirage/state\.go:.*inlining call to snapshot\.(\*Encoder)\.Record$' \
      'mirage/state\.go:.*inlining call to probe\.(\*Skewed)\.Line$' \
      'mirage/state\.go:.*inlining call to probe\.(\*Skewed)\.SDID$' \
      'baseline/baseline\.go:.*inlining call to (\*lruPolicy)\.victim$'; do
    if ! printf '%s\n' "$inl" | grep -q "$want"; then
      echo "ci: '$want' missing from the -gcflags=-m output: a draw, an encoder or the LRU victim no longer inlines" >&2; exit 1
    fi
  done
}

step_lint() {
  echo "==> gofmt + no deprecated or panic twins"
  # Every Go file outside the analyzer's fixture module must be gofmt-clean,
  # no doc comment may mark an API deprecated, and no non-test file may
  # declare an exported Must... function: an operation has one entrypoint,
  # so a replaced API is deleted, not kept beside its successor, and a
  # constructor returns its error instead of growing a panicking twin
  # (tests wrap the error in a helper that fails the test).
  unformatted=$(gofmt -l . | grep -v '^internal/vet/testdata/' || true)
  if [ -n "$unformatted" ]; then
    echo "ci: gofmt needed on:" >&2; echo "$unformatted" >&2; exit 1
  fi
  if grep -rn --include='*.go' '^[[:space:]]*// Deprecated:' . >&2; then
    echo "ci: delete the deprecated API instead of keeping it" >&2; exit 1
  fi
  if grep -rnE --include='*.go' --exclude='*_test.go' '^func (\([^)]*\) )?Must' . >&2; then
    echo "ci: return the error instead of adding a panicking Must twin" >&2; exit 1
  fi
}

step_bench_module() {
  echo "==> benchmark module (internal/bench/workload): vet + test"
  # A nested module, so the root go test ./... skips it; a removed API it
  # compiles against must fail here, not only when the benchmark runs.
  (cd internal/bench/workload && go vet ./... && go test ./...)
}

step_race_vet() {
  echo "==> race detector (mayavet parallel loader + analyzer pool)"
  go test -race ./internal/vet/ ./cmd/mayavet/
}

step_check() {
  echo "==> invariant-checked tests (-tags mayacheck)"
  # The index front cross-checks every memo hit and the skewed store audits
  # itself under this tag, so every design that uses them runs here, plus
  # the golden and memo-equivalence runs of the bench package.
  go test -tags mayacheck ./internal/core/... ./internal/mirage/... ./internal/buckets/... ./internal/cachesim/... ./internal/faults/... ./internal/ceaser/... ./internal/baseline/... ./internal/probe/... ./internal/cachemodel/...
  go test -tags mayacheck ./internal/bench -run 'TestGolden|TestMemoEquivalenceProperty'
}

step_race_sim() {
  echo "==> race detector (multi-core simulator paths)"
  go test -race ./internal/cachesim/... ./internal/core/... ./internal/experiments/... ./internal/harness/... ./internal/faults/... ./internal/snapshot/...
  # The parallel mode's batch channels again at GOMAXPROCS 1, 2 and 4:
  # the two-core test systems' workers and merge share one P, then
  # oversubscribe two, then each get their own.
  go test -race -cpu 1,2,4 -run 'Parallel|ErrSpent' ./internal/cachesim/
}

step_race_dist() {
  echo "==> race detector (distributed fabric: chaos determinism, migration, cancellation)"
  # The dist suite's chaos test byte-compares a 3-worker fabric run — with
  # an injected mid-cell SIGKILL, dropped RPCs, and stalled heartbeats —
  # against the serial harness run, under the race detector.
  go test -race ./internal/dist/
  # Again at GOMAXPROCS 1, 2 and 4: every open cell's attempt waits for a
  # worker on one channel, and the lease RPCs race its expiry timer.
  go test -race -cpu 1,2,4 ./internal/dist/
}

step_race_mc() {
  echo "==> race detector (Monte-Carlo engine: shard invariance + cancellation hammer)"
  # The mc engine's scheduling-invariance and mid-run-cancellation tests are
  # the concurrency gate for the shard-parallel paths; -short keeps the
  # sharded buckets/attack tests at CI scale.
  go test -race -short ./internal/mc/... ./internal/pprofutil/...
  go test -race -short -run 'Sharded' ./internal/buckets/
  go test -race -short -run 'Trials|MedianDistinguishWorker|ReplacementPredictabilityCtx' ./internal/attack/
}

step_race_serve() {
  echo "==> race detector + coverage (session service: admission, shedding, crash recovery)"
  # The serve suite's crash test byte-compares results across a hard-killed
  # and a recovered daemon; -cover keeps the robustness paths measured.
  go test -race -cover ./internal/serve/
}

step_e2e() {
  echo "==> e2e smoke (e2e.sh)"
  sh ./e2e.sh
}

step_memo_off() {
  echo "==> bench: memo-off golden byte-match"
  # Disabling index memoization must not move a single result bit: the
  # golden end-to-end fixtures are regenerated with the memo forced off and
  # byte-compared against the committed (memo-on) encodings.
  go test ./internal/bench -run 'TestGoldenMemoOff' -count=1
}

step_bench_gate() {
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
}

if [ "$#" -eq 0 ]; then
  set -- build test vet inline lint bench-module race-vet check race-sim \
    race-dist race-mc race-serve e2e memo-off bench-gate
  all=1
fi
for step in "$@"; do
  fn=step_$(printf '%s' "$step" | tr - _)
  if ! command -v "$fn" > /dev/null 2>&1; then
    echo "ci: unknown step '$step'" >&2; exit 2
  fi
  "$fn"
done
if [ "${all:-0}" -eq 1 ]; then
  echo "ci: all green"
fi
