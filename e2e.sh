#!/bin/sh
# e2e.sh — end-to-end smoke of the CLIs, run by ci.sh and `make e2e`:
# mayasim fault isolation, checkpoint resume (byte-identical tables),
# simulations shared across experiments through one checkpoint, and
# SIGKILL-mid-ROI snapshot resume; shard-parallel securitysim byte
# compatibility and flag validation; attacksim worker invariance and flag
# validation; the mayafleet chaos fabric, retry exhaustion (the same
# FAILED rows from serial and coordinate) and flag misuse; and the
# mayaserve session daemon's kill -9 recovery (every acknowledged
# session completes with byte-identical results) and 429 load shedding.
# Every check must pass.
set -eu

echo "==> e2e: fault isolation + checkpoint resume (mayasim)"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/mayasim" ./cmd/mayasim
# A sweep whose cores=8 simulations (baseline and Maya) panic must
# complete the others, render the failed row, and exit nonzero.
if "$TMP/mayasim" -experiment cores -warmup 60000 -roi 30000 -workers 1 \
    -checkpoint "$TMP/ck.jsonl" -fault panic:cores=8 \
    > "$TMP/fault.out" 2> "$TMP/fault.err"; then
  echo "ci: fault-injected sweep exited zero" >&2; exit 1
fi
grep -q FAILED "$TMP/fault.out"
grep -q "FAILURE SUMMARY" "$TMP/fault.err"
# Rerunning with the checkpoint (fault removed) must recompute only the
# missing simulations and render byte-identical tables to an
# uninterrupted run.
"$TMP/mayasim" -experiment cores -warmup 60000 -roi 30000 -workers 1 \
    -checkpoint "$TMP/ck.jsonl" > "$TMP/resume.out"
"$TMP/mayasim" -experiment cores -warmup 60000 -roi 30000 -workers 1 \
    > "$TMP/fresh.out"
cmp "$TMP/resume.out" "$TMP/fresh.out"

echo "==> e2e: simulations shared across experiments (mayasim)"
# Table XI's baselines and alone runs are Fig 9's simulations. A checkpoint
# written by fig9 must serve them to a later table11 run, which then adds
# only its 45 partitioned runs to the 80 fig9 records, and must print the
# same Table XI as a fresh run.
"$TMP/mayasim" -experiment fig9 -warmup 20000 -roi 10000 \
    -checkpoint "$TMP/share.ckpt" > /dev/null
"$TMP/mayasim" -experiment table11 -warmup 20000 -roi 10000 \
    -checkpoint "$TMP/share.ckpt" > "$TMP/share.out"
"$TMP/mayasim" -experiment table11 -warmup 20000 -roi 10000 > "$TMP/share-fresh.out"
cmp "$TMP/share.out" "$TMP/share-fresh.out"
records=$(grep -c '"key"' "$TMP/share.ckpt")
if [ "$records" -ne 125 ]; then
  echo "ci: fig9 + table11 checkpoint holds $records simulations, want 125 (shared runs recomputed?)" >&2; exit 1
fi

echo "==> e2e: SIGKILL mid-ROI + snapshot resume (mayasim)"
# The killsnap injector SIGKILLs the process after the 4th durable state
# save of the first cores=16 simulation — mid-ROI, with no unwind or
# cleanup. The rerun must restore the interrupted simulation's exact
# state from its snapshot and render tables byte-identical to the
# uninterrupted run.
if "$TMP/mayasim" -experiment cores -warmup 60000 -roi 30000 -workers 1 \
    -checkpoint "$TMP/kill.ckpt" -snapshot-dir "$TMP/snaps" -snapshot-every 4096 \
    -fault killsnap:cores=16:4 > "$TMP/kill.out" 2> "$TMP/kill.err"; then
  echo "ci: killsnap run survived its own SIGKILL" >&2; exit 1
fi
test -n "$(ls "$TMP/snaps")"  # a mid-run cell snapshot is durable
"$TMP/mayasim" -experiment cores -warmup 60000 -roi 30000 -workers 1 \
    -checkpoint "$TMP/kill.ckpt" -snapshot-dir "$TMP/snaps" > "$TMP/killresume.out"
cmp "$TMP/killresume.out" "$TMP/fresh.out"
test -z "$(ls "$TMP/snaps")"  # completed simulations discard their snapshots

echo "==> e2e: shard-parallel securitysim (byte-compat + worker invariance + flag validation)"
go build -o "$TMP/securitysim" ./cmd/securitysim
# -shards 1 is the historical serial run; any worker count at a fixed
# shard count must render byte-identical tables (scheduling never changes
# a statistic).
"$TMP/securitysim" -experiment all -buckets 512 -iters 200000 -seed 5 \
    -shards 1 -workers 1 -progress off > "$TMP/sec1.out"
"$TMP/securitysim" -experiment all -buckets 512 -iters 200000 -seed 5 \
    -shards 1 -workers 4 -progress off > "$TMP/sec1w4.out"
cmp "$TMP/sec1.out" "$TMP/sec1w4.out"
"$TMP/securitysim" -experiment fig6 -buckets 512 -iters 200000 -seed 5 \
    -shards 8 -workers 2 -progress off > "$TMP/sec8a.out"
"$TMP/securitysim" -experiment fig6 -buckets 512 -iters 200000 -seed 5 \
    -shards 8 -workers 7 -progress off > "$TMP/sec8b.out"
cmp "$TMP/sec8a.out" "$TMP/sec8b.out"
# Flag misuse must exit 2 before any simulation runs.
for bad in "-iters 0" "-shards 0" "-shards -2" "-workers 0" "-experiment fig99" "-experiment fig7 -iters 100"; do
  status=0
  "$TMP/securitysim" $bad > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "ci: securitysim '$bad' exited $status, want 2" >&2; exit 1
  fi
done

echo "==> e2e: Fig 8 occupancy attack (attacksim worker invariance + flag validation)"
go build -o "$TMP/attacksim" ./cmd/attacksim
# Trials carry their own seeds, so the pool width never changes a median:
# two workers must render the serial run's table byte for byte.
"$TMP/attacksim" -experiment fig8 -runs 2 -max 600 -workers 1 > "$TMP/fig8w1.out"
"$TMP/attacksim" -experiment fig8 -runs 2 -max 600 -workers 2 > "$TMP/fig8w2.out"
cmp "$TMP/fig8w1.out" "$TMP/fig8w2.out"
# Flag misuse must exit 2 before any simulation runs.
for bad in "-max 0" "-runs 0" "-runs -1" "-noise -1" "-sets 0" "-sets 1" \
    "-sets 3" "-sets -64" "-workers 0" "-experiment fig99"; do
  status=0
  "$TMP/attacksim" $bad > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "ci: attacksim '$bad' exited $status, want 2" >&2; exit 1
  fi
done

echo "==> e2e: distributed sweep fabric chaos smoke (mayafleet)"
go build -o "$TMP/mayafleet" ./cmd/mayafleet
# Reference: the serial harness run of a small grid.
"$TMP/mayafleet" serial -benches mcf,lbm -cores 2 -warmup 30000 -roi 15000 \
    -seeds 2 > "$TMP/fleet-serial.tsv"
# Chaos: a coordinator with 3 in-process workers; whichever worker
# reaches the 2nd durable save of a bench=mcf cell is killed mid-cell
# (lease expires, the cell migrates and resumes from the uploaded
# snapshot blob), other workers drop RPCs and stall heartbeats. The
# report must still byte-match the serial run.
"$TMP/mayafleet" coordinate -inproc 3 -benches mcf,lbm -cores 2 \
    -warmup 30000 -roi 15000 -seeds 2 -lease 2s -heartbeat 100ms \
    -snapshot-every 4096 -fault distkill:bench=mcf:2 \
    -fault distdrop:bench=lbm:1 -fault distdelay:bench=:5ms \
    > "$TMP/fleet-chaos.tsv" 2> "$TMP/fleet-chaos.err"
cmp "$TMP/fleet-serial.tsv" "$TMP/fleet-chaos.tsv"
grep -q "injected kill" "$TMP/fleet-chaos.err"   # the kill really fired
grep -q "migrating cell" "$TMP/fleet-chaos.err"  # and the cell migrated
# A cell that exhausts its retry budget must become a structured FAILED
# row and exit 1 — never a hang or a panic.
status=0
"$TMP/mayafleet" coordinate -inproc 2 -benches mcf,lbm -cores 2 \
    -warmup 30000 -roi 15000 -retries 1 -fault transient:bench=mcf:100 \
    > "$TMP/fleet-failed.tsv" 2>/dev/null || status=$?
if [ "$status" -ne 1 ]; then
  echo "ci: mayafleet exhausted-retry run exited $status, want 1" >&2; exit 1
fi
grep -q "FAILED" "$TMP/fleet-failed.tsv"
grep -q "retry budget exhausted" "$TMP/fleet-failed.tsv"
# The serial harness fails the same grid with the same rows, byte for
# byte: both paths run one harness sweep and render one report.
status=0
"$TMP/mayafleet" serial -benches mcf,lbm -cores 2 \
    -warmup 30000 -roi 15000 -retries 1 -fault transient:bench=mcf:100 \
    > "$TMP/fleet-failed-serial.tsv" 2>/dev/null || status=$?
if [ "$status" -ne 1 ]; then
  echo "ci: mayafleet serial exhausted-retry run exited $status, want 1" >&2; exit 1
fi
cmp "$TMP/fleet-failed-serial.tsv" "$TMP/fleet-failed.tsv"
# Flag misuse must exit 2 before any simulation runs.
for bad in "coordinate -inproc 2 -designs Bogus" "coordinate" "work"; do
  status=0
  "$TMP/mayafleet" $bad > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "ci: mayafleet '$bad' exited $status, want 2" >&2; exit 1
  fi
done

echo "==> e2e: session service kill -9 recovery + load shedding (mayaserve)"
go build -o "$TMP/mayaserve" ./cmd/mayaserve
# wait_addr polls the atomically written -addr-file until the daemon is up.
wait_addr() {
  i=0
  while [ ! -s "$1" ]; do
    i=$((i+1))
    if [ "$i" -gt 100 ]; then echo "ci: mayaserve never bound" >&2; exit 1; fi
    sleep 0.1
  done
}
# cells_empty fails when a session's cell file, or the temp file of a
# cell write, outlived the session: call it once every session is done.
cells_empty() {
  if [ -n "$(ls -A "$1/cells")" ]; then
    echo "ci: $1/cells is not empty once every session is done:" >&2
    ls -A "$1/cells" >&2
    exit 1
  fi
}
# Reference: a clean daemon computes three tenant sessions; results are
# captured and the daemon drains on SIGTERM (exit 0).
"$TMP/mayaserve" serve -data-dir "$TMP/serve-ref" -addr-file "$TMP/serve.addr" \
    -pid-file "$TMP/serve.pid" -workers 3 -snapshot-every 4096 \
    2> "$TMP/serve-ref.err" &
SRV=$!
wait_addr "$TMP/serve.addr"
ADDR=$(cat "$TMP/serve.addr")
: > "$TMP/serve.ids"
for tenant in acme beta acme; do
  "$TMP/mayaserve" submit -addr "$ADDR" -tenant "$tenant" -cores 1 \
      -warmup 20000 -roi 40000 -seed 7 >> "$TMP/serve.ids"
done
"$TMP/mayaserve" wait -addr "$ADDR" -timeout 120s $(cat "$TMP/serve.ids") 2>/dev/null
while read -r id; do
  "$TMP/mayaserve" result -addr "$ADDR" "$id" > "$TMP/serve-ref-$id.json"
done < "$TMP/serve.ids"
kill -TERM "$SRV"
status=0; wait "$SRV" || status=$?
if [ "$status" -ne 0 ]; then
  echo "ci: mayaserve graceful drain exited $status, want 0" >&2; exit 1
fi
cells_empty "$TMP/serve-ref"
# Chaos: the same three sessions, but the daemon SIGKILLs itself at the
# 2nd durable save of session s000003 — mid-ROI, no unwind. The restarted
# daemon must recover every unfinished session from the fsync'd journal,
# resume from durable snapshots, and produce byte-identical results.
"$TMP/mayaserve" serve -data-dir "$TMP/serve-chaos" -addr-file "$TMP/serve.addr2" \
    -workers 3 -snapshot-every 4096 -fault killsnap:s000003:2 \
    2> "$TMP/serve-chaos.err" &
SRV=$!
wait_addr "$TMP/serve.addr2"
ADDR=$(cat "$TMP/serve.addr2")
: > "$TMP/serve.ids2"
for tenant in acme beta acme; do
  "$TMP/mayaserve" submit -addr "$ADDR" -tenant "$tenant" -cores 1 \
      -warmup 20000 -roi 40000 -seed 7 >> "$TMP/serve.ids2"
done
status=0; wait "$SRV" || status=$?
if [ "$status" -ne 137 ]; then
  echo "ci: killsnap daemon exited $status, want 137 (SIGKILL)" >&2; exit 1
fi
cmp "$TMP/serve.ids" "$TMP/serve.ids2"  # all three were acknowledged pre-kill
"$TMP/mayaserve" serve -data-dir "$TMP/serve-chaos" -addr-file "$TMP/serve.addr3" \
    -pid-file "$TMP/serve.pid" -workers 3 -snapshot-every 4096 \
    2> "$TMP/serve-recover.err" &
SRV=$!
wait_addr "$TMP/serve.addr3"
ADDR=$(cat "$TMP/serve.addr3")
grep -q "recovered" "$TMP/serve-recover.err"
"$TMP/mayaserve" wait -addr "$ADDR" -timeout 120s $(cat "$TMP/serve.ids2") 2>/dev/null
while read -r id; do
  "$TMP/mayaserve" result -addr "$ADDR" "$id" > "$TMP/serve-got-$id.json"
  cmp "$TMP/serve-ref-$id.json" "$TMP/serve-got-$id.json"
done < "$TMP/serve.ids2"
kill -TERM "$SRV"; wait "$SRV" || true
cells_empty "$TMP/serve-chaos"
# Load shedding: one worker pinned by a slow tenant behind tight quotas;
# the burst's tail must get HTTP 429 with a Retry-After hint.
"$TMP/mayaserve" serve -data-dir "$TMP/serve-shed" -addr-file "$TMP/serve.addr4" \
    -workers 1 -tenant-queued 1 -global-queued 2 \
    -fault slowtenant:hog:60s 2> "$TMP/serve-shed.err" &
SRV=$!
wait_addr "$TMP/serve.addr4"
ADDR=$(cat "$TMP/serve.addr4")
spec='{"tenant":"hog","design":"Maya","bench":"mcf","cores":1,"warmup":20000,"roi":40000,"seed":7}'
shed=0
for i in 1 2 3 4; do
  code=$(curl -s -o "$TMP/shed.body" -w '%{http_code}' -D "$TMP/shed.hdr" \
      -H 'Content-Type: application/json' -d "$spec" "http://$ADDR/v1/sessions")
  if [ "$code" = "429" ]; then
    shed=1
    grep -qi '^retry-after:' "$TMP/shed.hdr"
    grep -q 'retry_after_ms' "$TMP/shed.body"
  fi
done
if [ "$shed" -ne 1 ]; then
  echo "ci: overloaded mayaserve never shed with 429" >&2; exit 1
fi
kill -9 "$SRV"; wait "$SRV" 2>/dev/null || true

echo "e2e: all green"
