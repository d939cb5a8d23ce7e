#!/usr/bin/env bash
# Behaviour-identity check: run the same fixed scenario set on two builds
# and require every output to be byte-identical.  Use it to show that a
# refactor changed no simulated behaviour: build the old commit and the new
# one (each with `cmake -B <dir> -S . && cmake --build <dir>`), then
#
#   scripts/identity_check.sh <old-build-dir> <new-build-dir>
#
# The scenario set covers every arbiter variant and the fault machinery:
#  - dmx_sweep runs, each with --emit-json (dmx.run.v1 manifest) and
#    --trace-out (JSONL trace of the first run), plus stdout and exit code:
#    raw arbiter-tp, sequenced, priority order, starvation-free with and
#    without a rotating monitor, the suppress_self_broadcast ablation,
#    loss + recovery for both variants, the reliable transport, a
#    crash/restart campaign, a partition with and without the quorum guard,
#    and a 64-resource lock service;
#  - the three README dmx_trace scenarios, and a crash + restart trace with
#    its JSONL trace file;
#  - the starvation-free dmx_verify worlds;
#  - scripts/verify_smoke.sh (temporary paths normalised);
#  - the six example programs and bench/table_fairness (small request
#    budget), stdout and exit code.
#
# Exits 0 when every output matches, 1 otherwise (listing the differences).
set -u

OLD="${1:?usage: identity_check.sh <old-build-dir> <new-build-dir>}"
NEW="${2:?usage: identity_check.sh <old-build-dir> <new-build-dir>}"
HERE="$(cd "$(dirname "$0")" && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

RECOVERY=(--param recovery=1 --param token_timeout=3 --param enquiry_timeout=1
          --param arbiter_timeout=6 --param probe_timeout=1)
LOSS=(--loss REQUEST=0.05 --loss PRIVILEGE=0.02 --loss NEW-ARBITER=0.02)
BASE=(--n 10 --lambda 0.5,2.0 --requests 2000 --seeds 2)
PARTITION="t=30 partition 3,4|0,1,2,5,6,7,8,9; t=60 heal"

# sweep NAME ARGS...: one dmx_sweep scenario on $BUILD, outputs in $OUT.
sweep() {
  local name="$1"
  shift
  "$BUILD/tools/dmx_sweep" "$@" --emit-json "$OUT/$name.json" \
    --trace-out "$OUT/$name.jsonl" > "$OUT/$name.txt" 2>&1
  echo "exit $?" >> "$OUT/$name.txt"
}

run_all() {
  BUILD="$1"
  OUT="$2"
  mkdir -p "$OUT"
  sweep raw            --algo arbiter-tp "${BASE[@]}"
  sweep sequenced      --algo arbiter-tp "${BASE[@]}" --param sequenced=1 \
                       --param order=sequence
  sweep priority       --algo arbiter-tp "${BASE[@]}" --param order=priority
  sweep sf             --algo arbiter-tp-sf "${BASE[@]}" --param tau=1
  sweep sf_rotate      --algo arbiter-tp-sf "${BASE[@]}" --param tau=1 \
                       --param rotate_monitor=1
  sweep suppress       --algo arbiter-tp "${BASE[@]}" \
                       --param suppress_self_broadcast=1
  sweep loss_recovery  --algo arbiter-tp "${BASE[@]}" "${LOSS[@]}" \
                       "${RECOVERY[@]}"
  sweep sf_loss_recovery --algo arbiter-tp-sf "${BASE[@]}" "${LOSS[@]}" \
                       "${RECOVERY[@]}"
  sweep reliable       --algo arbiter-tp "${BASE[@]}" --transport reliable \
                       --loss REQUEST=0.05
  sweep crash_restart  --algo arbiter-tp --n 5 --lambda 0.3 --requests 300 \
                       --seeds 2 "${RECOVERY[@]}" \
                       --fault "t=20 crash 2; t=40 restart 2"
  sweep partition      --algo arbiter-tp --lambda 0.5 --requests 1000 \
                       --seeds 2 "${RECOVERY[@]}" --fault "$PARTITION"
  sweep partition_quorum --algo arbiter-tp --lambda 0.5 --requests 1000 \
                       --seeds 2 "${RECOVERY[@]}" --param recovery_quorum=1 \
                       --fault "$PARTITION"
  sweep lockservice    --resources 64 --zipf-s 0.9 --n 6 --lambda 2.0 \
                       --requests 4000 --batch 8 \
                       --shard-algo hot=arbiter-tp,cold=path-reversal

  local trace="$BUILD/tools/dmx_trace"
  "$trace" --n 5 --unit-times --submit 1:0 --submit 4:0.2 --submit 3:1.9 \
    > "$OUT/trace_walkthrough.txt" 2>&1
  "$trace" --n 5 --param recovery=1 --param token_timeout=2 \
    --drop PRIVILEGE --submit 1:0 --submit 2:0.1 \
    > "$OUT/trace_token_loss.txt" 2>&1
  "$trace" --n 5 --param recovery=1 --submit 1:0 --crash 1:0.35 \
    > "$OUT/trace_crash.txt" 2>&1
  "$trace" --n 5 --param recovery=1 --submit 1:0 --submit 2:0.2 \
    --crash 1:0.35 --restart 1:8 --submit 1:9 --until 60 \
    --trace-out "$OUT/trace_restart.jsonl" > "$OUT/trace_restart.txt" 2>&1

  local verify="$BUILD/tools/dmx_verify"
  "$verify" --algo arbiter-tp-sf --n 3 --param tau=1 \
    > "$OUT/verify_sf.txt" 2>&1
  "$verify" --algo arbiter-tp-sf --n 3 --param tau=1 --param recovery=1 \
    --fault "t=0 crash 2" > "$OUT/verify_sf_crash.txt" 2>&1

  "$HERE/verify_smoke.sh" "$verify" 2>&1 |
    sed -E 's#/tmp/tmp\.[A-Za-z0-9]+#<tmp>#g' > "$OUT/verify_smoke.txt"

  local example
  for example in quickstart algorithm_tour replicated_counter \
                 priority_scheduling failure_recovery_demo sharded_locks; do
    "$BUILD/examples/$example" > "$OUT/example_$example.txt" 2>&1
    echo "exit $?" >> "$OUT/example_$example.txt"
  done
  DMX_BENCH_REQUESTS=2000 DMX_BENCH_REPLICATIONS=1 \
    "$BUILD/bench/table_fairness" > "$OUT/table_fairness.txt" 2>&1
  echo "exit $?" >> "$OUT/table_fairness.txt"
}

echo "identity check: running the scenario set on $OLD"
run_all "$OLD" "$WORK/old"
echo "identity check: running the scenario set on $NEW"
run_all "$NEW" "$WORK/new"

FAILURES=0
COMPARED=0
for f in "$WORK/old"/*; do
  base="$(basename "$f")"
  COMPARED=$((COMPARED + 1))
  if cmp -s "$f" "$WORK/new/$base"; then
    echo "identical: $base"
  else
    echo "DIFFERS:   $base"
    FAILURES=$((FAILURES + 1))
  fi
done

if [ "$FAILURES" -ne 0 ]; then
  echo "identity check FAILED: $FAILURES of $COMPARED outputs differ"
  exit 1
fi
echo "identity check passed: all $COMPARED outputs byte-identical"
