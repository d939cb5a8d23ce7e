#!/usr/bin/env bash
# Bad command-line input to the three tools exits 2 before anything is
# simulated, and the message names every problem.
#
#   tests/tool_input_checks.sh <dmx_sweep> <dmx_trace> <dmx_verify>
set -u
SWEEP="$1"
TRACE="$2"
VERIFY="$3"
FAILURES=0

# expect_exit2 NAME NEEDLE... -- CMD...: CMD must exit 2 with every NEEDLE
# in its output.
expect_exit2() {
  local name="$1"
  shift
  local needles=()
  while [ "$1" != "--" ]; do
    needles+=("$1")
    shift
  done
  shift
  local out
  out="$("$@" 2>&1)"
  local code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL $name: exit $code, want 2"
    FAILURES=$((FAILURES + 1))
    return
  fi
  local needle
  for needle in "${needles[@]}"; do
    if [[ "$out" != *"$needle"* ]]; then
      echo "FAIL $name: output lacks $needle"
      FAILURES=$((FAILURES + 1))
      return
    fi
  done
  echo "ok   $name"
}

expect_exit2 sweep-plan-and-config t_exec "'t=5 crash 9'" '"PRIVILEDGE"' -- \
  "$SWEEP" --n 5 --requests 10 --seeds 1 --t-exec -1 \
  --fault "t=5 crash 9; t=6 lose-next PRIVILEDGE"
expect_exit2 verify-lose-next-from "node 7" -- \
  "$VERIFY" --n 3 --fault "t=0 lose-next PRIVILEGE from=7"
expect_exit2 trace-drop-typo PRIVILEDGE -- \
  "$TRACE" --n 3 --submit 0:1 --drop PRIVILEDGE
expect_exit2 trace-until-nan "until must be" -- \
  "$TRACE" --n 3 --submit 0:1 --until nan
expect_exit2 trace-until-negative "until must be" -- \
  "$TRACE" --n 3 --submit 0:1 --until -5

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES tool input check(s) failed"
  exit 1
fi
echo "all tool input checks passed"
