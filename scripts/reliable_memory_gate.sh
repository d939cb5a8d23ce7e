#!/usr/bin/env bash
# Reliable-transport memory gate: arbiter-tp at N = 1000 over
# --transport reliable (the perfbench arbiter-1k-reliable point), where
# nearly every ordered pair of endpoints holds per-peer state because every
# node takes a turn as the broadcasting arbiter.  Fails when the run's peak
# RSS exceeds the bound (the dense per-peer layout measures ~175 MB; the
# std::deque + std::map layout it replaced measured 689 MB) or when its
# deterministic standalone-ack count moves.  Gates on a count and on
# memory, never on wall time.
#
# Usage: scripts/reliable_memory_gate.sh <path-to-dmx_sweep>
set -euo pipefail

SWEEP="${1:?usage: reliable_memory_gate.sh <path-to-dmx_sweep>}"

python3 - "$SWEEP" <<'PY'
import resource
import subprocess
import sys

MAX_RSS_MB = 350
ACKS = 2055736

cmd = [sys.argv[1], "--algo", "arbiter-tp", "--n", "1000", "--lambda", "0.02",
       "--requests", "2000", "--seeds", "1", "--transport", "reliable"]
out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
sys.stdout.write(out)

lines = out.splitlines()
header = next(i for i, l in enumerate(lines) if l.split()[:1] == ["lambda"])
assert lines[header].split()[-1] == "acks", lines[header]
acks = int(lines[header + 2].split()[-1])
rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

print(f"acks {acks} (pinned {ACKS}); peak RSS {rss_mb:.1f} MB "
      f"(bound {MAX_RSS_MB} MB)")
failed = False
if acks != ACKS:
    print(f"FAIL: acks {acks} != {ACKS}")
    failed = True
if rss_mb > MAX_RSS_MB:
    print(f"FAIL: peak RSS {rss_mb:.1f} MB > {MAX_RSS_MB} MB")
    failed = True
sys.exit(1 if failed else 0)
PY
