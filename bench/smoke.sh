#!/usr/bin/env bash
# Offline smoke test of the benchmark, under a minute once built: every
# workload for 3 s, untraced, plus a check that BENCHMARK.json still
# says what the driver's metric tables say. Exits non-zero on any failed
# op, any answer that disagrees with the reference, or drift between
# the two. A later PR can call this from scripts/ci.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
bench/run.sh --quick
bench/run.sh --describe | diff -u BENCHMARK.json -
echo "bench smoke: ok"
