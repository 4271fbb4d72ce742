#!/usr/bin/env bash
# Builds the release binaries and the benchmark driver, then runs the
# driver. Everything after the build is `ldl-e2e-bench`'s doing:
#
#   bench/run.sh [--workload W] [--seed N] [--seconds S | --quick]
#                [--trace [0|1]] [--check-repeat]
#
# Without --workload all four workloads run. The last line of each
# workload's output is the one-line JSON result; the exit code is
# non-zero if any op failed or disagreed with the reference.
set -euo pipefail

# A relative CARGO_TARGET_DIR means "relative to where I was called".
case "${CARGO_TARGET_DIR:-}" in
    "" | /*) ;;
    *) export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "bench/run.sh: no workspace next to bench/ to build the binaries from" >&2
    exit 3
fi

# Build output goes to stderr: stdout belongs to the results.
cargo build --release --offline --quiet --bin ldl-shell --bin ldl-serve >&2
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2

exec "${CARGO_TARGET_DIR:-bench/target}/release/ldl-e2e-bench" \
    --bin-dir "${CARGO_TARGET_DIR:-target}/release" --out bench/out "$@"
