#!/usr/bin/env bash
# A/A: the same code measured as two sets of untraced runs, each set
# every workload ten times with seeds N..N+9; workload by workload, the
# sets take turns seed by seed.
# Prints, per workload and end-to-end metric, the quartile spread of
# the runs and how far the medians of the two sets differ, against the
# metric's bound in BENCHMARK.json; exits non-zero when any is outside.
#
#   benchmark/aa.sh [--seed N]        (80 runs, ~35 minutes)
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec python3 benchmark/report.py aa "$@"
