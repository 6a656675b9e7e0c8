#!/usr/bin/env bash
# The whole benchmark, once: builds the package offline, runs the four
# workloads untraced (end-to-end metrics) and then traced (per-layer
# metrics and benchmark/out/trace-<workload>.json), prints every metric
# by name with its unit and bound, and writes benchmark/out/results.json.
#
#   benchmark/run.sh [--seed N]
#
# Wall time on the recorded host (2 cores): ~30 s to build from nothing,
# then 8 runs of 12-28 s: about 3 minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec python3 benchmark/report.py run "$@"
