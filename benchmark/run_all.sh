#!/usr/bin/env bash
# Builds once, then runs the four workloads untraced and traced at one
# seed into one out-dir and prints their metrics.
#
#   benchmark/run_all.sh [seed] [out-dir] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
out="${2:-benchmark/out/run_all}"
seconds="${3:-10}"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/mpt-benchmark"

for trace in 0 1; do
  for workload in lenet_cpu lenet_fpga resnet_fxp_cpu serve_closed; do
    # The last two lines are the machine-readable summary and result;
    # they are kept in the out-dir.
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" --out "$out" | head -n -2
  done
done
echo "summaries and Chrome traces: $out"
