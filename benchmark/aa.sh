#!/usr/bin/env bash
# The A/A protocol: two sets of runs of the same build, every workload,
# one seed per run (as the PR driver does), then `compare`.
#
#   benchmark/aa.sh [runs-per-set] [out-dir] [seconds]
#
# Writes <out-dir>/a, <out-dir>/b and <out-dir>/compare.md. NOISE.md
# records the numbers the committed bounds were taken from.
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-10}"
out="${2:-benchmark/out/aa}"
seconds="${3:-10}"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/mpt-benchmark"

for set in a b; do
  for workload in lenet_cpu lenet_fpga resnet_fxp_cpu serve_closed; do
    for seed in $(seq 1 "$runs"); do
      "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 --out "$out/$set" >/dev/null
    done
  done
done
# A non-zero exit here means the benchmark does not repeat within its
# own bounds on this host.
"$bin" compare "$out/a" "$out/b" | tee "$out/compare.md"
