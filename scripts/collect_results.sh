#!/usr/bin/env bash
# Regenerates the fast experiments and appends every table/figure to
# EXPERIMENTS.md's "Measured outputs" section. The slow accuracy
# experiments (table2/fig6) are read from files if present
# ($TABLE2_LOG / $FIG6_LOG), otherwise rerun at quick scale.
#
# Afterwards: runs an instrumented FPGA LeNet training pass and
# renders RESULTS.md from its event log via mpt-report. Wall-clock
# evidence is not collected here: it comes from the step/request
# benchmark (BENCHMARK.json, `benchmark/run_all.sh`).
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp)
{
  for bin in table1_features table3_configs table4_latency \
             fig7_est_vs_measured sr_random_bits ablation_multisa \
             ablation_mapping ablation_fma; do
    echo "### \`$bin\`"
    echo '```text'
    ./target/release/$bin
    echo '```'
    echo
  done
  echo "### \`table2_cnn_accuracy\`"
  echo '```text'
  cat "${TABLE2_LOG:-/tmp/table2_final.log}" 2>/dev/null \
    || MPT_SCALE=quick ./target/release/table2_cnn_accuracy
  echo '```'
  echo
  echo "### \`fig6_nanogpt_loss\`"
  echo '```text'
  cat "${FIG6_LOG:-/tmp/fig6_final.log}" 2>/dev/null \
    || MPT_SCALE=quick ./target/release/fig6_nanogpt_loss
  echo '```'
} > "$out"

# Replace everything after the "## Measured outputs" marker.
python3 - "$out" <<'EOF'
import sys
payload = open(sys.argv[1]).read()
path = 'EXPERIMENTS.md'
text = open(path).read()
marker = '## Measured outputs'
head = text.split(marker)[0]
open(path, 'w').write(head + marker + '\n\n' + payload)
EOF
echo "EXPERIMENTS.md updated"

# Profiling report: instrumented FPGA LeNet run -> RESULTS.md, plus the
# Chrome trace rendered from the same event log.
# Missing optional inputs only skip their section, so this also works
# on serving-only runs.
MPT_TELEMETRY_JSONL=/tmp/mpt_report_run.jsonl \
  ./target/release/examples/train_lenet_fp8 --backend fpga > /dev/null
./target/release/mpt-report --jsonl /tmp/mpt_report_run.jsonl \
  --trace-out /tmp/mpt_report_run.trace.json --out RESULTS.md
./target/release/mpt-report --validate-trace /tmp/mpt_report_run.trace.json \
  --require-stage-tracks 4
echo "RESULTS.md updated"
