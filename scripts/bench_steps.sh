#!/usr/bin/env bash
# Runs the step/request benchmark (`benchmark/`, BENCHMARK.json)
# untraced over seeds 1..SEEDS and appends one record to
# BENCH_steps.json: the commit, the host facts and, for each
# (workload, MPT_SIMD tier), the median and quartiles of units_per_s,
# unit_ms_p50 and peak_rss_mb over the seeds. `lenet_cpu` and
# `resnet_fxp_cpu` run under MPT_SIMD=off, avx2 and auto (the tier
# order rotates every seed); `lenet_fpga` and `serve_closed` at auto.
#
# Then it gates the record: every run passed its correctness checks,
# and each tier speed-up below, the median over seeds of the per-seed
# ratio of units_per_s, is at least its threshold (a gate whose wider
# tier the host lacks is skipped):
#   * lenet_cpu       avx2 / off   (AVX2 lane nest over the scalar nest)
#   * lenet_cpu       auto / avx2  (AVX-512 over AVX2)
#   * resnet_fxp_cpu  avx2 / off
#   * resnet_fxp_cpu  auto / avx2
#
# Usage: scripts/bench_steps.sh   (about 15 minutes on a 2-core host)
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=10       # seeds 1..SEEDS, one run of each (workload, tier) per seed
RUN_SECONDS=10 # --seconds of every run

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/mpt-benchmark"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() { # tier workload seed
    echo "seed $3: $2 at MPT_SIMD=$1"
    MPT_SIMD="$1" "$bin" --workload "$2" --seed "$3" --seconds "$RUN_SECONDS" \
        --trace 0 --out "$out/$1" >/dev/null
}

tiers=(off avx2 auto)
for seed in $(seq 1 "$SEEDS"); do
    for i in 0 1 2; do
        tier=${tiers[$(((seed + i) % 3))]}
        run "$tier" lenet_cpu "$seed"
        run "$tier" resnet_fxp_cpu "$seed"
    done
    run auto lenet_fpga "$seed"
    run auto serve_closed "$seed"
done

python3 - "$out" "$(git rev-parse HEAD)" "$SEEDS" "$RUN_SECONDS" <<'EOF'
import json, os, statistics, sys

out, commit, seeds, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
runs = {}  # (workload, tier) -> summaries in seed order
for tier in sorted(os.listdir(out)):
    for name in sorted(os.listdir(os.path.join(out, tier))):
        s = json.load(open(os.path.join(out, tier, name)))
        runs.setdefault((s["workload"], tier), []).append(s)

def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"median": med, "q1": q1, "q3": q3}

def one(values, what):
    if len(set(values)) != 1:
        sys.exit(f"runs disagree on {what}: {sorted(set(values))}")
    return values[0]

every = [s for ss in runs.values() for s in ss]
record = {
    "commit": commit,
    "seeds": seeds,
    "seconds": seconds,
    "host": {
        "host_cores": one([s["facts"]["host_cores"] for s in every], "host_cores"),
        "simd_tier": one([s["facts"]["simd_tier"] for s in runs[("lenet_cpu", "auto")]], "simd_tier"),
        "host_slowdown": spread([s["facts"]["host_slowdown"] for s in every if "host_slowdown" in s["facts"]]),
    },
    "rows": [],
    "ratios": {},
}
for (workload, tier), ss in sorted(runs.items()):
    row = {"workload": workload, "tier": tier, "runs": len(ss),
           "simd_tier": one([s["facts"]["simd_tier"] for s in ss], f"{workload} {tier} simd_tier"),
           "correct": all(s["correct"] and s["failed"] == 0 for s in ss)}
    for metric in ("units_per_s", "unit_ms_p50", "peak_rss_mb"):
        row[metric] = spread([s["metrics"][metric]["value"] for s in ss])
    record["rows"].append(row)
for workload in ("lenet_cpu", "resnet_fxp_cpu"):
    for wide, narrow in (("avx2", "off"), ("auto", "avx2")):
        ups = {t: {s["seed"]: s["metrics"]["units_per_s"]["value"] for s in runs[(workload, t)]}
               for t in (wide, narrow)}
        per_seed = [ups[wide][k] / ups[narrow][k] for k in sorted(ups[wide])]
        record["ratios"][f"{workload} {wide}/{narrow}"] = {
            "per_seed": per_seed, "median": statistics.median(per_seed), "min": min(per_seed)}

path = "BENCH_steps.json"
records = json.load(open(path)) if os.path.exists(path) else []
records.append(record)
with open(path + ".tmp", "w") as f:
    json.dump(records, f, indent=1)
    f.write("\n")
os.replace(path + ".tmp", path)
print(f"appended record {len(records)} to {path}")
EOF

python3 <<'EOF'
import json, sys

record = json.load(open("BENCH_steps.json"))[-1]
rows = {(r["workload"], r["tier"]): r for r in record["rows"]}
for r in record["rows"]:
    print(f"{r['workload']:>14} {r['tier'] + ' (' + r['simd_tier'] + ')':<13}"
          f" {r['units_per_s']['median']:8.1f} units/s,"
          f" p50 {r['unit_ms_p50']['median']:7.2f} ms, {r['peak_rss_mb']['median']:5.1f} MiB")

# Each threshold is this gate's lowest per-seed ratio in the first
# record (2-vCPU AVX-512 host), rounded down to one decimal, never
# below 1.0.
GATES = {
    "lenet_cpu avx2/off": 3.9,
    "lenet_cpu auto/avx2": 1.7,
    "resnet_fxp_cpu avx2/off": 4.4,
    "resnet_fxp_cpu auto/avx2": 1.3,
}
failures = [f"{w} {t}: a run failed its checks" for (w, t), r in rows.items() if not r["correct"]]
for name, minimum in GATES.items():
    workload, pair = name.split()
    wide = pair.split("/")[0]
    needed = "avx512" if wide == "auto" else wide
    if rows[(workload, wide)]["simd_tier"] != needed:
        print(f"{name}: skipped, the host has no {needed}")
        continue
    ratio = record["ratios"][name]
    print(f"{name}: median {ratio['median']:.3f}x, lowest {ratio['min']:.3f}x (gate >= {minimum})")
    if ratio["median"] < minimum:
        failures.append(f"{name} = {ratio['median']:.3f} < required {minimum}")
if failures:
    sys.exit("step gate FAILED:\n  " + "\n  ".join(failures))
print("step gates passed")
EOF
