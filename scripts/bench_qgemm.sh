#!/usr/bin/env bash
# Runs the criterion `qgemm` benchmark group and assembles the raw
# per-benchmark JSON lines into BENCH_qgemm.json, including the
# before/after throughput comparison for the headline configuration
# (128x96x96 fp8_fp12_sr: scalar reference kernel vs scalar-dispatch
# fast kernel vs the AVX2 and AVX-512 lane kernels vs qgemm_parallel at
# default_threads() and at one thread), plus the unfused fixed-point
# MAC (fxp44_rn / fxp44_sr) on the same two tiers against its scalar
# reference. The *_avx512 rows exist only where the host has AVX-512.
#
# The bench binary itself asserts bit-equality of every measured path
# against qgemm_reference before timing; this script then gates the
# throughput ratios:
#   * simd (AVX2) >= 1.5x over the scalar-dispatch fast kernel,
#   * simd (AVX2) >= 4.5x over the scalar reference kernel,
#   * avx512 >= 1.8x over simd (AVX2), when the row is present,
#   * qgemm_parallel at one thread within 1% of the direct kernel of
#     the tier it runs (the ambient MPT_SIMD one),
#   * fxp44_rn on the lane kernels >= 4x over its scalar reference,
#   * fxp44_rn avx512 >= 1.8x over its simd (AVX2) row, when the row
#     is present.
#
# Usage: scripts/bench_qgemm.sh [criterion-filter]
set -euo pipefail

cd "$(dirname "$0")/.."

raw=$(mktemp)
assembled=$(mktemp)
trap 'rm -f "$raw" "$assembled"' EXIT

MPT_BENCH_JSON="$raw" cargo bench -p mpt-bench --bench qgemm -- "${1:-}"

if ! grep -q . "$raw"; then
    echo "error: no benchmark matched filter '${1:-}'; BENCH_qgemm.json left untouched" >&2
    exit 1
fi

python3 - "$raw" <<'EOF' > "$assembled"
import json, os, sys

rows = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
by_id = {r["id"]: r for r in rows}

def rate(bench_id):
    r = by_id.get(bench_id)
    return r["elem_per_s"] if r else None

ref = rate("qgemm_kernels_128x96x96/fp8_fp12_sr_reference")
fast = rate("qgemm_kernels_128x96x96/fp8_fp12_sr_fast")
simd = rate("qgemm_kernels_128x96x96/fp8_fp12_sr_simd")
avx512 = rate("qgemm_kernels_128x96x96/fp8_fp12_sr_avx512")
# The qgemm_parallel rows run the ambient tier: AVX-512 where the host has it
# (the row exists) unless MPT_SIMD pins something narrower.
ambient = os.environ.get("MPT_SIMD", "auto").strip().lower()
direct = avx512 if avx512 and ambient in ("", "auto", "avx512") else simd
par = rate("qgemm_kernels_128x96x96/fp8_fp12_sr_parallel")
par_t1 = rate("qgemm_kernels_128x96x96/fp8_fp12_sr_parallel_t1")
fxp_rn = rate("qgemm_kernels_128x96x96/fxp44_rn")
fxp_sr = rate("qgemm_kernels_128x96x96/fxp44_sr")
fxp_ref = rate("qgemm_kernels_128x96x96/fxp44_rn_reference")
fxp_rn_avx512 = rate("qgemm_kernels_128x96x96/fxp44_rn_avx512")
fxp_sr_avx512 = rate("qgemm_kernels_128x96x96/fxp44_sr_avx512")

out = {
    "benchmarks": rows,
    "headline_128x96x96_fp8_fp12_sr": {
        "reference_elem_per_s": ref,
        "fast_elem_per_s": fast,
        "simd_elem_per_s": simd,
        "avx512_elem_per_s": avx512,
        "parallel_elem_per_s": par,
        "parallel_t1_elem_per_s": par_t1,
        "fast_speedup_vs_reference": (fast / ref) if ref and fast else None,
        "simd_speedup_vs_reference": (simd / ref) if ref and simd else None,
        "simd_speedup_vs_fast": (simd / fast) if fast and simd else None,
        "avx512_speedup_vs_simd": (avx512 / simd) if simd and avx512 else None,
        "parallel_speedup_vs_reference": (par / ref) if ref and par else None,
        "parallel_t1_vs_direct": (par_t1 / direct) if direct and par_t1 else None,
    },
    "fixed_point_128x96x96_fxp44": {
        "rn_elem_per_s": fxp_rn,
        "sr_elem_per_s": fxp_sr,
        "rn_avx512_elem_per_s": fxp_rn_avx512,
        "sr_avx512_elem_per_s": fxp_sr_avx512,
        "rn_reference_elem_per_s": fxp_ref,
        "rn_speedup_vs_reference": (fxp_rn / fxp_ref) if fxp_rn and fxp_ref else None,
        "rn_avx512_speedup_vs_simd": (fxp_rn_avx512 / fxp_rn) if fxp_rn and fxp_rn_avx512 else None,
    },
}
json.dump(out, sys.stdout, indent=2)
print()
EOF
mv "$assembled" BENCH_qgemm.json

echo "wrote BENCH_qgemm.json"
python3 <<'EOF'
import json, sys

bench = json.load(open("BENCH_qgemm.json"))
h = bench["headline_128x96x96_fp8_fp12_sr"]
fxp = bench["fixed_point_128x96x96_fxp44"]

if h["simd_speedup_vs_fast"]:
    print(f"headline fp8_fp12_sr: simd {h['simd_speedup_vs_reference']:.2f}x vs reference,"
          f" {h['simd_speedup_vs_fast']:.2f}x vs scalar-dispatch fast,"
          f" qgemm_parallel(t=1) at {100 * h['parallel_t1_vs_direct']:.1f}% of direct")
if h["avx512_speedup_vs_simd"]:
    print(f"avx512: fp8_fp12_sr {h['avx512_elem_per_s'] / 1e6:.0f} MMAC/s,"
          f" {h['avx512_speedup_vs_simd']:.2f}x vs simd (AVX2)")
else:
    print("avx512: no row (host without AVX-512, or filtered out)")

if fxp["rn_speedup_vs_reference"]:
    print(f"fixed point fxp44: rn {fxp['rn_elem_per_s'] / 1e6:.0f} / sr {fxp['sr_elem_per_s'] / 1e6:.0f} MMAC/s,"
          f" rn {fxp['rn_speedup_vs_reference']:.2f}x vs reference")
if fxp["rn_avx512_elem_per_s"]:
    print(f"fixed point fxp44 on avx512: rn {fxp['rn_avx512_elem_per_s'] / 1e6:.0f}"
          f" / sr {fxp['sr_avx512_elem_per_s'] / 1e6:.0f} MMAC/s,"
          f" rn {fxp['rn_avx512_speedup_vs_simd']:.2f}x vs simd (AVX2)")

failures = []
def gate(name, value, minimum):
    if value is None:
        return  # partial run (criterion filter) — nothing to gate
    if value < minimum:
        failures.append(f"{name} = {value:.3f} < required {minimum}")

gate("simd_speedup_vs_fast", h["simd_speedup_vs_fast"], 1.5)
gate("simd_speedup_vs_reference", h["simd_speedup_vs_reference"], 4.5)
gate("avx512_speedup_vs_simd", h["avx512_speedup_vs_simd"], 1.8)
# The threads==1 qgemm_parallel call takes the caller-thread fast exit, so it
# runs the very same direct kernel: anything beyond measurement noise
# (1%) is a regression in the exit path.
gate("parallel_t1_vs_direct", h["parallel_t1_vs_direct"], 0.99)
gate("fxp44_rn_speedup_vs_reference", fxp["rn_speedup_vs_reference"], 4.0)
gate("fxp44_rn_avx512_speedup_vs_simd", fxp["rn_avx512_speedup_vs_simd"], 1.8)

if failures:
    sys.exit("performance gate FAILED:\n  " + "\n  ".join(failures))
print("performance gates passed")
EOF
