//! Host facts and CPU pinning.
//!
//! This host's noise is additive, bursty and hypervisor-level, and a
//! second GEMM thread buys ~1.1x at LeNet sizes while tripling the
//! spread. Every workload therefore runs its compute on one CPU: the
//! launcher re-executes itself under `taskset` and the re-executed
//! process records the affinity it actually observes.

use std::process::Command;

/// Marks the re-executed (measuring) process.
const CHILD_ENV: &str = "MPT_BENCH_CHILD";

/// Value of a `/proc/self/status` field, e.g. `VmHWM` or
/// `Cpus_allowed_list`.
fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k == field).then(|| v.trim().to_string())
    })
}

/// Parses a kernel CPU list such as `0-3,6`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
                    cpus.extend(lo..=hi);
                }
            }
            None => cpus.extend(part.parse::<usize>()),
        }
    }
    cpus
}

/// CPUs this process may run on (empty when `/proc` is unreadable).
pub fn allowed_cpus() -> Vec<usize> {
    proc_status("Cpus_allowed_list")
        .map(|l| parse_cpu_list(&l))
        .unwrap_or_default()
}

/// Peak resident set size (`VmHWM`) in MiB, 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Re-executes this program on the last `cpus` allowed CPUs and exits
/// with the child's status. Returns normally in the child, and in the
/// parent when there is nothing to narrow or no `taskset` to do it
/// with (the run then records `pinned: false`).
pub fn pin_or_continue(cpus: usize) {
    if std::env::var_os(CHILD_ENV).is_some() {
        return;
    }
    let allowed = allowed_cpus();
    if allowed.len() <= cpus {
        return;
    }
    let list = allowed[allowed.len() - cpus..]
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let status = Command::new("taskset")
        .arg("-c")
        .arg(&list)
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(CHILD_ENV, "1")
        .status();
    // An `Err` means there is no `taskset` on this host: measure
    // unpinned, and the run records `pinned: false`.
    if let Ok(s) = status {
        std::process::exit(s.code().unwrap_or(1));
    }
}

/// Facts every run records; `compare` refuses run sets that disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFacts {
    /// CPUs the host reports to an unpinned process.
    pub host_cores: usize,
    /// CPUs the measuring process is confined to.
    pub cpus: Vec<usize>,
    /// Whether the measuring process runs on exactly the CPUs asked
    /// for.
    pub pinned: bool,
    /// Compute threads the workload runs (one per CPU it is given).
    pub threads: usize,
    /// SIMD tier the kernels dispatch to.
    pub simd_tier: &'static str,
}

impl HostFacts {
    /// Observes the current process; `want_cpus` is what the workload
    /// asked [`pin_or_continue`] for.
    pub fn observe(want_cpus: usize) -> Self {
        let cpus = allowed_cpus();
        let host_cores = std::fs::read_to_string("/sys/devices/system/cpu/online")
            .map(|l| parse_cpu_list(l.trim()).len())
            .unwrap_or(0)
            .max(cpus.len());
        HostFacts {
            host_cores,
            pinned: cpus.len() == want_cpus,
            cpus,
            threads: want_cpus,
            simd_tier: mpt_formats::simd::active_tier().name(),
        }
    }
}

/// What [`calibration_ms`] reads on the host the benchmark was defined
/// on while that host is quiet. Normalised metrics are therefore
/// milliseconds *at that speed*.
pub const CALIBRATION_REF_MS: f64 = 8.5;

/// A fixed piece of work of the benchmark's own — no crate of the
/// repository is involved, so no change to them can move it — shaped
/// like the measured code: a small multiply-accumulate with bit-level
/// rounding of every product, then a streaming pass over a 2 MiB
/// buffer. Returns the milliseconds it took (≈8.5 on a quiet host).
///
/// This host's speed drifts by tens of percent for minutes at a time
/// without the guest being descheduled (lost time is 1–3%, CPU time
/// tracks wall time), so no statistic over the units of a run can
/// remove it. The calibration rep slows down with the measured code;
/// dividing by it does.
pub fn calibration_ms() -> f64 {
    const N: usize = 96;
    const STREAM: usize = 1 << 19;
    let a: Vec<f32> = (0..N * N)
        .map(|i| ((i * 37 % 41) as f32 - 20.0) * 0.05)
        .collect();
    let b: Vec<f32> = (0..N * N)
        .map(|i| ((i * 43 % 47) as f32 - 23.0) * 0.04)
        .collect();
    let mut c = vec![0.0f32; N * N];
    let mut stream: Vec<f32> = (0..STREAM).map(|i| (i % 1013) as f32 * 1e-3).collect();
    let t = std::time::Instant::now();
    for _ in 0..40 {
        for i in 0..N {
            for k in 0..N {
                let av = a[i * N + k];
                for j in 0..N {
                    let p = av * b[k * N + j];
                    // Round the product to 8 mantissa bits, as a
                    // low-precision multiplier would.
                    let r = f32::from_bits((p.to_bits() + 0x4000) & 0xFFFF_8000);
                    c[i * N + j] += r;
                }
            }
        }
        for x in stream.iter_mut() {
            *x = *x * 0.999 + 0.001;
        }
    }
    std::hint::black_box((&c, &stream));
    t.elapsed().as_secs_f64() * 1e3
}

/// How much slower than the reference the host ran while `reps` were
/// taken: their mean ÷ [`CALIBRATION_REF_MS`]. The mean, not the
/// median or minimum: the slowdown is a density of short stalls, and
/// the mean is what the measured code experiences too.
pub fn slowdown(reps: &[f64]) -> f64 {
    reps.iter().sum::<f64>() / reps.len() as f64 / CALIBRATION_REF_MS
}

/// `n` calibration reps.
pub fn calibrate(n: usize) -> Vec<f64> {
    (0..n).map(|_| calibration_ms()).collect()
}
