//! The allocator policy of a training process.
//!
//! A training step allocates its whole working set (im2col operands,
//! quantized carriers, activations, gradients) and frees all of it
//! when the tape drops. With glibc's defaults the large blocks are
//! `mmap`ped or sit at the heap top, and the dynamic trim threshold
//! (twice the largest freed mmapped chunk) hands that top back to the
//! OS at every drop — so the next step faults it in again page by
//! page, and the cost shows up inside whichever op touches the memory
//! first. [`keep_heap_mapped`] raises both thresholds once, so the
//! freed working set stays mapped and the next step reuses it.
//!
//! The trade: resident memory stays at the step's high-water mark and
//! is not returned between steps.

// `mallopt` is a foreign call; this module is the only place it is
// made.
#![allow(unsafe_code)]

/// Keeps freed memory mapped for reuse: blocks below 32 MiB (glibc's
/// largest allowed `M_MMAP_THRESHOLD` on 64-bit hosts) come from the
/// heap rather than fresh mappings, and the heap top is trimmed only
/// beyond 256 MiB of free space.
///
/// Applied once per process; later calls do nothing. On targets other
/// than linux-gnu this does nothing at all.
pub fn keep_heap_mapped() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        use std::sync::Once;

        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // From glibc's <malloc.h>.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;

        static POLICY: Once = Once::new();
        POLICY.call_once(|| {
            // SAFETY: `mallopt` only adjusts allocator parameters under
            // glibc's own arena lock; both values are within the
            // documented ranges.
            let mmap = unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) };
            // SAFETY: as above.
            let trim = unsafe { mallopt(M_TRIM_THRESHOLD, 256 << 20) };
            debug_assert!(mmap == 1 && trim == 1, "mallopt refused: {mmap} {trim}");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_applies_and_repeats_harmlessly() {
        // The debug assert inside checks glibc accepted both values.
        keep_heap_mapped();
        keep_heap_mapped();
        let v = vec![1u8; 8 << 20];
        assert_eq!(v.iter().map(|&b| b as usize).sum::<usize>(), 8 << 20);
    }
}
