//! The runtime injector: a plan plus launch/injection counters.

use crate::plan::{mix, Fault, FaultPlan, FaultSite};
use std::cell::Cell;

/// Drives a [`FaultPlan`] at runtime.
///
/// The injector owns the monotonically increasing launch counter and
/// tallies how many faults it has injected (total and per site) so
/// tests and telemetry can assert the schedule actually fired.
/// Counters use `Cell`s because execution backends hold the injector
/// behind `&self`.
#[derive(Debug, Clone)]
pub struct Injector {
    plan: FaultPlan,
    launches: Cell<u64>,
    injected: Cell<u64>,
    per_site: [Cell<u64>; FaultSite::ALL.len()],
}

impl Injector {
    /// Wraps a plan with zeroed counters.
    pub fn new(plan: FaultPlan) -> Self {
        Injector {
            plan,
            launches: Cell::new(0),
            injected: Cell::new(0),
            per_site: std::array::from_fn(|_| Cell::new(0)),
        }
    }

    /// The schedule this injector follows.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Claims the next 1-based launch index.
    pub fn next_launch(&self) -> u64 {
        let n = self.launches.get() + 1;
        self.launches.set(n);
        n
    }

    /// Number of launches claimed so far.
    pub fn launch_count(&self) -> u64 {
        self.launches.get()
    }

    /// Total faults injected so far.
    pub fn injected_count(&self) -> u64 {
        self.injected.get()
    }

    /// Faults injected at one site so far.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.per_site[site.index()].get()
    }

    /// Consults the plan for `site` at `(launch, attempt)`; records
    /// and returns the fault when it fires.
    pub fn check(&self, site: FaultSite, launch: u64, attempt: u32) -> Option<Fault> {
        if !self.plan.fires(site, launch, attempt) {
            return None;
        }
        self.injected.set(self.injected.get() + 1);
        let c = &self.per_site[site.index()];
        c.set(c.get() + 1);
        Some(Fault {
            site,
            launch,
            attempt,
        })
    }

    /// A deterministic corruption position for an HBM fault: which
    /// byte of a `len`-byte image to flip, and a non-zero XOR mask.
    /// Pure function of the plan seed and the launch index.
    pub fn corruption(&self, len: usize, launch: u64) -> (usize, u8) {
        let h = mix(self.plan.seed() ^ launch.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let byte = if len == 0 { 0 } else { (h as usize) % len };
        let xor = ((h >> 32) as u8) | 1; // never 0: must actually flip
        (byte, xor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Trigger;

    #[test]
    fn launch_counter_is_monotonic() {
        let inj = Injector::new(FaultPlan::new(0));
        assert_eq!(inj.next_launch(), 1);
        assert_eq!(inj.next_launch(), 2);
        assert_eq!(inj.launch_count(), 2);
    }

    #[test]
    fn check_tallies_per_site() {
        let inj = Injector::new(
            FaultPlan::new(5)
                .with(FaultSite::LaunchTimeout, Trigger::EveryNth(2))
                .with(FaultSite::HbmCorruption, Trigger::AtLaunch(3)),
        );
        for _ in 0..6 {
            let l = inj.next_launch();
            inj.check(FaultSite::LaunchTimeout, l, 0);
            inj.check(FaultSite::HbmCorruption, l, 0);
        }
        assert_eq!(inj.injected_at(FaultSite::LaunchTimeout), 3); // 2,4,6
        assert_eq!(inj.injected_at(FaultSite::HbmCorruption), 1); // 3
        assert_eq!(inj.injected_count(), 4);
    }

    #[test]
    fn corruption_is_deterministic_and_in_range() {
        let inj = Injector::new(FaultPlan::new(9));
        let (b1, x1) = inj.corruption(100, 7);
        let (b2, x2) = inj.corruption(100, 7);
        assert_eq!((b1, x1), (b2, x2));
        assert!(b1 < 100);
        assert_ne!(x1, 0);
        let (b3, _) = inj.corruption(100, 8);
        // Different launches land on different bytes almost surely;
        // equality here would not be a bug, but the hash shouldn't be
        // constant across all launches.
        let distinct = (1..50)
            .map(|l| inj.corruption(100, l).0)
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 10, "corruption positions too clustered");
        let _ = b3;
    }

    #[test]
    fn zero_length_image_is_safe() {
        let inj = Injector::new(FaultPlan::new(1));
        assert_eq!(inj.corruption(0, 1).0, 0);
    }
}
