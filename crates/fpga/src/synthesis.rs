//! The static configuration database.
//!
//! The paper pre-generates FPGA configurations offline with Vitis HLS
//! 2023.1 for the Alveo U55 and selects among them at run time
//! (Section IV-B / V-C). This module embeds those synthesis results —
//! Table III (each `(N, M)` at its maximal core count and achieved
//! frequency, with resource utilization) and Table IV's frequency
//! sweep for the 8×8 array at `C = 1..10` — plus an interpolating
//! frequency model for off-table core counts, calibrated on the 8×8
//! sweep.

use crate::config::{ConfigError, SaConfig, MAX_CORES};
use crate::sim::Accelerator;

/// One synthesized design point (a Table III row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthPoint {
    /// PEs per core.
    pub n: usize,
    /// MACs per PE.
    pub m: usize,
    /// Maximal core count that fits the chip.
    pub c_max: usize,
    /// Achieved frequency at `c_max`, MHz.
    pub freq_mhz: f64,
    /// Look-up-table utilization at `c_max`, percent.
    pub lut_pct: f64,
    /// Block-RAM utilization at `c_max`, percent.
    pub bram_pct: f64,
    /// DSP utilization at `c_max`, percent (address generation only —
    /// the arithmetic itself is implemented in LUTs).
    pub dsp_pct: f64,
}

/// Table III of the paper: possible accelerator configurations on the
/// U55 for the FP8×FP12-SR MAC.
const TABLE_III: [SynthPoint; 12] = [
    SynthPoint {
        n: 1,
        m: 1,
        c_max: 10,
        freq_mhz: 320.9,
        lut_pct: 14.12,
        bram_pct: 13.78,
        dsp_pct: 8.56,
    },
    SynthPoint {
        n: 2,
        m: 1,
        c_max: 10,
        freq_mhz: 320.1,
        lut_pct: 14.80,
        bram_pct: 13.80,
        dsp_pct: 7.98,
    },
    SynthPoint {
        n: 2,
        m: 2,
        c_max: 10,
        freq_mhz: 320.1,
        lut_pct: 15.10,
        bram_pct: 14.44,
        dsp_pct: 8.05,
    },
    SynthPoint {
        n: 4,
        m: 2,
        c_max: 10,
        freq_mhz: 311.0,
        lut_pct: 18.06,
        bram_pct: 15.99,
        dsp_pct: 9.76,
    },
    SynthPoint {
        n: 4,
        m: 4,
        c_max: 10,
        freq_mhz: 328.4,
        lut_pct: 21.30,
        bram_pct: 18.20,
        dsp_pct: 9.80,
    },
    SynthPoint {
        n: 8,
        m: 4,
        c_max: 10,
        freq_mhz: 197.7,
        lut_pct: 28.20,
        bram_pct: 17.09,
        dsp_pct: 11.53,
    },
    SynthPoint {
        n: 8,
        m: 8,
        c_max: 10,
        freq_mhz: 196.2,
        lut_pct: 37.51,
        bram_pct: 21.50,
        dsp_pct: 11.53,
    },
    SynthPoint {
        n: 16,
        m: 8,
        c_max: 10,
        freq_mhz: 180.0,
        lut_pct: 61.60,
        bram_pct: 30.3,
        dsp_pct: 11.6,
    },
    SynthPoint {
        n: 16,
        m: 16,
        c_max: 7,
        freq_mhz: 160.0,
        lut_pct: 62.73,
        bram_pct: 33.57,
        dsp_pct: 7.45,
    },
    SynthPoint {
        n: 32,
        m: 16,
        c_max: 4,
        freq_mhz: 198.4,
        lut_pct: 73.26,
        bram_pct: 33.26,
        dsp_pct: 5.72,
    },
    SynthPoint {
        n: 32,
        m: 32,
        c_max: 2,
        freq_mhz: 197.3,
        lut_pct: 62.19,
        bram_pct: 71.48,
        dsp_pct: 2.77,
    },
    SynthPoint {
        n: 64,
        m: 32,
        c_max: 1,
        freq_mhz: 150.0,
        lut_pct: 52.57,
        bram_pct: 71.64,
        dsp_pct: 1.93,
    },
];

/// Table IV of the paper: achieved frequency (MHz) of the 8×8 array
/// synthesized with `C = 1..=10` cores.
const FREQ_8X8_BY_C: [f64; 10] = [
    378.3, 330.9, 298.0, 298.0, 299.8, 270.6, 274.7, 203.1, 203.1, 196.2,
];

/// The pre-generated configuration database for one target device.
///
/// # Example
///
/// ```
/// use mpt_fpga::SynthesisDb;
///
/// let db = SynthesisDb::u55();
/// assert_eq!(db.max_cores(8, 8), Some(10));
/// assert_eq!(db.frequency(8, 8, 1), Some(378.3));
/// ```
#[derive(Debug, Clone)]
pub struct SynthesisDb {
    points: Vec<SynthPoint>,
}

impl SynthesisDb {
    /// The Alveo U55 database embedded from the paper's Tables III/IV.
    pub fn u55() -> Self {
        SynthesisDb {
            points: TABLE_III.to_vec(),
        }
    }

    /// All synthesized `(N, M)` design points.
    pub fn points(&self) -> &[SynthPoint] {
        &self.points
    }

    /// The Table III row for `(n, m)`, if synthesized.
    pub fn point(&self, n: usize, m: usize) -> Option<&SynthPoint> {
        self.points.iter().find(|p| p.n == n && p.m == m)
    }

    /// Maximal feasible core count for an `(n, m)` array.
    pub fn max_cores(&self, n: usize, m: usize) -> Option<usize> {
        self.point(n, m).map(|p| p.c_max)
    }

    /// Achieved frequency (MHz) of `(n, m)` at `c` cores.
    ///
    /// The 8×8 sweep returns Table IV's measured values exactly; other
    /// arrays interpolate the 8×8 relative frequency-vs-core-count
    /// curve scaled to their Table III max-count frequency. Returns
    /// `None` for configurations that do not fit the chip.
    pub fn frequency(&self, n: usize, m: usize, c: usize) -> Option<f64> {
        let p = self.point(n, m)?;
        if c == 0 || c > p.c_max {
            return None;
        }
        if n == 8 && m == 8 {
            return Some(FREQ_8X8_BY_C[c - 1]);
        }
        if p.c_max == 1 {
            return Some(p.freq_mhz);
        }
        // Scale the Table III frequency (achieved at c_max) by the
        // 8x8 sweep's relative frequency at the same *absolute* core
        // count: fewer cores ease routing by roughly the same factor
        // regardless of array size.
        let rel = FREQ_8X8_BY_C[c - 1] / FREQ_8X8_BY_C[p.c_max - 1];
        Some(p.freq_mhz * rel)
    }

    /// Estimated resource utilization of `(n, m)` at `c` cores
    /// `(lut%, bram%, dsp%)`: the platform shell is a fixed floor and
    /// the per-core cost scales linearly (calibrated so the Table III
    /// row is met exactly at `c_max`).
    pub fn resources(&self, n: usize, m: usize, c: usize) -> Option<(f64, f64, f64)> {
        const SHELL_LUT: f64 = 10.0;
        const SHELL_BRAM: f64 = 12.0;
        const SHELL_DSP: f64 = 1.0;
        let p = self.point(n, m)?;
        if c == 0 || c > p.c_max {
            return None;
        }
        let scale = c as f64 / p.c_max as f64;
        let per = |total: f64, shell: f64| shell + (total - shell).max(0.0) * scale;
        Some((
            per(p.lut_pct, SHELL_LUT),
            per(p.bram_pct, SHELL_BRAM),
            per(p.dsp_pct, SHELL_DSP),
        ))
    }

    /// Every feasible `⟨N, M, C⟩` configuration, with `C` ranging from
    /// 1 to each array's maximal count — the search space of the
    /// matching algorithm.
    pub fn feasible_configs(&self) -> Vec<SaConfig> {
        let mut out = Vec::new();
        for p in &self.points {
            for c in 1..=p.c_max.min(MAX_CORES) {
                if let Ok(cfg) = SaConfig::new(p.n, p.m, c) {
                    out.push(cfg);
                }
            }
        }
        out
    }

    /// Validates that a configuration exists in the database (the
    /// paper only deploys pre-generated static bitstreams).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::CoreCount`] for a core count above the
    /// synthesized maximum, or [`ConfigError::PeCount`] for an
    /// unsynthesized array shape.
    pub fn validate(&self, cfg: SaConfig) -> Result<(), ConfigError> {
        match self.point(cfg.n(), cfg.m()) {
            None => Err(ConfigError::PeCount(cfg.n())),
            Some(p) if cfg.c() > p.c_max => Err(ConfigError::CoreCount(cfg.c())),
            Some(_) => Ok(()),
        }
    }

    /// The accelerator `⟨n, m, c⟩` at this database's achieved
    /// frequency — what `FpgaBackend::new` wraps.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid or
    /// absent from the database.
    pub fn accelerator(&self, n: usize, m: usize, c: usize) -> Result<Accelerator, ConfigError> {
        let cfg = SaConfig::new(n, m, c)?;
        self.validate(cfg)?;
        let freq = self
            .frequency(n, m, c)
            .expect("validated configuration has a frequency");
        Ok(Accelerator::new(cfg, freq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_is_complete() {
        let db = SynthesisDb::u55();
        assert_eq!(db.points().len(), 12);
        // The largest array fits exactly once (paper: "The largest
        // systolic array we can accommodate has N=64, M=32 with C=1").
        assert_eq!(db.max_cores(64, 32), Some(1));
        assert_eq!(db.max_cores(1, 1), Some(10));
        assert_eq!(db.max_cores(3, 3), None);
    }

    #[test]
    fn freq_8x8_matches_table_iv() {
        let db = SynthesisDb::u55();
        assert_eq!(db.frequency(8, 8, 1), Some(378.3));
        assert_eq!(db.frequency(8, 8, 7), Some(274.7));
        assert_eq!(db.frequency(8, 8, 10), Some(196.2));
        assert_eq!(db.frequency(8, 8, 11), None);
    }

    #[test]
    fn freq_at_cmax_matches_table_iii() {
        let db = SynthesisDb::u55();
        for p in db.points() {
            let f = db.frequency(p.n, p.m, p.c_max).unwrap();
            assert!(
                (f - p.freq_mhz).abs() < 1e-9,
                "<{},{}> at c_max: {f} vs {}",
                p.n,
                p.m,
                p.freq_mhz
            );
        }
    }

    #[test]
    fn fewer_cores_never_slower() {
        // The interpolated curve is derived from Table IV where C=1 is
        // the fastest point of the sweep.
        let db = SynthesisDb::u55();
        let f1 = db.frequency(16, 16, 1).unwrap();
        let f7 = db.frequency(16, 16, 7).unwrap();
        assert!(f1 > f7, "{f1} vs {f7}");
    }

    #[test]
    fn resources_hit_table_at_cmax_and_shrink_below() {
        let db = SynthesisDb::u55();
        let (lut, bram, dsp) = db.resources(8, 8, 10).unwrap();
        assert!((lut - 37.51).abs() < 1e-9);
        assert!((bram - 21.50).abs() < 1e-9);
        assert!((dsp - 11.53).abs() < 1e-9);
        let (lut1, ..) = db.resources(8, 8, 1).unwrap();
        assert!(lut1 < lut && lut1 > 10.0);
        assert_eq!(db.resources(8, 8, 11), None);
    }

    #[test]
    fn feasible_space_size() {
        // Sum of c_max over rows: 10*8 + 7 + 4 + 2 + 1 = 94.
        let db = SynthesisDb::u55();
        assert_eq!(db.feasible_configs().len(), 94);
    }

    #[test]
    fn accelerator_validates_against_db() {
        let db = SynthesisDb::u55();
        let acc = db.accelerator(8, 8, 10).unwrap();
        assert_eq!(acc.freq_mhz(), db.frequency(8, 8, 10).unwrap());
        assert!(db.accelerator(16, 16, 8).is_err()); // beyond c_max
        assert!(db.accelerator(3, 3, 1).is_err()); // invalid shape
    }

    #[test]
    fn validate_rejects_unsynthesized() {
        let db = SynthesisDb::u55();
        assert!(db.validate(SaConfig::new(8, 8, 10).unwrap()).is_ok());
        assert!(db.validate(SaConfig::new(16, 16, 8).unwrap()).is_err());
        assert!(db.validate(SaConfig::new(128, 64, 1).unwrap()).is_err());
    }
}
