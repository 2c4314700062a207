//! # hrv-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! DATE 2014 paper; each binary prints its paper-vs-measured comparison.
//!
//! One binary per figure/table:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1b_profile` | Fig. 1(b) energy profile of the conventional PSA |
//! | `fig3_sparsity` | Fig. 3 extrapolated RR + DWT band outputs |
//! | `fig5_complexity` | Fig. 5(a)/(b) + §V op-count comparisons |
//! | `fig6_twiddles` | Fig. 6 twiddle-magnitude histogram |
//! | `fig7_mse` | Fig. 7 MSE vs pruning degree |
//! | `fig8_periodogram` | Fig. 8 conventional vs pruned periodogram |
//! | `table1_ratio` | Table I static/dynamic LFP-HFP ratios |
//! | `fig9_energy_quality` | Fig. 9 energy–quality trade-offs |
//!
//! Criterion benches (`benches/`) measure host wall-clock throughput of
//! the kernels; the paper-shaped numbers come from the deterministic
//! operation/energy models printed by these binaries.

#![forbid(unsafe_code)]

use hrv_ecg::{Condition, RrSeries, SyntheticDatabase};

/// The workspace-wide master seed (the publication year, for flavour).
pub const SEED: u64 = 2014;

/// The standard evaluation cohort: `n` sinus-arrhythmia recordings of
/// `seconds` duration.
pub fn arrhythmia_cohort(n: usize, seconds: f64) -> Vec<RrSeries> {
    let db = SyntheticDatabase::new(SEED);
    (0..n)
        .map(|i| db.record(i, Condition::SinusArrhythmia, seconds).rr)
        .collect()
}

/// A mixed cohort for detection studies.
pub fn mixed_cohort(n_each: usize, seconds: f64) -> Vec<(Condition, RrSeries)> {
    let db = SyntheticDatabase::new(SEED);
    let mut records = Vec::new();
    for i in 0..n_each {
        records.push((
            Condition::SinusArrhythmia,
            db.record(i, Condition::SinusArrhythmia, seconds).rr,
        ));
        records.push((
            Condition::Healthy,
            db.record(i, Condition::Healthy, seconds).rr,
        ));
    }
    records
}

/// Renders a unicode bar of `value/max` scaled to `width` characters.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    let filled = filled.min(width);
    format!("{}{}", "█".repeat(filled), "·".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohorts_are_deterministic_and_sized() {
        let a = arrhythmia_cohort(3, 200.0);
        let b = arrhythmia_cohort(3, 200.0);
        assert_eq!(a.len(), 3);
        assert_eq!(a[0], b[0]);
        let mixed = mixed_cohort(2, 200.0);
        assert_eq!(mixed.len(), 4);
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "█████·····");
        assert_eq!(bar(0.0, 10.0, 4), "····");
        assert_eq!(bar(20.0, 10.0, 4), "████");
    }
}
