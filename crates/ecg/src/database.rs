//! The synthetic cohort — stand-in for the MIT-BIH / PhysioNet records.
//!
//! The paper evaluates on "numerous sinus-arrhythmia and healthy samples
//! from PhysioNet" and reports hourly monitoring of 16 patients. This
//! module generates a deterministic, seeded cohort with the same roles:
//! every record is reproducible from `(database seed, record index)`.

use crate::profiles::{Condition, PatientProfile};
use crate::rr::RrSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One synthetic patient record.
#[derive(Clone, Debug)]
pub struct PatientRecord {
    /// Record index within the database.
    pub id: usize,
    /// The generative profile (ground truth).
    pub profile: PatientProfile,
    /// The synthesised RR series.
    pub rr: RrSeries,
}

/// A deterministic synthetic record database.
///
/// # Examples
///
/// ```
/// use hrv_ecg::{Condition, SyntheticDatabase};
///
/// let db = SyntheticDatabase::new(2014);
/// let record = db.record(3, Condition::SinusArrhythmia, 300.0);
/// assert_eq!(record.id, 3);
/// assert!(record.rr.len() > 250); // ≈ 300 s of beats
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyntheticDatabase {
    seed: u64,
}

impl SyntheticDatabase {
    /// Creates a database with a master seed.
    pub fn new(seed: u64) -> Self {
        SyntheticDatabase { seed }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates record `id` with the given condition and duration
    /// (seconds). Deterministic in `(seed, id, condition)`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive.
    pub fn record(&self, id: usize, condition: Condition, duration: f64) -> PatientRecord {
        let tag = match condition {
            Condition::Healthy => 0x48u64,
            Condition::SinusArrhythmia => 0x53u64,
        };
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((id as u64) << 8)
                .wrapping_add(tag),
        );
        let profile = PatientProfile::sample(condition, &mut rng);
        let rr = profile.synthesize_rr(duration, &mut rng);
        PatientRecord { id, profile, rr }
    }

    /// Generates a mixed cohort: `n_arrhythmia` sinus-arrhythmia records
    /// followed by `n_healthy` healthy ones, each `duration` seconds.
    pub fn cohort(
        &self,
        n_arrhythmia: usize,
        n_healthy: usize,
        duration: f64,
    ) -> Vec<PatientRecord> {
        let mut records = Vec::with_capacity(n_arrhythmia + n_healthy);
        for id in 0..n_arrhythmia {
            records.push(self.record(id, Condition::SinusArrhythmia, duration));
        }
        for id in 0..n_healthy {
            records.push(self.record(n_arrhythmia + id, Condition::Healthy, duration));
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_deterministic() {
        let db = SyntheticDatabase::new(7);
        let a = db.record(0, Condition::Healthy, 120.0);
        let b = db.record(0, Condition::Healthy, 120.0);
        assert_eq!(a.rr, b.rr);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn different_ids_differ() {
        let db = SyntheticDatabase::new(7);
        let a = db.record(0, Condition::Healthy, 120.0);
        let b = db.record(1, Condition::Healthy, 120.0);
        assert_ne!(a.rr, b.rr);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticDatabase::new(1).record(0, Condition::Healthy, 120.0);
        let b = SyntheticDatabase::new(2).record(0, Condition::Healthy, 120.0);
        assert_ne!(a.rr, b.rr);
        assert_eq!(SyntheticDatabase::new(1).seed(), 1);
    }

    #[test]
    fn conditions_are_separated() {
        let db = SyntheticDatabase::new(7);
        let sick = db.record(0, Condition::SinusArrhythmia, 120.0);
        let well = db.record(0, Condition::Healthy, 120.0);
        assert!(sick.profile.injected_lf_hf_ratio() < 0.6);
        assert!(well.profile.injected_lf_hf_ratio() > 2.0);
    }

    #[test]
    fn cohort_layout() {
        let db = SyntheticDatabase::new(3);
        let cohort = db.cohort(2, 3, 150.0);
        assert_eq!(cohort.len(), 5);
        assert_eq!(cohort[0].profile.condition, Condition::SinusArrhythmia);
        assert_eq!(cohort[1].profile.condition, Condition::SinusArrhythmia);
        assert!(cohort[2..]
            .iter()
            .all(|r| r.profile.condition == Condition::Healthy));
        let ids: Vec<usize> = cohort.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
