//! The PSA system: configuration → backend → Welch–Lomb → HRV metrics.

use crate::config::PsaConfig;
use crate::error::PsaError;
use crate::exec::{KernelCache, SpectralPlan};
use hrv_dsp::{BlockOps, FftBackend, OpCount};
use hrv_ecg::RrSeries;
use hrv_lomb::{ArrhythmiaDetector, BandPowers, WelchAnalysis, WelchLomb, MIN_WINDOW_SAMPLES};
use std::sync::Arc;

/// Result of analysing one RR recording.
#[derive(Clone, Debug)]
pub struct HrvAnalysis {
    /// The sliding-window spectral analysis (segments + average).
    pub welch: WelchAnalysis,
    /// Band powers of the averaged spectrum.
    pub powers: BandPowers,
    /// Per-window band powers (time–frequency monitoring, §VI.A).
    pub per_window: Vec<(f64, BandPowers)>,
    /// Per-block operation counts summed over all windows.
    pub blocks: BlockOps,
    /// `true` when the LFP/HFP ratio indicates sinus arrhythmia.
    pub arrhythmia: bool,
}

impl HrvAnalysis {
    /// The LFP/HFP ratio of the averaged spectrum — the paper's quality
    /// metric.
    pub fn lf_hf_ratio(&self) -> f64 {
        self.powers.lf_hf_ratio()
    }

    /// Total operation count of the analysis.
    pub fn total_ops(&self) -> OpCount {
        self.blocks.grand_total()
    }
}

/// The configured spectral-analysis system (paper Fig. 1(a), with the FFT
/// block chosen by [`crate::BackendChoice`]).
///
/// # Examples
///
/// ```
/// use hrv_core::{PsaConfig, PsaSystem};
/// use hrv_ecg::{Condition, SyntheticDatabase};
///
/// let record = SyntheticDatabase::new(2014).record(0, Condition::SinusArrhythmia, 360.0);
/// let system = PsaSystem::new(PsaConfig::conventional())?;
/// let analysis = system.analyze(&record.rr)?;
/// assert!(analysis.lf_hf_ratio() < 1.0); // HF-dominated → arrhythmia
/// # Ok::<(), hrv_core::PsaError>(())
/// ```
#[derive(Debug)]
pub struct PsaSystem {
    config: PsaConfig,
    backend: Arc<dyn FftBackend>,
    welch: WelchLomb,
}

impl PsaSystem {
    /// Builds a system with a static (or exact) backend.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::InvalidConfig`] for invalid parameters and
    /// [`PsaError::NeedsCalibration`] when the configuration requests
    /// dynamic pruning (use [`PsaSystem::with_calibration`]).
    pub fn new(config: PsaConfig) -> Result<Self, PsaError> {
        let plan = SpectralPlan::new(config)?;
        if plan.requires_calibration() {
            return Err(PsaError::NeedsCalibration);
        }
        Self::from_plan(&plan, &KernelCache::new())
    }

    /// Builds a system, calibrating dynamic thresholds on `training`
    /// recordings when the configuration requests dynamic pruning.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::InvalidConfig`] for invalid parameters, or
    /// [`PsaError::TooFewSamples`] when the training cohort yields no
    /// usable windows.
    pub fn with_calibration(config: PsaConfig, training: &[RrSeries]) -> Result<Self, PsaError> {
        let plan = SpectralPlan::new(config)?;
        let plan = if plan.requires_calibration() {
            SpectralPlan::calibrated(plan.config().clone(), training)?
        } else {
            plan
        };
        Self::from_plan(&plan, &KernelCache::new())
    }

    /// Builds a system through the shared execution layer: the kernel
    /// comes from `cache` (constructed once per plan key, shared with any
    /// other consumer of the same cache — streaming engines, fleets,
    /// sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::MissingCalibration`] when the plan demands a
    /// dynamic-pruning kernel but carries no training set.
    pub fn from_plan(plan: &SpectralPlan, cache: &KernelCache) -> Result<Self, PsaError> {
        let backend = cache.backend(plan)?;
        let welch = WelchLomb::new(
            plan.estimator(),
            plan.config().window_duration,
            plan.config().overlap,
        );
        Ok(PsaSystem {
            config: plan.config().clone(),
            backend,
            welch,
        })
    }

    /// The system configuration.
    pub fn config(&self) -> &PsaConfig {
        &self.config
    }

    /// Name of the active FFT kernel (e.g. `"split-radix"`,
    /// `"wfft-haar+banddrop+prune60%"`).
    pub fn backend_name(&self) -> &str {
        self.backend.name()
    }

    /// Analyses one RR recording.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::RecordingTooShort`] or
    /// [`PsaError::TooFewSamples`] when the recording cannot fill one
    /// analysis window, and [`PsaError::ConstantSignal`] for a flat RR
    /// series.
    pub fn analyze(&self, rr: &RrSeries) -> Result<HrvAnalysis, PsaError> {
        let duration = rr.duration();
        if duration < self.config.window_duration {
            return Err(PsaError::RecordingTooShort {
                got: duration,
                need: self.config.window_duration,
            });
        }
        if rr.len() < MIN_WINDOW_SAMPLES {
            return Err(PsaError::TooFewSamples {
                got: rr.len(),
                need: MIN_WINDOW_SAMPLES,
            });
        }
        // Sub-nanosecond variability is numerically constant (a perfectly
        // regular synthetic series still carries ~1e-17 s of fp jitter).
        if rr.sdnn() < 1e-9 {
            return Err(PsaError::ConstantSignal);
        }

        let mut blocks = BlockOps::new();
        let welch = self.welch.process_profiled(
            self.backend.as_ref(),
            rr.times(),
            rr.intervals(),
            &mut blocks,
        );
        let powers = BandPowers::of(welch.averaged());
        let per_window = welch
            .segments()
            .iter()
            .map(|seg| (seg.start, BandPowers::of(&seg.periodogram)))
            .collect();
        let arrhythmia = ArrhythmiaDetector::default().detect(&powers);
        Ok(HrvAnalysis {
            welch,
            powers,
            per_window,
            blocks,
            arrhythmia,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ApproximationMode, PruningPolicy};
    use hrv_ecg::{Condition, SyntheticDatabase};
    use hrv_wavelet::WaveletBasis;

    fn arrhythmia_rr(seconds: f64) -> RrSeries {
        SyntheticDatabase::new(2014)
            .record(0, Condition::SinusArrhythmia, seconds)
            .rr
    }

    fn healthy_rr(seconds: f64) -> RrSeries {
        SyntheticDatabase::new(2014)
            .record(0, Condition::Healthy, seconds)
            .rr
    }

    #[test]
    fn conventional_system_detects_arrhythmia() {
        let system = PsaSystem::new(PsaConfig::conventional()).expect("valid");
        let analysis = system.analyze(&arrhythmia_rr(480.0)).expect("analysis");
        assert!(
            analysis.lf_hf_ratio() < 1.0,
            "ratio {}",
            analysis.lf_hf_ratio()
        );
        assert!(analysis.arrhythmia);
        assert_eq!(system.backend_name(), "split-radix");
        assert!(!analysis.per_window.is_empty());
        assert!(analysis.total_ops().arithmetic() > 0);
    }

    #[test]
    fn conventional_system_clears_healthy_subject() {
        let system = PsaSystem::new(PsaConfig::conventional()).expect("valid");
        let analysis = system.analyze(&healthy_rr(480.0)).expect("analysis");
        assert!(
            analysis.lf_hf_ratio() > 1.0,
            "ratio {}",
            analysis.lf_hf_ratio()
        );
        assert!(!analysis.arrhythmia);
    }

    #[test]
    fn proposed_system_preserves_detection_across_modes() {
        // The paper's core claim: every approximation degree still
        // detects the arrhythmia.
        let rr = arrhythmia_rr(480.0);
        for mode in ApproximationMode::ALL {
            let system = PsaSystem::new(PsaConfig::proposed(
                WaveletBasis::Haar,
                mode,
                PruningPolicy::Static,
            ))
            .expect("valid");
            let analysis = system.analyze(&rr).expect("analysis");
            assert!(
                analysis.arrhythmia,
                "{mode}: ratio {} lost the detection",
                analysis.lf_hf_ratio()
            );
        }
    }

    #[test]
    fn exact_wavelet_matches_conventional_ratio() {
        let rr = arrhythmia_rr(480.0);
        let conventional = PsaSystem::new(PsaConfig::conventional())
            .expect("valid")
            .analyze(&rr)
            .expect("analysis");
        let wavelet = PsaSystem::new(PsaConfig::proposed(
            WaveletBasis::Haar,
            ApproximationMode::Exact,
            PruningPolicy::Static,
        ))
        .expect("valid")
        .analyze(&rr)
        .expect("analysis");
        let rel =
            (conventional.lf_hf_ratio() - wavelet.lf_hf_ratio()).abs() / conventional.lf_hf_ratio();
        assert!(rel < 1e-9, "exact backends disagree: {rel}");
    }

    #[test]
    fn pruned_modes_save_operations() {
        let rr = arrhythmia_rr(480.0);
        let mut prev = u64::MAX;
        for mode in [
            ApproximationMode::BandDrop,
            ApproximationMode::BandDropSet1,
            ApproximationMode::BandDropSet2,
            ApproximationMode::BandDropSet3,
        ] {
            let system = PsaSystem::new(PsaConfig::proposed(
                WaveletBasis::Haar,
                mode,
                PruningPolicy::Static,
            ))
            .expect("valid");
            let ops = system
                .analyze(&rr)
                .expect("analysis")
                .total_ops()
                .arithmetic();
            assert!(ops < prev, "{mode}: {ops} ops");
            prev = ops;
        }
        // And all of them beat the conventional system.
        let conventional = PsaSystem::new(PsaConfig::conventional())
            .expect("valid")
            .analyze(&rr)
            .expect("analysis")
            .total_ops()
            .arithmetic();
        assert!(prev < conventional);
    }

    #[test]
    fn dynamic_policy_requires_calibration() {
        let config = PsaConfig::proposed(
            WaveletBasis::Haar,
            ApproximationMode::BandDropSet2,
            PruningPolicy::Dynamic,
        );
        assert_eq!(
            PsaSystem::new(config.clone()).unwrap_err(),
            PsaError::NeedsCalibration
        );
        let training = vec![arrhythmia_rr(300.0), healthy_rr(300.0)];
        let system = PsaSystem::with_calibration(config, &training).expect("calibrated");
        let analysis = system.analyze(&arrhythmia_rr(480.0)).expect("analysis");
        assert!(analysis.arrhythmia);
        // Dynamic mode performs runtime comparisons.
        assert!(analysis.total_ops().cmp > 0);
    }

    #[test]
    fn systems_built_from_one_plan_share_a_kernel() {
        let cache = KernelCache::new();
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let a = PsaSystem::from_plan(&plan, &cache).expect("valid");
        let b = PsaSystem::from_plan(&plan, &cache).expect("valid");
        assert_eq!(cache.builds(), 1, "second system reuses the kernel");
        assert_eq!(cache.hits(), 1);
        let rr = arrhythmia_rr(480.0);
        let ra = a.analyze(&rr).expect("analysis").lf_hf_ratio();
        let rb = b.analyze(&rr).expect("analysis").lf_hf_ratio();
        assert_eq!(ra, rb);
    }

    #[test]
    fn from_plan_surfaces_missing_calibration() {
        let plan = SpectralPlan::new(PsaConfig::proposed(
            WaveletBasis::Haar,
            ApproximationMode::BandDropSet1,
            PruningPolicy::Dynamic,
        ))
        .expect("valid");
        let err = PsaSystem::from_plan(&plan, &KernelCache::new()).unwrap_err();
        assert_eq!(
            err,
            PsaError::MissingCalibration {
                mode: ApproximationMode::BandDropSet1
            }
        );
    }

    #[test]
    fn short_recording_is_rejected() {
        let system = PsaSystem::new(PsaConfig::conventional()).expect("valid");
        let err = system.analyze(&arrhythmia_rr(60.0)).unwrap_err();
        assert!(matches!(err, PsaError::RecordingTooShort { .. }));
    }

    #[test]
    fn constant_series_is_rejected() {
        let system = PsaSystem::new(PsaConfig::conventional()).expect("valid");
        let beats: Vec<f64> = (0..200).map(|i| i as f64 * 0.8).collect();
        let rr = RrSeries::from_beat_times(&beats);
        assert_eq!(system.analyze(&rr).unwrap_err(), PsaError::ConstantSignal);
    }

    #[test]
    fn per_window_ratios_track_condition() {
        let system = PsaSystem::new(PsaConfig::conventional()).expect("valid");
        let analysis = system.analyze(&arrhythmia_rr(600.0)).expect("analysis");
        let below_one = analysis
            .per_window
            .iter()
            .filter(|(_, p)| p.lf_hf_ratio() < 1.0)
            .count();
        assert!(
            below_one * 2 > analysis.per_window.len(),
            "majority of windows should flag arrhythmia"
        );
    }
}
