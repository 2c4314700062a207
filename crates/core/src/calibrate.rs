//! Design-time calibration (paper §III, eq. (3)).
//!
//! The thresholds that drive pruning are set from cohort statistics of
//! intermediate results: the expected magnitudes `E{|z_k|}` of the DWT
//! outputs decide which band is insignificant, and the packed FFT input
//! meshes train the dynamic (run-time) thresholds.

use crate::config::PsaConfig;
use crate::error::PsaError;
use crate::exec::SpectralPlan;
use hrv_dsp::{Cx, OpCount};
use hrv_ecg::RrSeries;
use hrv_lomb::MIN_WINDOW_SAMPLES;
use hrv_wavelet::{analysis_stage, FilterPair, WaveletBasis};

/// Extracts the packed complex FFT-input meshes (one per analysis window)
/// that the backend would see for the given recordings — the calibration
/// corpus for dynamic thresholds.
///
/// # Errors
///
/// Returns [`PsaError::InvalidConfig`] for invalid parameters, and
/// [`PsaError::TooFewSamples`] when no window in the cohort has enough RR
/// samples.
pub fn training_meshes(config: &PsaConfig, cohort: &[RrSeries]) -> Result<Vec<Vec<Cx>>, PsaError> {
    let estimator = SpectralPlan::new(config.clone())?
        .estimator()
        .with_span(config.window_duration);
    let hop = config.window_duration * (1.0 - config.overlap);
    let mut meshes = Vec::new();
    for rr in cohort {
        let t_end = rr.times().last().copied().unwrap_or(0.0);
        let mut start = rr.times().first().copied().unwrap_or(0.0);
        while start + config.window_duration <= t_end {
            if let Some(win) = rr.window(start, config.window_duration) {
                if win.len() >= MIN_WINDOW_SAMPLES && win.sdnn() > 0.0 {
                    let rel_times: Vec<f64> = win.times().iter().map(|&t| t - start).collect();
                    meshes.push(estimator.packed_mesh(&rel_times, win.intervals()));
                }
            }
            start += hop;
        }
    }
    if meshes.is_empty() {
        Err(PsaError::TooFewSamples {
            got: 0,
            need: MIN_WINDOW_SAMPLES,
        })
    } else {
        Ok(meshes)
    }
}

/// Expected-magnitude statistics of the first DWT stage over a cohort —
/// the evidence behind the paper's band-drop decision (Fig. 3, eq. (3)).
#[derive(Clone, Debug)]
pub struct BandSignificance {
    /// `E{|zL_k|}` per lowpass output index.
    pub lowpass_mean_abs: Vec<f64>,
    /// `E{|zH_k|}` per highpass output index.
    pub highpass_mean_abs: Vec<f64>,
}

impl BandSignificance {
    /// Computes the statistics from resampled RR tachograms (the smooth
    /// "extrapolated to N values" representation of the paper's
    /// Fig. 3(a)) — the signal class whose wavelet-domain sparsity
    /// motivates the band drop.
    ///
    /// # Panics
    ///
    /// Panics if `cohort` is empty or `n` is not even.
    pub fn from_tachograms(cohort: &[RrSeries], n: usize, basis: WaveletBasis) -> Self {
        assert!(!cohort.is_empty(), "need at least one recording");
        let meshes: Vec<Vec<Cx>> = cohort
            .iter()
            .map(|rr| rr.resample(n).into_iter().map(Cx::real).collect())
            .collect();
        Self::from_meshes(&meshes, basis)
    }

    /// Computes the statistics from FFT-input meshes on the given basis.
    ///
    /// # Panics
    ///
    /// Panics if `meshes` is empty or lengths are inconsistent.
    pub fn from_meshes(meshes: &[Vec<Cx>], basis: WaveletBasis) -> Self {
        assert!(!meshes.is_empty(), "need at least one mesh");
        let filters = FilterPair::new(basis);
        let half = meshes[0].len() / 2;
        let mut low = vec![0.0; half];
        let mut high = vec![0.0; half];
        let mut ops = OpCount::default();
        for mesh in meshes {
            assert_eq!(mesh.len(), 2 * half, "inconsistent mesh lengths");
            let (zl, zh) = analysis_stage(mesh, &filters, &mut ops);
            for k in 0..half {
                low[k] += zl[k].norm();
                high[k] += zh[k].norm();
            }
        }
        let n = meshes.len() as f64;
        for v in low.iter_mut().chain(high.iter_mut()) {
            *v /= n;
        }
        BandSignificance {
            lowpass_mean_abs: low,
            highpass_mean_abs: high,
        }
    }

    /// Mean highpass-to-lowpass magnitude ratio: the approximate-sparsity
    /// index. RR meshes score ≪ 1.
    pub fn hp_lp_ratio(&self) -> f64 {
        let lp: f64 = self.lowpass_mean_abs.iter().sum();
        let hp: f64 = self.highpass_mean_abs.iter().sum();
        // analyze::allow(float-discipline): exact-zero guard — lp is a sum of absolute values, zero only for an identically-zero mesh, where the ratio is defined as 0
        if lp == 0.0 {
            0.0
        } else {
            hp / lp
        }
    }

    /// The paper's eq. (3) decision: drop the highpass band when every
    /// `E{|zH_k|}` falls below `threshold` times the mean lowpass
    /// magnitude.
    pub fn recommends_band_drop(&self, threshold: f64) -> bool {
        let lp_mean: f64 =
            self.lowpass_mean_abs.iter().sum::<f64>() / self.lowpass_mean_abs.len() as f64;
        self.highpass_mean_abs
            .iter()
            .all(|&h| h < threshold * lp_mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_ecg::{Condition, SyntheticDatabase};

    fn cohort(n: usize) -> Vec<RrSeries> {
        let db = SyntheticDatabase::new(5);
        (0..n)
            .map(|i| db.record(i, Condition::SinusArrhythmia, 360.0).rr)
            .collect()
    }

    #[test]
    fn meshes_are_extracted_per_window() {
        let config = PsaConfig::conventional();
        let meshes = training_meshes(&config, &cohort(2)).expect("meshes");
        // 360 s records, 120 s windows, 60 s hop → up to 5 per record.
        assert!(meshes.len() >= 6, "got {}", meshes.len());
        assert!(meshes.iter().all(|m| m.len() == 512));
    }

    #[test]
    fn too_short_cohort_yields_error() {
        let db = SyntheticDatabase::new(5);
        let short = vec![db.record(0, Condition::Healthy, 30.0).rr];
        let err = training_meshes(&PsaConfig::conventional(), &short).unwrap_err();
        assert!(matches!(err, PsaError::TooFewSamples { .. }));
    }

    #[test]
    fn rr_tachograms_are_approximately_sparse_in_wavelet_domain() {
        // The paper's Fig. 3 observation, reproduced as a statistic: the
        // highpass band of the smooth resampled RR tachogram carries far
        // less magnitude than the lowpass band.
        let sig = BandSignificance::from_tachograms(&cohort(3), 256, WaveletBasis::Haar);
        assert!(
            sig.hp_lp_ratio() < 0.1,
            "HP/LP magnitude ratio {}",
            sig.hp_lp_ratio()
        );
    }

    #[test]
    fn extirpolated_meshes_are_less_sparse_than_tachograms() {
        // Honest modelling note (see EXPERIMENTS.md): the *impulse mesh*
        // that Press-Rybicki extirpolation feeds the FFT is spiky, so its
        // wavelet HP band is not near-zero — the Fig. 3 sparsity argument
        // strictly applies to the smooth tachogram. The band drop still
        // works because the HRV bands live at low k where |B| is small.
        let mut config = PsaConfig::conventional();
        config.mesh = hrv_lomb::MeshStrategy::Extirpolate { order: 4 };
        let spiky = training_meshes(&config, &cohort(3)).expect("meshes");
        let spiky_sig = BandSignificance::from_meshes(&spiky, WaveletBasis::Haar);
        let smooth = training_meshes(&PsaConfig::conventional(), &cohort(3)).expect("meshes");
        let smooth_sig = BandSignificance::from_meshes(&smooth, WaveletBasis::Haar);
        assert!(spiky_sig.hp_lp_ratio() < 1.0);
        assert!(
            smooth_sig.hp_lp_ratio() < spiky_sig.hp_lp_ratio() / 3.0,
            "smooth {} vs spiky {}",
            smooth_sig.hp_lp_ratio(),
            spiky_sig.hp_lp_ratio()
        );
    }

    #[test]
    fn band_drop_is_recommended_for_rr_data() {
        let sig = BandSignificance::from_tachograms(&cohort(3), 256, WaveletBasis::Haar);
        assert!(sig.recommends_band_drop(1.0));
        // An absurdly strict threshold refuses.
        assert!(!sig.recommends_band_drop(1e-9));
    }

    #[test]
    fn statistics_have_expected_shapes() {
        let config = PsaConfig::conventional();
        let meshes = training_meshes(&config, &cohort(1)).expect("meshes");
        let sig = BandSignificance::from_meshes(&meshes, WaveletBasis::Db2);
        assert_eq!(sig.lowpass_mean_abs.len(), 256);
        assert_eq!(sig.highpass_mean_abs.len(), 256);
        assert!(sig.lowpass_mean_abs.iter().all(|&v| v >= 0.0));
    }
}
