//! Configuration of the quality-scalable PSA system.

use crate::error::PsaError;
use hrv_dsp::Window;
use hrv_lomb::MeshStrategy;
use hrv_wavelet::WaveletBasis;
use hrv_wfft::{PruneConfig, PruneSet};
use std::fmt;

/// The approximation degree of the wavelet-FFT backend — the paper's
/// quality knob (none, band drop, band drop + Set1/2/3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ApproximationMode {
    /// Exact wavelet FFT (no pruning).
    #[default]
    Exact,
    /// First-stage highpass band dropped (eq. (7)).
    BandDrop,
    /// Band drop + 20 % twiddle pruning.
    BandDropSet1,
    /// Band drop + 40 % twiddle pruning.
    BandDropSet2,
    /// Band drop + 60 % twiddle pruning.
    BandDropSet3,
}

impl ApproximationMode {
    /// All modes from exact to most aggressive.
    pub const ALL: [ApproximationMode; 5] = [
        ApproximationMode::Exact,
        ApproximationMode::BandDrop,
        ApproximationMode::BandDropSet1,
        ApproximationMode::BandDropSet2,
        ApproximationMode::BandDropSet3,
    ];

    /// The approximating modes evaluated in the paper's Table I columns.
    pub const TABLE1: [ApproximationMode; 4] = [
        ApproximationMode::BandDrop,
        ApproximationMode::BandDropSet1,
        ApproximationMode::BandDropSet2,
        ApproximationMode::BandDropSet3,
    ];

    /// The pruning configuration this mode maps to.
    pub fn prune_config(self) -> PruneConfig {
        match self {
            ApproximationMode::Exact => PruneConfig::exact(),
            ApproximationMode::BandDrop => PruneConfig::band_drop_only(),
            ApproximationMode::BandDropSet1 => PruneConfig::with_set(PruneSet::Set1),
            ApproximationMode::BandDropSet2 => PruneConfig::with_set(PruneSet::Set2),
            ApproximationMode::BandDropSet3 => PruneConfig::with_set(PruneSet::Set3),
        }
    }
}

impl fmt::Display for ApproximationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ApproximationMode::Exact => "exact",
            ApproximationMode::BandDrop => "band-drop",
            ApproximationMode::BandDropSet1 => "band-drop+set1",
            ApproximationMode::BandDropSet2 => "band-drop+set2",
            ApproximationMode::BandDropSet3 => "band-drop+set3",
        };
        f.write_str(name)
    }
}

/// When pruning decisions are taken (paper §VI.B vs §VI.C).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PruningPolicy {
    /// Masks fixed at design time.
    #[default]
    Static,
    /// Run-time data-magnitude thresholds (needs calibration).
    Dynamic,
}

impl fmt::Display for PruningPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PruningPolicy::Static => f.write_str("static"),
            PruningPolicy::Dynamic => f.write_str("dynamic"),
        }
    }
}

/// Which FFT kernel drives the Fast-Lomb stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BackendChoice {
    /// The conventional split-radix FFT (the paper's baseline system).
    SplitRadix,
    /// The wavelet-based FFT with a pruning mode and policy.
    Wavelet {
        /// Wavelet basis (the paper settles on Haar).
        basis: WaveletBasis,
        /// Approximation degree.
        mode: ApproximationMode,
        /// Static or dynamic pruning.
        policy: PruningPolicy,
    },
}

impl BackendChoice {
    /// The paper's proposed operating point: Haar + band drop + Set3,
    /// static.
    pub fn proposed_set3() -> Self {
        BackendChoice::Wavelet {
            basis: WaveletBasis::Haar,
            mode: ApproximationMode::BandDropSet3,
            policy: PruningPolicy::Static,
        }
    }
}

/// Full configuration of a [`crate::PsaSystem`].
#[derive(Clone, Debug, PartialEq)]
pub struct PsaConfig {
    /// FFT/mesh length (paper: 512).
    pub fft_len: usize,
    /// Lomb oversampling factor.
    pub ofac: f64,
    /// Sliding-window duration in seconds (paper: 120).
    pub window_duration: f64,
    /// Window overlap fraction (paper: 0.5).
    pub overlap: f64,
    /// Highest analysed frequency in hertz.
    pub max_freq: f64,
    /// Taper applied to each segment.
    pub window: Window,
    /// How RR samples are placed on the FFT mesh. The paper resamples the
    /// tachogram onto the full mesh (≈ 4 Hz, Fig. 3(a)); exact
    /// Press–Rybicki extirpolation is available as an ablation.
    pub mesh: MeshStrategy,
    /// FFT kernel choice.
    pub backend: BackendChoice,
}

impl PsaConfig {
    /// The paper's conventional system: split-radix, 512-point FFT,
    /// 2-minute windows with 50 % overlap.
    pub fn conventional() -> Self {
        PsaConfig {
            fft_len: 512,
            ofac: 2.0,
            window_duration: 120.0,
            overlap: 0.5,
            max_freq: 0.5,
            window: Window::Rectangular,
            mesh: MeshStrategy::Resample,
            backend: BackendChoice::SplitRadix,
        }
    }

    /// The proposed system with a given basis, mode and policy.
    pub fn proposed(basis: WaveletBasis, mode: ApproximationMode, policy: PruningPolicy) -> Self {
        PsaConfig {
            backend: BackendChoice::Wavelet {
                basis,
                mode,
                policy,
            },
            ..Self::conventional()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::InvalidConfig`] for non-power-of-two FFT
    /// lengths, an extirpolation order outside `1..=fft_len`, `ofac < 1`,
    /// non-positive durations, out-of-range overlap or non-positive
    /// `max_freq`.
    pub fn validate(&self) -> Result<(), PsaError> {
        if !hrv_dsp::is_power_of_two(self.fft_len) || self.fft_len < 8 {
            return Err(PsaError::InvalidConfig(format!(
                "fft_len must be a power of two ≥ 8, got {}",
                self.fft_len
            )));
        }
        if let MeshStrategy::Extirpolate { order } = self.mesh {
            if !(1..=self.fft_len).contains(&order) {
                return Err(PsaError::InvalidConfig(format!(
                    "extirpolation order must be in 1..={}, got {order}",
                    self.fft_len
                )));
            }
        }
        if self.ofac < 1.0 {
            return Err(PsaError::InvalidConfig(format!(
                "ofac must be ≥ 1, got {}",
                self.ofac
            )));
        }
        if self.window_duration <= 0.0 {
            return Err(PsaError::InvalidConfig(
                "window duration must be positive".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.overlap) {
            return Err(PsaError::InvalidConfig(format!(
                "overlap must be in [0, 1), got {}",
                self.overlap
            )));
        }
        if self.max_freq <= 0.0 {
            return Err(PsaError::InvalidConfig("max_freq must be positive".into()));
        }
        Ok(())
    }
}

impl Default for PsaConfig {
    fn default() -> Self {
        Self::conventional()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = PsaConfig::conventional();
        assert_eq!(c.fft_len, 512);
        assert_eq!(c.window_duration, 120.0);
        assert_eq!(c.overlap, 0.5);
        assert_eq!(c.backend, BackendChoice::SplitRadix);
        assert!(c.validate().is_ok());
        assert_eq!(PsaConfig::default(), c);
    }

    #[test]
    fn proposed_config_carries_choice() {
        let c = PsaConfig::proposed(
            WaveletBasis::Haar,
            ApproximationMode::BandDropSet2,
            PruningPolicy::Dynamic,
        );
        match c.backend {
            BackendChoice::Wavelet {
                basis,
                mode,
                policy,
            } => {
                assert_eq!(basis, WaveletBasis::Haar);
                assert_eq!(mode, ApproximationMode::BandDropSet2);
                assert_eq!(policy, PruningPolicy::Dynamic);
            }
            _ => panic!("expected wavelet backend"),
        }
    }

    #[test]
    fn mode_maps_to_prune_config() {
        assert!(ApproximationMode::Exact.prune_config().is_exact());
        assert!(ApproximationMode::BandDrop.prune_config().band_drop);
        assert_eq!(
            ApproximationMode::BandDropSet3
                .prune_config()
                .twiddle_fraction,
            0.6
        );
        assert_eq!(ApproximationMode::ALL.len(), 5);
        assert_eq!(ApproximationMode::TABLE1.len(), 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = PsaConfig::conventional();
        c.fft_len = 500;
        assert!(matches!(c.validate(), Err(PsaError::InvalidConfig(_))));
        let mut c = PsaConfig::conventional();
        c.ofac = 0.5;
        assert!(c.validate().is_err());
        let mut c = PsaConfig::conventional();
        c.overlap = 1.0;
        assert!(c.validate().is_err());
        let mut c = PsaConfig::conventional();
        c.max_freq = 0.0;
        assert!(c.validate().is_err());
        let mut c = PsaConfig::conventional();
        c.window_duration = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn displays() {
        assert_eq!(
            ApproximationMode::BandDropSet1.to_string(),
            "band-drop+set1"
        );
        assert_eq!(PruningPolicy::Dynamic.to_string(), "dynamic");
        assert!(matches!(
            BackendChoice::proposed_set3(),
            BackendChoice::Wavelet {
                policy: PruningPolicy::Static,
                ..
            }
        ));
    }
}
