//! HRV frequency bands, band powers and the sinus-arrhythmia decision.
//!
//! The paper's quality metric (§VI): total power in the low-frequency band
//! (0.04–0.15 Hz) over total power in the high-frequency band
//! (0.15–0.4 Hz). A ratio "much less than 1 indicates a sinus arrhythmia
//! condition" — respiratory sinus arrhythmia concentrates power at the
//! respiratory (HF) frequency.

use crate::periodogram::{grid_band_power, Periodogram};
use std::fmt;

/// A frequency band `[lo, hi)` in hertz.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FreqBand {
    /// Inclusive lower edge (Hz).
    pub lo: f64,
    /// Exclusive upper edge (Hz).
    pub hi: f64,
}

impl FreqBand {
    /// Ultra-low-frequency band (below the LF edge).
    pub const ULF: FreqBand = FreqBand {
        lo: 0.003,
        hi: 0.04,
    };
    /// Low-frequency band, 0.04–0.15 Hz (paper §VI).
    pub const LF: FreqBand = FreqBand { lo: 0.04, hi: 0.15 };
    /// High-frequency band, 0.15–0.4 Hz (paper §VI).
    pub const HF: FreqBand = FreqBand { lo: 0.15, hi: 0.4 };

    /// Band width in hertz.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// `true` when `f` lies inside the band.
    pub fn contains(&self, f: f64) -> bool {
        f >= self.lo && f < self.hi
    }
}

impl fmt::Display for FreqBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}-{:.3} Hz", self.lo, self.hi)
    }
}

/// Integrated powers of the standard HRV bands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BandPowers {
    /// Ultra-low-frequency power.
    pub ulf: f64,
    /// Low-frequency power (LFP).
    pub lf: f64,
    /// High-frequency power (HFP).
    pub hf: f64,
}

impl BandPowers {
    /// Integrates the standard bands of a periodogram.
    pub fn of(periodogram: &Periodogram) -> Self {
        band_powers(periodogram.freqs(), periodogram.power())
    }

    /// The LFP/HFP ratio — the paper's quality and detection metric.
    ///
    /// Returns `f64::INFINITY` when the HF power is zero.
    pub fn lf_hf_ratio(&self) -> f64 {
        if self.hf > 0.0 {
            self.lf / self.hf
        } else {
            f64::INFINITY
        }
    }
}

impl fmt::Display for BandPowers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ULF={:.4} LF={:.4} HF={:.4} LF/HF={:.4}",
            self.ulf,
            self.lf,
            self.hf,
            self.lf_hf_ratio()
        )
    }
}

/// Integrates the standard HRV bands straight from grid slices (the
/// allocation-free form of [`BandPowers::of`]).
// analyze::hot_path
pub fn band_powers(freqs: &[f64], power: &[f64]) -> BandPowers {
    let band = |b: FreqBand| grid_band_power(freqs, power, b.lo, b.hi);
    BandPowers {
        ulf: band(FreqBand::ULF),
        lf: band(FreqBand::LF),
        hf: band(FreqBand::HF),
    }
}

/// Threshold detector for sinus arrhythmia on the LFP/HFP ratio.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrhythmiaDetector {
    threshold: f64,
}

impl ArrhythmiaDetector {
    /// Creates a detector flagging `LF/HF < threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        ArrhythmiaDetector { threshold }
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// `true` when the band powers indicate sinus arrhythmia.
    pub fn detect(&self, powers: &BandPowers) -> bool {
        powers.lf_hf_ratio() < self.threshold
    }
}

impl Default for ArrhythmiaDetector {
    /// The paper's rule: a ratio "much less than 1"; the unit threshold is
    /// the natural operating point.
    fn default() -> Self {
        ArrhythmiaDetector { threshold: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spectrum_with(lf_level: f64, hf_level: f64) -> Periodogram {
        let df = 0.005;
        let freqs: Vec<f64> = (1..=100).map(|i| i as f64 * df).collect();
        let power = freqs
            .iter()
            .map(|&f| {
                if FreqBand::LF.contains(f) {
                    lf_level
                } else if FreqBand::HF.contains(f) {
                    hf_level
                } else {
                    0.01
                }
            })
            .collect();
        Periodogram::new(freqs, power)
    }

    #[test]
    fn band_definitions_match_paper() {
        assert_eq!(FreqBand::LF.lo, 0.04);
        assert_eq!(FreqBand::LF.hi, 0.15);
        assert_eq!(FreqBand::HF.lo, 0.15);
        assert_eq!(FreqBand::HF.hi, 0.4);
        assert!(FreqBand::LF.contains(0.1));
        assert!(!FreqBand::LF.contains(0.15));
        assert!((FreqBand::HF.width() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ratio_reflects_band_levels() {
        // Equal spectral density: power ratio equals width ratio.
        let powers = BandPowers::of(&spectrum_with(1.0, 1.0));
        let width_ratio = FreqBand::LF.width() / FreqBand::HF.width();
        assert!((powers.lf_hf_ratio() - width_ratio).abs() < 0.02);
    }

    #[test]
    fn arrhythmia_spectrum_is_detected() {
        // Dominant HF (respiratory) power → ratio ≪ 1 → detected.
        let powers = BandPowers::of(&spectrum_with(1.0, 5.0));
        assert!(powers.lf_hf_ratio() < 0.5);
        assert!(ArrhythmiaDetector::default().detect(&powers));
    }

    #[test]
    fn healthy_spectrum_is_not_detected() {
        let powers = BandPowers::of(&spectrum_with(5.0, 1.0));
        assert!(powers.lf_hf_ratio() > 1.0);
        assert!(!ArrhythmiaDetector::default().detect(&powers));
    }

    #[test]
    fn custom_threshold() {
        let det = ArrhythmiaDetector::new(0.5);
        assert_eq!(det.threshold(), 0.5);
        let powers = BandPowers {
            ulf: 0.0,
            lf: 0.6,
            hf: 1.0,
        };
        assert!(!det.detect(&powers)); // 0.6 ≥ 0.5
        assert!(ArrhythmiaDetector::new(0.7).detect(&powers));
    }

    #[test]
    fn zero_hf_gives_infinite_ratio() {
        let powers = BandPowers {
            ulf: 0.0,
            lf: 1.0,
            hf: 0.0,
        };
        assert!(powers.lf_hf_ratio().is_infinite());
        assert!(!ArrhythmiaDetector::default().detect(&powers));
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(FreqBand::LF.to_string(), "0.040-0.150 Hz");
        let powers = BandPowers {
            ulf: 0.1,
            lf: 0.2,
            hf: 0.4,
        };
        assert!(powers.to_string().contains("LF/HF=0.5000"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_threshold_rejected() {
        let _ = ArrhythmiaDetector::new(0.0);
    }
}
