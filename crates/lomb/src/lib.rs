//! # hrv-lomb
//!
//! Spectral estimation of unevenly sampled heart-rate data: the direct
//! Lomb periodogram (paper eq. (1)), the Press–Rybicki **Fast-Lomb**
//! pipeline (extirpolation + one packed FFT + Lomb combination, Fig. 1(a))
//! and the sliding-window **Welch–Lomb** time–frequency analysis, plus the
//! HRV band powers and LF/HF-ratio arrhythmia detector used as the paper's
//! quality metric.
//!
//! The FFT kernel is pluggable via [`hrv_dsp::FftBackend`]: the
//! conventional system uses the split-radix FFT, the quality-scalable
//! system swaps in the pruned wavelet FFT of `hrv-wfft` without touching
//! any other stage.
//!
//! Batch [`FastLomb::periodogram_profiled`] is the allocating reference
//! pipeline. [`LombFft::window`] runs the same stages on one window into a
//! reusable [`LombScratch`], allocating nothing once warm; the streaming
//! engine, its exact-reference audit and the cost probe all run it.
//!
//! # Examples
//!
//! ```
//! use hrv_dsp::{OpCount, SplitRadixFft};
//! use hrv_lomb::{ArrhythmiaDetector, BandPowers, FastLomb};
//!
//! // An RR series dominated by respiratory (0.25 Hz) modulation:
//! let mut t = 0.0;
//! let mut times = Vec::new();
//! let mut rr = Vec::new();
//! while t < 120.0 {
//!     let v = 0.85 + 0.06 * (2.0 * std::f64::consts::PI * 0.25 * t).sin();
//!     t += v;
//!     times.push(t);
//!     rr.push(v);
//! }
//! let backend = SplitRadixFft::new(512);
//! let p = FastLomb::new(512, 2.0).periodogram(&backend, &times, &rr, &mut OpCount::default());
//! let powers = BandPowers::of(&p);
//! assert!(ArrhythmiaDetector::default().detect(&powers)); // LF/HF ≪ 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bands;
mod direct;
mod extirpolate;
mod fast;
mod periodogram;
mod transform;
mod welch;

pub use bands::{band_powers, ArrhythmiaDetector, BandPowers, FreqBand};
pub use direct::lomb_direct;
pub use extirpolate::{extirpolate, DEFAULT_ORDER};
pub use fast::{blocks, FastLomb, MeshScratch, MeshStrategy};
pub use periodogram::Periodogram;
pub use transform::{LombFft, LombScratch, LombSpectrum};
pub use welch::{Segment, WelchAnalysis, WelchLomb, MIN_WINDOW_SAMPLES};
