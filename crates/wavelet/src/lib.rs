//! # hrv-wavelet
//!
//! Orthonormal wavelet machinery for the DATE 2014 HRV-PSA reproduction:
//! conjugate-quadrature filter banks ([`WaveletBasis`], [`FilterPair`]),
//! circular single-stage DWT analysis/synthesis ([`analysis_stage`],
//! [`analysis_into`], [`synthesis_stage`]). The single stage is the
//! building block of the paper's wavelet-based FFT in `hrv-wfft`.
//!
//! The analysis convention — `zL[m] = Σ_j h0[j]·x[(2m−j) mod N]`, circular,
//! orthonormal — is pinned by tests in `dwt.rs` and shared verbatim with
//! `hrv-wfft`, whose exactness proofs depend on it.
//!
//! # Examples
//!
//! ```
//! use hrv_dsp::{Cx, OpCount};
//! use hrv_wavelet::{analysis_stage, FilterPair, WaveletBasis};
//!
//! // RR-like smooth data put almost all their energy in the lowpass band:
//! let rr: Vec<Cx> = (0..256)
//!     .map(|i| Cx::real(0.8 + 0.05 * (i as f64 * 0.1).sin()))
//!     .collect();
//! let filters = FilterPair::new(WaveletBasis::Haar);
//! let mut ops = OpCount::default();
//! let (low, high) = analysis_stage(&rr, &filters, &mut ops);
//! let energy = |band: &[Cx]| band.iter().map(|z| z.norm_sqr()).sum::<f64>();
//! assert!(energy(&low) > 0.99 * (energy(&low) + energy(&high)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod dwt;

pub use basis::{FilterPair, InvalidFilterError, WaveletBasis};
pub use dwt::{
    analysis_into, analysis_stage, analysis_stage_real, synthesis_stage, synthesis_stage_real,
};
