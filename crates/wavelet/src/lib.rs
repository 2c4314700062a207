//! # hrv-wavelet
//!
//! Orthonormal wavelet machinery for the DATE 2014 HRV-PSA reproduction:
//! conjugate-quadrature filter banks ([`WaveletBasis`], [`FilterPair`]),
//! circular single-stage DWT analysis/synthesis, multilevel decomposition
//! ([`Decomposition`]) and the full binary wavelet-packet tree
//! ([`wavelet_packet`]) that underlies the paper's wavelet-based FFT.
//!
//! The analysis convention — `zL[m] = Σ_j h0[j]·x[(2m−j) mod N]`, circular,
//! orthonormal — is pinned by dense-matrix tests in `matrix.rs` and shared
//! verbatim with `hrv-wfft`, whose exactness proofs depend on it.
//!
//! # Examples
//!
//! ```
//! use hrv_wavelet::{Decomposition, WaveletBasis};
//! use hrv_dsp::OpCount;
//!
//! // RR-like smooth data are approximately sparse in the wavelet domain:
//! let rr: Vec<f64> = (0..256).map(|i| 0.8 + 0.05 * (i as f64 * 0.1).sin()).collect();
//! let mut ops = OpCount::default();
//! let dec = Decomposition::analyze(&rr, WaveletBasis::Haar, 1, &mut ops);
//! assert!(dec.approximation_energy_fraction() > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod dwt;
mod matrix;
mod multilevel;
mod packet;

pub use basis::{FilterPair, InvalidFilterError, WaveletBasis};
pub use dwt::{
    analysis_into, analysis_lowpass, analysis_stage, analysis_stage_real, synthesis_stage,
    synthesis_stage_real,
};
pub use matrix::{analysis_matrix, mat_vec, orthogonality_defect};
pub use multilevel::Decomposition;
pub use packet::{packet_energy, wavelet_packet};
