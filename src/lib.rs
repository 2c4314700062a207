//! # hrv-psa
//!
//! A reproduction of *"A Quality-Scalable and Energy-Efficient Approach
//! for Spectral Analysis of Heart Rate Variability"* (Karakonstantis,
//! Sankaranarayanan, Sabry, Atienza, Burg — DATE 2014) as a Rust
//! workspace.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] (`hrv-core`) — the quality-scalable PSA system: pipeline,
//!   pruning modes, calibration, quality controller, energy sweep, the
//!   shared execution layer (`SpectralPlan` + `KernelCache` +
//!   `CostProfile`) both the batch and streaming front-ends construct
//!   through, and the pluggable governor layer (`QualityGovernor`:
//!   distortion-chasing and energy-budget policies);
//! * [`dsp`] (`hrv-dsp`) — complex arithmetic, split-radix FFT, windows,
//!   operation accounting;
//! * [`wavelet`] (`hrv-wavelet`) — orthonormal filter banks and DWT;
//! * [`wfft`] (`hrv-wfft`) — the wavelet-based FFT with band-drop and
//!   twiddle pruning (static & dynamic);
//! * [`lomb`] (`hrv-lomb`) — direct/Fast/Welch Lomb periodograms and HRV
//!   band powers;
//! * [`ecg`] (`hrv-ecg`) — synthetic RR/ECG generation (the MIT-BIH
//!   surrogate cohort);
//! * [`delineate`] (`hrv-delineate`) — Pan–Tompkins QRS detection;
//! * [`node_sim`] (`hrv-node-sim`) — the sensor-node cycle/energy/DVFS
//!   model and validation VM;
//! * [`stream`] (`hrv-stream`) — incremental streaming analysis:
//!   sample-by-sample RR ingestion, the sliding Welch–Lomb engine and
//!   the multi-patient fleet scheduler (its streams are governed by
//!   `hrv-core`'s policies);
//! * [`service`] (`hrv-service`) — the network gateway: length-prefixed
//!   wire protocol over TCP, session admission with backpressure, and
//!   fleet-backed streaming with shared telemetry.
//!
//! # Quickstart
//!
//! ```
//! use hrv_psa::core::{ApproximationMode, PruningPolicy, PsaConfig, PsaSystem};
//! use hrv_psa::ecg::{Condition, SyntheticDatabase};
//! use hrv_psa::wavelet::WaveletBasis;
//!
//! let rr = SyntheticDatabase::new(2014)
//!     .record(0, Condition::SinusArrhythmia, 360.0)
//!     .rr;
//! let system = PsaSystem::new(PsaConfig::proposed(
//!     WaveletBasis::Haar,
//!     ApproximationMode::BandDropSet3,
//!     PruningPolicy::Static,
//! ))?;
//! let analysis = system.analyze(&rr)?;
//! assert!(analysis.arrhythmia);
//! # Ok::<(), hrv_psa::core::PsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hrv_core as core;
pub use hrv_delineate as delineate;
pub use hrv_dsp as dsp;
pub use hrv_ecg as ecg;
pub use hrv_lomb as lomb;
pub use hrv_node_sim as node_sim;
pub use hrv_service as service;
pub use hrv_stream as stream;
pub use hrv_wavelet as wavelet;
pub use hrv_wfft as wfft;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use hrv_core::{
        energy_quality_sweep, validate_exposition, ApproximationMode, BackendChoice, CostProfile,
        DistortionGovernor, EnergyBudgetGovernor, Histogram, HrvAnalysis, KernelCache, MockClock,
        NodeModel, PruningPolicy, PsaConfig, PsaError, PsaSystem, QualityController,
        QualityGovernor, SpectralPlan, Telemetry, Tracer, TrainingSet,
    };
    pub use hrv_dsp::{Cx, FftBackend, OpCount, SplitRadixFft, Window};
    pub use hrv_ecg::{Condition, PatientRecord, RrSeries, SyntheticDatabase};
    pub use hrv_lomb::{ArrhythmiaDetector, BandPowers, FastLomb, FreqBand, WelchLomb};
    pub use hrv_node_sim::Battery;
    pub use hrv_service::{Gateway, GatewayConfig, ServiceClient, ServiceError, SessionConfig};
    pub use hrv_stream::{
        FleetConfig, FleetScheduler, RrIngest, SlidingLomb, StreamBudget, StreamReport,
        StreamScratch,
    };
    pub use hrv_wavelet::WaveletBasis;
    pub use hrv_wfft::{PruneConfig, PruneSet, PrunedWfft, WfftPlan};
}
