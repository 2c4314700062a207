//! # hrv-core
//!
//! The paper's contribution assembled: a **quality-scalable,
//! energy-efficient PSA system** for heart-rate variability.
//!
//! * [`PsaConfig`] / [`PsaSystem`] — the Welch–Lomb pipeline of Fig. 1(a)
//!   with a pluggable FFT kernel: the conventional split-radix baseline or
//!   the pruned wavelet FFT ([`BackendChoice`], [`ApproximationMode`],
//!   [`PruningPolicy`]);
//! * [`training_meshes`] / [`BandSignificance`] — design-time calibration
//!   of the thresholds (eq. (3));
//! * [`NodeModel`] / [`energy_quality_sweep`] — the sensor-node energy
//!   assessment and the Table I / Fig. 9 trade-off sweep, including VFS;
//! * [`SpectralPlan`] / [`KernelCache`] — the shared execution layer: one
//!   planner describing every runnable configuration and one memoizing
//!   kernel store that batch, streaming and fleet front-ends all
//!   construct through;
//! * [`QualityController`] — the Q_DES-driven run-time mode selector of
//!   Fig. 2;
//! * [`QualityGovernor`] / [`DistortionGovernor`] /
//!   [`EnergyBudgetGovernor`] — the pluggable run-time governance layer:
//!   the distortion-chasing policy of Fig. 2 and a budget policy that
//!   spends per-stream joules against [`CostProfile`] predictions (the
//!   `govern` module docs carry a budget-mode quickstart);
//! * [`Telemetry`] — the shared counter/gauge/histogram registry
//!   (Prometheus-style text exposition) the server, benches and examples
//!   all report through;
//! * [`Tracer`] — lightweight pipeline span tracing behind a [`Clock`]
//!   trait, with a Chrome trace-event exporter and a slow-request log.
//!
//! # Examples
//!
//! ```
//! use hrv_core::{ApproximationMode, PruningPolicy, PsaConfig, PsaSystem};
//! use hrv_ecg::{Condition, SyntheticDatabase};
//! use hrv_wavelet::WaveletBasis;
//!
//! let record = SyntheticDatabase::new(2014).record(0, Condition::SinusArrhythmia, 360.0);
//!
//! // Conventional system...
//! let conventional = PsaSystem::new(PsaConfig::conventional())?;
//! let reference = conventional.analyze(&record.rr)?;
//!
//! // ...vs the proposed system with 60 % twiddle pruning:
//! let proposed = PsaSystem::new(PsaConfig::proposed(
//!     WaveletBasis::Haar,
//!     ApproximationMode::BandDropSet3,
//!     PruningPolicy::Static,
//! ))?;
//! let approximate = proposed.analyze(&record.rr)?;
//!
//! // Detection is preserved while operations drop.
//! assert!(reference.arrhythmia && approximate.arrhythmia);
//! assert!(approximate.total_ops().arithmetic() < reference.total_ops().arithmetic());
//! # Ok::<(), hrv_core::PsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod config;
mod energy;
mod error;
mod exec;
mod govern;
mod obs;
mod quality;
mod sweep;
mod sync;
mod system;
mod telemetry;
mod trace;

pub use calibrate::{training_meshes, BandSignificance};
pub use config::{ApproximationMode, BackendChoice, PruningPolicy, PsaConfig};
pub use energy::{EnergyAssessment, NodeModel};
pub use error::PsaError;
pub use exec::{CostProfile, KernelCache, KernelSpec, PlanKey, SpectralPlan, TrainingSet};
pub use govern::{
    BudgetState, CandidatePoint, Directive, DistortionGovernor, EnergyBudgetGovernor,
    QualityGovernor, WindowObservation,
};
pub use obs::{AlertState, AlertStatus, AlertTransition, HealthConfig, HealthEngine, Slo, SloKind};
pub use quality::{OperatingChoice, QualityController};
pub use sweep::{energy_quality_sweep, SweepResult, TradeoffPoint};
pub use sync::lock_unpoisoned;
pub use system::{HrvAnalysis, PsaSystem};
pub use telemetry::{
    validate_exposition, Counter, Gauge, Histogram, MetricKind, Telemetry, HISTOGRAM_BUCKETS,
};
pub use trace::{
    Clock, MockClock, MonotonicClock, SlowRequest, SpanRecord, Stage, Tracer, DEFAULT_RING_CAPACITY,
};
