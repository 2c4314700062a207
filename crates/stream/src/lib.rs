//! # hrv-stream
//!
//! Incremental, multi-tenant streaming analysis for the quality-scalable
//! PSA system — the paper's sliding-window pipeline (§II.A) and run-time
//! controller (Fig. 2) recast as a long-running service instead of a
//! batch entry point:
//!
//! * [`RrIngest`] — a bounded ring accepting raw beat times or RR
//!   intervals sample-by-sample, gating them with `hrv-delineate`'s
//!   plausibility rules (double detections, dropouts, out-of-order
//!   samples);
//! * [`SlidingLomb`] — the incremental Welch–Lomb engine: emits a
//!   batch-identical spectrum per hop while reusing the window-invariant
//!   weight half of the packed Fast-Lomb transform across windows (and a
//!   half-length real FFT for the data half), so each window costs
//!   measurably fewer operations than a from-scratch segment;
//! * [`OnlineQualityController`] — re-selects the
//!   `(ApproximationMode, PruningPolicy, VFS)` operating point per window
//!   from a rolling, audit-fed distortion estimate, with dwell and
//!   hysteresis so the configuration does not thrash;
//! * [`FleetScheduler`] — multiplexes thousands of patient streams across
//!   sharded scoped-thread workers (one scratch arena per worker, zero
//!   steady-state allocations per window on the default exact-kernel
//!   path) and reports aggregate throughput and energy via
//!   `hrv-node-sim`.
//!
//! All kernels are planned and built through `hrv-core`'s shared
//! execution layer ([`hrv_core::SpectralPlan`] + [`hrv_core::KernelCache`]):
//! the streaming engines are a second front-end over the same planner the
//! batch [`hrv_core::PsaSystem`] uses, so batch/stream equivalence holds
//! by construction and controller switches are cache lookups, not kernel
//! constructions.
//!
//! # Examples
//!
//! ```
//! use hrv_stream::{RrIngest, SlidingLomb, StreamScratch};
//!
//! let mut ingest = RrIngest::new();
//! let mut engine = SlidingLomb::paper_default();
//! let mut scratch = StreamScratch::new();
//! let mut windows = 0usize;
//!
//! // A live feed of detected beats (≈ 70 bpm with respiratory modulation):
//! let mut t = 0.0;
//! while t < 400.0 {
//!     let rr = 0.85 + 0.05 * (2.0 * std::f64::consts::PI * 0.25 * t).sin();
//!     t += rr;
//!     if ingest.push_beat(t) {
//!         while let Some((time, rr)) = ingest.pop() {
//!             engine.push(time, rr, &mut scratch, &mut |w| {
//!                 windows += 1;
//!                 assert!(w.lf_hf_ratio() < 1.0); // HF-dominated input
//!             });
//!         }
//!     }
//! }
//! engine.finish(&mut scratch, &mut |_| windows += 1);
//! assert!(windows >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod fleet;
mod ingest;
mod journal;
mod scratch;
mod sliding;

pub use controller::OnlineQualityController;
pub use fleet::{
    cohort_member, BatteryStatus, FleetConfig, FleetReport, FleetScheduler, StreamBudget,
    StreamBudgetStatus, StreamReport, BATTERY_LOW_SOC,
};
pub use ingest::{IngestStats, RrIngest};
pub use journal::{
    decode_events, encode_events, EventJournal, EventRecord, StreamEvent, SwitchReason,
    EVENT_JOURNAL_CAPACITY,
};
pub use scratch::{ScratchPool, StreamScratch};
pub use sliding::{band_powers, SlidingLomb, WindowView, AUDIT_BLOCK};
