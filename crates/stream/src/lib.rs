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
//! * [`FleetScheduler`] — multiplexes thousands of patient streams across
//!   shards, each owning its streams and one scratch arena (zero
//!   steady-state allocations per window on every kernel, exact or
//!   pruned), and reports aggregate throughput and energy via
//!   `hrv-node-sim`. Samples enter through one batch feed
//!   ([`FleetScheduler::push_rr_batch`] /
//!   [`FleetScheduler::push_beat_batch`]), which an offline
//!   [`FleetScheduler::run`] uses to replay its synthetic cohort too.
//!   Each stream may carry a run-time governor from `hrv-core`
//!   ([`hrv_core::DistortionGovernor`] re-selects the
//!   `(ApproximationMode, PruningPolicy, VFS)` operating point per window
//!   from a rolling, audit-fed distortion estimate;
//!   [`hrv_core::EnergyBudgetGovernor`] spends a joule budget).
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

mod fleet;
mod ingest;
mod journal;
mod scratch;
mod sliding;

pub use fleet::{
    cohort_member, cohort_samples, BatteryStatus, FleetConfig, FleetReport, FleetScheduler,
    StreamBudget, StreamBudgetStatus, StreamReport, BATTERY_LOW_SOC,
};
pub use hrv_lomb::band_powers;
pub use ingest::{IngestStats, RrIngest};
pub use journal::{
    decode_events, encode_events, EventJournal, EventRecord, StreamEvent, SwitchReason,
    EVENT_JOURNAL_CAPACITY,
};
pub use scratch::StreamScratch;
pub use sliding::{SlidingLomb, WindowView, AUDIT_BLOCK};

/// The run-time controller as a stream holds it: a boxed
/// [`hrv_core::QualityGovernor`] fed one quality-only observation per
/// window.
#[cfg(test)]
mod controller {
    mod tests {
        use hrv_core::{
            ApproximationMode, DistortionGovernor, PruningPolicy, QualityController,
            QualityGovernor, SweepResult, TradeoffPoint, WindowObservation,
        };

        fn point(mode: ApproximationMode, err: f64, save: f64) -> TradeoffPoint {
            TradeoffPoint {
                mode,
                policy: PruningPolicy::Static,
                vfs: true,
                avg_ratio: 0.46,
                ratio_error_pct: err,
                energy_j: 1.0,
                savings_pct: save,
                cycle_ratio: 0.5,
                fft_cycle_ratio: 0.4,
                fft_savings_pct: save + 10.0,
                detection_rate: 1.0,
            }
        }

        fn governor(qdes: f64) -> DistortionGovernor {
            let sweep = SweepResult {
                conventional_ratio: 0.45,
                conventional_energy: 1.0,
                conventional_cycles: 1_000_000,
                points: vec![
                    point(ApproximationMode::BandDrop, 2.0, 40.0),
                    point(ApproximationMode::BandDropSet2, 4.0, 60.0),
                    point(ApproximationMode::BandDropSet3, 8.0, 80.0),
                ],
            };
            DistortionGovernor::new(QualityController::from_sweep(&sweep, true), qdes)
        }

        fn observe(ctrl: &mut dyn QualityGovernor, lf_hf: f64, exact: Option<f64>) -> bool {
            ctrl.observe_window(&WindowObservation::quality_only(lf_hf, exact))
                .choice
                .is_some()
        }

        #[test]
        fn excess_distortion_forces_exact_then_reenters() {
            let mut ctrl: Box<dyn QualityGovernor> =
                Box::new(governor(5.0).with_audit_period(1).with_ewma_alpha(1.0));
            // Observed error far above budget → immediate exact fallback.
            assert!(!observe(ctrl.as_mut(), 0.60, Some(0.45)));
            assert!(ctrl.distortion_estimate_pct() > 5.0);
            // While exact, audits read zero error; the estimate must decay
            // below the re-entry threshold before approximation resumes.
            let mut ctrl: Box<dyn QualityGovernor> =
                Box::new(governor(5.0).with_audit_period(1).with_dwell(1));
            let _ = observe(ctrl.as_mut(), 0.60, Some(0.45));
            assert_eq!(ctrl.current(), None);
            let lag = (0..40)
                .position(|_| observe(ctrl.as_mut(), 0.45, Some(0.45)))
                .expect("controller must re-enter approximation");
            assert!(
                lag >= 2,
                "re-entry must lag the first clean audit (hysteresis)"
            );
        }

        #[test]
        fn audit_schedule_follows_period() {
            let mut ctrl: Box<dyn QualityGovernor> = Box::new(governor(5.0).with_audit_period(4));
            let mut audit_flags = Vec::new();
            for _ in 0..8 {
                audit_flags.push(ctrl.should_audit());
                let _ = observe(ctrl.as_mut(), 0.45, None);
            }
            assert_eq!(
                audit_flags,
                vec![true, false, false, false, true, false, false, false]
            );
        }

        #[test]
        #[should_panic(expected = "Q_DES must be positive")]
        fn nan_budget_rejected() {
            let _ = governor(f64::NAN);
        }
    }
}
