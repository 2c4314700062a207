//! The quality-governance layer: pluggable run-time policies that pick
//! the operating point per emitted window.
//!
//! The paper's quality scaling exists *to meet an energy budget* (§VI.B),
//! but a distortion-chasing controller alone is open-loop in energy: it
//! reacts to observed spectral error while joules only show up in a
//! post-mortem report. This module closes that loop by making the
//! decision-maker a first-class policy behind one trait:
//!
//! * [`QualityGovernor`] — the per-window decision interface. A governor
//!   observes each emitted window ([`WindowObservation`]: LF/HF ratio,
//!   audit reference, operation count, charged energy, battery state) and
//!   answers with a [`Directive`]: the [`OperatingChoice`] to run next
//!   (`None` = exact fallback) and the DVFS [`OperatingPoint`] to run it
//!   at.
//! * [`DistortionGovernor`] — the paper's Fig. 2 policy: chases a
//!   distortion target `Q_DES` from a rolling audit-fed error estimate,
//!   with dwell and hysteresis against thrash. It is the one online
//!   distortion controller (the fleet, the gateway and the streaming
//!   tests all drive it directly), decision-identical to the original
//!   controller it was extracted from — asserted bit-for-bit on recorded
//!   traces in `tests/governor.rs`.
//! * [`EnergyBudgetGovernor`] — the budget policy: spends a per-stream
//!   joule budget over a reporting interval, picking per window the
//!   highest-quality [`CandidatePoint`] whose predicted energy fits the
//!   remaining allowance (falling back to the cheapest when nothing
//!   fits), scaled by the battery's state of charge so a draining node
//!   sheds quality before it browns out.
//!
//! Predictions come from the plan layer: `hrv-core`'s
//! [`crate::CostProfile`] (memoized by [`crate::KernelCache`] per
//! [`crate::SpectralPlan`]) measures each kernel's per-window operation
//! count on a probe window and converts it to joules at a candidate's
//! operating point — the same conversion the fleet uses to charge real
//! windows, so predicted and charged energy can be compared directly.
//!
//! # Budget-mode quickstart
//!
//! ```
//! use hrv_core::{
//!     ApproximationMode, CandidatePoint, Directive, EnergyBudgetGovernor, OperatingChoice,
//!     PruningPolicy, QualityGovernor, WindowObservation,
//! };
//! use hrv_node_sim::OperatingPoint;
//!
//! // Two candidates: the exact kernel and one cheap approximation.
//! let exact = CandidatePoint {
//!     choice: None,
//!     expected_error_pct: 0.0,
//!     predicted_energy_j: 2e-3,
//!     opp: OperatingPoint::nominal(),
//! };
//! let cheap = CandidatePoint {
//!     choice: Some(OperatingChoice {
//!         mode: ApproximationMode::BandDropSet3,
//!         policy: PruningPolicy::Static,
//!         vfs: true,
//!         expected_error_pct: 8.0,
//!         expected_savings_pct: 80.0,
//!     }),
//!     expected_error_pct: 8.0,
//!     predicted_energy_j: 1e-3,
//!     opp: OperatingPoint { voltage: 0.7, frequency: 50.0e6 },
//! };
//!
//! // 15 mJ per 10-window interval: the exact kernel (2 mJ/window) never
//! // fits the 1.5 mJ allowance, so the governor holds the cheap point
//! // and its scaled-down operating point.
//! let mut governor = EnergyBudgetGovernor::new(vec![exact, cheap], 1.5e-2, 10);
//! let Directive { choice, opp } = governor.observe_window(&WindowObservation {
//!     lf_hf: 0.45,
//!     exact_lf_hf: None,
//!     energy_j: 1e-3,
//!     battery_soc: 1.0,
//! });
//! assert_eq!(choice.unwrap().mode, ApproximationMode::BandDropSet3);
//! assert!(opp.voltage < 1.0);
//! ```

use crate::quality::{OperatingChoice, QualityController};
use hrv_node_sim::OperatingPoint;
use std::fmt;

/// What a governor sees for one emitted window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowObservation {
    /// The window's LF/HF ratio (under the active kernel).
    pub lf_hf: f64,
    /// The exact-kernel LF/HF ratio, present on audit windows (and always
    /// when the exact kernel is active).
    pub exact_lf_hf: Option<f64>,
    /// Energy charged for this window at the active operating point
    /// (joules); 0 when the caller does no energy accounting.
    pub energy_j: f64,
    /// Battery state of charge in `[0, 1]`; 1.0 when the stream has no
    /// battery attached.
    pub battery_soc: f64,
}

impl WindowObservation {
    /// An observation carrying only the quality signal — what
    /// distortion-only callers without energy accounting feed.
    pub fn quality_only(lf_hf: f64, exact_lf_hf: Option<f64>) -> Self {
        WindowObservation {
            lf_hf,
            exact_lf_hf,
            energy_j: 0.0,
            battery_soc: 1.0,
        }
    }
}

/// A governor's verdict: what to run for the next window, and at which
/// DVFS operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Directive {
    /// The operating configuration (`None` = exact fallback).
    pub choice: Option<OperatingChoice>,
    /// The voltage/frequency point the next window should run at.
    pub opp: OperatingPoint,
}

/// A run-time quality-governance policy; see the module docs.
///
/// Governors are driven per emitted window and must be deterministic
/// functions of their observation history — that is what keeps sharded
/// fleet runs bit-identical to serial ones.
pub trait QualityGovernor: fmt::Debug + Send {
    /// Feeds one emitted window; returns the directive for the next one.
    fn observe_window(&mut self, obs: &WindowObservation) -> Directive;

    /// The configuration currently in force (`None` = exact fallback).
    fn current(&self) -> Option<OperatingChoice>;

    /// The operating point currently in force.
    fn operating_point(&self) -> OperatingPoint;

    /// `true` when the *next* window should carry an exact audit
    /// reference.
    fn should_audit(&self) -> bool;

    /// Windows observed so far.
    fn windows(&self) -> u64;

    /// Audited windows so far.
    fn audits(&self) -> u64;

    /// Configuration switches so far.
    fn switches(&self) -> u64;

    /// Rolling distortion estimate in percent (0 when the policy does not
    /// track one).
    fn distortion_estimate_pct(&self) -> f64 {
        0.0
    }

    /// The budget-accounting state, for policies that spend one
    /// ([`EnergyBudgetGovernor`]); `None` otherwise.
    fn budget(&self) -> Option<BudgetState> {
        None
    }
}

// ---- the distortion policy (paper Fig. 2) ---------------------------------

/// Fraction of `Q_DES` the distortion estimate must decay below before a
/// [`DistortionGovernor`] leaves the exact fallback.
const REENTRY_FRACTION: f64 = 0.6;

/// The `Q_DES`-chasing policy: re-evaluates the design-time selection per
/// window against a rolling audit-fed distortion estimate. Two mechanisms
/// keep the configuration from thrashing:
///
/// * a **dwell** requirement — a new target must win for several
///   consecutive windows before the switch happens;
/// * a **hysteresis band** around the exact-fallback decision — once the
///   estimate exceeds `Q_DES` the governor drops to the exact kernel and
///   only re-enters approximation after the estimate decays below
///   `0.6 · Q_DES`.
///
/// Observed distortion also *tightens* the budget: the governor tracks
/// the ratio of observed to expected error for the running configuration
/// and deflates `Q_DES` by that inflation factor (clamped ≥ 1, so the
/// design-time expectation is never trusted less than the evidence).
///
/// This is the decision-identical extraction of the original online
/// quality controller; its switch sequences are locked to recorded
/// pre-refactor traces in `tests/governor.rs`.
#[derive(Clone, Debug)]
pub struct DistortionGovernor {
    inner: QualityController,
    qdes_pct: f64,
    audit_period: u64,
    dwell: usize,
    alpha: f64,
    current: Option<OperatingChoice>,
    pending: Option<Option<OperatingChoice>>,
    pending_streak: usize,
    err_ewma_pct: f64,
    inflation: f64,
    seeded: bool,
    forced_exact: bool,
    /// The rail every directive runs at (the node model's nominal point;
    /// this policy scales quality, not voltage).
    nominal: OperatingPoint,
    windows: u64,
    audits: u64,
    switches: u64,
}

impl DistortionGovernor {
    /// Wraps a design-time controller with an online distortion budget of
    /// `qdes_pct` percent.
    ///
    /// # Panics
    ///
    /// Panics unless `qdes_pct` is finite and positive (a NaN or infinite
    /// target would poison every later comparison).
    pub fn new(inner: QualityController, qdes_pct: f64) -> Self {
        assert!(
            qdes_pct.is_finite() && qdes_pct > 0.0,
            "Q_DES must be positive"
        );
        let current = inner.select(qdes_pct);
        DistortionGovernor {
            inner,
            qdes_pct,
            audit_period: 8,
            dwell: 3,
            alpha: 0.25,
            current,
            pending: None,
            pending_streak: 0,
            err_ewma_pct: 0.0,
            inflation: 1.0,
            seeded: false,
            forced_exact: false,
            nominal: OperatingPoint::nominal(),
            windows: 0,
            audits: 0,
            switches: 0,
        }
    }

    /// Audit every `period` windows (default 8).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_audit_period(mut self, period: u64) -> Self {
        assert!(period > 0, "audit period must be positive");
        self.audit_period = period;
        self
    }

    /// The operating point directives carry (default
    /// [`OperatingPoint::nominal`]). Callers with a non-default node
    /// model pass its nominal point here so energy accounting charges
    /// windows at the rail the node actually runs.
    pub fn with_operating_point(mut self, nominal: OperatingPoint) -> Self {
        self.nominal = nominal;
        self
    }

    /// Windows a new target must persist before switching (default 3).
    ///
    /// # Panics
    ///
    /// Panics if `dwell` is zero.
    pub fn with_dwell(mut self, dwell: usize) -> Self {
        assert!(dwell > 0, "dwell must be positive");
        self.dwell = dwell;
        self
    }

    /// EWMA weight of a new audit observation (default 0.25).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha ≤ 1`.
    pub fn with_ewma_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        self.alpha = alpha;
        self
    }

    /// The distortion budget in percent.
    pub fn qdes_pct(&self) -> f64 {
        self.qdes_pct
    }

    /// The configuration the evidence currently argues for, before
    /// dwell-based smoothing.
    fn target(&mut self) -> Option<OperatingChoice> {
        if self.err_ewma_pct > self.qdes_pct {
            self.forced_exact = true;
        } else if self.forced_exact && self.err_ewma_pct <= REENTRY_FRACTION * self.qdes_pct {
            self.forced_exact = false;
        }
        if self.forced_exact {
            return None;
        }
        self.inner.select(self.qdes_pct / self.inflation)
    }

    fn apply_hysteresis(&mut self, target: Option<OperatingChoice>) {
        if target == self.current {
            self.pending = None;
            self.pending_streak = 0;
            return;
        }
        if self.pending == Some(target) {
            self.pending_streak += 1;
        } else {
            self.pending = Some(target);
            self.pending_streak = 1;
        }
        // A safety *downgrade* to exact takes effect immediately; upgrades
        // and lateral moves wait out the dwell.
        if target.is_none() && self.forced_exact {
            self.current = None;
            self.pending = None;
            self.pending_streak = 0;
            self.switches += 1;
            return;
        }
        if self.pending_streak >= self.dwell {
            self.current = target;
            self.pending = None;
            self.pending_streak = 0;
            self.switches += 1;
        }
    }
}

impl QualityGovernor for DistortionGovernor {
    fn observe_window(&mut self, obs: &WindowObservation) -> Directive {
        self.windows += 1;
        if let Some(exact) = obs.exact_lf_hf {
            self.audits += 1;
            let err_pct = 100.0 * (obs.lf_hf - exact).abs() / exact.abs().max(1e-9);
            if self.seeded {
                self.err_ewma_pct = self.alpha * err_pct + (1.0 - self.alpha) * self.err_ewma_pct;
            } else {
                self.err_ewma_pct = err_pct;
                self.seeded = true;
            }
            // How far reality deviates from the design-time expectation of
            // the configuration that produced this window. While the exact
            // fallback runs, audits carry no information about the
            // approximate kernels, so model mistrust ages out slowly
            // (slower than the distortion EWMA: re-entry lands on a safer
            // configuration than the one that overran the budget).
            match self.current {
                Some(current) if current.expected_error_pct > 0.0 => {
                    let observed = (err_pct / current.expected_error_pct).clamp(1.0, 10.0);
                    self.inflation =
                        (self.alpha * observed + (1.0 - self.alpha) * self.inflation).max(1.0);
                }
                _ => {
                    const INFLATION_DECAY: f64 = 0.95;
                    self.inflation = 1.0 + (self.inflation - 1.0) * INFLATION_DECAY;
                }
            }
        }

        let target = self.target();
        self.apply_hysteresis(target);
        Directive {
            choice: self.current,
            opp: self.nominal,
        }
    }

    fn current(&self) -> Option<OperatingChoice> {
        self.current
    }

    fn operating_point(&self) -> OperatingPoint {
        self.nominal
    }

    fn should_audit(&self) -> bool {
        self.windows.is_multiple_of(self.audit_period)
    }

    fn windows(&self) -> u64 {
        self.windows
    }

    fn audits(&self) -> u64 {
        self.audits
    }

    fn switches(&self) -> u64 {
        self.switches
    }

    fn distortion_estimate_pct(&self) -> f64 {
        self.err_ewma_pct
    }
}

// ---- the budget policy ----------------------------------------------------

/// One selectable operating point of a budget policy, with its plan-layer
/// cost prediction attached (see [`crate::CostProfile`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CandidatePoint {
    /// The configuration (`None` = exact fallback).
    pub choice: Option<OperatingChoice>,
    /// Expected ratio distortion (percent; 0 for exact).
    pub expected_error_pct: f64,
    /// Predicted per-window energy at `opp` (joules): the kernel's
    /// [`crate::CostProfile::predict`] operations converted at `opp`.
    pub predicted_energy_j: f64,
    /// The DVFS operating point this candidate runs at: one rung of
    /// [`crate::CostProfile::ladder`].
    pub opp: OperatingPoint,
}

/// The budget-accounting state of an [`EnergyBudgetGovernor`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BudgetState {
    /// Joule budget per reporting interval.
    pub budget_j: f64,
    /// Reporting interval in windows.
    pub interval_windows: u64,
    /// Energy charged so far in the current interval (joules).
    pub spent_j: f64,
    /// Window position inside the current interval.
    pub window_in_interval: u64,
}

/// The budget policy: makes energy a runtime *input* instead of a
/// post-mortem. Every window's charged energy is debited against a joule
/// budget per reporting interval; the governor then picks the
/// highest-quality candidate whose predicted per-window energy fits the
/// remaining per-window allowance, falling back to the cheapest candidate
/// when nothing fits. The battery's state of charge scales the effective
/// budget, so a draining node sheds quality smoothly instead of browning
/// out at full fidelity. A dwell requirement (default 3 windows) keeps
/// the selection from thrashing on allowance jitter.
///
/// Candidates are quality-ordered at construction: ascending expected
/// distortion first, then descending voltage (a higher rail is more
/// timing margin — the dimension a DVFS ladder trades), then ascending
/// predicted energy (at equal distortion and rail, the cheaper kernel is
/// strictly better). Selection walks that order and takes the first
/// candidate that fits, so a loose→tight budget sweep yields
/// monotonically non-increasing energy per window (asserted by the
/// budget smoke in `fleet_throughput`).
#[derive(Clone, Debug)]
pub struct EnergyBudgetGovernor {
    /// Quality-ordered candidates (best first).
    candidates: Vec<CandidatePoint>,
    /// Index of the cheapest candidate (the "nothing fits" fallback).
    cheapest: usize,
    budget_j: f64,
    interval_windows: u64,
    audit_period: u64,
    dwell: usize,
    spent_j: f64,
    window_in_interval: u64,
    current: usize,
    pending: Option<usize>,
    pending_streak: usize,
    err_ewma_pct: f64,
    seeded: bool,
    windows: u64,
    audits: u64,
    switches: u64,
}

impl EnergyBudgetGovernor {
    /// Builds the policy over `candidates` with `budget_j` joules to
    /// spend per `interval_windows`-window reporting interval. The
    /// initial selection assumes a full battery and an empty interval.
    ///
    /// # Panics
    ///
    /// Panics when `candidates` is empty, `budget_j` is not finite and
    /// positive, `interval_windows` is zero, or any candidate carries a
    /// non-finite prediction.
    pub fn new(mut candidates: Vec<CandidatePoint>, budget_j: f64, interval_windows: u64) -> Self {
        assert!(!candidates.is_empty(), "budget policy needs candidates");
        assert!(
            budget_j.is_finite() && budget_j > 0.0,
            "budget must be finite and positive"
        );
        assert!(interval_windows > 0, "interval must be positive");
        assert!(
            candidates
                .iter()
                .all(|c| c.predicted_energy_j.is_finite() && c.expected_error_pct.is_finite()),
            "candidate predictions must be finite"
        );
        // Quality order: ascending expected distortion, then descending
        // rail voltage (timing margin), then ascending energy (at equal
        // quality and rail the cheaper kernel is strictly better).
        candidates.sort_by(|a, b| {
            a.expected_error_pct
                .partial_cmp(&b.expected_error_pct)
                .expect("finite errors")
                .then(
                    b.opp
                        .voltage
                        .partial_cmp(&a.opp.voltage)
                        .expect("finite voltages"),
                )
                .then(
                    a.predicted_energy_j
                        .partial_cmp(&b.predicted_energy_j)
                        .expect("finite predictions"),
                )
        });
        let cheapest = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.predicted_energy_j
                    .partial_cmp(&b.predicted_energy_j)
                    .expect("finite predictions")
            })
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut governor = EnergyBudgetGovernor {
            candidates,
            cheapest,
            budget_j,
            interval_windows,
            audit_period: 8,
            dwell: 3,
            spent_j: 0.0,
            window_in_interval: 0,
            current: 0,
            pending: None,
            pending_streak: 0,
            err_ewma_pct: 0.0,
            seeded: false,
            windows: 0,
            audits: 0,
            switches: 0,
        };
        governor.current = governor.target(1.0);
        governor
    }

    /// Audit every `period` windows (default 8). Audits cost extra energy
    /// but keep the distortion estimate honest.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_audit_period(mut self, period: u64) -> Self {
        assert!(period > 0, "audit period must be positive");
        self.audit_period = period;
        self
    }

    /// Windows a new target must persist before switching (default 3).
    ///
    /// # Panics
    ///
    /// Panics if `dwell` is zero.
    pub fn with_dwell(mut self, dwell: usize) -> Self {
        assert!(dwell > 0, "dwell must be positive");
        self.dwell = dwell;
        self
    }

    /// The candidates in quality order (highest fidelity first).
    pub fn candidates(&self) -> &[CandidatePoint] {
        &self.candidates
    }

    /// The candidate index the evidence argues for: the best-quality
    /// point whose prediction fits the remaining per-window allowance.
    fn target(&self, battery_soc: f64) -> usize {
        let effective = self.budget_j * battery_soc.clamp(0.0, 1.0);
        let remaining_windows = (self.interval_windows - self.window_in_interval).max(1);
        let allowance = (effective - self.spent_j) / remaining_windows as f64;
        self.candidates
            .iter()
            .position(|c| c.predicted_energy_j <= allowance)
            .unwrap_or(self.cheapest)
    }

    fn apply_dwell(&mut self, target: usize) {
        if target == self.current {
            self.pending = None;
            self.pending_streak = 0;
            return;
        }
        if self.pending == Some(target) {
            self.pending_streak += 1;
        } else {
            self.pending = Some(target);
            self.pending_streak = 1;
        }
        if self.pending_streak >= self.dwell {
            self.current = target;
            self.pending = None;
            self.pending_streak = 0;
            self.switches += 1;
        }
    }
}

impl QualityGovernor for EnergyBudgetGovernor {
    fn observe_window(&mut self, obs: &WindowObservation) -> Directive {
        self.windows += 1;
        if let Some(exact) = obs.exact_lf_hf {
            self.audits += 1;
            let err_pct = 100.0 * (obs.lf_hf - exact).abs() / exact.abs().max(1e-9);
            const ALPHA: f64 = 0.25;
            self.err_ewma_pct = if self.seeded {
                ALPHA * err_pct + (1.0 - ALPHA) * self.err_ewma_pct
            } else {
                err_pct
            };
            self.seeded = true;
        }
        // Debit the window, then re-plan what is left of the interval.
        self.spent_j += obs.energy_j.max(0.0);
        self.window_in_interval += 1;
        if self.window_in_interval >= self.interval_windows {
            self.window_in_interval = 0;
            self.spent_j = 0.0;
        }
        let target = self.target(obs.battery_soc);
        self.apply_dwell(target);
        let selected = &self.candidates[self.current];
        Directive {
            choice: selected.choice,
            opp: selected.opp,
        }
    }

    fn current(&self) -> Option<OperatingChoice> {
        self.candidates[self.current].choice
    }

    fn operating_point(&self) -> OperatingPoint {
        self.candidates[self.current].opp
    }

    fn should_audit(&self) -> bool {
        self.windows.is_multiple_of(self.audit_period)
    }

    fn windows(&self) -> u64 {
        self.windows
    }

    fn audits(&self) -> u64 {
        self.audits
    }

    fn switches(&self) -> u64 {
        self.switches
    }

    fn distortion_estimate_pct(&self) -> f64 {
        self.err_ewma_pct
    }

    fn budget(&self) -> Option<BudgetState> {
        Some(BudgetState {
            budget_j: self.budget_j,
            interval_windows: self.interval_windows,
            spent_j: self.spent_j,
            window_in_interval: self.window_in_interval,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ApproximationMode, PruningPolicy};
    use crate::sweep::{SweepResult, TradeoffPoint};

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

    fn distortion_governor(qdes: f64) -> DistortionGovernor {
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

    fn obs(lf_hf: f64, exact: Option<f64>) -> WindowObservation {
        WindowObservation::quality_only(lf_hf, exact)
    }

    #[test]
    fn starts_from_design_time_selection() {
        let gov = distortion_governor(5.0);
        assert_eq!(
            gov.current().expect("choice").mode,
            ApproximationMode::BandDropSet2
        );
        let generous = distortion_governor(10.0);
        assert_eq!(
            generous.current().expect("choice").mode,
            ApproximationMode::BandDropSet3
        );
    }

    #[test]
    fn distortion_governor_forces_exact_then_reenters() {
        let mut gov = distortion_governor(5.0).with_audit_period(1).with_dwell(1);
        let d = gov.observe_window(&obs(0.60, Some(0.45)));
        assert_eq!(d.choice, None, "over budget → exact fallback");
        assert_eq!(d.opp, OperatingPoint::nominal());
        let mut reentered = None;
        for i in 0..40 {
            if gov.observe_window(&obs(0.45, Some(0.45))).choice.is_some() {
                reentered = Some(i);
                break;
            }
        }
        assert!(reentered.expect("must re-enter") >= 2, "hysteresis lag");
        assert!(gov.switches() >= 2);
        assert_eq!(gov.windows(), gov.audits());
    }

    #[test]
    fn distortion_governor_audit_schedule() {
        let mut gov = distortion_governor(5.0).with_audit_period(4);
        let mut flags = Vec::new();
        for _ in 0..8 {
            flags.push(gov.should_audit());
            let _ = gov.observe_window(&obs(0.45, None));
        }
        assert_eq!(
            flags,
            vec![true, false, false, false, true, false, false, false]
        );
        assert_eq!(gov.audits(), 0, "caller controls when audits happen");
    }

    #[test]
    fn dwell_prevents_thrash_on_oscillating_evidence() {
        let mut gov = distortion_governor(5.0).with_audit_period(1).with_dwell(4);
        // Alternate between clean (3 %) and inflated (6 %) audits: the
        // inflation-deflated budget flips the instantaneous target across
        // the Set2/BandDrop boundary, but dwell keeps the configuration
        // stable.
        for i in 0..60 {
            let approx = if i % 2 == 0 { 0.45 * 1.03 } else { 0.45 * 1.06 };
            let _ = gov.observe_window(&obs(approx, Some(0.45)));
        }
        assert!(gov.current().is_some(), "evidence stays within budget");
        assert!(
            gov.switches() <= 4,
            "oscillating evidence caused {} switches",
            gov.switches()
        );
        assert_eq!(gov.audits(), 60);
        assert_eq!(gov.windows(), 60);
    }

    #[test]
    fn reentry_after_overrun_lands_on_a_safer_configuration() {
        // Start at Set2 (expected 4 %), overrun the budget hard, then feed
        // clean audits: the governor must come back — but the lingering
        // inflation must make it re-enter at the safer BandDrop point, not
        // jump straight back to the configuration that overran.
        let mut gov = distortion_governor(5.0).with_audit_period(1).with_dwell(1);
        assert_eq!(
            gov.current().expect("choice").mode,
            ApproximationMode::BandDropSet2
        );
        let _ = gov.observe_window(&obs(0.60, Some(0.45))); // ~33 % error
        assert_eq!(gov.current(), None, "over budget → exact fallback");
        let choice = (0..40)
            .find_map(|_| gov.observe_window(&obs(0.45, Some(0.45))).choice)
            .expect("must re-enter approximation");
        assert_eq!(
            choice.mode,
            ApproximationMode::BandDrop,
            "re-entry must pick the safer configuration"
        );
    }

    #[test]
    #[should_panic(expected = "Q_DES must be positive")]
    fn zero_qdes_rejected() {
        let _ = distortion_governor(0.0);
    }

    #[test]
    #[should_panic(expected = "Q_DES must be positive")]
    fn non_finite_qdes_rejected() {
        let _ = distortion_governor(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "Q_DES must be positive")]
    fn infinite_qdes_rejected() {
        let _ = distortion_governor(f64::INFINITY);
    }

    fn candidate(
        mode: Option<ApproximationMode>,
        err: f64,
        energy: f64,
        voltage: f64,
    ) -> CandidatePoint {
        CandidatePoint {
            choice: mode.map(|mode| OperatingChoice {
                mode,
                policy: PruningPolicy::Static,
                vfs: true,
                expected_error_pct: err,
                expected_savings_pct: 0.0,
            }),
            expected_error_pct: err,
            predicted_energy_j: energy,
            opp: OperatingPoint {
                voltage,
                frequency: voltage * 100.0e6,
            },
        }
    }

    fn budget_candidates() -> Vec<CandidatePoint> {
        vec![
            candidate(None, 0.0, 4.0, 1.0),
            candidate(Some(ApproximationMode::BandDrop), 2.0, 3.0, 0.9),
            candidate(Some(ApproximationMode::BandDropSet2), 4.0, 2.0, 0.8),
            candidate(Some(ApproximationMode::BandDropSet3), 8.0, 1.0, 0.7),
        ]
    }

    #[test]
    fn loose_budget_holds_the_exact_point() {
        let mut gov = EnergyBudgetGovernor::new(budget_candidates(), 100.0, 10);
        assert_eq!(gov.current(), None, "plenty of budget → highest quality");
        for _ in 0..30 {
            let d = gov.observe_window(&WindowObservation {
                lf_hf: 0.45,
                exact_lf_hf: None,
                energy_j: 4.0,
                battery_soc: 1.0,
            });
            assert_eq!(d.choice, None);
            assert_eq!(d.opp, OperatingPoint::nominal());
        }
        assert_eq!(gov.switches(), 0);
    }

    #[test]
    fn tight_budget_selects_a_cheaper_point_with_its_opp() {
        // 15 J / 10 windows = 1.5 J per window: only the Set3 point fits.
        let mut gov = EnergyBudgetGovernor::new(budget_candidates(), 15.0, 10).with_dwell(1);
        let d = gov.observe_window(&WindowObservation {
            lf_hf: 0.45,
            exact_lf_hf: None,
            energy_j: 1.0,
            battery_soc: 1.0,
        });
        assert_eq!(
            d.choice.expect("approximate").mode,
            ApproximationMode::BandDropSet3
        );
        assert!(
            (d.opp.voltage - 0.7).abs() < 1e-12,
            "candidate's DVFS point"
        );
        let state = gov.budget().expect("budget policy");
        assert_eq!(state.budget_j, 15.0);
        assert_eq!(state.interval_windows, 10);
    }

    #[test]
    fn overspending_mid_interval_downgrades() {
        // 20 J / 10 windows: Set2 (2 J) fits the steady allowance. Burn
        // most of the interval budget early and the remaining allowance
        // forces the cheaper Set3 point.
        let mut gov = EnergyBudgetGovernor::new(budget_candidates(), 20.0, 10).with_dwell(1);
        assert_eq!(
            gov.current().expect("choice").mode,
            ApproximationMode::BandDropSet2
        );
        let d = gov.observe_window(&WindowObservation {
            lf_hf: 0.45,
            exact_lf_hf: None,
            energy_j: 12.0, // a very expensive (audited) window
            battery_soc: 1.0,
        });
        assert_eq!(
            d.choice.expect("approximate").mode,
            ApproximationMode::BandDropSet3,
            "remaining allowance (8 J / 9 windows) only fits the cheapest"
        );
    }

    #[test]
    fn draining_battery_sheds_quality() {
        let mut gov = EnergyBudgetGovernor::new(budget_candidates(), 45.0, 10).with_dwell(1);
        assert_eq!(gov.current(), None, "full battery affords exact");
        // Same budget, 20 % battery: effective 9 J / 10 windows only fits
        // the cheapest candidate.
        let d = gov.observe_window(&WindowObservation {
            lf_hf: 0.45,
            exact_lf_hf: None,
            energy_j: 0.0,
            battery_soc: 0.2,
        });
        assert_eq!(
            d.choice.expect("approximate").mode,
            ApproximationMode::BandDropSet3
        );
    }

    #[test]
    fn nothing_fits_falls_back_to_cheapest_not_exact() {
        let mut gov = EnergyBudgetGovernor::new(budget_candidates(), 1.0, 10).with_dwell(1);
        let d = gov.observe_window(&WindowObservation {
            lf_hf: 0.45,
            exact_lf_hf: None,
            energy_j: 0.5,
            battery_soc: 1.0,
        });
        assert_eq!(
            d.choice.expect("cheapest").mode,
            ApproximationMode::BandDropSet3
        );
    }

    #[test]
    fn dwell_smooths_allowance_jitter() {
        // Alternate cheap and expensive windows around the Set2 allowance:
        // without dwell the target flips, with the default dwell of 3 the
        // selection stays put.
        let mut gov = EnergyBudgetGovernor::new(budget_candidates(), 20.0, 10);
        for i in 0..60 {
            let e = if i % 2 == 0 { 1.0 } else { 3.2 };
            let _ = gov.observe_window(&WindowObservation {
                lf_hf: 0.45,
                exact_lf_hf: None,
                energy_j: e,
                battery_soc: 1.0,
            });
        }
        assert!(gov.switches() <= 4, "{} switches", gov.switches());
    }

    #[test]
    fn budget_governor_tracks_distortion_from_audits() {
        let mut gov = EnergyBudgetGovernor::new(budget_candidates(), 100.0, 10);
        assert_eq!(gov.distortion_estimate_pct(), 0.0);
        let _ = gov.observe_window(&WindowObservation {
            lf_hf: 0.45 * 1.10,
            exact_lf_hf: Some(0.45),
            energy_j: 1.0,
            battery_soc: 1.0,
        });
        assert!((gov.distortion_estimate_pct() - 10.0).abs() < 1e-9);
        assert_eq!(gov.audits(), 1);
    }

    #[test]
    fn interval_accounting_resets() {
        let mut gov = EnergyBudgetGovernor::new(budget_candidates(), 10.0, 4);
        for _ in 0..4 {
            let _ = gov.observe_window(&WindowObservation {
                lf_hf: 0.45,
                exact_lf_hf: None,
                energy_j: 2.0,
                battery_soc: 1.0,
            });
        }
        let state = gov.budget().expect("state");
        assert_eq!(state.window_in_interval, 0, "interval rolled over");
        assert_eq!(state.spent_j, 0.0);
    }

    #[test]
    #[should_panic(expected = "budget must be finite")]
    fn nan_budget_rejected() {
        let _ = EnergyBudgetGovernor::new(budget_candidates(), f64::NAN, 10);
    }

    #[test]
    #[should_panic(expected = "needs candidates")]
    fn empty_candidates_rejected() {
        let _ = EnergyBudgetGovernor::new(Vec::new(), 1.0, 10);
    }

    #[test]
    fn governors_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DistortionGovernor>();
        assert_send::<EnergyBudgetGovernor>();
        assert_send::<Box<dyn QualityGovernor>>();
    }
}
