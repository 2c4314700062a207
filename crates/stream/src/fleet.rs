//! Multiplexing thousands of patient streams across sharded workers.
//!
//! [`FleetScheduler`] owns a cohort of independent streams (ingest ring +
//! sliding engine + optional online quality controller each), partitioned
//! into [`FleetConfig::workers`] shards by a stable hash of the stream id.
//! Each shard owns one scratch arena and is driven by its own scoped
//! thread ([`std::thread::scope`]); every kernel — base, exact fallback,
//! and each controller choice — comes from one [`KernelCache`] shared
//! across all shards, so fleet scale-up and controller switches never pay
//! kernel-construction cost. Steady-state per-window work allocates
//! nothing (the `fleet_throughput` bench measures this with a counting
//! allocator), report aggregation is id-ordered so a sharded run is
//! bit-identical to the serial one, and the aggregate cost is reported
//! through `hrv-node-sim`'s cycle/energy model.

use crate::ingest::{IngestStats, RrIngest};
use crate::journal::{
    EventJournal, EventRecord, StreamEvent, SwitchReason, EVENT_JOURNAL_CAPACITY,
};
use crate::scratch::StreamScratch;
use crate::sliding::{SlidingLomb, WindowView};
use hrv_core::{
    ApproximationMode, CandidatePoint, CostProfile, Directive, DistortionGovernor,
    EnergyBudgetGovernor, Histogram, KernelCache, KernelSpec, NodeModel, OperatingChoice,
    PruningPolicy, PsaConfig, PsaError, QualityController, QualityGovernor, SpectralPlan,
    SweepResult, Telemetry, Tracer, TrainingSet, WindowObservation,
};
use hrv_dsp::OpCount;
use hrv_ecg::{Condition, PatientRecord, RrSeries, SyntheticDatabase};
use hrv_lomb::ArrhythmiaDetector;
use hrv_node_sim::{Battery, OperatingPoint};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Fleet composition and pacing.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of concurrent patient streams.
    pub streams: usize,
    /// Seconds of RR data per stream.
    pub duration: f64,
    /// Master seed of the synthetic cohort.
    pub seed: u64,
    /// Multiplexing time slice in stream-seconds (every stream advances by
    /// this much before the next round).
    pub slice: f64,
    /// Worker shards the streams are partitioned across (1 = serial). Each
    /// shard runs on its own scoped thread with its own scratch arena;
    /// results are identical for any worker count.
    pub workers: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            streams: 1000,
            duration: 600.0,
            seed: 2014,
            slice: 30.0,
            workers: 1,
        }
    }
}

/// The observability hooks a fleet carries once
/// [`FleetScheduler::set_observability`] wires them in: the registry the
/// per-stage latency histograms live in, plus the span tracer. Shared
/// handles only — cloning is cheap and the struct is `Sync`, so the
/// scoped shard workers borrow one instance.
#[derive(Clone, Debug)]
struct FleetInstruments {
    telemetry: Telemetry,
    tracer: Tracer,
    /// `hrv_stream_governor_decision_seconds` — one unlabelled series
    /// (the governor does not depend on the kernel in force).
    governor_hist: Histogram,
}

/// Name of the per-(kernel, rail) window-compute latency family.
const WINDOW_COMPUTE_METRIC: &str = "hrv_stream_window_compute_seconds";

/// State-of-charge threshold below which a stream's journal records a
/// [`StreamEvent::BatteryLow`] crossing.
pub const BATTERY_LOW_SOC: f64 = 0.25;

impl FleetInstruments {
    fn new(telemetry: &Telemetry, tracer: Tracer) -> Self {
        // The dispatch level is decided once per process, so publish it
        // when the instruments come up: 0 = scalar, 1 = neon, 2 = avx2
        // (see `hrv_dsp::SimdLevel::gauge_value`).
        telemetry
            .gauge(
                "hrv_simd_level",
                "active SIMD dispatch level of the hot kernels (0=scalar, 1=neon, 2=avx2)",
            )
            .set(hrv_dsp::SimdLevel::active().gauge_value());
        FleetInstruments {
            telemetry: telemetry.clone(),
            tracer,
            governor_hist: telemetry.histogram(
                "hrv_stream_governor_decision_seconds",
                "time spent in the quality governor's per-window decision",
            ),
        }
    }
}

/// One monitored patient inside the fleet.
#[derive(Debug)]
struct PatientStream {
    /// Stream id — decides the shard (stable hash) and the deterministic
    /// aggregation order of the report.
    id: usize,
    ingest: RrIngest,
    engine: SlidingLomb,
    /// The quality-governance policy steering this stream, if any
    /// (distortion-chasing or budget-spending — both behind one trait).
    governor: Option<Box<dyn QualityGovernor>>,
    /// Engine backend index for each governor choice.
    choice_backends: Vec<(OperatingChoice, usize)>,
    exact_index: usize,
    /// The DVFS operating point windows are charged at (nominal until a
    /// governor directs otherwise).
    opp: OperatingPoint,
    /// Energy charged to this stream so far (joules, at the operating
    /// points actually in force — the runtime input budget policies see).
    energy_j: f64,
    /// The stream's finite energy store, when budget-governed with one.
    battery: Option<Battery>,
    samples: Vec<(f64, f64)>,
    cursor: usize,
    windows: u64,
    arrhythmia_windows: u64,
    ops: OpCount,
    /// Cached window-compute histogram handle for the current
    /// (kernel, DVFS rail) label pair, keyed by the backend index and
    /// the rail voltage bits it was registered for. Refreshed only when
    /// either changes, so steady-state window accounting does a compare
    /// instead of a registry lookup (and allocates nothing).
    compute_hist: Option<(usize, u64, Histogram)>,
    /// Bounded forensics ring: quality switches, budget exhaustion,
    /// battery-low crossings, drain. Keyed to the stream's window
    /// count (never wall-clock), so shard parity holds.
    journal: EventJournal,
    /// Budget-exhaustion edge detector (previous pump's state).
    budget_exhausted: bool,
    /// Battery-low edge detector (previous pump's state).
    battery_low: bool,
    /// Whether the drain event has been recorded (finish is idempotent).
    drained: bool,
}

/// Records a quality/DVFS switch when the (backend, rail) pair in
/// force actually changed; the journal stays quiet for directives that
/// re-select the current point.
fn record_switch_if_changed(
    journal: &mut EventJournal,
    windows: u64,
    engine: &SlidingLomb,
    opp: &OperatingPoint,
    before: (usize, u64),
    reason: SwitchReason,
) {
    let now = (engine.active_backend_index(), opp.voltage.to_bits());
    if now != before {
        journal.record(
            windows,
            StreamEvent::QualitySwitch {
                backend: engine.active_backend().name().to_string(),
                rail_v: opp.voltage,
                reason,
            },
        );
    }
}

/// Refreshes the stream's cached window-compute histogram handle,
/// re-registering the labelled series only when the (kernel, rail) pair
/// changed since the handle was taken — the steady state is two loads
/// and a compare.
fn refresh_compute_hist(patient: &mut PatientStream, instruments: &FleetInstruments) {
    let backend = patient.engine.active_backend_index();
    let rail_bits = patient.opp.voltage.to_bits();
    if matches!(&patient.compute_hist, Some((b, r, _)) if *b == backend && *r == rail_bits) {
        return;
    }
    let rail = format!("{:.2}V", patient.opp.voltage);
    let hist = instruments.telemetry.histogram_with(
        WINDOW_COMPUTE_METRIC,
        "fleet worker time computing emitted windows, by kernel, SIMD level and DVFS rail",
        &[
            ("kernel", patient.engine.active_backend().name()),
            ("simd", hrv_dsp::SimdLevel::active().as_str()),
            ("rail", &rail),
        ],
    );
    patient.compute_hist = Some((backend, rail_bits, hist));
}

/// One worker's slice of the fleet: its patients plus a private scratch
/// arena (kernels stay shared through the fleet-wide [`KernelCache`]).
#[derive(Debug, Default)]
struct Shard {
    patients: Vec<PatientStream>,
}

/// The deterministic synthetic cohort member a fleet assigns to stream
/// `id`: alternating sinus-arrhythmia (even ids) and healthy (odd ids)
/// patients from the seeded [`SyntheticDatabase`]. Exposed so external
/// feeders — the `hrv-service` load generator, loopback tests — can
/// replay exactly the samples an offline [`FleetScheduler`] run would
/// preload, making service-vs-offline reports comparable bit for bit.
pub fn cohort_member(seed: u64, id: usize, duration: f64) -> PatientRecord {
    let condition = if id.is_multiple_of(2) {
        Condition::SinusArrhythmia
    } else {
        Condition::Healthy
    };
    SyntheticDatabase::new(seed).record(id, condition, duration)
}

/// Everything one stream has produced so far: the per-stream slice of a
/// [`FleetReport`], used both by offline fleet runs and by the network
/// gateway's `ReadReport`/shutdown drain. Two runs that fed a stream the
/// same samples through the same plan produce `==` reports (operation
/// counts included), which is how service-vs-offline equivalence is
/// asserted.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// Stream id.
    pub id: usize,
    /// Windows emitted by this stream.
    pub windows: u64,
    /// Windows whose LF/HF ratio flagged sinus arrhythmia.
    pub arrhythmia_windows: u64,
    /// Operations spent across this stream's windows.
    pub ops: OpCount,
    /// Energy charged to this stream (joules, at the operating points
    /// actually in force window by window — deterministic, so it survives
    /// the wire and the shard-parity comparisons bit for bit).
    pub energy_j: f64,
    /// The stream's battery state, when a budget policy attached one.
    pub battery: Option<BatteryStatus>,
    /// Ingest-gate counters (accepted / rejected / overflow) of the
    /// samples that reached the fleet.
    pub ingest: IngestStats,
    /// Name of the kernel active when the report was taken.
    pub backend: String,
}

/// A stream battery's point-in-time charge state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatteryStatus {
    /// Remaining charge (joules).
    pub charge_j: f64,
    /// Capacity (joules).
    pub capacity_j: f64,
}

/// A per-stream energy-budget assignment (see
/// [`FleetScheduler::set_stream_budget`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamBudget {
    /// Joules the stream may spend per reporting interval.
    pub joules_per_interval: f64,
    /// Reporting interval in windows.
    pub interval_windows: u64,
    /// Battery capacity in joules; 0 runs the policy without a battery.
    pub battery_capacity_j: f64,
    /// Battery harvest income in watts (ignored without a battery).
    pub battery_harvest_w: f64,
}

impl StreamBudget {
    /// A battery-less budget of `joules_per_interval` per
    /// `interval_windows` windows.
    pub fn per_interval(joules_per_interval: f64, interval_windows: u64) -> Self {
        StreamBudget {
            joules_per_interval,
            interval_windows,
            battery_capacity_j: 0.0,
            battery_harvest_w: 0.0,
        }
    }

    /// Attaches a battery (full at `capacity_j`, harvesting `harvest_w`).
    pub fn with_battery(mut self, capacity_j: f64, harvest_w: f64) -> Self {
        self.battery_capacity_j = capacity_j;
        self.battery_harvest_w = harvest_w;
        self
    }

    /// Validates every field — the same gate the service applies before a
    /// wire `SetBudget` reaches the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::InvalidConfig`] for non-finite or out-of-range
    /// values.
    pub fn validate(&self) -> Result<(), PsaError> {
        if !(self.joules_per_interval.is_finite() && self.joules_per_interval > 0.0) {
            return Err(PsaError::InvalidConfig(
                "budget joules per interval must be finite and positive".into(),
            ));
        }
        if self.interval_windows == 0 {
            return Err(PsaError::InvalidConfig(
                "budget interval must be at least one window".into(),
            ));
        }
        if !(self.battery_capacity_j.is_finite() && self.battery_capacity_j >= 0.0) {
            return Err(PsaError::InvalidConfig(
                "battery capacity must be finite and non-negative".into(),
            ));
        }
        if !(self.battery_harvest_w.is_finite() && self.battery_harvest_w >= 0.0) {
            return Err(PsaError::InvalidConfig(
                "battery harvest must be finite and non-negative".into(),
            ));
        }
        Ok(())
    }

    fn battery(&self) -> Option<Battery> {
        (self.battery_capacity_j > 0.0)
            .then(|| Battery::new(self.battery_capacity_j, self.battery_harvest_w))
    }
}

/// A stream's live budget accounting (see
/// [`FleetScheduler::stream_budget`]).
#[derive(Clone, Debug, PartialEq)]
pub struct StreamBudgetStatus {
    /// Stream id.
    pub id: usize,
    /// Joules per reporting interval.
    pub joules_per_interval: f64,
    /// Reporting interval in windows.
    pub interval_windows: u64,
    /// Energy spent in the current interval (joules).
    pub spent_j: f64,
    /// Battery state, when one is attached.
    pub battery: Option<BatteryStatus>,
    /// Name of the kernel currently active.
    pub backend: String,
}

/// Stable patient→shard assignment (splitmix64 finalizer), independent of
/// worker count enumeration order.
fn shard_of(id: usize, workers: usize) -> usize {
    let mut x = (id as u64).wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    (x % workers as u64) as usize
}

/// Aggregate outcome of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Streams multiplexed.
    pub streams: usize,
    /// Worker shards the fleet ran on.
    pub workers: usize,
    /// Windows emitted across the fleet.
    pub windows: u64,
    /// Stream-seconds of RR data processed.
    pub stream_seconds: f64,
    /// Wall-clock seconds spent inside the scheduler.
    pub wall_seconds: f64,
    /// Total operations across all windows.
    pub total_ops: OpCount,
    /// Node cycles for the total workload.
    pub cycles: u64,
    /// Node energy for the total workload at the nominal operating point
    /// (joules; leakage window = windows × hop).
    pub energy_j: f64,
    /// Energy actually charged to the streams, at the operating points
    /// their governors put in force (joules) — equals `energy_j` up to
    /// summation order when every stream runs at nominal, and drops below
    /// it once budget policies scale the rail.
    pub charged_energy_j: f64,
    /// Remaining charge summed over every stream battery (joules).
    pub battery_charge_j: f64,
    /// Streams with a quality governor attached.
    pub governed_streams: usize,
    /// Windows whose LF/HF ratio flagged sinus arrhythmia.
    pub arrhythmia_windows: u64,
    /// Configuration switches performed by the online governors.
    pub controller_switches: u64,
    /// Scratch arenas in use (one per worker shard).
    pub scratch_slots: usize,
    /// Kernels constructed by the shared cache over the fleet's lifetime.
    pub kernel_builds: u64,
    /// Kernel lookups served from the cache without construction.
    pub kernel_hits: u64,
}

impl FleetReport {
    /// Windows per wall-clock second.
    pub fn windows_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.windows as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Mean charged energy per emitted window (joules) — the budget
    /// smoke's headline column.
    pub fn charged_energy_per_window(&self) -> f64 {
        if self.windows > 0 {
            self.charged_energy_j / self.windows as f64
        } else {
            0.0
        }
    }

    /// Mean arithmetic operations per emitted window.
    pub fn ops_per_window(&self) -> f64 {
        if self.windows > 0 {
            self.total_ops.arithmetic() as f64 / self.windows as f64
        } else {
            0.0
        }
    }

    /// How many times faster than real time the fleet was processed.
    pub fn realtime_factor(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.stream_seconds / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Fraction of kernel lookups served without construction.
    pub fn kernel_hit_rate(&self) -> f64 {
        let total = self.kernel_hits + self.kernel_builds;
        if total == 0 {
            0.0
        } else {
            self.kernel_hits as f64 / total as f64
        }
    }

    /// Publishes the report into a [`Telemetry`] registry (`hrv_fleet_*`
    /// counters and gauges) — the shared reporting path of the gateway,
    /// the benches and the examples. Kernel-cache accounting is published
    /// separately via [`hrv_core::KernelCache::publish`].
    pub fn publish(&self, telemetry: &Telemetry) {
        telemetry
            .counter(
                "hrv_fleet_windows_total",
                "spectral windows emitted across the fleet",
            )
            .set(self.windows);
        telemetry
            .counter(
                "hrv_fleet_arrhythmia_windows_total",
                "windows whose LF/HF ratio flagged sinus arrhythmia",
            )
            .set(self.arrhythmia_windows);
        telemetry
            .counter(
                "hrv_fleet_controller_switches_total",
                "operating-point switches performed by online controllers",
            )
            .set(self.controller_switches);
        telemetry
            .gauge("hrv_fleet_streams", "streams multiplexed by the fleet")
            .set(self.streams as f64);
        telemetry
            .gauge("hrv_fleet_workers", "worker shards the fleet runs on")
            .set(self.workers as f64);
        telemetry
            .gauge(
                "hrv_fleet_stream_seconds",
                "stream-seconds of RR data processed",
            )
            .set(self.stream_seconds);
        telemetry
            .gauge(
                "hrv_fleet_windows_per_second",
                "windows emitted per wall-clock second",
            )
            .set(self.windows_per_sec());
        telemetry
            .gauge(
                "hrv_fleet_realtime_factor",
                "how many times faster than real time the fleet processes",
            )
            .set(self.realtime_factor());
        telemetry
            .gauge(
                "hrv_fleet_ops_per_window",
                "mean arithmetic operations per window",
            )
            .set(self.ops_per_window());
        telemetry
            .gauge(
                "hrv_fleet_energy_joules",
                "node energy of the workload at the nominal operating point",
            )
            .set(self.energy_j);
        telemetry
            .gauge(
                "hrv_fleet_charged_energy_joules",
                "energy charged to streams at governor-selected operating points",
            )
            .set(self.charged_energy_j);
        telemetry
            .gauge(
                "hrv_fleet_battery_charge_joules",
                "remaining charge summed over stream batteries",
            )
            .set(self.battery_charge_j);
        telemetry
            .gauge(
                "hrv_fleet_governed_streams",
                "streams with a quality governor attached",
            )
            .set(self.governed_streams as f64);
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} streams / {} workers: {} windows in {:.2} s wall ({:.0} windows/s, \
             {:.0}x realtime), {:.0} ops/window, {:.3} J, {} arrhythmia windows, \
             {} controller switches, {} kernel builds ({:.1}% cache hit rate)",
            self.streams,
            self.workers,
            self.windows,
            self.wall_seconds,
            self.windows_per_sec(),
            self.realtime_factor(),
            self.ops_per_window(),
            self.energy_j,
            self.arrhythmia_windows,
            self.controller_switches,
            self.kernel_builds,
            100.0 * self.kernel_hit_rate()
        )
    }
}

/// The multi-patient scheduler; see the module docs.
///
/// # Examples
///
/// ```
/// use hrv_core::PsaConfig;
/// use hrv_stream::{FleetConfig, FleetScheduler};
///
/// let fleet = FleetConfig {
///     streams: 4,
///     duration: 300.0,
///     workers: 2,
///     ..FleetConfig::default()
/// };
/// let mut scheduler = FleetScheduler::new(PsaConfig::conventional(), fleet)?;
/// let report = scheduler.run();
/// assert_eq!(report.streams, 4);
/// assert_eq!(report.workers, 2);
/// assert!(report.windows > 0);
/// # Ok::<(), hrv_core::PsaError>(())
/// ```
#[derive(Debug)]
pub struct FleetScheduler {
    plan: SpectralPlan,
    cache: KernelCache,
    fleet: FleetConfig,
    node: NodeModel,
    /// The shared `OpCount`→joules conversion and per-kernel cost
    /// predictor (memoized in `cache` per plan) — the single place fleet
    /// energy math lives.
    profile: CostProfile,
    shards: Vec<Shard>,
    scratches: Vec<StreamScratch>,
    /// Prototype engine cloned into every stream (kernels stay shared
    /// Arcs through the cache), so [`FleetScheduler::open_stream`] pays
    /// no estimator/real-FFT setup.
    prototype: SlidingLomb,
    /// Stream id → (shard, position) for the external-ingest hooks.
    index: HashMap<usize, (usize, usize)>,
    detector: ArrhythmiaDetector,
    fed_until: f64,
    wall_seconds: f64,
    finished: bool,
    /// Observability hooks, once [`FleetScheduler::set_observability`]
    /// wires them in — `None` keeps the hot path free of clock reads.
    instruments: Option<FleetInstruments>,
}

/// What the shared window-accounting sink hands back to the scheduler.
#[derive(Debug, Default)]
struct SinkOutcome {
    /// Last governor directive of this batch of windows.
    directive: Option<Directive>,
    /// Whether *any* emitted window scheduled an audit for the next one —
    /// sticky, so a multi-window push (e.g. after a sensor gap) cannot
    /// drop a scheduled audit.
    audit_next: bool,
}

/// The mutable per-stream accounting slots one sink writes into.
struct WindowAccounting<'a> {
    windows: &'a mut u64,
    ops: &'a mut OpCount,
    arrhythmia_windows: &'a mut u64,
    energy_j: &'a mut f64,
    battery: Option<&'a mut Battery>,
    governor: Option<&'a mut Box<dyn QualityGovernor>>,
    /// Governor-decision latency histogram, when observability is wired.
    governor_hist: Option<&'a Histogram>,
}

/// The one window-accounting sink both `run_until` and `finish` use:
/// counts windows/ops, applies the batch arrhythmia detector, charges the
/// window's energy (at the operating point in force) to the stream — and
/// its battery, when one is attached — and feeds the governor the full
/// observation so it can react.
fn account_windows<'a>(
    acc: WindowAccounting<'a>,
    detector: ArrhythmiaDetector,
    profile: &'a CostProfile,
    opp: OperatingPoint,
    outcome: &'a mut SinkOutcome,
) -> impl FnMut(&WindowView<'_>) + 'a {
    let WindowAccounting {
        windows,
        ops,
        arrhythmia_windows,
        energy_j,
        mut battery,
        mut governor,
        governor_hist,
    } = acc;
    move |w: &WindowView<'_>| {
        *windows += 1;
        *ops += w.ops;
        if detector.detect(&w.powers) {
            *arrhythmia_windows += 1;
        }
        // Energy accounting runs through the shared cost profile — the
        // same conversion the governor's predictions use, so a budget
        // policy compares like with like.
        let charged = profile.window_energy(&w.ops, &opp);
        *energy_j += charged;
        let soc = match battery.as_deref_mut() {
            Some(battery) => {
                battery.harvest(profile.hop_s());
                battery.draw(charged);
                battery.state_of_charge()
            }
            None => 1.0,
        };
        if let Some(governor) = governor.as_deref_mut() {
            let decision_started = governor_hist.map(|_| Instant::now());
            let directive = governor.observe_window(&WindowObservation {
                lf_hf: w.lf_hf_ratio(),
                exact_lf_hf: w.exact_lf_hf,
                energy_j: charged,
                battery_soc: soc,
            });
            if let (Some(hist), Some(started)) = (governor_hist, decision_started) {
                hist.observe_duration(started.elapsed());
            }
            outcome.directive = Some(directive);
            outcome.audit_next = outcome.audit_next || governor.should_audit();
        }
    }
}

/// Drains one patient's ingest ring through its engine, applying
/// governor directives per window. Both feed paths converge here — the
/// preloaded-cohort loop (`advance_shard`) and the external-ingest hooks
/// ([`FleetScheduler::push_rr`] / [`FleetScheduler::push_beat`]) — so a
/// gateway-fed stream does bit-identical work to an offline one.
fn pump_patient(
    patient: &mut PatientStream,
    scratch: &mut StreamScratch,
    detector: ArrhythmiaDetector,
    profile: &CostProfile,
    instruments: Option<&FleetInstruments>,
) {
    while let Some((t, rr)) = patient.ingest.pop() {
        // Observability gate: pay clock reads (and a span) only for a
        // push that crosses a window boundary — non-emitting pushes, the
        // vast majority, cost two f64 compares on top of the plain path.
        let windows_before = patient.windows;
        let timed = instruments.filter(|_| patient.engine.will_emit(t));
        let (compute_started, compute_span) = match timed {
            Some(ins) => {
                // Refresh the cached (kernel, rail) histogram handle
                // before the push; directives switch backends only after
                // the windows they observed, so the label pair in force
                // during the compute is the pre-push one.
                refresh_compute_hist(patient, ins);
                (
                    Some(Instant::now()),
                    Some(ins.tracer.span("window_compute")),
                )
            }
            None => (None, None),
        };
        let PatientStream {
            engine,
            governor,
            choice_backends,
            exact_index,
            opp,
            energy_j,
            battery,
            windows,
            arrhythmia_windows,
            ops,
            compute_hist: cached_hist,
            journal,
            budget_exhausted,
            battery_low,
            ..
        } = patient;
        let mut outcome = SinkOutcome::default();
        {
            let mut sink = account_windows(
                WindowAccounting {
                    windows: &mut *windows,
                    ops,
                    arrhythmia_windows,
                    energy_j,
                    battery: battery.as_mut(),
                    governor: governor.as_mut(),
                    governor_hist: timed.map(|ins| &ins.governor_hist),
                },
                detector,
                profile,
                *opp,
                &mut outcome,
            );
            engine.push(t, rr, scratch, &mut sink);
        }
        // A boundary-crossing push can still emit nothing (skip rules);
        // only real window computes are timed, so `_count` equals the
        // number of emitting pushes — a span/sample per computed batch.
        let emitted = *windows > windows_before;
        match (compute_span, emitted) {
            (Some(span), false) => span.cancel(),
            (span, _) => drop(span),
        }
        if emitted {
            if let (Some(started), Some((_, _, hist))) = (compute_started, cached_hist.as_ref()) {
                hist.observe_duration(started.elapsed());
            }
        }
        if let Some(directive) = outcome.directive {
            let before = (engine.active_backend_index(), opp.voltage.to_bits());
            apply_choice(engine, directive.choice, choice_backends, *exact_index);
            *opp = directive.opp;
            record_switch_if_changed(
                journal,
                *windows,
                engine,
                opp,
                before,
                SwitchReason::Governor,
            );
        }
        // Edge-detected forensics: budget exhaustion and battery-low are
        // recorded once per crossing, re-arming when the condition
        // clears (a new budget interval, a harvesting recharge). Both
        // derive from per-stream deterministic state, so the journal is
        // shard-parity safe.
        if let Some(state) = governor.as_ref().and_then(|g| g.budget()) {
            let exhausted = state.budget_j > 0.0 && state.spent_j >= state.budget_j;
            if exhausted && !*budget_exhausted {
                journal.record(
                    *windows,
                    StreamEvent::BudgetExhausted {
                        spent_j: state.spent_j,
                        budget_j: state.budget_j,
                    },
                );
            }
            *budget_exhausted = exhausted;
        }
        if let Some(b) = battery.as_ref() {
            let soc = b.state_of_charge();
            let low = soc < BATTERY_LOW_SOC;
            if low && !*battery_low {
                journal.record(*windows, StreamEvent::BatteryLow { soc });
            }
            *battery_low = low;
        }
        if outcome.audit_next {
            engine.request_audit();
        }
    }
}

/// Advances every patient of one shard to stream-time `t_limit`. Returns
/// `true` while any of the shard's streams still has samples left.
fn advance_shard(
    shard: &mut Shard,
    scratch: &mut StreamScratch,
    t_limit: f64,
    detector: ArrhythmiaDetector,
    profile: &CostProfile,
    instruments: Option<&FleetInstruments>,
) -> bool {
    let mut remaining = false;
    for patient in &mut shard.patients {
        while patient.cursor < patient.samples.len() {
            let (t, rr) = patient.samples[patient.cursor];
            if t >= t_limit {
                break;
            }
            patient.cursor += 1;
            if patient.ingest.push_rr(t, rr) {
                pump_patient(patient, scratch, detector, profile, instruments);
            }
        }
        if patient.cursor < patient.samples.len() {
            remaining = true;
        }
    }
    remaining
}

/// Flushes one patient's trailing windows (batch parity). Trailing
/// windows still feed the governor so its statistics cover everything
/// the report counts; its directive has nothing left to steer.
fn finish_patient(
    patient: &mut PatientStream,
    scratch: &mut StreamScratch,
    detector: ArrhythmiaDetector,
    profile: &CostProfile,
    instruments: Option<&FleetInstruments>,
) {
    let windows_before = patient.windows;
    let timed = instruments;
    let (compute_started, compute_span) = match timed {
        Some(ins) => {
            refresh_compute_hist(patient, ins);
            (
                Some(Instant::now()),
                Some(ins.tracer.span("window_compute")),
            )
        }
        None => (None, None),
    };
    let PatientStream {
        engine,
        governor,
        opp,
        energy_j,
        battery,
        windows,
        arrhythmia_windows,
        ops,
        compute_hist: cached_hist,
        journal,
        drained,
        ..
    } = patient;
    let mut outcome = SinkOutcome::default();
    {
        let mut sink = account_windows(
            WindowAccounting {
                windows: &mut *windows,
                ops,
                arrhythmia_windows,
                energy_j,
                battery: battery.as_mut(),
                governor: governor.as_mut(),
                governor_hist: timed.map(|ins| &ins.governor_hist),
            },
            detector,
            profile,
            *opp,
            &mut outcome,
        );
        engine.finish(scratch, &mut sink);
    }
    // Most streams have no trailing window to flush; time (and trace)
    // only the finishes that actually computed one.
    let emitted = *windows > windows_before;
    match (compute_span, emitted) {
        (Some(span), false) => span.cancel(),
        (span, _) => drop(span),
    }
    if emitted {
        if let (Some(started), Some((_, _, hist))) = (compute_started, cached_hist.as_ref()) {
            hist.observe_duration(started.elapsed());
        }
    }
    // Record the drain exactly once — `finish` is idempotent and close
    // paths re-finish already-finished streams.
    if !*drained {
        *drained = true;
        journal.record(*windows, StreamEvent::Drain { windows: *windows });
    }
}

/// Flushes the trailing windows of one shard's patients (batch parity).
fn finish_shard(
    shard: &mut Shard,
    scratch: &mut StreamScratch,
    detector: ArrhythmiaDetector,
    profile: &CostProfile,
    instruments: Option<&FleetInstruments>,
) {
    for patient in &mut shard.patients {
        finish_patient(patient, scratch, detector, profile, instruments);
    }
}

/// The per-stream report of one patient's current state.
fn report_of(patient: &PatientStream) -> StreamReport {
    StreamReport {
        id: patient.id,
        windows: patient.windows,
        arrhythmia_windows: patient.arrhythmia_windows,
        ops: patient.ops,
        energy_j: patient.energy_j,
        battery: patient.battery.as_ref().map(|b| BatteryStatus {
            charge_j: b.charge_j(),
            capacity_j: b.capacity_j(),
        }),
        ingest: patient.ingest.stats(),
        backend: patient.engine.active_backend().name().to_string(),
    }
}

impl FleetScheduler {
    /// Builds the fleet: a deterministic synthetic cohort (alternating
    /// sinus-arrhythmia and healthy patients) partitioned across
    /// [`FleetConfig::workers`] shards, with one streaming engine per
    /// patient — all engines sharing kernels through one [`KernelCache`].
    ///
    /// # Errors
    ///
    /// Returns [`PsaError`] when `psa` is invalid,
    /// [`PsaError::NeedsCalibration`] when it demands dynamic pruning
    /// (build a calibrated [`SpectralPlan`] and use
    /// [`FleetScheduler::from_plan`] instead), and
    /// [`PsaError::InvalidConfig`] for an empty fleet, non-positive
    /// durations or zero workers.
    pub fn new(psa: PsaConfig, fleet: FleetConfig) -> Result<Self, PsaError> {
        let plan = SpectralPlan::new(psa)?;
        if plan.requires_calibration() {
            return Err(PsaError::NeedsCalibration);
        }
        Self::from_plan(plan, fleet)
    }

    /// Builds the fleet from an explicit plan — the way to run a
    /// dynamic-pruning base configuration (pass a plan built with
    /// [`SpectralPlan::calibrated`]). The plan's training corpus, when
    /// present, also serves [`FleetScheduler::with_quality_control`]'s
    /// dynamic operating points.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::MissingCalibration`] when the plan demands a
    /// dynamic-pruning kernel but carries no training set, and
    /// [`PsaError::InvalidConfig`] for an empty fleet, non-positive
    /// durations or zero workers.
    pub fn from_plan(plan: SpectralPlan, fleet: FleetConfig) -> Result<Self, PsaError> {
        if fleet.streams == 0 {
            return Err(PsaError::InvalidConfig("fleet needs ≥ 1 stream".into()));
        }
        if fleet.duration <= 0.0 || fleet.slice <= 0.0 {
            return Err(PsaError::InvalidConfig(
                "fleet duration and slice must be positive".into(),
            ));
        }
        // streams ≥ 1 here, so this is 0 only for zero configured
        // workers — which `build` rejects.
        let workers = fleet.workers.min(fleet.streams);
        let streams = fleet.streams;
        let (seed, duration) = (fleet.seed, fleet.duration);
        let mut scheduler = Self::build(plan, fleet, workers)?;
        for id in 0..streams {
            let record = cohort_member(seed, id, duration);
            let samples = record
                .rr
                .times()
                .iter()
                .copied()
                .zip(record.rr.intervals().iter().copied())
                .collect();
            scheduler.insert_stream(id, samples)?;
        }
        Ok(scheduler)
    }

    /// Builds an **externally fed** fleet: no synthetic cohort, no
    /// preloaded samples. Streams are opened with
    /// [`FleetScheduler::open_stream`] and fed one sample at a time with
    /// [`FleetScheduler::push_rr`] / [`FleetScheduler::push_beat`] — the
    /// ingestion path the `hrv-service` gateway drives on every wire
    /// push. Each pushed sample runs through the same plausibility
    /// gate, engine and accounting sink as a preloaded cohort, so
    /// per-stream reports are bit-identical to an offline run over the
    /// same samples.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::MissingCalibration`] when the plan demands a
    /// dynamic-pruning kernel but carries no training set, and
    /// [`PsaError::InvalidConfig`] for zero workers.
    pub fn external(plan: SpectralPlan, workers: usize) -> Result<Self, PsaError> {
        Self::build(
            plan,
            FleetConfig {
                streams: 0,
                workers,
                ..FleetConfig::default()
            },
            workers,
        )
    }

    /// The shared construction core: validated worker count, one
    /// prototype engine (estimator/real-FFT setup paid once; kernels are
    /// cache-shared Arcs), empty shards.
    fn build(plan: SpectralPlan, fleet: FleetConfig, workers: usize) -> Result<Self, PsaError> {
        if workers == 0 {
            return Err(PsaError::InvalidConfig("fleet needs ≥ 1 worker".into()));
        }
        let cache = KernelCache::new();
        let prototype = SlidingLomb::from_plan(&plan, &cache)?;
        let shards: Vec<Shard> = (0..workers).map(|_| Shard::default()).collect();
        let scratches = (0..workers).map(|_| StreamScratch::new()).collect();
        let node = NodeModel::default();
        let profile = cache.cost_profile(&plan, &node);
        Ok(FleetScheduler {
            plan,
            cache,
            fleet,
            node,
            profile,
            shards,
            scratches,
            prototype,
            index: HashMap::new(),
            detector: ArrhythmiaDetector::default(),
            fed_until: 0.0,
            wall_seconds: 0.0,
            finished: false,
            instruments: None,
        })
    }

    /// Registers a stream with preloaded samples (empty for external
    /// streams) on its stable shard.
    fn insert_stream(&mut self, id: usize, samples: Vec<(f64, f64)>) -> Result<(), PsaError> {
        if self.index.contains_key(&id) {
            return Err(PsaError::DuplicateStream(id as u64));
        }
        let shard = shard_of(id, self.shards.len());
        self.shards[shard].patients.push(PatientStream {
            id,
            ingest: RrIngest::new(),
            engine: self.prototype.clone(),
            governor: None,
            choice_backends: Vec::new(),
            exact_index: 0,
            opp: self.node.dvfs.nominal(),
            energy_j: 0.0,
            battery: None,
            samples,
            cursor: 0,
            windows: 0,
            arrhythmia_windows: 0,
            ops: OpCount::default(),
            compute_hist: None,
            journal: EventJournal::new(EVENT_JOURNAL_CAPACITY),
            budget_exhausted: false,
            battery_low: false,
            drained: false,
        });
        self.index
            .insert(id, (shard, self.shards[shard].patients.len() - 1));
        Ok(())
    }

    /// Opens an externally fed stream. Also usable on a cohort fleet to
    /// add live streams next to the preloaded ones.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::DuplicateStream`] when `id` is already open.
    pub fn open_stream(&mut self, id: usize) -> Result<(), PsaError> {
        self.insert_stream(id, Vec::new())
    }

    /// Feeds one pre-computed RR interval (ending at beat time `t`) to
    /// stream `id`, driving every window it completes through the same
    /// accounting path as an offline run. Returns whether the sample
    /// passed the ingest plausibility gate.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn push_rr(&mut self, id: usize, t: f64, rr: f64) -> Result<bool, PsaError> {
        self.feed(id, |ingest| ingest.push_rr(t, rr))
    }

    /// Feeds one raw detected beat time to stream `id` (delineate-rule
    /// gating, as [`RrIngest::push_beat`]). Returns whether the beat
    /// completed a plausible interval.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn push_beat(&mut self, id: usize, t: f64) -> Result<bool, PsaError> {
        self.feed(id, |ingest| ingest.push_beat(t))
    }

    /// Feeds a whole batch of pre-computed RR samples to stream `id` —
    /// one index lookup and one wall-clock measurement for the entire
    /// batch, so a high-rate feeder (the `hrv-service` gateway hands
    /// each wire push over here) does not pay per-sample overhead.
    /// Samples run through exactly the gate + engine path of
    /// [`FleetScheduler::push_rr`]; returns how many passed the gate.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn push_rr_batch(&mut self, id: usize, samples: &[(f64, f64)]) -> Result<usize, PsaError> {
        let started = Instant::now();
        let &(shard, pos) = self
            .index
            .get(&id)
            .ok_or(PsaError::UnknownStream(id as u64))?;
        let detector = self.detector;
        let mut accepted = 0usize;
        {
            let patient = &mut self.shards[shard].patients[pos];
            let scratch = &mut self.scratches[shard];
            for &(t, rr) in samples {
                if patient.ingest.push_rr(t, rr) {
                    pump_patient(
                        patient,
                        scratch,
                        detector,
                        &self.profile,
                        self.instruments.as_ref(),
                    );
                    accepted += 1;
                }
            }
        }
        self.wall_seconds += started.elapsed().as_secs_f64();
        Ok(accepted)
    }

    /// The shared external-ingest path: gate the sample, then drain the
    /// ring through the engine with the stream's shard scratch.
    fn feed(
        &mut self,
        id: usize,
        gate: impl FnOnce(&mut RrIngest) -> bool,
    ) -> Result<bool, PsaError> {
        let started = Instant::now();
        let &(shard, pos) = self
            .index
            .get(&id)
            .ok_or(PsaError::UnknownStream(id as u64))?;
        let patient = &mut self.shards[shard].patients[pos];
        let accepted = gate(&mut patient.ingest);
        if accepted {
            pump_patient(
                patient,
                &mut self.scratches[shard],
                self.detector,
                &self.profile,
                self.instruments.as_ref(),
            );
        }
        self.wall_seconds += started.elapsed().as_secs_f64();
        Ok(accepted)
    }

    /// Switches stream `id` to the static-pruning operating mode `mode`
    /// (`Exact` restores the split-radix reference). The kernel resolves
    /// through the shared [`KernelCache`], so after the first switch to a
    /// mode anywhere in the fleet every later switch is a cache lookup.
    /// Returns the name of the now-active kernel.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn set_stream_mode(
        &mut self,
        id: usize,
        mode: ApproximationMode,
    ) -> Result<String, PsaError> {
        let choice = OperatingChoice {
            mode,
            policy: PruningPolicy::Static,
            vfs: false,
            expected_error_pct: 0.0,
            expected_savings_pct: 0.0,
        };
        let backend = self.cache.backend_for_choice(&self.plan, &choice)?;
        let &(shard, pos) = self
            .index
            .get(&id)
            .ok_or(PsaError::UnknownStream(id as u64))?;
        let patient = &mut self.shards[shard].patients[pos];
        let index = patient
            .choice_backends
            .iter()
            .find(|(known, _)| *known == choice)
            .map(|&(_, idx)| idx)
            .unwrap_or_else(|| {
                let idx = patient.engine.add_backend(backend);
                patient.choice_backends.push((choice, idx));
                idx
            });
        let before = (
            patient.engine.active_backend_index(),
            patient.opp.voltage.to_bits(),
        );
        patient.engine.set_active_backend(index);
        record_switch_if_changed(
            &mut patient.journal,
            patient.windows,
            &patient.engine,
            &patient.opp,
            before,
            SwitchReason::Operator,
        );
        Ok(patient.engine.active_backend().name().to_string())
    }

    /// The bounded event journal of stream `id`, oldest first — the
    /// stream's forensics: quality/DVFS switches (with the reason),
    /// budget exhaustion, battery-low crossings and drain. Records are
    /// keyed to the stream's window count, never wall-clock, so a
    /// sharded fleet returns journals bit-identical to a serial run.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn stream_events(&self, id: usize) -> Result<Vec<EventRecord>, PsaError> {
        let &(shard, pos) = self
            .index
            .get(&id)
            .ok_or(PsaError::UnknownStream(id as u64))?;
        Ok(self.shards[shard].patients[pos].journal.events())
    }

    /// The current per-stream report of stream `id` (no finishing — the
    /// stream keeps running).
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn stream_report(&self, id: usize) -> Result<StreamReport, PsaError> {
        let &(shard, pos) = self
            .index
            .get(&id)
            .ok_or(PsaError::UnknownStream(id as u64))?;
        Ok(report_of(&self.shards[shard].patients[pos]))
    }

    /// Per-stream reports of every open stream, id-ordered regardless of
    /// sharding (the per-stream counterpart of [`FleetScheduler::report`]).
    pub fn stream_reports(&self) -> Vec<StreamReport> {
        let mut reports: Vec<StreamReport> = self
            .shards
            .iter()
            .flat_map(|s| s.patients.iter().map(report_of))
            .collect();
        reports.sort_by_key(|r| r.id);
        reports
    }

    /// Flushes stream `id`'s trailing windows (batch parity), removes it
    /// from the fleet and returns its final report.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn close_stream(&mut self, id: usize) -> Result<StreamReport, PsaError> {
        let detector = self.detector;
        let &(shard, pos) = self
            .index
            .get(&id)
            .ok_or(PsaError::UnknownStream(id as u64))?;
        let patient = &mut self.shards[shard].patients[pos];
        finish_patient(
            patient,
            &mut self.scratches[shard],
            detector,
            &self.profile,
            self.instruments.as_ref(),
        );
        let report = report_of(patient);
        self.index.remove(&id);
        self.shards[shard].patients.swap_remove(pos);
        if let Some(moved) = self.shards[shard].patients.get(pos) {
            self.index.insert(moved.id, (shard, pos));
        }
        Ok(report)
    }

    /// Graceful fleet drain: flushes every stream's trailing windows
    /// (identically to [`FleetScheduler::finish`]), takes the id-ordered
    /// final per-stream reports, and empties the fleet. This is the
    /// shutdown path of the `hrv-service` gateway; its result is
    /// bit-identical to `run()` + [`FleetScheduler::stream_reports`] on
    /// an offline fleet fed the same samples.
    pub fn close_all(&mut self) -> Vec<StreamReport> {
        self.finish();
        let reports = self.stream_reports();
        for shard in &mut self.shards {
            shard.patients.clear();
        }
        self.index.clear();
        reports
    }

    /// Attaches the calibration corpus dynamic-pruning kernels need, so
    /// [`FleetScheduler::with_quality_control`] can instantiate the
    /// sweep's dynamic operating points too. Call it **before**
    /// `with_quality_control` — controllers resolve their kernels when
    /// attached.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::TooFewSamples`] when the cohort yields no
    /// usable calibration windows, and [`PsaError::InvalidConfig`] when
    /// quality controllers are already attached (their choice kernels
    /// were resolved without this corpus, so attaching it now would
    /// silently change nothing).
    pub fn with_training(mut self, cohort: &[RrSeries]) -> Result<Self, PsaError> {
        if self
            .shards
            .iter()
            .flat_map(|s| &s.patients)
            .any(|p| p.governor.is_some())
        {
            return Err(PsaError::InvalidConfig(
                "attach training before with_quality_control: governors already \
                 resolved their operating choices without it"
                    .into(),
            ));
        }
        let training = Arc::new(TrainingSet::from_cohort(self.plan.config(), cohort)?);
        self.plan = self.plan.with_training(training);
        self.profile = self.cache.cost_profile(&self.plan, &self.node);
        Ok(self)
    }

    /// Attaches an online quality controller (budget `qdes_pct` percent)
    /// to every stream. Each distinct operating choice resolves to one
    /// kernel in the shared [`KernelCache`]; run-time switches are cache
    /// lookups. Dynamic-pruning choices are offered to the controllers
    /// only when a training corpus is attached
    /// ([`FleetScheduler::with_training`]) — without one they are
    /// excluded up front, so the controller never selects a configuration
    /// it cannot run (no silent exact fallback).
    ///
    /// # Panics
    ///
    /// Panics if `qdes_pct` is not positive.
    pub fn with_quality_control(mut self, sweep: &SweepResult, qdes_pct: f64) -> Self {
        let inner = QualityController::from_sweep(sweep, true);
        let shared = self.resolve_runnable(inner.choices());
        let runnable: Vec<OperatingChoice> = shared.iter().map(|(c, _)| *c).collect();
        let inner = inner.retain_choices(|c| runnable.contains(c));
        let exact = self.cache.exact(self.plan.fft_len());
        let nominal = self.node.dvfs.nominal();
        for shard in &mut self.shards {
            for patient in &mut shard.patients {
                let governor =
                    DistortionGovernor::new(inner.clone(), qdes_pct).with_operating_point(nominal);
                attach_governor(patient, Box::new(governor), &shared, &exact, None);
            }
        }
        self
    }

    /// The runnable subset of `choices`, each resolved to its shared
    /// cached kernel. Dynamic-pruning choices are excluded when no
    /// training corpus is attached, so no governor can select a
    /// configuration it cannot run.
    fn resolve_runnable(
        &self,
        choices: &[OperatingChoice],
    ) -> Vec<(OperatingChoice, Arc<dyn hrv_dsp::FftBackend>)> {
        let mut shared = Vec::new();
        for choice in choices {
            match self.cache.backend_for_choice(&self.plan, choice) {
                Ok(backend) => shared.push((*choice, backend)),
                Err(PsaError::MissingCalibration { .. }) => {
                    // Deliberately excluded: see the method docs.
                }
                // analyze::allow(panic-free-wire): every choice comes from the plan's own operating table, validated when the plan was built — reaching this arm means the table and the cache disagree, a bug worth crashing on
                Err(err) => unreachable!("plan was validated at construction: {err}"),
            }
        }
        shared
    }

    /// The budget candidate ladder over `choices` (`None` = exact): every
    /// runnable choice's predicted per-window cost at every feasible DVFS
    /// rail, through the shared [`CostProfile`].
    fn budget_candidates(
        &self,
        shared: &[(OperatingChoice, Arc<dyn hrv_dsp::FftBackend>)],
        exact: &Arc<dyn hrv_dsp::FftBackend>,
    ) -> Vec<CandidatePoint> {
        let exact_spec = KernelSpec::Exact {
            fft_len: self.plan.fft_len(),
        };
        let mut candidates = self.profile.ladder(None, exact_spec, exact.as_ref());
        for (choice, backend) in shared {
            let spec = self.plan.spec_for_choice(choice);
            candidates.extend(self.profile.ladder(Some(*choice), spec, backend.as_ref()));
        }
        candidates
    }

    /// The static operating choices a budget policy offers when no
    /// design-time sweep is supplied (the service's `SetBudget` path):
    /// every Table I static-pruning mode with VFS, expected distortion
    /// unknown (0) — ordering then falls to rail voltage and measured
    /// cost, which the shared [`CostProfile`] provides.
    fn static_budget_choices() -> Vec<OperatingChoice> {
        ApproximationMode::TABLE1
            .into_iter()
            .map(|mode| OperatingChoice {
                mode,
                policy: PruningPolicy::Static,
                vfs: true,
                expected_error_pct: 0.0,
                expected_savings_pct: 0.0,
            })
            .collect()
    }

    /// Attaches an [`EnergyBudgetGovernor`] (and optional battery) to
    /// every stream: each stream gets `budget.joules_per_interval` joules
    /// per `budget.interval_windows`-window interval to spend across the
    /// candidate ladder — operating choices × feasible DVFS rails, costed
    /// by the shared [`CostProfile`]. Pass a sweep to carry design-time
    /// distortion expectations into the candidate ordering; without one
    /// the Table I static modes compete on rail and measured cost alone.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::InvalidConfig`] for a non-finite or
    /// out-of-range budget.
    pub fn with_energy_budget(
        mut self,
        sweep: Option<&SweepResult>,
        budget: StreamBudget,
    ) -> Result<Self, PsaError> {
        budget.validate()?;
        let choices = match sweep {
            Some(sweep) => QualityController::from_sweep(sweep, true)
                .choices()
                .to_vec(),
            None => Self::static_budget_choices(),
        };
        let shared = self.resolve_runnable(&choices);
        let exact = self.cache.exact(self.plan.fft_len());
        let candidates = self.budget_candidates(&shared, &exact);
        for shard in &mut self.shards {
            for patient in &mut shard.patients {
                let governor = EnergyBudgetGovernor::new(
                    candidates.clone(),
                    budget.joules_per_interval,
                    budget.interval_windows,
                );
                attach_governor(
                    patient,
                    Box::new(governor),
                    &shared,
                    &exact,
                    budget.battery(),
                );
            }
        }
        Ok(self)
    }

    /// Attaches (or replaces) an [`EnergyBudgetGovernor`] on stream `id`
    /// at run time — the fleet half of the service's `SetBudget` message.
    /// Returns the name of the kernel the governor selected to start
    /// with.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open and
    /// [`PsaError::InvalidConfig`] for an invalid budget.
    pub fn set_stream_budget(
        &mut self,
        id: usize,
        budget: StreamBudget,
    ) -> Result<String, PsaError> {
        budget.validate()?;
        let shared = self.resolve_runnable(&Self::static_budget_choices());
        let exact = self.cache.exact(self.plan.fft_len());
        let candidates = self.budget_candidates(&shared, &exact);
        let &(shard, pos) = self
            .index
            .get(&id)
            .ok_or(PsaError::UnknownStream(id as u64))?;
        let patient = &mut self.shards[shard].patients[pos];
        let governor = EnergyBudgetGovernor::new(
            candidates,
            budget.joules_per_interval,
            budget.interval_windows,
        );
        attach_governor(
            patient,
            Box::new(governor),
            &shared,
            &exact,
            budget.battery(),
        );
        Ok(patient.engine.active_backend().name().to_string())
    }

    /// The live budget accounting of stream `id` — the fleet half of the
    /// service's `ReadBudget` message.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open and
    /// [`PsaError::InvalidConfig`] when the stream has no budget governor
    /// attached.
    pub fn stream_budget(&self, id: usize) -> Result<StreamBudgetStatus, PsaError> {
        let &(shard, pos) = self
            .index
            .get(&id)
            .ok_or(PsaError::UnknownStream(id as u64))?;
        let patient = &self.shards[shard].patients[pos];
        let state = patient
            .governor
            .as_ref()
            .and_then(|g| g.budget())
            .ok_or_else(|| {
                PsaError::InvalidConfig(format!("stream {id} has no budget governor attached"))
            })?;
        Ok(StreamBudgetStatus {
            id,
            joules_per_interval: state.budget_j,
            interval_windows: state.interval_windows,
            spent_j: state.spent_j,
            battery: patient.battery.as_ref().map(|b| BatteryStatus {
                charge_j: b.charge_j(),
                capacity_j: b.capacity_j(),
            }),
            backend: patient.engine.active_backend().name().to_string(),
        })
    }

    /// Overrides the node model used for the energy report (and for all
    /// later per-window energy charging — call it before attaching
    /// governors, whose candidate predictions are costed at attach time).
    /// Ungoverned streams are re-pinned to the new model's nominal
    /// operating point.
    pub fn with_node_model(mut self, node: NodeModel) -> Self {
        self.profile = self.cache.cost_profile(&self.plan, &node);
        let nominal = node.dvfs.nominal();
        for patient in self.shards.iter_mut().flat_map(|s| &mut s.patients) {
            if patient.governor.is_none() {
                patient.opp = nominal;
            }
        }
        self.node = node;
        self
    }

    /// Wires latency histograms and span tracing into the fleet's window
    /// path. Every emitted window is then timed into
    /// `hrv_stream_window_compute_seconds` (labelled by active kernel and
    /// DVFS rail) and wrapped in a `window_compute` span; governed
    /// streams additionally time each decision into
    /// `hrv_stream_governor_decision_seconds`. Non-emitting pushes — the
    /// vast majority — stay on the uninstrumented path (two f64
    /// compares), so the steady-state overhead is negligible. Without
    /// this call the fleet records nothing.
    pub fn set_observability(&mut self, telemetry: &Telemetry, tracer: Tracer) {
        self.instruments = Some(FleetInstruments::new(telemetry, tracer));
        // Existing streams may hold handles from a previous registry;
        // invalidate so the next emission re-registers against this one.
        for shard in &mut self.shards {
            for patient in &mut shard.patients {
                patient.compute_hist = None;
            }
        }
    }

    /// The kernel cache shared by every shard (construction accounting:
    /// [`KernelCache::builds`] stays flat once the fleet is warm, however
    /// often controllers switch).
    pub fn kernel_cache(&self) -> &KernelCache {
        &self.cache
    }

    /// The plan every engine of the fleet was built from.
    pub fn plan(&self) -> &SpectralPlan {
        &self.plan
    }

    /// Advances every stream to stream-time `t_limit` (seconds). Returns
    /// `true` while any stream still has samples left. With more than one
    /// worker the shards advance on scoped threads in parallel.
    pub fn run_until(&mut self, t_limit: f64) -> bool {
        let started = Instant::now();
        let detector = self.detector;
        let profile = &self.profile;
        let instruments = self.instruments.as_ref();
        let remaining = if self.shards.len() == 1 {
            advance_shard(
                &mut self.shards[0],
                &mut self.scratches[0],
                t_limit,
                detector,
                profile,
                instruments,
            )
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(self.scratches.iter_mut())
                    .map(|(shard, scratch)| {
                        s.spawn(move || {
                            advance_shard(shard, scratch, t_limit, detector, profile, instruments)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // analyze::allow(panic-free-wire): swallowing a worker panic would silently lose a shard's samples; propagating it is the only honest outcome
                    .map(|h| h.join().expect("fleet worker panicked"))
                    .fold(false, |acc, r| acc | r)
            })
        };
        self.fed_until = t_limit;
        self.wall_seconds += started.elapsed().as_secs_f64();
        remaining
    }

    /// Flushes the trailing windows of every stream (batch parity).
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        let started = Instant::now();
        let detector = self.detector;
        let profile = &self.profile;
        let instruments = self.instruments.as_ref();
        if self.shards.len() == 1 {
            finish_shard(
                &mut self.shards[0],
                &mut self.scratches[0],
                detector,
                profile,
                instruments,
            );
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(self.scratches.iter_mut())
                    .map(|(shard, scratch)| {
                        s.spawn(move || {
                            finish_shard(shard, scratch, detector, profile, instruments)
                        })
                    })
                    .collect();
                for h in handles {
                    // analyze::allow(panic-free-wire): swallowing a worker panic would silently lose a shard's samples; propagating it is the only honest outcome
                    h.join().expect("fleet worker panicked");
                }
            });
        }
        self.wall_seconds += started.elapsed().as_secs_f64();
        self.finished = true;
    }

    /// Runs the whole fleet to completion in `slice`-sized rounds and
    /// returns the aggregate report.
    pub fn run(&mut self) -> FleetReport {
        let mut t = self.fed_until + self.fleet.slice;
        while self.run_until(t) {
            t += self.fleet.slice;
        }
        self.finish();
        self.report()
    }

    /// The aggregate report for everything processed so far. Aggregation
    /// runs in stream-id order regardless of sharding, so serial and
    /// sharded runs produce bit-identical reports.
    pub fn report(&self) -> FleetReport {
        let mut by_id: Vec<&PatientStream> = self.shards.iter().flat_map(|s| &s.patients).collect();
        by_id.sort_by_key(|p| p.id);
        let mut total_ops = OpCount::default();
        let mut windows = 0u64;
        let mut arrhythmia_windows = 0u64;
        let mut switches = 0u64;
        let mut stream_seconds = 0.0;
        let mut charged_energy_j = 0.0;
        let mut battery_charge_j = 0.0;
        let mut governed_streams = 0usize;
        for patient in by_id {
            total_ops += patient.ops;
            windows += patient.windows;
            arrhythmia_windows += patient.arrhythmia_windows;
            charged_energy_j += patient.energy_j;
            if let Some(battery) = &patient.battery {
                battery_charge_j += battery.charge_j();
            }
            if let Some(governor) = &patient.governor {
                switches += governor.switches();
                governed_streams += 1;
            }
            if let Some(idx) = patient.cursor.checked_sub(1) {
                stream_seconds += patient.samples[idx].0;
            } else if let Some(t) = patient.ingest.last_time() {
                // Externally fed streams have no preloaded samples; their
                // progress is the last accepted beat time.
                stream_seconds += t;
            }
        }
        // All OpCount→cycles/joules conversion goes through the shared
        // cost profile (the ad-hoc per-report math this replaces lived
        // here).
        let cycles = self.profile.cycles(&total_ops);
        let energy_j = self.profile.energy(&total_ops, windows);
        FleetReport {
            streams: self.streams(),
            workers: self.shards.len(),
            windows,
            stream_seconds,
            wall_seconds: self.wall_seconds,
            total_ops,
            cycles,
            energy_j,
            charged_energy_j,
            battery_charge_j,
            governed_streams,
            arrhythmia_windows,
            controller_switches: switches,
            scratch_slots: self.scratches.len(),
            kernel_builds: self.cache.builds(),
            kernel_hits: self.cache.hits(),
        }
    }

    /// Number of streams in the fleet.
    pub fn streams(&self) -> usize {
        self.shards.iter().map(|s| s.patients.len()).sum()
    }
}

/// Installs the kernel a governor directive maps to.
fn apply_choice(
    engine: &mut SlidingLomb,
    choice: Option<OperatingChoice>,
    choice_backends: &[(OperatingChoice, usize)],
    exact_index: usize,
) {
    let index = choice
        .and_then(|c| {
            choice_backends
                .iter()
                .find(|(known, _)| *known == c)
                .map(|(_, idx)| *idx)
        })
        .unwrap_or(exact_index);
    engine.set_active_backend(index);
}

/// Wires a governor onto one patient: registers the exact fallback and
/// every runnable choice kernel on its engine (cache-shared Arcs, deduped
/// against kernels already registered), applies the governor's initial
/// directive, and attaches the battery.
fn attach_governor(
    patient: &mut PatientStream,
    governor: Box<dyn QualityGovernor>,
    shared: &[(OperatingChoice, Arc<dyn hrv_dsp::FftBackend>)],
    exact: &Arc<dyn hrv_dsp::FftBackend>,
    battery: Option<Battery>,
) {
    // Reuse any exact kernel this engine already knows (the construction
    // kernel, or the one a previous attachment registered) — repeated
    // SetBudget/quality-control attachments must not grow the backend
    // list.
    let exact_index = if patient.engine.backend_at(patient.exact_index).is_exact() {
        patient.exact_index
    } else if patient.engine.active_backend().is_exact() {
        patient.engine.active_backend_index()
    } else {
        patient.engine.add_backend(exact.clone())
    };
    patient.exact_index = exact_index;
    for (choice, backend) in shared {
        if !patient
            .choice_backends
            .iter()
            .any(|(known, _)| known == choice)
        {
            let index = patient.engine.add_backend(backend.clone());
            patient.choice_backends.push((*choice, index));
        }
    }
    let before = (
        patient.engine.active_backend_index(),
        patient.opp.voltage.to_bits(),
    );
    apply_choice(
        &mut patient.engine,
        governor.current(),
        &patient.choice_backends,
        exact_index,
    );
    patient.opp = governor.operating_point();
    record_switch_if_changed(
        &mut patient.journal,
        patient.windows,
        &patient.engine,
        &patient.opp,
        before,
        SwitchReason::Operator,
    );
    patient.battery = battery;
    patient.governor = Some(governor);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_core::{energy_quality_sweep, PsaSystem};
    use hrv_wavelet::WaveletBasis;

    fn small_fleet(streams: usize, duration: f64) -> FleetScheduler {
        fleet_with_workers(streams, duration, 1)
    }

    fn fleet_with_workers(streams: usize, duration: f64, workers: usize) -> FleetScheduler {
        FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams,
                duration,
                seed: 7,
                slice: 60.0,
                workers,
            },
        )
        .expect("valid fleet")
    }

    #[test]
    fn fleet_matches_batch_per_patient() {
        let mut scheduler = small_fleet(6, 400.0);
        let report = scheduler.run();
        // Each patient must emit exactly the windows the batch system
        // would analyse.
        let db = SyntheticDatabase::new(7);
        let system = PsaSystem::new(PsaConfig::conventional()).expect("valid");
        let mut expected = 0u64;
        let mut expected_arr = 0u64;
        for id in 0..6 {
            let condition = if id % 2 == 0 {
                Condition::SinusArrhythmia
            } else {
                Condition::Healthy
            };
            let record = db.record(id, condition, 400.0);
            let analysis = system.analyze(&record.rr).expect("analysis");
            expected += analysis.per_window.len() as u64;
            expected_arr += analysis
                .per_window
                .iter()
                .filter(|(_, p)| p.lf_hf_ratio() < 1.0)
                .count() as u64;
        }
        assert_eq!(report.windows, expected);
        assert_eq!(report.arrhythmia_windows, expected_arr);
        assert_eq!(report.streams, 6);
        assert!(report.windows_per_sec() > 0.0);
        assert!(report.ops_per_window() > 0.0);
        assert!(report.energy_j > 0.0);
        assert!(report.realtime_factor() > 1.0);
    }

    #[test]
    fn serial_fleet_uses_one_scratch_and_one_kernel_build() {
        let mut scheduler = small_fleet(12, 300.0);
        let report = scheduler.run();
        assert_eq!(report.scratch_slots, 1);
        assert_eq!(
            report.kernel_builds, 1,
            "12 engines must share one split-radix kernel"
        );
        assert!(report.windows > 0);
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn sharded_fleet_is_identical_to_serial() {
        let serial = small_fleet(10, 400.0).run();
        for workers in [2, 4] {
            let sharded = fleet_with_workers(10, 400.0, workers).run();
            assert_eq!(sharded.workers, workers);
            assert_eq!(sharded.scratch_slots, workers);
            assert_eq!(sharded.windows, serial.windows, "{workers} workers");
            assert_eq!(sharded.arrhythmia_windows, serial.arrhythmia_windows);
            assert_eq!(sharded.total_ops, serial.total_ops);
            assert_eq!(sharded.cycles, serial.cycles);
            assert_eq!(sharded.energy_j, serial.energy_j);
            assert_eq!(sharded.stream_seconds, serial.stream_seconds);
        }
    }

    #[test]
    fn stream_journals_are_shard_parity_and_bounded() {
        // A deliberately starved budget forces governor activity on
        // every stream: exhaustion events plus down-switches, all of
        // which must land in the journal identically whether the fleet
        // runs serial or across 4 workers.
        let budgeted = |workers: usize| {
            fleet_with_workers(10, 400.0, workers)
                .with_energy_budget(
                    None,
                    StreamBudget {
                        joules_per_interval: 1e-9,
                        interval_windows: 4,
                        battery_capacity_j: 0.0,
                        battery_harvest_w: 0.0,
                    },
                )
                .expect("budget governor")
        };
        let mut serial = budgeted(1);
        serial.run();
        let mut sharded = budgeted(4);
        sharded.run();
        let mut governed_events = 0usize;
        for id in 0..10 {
            let a = serial.stream_events(id).expect("serial journal");
            let b = sharded.stream_events(id).expect("sharded journal");
            assert_eq!(a, b, "stream {id} journal must be shard-parity");
            assert!(a.len() <= EVENT_JOURNAL_CAPACITY);
            assert!(
                matches!(a.last().map(|r| &r.event), Some(StreamEvent::Drain { .. })),
                "drain must be the final event of a finished stream"
            );
            governed_events += a.len().saturating_sub(1);
        }
        assert!(
            governed_events > 0,
            "a starved budget must record budget/switch events"
        );
    }

    #[test]
    fn operator_mode_switches_are_journaled() {
        let mut scheduler = small_fleet(2, 300.0);
        scheduler
            .set_stream_mode(0, ApproximationMode::BandDrop)
            .expect("switch");
        let events = scheduler.stream_events(0).expect("journal");
        assert!(
            matches!(
                events.last(),
                Some(EventRecord {
                    event: StreamEvent::QualitySwitch {
                        reason: SwitchReason::Operator,
                        ..
                    },
                    ..
                })
            ),
            "operator switch must be recorded: {events:?}"
        );
        // Re-selecting the same mode is a no-op for the journal.
        let before = events.len();
        scheduler
            .set_stream_mode(0, ApproximationMode::BandDrop)
            .expect("switch");
        assert_eq!(scheduler.stream_events(0).expect("journal").len(), before);
        assert!(scheduler.stream_events(1).expect("journal").is_empty());
        assert!(matches!(
            scheduler.stream_events(99).unwrap_err(),
            PsaError::UnknownStream(99)
        ));
    }

    #[test]
    fn workers_are_capped_by_streams_and_zero_rejected() {
        let scheduler = fleet_with_workers(3, 300.0, 16);
        assert_eq!(scheduler.shards.len(), 3);
        let err = FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                workers: 0,
                ..FleetConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PsaError::InvalidConfig(_)));
    }

    #[test]
    fn quality_controlled_fleet_switches_without_kernel_builds() {
        let db = SyntheticDatabase::new(3);
        let cohort: Vec<_> = (0..3)
            .map(|id| db.record(id, Condition::SinusArrhythmia, 360.0).rr)
            .collect();
        let sweep = energy_quality_sweep(
            &cohort,
            WaveletBasis::Haar,
            &NodeModel::default(),
            &PsaConfig::conventional(),
        )
        .expect("sweep");
        let mut scheduler = small_fleet(4, 400.0).with_quality_control(&sweep, 5.0);
        // All kernels exist before the first sample flows: construction
        // happened exactly once per distinct operating choice.
        let builds_before = scheduler.kernel_cache().builds();
        let report = scheduler.run();
        assert!(report.windows > 0);
        assert_eq!(
            scheduler.kernel_cache().builds(),
            builds_before,
            "controller switches at run time must be cache lookups"
        );
        // The controller ran: every patient holds one, and audit windows
        // were produced (switch count is workload-dependent, may be 0).
        assert!(scheduler
            .shards
            .iter()
            .flat_map(|s| &s.patients)
            .all(|p| p.governor.is_some()));
        let audits: u64 = scheduler
            .shards
            .iter()
            .flat_map(|s| &s.patients)
            .map(|p| p.governor.as_ref().unwrap().audits())
            .sum();
        assert!(audits > 0);
    }

    #[test]
    fn quality_controlled_shards_match_serial() {
        let db = SyntheticDatabase::new(3);
        let cohort: Vec<_> = (0..3)
            .map(|id| db.record(id, Condition::SinusArrhythmia, 360.0).rr)
            .collect();
        let sweep = energy_quality_sweep(
            &cohort,
            WaveletBasis::Haar,
            &NodeModel::default(),
            &PsaConfig::conventional(),
        )
        .expect("sweep");
        let serial = small_fleet(6, 400.0)
            .with_quality_control(&sweep, 5.0)
            .run();
        let sharded = fleet_with_workers(6, 400.0, 3)
            .with_quality_control(&sweep, 5.0)
            .run();
        assert_eq!(sharded.windows, serial.windows);
        assert_eq!(sharded.total_ops, serial.total_ops);
        assert_eq!(sharded.arrhythmia_windows, serial.arrhythmia_windows);
        assert_eq!(sharded.controller_switches, serial.controller_switches);
    }

    #[test]
    fn training_unlocks_dynamic_choices() {
        let db = SyntheticDatabase::new(3);
        let cohort: Vec<_> = (0..3)
            .map(|id| db.record(id, Condition::SinusArrhythmia, 360.0).rr)
            .collect();
        let sweep = energy_quality_sweep(
            &cohort,
            WaveletBasis::Haar,
            &NodeModel::default(),
            &PsaConfig::conventional(),
        )
        .expect("sweep");
        let dynamic_points = sweep
            .points
            .iter()
            .filter(|p| p.policy == hrv_core::PruningPolicy::Dynamic && p.vfs)
            .count();
        assert!(dynamic_points > 0, "sweep must offer dynamic points");

        let untrained = small_fleet(2, 300.0).with_quality_control(&sweep, 5.0);
        let trained = small_fleet(2, 300.0)
            .with_training(&cohort)
            .expect("trained")
            .with_quality_control(&sweep, 5.0);
        let count = |s: &FleetScheduler| {
            s.shards
                .iter()
                .flat_map(|sh| &sh.patients)
                .next()
                .map(|p| p.choice_backends.len())
                .unwrap_or(0)
        };
        assert!(
            count(&trained) > count(&untrained),
            "training must unlock dynamic operating points ({} vs {})",
            count(&trained),
            count(&untrained)
        );

        // Wrong builder order is an error, not a silent no-op: after
        // with_quality_control the controllers have already resolved
        // their choices.
        let err = small_fleet(2, 300.0)
            .with_quality_control(&sweep, 5.0)
            .with_training(&cohort)
            .unwrap_err();
        assert!(matches!(err, PsaError::InvalidConfig(_)));
    }

    #[test]
    fn calibrated_plan_builds_a_dynamic_fleet() {
        use hrv_core::{ApproximationMode, PruningPolicy};
        let db = SyntheticDatabase::new(3);
        let cohort: Vec<_> = (0..2)
            .map(|id| db.record(id, Condition::SinusArrhythmia, 300.0).rr)
            .collect();
        let config = PsaConfig::proposed(
            WaveletBasis::Haar,
            ApproximationMode::BandDropSet2,
            PruningPolicy::Dynamic,
        );
        let fleet = FleetConfig {
            streams: 2,
            duration: 300.0,
            seed: 7,
            slice: 60.0,
            workers: 1,
        };
        // The config-based constructor refuses (no corpus to calibrate
        // on); a calibrated plan is the supported path.
        assert_eq!(
            FleetScheduler::new(config.clone(), fleet.clone()).unwrap_err(),
            PsaError::NeedsCalibration
        );
        let plan = SpectralPlan::calibrated(config, &cohort).expect("calibrated");
        let mut scheduler = FleetScheduler::from_plan(plan, fleet).expect("fleet");
        assert!(!scheduler
            .shards
            .iter()
            .flat_map(|s| &s.patients)
            .next()
            .expect("patients")
            .engine
            .active_backend()
            .is_exact());
        let report = scheduler.run();
        assert!(report.windows > 0);
    }

    /// Replays `record`'s samples into an external fleet stream.
    fn replay(scheduler: &mut FleetScheduler, id: usize, record: &hrv_ecg::PatientRecord) {
        for (&t, &rr) in record.rr.times().iter().zip(record.rr.intervals()) {
            scheduler.push_rr(id, t, rr).expect("open stream");
        }
    }

    #[test]
    fn external_fleet_is_bit_identical_to_preloaded_cohort() {
        let seed = 7;
        let (streams, duration) = (5, 400.0);
        let mut offline = FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams,
                duration,
                seed,
                slice: 60.0,
                workers: 2,
            },
        )
        .expect("offline fleet");
        offline.run();
        let expected = offline.stream_reports();
        assert_eq!(expected.len(), streams);

        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
        let mut external = FleetScheduler::external(plan, 2).expect("external fleet");
        for id in 0..streams {
            external.open_stream(id).expect("open");
        }
        // Interleave pushes across streams (round-robin-ish) to show the
        // cross-stream feed order does not matter.
        let records: Vec<_> = (0..streams)
            .map(|id| cohort_member(seed, id, duration))
            .collect();
        for (id, record) in records.iter().enumerate() {
            replay(&mut external, id, record);
        }
        let drained = external.close_all();
        assert_eq!(drained, expected, "external feed must be bit-identical");
        assert!(drained.iter().all(|r| r.windows > 0));
        assert!(
            external.stream_reports().is_empty(),
            "close_all empties the fleet"
        );
    }

    #[test]
    fn batch_ingest_is_identical_to_per_sample_ingest() {
        let record = cohort_member(5, 0, 300.0);
        let samples: Vec<(f64, f64)> = record
            .rr
            .times()
            .iter()
            .copied()
            .zip(record.rr.intervals().iter().copied())
            .collect();
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
        let mut per_sample = FleetScheduler::external(plan.clone(), 1).expect("fleet");
        per_sample.open_stream(0).expect("open");
        let mut accepted_singles = 0usize;
        for &(t, rr) in &samples {
            accepted_singles += usize::from(per_sample.push_rr(0, t, rr).expect("push"));
        }
        let mut batched = FleetScheduler::external(plan, 1).expect("fleet");
        batched.open_stream(0).expect("open");
        // Mixed chunk sizes, including the whole tail at once.
        let (head, tail) = samples.split_at(samples.len() / 3);
        let mut accepted_batched = 0usize;
        for chunk in head.chunks(7) {
            accepted_batched += batched.push_rr_batch(0, chunk).expect("batch");
        }
        accepted_batched += batched.push_rr_batch(0, tail).expect("batch");
        assert_eq!(accepted_batched, accepted_singles);
        assert_eq!(
            batched.close_stream(0).expect("close"),
            per_sample.close_stream(0).expect("close"),
            "batch and per-sample ingest must be bit-identical"
        );
        assert_eq!(
            batched.push_rr_batch(9, &samples[..1]).unwrap_err(),
            PsaError::UnknownStream(9)
        );
    }

    #[test]
    fn stream_reports_are_id_ordered_under_sharding() {
        let mut scheduler = fleet_with_workers(9, 300.0, 4);
        scheduler.run();
        let reports = scheduler.stream_reports();
        let ids: Vec<usize> = reports.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
        let total: u64 = reports.iter().map(|r| r.windows).sum();
        assert_eq!(total, scheduler.report().windows);
    }

    #[test]
    fn external_stream_lifecycle_errors_are_typed() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
        let mut fleet = FleetScheduler::external(plan, 1).expect("external");
        fleet.open_stream(3).expect("open");
        assert_eq!(
            fleet.open_stream(3).unwrap_err(),
            PsaError::DuplicateStream(3)
        );
        assert_eq!(
            fleet.push_rr(9, 1.0, 0.8).unwrap_err(),
            PsaError::UnknownStream(9)
        );
        assert_eq!(
            fleet.stream_report(9).unwrap_err(),
            PsaError::UnknownStream(9)
        );
        assert_eq!(
            fleet.close_stream(9).unwrap_err(),
            PsaError::UnknownStream(9)
        );
        // Implausible samples are gated, not errors.
        assert!(fleet.push_rr(3, 1.0, 0.8).expect("open stream"));
        assert!(!fleet.push_rr(3, 2.0, 10.0).expect("gated dropout"));
        let report = fleet.close_stream(3).expect("close");
        assert_eq!(report.ingest.accepted, 1);
        assert_eq!(report.ingest.rejected_dropout, 1);
        assert_eq!(
            fleet.close_stream(3).unwrap_err(),
            PsaError::UnknownStream(3)
        );
        assert_eq!(
            FleetScheduler::external(
                SpectralPlan::new(PsaConfig::conventional()).expect("plan"),
                0
            )
            .unwrap_err(),
            PsaError::InvalidConfig("fleet needs ≥ 1 worker".into())
        );
    }

    #[test]
    fn close_stream_keeps_the_index_consistent() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
        let mut fleet = FleetScheduler::external(plan, 1).expect("external");
        for id in 0..4 {
            fleet.open_stream(id).expect("open");
        }
        fleet.close_stream(1).expect("close");
        // The swap-removed slot now holds another stream; pushes must
        // still route to the right ids.
        for id in [0usize, 2, 3] {
            assert!(fleet.push_rr(id, 1.0, 0.8).expect("routed"));
            assert_eq!(fleet.stream_report(id).expect("report").id, id);
        }
        assert_eq!(
            fleet
                .stream_reports()
                .iter()
                .map(|r| r.id)
                .collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
    }

    #[test]
    fn set_stream_mode_switches_through_the_shared_cache() {
        use hrv_core::ApproximationMode;
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
        let mut fleet = FleetScheduler::external(plan, 1).expect("external");
        fleet.open_stream(0).expect("open");
        fleet.open_stream(1).expect("open");
        let builds_start = fleet.kernel_cache().builds();
        let name = fleet
            .set_stream_mode(0, ApproximationMode::BandDropSet3)
            .expect("switch");
        assert!(name.contains("prune60%"), "got kernel {name}");
        assert_eq!(fleet.kernel_cache().builds(), builds_start + 1);
        // Second stream switching to the same mode is a cache lookup.
        fleet
            .set_stream_mode(1, ApproximationMode::BandDropSet3)
            .expect("switch");
        assert_eq!(fleet.kernel_cache().builds(), builds_start + 1);
        // Back to exact: resolves to the already-built split-radix kernel.
        let exact = fleet
            .set_stream_mode(0, ApproximationMode::Exact)
            .expect("restore");
        assert_eq!(exact, "split-radix");
        assert_eq!(fleet.kernel_cache().builds(), builds_start + 1);
        assert_eq!(
            fleet
                .set_stream_mode(9, ApproximationMode::Exact)
                .unwrap_err(),
            PsaError::UnknownStream(9)
        );
    }

    #[test]
    fn repeated_budget_attachments_do_not_grow_backends() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
        let mut fleet = FleetScheduler::external(plan, 1).expect("external");
        fleet.open_stream(0).expect("open");
        let budget = StreamBudget::per_interval(1e-3, 4);
        fleet.set_stream_budget(0, budget).expect("first attach");
        // Force the active kernel to a pruned one, so a buggy re-attach
        // would register a duplicate exact fallback.
        fleet
            .set_stream_mode(0, ApproximationMode::BandDropSet3)
            .expect("pruned");
        let snapshot = {
            let patient = &fleet.shards[0].patients[0];
            (patient.exact_index, patient.choice_backends.len())
        };
        for _ in 0..3 {
            fleet.set_stream_budget(0, budget).expect("re-attach");
        }
        let patient = &fleet.shards[0].patients[0];
        assert_eq!(
            (patient.exact_index, patient.choice_backends.len()),
            snapshot,
            "re-attachment must reuse registered kernels"
        );
        assert!(patient.engine.backend_at(patient.exact_index).is_exact());
    }

    #[test]
    fn fleet_report_publishes_into_telemetry() {
        let mut scheduler = small_fleet(2, 300.0);
        let report = scheduler.run();
        let telemetry = Telemetry::new();
        report.publish(&telemetry);
        scheduler.kernel_cache().publish(&telemetry);
        let text = telemetry.render();
        assert!(text.contains(&format!("hrv_fleet_windows_total {}", report.windows)));
        assert!(text.contains("hrv_fleet_streams 2"));
        assert!(text.contains("hrv_kernel_builds_total 1"));
        assert!(text.contains("# TYPE hrv_fleet_windows_per_second gauge"));
    }

    #[test]
    fn empty_fleet_rejected() {
        let err = FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams: 0,
                ..FleetConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PsaError::InvalidConfig(_)));
    }
}
