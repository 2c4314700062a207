//! Multiplexing thousands of patient streams across sharded workers.
//!
//! [`FleetScheduler`] owns independent patient streams (ingest ring +
//! sliding engine + optional run-time quality governor each), partitioned
//! into [`FleetConfig::workers`] shards by a stable hash of the stream id.
//! Each shard owns its streams and one scratch arena. A sample reaches a
//! stream one way — the batch path of [`FleetScheduler::push_rr_batch`]
//! (or its beat twin [`FleetScheduler::push_beat_batch`]) — whether the
//! gateway pushes it or [`FleetScheduler::run`] replays the synthetic
//! cohort, and every window, pushed or flushed at the drain, goes through
//! one window driver. Whole-fleet steps drive each shard on its own
//! scoped thread. Every kernel — base, exact
//! fallback, and each governor choice — comes from one [`KernelCache`]
//! shared across all shards, so fleet scale-up and quality switches never
//! pay kernel-construction cost. Steady-state per-window work allocates
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
use std::collections::btree_map::{BTreeMap, Entry};
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
    /// battery-low crossings, drain, and a feeder's admission events.
    /// Keyed to the stream's window count (never wall-clock), so shard
    /// parity holds.
    journal: EventJournal,
    /// Budget-exhaustion edge detector (previous push's state).
    budget_exhausted: bool,
    /// Battery-low edge detector (previous push's state).
    battery_low: bool,
    /// Whether the stream has been flushed and accepted nothing since —
    /// a drain then has nothing to do, so finishing is idempotent.
    drained: bool,
}

/// One worker's slice of the fleet: its streams by id, plus the scratch
/// arena their windows are computed in (kernels stay shared through the
/// fleet-wide [`KernelCache`]).
#[derive(Debug, Default)]
struct Shard {
    streams: BTreeMap<usize, PatientStream>,
    scratch: StreamScratch,
}

/// The deterministic synthetic cohort member a fleet assigns to stream
/// `id`: alternating sinus-arrhythmia (even ids) and healthy (odd ids)
/// patients from the seeded [`SyntheticDatabase`]. Exposed so external
/// feeders — the `hrv-service` load generator, loopback tests — can
/// replay exactly the samples an offline [`FleetScheduler`] run
/// replays, making service-vs-offline reports comparable bit for bit.
pub fn cohort_member(seed: u64, id: usize, duration: f64) -> PatientRecord {
    let condition = if id.is_multiple_of(2) {
        Condition::SinusArrhythmia
    } else {
        Condition::Healthy
    };
    SyntheticDatabase::new(seed).record(id, condition, duration)
}

/// The time-ordered `(t, rr)` samples of [`cohort_member`]`(seed, id,
/// duration)` — exactly what [`FleetScheduler::run`] feeds stream `id`,
/// so an external feeder pushing them reproduces the offline run.
pub fn cohort_samples(seed: u64, id: usize, duration: f64) -> Vec<(f64, f64)> {
    let rr = cohort_member(seed, id, duration).rr;
    rr.times()
        .iter()
        .copied()
        .zip(rr.intervals().iter().copied())
        .collect()
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
    /// The shared `OpCount`→joules conversion and per-kernel cost
    /// predictor (memoized in `cache` per plan) — the single place fleet
    /// energy math lives.
    profile: CostProfile,
    shards: Vec<Shard>,
    /// The synthetic cohort [`FleetScheduler::run`] replays, indexed by
    /// stream id (empty for an external fleet and for closed streams).
    cohort: Vec<Samples>,
    /// Prototype engine cloned into every stream (kernels stay shared
    /// Arcs through the cache), so [`FleetScheduler::open_stream`] pays
    /// no estimator/real-FFT setup.
    prototype: SlidingLomb,
    detector: ArrhythmiaDetector,
    /// Stream time the cohort has been replayed up to (exclusive).
    fed_until: f64,
    wall_seconds: f64,
    /// Observability hooks, once [`FleetScheduler::set_observability`]
    /// wires them in — `None` keeps the hot path free of clock reads.
    instruments: Option<FleetInstruments>,
}

/// One stream's time-ordered `(t, rr)` samples.
type Samples = Vec<(f64, f64)>;

/// What the window driver's accounting sink hands back to the caller.
#[derive(Debug, Default)]
struct SinkOutcome {
    /// Last governor directive of this batch of windows.
    directive: Option<Directive>,
    /// Whether *any* emitted window scheduled an audit for the next one —
    /// sticky, so a multi-window push (e.g. after a sensor gap) cannot
    /// drop a scheduled audit.
    audit_next: bool,
}

/// What every window computation reads and no shard writes.
#[derive(Clone, Copy)]
struct Drive<'a> {
    detector: ArrhythmiaDetector,
    profile: &'a CostProfile,
    instruments: Option<&'a FleetInstruments>,
}

/// The engine step one call of the window driver runs.
#[derive(Clone, Copy)]
enum Step {
    /// Feed one clean `(t, rr)` sample.
    Push(f64, f64),
    /// Flush the trailing windows (batch parity).
    Finish,
}

/// The ingest gate of a pre-computed `(t, rr)` sample.
fn gate_rr(ingest: &mut RrIngest, &(t, rr): &(f64, f64)) -> bool {
    ingest.push_rr(t, rr)
}

/// The ingest gate of a raw beat time (delineate-rule gating).
fn gate_beat(ingest: &mut RrIngest, &t: &f64) -> bool {
    ingest.push_beat(t)
}

impl PatientStream {
    fn new(id: usize, engine: SlidingLomb, opp: OperatingPoint) -> Self {
        PatientStream {
            id,
            ingest: RrIngest::new(),
            engine,
            governor: None,
            choice_backends: Vec::new(),
            exact_index: 0,
            opp,
            energy_j: 0.0,
            battery: None,
            windows: 0,
            arrhythmia_windows: 0,
            ops: OpCount::default(),
            compute_hist: None,
            journal: EventJournal::new(EVENT_JOURNAL_CAPACITY),
            budget_exhausted: false,
            battery_low: false,
            drained: false,
        }
    }

    /// The batch feed path: gates each sample into the ingest ring and
    /// drives every window the accepted ones complete, steering the
    /// stream by what those windows decided. Returns how many samples
    /// passed the gate.
    fn push_batch<T>(
        &mut self,
        samples: &[T],
        gate: fn(&mut RrIngest, &T) -> bool,
        scratch: &mut StreamScratch,
        drive: Drive<'_>,
    ) -> usize {
        let mut accepted = 0;
        for sample in samples {
            if !gate(&mut self.ingest, sample) {
                continue;
            }
            accepted += 1;
            self.drained = false;
            while let Some((t, rr)) = self.ingest.pop() {
                let outcome = self.step(Step::Push(t, rr), scratch, drive);
                self.steer(outcome);
            }
        }
        accepted
    }

    /// Flushes the trailing windows and records the drain; a stream that
    /// accepted nothing since its last drain is left alone. Trailing
    /// windows still feed the governor so its statistics cover everything
    /// the report counts; its directive has nothing left to steer.
    fn finish(&mut self, scratch: &mut StreamScratch, drive: Drive<'_>) {
        if self.drained {
            return;
        }
        self.step(Step::Finish, scratch, drive);
        self.drained = true;
        self.journal.record(
            self.windows,
            StreamEvent::Drain {
                windows: self.windows,
            },
        );
    }

    /// The window driver. Builds the accounting sink — count windows and
    /// ops, apply the batch arrhythmia detector, charge each window's
    /// energy (at the operating point in force) to the stream and its
    /// battery, feed the governor the full observation — runs the engine
    /// step through it, and times the step when it emits.
    fn step(&mut self, step: Step, scratch: &mut StreamScratch, drive: Drive<'_>) -> SinkOutcome {
        // Observability gate: pay clock reads (and a span) only for a
        // step that can emit — a flush, or a push crossing a window
        // boundary. Non-emitting pushes, the vast majority, cost two f64
        // compares on top of the plain path.
        let timed = drive.instruments.filter(|_| match step {
            Step::Push(t, _) => self.engine.will_emit(t),
            Step::Finish => true,
        });
        // Directives switch backends only after the windows they
        // observed, so the label pair in force during the compute is the
        // pre-step one.
        if let Some(ins) = timed {
            self.refresh_compute_hist(ins);
        }
        let compute = timed
            .zip(self.compute_hist.as_ref())
            .map(|(ins, (_, _, hist))| ins.tracer.stage("window_compute", hist));
        let governor_hist = timed.map(|ins| &ins.governor_hist);
        let windows_before = self.windows;
        let opp = self.opp;
        let mut outcome = SinkOutcome::default();
        let mut sink = |w: &WindowView<'_>| {
            self.windows += 1;
            self.ops += w.ops;
            if drive.detector.detect(&w.powers) {
                self.arrhythmia_windows += 1;
            }
            // Energy accounting runs through the shared cost profile —
            // the same conversion the governor's predictions use, so a
            // budget policy compares like with like.
            let charged = drive.profile.window_energy(&w.ops, &opp);
            self.energy_j += charged;
            let soc = match self.battery.as_mut() {
                Some(battery) => {
                    battery.harvest(drive.profile.hop_s());
                    battery.draw(charged);
                    battery.state_of_charge()
                }
                None => 1.0,
            };
            if let Some(governor) = self.governor.as_deref_mut() {
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
        };
        match step {
            Step::Push(t, rr) => self.engine.push(t, rr, scratch, &mut sink),
            Step::Finish => self.engine.finish(scratch, &mut sink),
        };
        // A step that can emit may still emit nothing (skip rules, no
        // trailing window); only real window computes are timed (the
        // stage records as it drops), so `_count` equals the number of
        // emitting steps.
        if let Some(stage) = compute {
            if self.windows == windows_before {
                stage.cancel();
            }
        }
        outcome
    }

    /// Applies what a push's windows decided: the governor's directive,
    /// then the budget and battery edge checks, then the audit request.
    fn steer(&mut self, outcome: SinkOutcome) {
        if let Some(directive) = outcome.directive {
            let before = self.operating_key();
            self.apply_choice(directive.choice);
            self.opp = directive.opp;
            self.record_switch_since(before, SwitchReason::Governor);
        }
        // Edge-detected forensics: budget exhaustion and battery-low are
        // recorded once per crossing, re-arming when the condition
        // clears (a new budget interval, a harvesting recharge). Both
        // derive from per-stream deterministic state, so the journal is
        // shard-parity safe.
        if let Some(state) = self.governor.as_ref().and_then(|g| g.budget()) {
            let exhausted = state.budget_j > 0.0 && state.spent_j >= state.budget_j;
            if exhausted && !self.budget_exhausted {
                self.journal.record(
                    self.windows,
                    StreamEvent::BudgetExhausted {
                        spent_j: state.spent_j,
                        budget_j: state.budget_j,
                    },
                );
            }
            self.budget_exhausted = exhausted;
        }
        if let Some(soc) = self.battery.as_ref().map(Battery::state_of_charge) {
            let low = soc < BATTERY_LOW_SOC;
            if low && !self.battery_low {
                self.journal
                    .record(self.windows, StreamEvent::BatteryLow { soc });
            }
            self.battery_low = low;
        }
        if outcome.audit_next {
            self.engine.request_audit();
        }
    }

    /// Refreshes the cached window-compute histogram handle,
    /// re-registering the labelled series only when the (kernel, rail)
    /// pair changed since the handle was taken — the steady state is two
    /// loads and a compare.
    fn refresh_compute_hist(&mut self, instruments: &FleetInstruments) {
        let (backend, rail_bits) = self.operating_key();
        if matches!(&self.compute_hist, Some((b, r, _)) if *b == backend && *r == rail_bits) {
            return;
        }
        let rail = format!("{:.2}V", self.opp.voltage);
        let hist = instruments.telemetry.histogram_with(
            WINDOW_COMPUTE_METRIC,
            "fleet worker time computing emitted windows, by kernel, SIMD level and DVFS rail",
            &[
                ("kernel", self.engine.active_backend().name()),
                ("simd", hrv_dsp::SimdLevel::active().as_str()),
                ("rail", &rail),
            ],
        );
        self.compute_hist = Some((backend, rail_bits, hist));
    }

    /// The (backend, rail) pair in force — what a quality switch changes.
    fn operating_key(&self) -> (usize, u64) {
        (
            self.engine.active_backend_index(),
            self.opp.voltage.to_bits(),
        )
    }

    /// Records a quality/DVFS switch when the operating pair changed
    /// since `before`; the journal stays quiet for directives that
    /// re-select the current point.
    fn record_switch_since(&mut self, before: (usize, u64), reason: SwitchReason) {
        if self.operating_key() != before {
            self.journal.record(
                self.windows,
                StreamEvent::QualitySwitch {
                    backend: self.engine.active_backend().name().to_string(),
                    rail_v: self.opp.voltage,
                    reason,
                },
            );
        }
    }

    /// Installs the kernel a governor choice maps to (`None` = exact).
    fn apply_choice(&mut self, choice: Option<OperatingChoice>) {
        let index = choice
            .and_then(|c| self.choice_index(c))
            .unwrap_or(self.exact_index);
        self.engine.set_active_backend(index);
    }

    /// The engine backend index registered for `choice`, if any.
    fn choice_index(&self, choice: OperatingChoice) -> Option<usize> {
        self.choice_backends
            .iter()
            .find(|(known, _)| *known == choice)
            .map(|&(_, idx)| idx)
    }

    /// The engine backend index of `choice`, registering `backend` for
    /// it on first use.
    fn register_choice(
        &mut self,
        choice: OperatingChoice,
        backend: &Arc<dyn hrv_dsp::FftBackend>,
    ) -> usize {
        self.choice_index(choice).unwrap_or_else(|| {
            let idx = self.engine.add_backend(backend.clone());
            self.choice_backends.push((choice, idx));
            idx
        })
    }

    /// Wires a governor onto the stream: registers the exact fallback and
    /// every runnable choice kernel on its engine (cache-shared Arcs,
    /// deduped against kernels already registered), applies the
    /// governor's initial directive, and attaches the battery.
    fn attach_governor(
        &mut self,
        governor: Box<dyn QualityGovernor>,
        shared: &[(OperatingChoice, Arc<dyn hrv_dsp::FftBackend>)],
        exact: &Arc<dyn hrv_dsp::FftBackend>,
        battery: Option<Battery>,
    ) {
        // Reuse any exact kernel this engine already knows (the
        // construction kernel, or the one a previous attachment
        // registered) — repeated SetBudget/quality-control attachments
        // must not grow the backend list.
        self.exact_index = if self.engine.backend_at(self.exact_index).is_exact() {
            self.exact_index
        } else if self.engine.active_backend().is_exact() {
            self.engine.active_backend_index()
        } else {
            self.engine.add_backend(exact.clone())
        };
        for (choice, backend) in shared {
            self.register_choice(*choice, backend);
        }
        let before = self.operating_key();
        self.apply_choice(governor.current());
        self.opp = governor.operating_point();
        self.record_switch_since(before, SwitchReason::Operator);
        self.battery = battery;
        self.governor = Some(governor);
    }

    fn battery_status(&self) -> Option<BatteryStatus> {
        self.battery.as_ref().map(|b| BatteryStatus {
            charge_j: b.charge_j(),
            capacity_j: b.capacity_j(),
        })
    }

    /// The per-stream report of the stream's current state.
    fn report(&self) -> StreamReport {
        StreamReport {
            id: self.id,
            windows: self.windows,
            arrhythmia_windows: self.arrhythmia_windows,
            ops: self.ops,
            energy_j: self.energy_j,
            battery: self.battery_status(),
            ingest: self.ingest.stats(),
            backend: self.engine.active_backend().name().to_string(),
        }
    }
}

impl Shard {
    /// Replays the cohort samples in `[from, to)` to every stream of the
    /// shard that has any; streams without cohort samples (opened
    /// externally) are skipped. Returns `true` while any of them still
    /// has samples left.
    fn replay(&mut self, cohort: &[Samples], from: f64, to: f64, drive: Drive<'_>) -> bool {
        let mut remaining = false;
        for (&id, stream) in &mut self.streams {
            let Some(samples) = cohort.get(id) else {
                continue;
            };
            let start = samples.partition_point(|&(t, _)| t < from);
            let end = samples.partition_point(|&(t, _)| t < to).max(start);
            stream.push_batch(&samples[start..end], gate_rr, &mut self.scratch, drive);
            remaining |= end < samples.len();
        }
        remaining
    }

    /// Drains every stream of the shard.
    fn finish(&mut self, drive: Drive<'_>) {
        for stream in self.streams.values_mut() {
            stream.finish(&mut self.scratch, drive);
        }
    }
}

/// Runs `work` on every shard — inline for one shard, on one scoped
/// thread per shard for more — and reports whether any call returned
/// `true`.
fn fan_out(shards: &mut [Shard], work: impl Fn(&mut Shard) -> bool + Sync) -> bool {
    if let [shard] = shards {
        return work(shard);
    }
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter_mut()
            .map(|shard| s.spawn(move || work(shard)))
            .collect();
        handles
            .into_iter()
            // analyze::allow(panic-free-wire): swallowing a worker panic would silently lose a shard's samples; propagating it is the only honest outcome
            .map(|h| h.join().expect("fleet worker panicked"))
            .fold(false, |acc, r| acc | r)
    })
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
    /// dynamic operating points. The cohort is synthesised here and
    /// opened through [`FleetScheduler::open_stream`]; [`FleetScheduler::run`]
    /// later feeds it through the same batch path an external feeder uses.
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
        let cohort = (0..fleet.streams)
            .map(|id| cohort_samples(fleet.seed, id, fleet.duration))
            .collect();
        let mut scheduler = Self::build(plan, fleet, workers)?;
        for id in 0..scheduler.fleet.streams {
            scheduler.open_stream(id)?;
        }
        scheduler.cohort = cohort;
        Ok(scheduler)
    }

    /// Builds an **externally fed** fleet: no synthetic cohort. Streams
    /// are opened with [`FleetScheduler::open_stream`] and fed batches
    /// with [`FleetScheduler::push_rr_batch`] /
    /// [`FleetScheduler::push_beat_batch`] — the ingestion path the
    /// `hrv-service` gateway drives on every wire push, and the one
    /// [`FleetScheduler::run`] replays a cohort through, so per-stream
    /// reports are bit-identical to an offline run over the same samples.
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
        let profile = cache.cost_profile(&plan, &NodeModel::default());
        Ok(FleetScheduler {
            plan,
            cache,
            fleet,
            profile,
            shards: (0..workers).map(|_| Shard::default()).collect(),
            cohort: Vec::new(),
            prototype,
            detector: ArrhythmiaDetector::default(),
            fed_until: 0.0,
            wall_seconds: 0.0,
            instruments: None,
        })
    }

    /// The shards, mutably, beside the cohort and what the window driver
    /// reads.
    fn split(&mut self) -> (&mut [Shard], &[Samples], Drive<'_>) {
        let drive = Drive {
            detector: self.detector,
            profile: &self.profile,
            instruments: self.instruments.as_ref(),
        };
        (&mut self.shards, &self.cohort, drive)
    }

    fn stream(&self, id: usize) -> Result<&PatientStream, PsaError> {
        self.shards[shard_of(id, self.shards.len())]
            .streams
            .get(&id)
            .ok_or(PsaError::UnknownStream(id as u64))
    }

    fn stream_mut(&mut self, id: usize) -> Result<&mut PatientStream, PsaError> {
        let shard = shard_of(id, self.shards.len());
        self.shards[shard]
            .streams
            .get_mut(&id)
            .ok_or(PsaError::UnknownStream(id as u64))
    }

    /// Every open stream, shard by shard.
    fn patients(&self) -> impl Iterator<Item = &PatientStream> {
        self.shards.iter().flat_map(|s| s.streams.values())
    }

    fn patients_mut(&mut self) -> impl Iterator<Item = &mut PatientStream> {
        self.shards.iter_mut().flat_map(|s| s.streams.values_mut())
    }

    /// Opens an externally fed stream. Also usable on a cohort fleet to
    /// add live streams next to the cohort's.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::DuplicateStream`] when `id` is already open.
    pub fn open_stream(&mut self, id: usize) -> Result<(), PsaError> {
        let shard = shard_of(id, self.shards.len());
        match self.shards[shard].streams.entry(id) {
            Entry::Occupied(_) => Err(PsaError::DuplicateStream(id as u64)),
            Entry::Vacant(slot) => {
                slot.insert(PatientStream::new(
                    id,
                    self.prototype.clone(),
                    self.profile.node().dvfs.nominal(),
                ));
                Ok(())
            }
        }
    }

    /// Feeds a batch of pre-computed `(beat time, RR)` samples to stream
    /// `id`, driving every window they complete through the same
    /// accounting path as an offline run — one lookup and one wall-clock
    /// measurement per batch, so a high-rate feeder (the `hrv-service`
    /// gateway hands each wire push over here) does not pay per-sample
    /// overhead. A one-sample batch is the per-sample feed. Returns how
    /// many samples passed the ingest plausibility gate.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn push_rr_batch(&mut self, id: usize, samples: &[(f64, f64)]) -> Result<usize, PsaError> {
        self.push_batch(id, samples, gate_rr)
    }

    /// Feeds a batch of raw detected beat times to stream `id`
    /// (delineate-rule gating, as [`RrIngest::push_beat`]) through the
    /// path of [`FleetScheduler::push_rr_batch`]. Returns how many beats
    /// completed a plausible interval.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn push_beat_batch(&mut self, id: usize, beats: &[f64]) -> Result<usize, PsaError> {
        self.push_batch(id, beats, gate_beat)
    }

    fn push_batch<T>(
        &mut self,
        id: usize,
        samples: &[T],
        gate: fn(&mut RrIngest, &T) -> bool,
    ) -> Result<usize, PsaError> {
        let started = Instant::now();
        let (shards, _, drive) = self.split();
        let shard = &mut shards[shard_of(id, shards.len())];
        let stream = shard
            .streams
            .get_mut(&id)
            .ok_or(PsaError::UnknownStream(id as u64))?;
        let accepted = stream.push_batch(samples, gate, &mut shard.scratch, drive);
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
        let patient = self.stream_mut(id)?;
        let index = patient.register_choice(choice, &backend);
        let before = patient.operating_key();
        patient.engine.set_active_backend(index);
        patient.record_switch_since(before, SwitchReason::Operator);
        Ok(patient.engine.active_backend().name().to_string())
    }

    /// The bounded event journal of stream `id`, oldest first — the
    /// stream's forensics: quality/DVFS switches (with the reason),
    /// budget exhaustion, battery-low crossings, drain and
    /// [`FleetScheduler::record_stream_event`]'s events. Records are
    /// keyed to the stream's window count, never wall-clock, so a
    /// sharded fleet returns journals bit-identical to a serial run.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn stream_events(&self, id: usize) -> Result<Vec<EventRecord>, PsaError> {
        Ok(self.stream(id)?.journal.events())
    }

    /// Journals a feeder's event — the gateway's admissions and `Busy`
    /// refusals — on stream `id`, stamped with its window count, in the
    /// same sequence as its analysis events.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn record_stream_event(&mut self, id: usize, event: StreamEvent) -> Result<(), PsaError> {
        let stream = self.stream_mut(id)?;
        stream.journal.record(stream.windows, event);
        Ok(())
    }

    /// Whether stream `id` is open.
    pub fn is_open(&self, id: usize) -> bool {
        self.stream(id).is_ok()
    }

    /// The current per-stream report of stream `id` (no finishing — the
    /// stream keeps running).
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn stream_report(&self, id: usize) -> Result<StreamReport, PsaError> {
        Ok(self.stream(id)?.report())
    }

    /// Per-stream reports of every open stream, id-ordered regardless of
    /// sharding (the per-stream counterpart of [`FleetScheduler::report`]).
    pub fn stream_reports(&self) -> Vec<StreamReport> {
        let mut reports: Vec<StreamReport> = self.patients().map(PatientStream::report).collect();
        reports.sort_by_key(|r| r.id);
        reports
    }

    /// Flushes stream `id`'s trailing windows (batch parity), removes it
    /// from the fleet and returns its final report. A closed cohort
    /// stream drops its remaining cohort samples, so an id opened again
    /// later is an external stream.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::UnknownStream`] when `id` is not open.
    pub fn close_stream(&mut self, id: usize) -> Result<StreamReport, PsaError> {
        let (shards, _, drive) = self.split();
        let shard = &mut shards[shard_of(id, shards.len())];
        let mut stream = shard
            .streams
            .remove(&id)
            .ok_or(PsaError::UnknownStream(id as u64))?;
        stream.finish(&mut shard.scratch, drive);
        if let Some(samples) = self.cohort.get_mut(id) {
            *samples = Vec::new();
        }
        Ok(stream.report())
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
            shard.streams.clear();
        }
        self.cohort.clear();
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
        if self.patients().any(|p| p.governor.is_some()) {
            return Err(PsaError::InvalidConfig(
                "attach training before with_quality_control: governors already \
                 resolved their operating choices without it"
                    .into(),
            ));
        }
        let training = Arc::new(TrainingSet::from_cohort(self.plan.config(), cohort)?);
        self.plan = self.plan.with_training(training);
        self.profile = self.cache.cost_profile(&self.plan, self.profile.node());
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
        let nominal = self.profile.node().dvfs.nominal();
        for patient in self.patients_mut() {
            let governor =
                DistortionGovernor::new(inner.clone(), qdes_pct).with_operating_point(nominal);
            patient.attach_governor(Box::new(governor), &shared, &exact, None);
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
    /// unknown (0) — ordering then falls to rail voltage and predicted
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
    /// the Table I static modes compete on rail and predicted cost alone.
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
        for patient in self.patients_mut() {
            let governor = EnergyBudgetGovernor::new(
                candidates.clone(),
                budget.joules_per_interval,
                budget.interval_windows,
            );
            patient.attach_governor(Box::new(governor), &shared, &exact, budget.battery());
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
        let patient = self.stream_mut(id)?;
        let governor = EnergyBudgetGovernor::new(
            candidates,
            budget.joules_per_interval,
            budget.interval_windows,
        );
        patient.attach_governor(Box::new(governor), &shared, &exact, budget.battery());
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
        let patient = self.stream(id)?;
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
            battery: patient.battery_status(),
            backend: patient.engine.active_backend().name().to_string(),
        })
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
        for patient in self.patients_mut() {
            patient.compute_hist = None;
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

    /// Replays the cohort up to stream-time `t_limit` (seconds): every
    /// cohort stream is fed its samples in `[fed_until, t_limit)` through
    /// the batch path of [`FleetScheduler::push_rr_batch`]. Returns
    /// `true` while any stream still has cohort samples left.
    pub fn run_until(&mut self, t_limit: f64) -> bool {
        let started = Instant::now();
        let from = self.fed_until;
        let (shards, cohort, drive) = self.split();
        let remaining = fan_out(shards, |shard| shard.replay(cohort, from, t_limit, drive));
        self.fed_until = from.max(t_limit);
        self.wall_seconds += started.elapsed().as_secs_f64();
        remaining
    }

    /// Flushes the trailing windows of every stream not yet drained
    /// (batch parity) and journals each stream's drain.
    pub fn finish(&mut self) {
        let started = Instant::now();
        let (shards, _, drive) = self.split();
        fan_out(shards, |shard| {
            shard.finish(drive);
            false
        });
        self.wall_seconds += started.elapsed().as_secs_f64();
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
        let mut by_id: Vec<&PatientStream> = self.patients().collect();
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
            // A stream's progress is its last accepted beat time.
            if let Some(t) = patient.ingest.last_time() {
                stream_seconds += t;
            }
        }
        // All OpCount→cycles/joules conversion goes through the shared
        // cost profile.
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
            scratch_slots: self.shards.len(),
            kernel_builds: self.cache.builds(),
            kernel_hits: self.cache.hits(),
        }
    }

    /// Number of streams in the fleet.
    pub fn streams(&self) -> usize {
        self.shards.iter().map(|s| s.streams.len()).sum()
    }
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
        assert!(scheduler.patients().all(|p| p.governor.is_some()));
        let audits: u64 = scheduler
            .patients()
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
            s.patients()
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
            .patients()
            .next()
            .expect("patients")
            .engine
            .active_backend()
            .is_exact());
        let report = scheduler.run();
        assert!(report.windows > 0);
    }

    /// Replays `samples` into an external fleet stream, one sample per
    /// batch.
    fn replay(scheduler: &mut FleetScheduler, id: usize, samples: &[(f64, f64)]) {
        for sample in samples {
            scheduler
                .push_rr_batch(id, std::slice::from_ref(sample))
                .expect("open stream");
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
        for id in 0..streams {
            replay(&mut external, id, &cohort_samples(seed, id, duration));
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
        let samples = cohort_samples(5, 0, 300.0);
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
        let mut per_sample = FleetScheduler::external(plan.clone(), 1).expect("fleet");
        per_sample.open_stream(0).expect("open");
        let mut accepted_singles = 0usize;
        for sample in &samples {
            accepted_singles += per_sample
                .push_rr_batch(0, std::slice::from_ref(sample))
                .expect("push");
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
    fn beat_batches_are_identical_whatever_the_chunking() {
        let beats = cohort_member(5, 1, 300.0).rr.times().to_vec();
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
        let feed = |chunks: &[usize]| {
            let mut fleet = FleetScheduler::external(plan.clone(), 1).expect("fleet");
            fleet.open_stream(0).expect("open");
            let mut accepted = 0usize;
            let mut rest = beats.as_slice();
            for &n in chunks.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(n.min(rest.len()));
                accepted += fleet.push_beat_batch(0, head).expect("push");
                rest = tail;
            }
            (accepted, fleet.close_stream(0).expect("close"))
        };
        let singles = feed(&[1]);
        assert_eq!(singles.0, beats.len() - 1, "the first beat only anchors");
        assert!(singles.1.windows > 0);
        assert_eq!(feed(&[7, 1, 64]), singles);
        assert_eq!(feed(&[beats.len()]), singles);
    }

    #[test]
    fn finish_drains_streams_opened_after_run() {
        let mut fleet = small_fleet(2, 300.0);
        fleet.run();
        fleet.open_stream(10).expect("late stream");
        let samples = cohort_samples(7, 0, 300.0);
        fleet.push_rr_batch(10, &samples).expect("push");
        fleet.finish();
        let drains = |fleet: &FleetScheduler, id: usize| {
            let events = fleet.stream_events(id).expect("journal");
            assert!(
                matches!(
                    events.last().map(|r| &r.event),
                    Some(StreamEvent::Drain { .. })
                ),
                "stream {id} must end drained: {events:?}"
            );
            events
                .iter()
                .filter(|r| matches!(r.event, StreamEvent::Drain { .. }))
                .count()
        };
        assert_eq!(drains(&fleet, 10), 1);
        assert_eq!(drains(&fleet, 0), 1, "a second finish re-drains nothing");
        // Fed cohort stream 0's samples, the late stream flushed the same
        // trailing windows.
        let reports = fleet.close_all();
        let late = reports.iter().find(|r| r.id == 10).expect("late report");
        assert_eq!(
            StreamReport {
                id: 0,
                ..late.clone()
            },
            reports[0]
        );
    }

    #[test]
    fn closing_a_cohort_stream_leaves_the_others_untouched() {
        let mut full = fleet_with_workers(6, 400.0, 2);
        full.run();
        let mut fleet = fleet_with_workers(6, 400.0, 2);
        fleet.run_until(150.0);
        fleet.close_stream(3).expect("close");
        // A cohort id opened again is an external stream: the replay
        // feeds it nothing.
        fleet.open_stream(3).expect("reopen");
        fleet.run();
        let mut reports = fleet.stream_reports();
        let reopened = reports.remove(3);
        assert_eq!((reopened.windows, reopened.ingest.accepted), (0, 0));
        let mut expected = full.stream_reports();
        expected.remove(3);
        assert_eq!(reports, expected);
    }

    #[test]
    fn cohort_stream_seconds_is_the_sum_of_last_beat_times() {
        let (streams, duration) = (5, 400.0);
        let report = fleet_with_workers(streams, duration, 2).run();
        let expected: f64 = (0..streams)
            .map(|id| {
                *cohort_member(7, id, duration)
                    .rr
                    .times()
                    .last()
                    .expect("beats")
            })
            .sum();
        assert_eq!(report.stream_seconds.to_bits(), expected.to_bits());
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
            fleet.push_rr_batch(9, &[(1.0, 0.8)]).unwrap_err(),
            PsaError::UnknownStream(9)
        );
        assert_eq!(
            fleet.push_beat_batch(9, &[1.0]).unwrap_err(),
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
        assert_eq!(fleet.push_rr_batch(3, &[(1.0, 0.8)]), Ok(1));
        assert_eq!(
            fleet.push_rr_batch(3, &[(2.0, 10.0)]),
            Ok(0),
            "gated dropout"
        );
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
        // Pushes must still route to the right ids.
        for id in [0usize, 2, 3] {
            assert_eq!(fleet.push_rr_batch(id, &[(1.0, 0.8)]), Ok(1), "routed");
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
            let patient = fleet.stream(0).expect("open");
            (patient.exact_index, patient.choice_backends.len())
        };
        for _ in 0..3 {
            fleet.set_stream_budget(0, budget).expect("re-attach");
        }
        let patient = fleet.stream(0).expect("open");
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
    fn budget_governor_never_selects_a_dominated_candidate() {
        // The candidate set `set_stream_budget` builds: the exact ladder
        // plus the Table I static VFS choices, each at every feasible rail.
        let scheduler = small_fleet(1, 300.0);
        let shared = scheduler.resolve_runnable(&FleetScheduler::static_budget_choices());
        let exact = scheduler.cache.exact(scheduler.plan.fft_len());
        let candidates = scheduler.budget_candidates(&shared, &exact);
        // Dominated: another candidate is no worse in expected error, in
        // energy and in rail voltage (the timing margin the governor's
        // order trades), and strictly better in one of them.
        let dominated = |c: &CandidatePoint| {
            candidates.iter().any(|o| {
                o.expected_error_pct <= c.expected_error_pct
                    && o.predicted_energy_j <= c.predicted_energy_j
                    && o.opp.voltage >= c.opp.voltage
                    && (o.expected_error_pct < c.expected_error_pct
                        || o.predicted_energy_j < c.predicted_energy_j
                        || o.opp.voltage > c.opp.voltage)
            })
        };
        let energies = candidates.iter().map(|c| c.predicted_energy_j);
        let dearest = energies.clone().fold(0.0, f64::max);
        let cheapest = energies.fold(f64::INFINITY, f64::min);
        let interval = 4u64;
        let mut rails = Vec::new();
        // Loose → tight: from twice the dearest candidate's interval cost
        // down to half the cheapest's, geometrically.
        let steps = 40;
        let (loose, tight) = (2.0 * dearest, 0.5 * cheapest);
        for step in 0..=steps {
            let per_window = loose * (tight / loose).powf(step as f64 / steps as f64);
            let mut governor = EnergyBudgetGovernor::new(
                candidates.clone(),
                per_window * interval as f64,
                interval,
            );
            let mut charged = candidates[0].predicted_energy_j;
            for _ in 0..24 {
                let directive = governor.observe_window(&WindowObservation {
                    lf_hf: 0.5,
                    exact_lf_hf: None,
                    energy_j: charged,
                    battery_soc: 1.0,
                });
                let selected = candidates
                    .iter()
                    .find(|c| c.choice == directive.choice && c.opp == directive.opp)
                    .expect("the directive names a candidate");
                assert!(
                    !dominated(selected),
                    "budget {per_window} J/window selected a dominated candidate {selected:?}"
                );
                charged = selected.predicted_energy_j;
                if !rails.contains(&selected.opp.voltage.to_bits()) {
                    rails.push(selected.opp.voltage.to_bits());
                }
            }
        }
        assert!(rails.len() > 2, "the sweep must walk the rail down");
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
