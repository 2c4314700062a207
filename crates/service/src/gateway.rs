//! The TCP gateway: reactor shards around one analysis lock.
//!
//! **Reactor shards** ([`crate::reactor`]) own every connection:
//! nonblocking accept, edge-triggered frame reassembly, request serving
//! and vectored reply writes all happen on a fixed number of event-loop
//! threads, so sessions scale past thread-per-connection limits.
//!
//! Every request that touches analysis state takes the one mutex around
//! the external-ingest [`FleetScheduler`] (kernels from the shared
//! [`hrv_core::KernelCache`]). The fleet is the only session registry:
//! a session is an open fleet stream, and that stream's journal is the
//! one record of its admissions, `Busy` refusals and analysis events,
//! in one sequence. Admission is decided here, under the same lock:
//! the gateway must be running, the session limit holds, and a push of
//! more than [`SessionConfig::queue_capacity`] samples is refused whole
//! with [`ServiceError::Busy`] — it leaves no state behind, and the same
//! samples succeed in smaller batches.
//!
//! A push is analysed on the shard that decoded it: the batch goes
//! through the fleet's [`hrv_stream::RrIngest`] (the one plausibility
//! gate: `hrv-delineate`'s interval bounds, monotone beat time) and
//! every window it completes is computed before `Pushed` is sent, so the
//! windows are already visible to the next `ReadHealth` or
//! `ReadReport`. A shard therefore waits at most for another push's
//! bounded compute.
//!
//! Shutdown: whichever caller moves the state from running to draining
//! — a shard serving `Shutdown`, or [`GatewayHandle::shutdown`] /
//! `Drop` — runs the drain on its own thread under the same lock. Every
//! push that got the lock first is already in the fleet and every later
//! one is refused, so the final per-stream reports are complete. The
//! drain then marks the gateway done (also if it unwinds) and wakes the
//! shards, which answer parked `Shutdown` connections event-driven,
//! never by polling.

use crate::client::ServiceClient;
use crate::error::ServiceError;
use crate::frame::MAX_FRAME;
use crate::proto::{
    HealthSnapshot, Pushed, Reply, Request, StageLatency, StageSlow, StreamHealth, PROTOCOL_VERSION,
};
use crate::reactor::{self, ReactorConfig, ServeOutcome, ShardHandle, ShardService};
use hrv_core::{
    lock_unpoisoned, Counter, Gauge, HealthConfig, HealthEngine, Histogram, MonotonicClock,
    PsaConfig, PsaError, Slo, SpectralPlan, Telemetry, Tracer,
};
use hrv_stream::{FleetScheduler, StreamEvent, StreamReport};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Gateway lifecycle: accepting work.
pub(crate) const STATE_RUNNING: u8 = 0;
/// Gateway lifecycle: draining; no new work admitted.
pub(crate) const STATE_DRAINING: u8 = 1;
/// Gateway lifecycle: drained; final reports published.
pub(crate) const STATE_DONE: u8 = 2;

/// Hard ceiling on [`SessionConfig::max_sessions`], chosen so the
/// `ShutdownAck` frame carrying every stream's final report stays under
/// [`MAX_FRAME`] (256 bytes budgeted per report: 16384 × 256 B = 4 MiB
/// of an 8 MiB frame). [`Gateway::start`] clamps larger configured
/// values to this.
pub const MAX_SESSIONS: usize = 16384;

/// Session admission limits.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Maximum concurrently open sessions.
    pub max_sessions: usize,
    /// Maximum samples (or beats) per push; a longer batch draws
    /// [`ServiceError::Busy`]. It bounds how long one push can hold the
    /// analysis lock.
    pub queue_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_sessions: 64,
            queue_capacity: 4096,
        }
    }
}

/// Gateway construction parameters.
///
/// The backing fleet is a single shard: every push is analysed on the
/// reactor shard that decoded it, under the one analysis lock, so more
/// fleet shards would only partition state. Connection-level
/// parallelism is [`GatewayConfig::reactors`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Bind address; `127.0.0.1:0` (the default) picks a free loopback
    /// port, reported by [`GatewayHandle::local_addr`].
    pub addr: String,
    /// The analysis configuration every stream runs
    /// ([`PsaConfig::conventional`] by default).
    pub psa: PsaConfig,
    /// Session admission limits and the per-push bound.
    pub session: SessionConfig,
    /// Reactor shards (event-loop threads) the connection layer runs.
    /// Connections are partitioned across shards with the same
    /// splitmix64 finalizer the fleet uses for streams.
    pub reactors: usize,
    /// Per-connection outbound byte budget: a connection whose queued
    /// replies exceed this stops being read until the kernel accepts
    /// the backlog — a client that stops reading cannot grow gateway
    /// memory without bound.
    pub write_buffer: usize,
    /// Maximum concurrent connections across all reactor shards. A
    /// connection accepted at the cap is closed immediately after a
    /// best-effort typed refusal — connections, like pushes, never grow
    /// without bound.
    pub max_connections: usize,
    /// Span tracer threaded through every pipeline stage (request
    /// handling, push dispatch, fleet window compute); its clock also
    /// times the stage histograms. The default is [`Tracer::disabled`] —
    /// one relaxed atomic load per would-be span, no extra clock reads.
    /// Pass [`Tracer::monotonic`] to record, then pull spans/Chrome JSON
    /// from [`GatewayHandle::tracer`].
    pub tracer: Tracer,
    /// Burn-rate engine tuning for the built-in SLO catalog served by
    /// `ReadHealth`. The default ([`HealthConfig::default`]) has
    /// `period_ns = 0`, so every `ReadHealth` advances exactly one
    /// evaluation tick — the deterministic client-driven mode the
    /// health smoke relies on.
    pub health: HealthConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            psa: PsaConfig::conventional(),
            session: SessionConfig::default(),
            reactors: 2,
            write_buffer: 256 * 1024,
            max_connections: 256,
            tracer: Tracer::disabled(),
            health: HealthConfig::default(),
        }
    }
}

/// State shared by every gateway thread: the analysis lock, the
/// admission limits and the gateway's instruments.
struct Shared {
    state: AtomicU8,
    /// The one analysis lock. Its fleet is the session registry: one
    /// open stream per session, each with its one journal. "Is the
    /// gateway still admitting work?" is decided under this lock, so
    /// once the drain holds it after `STATE_DRAINING`, no sample can
    /// reach the fleet any more.
    fleet: Mutex<FleetScheduler>,
    telemetry: Telemetry,
    session: SessionConfig,
    final_reports: Mutex<Option<Vec<StreamReport>>>,
    /// Wake handles of the reactor shards, so the end of the drain
    /// interrupts their `epoll_wait` immediately.
    shards: Vec<ShardHandle>,
    connections_total: Counter,
    frames_total: Counter,
    errors_total: Counter,
    open_gauge: Gauge,
    accepted_total: Counter,
    gated_total: Counter,
    busy_total: Counter,
    tracer: Tracer,
    /// The burn-rate engine behind `ReadHealth`. Locked only inside
    /// that handler, after the analysis lock is released — the two
    /// never nest.
    health: Mutex<HealthEngine>,
    /// Socket-read work per completed frame (bytes-available →
    /// frame-complete; idle waits excluded — they land in
    /// `conn_idle_hist`).
    frame_read_hist: Histogram,
    /// Time a connection sat idle (no bytes in flight) before its next
    /// readable event.
    conn_idle_hist: Histogram,
    /// Wire-to-[`Request`] decode time per frame.
    frame_decode_hist: Histogram,
    /// [`Reply`] encode time per frame (socket write excluded).
    report_encode_hist: Histogram,
    /// `hrv_service_pump_dispatch_seconds` — one push's inline fleet
    /// call, window compute included.
    dispatch_hist: Histogram,
}

impl Shared {
    /// The gateway state around an external-ingest fleet over `plan`,
    /// its telemetry registered and its reactor wake handles made.
    fn new(plan: SpectralPlan, config: &GatewayConfig) -> Result<Shared, ServiceError> {
        let mut fleet = FleetScheduler::external(plan, 1).map_err(ServiceError::from)?;
        let telemetry = Telemetry::new();
        fleet.set_observability(&telemetry, config.tracer.clone());
        // Constant build-info gauge: a scrape (or `hrv-top`) can tell at
        // a glance which protocol, SIMD dispatch level and crate version
        // the gateway is running.
        telemetry
            .gauge_with(
                "hrv_build_info",
                "constant 1; build identity in the labels",
                &[
                    ("protocol_version", &PROTOCOL_VERSION.to_string()),
                    ("simd_level", hrv_dsp::SimdLevel::active().as_str()),
                    ("version", env!("CARGO_PKG_VERSION")),
                ],
            )
            .set(1.0);
        Ok(Shared {
            state: AtomicU8::new(STATE_RUNNING),
            fleet: Mutex::new(fleet),
            session: config.session.clone(),
            final_reports: Mutex::new(None),
            shards: reactor::shard_handles(config.reactors)?,
            health: Mutex::new(default_health_engine(&telemetry, config.health.clone())),
            connections_total: telemetry.counter(
                "hrv_service_connections_total",
                "client connections accepted",
            ),
            frames_total: telemetry.counter("hrv_service_frames_total", "request frames decoded"),
            errors_total: telemetry.counter("hrv_service_errors_total", "error replies sent"),
            open_gauge: telemetry.gauge("hrv_service_sessions_open", "currently open sessions"),
            accepted_total: telemetry.counter(
                "hrv_service_samples_admitted_total",
                "samples accepted by the ingest plausibility gate",
            ),
            gated_total: telemetry.counter(
                "hrv_service_samples_gated_total",
                "samples rejected by the ingest plausibility gate",
            ),
            busy_total: telemetry.counter(
                "hrv_service_busy_total",
                "pushes refused with Busy (batch above the per-push bound)",
            ),
            tracer: config.tracer.clone(),
            frame_read_hist: telemetry.histogram(
                "hrv_service_frame_read_seconds",
                "socket-read work per completed request frame (idle wait excluded)",
            ),
            conn_idle_hist: telemetry.histogram(
                "hrv_service_conn_idle_seconds",
                "connection idle time between frames (socket wait, no bytes in flight)",
            ),
            frame_decode_hist: telemetry.histogram(
                "hrv_service_frame_decode_seconds",
                "wire-to-request decode time per frame",
            ),
            report_encode_hist: telemetry.histogram(
                "hrv_service_report_encode_seconds",
                "reply encode time per frame (socket write excluded)",
            ),
            dispatch_hist: telemetry.histogram(
                "hrv_service_pump_dispatch_seconds",
                "one push fed into the fleet, the windows it completed computed",
            ),
            telemetry,
        })
    }

    fn admitting(&self) -> Result<(), ServiceError> {
        if self.state.load(Ordering::SeqCst) == STATE_RUNNING {
            Ok(())
        } else {
            Err(ServiceError::ShuttingDown)
        }
    }

    /// Admits a new session: opens its fleet stream.
    fn open(&self, id: u64) -> Result<(), ServiceError> {
        let mut fleet = lock_unpoisoned(&self.fleet);
        self.admitting()?;
        if fleet.is_open(id as usize) {
            return Err(ServiceError::DuplicateStream(id));
        }
        if fleet.streams() >= self.session.max_sessions {
            return Err(ServiceError::SessionLimit {
                max: self.session.max_sessions as u32,
            });
        }
        fleet.open_stream(id as usize)?;
        self.open_gauge.set(fleet.streams() as f64);
        Ok(())
    }

    /// `(beat time, RR)` batch: gated by the fleet's ingest, windows
    /// computed before this returns.
    fn push_rr(&self, id: u64, samples: &[(f64, f64)]) -> Result<Pushed, ServiceError> {
        self.push(id, samples.len(), |fleet| {
            fleet.push_rr_batch(id as usize, samples)
        })
    }

    /// Raw beat-time batch, through the ingest's delineate filter.
    fn push_beats(&self, id: u64, beats: &[f64]) -> Result<Pushed, ServiceError> {
        self.push(id, beats.len(), |fleet| {
            fleet.push_beat_batch(id as usize, beats)
        })
    }

    /// Admission, then the inline fleet call (the `push_dispatch`
    /// stage), then the push's accounting. Refusals and admissions land
    /// in the stream's journal.
    fn push(
        &self,
        id: u64,
        len: usize,
        feed: impl FnOnce(&mut FleetScheduler) -> Result<usize, PsaError>,
    ) -> Result<Pushed, ServiceError> {
        let mut fleet = lock_unpoisoned(&self.fleet);
        self.admitting()?;
        if !fleet.is_open(id as usize) {
            return Err(ServiceError::UnknownStream(id));
        }
        let capacity = self.session.queue_capacity as u32;
        if len > self.session.queue_capacity {
            fleet.record_stream_event(
                id as usize,
                StreamEvent::BusyRefusal {
                    queue_depth: 0,
                    capacity,
                },
            )?;
            self.busy_total.inc();
            return Err(ServiceError::Busy {
                stream: id,
                capacity,
            });
        }
        let accepted = {
            let _dispatch = self.tracer.stage("push_dispatch", &self.dispatch_hist);
            feed(&mut fleet)? as u32
        };
        let gated = len as u32 - accepted;
        self.accepted_total.add(u64::from(accepted));
        self.gated_total.add(u64::from(gated));
        fleet.record_stream_event(id as usize, StreamEvent::Admission { accepted, gated })?;
        Ok(Pushed {
            stream: id,
            accepted,
            gated,
            queue_depth: 0,
        })
    }

    /// Closes session `id`'s fleet stream, flushing the trailing windows
    /// into the returned final report.
    fn close(&self, id: u64) -> Result<StreamReport, ServiceError> {
        let mut fleet = lock_unpoisoned(&self.fleet);
        let report = fleet.close_stream(id as usize)?;
        self.open_gauge.set(fleet.streams() as f64);
        Ok(report)
    }

    /// Publishes the fleet's throughput and kernel-cache gauges.
    fn publish(&self, fleet: &FleetScheduler) {
        fleet.report().publish(&self.telemetry);
        fleet.kernel_cache().publish(&self.telemetry);
    }

    /// Moves the gateway from running to draining. The caller that wins
    /// the transition runs the drain synchronously and returns once the
    /// final reports are published; every other caller returns at once.
    ///
    /// `STATE_DRAINING` is visible before the drain takes the analysis
    /// lock, so every push that can still reach the fleet already has,
    /// and the final reports are complete. The drain flushes every
    /// stream's trailing windows, publishes the final fleet telemetry
    /// and keeps the id-ordered final reports, leaving the fleet empty.
    fn begin_drain(&self) {
        let won = self
            .state
            .compare_exchange(
                STATE_RUNNING,
                STATE_DRAINING,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok();
        if won {
            let _done = DoneGuard(self);
            let reports = {
                let mut fleet = lock_unpoisoned(&self.fleet);
                fleet.finish();
                self.publish(&fleet);
                self.open_gauge.set(0.0);
                fleet.close_all()
            };
            *lock_unpoisoned(&self.final_reports) = Some(reports);
        }
    }
}

/// Moves the state to `STATE_DONE` when the drain ends — also when it
/// unwinds — and wakes the shards so parked `Shutdown` connections get
/// their answer (or a typed failure) now, not at their next timeout.
struct DoneGuard<'a>(&'a Shared);

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        self.0.state.store(STATE_DONE, Ordering::SeqCst);
        for shard in &self.0.shards {
            shard.wake();
        }
    }
}

/// The gateway entry point; [`Gateway::start`] returns a
/// [`GatewayHandle`] for the running instance.
///
/// # Examples
///
/// ```
/// use hrv_service::{Gateway, GatewayConfig, ServiceClient};
///
/// let handle = Gateway::start(GatewayConfig::default())?;
/// let mut client = ServiceClient::connect(handle.local_addr())?;
/// client.open_stream(1)?;
/// client.push_rr(1, &[(0.8, 0.8), (1.6, 0.8)])?;
/// let reports = client.shutdown()?;
/// assert_eq!(reports.len(), 1);
/// assert_eq!(reports[0].ingest.accepted, 2);
/// handle.wait()?;
/// # Ok::<(), hrv_service::ServiceError>(())
/// ```
pub struct Gateway;

impl Gateway {
    /// Starts a gateway from a plain configuration (the plan is built
    /// internally, like [`FleetScheduler::new`]).
    ///
    /// # Errors
    ///
    /// Returns the [`PsaError`] of an invalid configuration (dynamic
    /// pruning needs [`Gateway::start_with_plan`] and a calibrated
    /// plan), or [`ServiceError::Io`] when binding fails.
    pub fn start(config: GatewayConfig) -> Result<GatewayHandle, ServiceError> {
        let plan = SpectralPlan::new(config.psa.clone()).map_err(ServiceError::from)?;
        if plan.requires_calibration() {
            return Err(PsaError::NeedsCalibration.into());
        }
        Self::start_with_plan(plan, config)
    }

    /// Starts a gateway whose streams run an explicit (possibly
    /// calibrated) [`SpectralPlan`].
    ///
    /// # Errors
    ///
    /// See [`Gateway::start`].
    pub fn start_with_plan(
        plan: SpectralPlan,
        mut config: GatewayConfig,
    ) -> Result<GatewayHandle, ServiceError> {
        // Bound the session table so a ShutdownAck carrying every
        // stream's final report always fits one MAX_FRAME frame
        // (budgeting 256 bytes per wire report, ~4× the actual size).
        // The clamped value is what HelloAck advertises.
        config.session.max_sessions = config.session.max_sessions.min(MAX_SESSIONS);
        let shared = Arc::new(Shared::new(plan, &config)?);
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let reactor_config = ReactorConfig {
            max_connections: config.max_connections.max(1),
            write_buffer: config.write_buffer,
        };
        let reactors = reactor::spawn_shards(&shared, listener, &shared.shards, &reactor_config)?;
        Ok(GatewayHandle {
            addr,
            shared,
            reactors,
        })
    }
}

/// Builds the gateway's SLO catalog: request-path tail latency and the
/// admission `Busy` ratio. Thresholds are deliberately generous — the
/// catalog exists to catch overload (oversized pushes refused, encode/decode
/// stalls), not to grade absolute wall-clock performance, which CI
/// machines cannot do deterministically.
fn default_health_engine(telemetry: &Telemetry, config: HealthConfig) -> HealthEngine {
    let mut engine = HealthEngine::new(telemetry, Arc::new(MonotonicClock::new()), config);
    engine.add_slo(Slo::p99(
        "frame_decode_p99",
        "hrv_service_frame_decode_seconds",
        0.010,
    ));
    engine.add_slo(Slo::p99(
        "report_encode_p99",
        "hrv_service_report_encode_seconds",
        0.010,
    ));
    engine.add_slo(Slo::ratio(
        "busy_ratio",
        "hrv_service_busy_total",
        "hrv_service_frames_total",
        0.001,
    ));
    engine
}

/// A running gateway. Dropping the handle initiates shutdown and joins
/// the service threads; prefer [`GatewayHandle::shutdown`] (or a client
/// [`Request::Shutdown`] plus [`GatewayHandle::wait`]) to also receive
/// the drained reports.
pub struct GatewayHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactors: Vec<JoinHandle<()>>,
}

impl GatewayHandle {
    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle to the gateway's telemetry registry (shared; render it
    /// any time, or ask the gateway over the wire via `ReadMetrics`).
    pub fn telemetry(&self) -> Telemetry {
        self.shared.telemetry.clone()
    }

    /// A handle to the gateway's span tracer (the one passed in via
    /// [`GatewayConfig::tracer`]; disabled by default). Use it to pull
    /// recorded spans, slow-request captures, or a Chrome trace export
    /// while the gateway runs.
    pub fn tracer(&self) -> Tracer {
        self.shared.tracer.clone()
    }

    /// Connects a loopback client to this gateway.
    ///
    /// # Errors
    ///
    /// Propagates connection/handshake failures.
    pub fn client(&self) -> Result<ServiceClient, ServiceError> {
        ServiceClient::connect(self.addr)
    }

    /// Drains the gateway (on this thread, unless a client's `Shutdown`
    /// got there first), waits for the shards to finish and returns the
    /// final id-ordered per-stream reports.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] when a service thread panicked.
    pub fn shutdown(self) -> Result<Vec<StreamReport>, ServiceError> {
        self.shared.begin_drain();
        self.wait()
    }

    /// Blocks until the gateway shuts down (a client sent `Shutdown`, or
    /// the process is tearing it down another way) and returns the final
    /// reports.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] when a service thread panicked.
    pub fn wait(mut self) -> Result<Vec<StreamReport>, ServiceError> {
        self.join()?;
        let reports = lock_unpoisoned(&self.shared.final_reports).clone();
        reports.ok_or_else(|| ServiceError::Io("gateway drained without reports".into()))
    }

    fn join(&mut self) -> Result<(), ServiceError> {
        let mut panicked = false;
        for reactor in self.reactors.drain(..) {
            panicked |= reactor.join().is_err();
        }
        if panicked {
            return Err(ServiceError::Io("a gateway thread panicked".into()));
        }
        Ok(())
    }
}

impl Drop for GatewayHandle {
    fn drop(&mut self) {
        // A panic here while the caller is already unwinding would abort
        // the process; the drain's guard still marks the gateway done, so
        // the shards exit and the join below returns.
        let shared = &self.shared;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shared.begin_drain()));
        let _ = self.join();
    }
}

impl ShardService for Shared {
    /// Serves one decoded frame on a reactor shard: decode → (hello
    /// gate) → handle → encode, decode and encode each one
    /// [`hrv_core::Stage`]. A `Shutdown` parks the connection (see
    /// `handle_request`); the shard's drain epilogue sends the
    /// `ShutdownAck`.
    fn serve(&self, handshaken: &mut bool, body: &[u8]) -> ServeOutcome {
        self.frames_total.inc();
        // The root span covers decode → handle → encode; socket reads
        // and writes are excluded so a slow client cannot masquerade as
        // a slow request.
        let request_span = self.tracer.span("request");
        let decoded = {
            let _decode = self.tracer.stage("frame_decode", &self.frame_decode_hist);
            Request::decode(body)
        };
        let reply = match decoded {
            // Version negotiation is not optional: Hello must come
            // before anything else on a connection, so a client speaking
            // a future protocol always gets the intended version
            // rejection, never a misdecode.
            Ok(request) if !*handshaken && !matches!(request, Request::Hello { .. }) => {
                Reply::Error(ServiceError::Protocol(
                    "expected Hello before any other request".into(),
                ))
            }
            Ok(request) => {
                let _handle = self.tracer.span("handle");
                let Some(reply) = handle_request(self, request) else {
                    return ServeOutcome::ShutdownPending;
                };
                if matches!(reply, Reply::HelloAck { .. }) {
                    *handshaken = true;
                }
                reply
            }
            Err(err) => Reply::Error(err),
        };
        if matches!(reply, Reply::Error(_)) {
            self.errors_total.inc();
        }
        let encoded = {
            let _encode = self.tracer.stage("report_encode", &self.report_encode_hist);
            reply.encode()
        };
        drop(request_span);
        ServeOutcome::Reply(encoded)
    }

    fn shutdown_reply(&self) -> Option<Vec<u8>> {
        let reports = lock_unpoisoned(&self.final_reports).clone()?;
        Some(Reply::ShutdownAck { reports }.encode())
    }

    fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    fn on_accept(&self) {
        self.connections_total.inc();
    }

    fn refusal(&self, limit: usize) -> Vec<u8> {
        self.errors_total.inc();
        Reply::Error(ServiceError::Protocol(format!(
            "connection limit reached ({limit})"
        )))
        .encode()
    }

    fn on_frame_read(&self, busy: Duration) {
        self.frame_read_hist.observe_duration(busy);
    }

    fn on_conn_idle(&self, idle: Duration) {
        self.conn_idle_hist.observe_duration(idle);
    }

    fn on_frame_error(&self) {
        self.errors_total.inc();
    }
}

/// Serves one decoded request. Every outcome is a typed [`Reply`] except
/// `Shutdown`'s: it runs the drain (if no one else is) and answers
/// `None`, parking the connection until the shard's drain epilogue
/// sends the `ShutdownAck`.
fn handle_request(shared: &Shared, request: Request) -> Option<Reply> {
    let reply = match request {
        Request::Hello { version } => {
            if version != PROTOCOL_VERSION {
                Reply::Error(ServiceError::Protocol(format!(
                    "protocol version {version} unsupported (gateway speaks {PROTOCOL_VERSION})"
                )))
            } else {
                Reply::HelloAck {
                    version: PROTOCOL_VERSION,
                    max_frame: MAX_FRAME as u32,
                    max_sessions: shared.session.max_sessions as u32,
                }
            }
        }
        Request::OpenStream { stream } => {
            reply_with(shared.open(stream), |()| Reply::StreamOpened { stream })
        }
        Request::PushRr { stream, samples } => {
            reply_with(shared.push_rr(stream, &samples), Reply::Pushed)
        }
        Request::PushBeats { stream, beats } => {
            reply_with(shared.push_beats(stream, &beats), Reply::Pushed)
        }
        Request::ReadReport { stream } => reply_with(
            lock_unpoisoned(&shared.fleet).stream_report(stream as usize),
            Reply::Report,
        ),
        Request::SetQuality { stream, mode } => reply_with(
            lock_unpoisoned(&shared.fleet).set_stream_mode(stream as usize, mode),
            |backend| Reply::QualitySet { stream, backend },
        ),
        Request::SetBudget { stream, budget } => {
            // Validate at the gateway, before anything reaches the fleet
            // or a governor: the wire codec decodes arbitrary f64 bit
            // patterns, and a NaN budget would poison every later
            // comparison. The refusal is a typed wire error.
            if let Err(err) = budget.validate() {
                return Some(Reply::Error(ServiceError::InvalidTarget(err.to_string())));
            }
            reply_with(
                lock_unpoisoned(&shared.fleet).set_stream_budget(stream as usize, budget),
                |backend| Reply::BudgetSet { stream, backend },
            )
        }
        Request::ReadBudget { stream } => reply_with(
            lock_unpoisoned(&shared.fleet).stream_budget(stream as usize),
            Reply::Budget,
        ),
        Request::ReadMetrics => {
            shared.publish(&lock_unpoisoned(&shared.fleet));
            Reply::Metrics(shared.telemetry.render())
        }
        Request::ReadHealth => Reply::Health(read_health(shared)),
        Request::ReadEvents { stream } => reply_with(
            lock_unpoisoned(&shared.fleet).stream_events(stream as usize),
            |events| Reply::Events { stream, events },
        ),
        Request::CloseStream { stream } => reply_with(shared.close(stream), Reply::Closed),
        Request::Shutdown => {
            shared.begin_drain();
            return None;
        }
    };
    Some(reply)
}

/// `ok`'s reply to a request's result, or its typed error reply.
fn reply_with<T, E: Into<ServiceError>>(
    result: Result<T, E>,
    ok: impl FnOnce(T) -> Reply,
) -> Reply {
    result.map_or_else(|err| Reply::Error(err.into()), ok)
}

/// Pipeline-stage histogram families surfaced as [`StageLatency`] rows
/// in `ReadHealth` snapshots, pipeline order. `conn_idle` leads: it is
/// the socket wait the `frame_read` row explicitly excludes, kept as
/// its own family so the stage table stays honest.
const STAGE_FAMILIES: [&str; 7] = [
    "hrv_service_conn_idle_seconds",
    "hrv_service_frame_read_seconds",
    "hrv_service_frame_decode_seconds",
    "hrv_service_pump_dispatch_seconds",
    "hrv_stream_window_compute_seconds",
    "hrv_stream_governor_decision_seconds",
    "hrv_service_report_encode_seconds",
];

/// Builds the `ReadHealth` snapshot: one burn-rate evaluation tick plus
/// point-in-time stage, stream and slow-request views.
///
/// The analysis lock is taken (for stream reports) and released before
/// the health lock — the two never nest.
fn read_health(shared: &Shared) -> HealthSnapshot {
    let reports = lock_unpoisoned(&shared.fleet).stream_reports();
    let streams = reports
        .into_iter()
        .map(|report| StreamHealth {
            id: report.id as u64,
            windows: report.windows,
            energy_j: report.energy_j,
            queue_depth: 0,
            backend: report.backend,
        })
        .collect();
    let mut stages = Vec::new();
    for family in STAGE_FAMILIES {
        let mut rows = shared.telemetry.histogram_series(family);
        rows.sort_by(|(a, _), (b, _)| a.cmp(b));
        for (labels, hist) in rows {
            stages.push(StageLatency {
                family: family.to_string(),
                labels,
                count: hist.count(),
                p50_s: hist.quantile(0.5),
                p99_s: hist.quantile(0.99),
            });
        }
    }
    let slow = shared.tracer.slow_requests();
    let slow_requests = slow.len() as u64;
    let mut worst: BTreeMap<&'static str, u64> = BTreeMap::new();
    for capture in &slow {
        let entry = worst.entry(capture.root.stage).or_default();
        *entry = (*entry).max(capture.root.duration_ns);
    }
    let slow_stages = worst
        .into_iter()
        .map(|(stage, worst_ns)| StageSlow {
            stage: stage.to_string(),
            worst_ns,
        })
        .collect();
    let mut health = lock_unpoisoned(&shared.health);
    let alerts = health.evaluate();
    HealthSnapshot {
        ticks: health.ticks(),
        alerts,
        slow_requests,
        slow_stages,
        stages,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_core::AlertState;

    /// Gateway state without sockets, for driving admission directly.
    fn shared(max_sessions: usize, queue_capacity: usize) -> Shared {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
        let config = GatewayConfig {
            session: SessionConfig {
                max_sessions,
                queue_capacity,
            },
            ..GatewayConfig::default()
        };
        Shared::new(plan, &config).expect("gateway state")
    }

    fn ingest(shared: &Shared, id: usize) -> hrv_stream::IngestStats {
        let fleet = lock_unpoisoned(&shared.fleet);
        fleet.stream_report(id).expect("report").ingest
    }

    #[test]
    fn admission_limits_are_enforced() {
        let shared = shared(2, 16);
        shared.open(1).expect("first");
        shared.open(2).expect("second");
        assert_eq!(
            shared.open(1).unwrap_err(),
            ServiceError::DuplicateStream(1)
        );
        assert_eq!(
            shared.open(3).unwrap_err(),
            ServiceError::SessionLimit { max: 2 }
        );
        assert_eq!(lock_unpoisoned(&shared.fleet).streams(), 2);
        // Closing frees a slot.
        shared.close(1).expect("close");
        shared.open(3).expect("freed slot");
        let ids: Vec<usize> = lock_unpoisoned(&shared.fleet)
            .stream_reports()
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn plausibility_gate_reuses_delineate_rules() {
        let shared = shared(4, 16);
        shared.open(1).expect("open");
        let outcome = shared
            .push_rr(
                1,
                &[
                    (1.0, 0.8), // fine
                    (0.5, 0.8), // time going backwards
                    (2.0, 0.1), // below MIN_RR (double detection)
                    (3.0, 3.0), // above MAX_RR (dropout)
                    (3.5, 0.9), // fine
                ],
            )
            .expect("admitted");
        assert_eq!((outcome.accepted, outcome.gated), (2, 3));
        assert_eq!(outcome.queue_depth, 0, "nothing queues: the fleet ingested");
        let ingest = ingest(&shared, 1);
        assert_eq!(ingest.accepted, 2);
        assert_eq!(ingest.rejected_out_of_order, 1);
    }

    #[test]
    fn non_finite_wire_values_are_gated_and_do_not_poison_the_session() {
        let shared = shared(4, 16);
        shared.open(1).expect("open");
        let outcome = shared
            .push_rr(
                1,
                &[
                    (f64::NAN, 0.8),      // NaN beat time
                    (f64::INFINITY, 0.8), // infinite beat time
                    (1.0, f64::NAN),      // NaN interval
                    (2.0, f64::INFINITY), // infinite interval
                ],
            )
            .expect("admitted");
        assert_eq!((outcome.accepted, outcome.gated), (0, 4));
        // The ordering gate still works afterwards — nothing was poisoned.
        let outcome = shared
            .push_rr(1, &[(1.0, 0.8), (0.5, 0.8), (2.0, 0.8)])
            .expect("admitted");
        assert_eq!((outcome.accepted, outcome.gated), (2, 1));
    }

    #[test]
    fn beats_are_converted_and_gated_like_the_batch_delineator() {
        let shared = shared(4, 16);
        shared.open(1).expect("open");
        let outcome = shared
            .push_beats(1, &[0.0, 0.8, 0.82, 5.0, 5.8])
            .expect("admitted");
        // Anchor, accepted, double detection, dropout, accepted-after-restart.
        assert_eq!((outcome.accepted, outcome.gated), (2, 3));
        let ingest = ingest(&shared, 1);
        assert_eq!(ingest.accepted, 2);
        assert_eq!((ingest.rejected_short, ingest.rejected_dropout), (1, 1));
    }

    #[test]
    fn oversized_push_is_refused_whole() {
        let shared = shared(4, 4);
        shared.open(7).expect("open");
        let batch: Vec<(f64, f64)> = (0..6).map(|i| (i as f64 + 1.0, 0.8)).collect();
        assert_eq!(
            shared.push_rr(7, &batch).unwrap_err(),
            ServiceError::Busy {
                stream: 7,
                capacity: 4
            }
        );
        // Nothing was ingested — the refusal leaves no state behind, so
        // the same samples succeed in bound-sized batches, and nothing
        // accumulates between pushes.
        assert_eq!(ingest(&shared, 7).accepted, 0);
        for chunk in batch.chunks(4) {
            let outcome = shared.push_rr(7, chunk).expect("fits");
            assert_eq!(outcome.accepted as usize, chunk.len());
        }
        assert!(matches!(
            shared.push_beats(7, &[0.0; 5]),
            Err(ServiceError::Busy { .. })
        ));
        let kinds: Vec<&str> = lock_unpoisoned(&shared.fleet)
            .stream_events(7)
            .expect("events")
            .iter()
            .map(|e| e.event.kind())
            .collect();
        // The two admitted pushes share one coalesced record.
        assert_eq!(kinds, ["busy_refusal", "admission", "busy_refusal"]);
    }

    #[test]
    fn per_push_bound_counts_every_wire_sample() {
        let shared = shared(4, 4);
        shared.open(1).expect("open");
        // 8 samples of which only 4 would pass the gate: the bound is
        // on wire samples (the work a push buys), so the batch is refused.
        let batch: Vec<(f64, f64)> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    (i as f64 + 1.0, 0.8)
                } else {
                    (i as f64 + 1.5, 9.0) // dropout, gated
                }
            })
            .collect();
        assert!(matches!(
            shared.push_rr(1, &batch),
            Err(ServiceError::Busy { capacity: 4, .. })
        ));
        let outcome = shared.push_rr(1, &batch[..4]).expect("fits");
        assert_eq!((outcome.accepted, outcome.gated), (2, 2));
    }

    #[test]
    fn draining_state_stops_admission_inside_the_lock() {
        let shared = shared(4, 16);
        shared.open(1).expect("open while running");
        shared.state.store(STATE_DRAINING, Ordering::SeqCst);
        assert_eq!(shared.open(2).unwrap_err(), ServiceError::ShuttingDown);
        assert_eq!(
            shared.push_rr(1, &[(1.0, 0.8)]).unwrap_err(),
            ServiceError::ShuttingDown
        );
        // Closing still works.
        assert_eq!(shared.close(1).expect("close").ingest.accepted, 0);
    }

    #[test]
    fn close_frees_the_slot_and_returns_the_final_report() {
        let shared = shared(64, 4096);
        let telemetry = &shared.telemetry;
        shared.open(5).expect("open");
        shared.push_rr(5, &[(1.0, 0.8), (2.0, 0.9)]).expect("push");
        assert!(telemetry.render().contains("hrv_service_sessions_open 1"));
        assert!(
            !telemetry.render().contains("stream=\"5\""),
            "no per-stream series"
        );
        let report = shared.close(5).expect("close");
        assert_eq!((report.id, report.ingest.accepted), (5, 2));
        assert!(telemetry.render().contains("hrv_service_sessions_open 0"));
        assert_eq!(shared.close(5).unwrap_err(), ServiceError::UnknownStream(5));
        assert_eq!(
            shared.push_rr(5, &[(3.0, 0.8)]).unwrap_err(),
            ServiceError::UnknownStream(5)
        );
    }

    /// A loopback gateway with a per-push bound so small that any
    /// oversized push is refused `Busy` — the deterministic overload used
    /// by the alerting tests.
    fn tiny_bound_gateway() -> GatewayHandle {
        Gateway::start(GatewayConfig {
            session: SessionConfig {
                max_sessions: 8,
                queue_capacity: 4,
            },
            ..GatewayConfig::default()
        })
        .expect("gateway")
    }

    #[test]
    fn sustained_busy_burn_pages_at_a_deterministic_tick() {
        let handle = tiny_bound_gateway();
        let mut client = handle.client().expect("client");
        client.open_stream(1).expect("open");
        // Each round: one guaranteed-Busy push (batch > per-push bound)
        // followed by one health tick. The bad/total frame ratio per
        // round is then exactly 1/2 — far past the page threshold —
        // and the dwell machine pages on the third tick, every run.
        let oversized: Vec<(f64, f64)> = (1..=8).map(|i| (0.8 * i as f64, 0.8)).collect();
        let mut states = Vec::new();
        for _ in 0..4 {
            let refused = client.push_rr(1, &oversized);
            assert!(matches!(refused, Err(ServiceError::Busy { .. })));
            let health = client.read_health().expect("health");
            let busy = health
                .alerts
                .iter()
                .find(|alert| alert.slo == "busy_ratio")
                .expect("busy_ratio in the catalog");
            states.push((health.ticks, busy.state, busy.since_tick));
        }
        assert_eq!(
            states,
            vec![
                (1, AlertState::Ok, 0),
                (2, AlertState::Ok, 0),
                (3, AlertState::Page, 3),
                (4, AlertState::Page, 3),
            ],
            "page must land on tick 3 (dwell 2) deterministically"
        );
        drop(client);
        handle.shutdown().expect("shutdown");
    }

    #[test]
    fn health_snapshot_carries_streams_stages_and_catalog() {
        let handle = tiny_bound_gateway();
        let mut client = handle.client().expect("client");
        client.open_stream(3).expect("open");
        client.push_rr(3, &[(0.8, 0.8), (1.6, 0.8)]).expect("push");
        let health = client.read_health().expect("health");
        let names: Vec<&str> = health.alerts.iter().map(|a| a.slo.as_str()).collect();
        assert_eq!(
            names,
            ["frame_decode_p99", "report_encode_p99", "busy_ratio"],
            "catalog order is stable"
        );
        assert_eq!(health.streams.len(), 1);
        assert_eq!(health.streams[0].id, 3);
        assert_eq!(health.streams[0].backend, "split-radix");
        let families: Vec<&str> = health.stages.iter().map(|s| s.family.as_str()).collect();
        assert!(families.contains(&"hrv_service_frame_decode_seconds"));
        // The tracer is disabled by default — no slow requests retained.
        assert_eq!(health.slow_requests, 0);
        assert!(health.slow_stages.is_empty());
        drop(client);
        handle.shutdown().expect("shutdown");
    }

    #[test]
    fn a_stream_has_one_journal_in_one_sequence() {
        let handle = Gateway::start(GatewayConfig::default()).expect("gateway");
        let mut client = handle.client().expect("client");
        client.open_stream(1).expect("open");
        let samples = hrv_stream::cohort_samples(2014, 1, 400.0);
        let (before, after) = samples.split_at(samples.len() / 2);
        for chunk in before.chunks(16) {
            client.push_rr(1, chunk).expect("push");
        }
        let windows = client.read_report(1).expect("report").windows;
        assert!(windows > 0, "the first half emits windows");
        client
            .set_quality(1, hrv_core::ApproximationMode::BandDrop)
            .expect("set quality");
        for chunk in after.chunks(16) {
            client.push_rr(1, chunk).expect("push");
        }
        let events = client.read_events(1).expect("events");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<_>>());
        // Back-to-back admissions share a record, so the switch sits
        // between the admissions before and after it.
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        assert_eq!(kinds, ["admission", "quality_switch", "admission"]);
        assert_eq!(events[1].window, windows, "stamped with the real window");
        assert!(events[2].window >= windows, "admissions carry windows too");
        let pushed: u32 = events
            .iter()
            .map(|e| match e.event {
                StreamEvent::Admission { accepted, gated } => accepted + gated,
                _ => 0,
            })
            .sum();
        assert_eq!(pushed as usize, samples.len());
        drop(client);
        handle.shutdown().expect("shutdown");
    }

    #[test]
    fn event_journals_travel_over_the_wire() {
        let handle = tiny_bound_gateway();
        let mut client = handle.client().expect("client");
        client.open_stream(1).expect("open");
        client.push_rr(1, &[(0.8, 0.8), (1.6, 0.8)]).expect("push");
        let oversized: Vec<(f64, f64)> = (1..=8).map(|i| (0.8 * i as f64, 0.8)).collect();
        assert!(matches!(
            client.push_rr(1, &oversized),
            Err(ServiceError::Busy { .. })
        ));
        client
            .set_quality(1, hrv_core::ApproximationMode::BandDrop)
            .expect("set quality");
        let events = client.read_events(1).expect("events");
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        // One journal, in the order things happened.
        assert_eq!(kinds, ["admission", "busy_refusal", "quality_switch"]);
        assert!(matches!(
            events[0].event,
            StreamEvent::Admission {
                accepted: 2,
                gated: 0
            }
        ));
        assert!(matches!(
            events[1].event,
            StreamEvent::BusyRefusal { capacity: 4, .. }
        ));
        assert!(matches!(
            client.read_events(99),
            Err(ServiceError::UnknownStream(99))
        ));
        drop(client);
        handle.shutdown().expect("shutdown");
    }
}
