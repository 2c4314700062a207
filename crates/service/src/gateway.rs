//! The TCP gateway: reactor shards around one analysis lock.
//!
//! **Reactor shards** ([`crate::reactor`]) own every connection:
//! nonblocking accept, edge-triggered frame reassembly, request serving
//! and vectored reply writes all happen on a fixed number of event-loop
//! threads, so sessions scale past thread-per-connection limits.
//!
//! Every request that touches analysis state takes the one mutex around
//! the `SessionTable` — the session registry and the external-ingest
//! [`FleetScheduler`] it feeds (kernels from the shared
//! [`hrv_core::KernelCache`]). A push is analysed on the shard that
//! decoded it: the batch goes through the fleet's ingest gate and every
//! window it completes is computed before `Pushed` is sent, so the
//! windows are already visible to the next `ReadHealth` or
//! `ReadReport`. A shard therefore waits at most for another push's
//! bounded compute ([`SessionConfig::queue_capacity`] samples).
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
    HealthSnapshot, Reply, Request, StageLatency, StageSlow, StreamHealth, PROTOCOL_VERSION,
};
use crate::reactor::{self, ReactorConfig, ServeOutcome, ShardHandle, ShardService};
use crate::session::{SessionConfig, SessionTable, STATE_DONE, STATE_DRAINING, STATE_RUNNING};
use hrv_core::{
    lock_unpoisoned, Counter, HealthConfig, HealthEngine, Histogram, MonotonicClock, PsaConfig,
    PsaError, Slo, SpectralPlan, Telemetry, Tracer,
};
use hrv_stream::{FleetScheduler, StreamReport};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard ceiling on [`SessionConfig::max_sessions`], chosen so the
/// `ShutdownAck` frame carrying every stream's final report stays under
/// [`MAX_FRAME`] (256 bytes budgeted per report: 16384 × 256 B = 4 MiB
/// of an 8 MiB frame). [`Gateway::start`] clamps larger configured
/// values to this.
pub const MAX_SESSIONS: usize = 16384;

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
    /// handling, push dispatch, fleet window compute). The default is
    /// [`Tracer::disabled`] — one relaxed atomic load per would-be span,
    /// no clock reads. Pass [`Tracer::monotonic`] to record, then pull
    /// spans/Chrome JSON from [`GatewayHandle::tracer`].
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

/// State shared by every gateway thread.
struct Shared {
    state: Arc<AtomicU8>,
    /// The one analysis lock: session registry and fleet together.
    sessions: Mutex<SessionTable>,
    telemetry: Telemetry,
    session_config: SessionConfig,
    final_reports: Mutex<Option<Vec<StreamReport>>>,
    /// Wake handles of the reactor shards, so the end of the drain
    /// interrupts their `epoll_wait` immediately.
    shards: Vec<ShardHandle>,
    connections_total: Counter,
    frames_total: Counter,
    errors_total: Counter,
    tracer: Tracer,
    /// The burn-rate engine behind `ReadHealth`. Locked only inside
    /// that handler, after the session lock is released — the two never
    /// nest.
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
}

impl Shared {
    /// Moves the gateway from running to draining. The caller that wins
    /// the transition runs the drain synchronously and returns once the
    /// final reports are published; every other caller returns at once.
    ///
    /// `STATE_DRAINING` is visible before the drain takes the session
    /// lock, so every push that can still reach the fleet already has,
    /// and the final reports are complete.
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
            let reports = lock_unpoisoned(&self.sessions).close_all(&self.telemetry);
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
        let mut fleet = FleetScheduler::external(plan, 1).map_err(ServiceError::from)?;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
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
        let health = Mutex::new(default_health_engine(&telemetry, config.health.clone()));
        let state = Arc::new(AtomicU8::new(STATE_RUNNING));
        let shards = reactor::shard_handles(config.reactors)?;
        let shared = Arc::new(Shared {
            state: state.clone(),
            sessions: Mutex::new(SessionTable::new(
                fleet,
                config.session.clone(),
                &telemetry,
                config.tracer.clone(),
                state,
            )),
            telemetry: telemetry.clone(),
            session_config: config.session.clone(),
            final_reports: Mutex::new(None),
            shards,
            health,
            connections_total: telemetry.counter(
                "hrv_service_connections_total",
                "client connections accepted",
            ),
            frames_total: telemetry.counter("hrv_service_frames_total", "request frames decoded"),
            errors_total: telemetry.counter("hrv_service_errors_total", "error replies sent"),
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
        });
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
    pub fn shutdown(mut self) -> Result<Vec<StreamReport>, ServiceError> {
        self.shared.begin_drain();
        self.join()?;
        let reports = lock_unpoisoned(&self.shared.final_reports).clone();
        reports.ok_or_else(|| ServiceError::Io("gateway drained without reports".into()))
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
    /// gate) → handle → encode, each stage spanned and timed. A
    /// `Shutdown` parks the connection (see `handle_request`); the
    /// shard's drain epilogue sends the `ShutdownAck`.
    fn serve(&self, handshaken: &mut bool, body: &[u8]) -> ServeOutcome {
        self.frames_total.inc();
        // The root span covers decode → handle → encode; socket reads
        // and writes are excluded so a slow client cannot masquerade as
        // a slow request.
        let request_span = self.tracer.span("request");
        let decoded = {
            let _decode = self.tracer.span("frame_decode");
            let started = Instant::now();
            let decoded = Request::decode(body);
            self.frame_decode_hist.observe_duration(started.elapsed());
            decoded
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
            let _encode = self.tracer.span("report_encode");
            let started = Instant::now();
            let encoded = reply.encode();
            self.report_encode_hist.observe_duration(started.elapsed());
            encoded
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
                    max_sessions: shared.session_config.max_sessions as u32,
                }
            }
        }
        Request::OpenStream { stream } => match lock_unpoisoned(&shared.sessions).open(stream) {
            Ok(()) => Reply::StreamOpened { stream },
            Err(err) => Reply::Error(err),
        },
        Request::PushRr { stream, samples } => {
            match lock_unpoisoned(&shared.sessions).push_rr(stream, &samples) {
                Ok(pushed) => Reply::Pushed(pushed),
                Err(err) => Reply::Error(err),
            }
        }
        Request::PushBeats { stream, beats } => {
            match lock_unpoisoned(&shared.sessions).push_beats(stream, &beats) {
                Ok(pushed) => Reply::Pushed(pushed),
                Err(err) => Reply::Error(err),
            }
        }
        Request::ReadReport { stream } => {
            match lock_unpoisoned(&shared.sessions)
                .fleet
                .stream_report(stream as usize)
            {
                Ok(report) => Reply::Report(report),
                Err(err) => Reply::Error(err.into()),
            }
        }
        Request::SetQuality { stream, mode } => {
            match lock_unpoisoned(&shared.sessions)
                .fleet
                .set_stream_mode(stream as usize, mode)
            {
                Ok(backend) => Reply::QualitySet { stream, backend },
                Err(err) => Reply::Error(err.into()),
            }
        }
        Request::SetBudget { stream, budget } => {
            // Validate at the gateway, before anything reaches the fleet
            // or a governor: the wire codec decodes arbitrary f64 bit
            // patterns, and a NaN budget would poison every later
            // comparison. The refusal is a typed wire error.
            if let Err(err) = budget.validate() {
                return Some(Reply::Error(ServiceError::InvalidTarget(err.to_string())));
            }
            match lock_unpoisoned(&shared.sessions)
                .fleet
                .set_stream_budget(stream as usize, budget)
            {
                Ok(backend) => Reply::BudgetSet { stream, backend },
                Err(err) => Reply::Error(err.into()),
            }
        }
        Request::ReadBudget { stream } => {
            match lock_unpoisoned(&shared.sessions)
                .fleet
                .stream_budget(stream as usize)
            {
                Ok(status) => Reply::Budget(status),
                Err(err) => Reply::Error(err.into()),
            }
        }
        Request::ReadMetrics => {
            lock_unpoisoned(&shared.sessions).publish(&shared.telemetry);
            Reply::Metrics(shared.telemetry.render())
        }
        Request::ReadHealth => Reply::Health(read_health(shared)),
        Request::ReadEvents { stream } => match lock_unpoisoned(&shared.sessions).events(stream) {
            Ok(events) => Reply::Events { stream, events },
            Err(err) => Reply::Error(err),
        },
        Request::CloseStream { stream } => match lock_unpoisoned(&shared.sessions).close(stream) {
            Ok(report) => Reply::Closed(report),
            Err(err) => Reply::Error(err),
        },
        Request::Shutdown => {
            shared.begin_drain();
            return None;
        }
    };
    Some(reply)
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
/// The session lock is taken (for stream reports) and released before
/// the health lock — the two never nest.
fn read_health(shared: &Shared) -> HealthSnapshot {
    let reports = lock_unpoisoned(&shared.sessions).fleet.stream_reports();
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
    use hrv_stream::StreamEvent;

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
        // Session journal first (admission, refusal), then fleet
        // journal (the operator quality switch).
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
