//! The wire protocol: typed messages over [`crate::frame`] frames.
//!
//! Every frame body is `[u8 tag][payload]`. Integers are big-endian;
//! floats travel as their IEEE-754 bit patterns (so a value decodes
//! **bit-identically** — the property the service-vs-offline equivalence
//! tests rely on); strings are `u32` length + UTF-8. Request tags use
//! `0x01..`, reply tags `0x81..`, so a captured frame is unambiguous in
//! either direction.
//!
//! | request | reply on success |
//! |---|---|
//! | [`Request::Hello`] | [`Reply::HelloAck`] |
//! | [`Request::OpenStream`] | [`Reply::StreamOpened`] |
//! | [`Request::PushRr`] / [`Request::PushBeats`] | [`Reply::Pushed`] |
//! | [`Request::ReadReport`] | [`Reply::Report`] |
//! | [`Request::SetQuality`] | [`Reply::QualitySet`] |
//! | [`Request::SetBudget`] | [`Reply::BudgetSet`] |
//! | [`Request::ReadBudget`] | [`Reply::Budget`] |
//! | [`Request::ReadMetrics`] | [`Reply::Metrics`] |
//! | [`Request::ReadHealth`] | [`Reply::Health`] |
//! | [`Request::ReadEvents`] | [`Reply::Events`] |
//! | [`Request::CloseStream`] | [`Reply::Closed`] |
//! | [`Request::Shutdown`] | [`Reply::ShutdownAck`] |
//!
//! Any request can instead draw a [`Reply::Error`] carrying a typed
//! [`ServiceError`].

use crate::error::ServiceError;
use hrv_core::{AlertState, AlertStatus, ApproximationMode};
use hrv_dsp::OpCount;
use hrv_stream::{
    decode_events, encode_events, BatteryStatus, EventRecord, IngestStats, StreamBudget,
    StreamBudgetStatus, StreamReport,
};

/// Version negotiated by `Hello`; the gateway rejects any other.
///
/// v2 (governor layer): `Report`/`Closed`/`ShutdownAck` report bodies
/// carry `energy_j` and a battery block, `SetBudget`/`ReadBudget`
/// requests and `BudgetSet`/`Budget` replies exist, and error code 11
/// (`InvalidTarget`) was added — a v1 peer would misdecode report
/// frames, so the handshake refuses it.
///
/// v3 (health layer): `ReadHealth`/`ReadEvents` requests and
/// `Health`/`Events` replies exist — SLO alert states with multi-window
/// burn rates, the slow-request trace summary, per-stage latency rows,
/// per-stream health rows and the bounded per-stream event journal are
/// all readable over the wire. Earlier peers would reject the new tags,
/// so the handshake refuses them.
pub const PROTOCOL_VERSION: u32 = 3;

// ---- request/reply types --------------------------------------------------

/// A client→gateway message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Handshake; must be the first request on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Admits a new stream (session + fleet slot).
    OpenStream {
        /// Stream id, unique gateway-wide.
        stream: u64,
    },
    /// Pushes pre-computed `(beat time, RR interval)` samples.
    PushRr {
        /// Target stream.
        stream: u64,
        /// Samples in strictly increasing beat-time order.
        samples: Vec<(f64, f64)>,
    },
    /// Pushes raw detected beat times (RR intervals are derived and
    /// gated server-side with the delineate rules).
    PushBeats {
        /// Target stream.
        stream: u64,
        /// Beat times in strictly increasing order.
        beats: Vec<f64>,
    },
    /// Reads the stream's current per-stream report.
    ReadReport {
        /// Target stream.
        stream: u64,
    },
    /// Switches the stream's operating mode (static pruning degree).
    SetQuality {
        /// Target stream.
        stream: u64,
        /// Desired approximation degree (`Exact` restores the reference
        /// kernel).
        mode: ApproximationMode,
    },
    /// Attaches (or replaces) an energy-budget governor on the stream.
    /// The gateway validates every field before it reaches the fleet:
    /// non-finite or out-of-range values draw
    /// [`ServiceError::InvalidTarget`].
    SetBudget {
        /// Target stream.
        stream: u64,
        /// The per-stream budget (joules per interval, interval length,
        /// optional battery).
        budget: StreamBudget,
    },
    /// Reads the stream's live budget accounting.
    ReadBudget {
        /// Target stream.
        stream: u64,
    },
    /// Reads the gateway's telemetry registry (Prometheus text format).
    ReadMetrics,
    /// Ticks the gateway's health engine once and reads the resulting
    /// snapshot: SLO alert states, slow-request summary, per-stage
    /// latency rows and per-stream health rows.
    ReadHealth,
    /// Reads the stream's bounded event journal (admissions, quality
    /// switches, refusals, budget/battery edges, drain).
    ReadEvents {
        /// Target stream.
        stream: u64,
    },
    /// Flushes a stream's trailing windows and removes it.
    CloseStream {
        /// Target stream.
        stream: u64,
    },
    /// Asks the gateway to drain every session and shut down.
    Shutdown,
}

/// A gateway→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Handshake accepted.
    HelloAck {
        /// The gateway's [`PROTOCOL_VERSION`].
        version: u32,
        /// Maximum frame body the gateway accepts ([`crate::MAX_FRAME`]).
        max_frame: u32,
        /// Session-table capacity.
        max_sessions: u32,
    },
    /// The stream was admitted.
    StreamOpened {
        /// The opened stream.
        stream: u64,
    },
    /// A push was fed to the fleet and its windows computed.
    Pushed(Pushed),
    /// A point-in-time per-stream report.
    Report(StreamReport),
    /// The operating mode was switched.
    QualitySet {
        /// The switched stream.
        stream: u64,
        /// Name of the now-active kernel.
        backend: String,
    },
    /// The budget governor was attached.
    BudgetSet {
        /// The governed stream.
        stream: u64,
        /// Name of the kernel the governor selected to start with.
        backend: String,
    },
    /// The stream's live budget accounting.
    Budget(StreamBudgetStatus),
    /// The telemetry exposition.
    Metrics(String),
    /// A point-in-time health snapshot.
    Health(HealthSnapshot),
    /// A stream's journalled events, oldest first.
    Events {
        /// The inspected stream.
        stream: u64,
        /// Journalled events in the stream's one sequence.
        events: Vec<EventRecord>,
    },
    /// The stream's final report after its trailing windows flushed.
    Closed(StreamReport),
    /// The gateway drained; final reports of every stream still open,
    /// id-ordered.
    ShutdownAck {
        /// Final per-stream reports.
        reports: Vec<StreamReport>,
    },
    /// The request failed.
    Error(ServiceError),
}

/// Outcome of a `PushRr`/`PushBeats` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pushed {
    /// The pushed stream.
    pub stream: u64,
    /// Samples accepted by the fleet's ingest gate.
    pub accepted: u32,
    /// Samples rejected by that gate (delineate rules: interval bounds,
    /// monotone time).
    pub gated: u32,
    /// Always 0 (kept for the v3 layout): nothing queues behind a push.
    pub queue_depth: u32,
}

/// One per-stage latency row inside a [`HealthSnapshot`]: a labelled
/// histogram series with its count and headline quantiles.
#[derive(Clone, Debug, PartialEq)]
pub struct StageLatency {
    /// Histogram family name (e.g. `hrv_service_frame_decode_seconds`).
    pub family: String,
    /// Rendered label set of the series (may be empty).
    pub labels: String,
    /// Observations recorded so far.
    pub count: u64,
    /// Median latency in seconds.
    pub p50_s: f64,
    /// Tail latency in seconds.
    pub p99_s: f64,
}

/// One per-stream health row inside a [`HealthSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct StreamHealth {
    /// The stream id.
    pub id: u64,
    /// Spectral windows produced so far.
    pub windows: u64,
    /// Modelled energy spent so far.
    pub energy_j: f64,
    /// Always 0 (kept for the v3 layout): pushes are analysed before
    /// they are answered, so nothing queues.
    pub queue_depth: u32,
    /// Name of the active kernel.
    pub backend: String,
}

/// Worst recorded slow-request root span for one pipeline stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSlow {
    /// Root-span stage name.
    pub stage: String,
    /// Worst root-span duration observed, in nanoseconds.
    pub worst_ns: u64,
}

/// The gateway's point-in-time health snapshot, carried by
/// [`Reply::Health`].
#[derive(Clone, Debug, PartialEq)]
pub struct HealthSnapshot {
    /// Health-engine evaluation ticks completed so far.
    pub ticks: u64,
    /// Per-SLO alert status, catalog-ordered.
    pub alerts: Vec<AlertStatus>,
    /// Requests the tracer retained as slow since startup.
    pub slow_requests: u64,
    /// Worst retained slow root span per stage, stage-ordered.
    pub slow_stages: Vec<StageSlow>,
    /// Per-stage latency rows, family- then label-ordered.
    pub stages: Vec<StageLatency>,
    /// Per-stream health rows, id-ordered.
    pub streams: Vec<StreamHealth>,
}

// ---- byte-level helpers ---------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A checked reader over one frame body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServiceError> {
        if self.remaining() < n {
            return Err(ServiceError::Protocol(format!(
                "payload ended early (wanted {n} more bytes, had {})",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, ServiceError> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, ServiceError> {
        let bytes: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| ServiceError::Protocol("u32 field truncated".into()))?;
        Ok(u32::from_be_bytes(bytes))
    }

    fn take_u64(&mut self) -> Result<u64, ServiceError> {
        let bytes: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| ServiceError::Protocol("u64 field truncated".into()))?;
        Ok(u64::from_be_bytes(bytes))
    }

    fn take_f64(&mut self) -> Result<f64, ServiceError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    fn take_str(&mut self) -> Result<String, ServiceError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServiceError::Protocol("string is not valid utf-8".into()))
    }

    /// Rejects trailing garbage after a fully decoded message.
    fn finish(self) -> Result<(), ServiceError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ServiceError::Protocol(format!(
                "{} trailing bytes after message",
                self.remaining()
            )))
        }
    }
}

fn mode_to_wire(mode: ApproximationMode) -> u8 {
    match mode {
        ApproximationMode::Exact => 0,
        ApproximationMode::BandDrop => 1,
        ApproximationMode::BandDropSet1 => 2,
        ApproximationMode::BandDropSet2 => 3,
        ApproximationMode::BandDropSet3 => 4,
    }
}

fn mode_from_wire(v: u8) -> Result<ApproximationMode, ServiceError> {
    Ok(match v {
        0 => ApproximationMode::Exact,
        1 => ApproximationMode::BandDrop,
        2 => ApproximationMode::BandDropSet1,
        3 => ApproximationMode::BandDropSet2,
        4 => ApproximationMode::BandDropSet3,
        other => {
            return Err(ServiceError::Protocol(format!(
                "unknown approximation mode {other}"
            )))
        }
    })
}

fn put_battery(buf: &mut Vec<u8>, battery: &Option<BatteryStatus>) {
    match battery {
        Some(status) => {
            put_u8(buf, 1);
            put_f64(buf, status.charge_j);
            put_f64(buf, status.capacity_j);
        }
        None => put_u8(buf, 0),
    }
}

fn take_battery(cursor: &mut Cursor<'_>) -> Result<Option<BatteryStatus>, ServiceError> {
    Ok(match cursor.take_u8()? {
        0 => None,
        1 => Some(BatteryStatus {
            charge_j: cursor.take_f64()?,
            capacity_j: cursor.take_f64()?,
        }),
        other => {
            return Err(ServiceError::Protocol(format!(
                "unknown battery flag {other}"
            )))
        }
    })
}

fn put_report(buf: &mut Vec<u8>, report: &StreamReport) {
    put_u64(buf, report.id as u64);
    put_u64(buf, report.windows);
    put_u64(buf, report.arrhythmia_windows);
    for v in [
        report.ops.add,
        report.ops.mul,
        report.ops.div,
        report.ops.sqrt,
        report.ops.trig,
        report.ops.cmp,
        report.ops.load,
        report.ops.store,
    ] {
        put_u64(buf, v);
    }
    put_f64(buf, report.energy_j);
    put_battery(buf, &report.battery);
    for v in [
        report.ingest.accepted,
        report.ingest.rejected_short,
        report.ingest.rejected_dropout,
        report.ingest.rejected_out_of_order,
        report.ingest.overflow_dropped,
    ] {
        put_u64(buf, v);
    }
    put_str(buf, &report.backend);
}

fn take_report(cursor: &mut Cursor<'_>) -> Result<StreamReport, ServiceError> {
    let id = cursor.take_u64()? as usize;
    let windows = cursor.take_u64()?;
    let arrhythmia_windows = cursor.take_u64()?;
    let ops = OpCount {
        add: cursor.take_u64()?,
        mul: cursor.take_u64()?,
        div: cursor.take_u64()?,
        sqrt: cursor.take_u64()?,
        trig: cursor.take_u64()?,
        cmp: cursor.take_u64()?,
        load: cursor.take_u64()?,
        store: cursor.take_u64()?,
    };
    let energy_j = cursor.take_f64()?;
    let battery = take_battery(cursor)?;
    let ingest = IngestStats {
        accepted: cursor.take_u64()?,
        rejected_short: cursor.take_u64()?,
        rejected_dropout: cursor.take_u64()?,
        rejected_out_of_order: cursor.take_u64()?,
        overflow_dropped: cursor.take_u64()?,
    };
    let backend = cursor.take_str()?;
    Ok(StreamReport {
        id,
        windows,
        arrhythmia_windows,
        ops,
        energy_j,
        battery,
        ingest,
        backend,
    })
}

fn put_error(buf: &mut Vec<u8>, err: &ServiceError) {
    match err {
        ServiceError::FrameTooLarge { len, max } => {
            put_u8(buf, 1);
            put_u64(buf, *len as u64);
            put_u64(buf, *max as u64);
        }
        ServiceError::Truncated { expected, got } => {
            put_u8(buf, 2);
            put_u64(buf, *expected as u64);
            put_u64(buf, *got as u64);
        }
        ServiceError::Protocol(reason) => {
            put_u8(buf, 3);
            put_str(buf, reason);
        }
        ServiceError::UnknownStream(id) => {
            put_u8(buf, 4);
            put_u64(buf, *id);
        }
        ServiceError::DuplicateStream(id) => {
            put_u8(buf, 5);
            put_u64(buf, *id);
        }
        ServiceError::SessionLimit { max } => {
            put_u8(buf, 6);
            put_u32(buf, *max);
        }
        ServiceError::Busy { stream, capacity } => {
            put_u8(buf, 7);
            put_u64(buf, *stream);
            put_u32(buf, *capacity);
        }
        ServiceError::ShuttingDown => put_u8(buf, 8),
        ServiceError::Psa(reason) => {
            put_u8(buf, 9);
            put_str(buf, reason);
        }
        ServiceError::Io(reason) => {
            put_u8(buf, 10);
            put_str(buf, reason);
        }
        ServiceError::InvalidTarget(reason) => {
            put_u8(buf, 11);
            put_str(buf, reason);
        }
    }
}

fn take_error(cursor: &mut Cursor<'_>) -> Result<ServiceError, ServiceError> {
    Ok(match cursor.take_u8()? {
        1 => ServiceError::FrameTooLarge {
            len: cursor.take_u64()? as usize,
            max: cursor.take_u64()? as usize,
        },
        2 => ServiceError::Truncated {
            expected: cursor.take_u64()? as usize,
            got: cursor.take_u64()? as usize,
        },
        3 => ServiceError::Protocol(cursor.take_str()?),
        4 => ServiceError::UnknownStream(cursor.take_u64()?),
        5 => ServiceError::DuplicateStream(cursor.take_u64()?),
        6 => ServiceError::SessionLimit {
            max: cursor.take_u32()?,
        },
        7 => ServiceError::Busy {
            stream: cursor.take_u64()?,
            capacity: cursor.take_u32()?,
        },
        8 => ServiceError::ShuttingDown,
        9 => ServiceError::Psa(cursor.take_str()?),
        10 => ServiceError::Io(cursor.take_str()?),
        11 => ServiceError::InvalidTarget(cursor.take_str()?),
        other => {
            return Err(ServiceError::Protocol(format!(
                "unknown error code {other}"
            )))
        }
    })
}

fn put_health(buf: &mut Vec<u8>, health: &HealthSnapshot) {
    put_u64(buf, health.ticks);
    put_u32(buf, health.alerts.len() as u32);
    for alert in &health.alerts {
        put_str(buf, &alert.slo);
        put_u8(buf, alert.state.severity());
        put_f64(buf, alert.short_burn);
        put_f64(buf, alert.long_burn);
        put_u64(buf, alert.since_tick);
    }
    put_u64(buf, health.slow_requests);
    put_u32(buf, health.slow_stages.len() as u32);
    for slow in &health.slow_stages {
        put_str(buf, &slow.stage);
        put_u64(buf, slow.worst_ns);
    }
    put_u32(buf, health.stages.len() as u32);
    for stage in &health.stages {
        put_str(buf, &stage.family);
        put_str(buf, &stage.labels);
        put_u64(buf, stage.count);
        put_f64(buf, stage.p50_s);
        put_f64(buf, stage.p99_s);
    }
    put_u32(buf, health.streams.len() as u32);
    for stream in &health.streams {
        put_u64(buf, stream.id);
        put_u64(buf, stream.windows);
        put_f64(buf, stream.energy_j);
        put_u32(buf, stream.queue_depth);
        put_str(buf, &stream.backend);
    }
}

fn take_health(cursor: &mut Cursor<'_>) -> Result<HealthSnapshot, ServiceError> {
    let ticks = cursor.take_u64()?;
    let alert_count = cursor.take_u32()? as usize;
    // Division-form count guards throughout, as in `shutdown_ack`: each
    // row has a known minimum encoding, so a hostile count cannot force
    // an allocation past what the frame itself carries.
    if alert_count > cursor.remaining() / 29 {
        return Err(ServiceError::Protocol(format!(
            "health announced {alert_count} alerts but carries {} bytes",
            cursor.remaining()
        )));
    }
    let mut alerts = Vec::with_capacity(alert_count);
    for _ in 0..alert_count {
        let slo = cursor.take_str()?;
        let code = cursor.take_u8()?;
        let state = AlertState::from_severity(code)
            .ok_or_else(|| ServiceError::Protocol(format!("unknown alert severity {code}")))?;
        alerts.push(AlertStatus {
            slo,
            state,
            short_burn: cursor.take_f64()?,
            long_burn: cursor.take_f64()?,
            since_tick: cursor.take_u64()?,
        });
    }
    let slow_requests = cursor.take_u64()?;
    let slow_count = cursor.take_u32()? as usize;
    if slow_count > cursor.remaining() / 12 {
        return Err(ServiceError::Protocol(format!(
            "health announced {slow_count} slow stages but carries {} bytes",
            cursor.remaining()
        )));
    }
    let mut slow_stages = Vec::with_capacity(slow_count);
    for _ in 0..slow_count {
        slow_stages.push(StageSlow {
            stage: cursor.take_str()?,
            worst_ns: cursor.take_u64()?,
        });
    }
    let stage_count = cursor.take_u32()? as usize;
    if stage_count > cursor.remaining() / 32 {
        return Err(ServiceError::Protocol(format!(
            "health announced {stage_count} stage rows but carries {} bytes",
            cursor.remaining()
        )));
    }
    let mut stages = Vec::with_capacity(stage_count);
    for _ in 0..stage_count {
        stages.push(StageLatency {
            family: cursor.take_str()?,
            labels: cursor.take_str()?,
            count: cursor.take_u64()?,
            p50_s: cursor.take_f64()?,
            p99_s: cursor.take_f64()?,
        });
    }
    let stream_count = cursor.take_u32()? as usize;
    if stream_count > cursor.remaining() / 32 {
        return Err(ServiceError::Protocol(format!(
            "health announced {stream_count} stream rows but carries {} bytes",
            cursor.remaining()
        )));
    }
    let mut streams = Vec::with_capacity(stream_count);
    for _ in 0..stream_count {
        streams.push(StreamHealth {
            id: cursor.take_u64()?,
            windows: cursor.take_u64()?,
            energy_j: cursor.take_f64()?,
            queue_depth: cursor.take_u32()?,
            backend: cursor.take_str()?,
        });
    }
    Ok(HealthSnapshot {
        ticks,
        alerts,
        slow_requests,
        slow_stages,
        stages,
        streams,
    })
}

fn put_events(buf: &mut Vec<u8>, stream: u64, events: &[EventRecord]) {
    put_u64(buf, stream);
    buf.extend_from_slice(&encode_events(events));
}

fn take_events(cursor: &mut Cursor<'_>) -> Result<(u64, Vec<EventRecord>), ServiceError> {
    let stream = cursor.take_u64()?;
    let blob = cursor.take(cursor.remaining())?;
    let events = decode_events(blob).map_err(ServiceError::Protocol)?;
    Ok((stream, events))
}

// ---- message codecs -------------------------------------------------------

const REQ_HELLO: u8 = 0x01;
const REQ_OPEN_STREAM: u8 = 0x02;
const REQ_PUSH_RR: u8 = 0x03;
const REQ_PUSH_BEATS: u8 = 0x04;
const REQ_READ_REPORT: u8 = 0x05;
const REQ_SET_QUALITY: u8 = 0x06;
const REQ_READ_METRICS: u8 = 0x07;
const REQ_CLOSE_STREAM: u8 = 0x08;
const REQ_SHUTDOWN: u8 = 0x09;
const REQ_SET_BUDGET: u8 = 0x0a;
const REQ_READ_BUDGET: u8 = 0x0b;
const REQ_READ_HEALTH: u8 = 0x0c;
const REQ_READ_EVENTS: u8 = 0x0d;

const REP_HELLO_ACK: u8 = 0x81;
const REP_STREAM_OPENED: u8 = 0x82;
const REP_PUSHED: u8 = 0x83;
const REP_REPORT: u8 = 0x84;
const REP_QUALITY_SET: u8 = 0x85;
const REP_METRICS: u8 = 0x86;
const REP_CLOSED: u8 = 0x87;
const REP_SHUTDOWN_ACK: u8 = 0x88;
const REP_ERROR: u8 = 0x89;
const REP_BUDGET_SET: u8 = 0x8a;
const REP_BUDGET: u8 = 0x8b;
const REP_HEALTH: u8 = 0x8c;
const REP_EVENTS: u8 = 0x8d;

/// Encodes a `PushRr` frame body straight from a borrowed slice —
/// byte-identical to `Request::PushRr { .. }.encode()` (which delegates
/// here), without cloning the batch into an owned request first. The
/// client's push hot path uses this.
pub fn encode_push_rr(stream: u64, samples: &[(f64, f64)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(13 + samples.len() * 16);
    put_u8(&mut buf, REQ_PUSH_RR);
    put_u64(&mut buf, stream);
    put_u32(&mut buf, samples.len() as u32);
    for &(t, rr) in samples {
        put_f64(&mut buf, t);
        put_f64(&mut buf, rr);
    }
    buf
}

/// Borrowed-slice counterpart of `Request::PushBeats { .. }.encode()`;
/// see [`encode_push_rr`].
pub fn encode_push_beats(stream: u64, beats: &[f64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(13 + beats.len() * 8);
    put_u8(&mut buf, REQ_PUSH_BEATS);
    put_u64(&mut buf, stream);
    put_u32(&mut buf, beats.len() as u32);
    for &t in beats {
        put_f64(&mut buf, t);
    }
    buf
}

impl Request {
    /// Serialises the request into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello { version } => {
                put_u8(&mut buf, REQ_HELLO);
                put_u32(&mut buf, *version);
            }
            Request::OpenStream { stream } => {
                put_u8(&mut buf, REQ_OPEN_STREAM);
                put_u64(&mut buf, *stream);
            }
            Request::PushRr { stream, samples } => return encode_push_rr(*stream, samples),
            Request::PushBeats { stream, beats } => return encode_push_beats(*stream, beats),
            Request::ReadReport { stream } => {
                put_u8(&mut buf, REQ_READ_REPORT);
                put_u64(&mut buf, *stream);
            }
            Request::SetQuality { stream, mode } => {
                put_u8(&mut buf, REQ_SET_QUALITY);
                put_u64(&mut buf, *stream);
                put_u8(&mut buf, mode_to_wire(*mode));
            }
            Request::SetBudget { stream, budget } => {
                put_u8(&mut buf, REQ_SET_BUDGET);
                put_u64(&mut buf, *stream);
                put_f64(&mut buf, budget.joules_per_interval);
                put_u64(&mut buf, budget.interval_windows);
                put_f64(&mut buf, budget.battery_capacity_j);
                put_f64(&mut buf, budget.battery_harvest_w);
            }
            Request::ReadBudget { stream } => {
                put_u8(&mut buf, REQ_READ_BUDGET);
                put_u64(&mut buf, *stream);
            }
            Request::ReadMetrics => put_u8(&mut buf, REQ_READ_METRICS),
            Request::ReadHealth => put_u8(&mut buf, REQ_READ_HEALTH),
            Request::ReadEvents { stream } => {
                put_u8(&mut buf, REQ_READ_EVENTS);
                put_u64(&mut buf, *stream);
            }
            Request::CloseStream { stream } => {
                put_u8(&mut buf, REQ_CLOSE_STREAM);
                put_u64(&mut buf, *stream);
            }
            Request::Shutdown => put_u8(&mut buf, REQ_SHUTDOWN),
        }
        buf
    }

    /// Decodes a frame body into a request.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for an unknown tag, a length
    /// mismatch, or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Self, ServiceError> {
        let mut cursor = Cursor::new(body);
        let request = match cursor.take_u8()? {
            REQ_HELLO => Request::Hello {
                version: cursor.take_u32()?,
            },
            REQ_OPEN_STREAM => Request::OpenStream {
                stream: cursor.take_u64()?,
            },
            REQ_PUSH_RR => {
                let stream = cursor.take_u64()?;
                let count = cursor.take_u32()? as usize;
                // Division, not `count * 16`: the multiplication could
                // wrap on 32-bit targets and let a tiny hostile frame
                // demand a huge Vec.
                if count != cursor.remaining() / 16 || !cursor.remaining().is_multiple_of(16) {
                    return Err(ServiceError::Protocol(format!(
                        "push_rr announced {count} samples but carries {} bytes",
                        cursor.remaining()
                    )));
                }
                let mut samples = Vec::with_capacity(count);
                for _ in 0..count {
                    samples.push((cursor.take_f64()?, cursor.take_f64()?));
                }
                Request::PushRr { stream, samples }
            }
            REQ_PUSH_BEATS => {
                let stream = cursor.take_u64()?;
                let count = cursor.take_u32()? as usize;
                // Division form for the same wrap-safety as push_rr.
                if count != cursor.remaining() / 8 || !cursor.remaining().is_multiple_of(8) {
                    return Err(ServiceError::Protocol(format!(
                        "push_beats announced {count} beats but carries {} bytes",
                        cursor.remaining()
                    )));
                }
                let mut beats = Vec::with_capacity(count);
                for _ in 0..count {
                    beats.push(cursor.take_f64()?);
                }
                Request::PushBeats { stream, beats }
            }
            REQ_READ_REPORT => Request::ReadReport {
                stream: cursor.take_u64()?,
            },
            REQ_SET_QUALITY => Request::SetQuality {
                stream: cursor.take_u64()?,
                mode: mode_from_wire(cursor.take_u8()?)?,
            },
            REQ_SET_BUDGET => Request::SetBudget {
                stream: cursor.take_u64()?,
                budget: StreamBudget {
                    joules_per_interval: cursor.take_f64()?,
                    interval_windows: cursor.take_u64()?,
                    battery_capacity_j: cursor.take_f64()?,
                    battery_harvest_w: cursor.take_f64()?,
                },
            },
            REQ_READ_BUDGET => Request::ReadBudget {
                stream: cursor.take_u64()?,
            },
            REQ_READ_METRICS => Request::ReadMetrics,
            REQ_READ_HEALTH => Request::ReadHealth,
            REQ_READ_EVENTS => Request::ReadEvents {
                stream: cursor.take_u64()?,
            },
            REQ_CLOSE_STREAM => Request::CloseStream {
                stream: cursor.take_u64()?,
            },
            REQ_SHUTDOWN => Request::Shutdown,
            other => {
                return Err(ServiceError::Protocol(format!(
                    "unknown request tag {other:#04x}"
                )))
            }
        };
        cursor.finish()?;
        Ok(request)
    }
}

impl Reply {
    /// Serialises the reply into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Reply::HelloAck {
                version,
                max_frame,
                max_sessions,
            } => {
                put_u8(&mut buf, REP_HELLO_ACK);
                put_u32(&mut buf, *version);
                put_u32(&mut buf, *max_frame);
                put_u32(&mut buf, *max_sessions);
            }
            Reply::StreamOpened { stream } => {
                put_u8(&mut buf, REP_STREAM_OPENED);
                put_u64(&mut buf, *stream);
            }
            Reply::Pushed(pushed) => {
                put_u8(&mut buf, REP_PUSHED);
                put_u64(&mut buf, pushed.stream);
                put_u32(&mut buf, pushed.accepted);
                put_u32(&mut buf, pushed.gated);
                put_u32(&mut buf, pushed.queue_depth);
            }
            Reply::Report(report) => {
                put_u8(&mut buf, REP_REPORT);
                put_report(&mut buf, report);
            }
            Reply::QualitySet { stream, backend } => {
                put_u8(&mut buf, REP_QUALITY_SET);
                put_u64(&mut buf, *stream);
                put_str(&mut buf, backend);
            }
            Reply::BudgetSet { stream, backend } => {
                put_u8(&mut buf, REP_BUDGET_SET);
                put_u64(&mut buf, *stream);
                put_str(&mut buf, backend);
            }
            Reply::Budget(status) => {
                put_u8(&mut buf, REP_BUDGET);
                put_u64(&mut buf, status.id as u64);
                put_f64(&mut buf, status.joules_per_interval);
                put_u64(&mut buf, status.interval_windows);
                put_f64(&mut buf, status.spent_j);
                put_battery(&mut buf, &status.battery);
                put_str(&mut buf, &status.backend);
            }
            Reply::Metrics(text) => {
                put_u8(&mut buf, REP_METRICS);
                put_str(&mut buf, text);
            }
            Reply::Health(health) => {
                put_u8(&mut buf, REP_HEALTH);
                put_health(&mut buf, health);
            }
            Reply::Events { stream, events } => {
                put_u8(&mut buf, REP_EVENTS);
                put_events(&mut buf, *stream, events);
            }
            Reply::Closed(report) => {
                put_u8(&mut buf, REP_CLOSED);
                put_report(&mut buf, report);
            }
            Reply::ShutdownAck { reports } => {
                put_u8(&mut buf, REP_SHUTDOWN_ACK);
                put_u32(&mut buf, reports.len() as u32);
                for report in reports {
                    put_report(&mut buf, report);
                }
            }
            Reply::Error(err) => {
                put_u8(&mut buf, REP_ERROR);
                put_error(&mut buf, err);
            }
        }
        buf
    }

    /// Decodes a frame body into a reply.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for an unknown tag, a length
    /// mismatch, or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Self, ServiceError> {
        let mut cursor = Cursor::new(body);
        let reply = match cursor.take_u8()? {
            REP_HELLO_ACK => Reply::HelloAck {
                version: cursor.take_u32()?,
                max_frame: cursor.take_u32()?,
                max_sessions: cursor.take_u32()?,
            },
            REP_STREAM_OPENED => Reply::StreamOpened {
                stream: cursor.take_u64()?,
            },
            REP_PUSHED => Reply::Pushed(Pushed {
                stream: cursor.take_u64()?,
                accepted: cursor.take_u32()?,
                gated: cursor.take_u32()?,
                queue_depth: cursor.take_u32()?,
            }),
            REP_REPORT => Reply::Report(take_report(&mut cursor)?),
            REP_QUALITY_SET => Reply::QualitySet {
                stream: cursor.take_u64()?,
                backend: cursor.take_str()?,
            },
            REP_BUDGET_SET => Reply::BudgetSet {
                stream: cursor.take_u64()?,
                backend: cursor.take_str()?,
            },
            REP_BUDGET => Reply::Budget(StreamBudgetStatus {
                id: cursor.take_u64()? as usize,
                joules_per_interval: cursor.take_f64()?,
                interval_windows: cursor.take_u64()?,
                spent_j: cursor.take_f64()?,
                battery: take_battery(&mut cursor)?,
                backend: cursor.take_str()?,
            }),
            REP_METRICS => Reply::Metrics(cursor.take_str()?),
            REP_HEALTH => Reply::Health(take_health(&mut cursor)?),
            REP_EVENTS => {
                let (stream, events) = take_events(&mut cursor)?;
                Reply::Events { stream, events }
            }
            REP_CLOSED => Reply::Closed(take_report(&mut cursor)?),
            REP_SHUTDOWN_ACK => {
                let count = cursor.take_u32()? as usize;
                // Each report is ≥ 132 bytes (3 + 8 + 5 u64 fields and a
                // string length), so a hostile count cannot force an
                // allocation past what the frame itself carries.
                if count > cursor.remaining() / 132 {
                    return Err(ServiceError::Protocol(format!(
                        "shutdown_ack announced {count} reports but carries {} bytes",
                        cursor.remaining()
                    )));
                }
                let mut reports = Vec::with_capacity(count);
                for _ in 0..count {
                    reports.push(take_report(&mut cursor)?);
                }
                Reply::ShutdownAck { reports }
            }
            REP_ERROR => Reply::Error(take_error(&mut cursor)?),
            other => {
                return Err(ServiceError::Protocol(format!(
                    "unknown reply tag {other:#04x}"
                )))
            }
        };
        cursor.finish()?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_stream::{StreamEvent, SwitchReason};

    fn sample_report(id: usize) -> StreamReport {
        StreamReport {
            id,
            windows: 42,
            arrhythmia_windows: 7,
            ops: OpCount {
                add: 1,
                mul: 2,
                div: 3,
                sqrt: 4,
                trig: 5,
                cmp: 6,
                load: 7,
                store: 8,
            },
            energy_j: 0.125,
            battery: id.is_multiple_of(2).then_some(BatteryStatus {
                charge_j: 4.5,
                capacity_j: 10.0,
            }),
            ingest: IngestStats {
                accepted: 100,
                rejected_short: 1,
                rejected_dropout: 2,
                rejected_out_of_order: 3,
                overflow_dropped: 0,
            },
            backend: "split-radix".into(),
        }
    }

    fn sample_health() -> HealthSnapshot {
        HealthSnapshot {
            ticks: 12,
            alerts: vec![
                AlertStatus {
                    slo: "busy_ratio".into(),
                    state: AlertState::Page,
                    short_burn: 850.0,
                    long_burn: 212.5,
                    since_tick: 3,
                },
                AlertStatus {
                    slo: "decode_p99".into(),
                    state: AlertState::Ok,
                    short_burn: 0.25,
                    long_burn: 0.25,
                    since_tick: 0,
                },
            ],
            slow_requests: 2,
            slow_stages: vec![StageSlow {
                stage: "push_rr".into(),
                worst_ns: 1_250_000,
            }],
            stages: vec![StageLatency {
                family: "hrv_service_frame_decode_seconds".into(),
                labels: "".into(),
                count: 640,
                p50_s: 1.5e-6,
                p99_s: 8.0e-6,
            }],
            streams: vec![StreamHealth {
                id: 4,
                windows: 42,
                energy_j: 0.125,
                queue_depth: 12,
                backend: "split-radix".into(),
            }],
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::OpenStream { stream: 9 },
            Request::PushRr {
                stream: 3,
                samples: vec![(1.5, 0.8), (2.25, 0.75)],
            },
            Request::PushBeats {
                stream: 3,
                beats: vec![0.0, 0.8, 1.6],
            },
            Request::ReadReport { stream: 3 },
            Request::SetQuality {
                stream: 3,
                mode: ApproximationMode::BandDropSet3,
            },
            Request::SetBudget {
                stream: 3,
                budget: StreamBudget {
                    joules_per_interval: 2.5e-3,
                    interval_windows: 16,
                    battery_capacity_j: 12.0,
                    battery_harvest_w: 1e-4,
                },
            },
            Request::ReadBudget { stream: 3 },
            Request::ReadMetrics,
            Request::ReadHealth,
            Request::ReadEvents { stream: 3 },
            Request::CloseStream { stream: 3 },
            Request::Shutdown,
        ];
        for request in requests {
            let body = request.encode();
            assert_eq!(Request::decode(&body).unwrap(), request, "{request:?}");
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply::HelloAck {
                version: PROTOCOL_VERSION,
                max_frame: crate::MAX_FRAME as u32,
                max_sessions: 64,
            },
            Reply::StreamOpened { stream: 4 },
            Reply::Pushed(Pushed {
                stream: 4,
                accepted: 30,
                gated: 2,
                queue_depth: 12,
            }),
            Reply::Report(sample_report(4)),
            Reply::QualitySet {
                stream: 4,
                backend: "wfft-haar+banddrop+prune60%".into(),
            },
            Reply::BudgetSet {
                stream: 4,
                backend: "split-radix".into(),
            },
            Reply::Budget(StreamBudgetStatus {
                id: 4,
                joules_per_interval: 2.5e-3,
                interval_windows: 16,
                spent_j: 1.25e-3,
                battery: Some(BatteryStatus {
                    charge_j: 9.5,
                    capacity_j: 12.0,
                }),
                backend: "split-radix".into(),
            }),
            Reply::Budget(StreamBudgetStatus {
                id: 5,
                joules_per_interval: 1.0,
                interval_windows: 1,
                spent_j: 0.0,
                battery: None,
                backend: "split-radix".into(),
            }),
            Reply::Metrics("# TYPE x counter\nx 1\n".into()),
            Reply::Health(sample_health()),
            Reply::Health(HealthSnapshot {
                ticks: 0,
                alerts: vec![],
                slow_requests: 0,
                slow_stages: vec![],
                stages: vec![],
                streams: vec![],
            }),
            Reply::Events {
                stream: 4,
                events: vec![
                    EventRecord {
                        seq: 0,
                        window: 0,
                        event: StreamEvent::Admission {
                            accepted: 30,
                            gated: 2,
                        },
                    },
                    EventRecord {
                        seq: 1,
                        window: 3,
                        event: StreamEvent::QualitySwitch {
                            backend: "wfft-haar+banddrop".into(),
                            rail_v: 0.81,
                            reason: SwitchReason::Governor,
                        },
                    },
                    EventRecord {
                        seq: 2,
                        window: 9,
                        event: StreamEvent::Drain { windows: 9 },
                    },
                ],
            },
            Reply::Events {
                stream: 5,
                events: vec![],
            },
            Reply::Closed(sample_report(4)),
            Reply::ShutdownAck {
                reports: vec![sample_report(0), sample_report(1)],
            },
            Reply::Error(ServiceError::Busy {
                stream: 4,
                capacity: 256,
            }),
        ];
        for reply in replies {
            let body = reply.encode();
            assert_eq!(Reply::decode(&body).unwrap(), reply, "{reply:?}");
        }
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        let tricky = [f64::MIN_POSITIVE, -0.0, 1.0 / 3.0, f64::MAX, f64::INFINITY];
        let samples: Vec<(f64, f64)> = tricky.iter().map(|&t| (t, -t)).collect();
        let decoded = Request::decode(
            &Request::PushRr {
                stream: 0,
                samples: samples.clone(),
            }
            .encode(),
        )
        .unwrap();
        let Request::PushRr {
            samples: decoded, ..
        } = decoded
        else {
            panic!("wrong variant");
        };
        for ((a, b), (c, d)) in samples.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), c.to_bits());
            assert_eq!(b.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn every_error_variant_round_trips() {
        let errors = [
            ServiceError::FrameTooLarge { len: 10, max: 5 },
            ServiceError::Truncated {
                expected: 8,
                got: 2,
            },
            ServiceError::Protocol("tag".into()),
            ServiceError::UnknownStream(1),
            ServiceError::DuplicateStream(2),
            ServiceError::SessionLimit { max: 4 },
            ServiceError::Busy {
                stream: 1,
                capacity: 2,
            },
            ServiceError::ShuttingDown,
            ServiceError::Psa("too few samples".into()),
            ServiceError::Io("reset".into()),
            ServiceError::InvalidTarget("budget joules must be finite".into()),
        ];
        for err in errors {
            let reply = Reply::Error(err);
            assert_eq!(Reply::decode(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn malformed_payloads_are_typed_protocol_errors() {
        // Unknown tags.
        assert!(matches!(
            Request::decode(&[0x7f]),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            Reply::decode(&[0x01]),
            Err(ServiceError::Protocol(_))
        ));
        // Sample count disagreeing with the payload length.
        let mut body = Request::PushRr {
            stream: 1,
            samples: vec![(1.0, 0.8)],
        }
        .encode();
        body.pop();
        assert!(matches!(
            Request::decode(&body),
            Err(ServiceError::Protocol(_))
        ));
        // Trailing bytes.
        let mut body = Request::Shutdown.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(&body),
            Err(ServiceError::Protocol(_))
        ));
        // Invalid quality mode.
        let mut body = Vec::new();
        put_u8(&mut body, REQ_SET_QUALITY);
        put_u64(&mut body, 1);
        put_u8(&mut body, 99);
        assert!(matches!(
            Request::decode(&body),
            Err(ServiceError::Protocol(_))
        ));
        // Truncated string.
        let mut body = Vec::new();
        put_u8(&mut body, REP_METRICS);
        put_u32(&mut body, 10);
        body.extend_from_slice(b"abc");
        assert!(matches!(
            Reply::decode(&body),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn shutdown_ack_report_count_is_bounded_by_payload() {
        let mut body = Vec::new();
        put_u8(&mut body, REP_SHUTDOWN_ACK);
        put_u32(&mut body, u32::MAX);
        assert!(matches!(
            Reply::decode(&body),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn health_counts_are_bounded_by_payload() {
        // A hostile count in any of the snapshot's four vectors must be
        // rejected before allocation. Walk a valid encoding to find all
        // four count offsets, then corrupt each to u32::MAX in turn.
        let health = sample_health();
        let body = Reply::Health(health.clone()).encode();
        let mut counts = Vec::new();
        let mut cursor = Cursor::new(&body[1..]);
        cursor.take_u64().unwrap(); // ticks
        counts.push(1 + cursor.pos); // alert count offset in `body`
        cursor.take_u32().unwrap();
        for alert in &health.alerts {
            cursor.take(4 + alert.slo.len() + 1 + 8 + 8 + 8).unwrap();
        }
        cursor.take_u64().unwrap(); // slow_requests
        counts.push(1 + cursor.pos);
        cursor.take_u32().unwrap();
        for slow in &health.slow_stages {
            cursor.take(4 + slow.stage.len() + 8).unwrap();
        }
        counts.push(1 + cursor.pos);
        cursor.take_u32().unwrap();
        for stage in &health.stages {
            cursor
                .take(4 + stage.family.len() + 4 + stage.labels.len() + 8 + 8 + 8)
                .unwrap();
        }
        counts.push(1 + cursor.pos);
        assert_eq!(counts.len(), 4);
        for offset in counts {
            let mut corrupted = body.clone();
            corrupted[offset..offset + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            assert!(
                matches!(Reply::decode(&corrupted), Err(ServiceError::Protocol(_))),
                "count at byte {offset} not guarded"
            );
        }
    }

    #[test]
    fn unknown_alert_severity_is_a_typed_protocol_error() {
        let mut snapshot = sample_health();
        snapshot.slow_stages.clear();
        snapshot.stages.clear();
        snapshot.streams.clear();
        snapshot.alerts.truncate(1);
        let mut body = Reply::Health(snapshot.clone()).encode();
        // The severity byte follows tag + ticks + count + name string.
        let severity_at = 1 + 8 + 4 + 4 + snapshot.alerts[0].slo.len();
        assert_eq!(body[severity_at], AlertState::Page.severity());
        body[severity_at] = 99;
        assert!(matches!(
            Reply::decode(&body),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn malformed_event_journals_are_typed_protocol_errors() {
        let reply = Reply::Events {
            stream: 7,
            events: vec![EventRecord {
                seq: 0,
                window: 1,
                event: StreamEvent::BatteryLow { soc: 0.2 },
            }],
        };
        let body = reply.encode();
        assert_eq!(Reply::decode(&body).unwrap(), reply);
        // Truncating the journal blob or appending trailing bytes must
        // both surface as typed protocol errors.
        assert!(matches!(
            Reply::decode(&body[..body.len() - 1]),
            Err(ServiceError::Protocol(_))
        ));
        let mut extended = body;
        extended.push(0);
        assert!(matches!(
            Reply::decode(&extended),
            Err(ServiceError::Protocol(_))
        ));
    }
}
