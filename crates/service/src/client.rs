//! A blocking client for the gateway's wire protocol.
//!
//! [`ServiceClient`] wraps a [`TcpStream`] with the frame codec and a
//! typed method per request, mapping `Reply::Error` frames back into
//! `Err(ServiceError)` — so callers see exactly the gateway's typed
//! error surface. Used by the loopback examples, the `loadgen` bench
//! client and the integration tests; it is equally usable across real
//! networks.

use crate::error::ServiceError;
use crate::frame::{write_frame, FramePoll, FrameReader};
use crate::proto::{HealthSnapshot, Pushed, Reply, Request, PROTOCOL_VERSION};
use hrv_core::ApproximationMode;
use hrv_stream::{EventRecord, StreamBudget, StreamBudgetStatus, StreamReport};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected, handshaken gateway client; see the module docs.
#[derive(Debug)]
pub struct ServiceClient {
    conn: TcpStream,
    reader: FrameReader,
    max_frame: u32,
    max_sessions: u32,
}

impl ServiceClient {
    /// Connects and performs the `Hello` handshake.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] on connection failure and
    /// [`ServiceError::Protocol`] on a version mismatch.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ServiceError> {
        let conn = TcpStream::connect(addr)?;
        let _ = conn.set_nodelay(true);
        let mut client = ServiceClient {
            conn,
            reader: FrameReader::new(),
            max_frame: 0,
            max_sessions: 0,
        };
        match client.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Reply::HelloAck {
                max_frame,
                max_sessions,
                ..
            } => {
                client.max_frame = max_frame;
                client.max_sessions = max_sessions;
                Ok(client)
            }
            // A version rejection arrives as a transported typed error —
            // surface it as such, not wrapped in debug formatting.
            other => Err(fail("HelloAck", other)),
        }
    }

    /// The gateway's frame-size bound, from the handshake.
    pub fn max_frame(&self) -> u32 {
        self.max_frame
    }

    /// The gateway's session capacity, from the handshake.
    pub fn max_sessions(&self) -> u32 {
        self.max_sessions
    }

    /// One request/reply exchange.
    fn call(&mut self, request: &Request) -> Result<Reply, ServiceError> {
        self.call_body(&request.encode())
    }

    /// One exchange from an already-encoded frame body (the push hot
    /// path encodes straight from borrowed slices).
    fn call_body(&mut self, body: &[u8]) -> Result<Reply, ServiceError> {
        write_frame(&mut self.conn, body)?;
        loop {
            match self.reader.poll(&mut self.conn)? {
                FramePoll::Frame(body) => return Reply::decode(&body),
                // A blocking socket without a timeout should not report
                // Pending, but tolerate it (e.g. a caller-configured
                // timeout) by polling on.
                FramePoll::Pending => continue,
                FramePoll::Closed => {
                    return Err(ServiceError::Io(
                        "gateway closed the connection mid-call".into(),
                    ))
                }
            }
        }
    }

    /// Opens stream `stream` on the gateway.
    ///
    /// # Errors
    ///
    /// Typed gateway errors ([`ServiceError::SessionLimit`],
    /// [`ServiceError::DuplicateStream`], …) come back as `Err`.
    pub fn open_stream(&mut self, stream: u64) -> Result<(), ServiceError> {
        match self.call(&Request::OpenStream { stream })? {
            Reply::StreamOpened { .. } => Ok(()),
            other => Err(fail("StreamOpened", other)),
        }
    }

    /// Pushes `(beat time, RR)` samples. The reply comes once the
    /// windows they complete are computed; [`ServiceError::Busy`] means
    /// the batch exceeds the gateway's per-push bound.
    ///
    /// # Errors
    ///
    /// Typed gateway errors come back as `Err`.
    pub fn push_rr(&mut self, stream: u64, samples: &[(f64, f64)]) -> Result<Pushed, ServiceError> {
        match self.call_body(&crate::proto::encode_push_rr(stream, samples))? {
            Reply::Pushed(pushed) => Ok(pushed),
            other => Err(fail("Pushed", other)),
        }
    }

    /// Pushes raw beat times (the gateway derives and gates RR
    /// intervals).
    ///
    /// # Errors
    ///
    /// Typed gateway errors come back as `Err`.
    pub fn push_beats(&mut self, stream: u64, beats: &[f64]) -> Result<Pushed, ServiceError> {
        match self.call_body(&crate::proto::encode_push_beats(stream, beats))? {
            Reply::Pushed(pushed) => Ok(pushed),
            other => Err(fail("Pushed", other)),
        }
    }

    /// Reads the stream's current report (every answered push is already
    /// analysed, so the report reflects everything pushed so far).
    ///
    /// # Errors
    ///
    /// Typed gateway errors come back as `Err`.
    pub fn read_report(&mut self, stream: u64) -> Result<StreamReport, ServiceError> {
        match self.call(&Request::ReadReport { stream })? {
            Reply::Report(report) => Ok(report),
            other => Err(fail("Report", other)),
        }
    }

    /// Switches the stream's operating mode; returns the name of the
    /// now-active kernel.
    ///
    /// # Errors
    ///
    /// Typed gateway errors come back as `Err`.
    pub fn set_quality(
        &mut self,
        stream: u64,
        mode: ApproximationMode,
    ) -> Result<String, ServiceError> {
        match self.call(&Request::SetQuality { stream, mode })? {
            Reply::QualitySet { backend, .. } => Ok(backend),
            other => Err(fail("QualitySet", other)),
        }
    }

    /// Attaches (or replaces) an energy-budget governor on the stream;
    /// returns the name of the kernel the governor selected to start
    /// with. Non-finite or out-of-range budgets draw
    /// [`ServiceError::InvalidTarget`].
    ///
    /// # Errors
    ///
    /// Typed gateway errors come back as `Err`.
    pub fn set_budget(
        &mut self,
        stream: u64,
        budget: StreamBudget,
    ) -> Result<String, ServiceError> {
        match self.call(&Request::SetBudget { stream, budget })? {
            Reply::BudgetSet { backend, .. } => Ok(backend),
            other => Err(fail("BudgetSet", other)),
        }
    }

    /// Reads the stream's live budget accounting (every answered push is
    /// already analysed, like for [`ServiceClient::read_report`]).
    ///
    /// # Errors
    ///
    /// Typed gateway errors come back as `Err`.
    pub fn read_budget(&mut self, stream: u64) -> Result<StreamBudgetStatus, ServiceError> {
        match self.call(&Request::ReadBudget { stream })? {
            Reply::Budget(status) => Ok(status),
            other => Err(fail("Budget", other)),
        }
    }

    /// Reads the gateway's telemetry registry (Prometheus text format).
    ///
    /// # Errors
    ///
    /// Typed gateway errors come back as `Err`.
    pub fn metrics(&mut self) -> Result<String, ServiceError> {
        match self.call(&Request::ReadMetrics)? {
            Reply::Metrics(text) => Ok(text),
            other => Err(fail("Metrics", other)),
        }
    }

    /// Ticks the gateway's health engine once and reads the resulting
    /// snapshot (SLO alerts, slow-request summary, per-stage latency
    /// and per-stream health rows). With the default
    /// [`crate::GatewayConfig::health`] every call advances exactly one
    /// burn-rate tick, so a scripted poller sees a deterministic alert
    /// sequence.
    ///
    /// # Errors
    ///
    /// Typed gateway errors come back as `Err`.
    pub fn read_health(&mut self) -> Result<HealthSnapshot, ServiceError> {
        match self.call(&Request::ReadHealth)? {
            Reply::Health(health) => Ok(health),
            other => Err(fail("Health", other)),
        }
    }

    /// Reads the stream's journalled events, oldest first (every answered
    /// push is already analysed, so the journal reflects everything
    /// pushed so far).
    ///
    /// # Errors
    ///
    /// Typed gateway errors come back as `Err`.
    pub fn read_events(&mut self, stream: u64) -> Result<Vec<EventRecord>, ServiceError> {
        match self.call(&Request::ReadEvents { stream })? {
            Reply::Events { events, .. } => Ok(events),
            other => Err(fail("Events", other)),
        }
    }

    /// Closes the stream, returning its final report (trailing windows
    /// flushed).
    ///
    /// # Errors
    ///
    /// Typed gateway errors come back as `Err`.
    pub fn close_stream(&mut self, stream: u64) -> Result<StreamReport, ServiceError> {
        match self.call(&Request::CloseStream { stream })? {
            Reply::Closed(report) => Ok(report),
            other => Err(fail("Closed", other)),
        }
    }

    /// Asks the gateway to drain and shut down; blocks until the drain
    /// completes and returns the final id-ordered per-stream reports.
    ///
    /// # Errors
    ///
    /// Typed gateway errors come back as `Err`.
    pub fn shutdown(mut self) -> Result<Vec<StreamReport>, ServiceError> {
        match self.call(&Request::Shutdown)? {
            Reply::ShutdownAck { reports } => Ok(reports),
            other => Err(fail("ShutdownAck", other)),
        }
    }
}

/// Folds an unexpected reply into the error channel: a transported
/// `Error` becomes itself, anything else is a protocol violation.
fn fail(wanted: &str, reply: Reply) -> ServiceError {
    match reply {
        Reply::Error(err) => err,
        other => unexpected(wanted, &other),
    }
}

fn unexpected(wanted: &str, got: &Reply) -> ServiceError {
    ServiceError::Protocol(format!("expected {wanted}, got {got:?}"))
}
