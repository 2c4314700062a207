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
use std::time::Duration;

/// Jittered exponential backoff schedule for `Busy` retries.
///
/// Against this crate's gateway a retry cannot help: there `Busy` means
/// the batch is above the per-push bound, so the same batch is refused
/// again (split it instead). The schedule serves peers whose refusals
/// clear with time, and load generators that model such clients.
///
/// Attempt `n` draws a delay uniformly from `[envelope/2, envelope]`
/// where `envelope = min(cap, base · 2ⁿ)` — "equal jitter": the
/// exponential envelope bounds the wait, the random half keeps a
/// thundering herd of refused clients from re-knocking in lockstep.
/// The jitter source is a seeded splitmix64, so a given `(seed, base,
/// cap)` always produces the same delay sequence — tests (and
/// deterministic load generators) replay it exactly.
#[derive(Clone, Debug)]
pub struct BusyBackoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl BusyBackoff {
    /// A schedule starting at `base` and doubling up to `cap`. `seed`
    /// fixes the jitter sequence; give each client its own (its stream
    /// id, a counter, …) so their retries decorrelate.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        BusyBackoff {
            base,
            cap: cap.max(base),
            attempt: 0,
            rng: seed,
        }
    }

    /// Restarts the schedule at the first attempt (the jitter stream
    /// keeps advancing — resets do not replay delays).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The next delay to sleep before retrying.
    pub fn next_delay(&mut self) -> Duration {
        let envelope = self
            .cap
            .min(self.base.saturating_mul(1u32 << self.attempt.min(31)));
        self.attempt = self.attempt.saturating_add(1);
        // splitmix64 step (the same finalizer the fleet's stream
        // partition uses), folded to a uniform fraction in [0, 1).
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
        envelope.mul_f64(0.5 + 0.5 * frac)
    }
}

/// Runs `op` until it returns anything but `Busy`, sleeping the
/// backoff's next delay between attempts. The schedule is reset on
/// entry, so each call starts from the first-attempt envelope.
/// Factored over an injected sleeper so the deterministic mock-clock
/// test drives the exact loop production uses.
fn retry_busy<T>(
    backoff: &mut BusyBackoff,
    mut sleep: impl FnMut(Duration),
    mut op: impl FnMut() -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    backoff.reset();
    loop {
        match op() {
            Err(ServiceError::Busy { .. }) => sleep(backoff.next_delay()),
            outcome => return outcome,
        }
    }
}

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

    /// [`ServiceClient::push_rr`], retrying on [`ServiceError::Busy`]
    /// with the jittered exponential schedule of `backoff` (reset on
    /// entry) — the polite way for a fleet of clients to re-knock
    /// without lockstep. See [`BusyBackoff`]: this crate's gateway
    /// refuses a batch above its per-push bound on every retry.
    ///
    /// # Errors
    ///
    /// Every error except `Busy` is returned as-is.
    pub fn push_rr_backoff(
        &mut self,
        stream: u64,
        samples: &[(f64, f64)],
        backoff: &mut BusyBackoff,
    ) -> Result<Pushed, ServiceError> {
        let body = crate::proto::encode_push_rr(stream, samples);
        retry_busy(backoff, std::thread::sleep, || {
            match self.call_body(&body)? {
                Reply::Pushed(pushed) => Ok(pushed),
                other => Err(fail("Pushed", other)),
            }
        })
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

    /// [`ServiceClient::push_beats`], retrying on
    /// [`ServiceError::Busy`] with the jittered exponential schedule of
    /// `backoff` (reset on entry) — a `Busy` refusal leaves the
    /// gateway's beat filter untouched, so the retried batch replays
    /// identically. See [`BusyBackoff`] for when a retry can succeed.
    ///
    /// # Errors
    ///
    /// Every error except `Busy` is returned as-is.
    pub fn push_beats_backoff(
        &mut self,
        stream: u64,
        beats: &[f64],
        backoff: &mut BusyBackoff,
    ) -> Result<Pushed, ServiceError> {
        let body = crate::proto::encode_push_beats(stream, beats);
        retry_busy(backoff, std::thread::sleep, || {
            match self.call_body(&body)? {
                Reply::Pushed(pushed) => Ok(pushed),
                other => Err(fail("Pushed", other)),
            }
        })
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

    /// Reads the stream's live budget accounting (queued samples are
    /// analysed first, like [`ServiceClient::read_report`]).
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

    /// Reads the stream's journalled events, oldest first (queued
    /// samples are analysed first, like [`ServiceClient::read_report`],
    /// so fleet-side events reflect everything pushed so far).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Pushed;
    use hrv_core::{Clock, MockClock};
    use std::sync::Arc;

    #[test]
    fn backoff_delays_stay_inside_the_doubling_envelope() {
        let base = Duration::from_micros(200);
        let cap = Duration::from_millis(20);
        let mut backoff = BusyBackoff::new(base, cap, 2014);
        for attempt in 0u32..40 {
            let envelope = cap.min(base.saturating_mul(1u32 << attempt.min(31)));
            let delay = backoff.next_delay();
            assert!(
                delay >= envelope / 2 && delay <= envelope,
                "attempt {attempt}: {delay:?} outside [{:?}, {envelope:?}]",
                envelope / 2
            );
        }
        // Long past the doubling range the cap still holds.
        assert!(backoff.next_delay() <= cap);
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_decorrelated_across_seeds() {
        let base = Duration::from_micros(100);
        let cap = Duration::from_millis(50);
        let seq = |seed: u64| -> Vec<Duration> {
            let mut b = BusyBackoff::new(base, cap, seed);
            (0..12).map(|_| b.next_delay()).collect()
        };
        assert_eq!(seq(7), seq(7), "same seed must replay the same delays");
        assert_ne!(seq(7), seq(8), "different seeds must jitter apart");
        // reset() restarts the envelope but keeps consuming the jitter
        // stream — the retried first attempt is small again, yet not a
        // replay of the previous one.
        let mut b = BusyBackoff::new(base, cap, 7);
        let first = b.next_delay();
        b.reset();
        let retried_first = b.next_delay();
        assert!(retried_first >= base / 2 && retried_first <= base);
        assert_ne!(first, retried_first);
    }

    /// The deterministic mock-clock run of the retry loop production
    /// uses: a scripted operation answers `Busy` three times, the
    /// sleeper advances a [`MockClock`] instead of the wall clock, and
    /// the timeline of wake-ups is asserted exactly.
    #[test]
    fn retry_busy_walks_the_jittered_schedule_over_a_mock_clock() {
        let base = Duration::from_micros(200);
        let cap = Duration::from_millis(20);
        // The expected timeline is derived from an identically-seeded
        // schedule — same seed, same delays, by construction.
        let mut reference = BusyBackoff::new(base, cap, 42);
        let expected: Vec<u64> = (0..3)
            .scan(0u64, |now, _| {
                *now += reference.next_delay().as_nanos() as u64;
                Some(*now)
            })
            .collect();

        let clock = Arc::new(MockClock::new());
        let mut backoff = BusyBackoff::new(base, cap, 42);
        let mut wakeups = Vec::new();
        let mut busy_left = 3;
        let outcome = retry_busy(
            &mut backoff,
            |delay| {
                clock.advance_ns(delay.as_nanos() as u64);
                wakeups.push(clock.now_ns());
            },
            || {
                if busy_left > 0 {
                    busy_left -= 1;
                    Err(ServiceError::Busy {
                        stream: 1,
                        capacity: 4,
                    })
                } else {
                    Ok(Pushed {
                        stream: 1,
                        accepted: 2,
                        gated: 0,
                        queue_depth: 2,
                    })
                }
            },
        );
        assert_eq!(
            outcome,
            Ok(Pushed {
                stream: 1,
                accepted: 2,
                gated: 0,
                queue_depth: 2
            })
        );
        assert_eq!(wakeups, expected, "wake-ups must follow the schedule");
        // Non-Busy errors pass through without sleeping.
        let refused = retry_busy(
            &mut backoff,
            |_| panic!("must not sleep on a non-Busy error"),
            || Err::<Pushed, _>(ServiceError::UnknownStream(9)),
        );
        assert_eq!(refused, Err(ServiceError::UnknownStream(9)));
    }
}
