//! # hrv-service
//!
//! The network face of the quality-scalable PSA system: a std-only TCP
//! gateway (no async runtime, no external dependencies) that turns the
//! in-process pipeline — `RrIngest` → `SlidingLomb` →
//! `FleetScheduler` — into a long-lived monitoring service remote
//! sensors can stream into.
//!
//! * [`frame`] — length-prefixed binary frames with a bounded maximum
//!   ([`MAX_FRAME`]) and timeout-safe incremental reassembly
//!   ([`FrameReader`]);
//! * [`proto`] — the typed message layer ([`Request`] / [`Reply`],
//!   version-negotiated, floats carried bit-exactly);
//! * [`reactor`] — the readiness-driven connection layer: N epoll
//!   event-loop shards (edge-triggered reads, vectored buffered writes
//!   with per-connection backpressure), with the raw syscall surface
//!   confined to [`reactor::sys`] the same way `hrv-dsp` confines its
//!   SIMD intrinsics;
//! * [`gateway`] — the reactor shards around one lock on an
//!   external-ingest [`hrv_stream::FleetScheduler`] (kernels from the
//!   shared `hrv-core` execution layer), which is also the session
//!   registry. Admission control ([`SessionConfig`]: max sessions and a
//!   per-push sample bound whose overflow answer is a typed `Busy`)
//!   runs under that lock; each push is gated by the fleet's ingest and
//!   its windows computed before the reply, and graceful shutdown drains
//!   every session into final per-stream reports id-ordered and
//!   bit-identical to an equivalent offline fleet run over the same
//!   samples;
//! * [`client`] — the blocking [`ServiceClient`] used by examples, the
//!   `loadgen` bench and the loopback tests.
//!
//! Observability flows through one [`hrv_core::Telemetry`] registry
//! (kernel-cache builds/hits, fleet throughput, per-stage latency; no
//! per-stream series, so its size does not grow with sessions), rendered in the Prometheus text format either in-process or
//! over the wire via `ReadMetrics`.
//!
//! # Examples
//!
//! ```
//! use hrv_service::{Gateway, GatewayConfig, ServiceClient};
//!
//! // A loopback gateway on an ephemeral port.
//! let handle = Gateway::start(GatewayConfig::default())?;
//! let mut client = ServiceClient::connect(handle.local_addr())?;
//!
//! // Stream a minute of beats, then read the live report.
//! client.open_stream(7)?;
//! let samples: Vec<(f64, f64)> = (1..=75).map(|i| (0.8 * i as f64, 0.8)).collect();
//! client.push_rr(7, &samples)?;
//! let report = client.read_report(7)?;
//! assert_eq!(report.id, 7);
//! assert_eq!(report.ingest.accepted, 75);
//!
//! // Drain: the final reports are id-ordered.
//! let reports = client.shutdown()?;
//! assert_eq!(reports.len(), 1);
//! handle.wait()?;
//! # Ok::<(), hrv_service::ServiceError>(())
//! ```

// `deny`, not `forbid`: the audited `reactor::sys` module opts back in
// with a module-level `allow` for the epoll/eventfd FFI — the same
// confinement idiom `hrv-dsp` uses for its SIMD intrinsics. The
// `unsafe-confined` analyzer rule enforces that no other module does.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod frame;
pub mod gateway;
pub mod proto;
pub mod reactor;

pub use client::ServiceClient;
pub use error::ServiceError;
pub use frame::{write_frame, FramePoll, FrameReader, HEADER_LEN, MAX_FRAME};
pub use gateway::{Gateway, GatewayConfig, GatewayHandle, SessionConfig, MAX_SESSIONS};
pub use proto::{
    HealthSnapshot, Pushed, Reply, Request, StageLatency, StageSlow, StreamHealth, PROTOCOL_VERSION,
};
