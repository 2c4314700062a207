//! What both gateway workloads share: set-up of the child gateway and
//! its sessions, the drain, and the layer scrape.

use crate::scrape::{label_value, Delta, Snapshot};
use crate::stats::{self, metric_token};
use crate::wire::{self, Conn, GatewayChild};
use crate::Metric;
use hrv_core::Tracer;
use hrv_stream::StreamReport;
use std::time::Instant;

/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 5;

/// A started gateway with every stream open.
pub struct Setup {
    pub child: GatewayChild,
    pub conns: Vec<Conn>,
}

/// Sets the gateway up [`SETUP_REPS`] times — inputs (`build_inputs`),
/// child start, handshakes, `OpenStream` of every stream — and keeps the
/// last. Returns the median set-up time. Only the kept child traces.
pub fn set_up(
    streams: usize,
    connections: usize,
    trace_out: Option<&str>,
    tracer: &Tracer,
    mut build_inputs: impl FnMut(),
) -> Result<(f64, Setup), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let started = Instant::now();
        build_inputs();
        let child = GatewayChild::spawn(streams, if last { trace_out } else { None })?;
        let mut conns = (0..connections)
            .map(|_| Conn::connect(&child.addr, tracer))
            .collect::<Result<Vec<_>, _>>()?;
        for id in 0..streams {
            conns[0].open(id as u64)?;
        }
        times.push(started.elapsed().as_secs_f64());
        if last {
            kept = Some(Setup { child, conns });
        }
    }
    Ok((stats::median(&times), kept.expect("SETUP_REPS > 0")))
}

/// Closes every connection but `via`, drains the gateway through `via`
/// and waits for the child to exit. Returns the drained reports.
pub fn tear_down(mut setup: Setup, via: usize) -> Result<Vec<StreamReport>, String> {
    let mut conn = setup.conns.swap_remove(via);
    setup.conns.clear();
    let reports = wire::shutdown(&mut conn)?;
    setup.child.wait()?;
    Ok(reports)
}

/// Modelled totals over drained reports: (ops, joules, windows).
pub fn model_totals(reports: &[StreamReport]) -> (f64, f64, f64) {
    let ops: u64 = reports.iter().map(|r| r.ops.total()).sum();
    let energy: f64 = reports.iter().map(|r| r.energy_j).sum();
    let windows: u64 = reports.iter().map(|r| r.windows).sum();
    (ops as f64, energy, windows as f64)
}

const FRAME_READ: &str = "hrv_service_frame_read_seconds";
const DECODE: &str = "hrv_service_frame_decode_seconds";
const ENCODE: &str = "hrv_service_report_encode_seconds";
const QUEUE_WAIT: &str = "hrv_service_queue_wait_seconds";
const DISPATCH: &str = "hrv_service_pump_dispatch_seconds";
const COMPUTE: &str = "hrv_stream_window_compute_seconds";
const GOVERNOR: &str = "hrv_stream_governor_decision_seconds";

/// The gateway's exposition between the start and the end of a timed
/// phase, read over the wire with `ReadMetrics`.
pub struct Scrape {
    delta: Delta,
}

impl Scrape {
    pub fn between(start: &str, end: &str) -> Scrape {
        Scrape {
            delta: Delta::new(Snapshot::parse(start), Snapshot::parse(end)),
        }
    }

    /// Mean time per item along the push → window path inside the
    /// gateway: frame read, decode, queue wait, dispatch (which holds
    /// the window compute).
    pub fn blocking_path_us(&self) -> f64 {
        [FRAME_READ, DECODE, QUEUE_WAIT, DISPATCH]
            .iter()
            .map(|f| self.delta.mean_us(f))
            .sum()
    }

    /// The per-layer metrics the exposition supports; `windows` is the
    /// phase's window count.
    pub fn metrics(&self, windows: u64) -> Vec<Metric> {
        let d = &self.delta;
        let builds = d.counter("hrv_kernel_builds_total");
        let hits = d.counter("hrv_kernel_hits_total");
        let mut out = vec![
            Metric::new("reactor.frame_read_us_mean", d.mean_us(FRAME_READ), "us"),
            Metric::new(
                "reactor.frames",
                d.counter("hrv_service_frames_total"),
                "count",
            ),
            Metric::new("proto.decode_us_mean", d.mean_us(DECODE), "us"),
            Metric::new("proto.encode_us_mean", d.mean_us(ENCODE), "us"),
            Metric::new("session.queue_wait_us_mean", d.mean_us(QUEUE_WAIT), "us"),
            Metric::new(
                "session.admitted",
                d.counter("hrv_service_samples_admitted_total"),
                "count",
            ),
            Metric::new(
                "session.gated",
                d.counter("hrv_service_samples_gated_total"),
                "count",
            ),
            Metric::new("session.busy", d.counter("hrv_service_busy_total"), "count"),
            Metric::new("gateway.dispatch_us_mean", d.mean_us(DISPATCH), "us"),
            Metric::new(
                "gateway.dispatches_per_window",
                d.count_where(DISPATCH, &|_| true) / windows.max(1) as f64,
                "count",
            ),
            Metric::new("fleet.governor_us_mean", d.mean_us(GOVERNOR), "us"),
            Metric::new("exec.kernel_builds", builds, "count"),
            Metric::new(
                "exec.kernel_hit_rate",
                if hits + builds > 0.0 {
                    hits / (hits + builds)
                } else {
                    0.0
                },
                "ratio",
            ),
        ];
        for kernel in d.label_values(COMPUTE, "kernel") {
            let keep = |labels: &str| label_value(labels, "kernel").as_deref() == Some(&kernel);
            out.push(Metric::new(
                &format!("fleet.window_compute_us_mean.{}", metric_token(&kernel)),
                d.mean_us_where(COMPUTE, &keep),
                "us",
            ));
        }
        out
    }
}
