//! `gateway_saturate`: closed loop with bounded pipelining on two
//! connections. Each stream interleaves pushes with `ReadReport`
//! (read-your-writes) and periodically switches kernel with `SetQuality`,
//! so capacity is measured with reads beside writes: inline drains run
//! on reactor threads under the fleet mutex, and kernels switch through
//! the `KernelCache`.

use crate::cohort::{self, Step, Tiled};
use crate::gateway;
use crate::procfs::Readings;
use crate::stats::{self, Intervals};
use crate::wire::Conn;
use crate::{Metric, Outcome, Provenance};
use hrv_core::{ApproximationMode, Tracer};
use hrv_service::{Reply, Request, ServiceError};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Streams, split evenly over the connections.
pub const STREAMS: usize = 64;
/// Connections (and load threads).
const CONNECTIONS: usize = 2;
/// Samples per `PushRr` batch.
const BATCH: usize = 64;
/// Requests in flight per connection; at most one per stream, so a
/// stream's requests are served in the order it sent them.
const PIPELINE: usize = 8;
/// A `ReadReport` follows every this many acknowledged pushes.
const READ_EVERY: u64 = 4;
/// A `SetQuality` follows every this many acknowledged pushes.
const QUALITY_EVERY: u64 = 32;

/// The kernel cycle `SetQuality` walks.
const CYCLE: [ApproximationMode; 5] = ApproximationMode::ALL;

/// One stream's request cycle and recorded history.
struct StreamState {
    id: usize,
    cursor: usize,
    pushes: u64,
    since_read: u64,
    next_mode: usize,
    quality_due: bool,
    history: Vec<Step>,
    /// (sent, replied) per history step.
    times: Vec<(Instant, Instant)>,
}

enum Kind {
    Push(Range<usize>),
    Read,
    Quality(ApproximationMode),
}

impl StreamState {
    fn new(id: usize) -> Self {
        StreamState {
            id,
            cursor: 0,
            pushes: 0,
            since_read: 0,
            next_mode: id % CYCLE.len(),
            // The first request sets the stream's starting kernel.
            quality_due: true,
            history: Vec::new(),
            times: Vec::new(),
        }
    }

    /// The stream's next request.
    fn next(&mut self) -> Kind {
        if self.quality_due {
            self.quality_due = false;
            let mode = CYCLE[self.next_mode % CYCLE.len()];
            self.next_mode += 1;
            return Kind::Quality(mode);
        }
        if self.since_read == READ_EVERY {
            self.since_read = 0;
            self.quality_due = self.pushes.is_multiple_of(QUALITY_EVERY);
            return Kind::Read;
        }
        Kind::Push(self.cursor..self.cursor + BATCH)
    }
}

/// What one connection measured.
#[derive(Default)]
struct ConnLog {
    attempts: u64,
    busy: u64,
    accepted: u64,
    push_latency_us: Vec<f64>,
    read_latency_us: Vec<f64>,
    depth_max: u32,
    /// Gateway CPU and machine steal at every interval boundary.
    at: Readings,
    bytes_out: u64,
    encode: stats::MeanNs,
    decode: stats::MeanNs,
}

/// Drives `streams` on `conn` through the timed phase, then lets the
/// requests in flight finish. With `gateway_pid`, also reads the
/// gateway's CPU time at the first reply after every interval boundary.
fn drive(
    conn: &mut Conn,
    streams: &mut [StreamState],
    samples: &[Tiled],
    iv: Intervals,
    gateway_pid: Option<u32>,
) -> Result<ConnLog, String> {
    let mut log = ConnLog::default();
    let mut ready: VecDeque<usize> = (0..streams.len()).collect();
    let mut in_flight: VecDeque<(usize, Kind, Instant)> = VecDeque::new();
    if let Some(wait) = iv.t0.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let deadline = iv.end();
    let read_cpu = |log: &mut ConnLog, now: Instant| -> Result<(), String> {
        if let Some(pid) = gateway_pid {
            while log.at.len() <= iv.count && now >= iv.boundary(log.at.len()) {
                log.at.take(pid)?;
            }
        }
        Ok(())
    };
    read_cpu(&mut log, Instant::now())?;
    loop {
        while in_flight.len() < PIPELINE && Instant::now() < deadline {
            let Some(i) = ready.pop_front() else { break };
            let st = &mut streams[i];
            let kind = st.next();
            let stream = st.id as u64;
            match &kind {
                Kind::Push(range) => {
                    log.attempts += 1;
                    conn.send_push(stream, &samples[st.id].slice(range.clone()))?;
                }
                Kind::Read => conn.send(&Request::ReadReport { stream })?,
                Kind::Quality(mode) => conn.send(&Request::SetQuality {
                    stream,
                    mode: *mode,
                })?,
            }
            in_flight.push_back((i, kind, Instant::now()));
        }
        let Some((i, kind, sent)) = in_flight.pop_front() else {
            break;
        };
        let reply = conn.recv()?;
        let now = Instant::now();
        read_cpu(&mut log, now)?;
        let st = &mut streams[i];
        match (kind, reply) {
            (Kind::Push(range), Reply::Pushed(pushed)) => {
                if pushed.accepted as usize + pushed.gated as usize != range.len() {
                    return Err(format!(
                        "gateway_saturate: stream {} acknowledged {} of {} samples",
                        st.id,
                        pushed.accepted + pushed.gated,
                        range.len()
                    ));
                }
                log.accepted += u64::from(pushed.accepted);
                log.depth_max = log.depth_max.max(pushed.queue_depth);
                log.push_latency_us.push((now - sent).as_secs_f64() * 1e6);
                st.cursor = range.end;
                st.pushes += 1;
                st.since_read += 1;
                st.history.push(Step::Push(range));
                st.times.push((sent, now));
            }
            // Refused whole: the stream re-sends the same batch next.
            (Kind::Push(_), Reply::Error(ServiceError::Busy { .. })) => log.busy += 1,
            (Kind::Read, Reply::Report(report)) => {
                log.read_latency_us.push((now - sent).as_secs_f64() * 1e6);
                st.history.push(Step::Read(Box::new(report)));
                st.times.push((sent, now));
            }
            (Kind::Quality(mode), Reply::QualitySet { .. }) => {
                st.history.push(Step::Quality(mode));
                st.times.push((sent, now));
            }
            (_, other) => {
                return Err(format!(
                    "gateway_saturate: stream {}: unexpected {other:?}",
                    st.id
                ))
            }
        }
        ready.push_back(i);
    }
    if gateway_pid.is_some() && log.at.len() != iv.count + 1 {
        return Err("gateway_saturate: missed an interval boundary".into());
    }
    log.bytes_out = conn.bytes_out;
    log.encode = conn.encode;
    log.decode = conn.decode;
    Ok(log)
}

/// Windows whose completing push was followed by a read: latency from
/// that push's send to the read's reply, by the interval of the reply.
/// `windows_after` holds the reference window count after each of the
/// stream's pushes.
fn window_latencies_ms(
    st: &StreamState,
    windows_after: &[u64],
    iv: &Intervals,
    out: &mut [Vec<f64>],
) {
    let mut pushes = 0;
    let mut before = 0;
    let mut pending: Vec<Instant> = Vec::new();
    for (step, &(sent, replied)) in st.history.iter().zip(&st.times) {
        match step {
            Step::Push(_) => {
                let after = windows_after[pushes];
                pushes += 1;
                pending.extend(std::iter::repeat_n(sent, (after - before) as usize));
                before = after;
            }
            Step::Read(_) => {
                let latencies = pending.drain(..).map(|s| (replied - s).as_secs_f64() * 1e3);
                match iv.index(replied) {
                    Some(k) => out[k].extend(latencies),
                    None => latencies.for_each(drop),
                }
            }
            Step::Quality(_) => {}
        }
    }
}

struct Pass {
    setup_s: f64,
    logs: Vec<ConnLog>,
    iv: Intervals,
    /// Windows and samples acknowledged in each interval.
    per_interval: Vec<(u64, u64)>,
    windows: u64,
    window_latency_ms: Vec<Vec<f64>>,
    rss_peak_mb: f64,
    drained: Vec<hrv_stream::StreamReport>,
    layers: Option<gateway::Scrape>,
}

impl Pass {
    fn quiet(&self) -> Vec<usize> {
        self.iv.quiet(&self.logs[0].at.steal)
    }

    fn windows_per_s(&self) -> f64 {
        let step = self.iv.step.as_secs_f64();
        stats::median_over(&self.quiet(), |k| self.per_interval[k].0 as f64 / step)
    }

    fn samples_per_s(&self) -> f64 {
        let step = self.iv.step.as_secs_f64();
        stats::median_over(&self.quiet(), |k| self.per_interval[k].1 as f64 / step)
    }

    fn cpu_us_per_window(&self) -> f64 {
        let at = &self.logs[0].at;
        stats::median_over(&self.quiet(), |k| {
            at.cpu_in(k) / self.per_interval[k].0 as f64 * 1e6
        })
    }
}

fn pass(seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let tracer = if traced {
        Tracer::monotonic()
    } else {
        Tracer::disabled()
    };
    let trace_out = traced.then(|| crate::trace_path("gateway_saturate", seed, "gateway"));
    let mut samples = Vec::new();
    let (setup_s, mut setup) =
        gateway::set_up(STREAMS, CONNECTIONS, trace_out.as_deref(), &tracer, || {
            samples = (0..STREAMS).map(|id| Tiled::new(seed, id)).collect();
        })?;
    let start = traced.then(|| setup.conns[0].metrics()).transpose()?;
    let pid = setup.child.pid;
    let mut states: Vec<StreamState> = (0..STREAMS).map(StreamState::new).collect();
    let iv = Intervals::new(Instant::now() + Duration::from_millis(20), seconds);
    let logs = {
        let (first, second) = states.split_at_mut(STREAMS / CONNECTIONS);
        let (conn0, rest) = setup.conns.split_at_mut(1);
        let samples = &samples;
        std::thread::scope(|scope| {
            let other = scope.spawn(|| drive(&mut rest[0], second, samples, iv, None));
            let mine = drive(&mut conn0[0], first, samples, iv, Some(pid));
            let other = other.join().expect("load thread");
            mine.and_then(|m| other.map(|o| vec![m, o]))
        })?
    };
    let rss_peak_mb = crate::procfs::peak_rss_mb(pid)?;
    let layers = match start {
        Some(start) => Some(gateway::Scrape::between(&start, &setup.conns[0].metrics()?)),
        None => None,
    };
    let drained = gateway::tear_down(setup, 0)?;

    // Reference run: every ReadReport and the drain must match an
    // offline fleet fed the same batches with the same switch points.
    let histories: Vec<Vec<Step>> = states.iter().map(|s| s.history.clone()).collect();
    let (windows_after, reference) = cohort::replay(&samples, &histories)?;
    cohort::check_drain(&drained, &reference)?;
    let mut per_interval = vec![(0u64, 0u64); iv.count];
    let mut window_latency_ms = vec![Vec::new(); iv.count];
    for (st, after) in states.iter().zip(&windows_after) {
        window_latencies_ms(st, after, &iv, &mut window_latency_ms);
        let pushes =
            st.history
                .iter()
                .zip(&st.times)
                .filter_map(|(step, &(_, replied))| match step {
                    Step::Push(range) => Some((range.len() as u64, replied)),
                    _ => None,
                });
        let mut before = 0;
        for ((len, replied), &windows) in pushes.zip(after) {
            if let Some(k) = iv.index(replied) {
                per_interval[k].0 += windows - before;
                per_interval[k].1 += len;
            }
            before = windows;
        }
    }
    if traced {
        crate::write_trace("gateway_saturate", seed, "client", &tracer.chrome_trace())?;
    }
    Ok(Pass {
        setup_s,
        logs,
        iv,
        per_interval,
        windows: windows_after.iter().filter_map(|w| w.last()).sum(),
        window_latency_ms,
        rss_peak_mb,
        drained,
        layers,
    })
}

/// Totals over both connections.
struct Totals {
    attempts: u64,
    busy: u64,
    accepted: u64,
    push_us: Vec<f64>,
    read_us: Vec<f64>,
}

fn totals(logs: &[ConnLog]) -> Totals {
    Totals {
        attempts: logs.iter().map(|l| l.attempts).sum(),
        busy: logs.iter().map(|l| l.busy).sum(),
        accepted: logs.iter().map(|l| l.accepted).sum(),
        push_us: logs
            .iter()
            .flat_map(|l| l.push_latency_us.clone())
            .collect(),
        read_us: logs
            .iter()
            .flat_map(|l| l.read_latency_us.clone())
            .collect(),
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, prov: &mut Provenance) -> Result<Outcome, String> {
    prov.streams = STREAMS;
    prov.workers = 1;
    prov.offered = format!(
        "closed loop: {CONNECTIONS} connections x {PIPELINE} in flight, {BATCH}-sample pushes, \
         ReadReport every {READ_EVERY} pushes, SetQuality every {QUALITY_EVERY}"
    );
    let mut plain = pass(seed, seconds, false)?;
    let mut t = totals(&plain.logs);
    let quiet = plain.quiet();
    let latency = stats::interval_tail("window latency", &mut plain.window_latency_ms, &quiet)?;
    let push = stats::tail("push latency", &mut t.push_us)?;
    let read = stats::tail("read latency", &mut t.read_us)?;
    let (ops, energy, all_windows) = gateway::model_totals(&plain.drained);
    let mut outcome = Outcome {
        attempted: t.attempts,
        failed: t.busy,
        ..Outcome::default()
    };
    outcome.end_to_end = vec![
        Metric::new("setup_s", plain.setup_s, "s"),
        Metric::new("windows_per_s", plain.windows_per_s(), "1/s"),
        Metric::new("samples_per_s", plain.samples_per_s(), "1/s"),
        Metric::new("window_latency_p50_ms", latency.p50, "ms"),
        Metric::new("window_latency_p99_ms", latency.p99, "ms"),
        Metric::new("cpu_us_per_window", plain.cpu_us_per_window(), "us"),
        Metric::new("rss_peak_mb", plain.rss_peak_mb, "MB"),
        Metric::new("ops_per_window", ops / all_windows, "ops"),
        Metric::new("energy_uj_per_window", energy / all_windows * 1e6, "uJ"),
    ];
    outcome.reported = vec![
        Metric::new("read_latency_p50_us", read.p50, "us"),
        Metric::new("read_latency_p99_us", read.p99, "us"),
        Metric::new("push_latency_p50_us", push.p50, "us"),
        Metric::new("push_latency_p99_us", push.p99, "us"),
        Metric::new(
            "busy_ratio",
            t.busy as f64 / t.attempts.max(1) as f64,
            "ratio",
        ),
    ];
    outcome.notes.push(format!(
        "{} windows, {} samples, {} reads; {}",
        plain.windows,
        t.accepted,
        read.n,
        plain.logs[0].at.describe(&plain.iv, latency.n)
    ));
    if !trace {
        return Ok(outcome);
    }

    let mut traced = pass(seed, seconds, true)?;
    let mut tt = totals(&traced.logs);
    let push = stats::tail("push latency", &mut tt.push_us)?;
    let read = stats::tail("read latency", &mut tt.read_us)?;
    let bytes: u64 = traced.logs.iter().map(|l| l.bytes_out).sum();
    let mut encode = stats::MeanNs::default();
    let mut decode = stats::MeanNs::default();
    for log in &traced.logs {
        encode.merge(log.encode);
        decode.merge(log.decode);
    }
    outcome.layers = vec![
        Metric::new("client.push_encode_ns", encode.mean(), "ns"),
        Metric::new("client.reply_decode_ns", decode.mean(), "ns"),
        Metric::new(
            "client.wire_bytes_per_sample",
            bytes as f64 / tt.accepted as f64,
            "B",
        ),
        Metric::new("client.push_latency_p50_us", push.p50, "us"),
        Metric::new("client.push_latency_p99_us", push.p99, "us"),
        Metric::new("client.read_latency_p50_us", read.p50, "us"),
        Metric::new("client.read_latency_p99_us", read.p99, "us"),
        Metric::new(
            "session.busy_ratio",
            tt.busy as f64 / tt.attempts.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "session.queue_depth_max",
            f64::from(traced.logs.iter().map(|l| l.depth_max).max().unwrap_or(0)),
            "samples",
        ),
        Metric::new(
            "trace.overhead_pct",
            (plain.samples_per_s() / traced.samples_per_s() - 1.0) * 100.0,
            "%",
        ),
    ];
    let scrape = traced.layers.take().expect("traced pass scrapes");
    outcome.layers.extend(scrape.metrics(traced.windows));
    Ok(outcome)
}
