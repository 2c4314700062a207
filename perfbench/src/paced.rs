//! `gateway_paced`: an open-loop replay at a fixed offered rate. One data
//! connection carries every stream's `PushRr` batches at their due
//! times; one monitor connection polls `ReadHealth` every
//! [`MONITOR_GAP`] and times when each window becomes visible. The latency path is
//! admission → session queue → pump → window visible.

use crate::cohort::{self, Schedule, Step};
use crate::gateway;
use crate::procfs::Readings;
use crate::stats::{self, Intervals, MeanNs};
use crate::wire::Conn;
use crate::{Metric, Outcome, Provenance};
use hrv_core::Tracer;
use hrv_service::reactor::sys::{Epoll, EpollEvent};
use hrv_service::{Reply, Request, ServiceError};
use std::collections::VecDeque;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Streams multiplexed on the data connection.
pub const STREAMS: usize = 64;
/// Samples per `PushRr` batch.
const BATCH: usize = 256;
/// Stream seconds replayed per wall second. With [`STREAMS`] cohort
/// members at about 1.16 beats/s this offers about 520,000 samples/s, a
/// quarter of the 2.0M samples/s `gateway_saturate` sustains on a 2-vCPU
/// host. Half of it (tried first) leaves no headroom for the monitor's
/// back-to-back polls when the hypervisor steals 15-20% of the CPUs: the
/// generator then falls 5-13 ms behind and the run is invalid. The rate
/// is a property of the workload and is never re-derived from a run.
pub const COMPRESSION: f64 = 7000.0;
/// A run whose generator sent its p99 batch later than this after the
/// due time (ten times the window latency median) measured its own
/// scheduling, not the gateway: it is invalid.
pub const GEN_LAG_LIMIT_US: f64 = 10_000.0;
/// Longest nap between reply checks while a push is in flight and the
/// next batch is due within 2 ms.
const POLL_STEP: Duration = Duration::from_micros(50);
/// Pause between monitor polls. Polling back to back kept one client
/// thread and one reactor thread busy all the time, so with the pump and
/// the generator five threads competed for two vCPUs and the generator
/// woke milliseconds late; the pause bounds the monitor to about a third
/// of a CPU at the cost of that much visibility resolution.
const MONITOR_GAP: Duration = Duration::from_micros(100);
/// How long after the last due time every window must have shown up.
const VISIBLE_WITHIN: Duration = Duration::from_secs(10);

/// What the data connection saw.
struct DataLog {
    /// How late each batch went out, by the interval it went out in.
    gen_lag_us: Vec<Vec<f64>>,
    push_latency_us: Vec<f64>,
    accepted: u64,
    gated: u64,
    depth_max: u32,
    /// Samples acknowledged in each interval.
    per_interval: Vec<u64>,
    bytes_out: u64,
    encode: MeanNs,
    decode: MeanNs,
}

/// Sends every batch at its due time and collects the replies. Between
/// sends it sleeps when nothing is in flight and waits on the socket
/// otherwise, so reply times are taken as they arrive.
fn send_schedule(conn: &mut Conn, schedule: &Schedule, iv: Intervals) -> Result<DataLog, String> {
    let t0 = iv.t0;
    conn.stream
        .set_nonblocking(true)
        .map_err(|e| e.to_string())?;
    let epoll = Epoll::new().map_err(|e| e.to_string())?;
    epoll
        .add(conn.stream.as_raw_fd(), 0, true, false, false)
        .map_err(|e| e.to_string())?;
    let mut events = vec![EpollEvent::default(); 4];
    let batches = &schedule.batches;
    let mut log = DataLog {
        gen_lag_us: vec![Vec::new(); iv.count],
        push_latency_us: Vec::with_capacity(batches.len()),
        accepted: 0,
        gated: 0,
        depth_max: 0,
        per_interval: vec![0; iv.count],
        bytes_out: 0,
        encode: MeanNs::default(),
        decode: MeanNs::default(),
    };
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0;
    loop {
        while let Some(reply) = conn.poll()? {
            let now = Instant::now();
            let (index, due) = in_flight
                .pop_front()
                .ok_or("gateway_paced: reply with nothing in flight")?;
            let batch = &batches[index];
            match reply {
                Reply::Pushed(pushed) if pushed.stream == batch.stream as u64 => {
                    log.push_latency_us.push((now - due).as_secs_f64() * 1e6);
                    log.accepted += u64::from(pushed.accepted);
                    log.gated += u64::from(pushed.gated);
                    log.depth_max = log.depth_max.max(pushed.queue_depth);
                    if let Some(k) = iv.index(now) {
                        log.per_interval[k] += u64::from(pushed.accepted);
                    }
                }
                Reply::Error(ServiceError::Busy { .. }) => {
                    return Err(format!(
                        "gateway_paced: stream {} refused Busy — the fixed offered rate \
                         exceeds this host's capacity",
                        batch.stream
                    ))
                }
                other => return Err(format!("gateway_paced: push reply {other:?}")),
            }
        }
        let now = Instant::now();
        let Some(batch) = batches.get(next) else {
            if in_flight.is_empty() {
                break;
            }
            epoll.wait(&mut events, 100).map_err(|e| e.to_string())?;
            continue;
        };
        let due = t0 + Duration::from_nanos(batch.due_ns);
        if due <= now {
            if let Some(k) = iv.index(now) {
                log.gen_lag_us[k].push((now - due).as_secs_f64() * 1e6);
            }
            conn.send_push(
                batch.stream as u64,
                &schedule.streams[batch.stream].slice(batch.range.clone()),
            )?;
            in_flight.push_back((next, due));
            next += 1;
            continue;
        }
        let wait = due - now;
        if in_flight.is_empty() {
            std::thread::sleep(wait);
        } else if wait >= Duration::from_millis(2) {
            // epoll's millisecond timeout, rounded down so the wake-up
            // never overshoots the due time.
            let ms = (wait.as_millis() - 1) as i32;
            epoll.wait(&mut events, ms).map_err(|e| e.to_string())?;
        } else {
            // Nap in short steps: spinning here would take a core from
            // the gateway on a small host.
            std::thread::sleep(wait.min(POLL_STEP));
        }
    }
    log.bytes_out = conn.bytes_out;
    log.encode = conn.encode;
    log.decode = conn.decode;
    Ok(log)
}

/// What the monitor connection saw.
struct MonitorLog {
    /// Window latencies by the interval they became visible in.
    latencies_ms: Vec<Vec<f64>>,
    poll_us: Vec<f64>,
    /// Windows that became visible in each interval.
    per_interval: Vec<u64>,
    /// Gateway CPU and machine steal at every interval boundary.
    at: Readings,
}

/// Polls `ReadHealth` through the timed phase until every
/// expected window is visible, reading the gateway's CPU time at the
/// first poll after every interval boundary. `due_of[s][k]` is the due
/// time (ns after `t0`) of the batch that completes stream `s`'s window
/// `k + 1`.
fn watch(
    conn: &mut Conn,
    due_of: &[Vec<u64>],
    iv: Intervals,
    gateway_pid: u32,
    tracer: &Tracer,
) -> Result<MonitorLog, String> {
    let t0 = iv.t0;
    let give_up = iv.end() + VISIBLE_WITHIN;
    let expected: usize = due_of.iter().map(Vec::len).sum();
    let mut seen = vec![0usize; due_of.len()];
    let mut total = 0usize;
    let mut log = MonitorLog {
        latencies_ms: vec![Vec::new(); iv.count],
        poll_us: Vec::new(),
        per_interval: vec![0; iv.count],
        at: Readings::default(),
    };
    if let Some(wait) = t0.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    while total < expected || log.at.len() <= iv.count {
        while log.at.len() <= iv.count && Instant::now() >= iv.boundary(log.at.len()) {
            log.at.take(gateway_pid)?;
        }
        let sent = Instant::now();
        let reply = {
            let _span = tracer.span("client.monitor_poll");
            conn.call(&Request::ReadHealth)?
        };
        let now = Instant::now();
        log.poll_us.push((now - sent).as_secs_f64() * 1e6);
        let Reply::Health(health) = reply else {
            return Err(format!("gateway_paced: health reply {reply:?}"));
        };
        for stream in &health.streams {
            let s = stream.id as usize;
            let dues = due_of
                .get(s)
                .ok_or_else(|| format!("gateway_paced: unknown stream {s} in health"))?;
            let windows = stream.windows as usize;
            if windows > dues.len() {
                return Err(format!(
                    "gateway_paced: stream {s} shows {windows} windows, the schedule \
                     completes {}",
                    dues.len()
                ));
            }
            for &due_ns in &dues[seen[s].min(windows)..windows] {
                let due = t0 + Duration::from_nanos(due_ns);
                let latency = now.checked_duration_since(due).ok_or_else(|| {
                    format!("gateway_paced: stream {s} window visible before its batch was due")
                })?;
                if let Some(k) = iv.index(now) {
                    log.latencies_ms[k].push(latency.as_secs_f64() * 1e3);
                    log.per_interval[k] += 1;
                }
            }
            if windows > seen[s] {
                total += windows - seen[s];
                seen[s] = windows;
            }
        }
        std::thread::sleep(MONITOR_GAP);
        if now > give_up {
            return Err(format!(
                "gateway_paced: {total} of {expected} windows visible {} s after the \
                 last due time",
                VISIBLE_WITHIN.as_secs()
            ));
        }
    }
    Ok(log)
}

/// One untraced or traced pass.
struct Pass {
    setup_s: f64,
    data: DataLog,
    monitor: MonitorLog,
    iv: Intervals,
    windows: u64,
    rss_peak_mb: f64,
    drained: Vec<hrv_stream::StreamReport>,
    layers: Option<gateway::Scrape>,
}

impl Pass {
    fn quiet(&self) -> Vec<usize> {
        self.iv.quiet(&self.monitor.at.steal)
    }

    fn windows_per_s(&self) -> f64 {
        let step = self.iv.step.as_secs_f64();
        stats::median_over(&self.quiet(), |k| {
            self.monitor.per_interval[k] as f64 / step
        })
    }

    fn samples_per_s(&self) -> f64 {
        let step = self.iv.step.as_secs_f64();
        stats::median_over(&self.quiet(), |k| self.data.per_interval[k] as f64 / step)
    }

    fn cpu_us_per_window(&self) -> f64 {
        let at = &self.monitor.at;
        stats::median_over(&self.quiet(), |k| {
            at.cpu_in(k) / self.monitor.per_interval[k] as f64 * 1e6
        })
    }
}

fn pass(seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let tracer = if traced {
        Tracer::monotonic()
    } else {
        Tracer::disabled()
    };
    let trace_out = traced.then(|| crate::trace_path("gateway_paced", seed, "gateway"));
    let mut schedule = None;
    let (setup_s, mut setup) = gateway::set_up(STREAMS, 2, trace_out.as_deref(), &tracer, || {
        schedule = Some(Schedule::paced(seed, STREAMS, BATCH, COMPRESSION, seconds));
    })?;
    let schedule = schedule.expect("set-up built the schedule");

    // Reference run (not set-up): expected windows per batch and the
    // reports the drain must reproduce.
    let histories: Vec<Vec<Step>> = (0..STREAMS)
        .map(|id| {
            schedule
                .batches
                .iter()
                .filter(|b| b.stream == id)
                .map(|b| Step::Push(b.range.clone()))
                .collect()
        })
        .collect();
    let (windows_after, reference) = cohort::replay(&schedule.streams, &histories)?;
    let due_of: Vec<Vec<u64>> = (0..STREAMS)
        .map(|id| {
            let mut dues = Vec::new();
            let mut before = 0;
            for (b, &after) in schedule
                .batches
                .iter()
                .filter(|b| b.stream == id)
                .zip(&windows_after[id])
            {
                dues.extend(std::iter::repeat_n(b.due_ns, (after - before) as usize));
                before = after;
            }
            dues
        })
        .collect();
    let windows: u64 = due_of.iter().map(|d| d.len() as u64).sum();

    let [data_conn, monitor_conn] = &mut setup.conns[..] else {
        unreachable!("set_up opened two connections")
    };
    let start = traced.then(|| monitor_conn.metrics()).transpose()?;
    let pid = setup.child.pid;
    let iv = Intervals::new(Instant::now() + Duration::from_millis(20), seconds);
    let (data, monitor) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| send_schedule(data_conn, &schedule, iv));
        let monitor = watch(monitor_conn, &due_of, iv, pid, &tracer);
        let data = sender.join().expect("sender thread");
        (data, monitor)
    });
    let (data, monitor) = (data?, monitor?);
    let rss_peak_mb = crate::procfs::peak_rss_mb(setup.child.pid)?;
    let layers = match start {
        Some(start) => Some(gateway::Scrape::between(&start, &monitor_conn.metrics()?)),
        None => None,
    };
    let drained = gateway::tear_down(setup, 1)?;
    cohort::check_drain(&drained, &reference)?;
    let sent: u64 = schedule.batches.iter().map(|b| b.range.len() as u64).sum();
    if data.accepted + data.gated != sent {
        return Err(format!(
            "gateway_paced: {sent} samples sent, {} acknowledged",
            data.accepted + data.gated
        ));
    }
    if traced {
        crate::write_trace("gateway_paced", seed, "client", &tracer.chrome_trace())?;
    }
    Ok(Pass {
        setup_s,
        data,
        monitor,
        iv,
        windows,
        rss_peak_mb,
        drained,
        layers,
    })
}

/// The pass's generator lag (its p99 is the lowest over the measured
/// intervals), rejecting the run when that exceeds [`GEN_LAG_LIMIT_US`].
fn gen_lag(pass: &mut Pass) -> Result<stats::Tail, String> {
    let quiet = pass.quiet();
    let lag = stats::interval_tail("generator lag", &mut pass.data.gen_lag_us, &quiet)?;
    if lag.p99 > GEN_LAG_LIMIT_US {
        return Err(format!(
            "gateway_paced: invalid run, generator lag p99 {:.0} us exceeds {GEN_LAG_LIMIT_US} us",
            lag.p99
        ));
    }
    Ok(lag)
}

pub fn run(seed: u64, seconds: f64, trace: bool, prov: &mut Provenance) -> Result<Outcome, String> {
    prov.streams = STREAMS;
    prov.workers = 1;
    prov.offered = format!(
        "open loop: {STREAMS} streams x {COMPRESSION}x real time in {BATCH}-sample batches"
    );
    let mut plain = pass(seed, seconds, false)?;
    let lag = gen_lag(&mut plain)?;
    let quiet = plain.quiet();
    let latency = stats::interval_tail("window latency", &mut plain.monitor.latencies_ms, &quiet)?;
    let push = stats::tail("push latency", &mut plain.data.push_latency_us)?;
    let mut outcome = Outcome {
        attempted: plain.data.push_latency_us.len() as u64,
        ..Outcome::default()
    };
    let (ops, energy, all_windows) = gateway::model_totals(&plain.drained);
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
        Metric::new("push_latency_p50_us", push.p50, "us"),
        Metric::new("push_latency_p99_us", push.p99, "us"),
        Metric::new("busy_ratio", 0.0, "ratio"),
        Metric::new("client.gen_lag_p99_us", lag.p99, "us"),
    ];
    outcome.notes.push(format!(
        "{} windows, {} pushes; {}",
        plain.windows,
        push.n,
        plain.monitor.at.describe(&plain.iv, latency.n)
    ));
    if !trace {
        return Ok(outcome);
    }

    let mut traced = pass(seed, seconds, true)?;
    let lag = gen_lag(&mut traced)?;
    let quiet = traced.quiet();
    let latency = stats::interval_tail("window latency", &mut traced.monitor.latencies_ms, &quiet)?;
    let push = stats::tail("push latency", &mut traced.data.push_latency_us)?;
    let mut poll = traced.monitor.poll_us.clone();
    poll.sort_by(f64::total_cmp);
    let poll_p50 = stats::nearest_rank(&poll, 50.0).unwrap_or(0.0);
    let scrape = traced.layers.as_ref().expect("traced pass scrapes");
    outcome.layers = vec![
        Metric::new("client.gen_lag_p99_us", lag.p99, "us"),
        Metric::new("client.monitor_poll_us_p50", poll_p50, "us"),
        Metric::new("client.push_encode_ns", traced.data.encode.mean(), "ns"),
        Metric::new("client.reply_decode_ns", traced.data.decode.mean(), "ns"),
        Metric::new(
            "client.wire_bytes_per_sample",
            traced.data.bytes_out as f64 / traced.data.accepted as f64,
            "B",
        ),
        Metric::new("client.push_latency_p50_us", push.p50, "us"),
        Metric::new("client.push_latency_p99_us", push.p99, "us"),
        Metric::new(
            "session.queue_depth_max",
            f64::from(traced.data.depth_max),
            "samples",
        ),
        Metric::new(
            "ledger.unattributed_us",
            latency.p50 * 1e3 - scrape.blocking_path_us() - poll_p50 / 2.0,
            "us",
        ),
        Metric::new(
            "trace.overhead_pct",
            (traced.cpu_us_per_window() / plain.cpu_us_per_window() - 1.0) * 100.0,
            "%",
        ),
    ];
    outcome.layers.extend(scrape.metrics(traced.windows));
    Ok(outcome)
}
