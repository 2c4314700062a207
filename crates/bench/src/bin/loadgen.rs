//! Service load generator: replays a synthetic cohort against an
//! in-process loopback gateway at a target connection count, records
//! throughput, and **asserts** that the drained per-stream reports are
//! id-ordered and bit-identical to an equivalent offline
//! `FleetScheduler` run — the wire boundary must not change a single
//! operation count.
//!
//! With `HRV_LOADGEN_BUDGET_J` set, every stream is budget-governed over
//! the wire (`SetBudget` before the first sample) and the offline
//! reference carries the same budget — the reports must *still* be
//! bit-identical, and the run additionally asserts the
//! detection-preserved invariant against an ungoverned reference.
//!
//! Run with: `cargo run --release -p hrv-bench --bin loadgen`
//! Environment knobs (for CI smoke runs):
//!   HRV_LOADGEN_STREAMS  concurrent client connections (default 16)
//!   HRV_LOADGEN_SECONDS  seconds of RR data per stream (default 600)
//!   HRV_LOADGEN_BATCH    samples per PushRr frame      (default 64)
//!   HRV_LOADGEN_QUEUE    per-push sample bound         (default 1024)
//!   HRV_LOADGEN_WORKERS  fleet worker shards           (default 2)
//!   HRV_LOADGEN_BUDGET_J joules per 4-window interval  (default 0 = ungoverned)
//!   HRV_LOADGEN_TRACE    path: enable span tracing and dump Chrome
//!                        trace-event JSON there (load it at
//!                        `chrome://tracing` or `https://ui.perfetto.dev`)
//!   HRV_LOADGEN_BENCH    path to BENCH_stream.json: splice the measured
//!                        per-stage p50/p99 rows into its
//!                        "latency_stages_us" key
//!
//! **High-connection mode** (`HRV_LOADGEN_HIGHCONN=1`): instead of one
//! OS thread per connection, the load generator becomes an event-driven
//! epoll client pool (the same readiness machinery the gateway's reactor
//! uses, via `hrv_service::reactor::sys`), and the gateway runs in a
//! **child process** — both because "10k sessions on one gateway
//! process" is exactly the claim under test, and because parent + child
//! each stay inside the container's 20k-fd rlimit. Extra knobs:
//!   HRV_LOADGEN_HIGHCONN  1 = event-driven high-connection mode
//!                         (streams default 10000, seconds default 180
//!                         — 1.5x the 120 s spectral window, so every
//!                         session completes windows)
//!   HRV_LOADGEN_REACTORS  gateway reactor shards (default 2)
//! The drained reports must still be bit-identical to the offline
//! fleet; the run additionally records sessions/core, idle-free p99
//! frame-read latency and memory/session for BENCH_stream.json's
//! "service_gateway_highconn" key (via HRV_LOADGEN_BENCH).

use hrv_core::{validate_exposition, PsaConfig, Telemetry, Tracer};
use hrv_service::reactor::sys::{Epoll, EpollEvent};
use hrv_service::{
    write_frame, BusyBackoff, FramePoll, FrameReader, Gateway, GatewayConfig, Reply, Request,
    ServiceClient, ServiceError, SessionConfig, PROTOCOL_VERSION,
};
use hrv_stream::{cohort_member, FleetConfig, FleetScheduler, StreamBudget, StreamReport};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

const SEED: u64 = 2014;
const BUDGET_INTERVAL_WINDOWS: u64 = 4;

/// The pipeline-stage latency families the gateway records, in pipeline
/// order (see README "Observability" for the catalog).
const STAGE_FAMILIES: &[&str] = &[
    "hrv_service_conn_idle_seconds",
    "hrv_service_frame_read_seconds",
    "hrv_service_frame_decode_seconds",
    "hrv_service_pump_dispatch_seconds",
    "hrv_stream_window_compute_seconds",
    "hrv_stream_governor_decision_seconds",
    "hrv_service_report_encode_seconds",
];

/// One measured stage row: family, label set (may be empty), sample
/// count, p50/p99 in microseconds.
struct StageRow {
    family: &'static str,
    labels: String,
    count: u64,
    p50_us: f64,
    p99_us: f64,
}

/// Collects the recorded per-stage latency quantiles out of the
/// gateway's registry, label-split (window compute gets one row per
/// kernel/rail pair) and skipping series that recorded nothing.
fn stage_rows(telemetry: &Telemetry) -> Vec<StageRow> {
    let mut rows = Vec::new();
    for &family in STAGE_FAMILIES {
        for (labels, hist) in telemetry.histogram_series(family) {
            if hist.count() == 0 {
                continue;
            }
            rows.push(StageRow {
                family,
                labels,
                count: hist.count(),
                p50_us: hist.p50() * 1e6,
                p99_us: hist.p99() * 1e6,
            });
        }
    }
    rows
}

/// Splices `block` (a complete `  "key": …,\n` fragment) into `path`
/// (BENCH_stream.json) as the top-level `key`, replacing a previous
/// run's block when one exists. Plain string surgery on the
/// 2-space-indented top-level layout — no JSON dependency in the
/// workspace.
fn splice_top_level_key(path: &str, key: &str, block: &str) {
    let original = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("loadgen: cannot read {path}: {err}");
            return;
        }
    };
    // Drop a previous block: from its key line up to (exclusive) the
    // next top-level key line.
    let marker = format!("  \"{key}\":");
    let without_old = match original.find(&marker) {
        Some(start) => {
            let rest = &original[start..];
            let end = rest
                .match_indices("\n  \"")
                .map(|(i, _)| start + i + 1)
                .next()
                .unwrap_or(original.len());
            format!("{}{}", &original[..start], &original[end..])
        }
        None => original,
    };
    // Insert ahead of the trailing "notes" key (always last in this
    // file), or before the closing brace as a fallback.
    let anchor = without_old
        .find("  \"notes\":")
        .or_else(|| without_old.rfind('}'))
        .unwrap_or(without_old.len());
    let updated = format!(
        "{}{}{}",
        &without_old[..anchor],
        block,
        &without_old[anchor..]
    );
    match std::fs::write(path, &updated) {
        Ok(()) => println!("loadgen: wrote \"{key}\" to {path}"),
        Err(err) => eprintln!("loadgen: cannot write {path}: {err}"),
    }
}

/// Renders and splices the stage rows as the `latency_stages_us` key.
fn splice_bench_json(path: &str, rows: &[StageRow]) {
    let mut block = String::from("  \"latency_stages_us\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        block.push_str(&format!(
            "    {{ \"stage\": \"{}\", \"labels\": \"{}\", \"samples\": {}, \
             \"p50\": {:.2}, \"p99\": {:.2} }}{sep}\n",
            row.family,
            row.labels.replace('\\', "\\\\").replace('"', "\\\""),
            row.count,
            row.p50_us,
            row.p99_us,
        ));
    }
    block.push_str("  ],\n");
    splice_top_level_key(path, "latency_stages_us", &block);
}

fn main() {
    // Child-process role check first: the child inherits the parent's
    // environment (including HRV_LOADGEN_HIGHCONN=1), so this must win.
    if std::env::var("HRV_LOADGEN_CHILD_GATEWAY").is_ok() {
        return child_gateway_main();
    }
    if env_usize("HRV_LOADGEN_HIGHCONN", 0) == 1 {
        return high_conn_main();
    }
    thread_per_conn_main()
}

/// The original thread-per-connection replay (16 blocking clients by
/// default): still the reference mode for latency-stage rows, budget
/// smokes and trace capture.
fn thread_per_conn_main() {
    let streams = env_usize("HRV_LOADGEN_STREAMS", 16);
    let seconds = env_usize("HRV_LOADGEN_SECONDS", 600) as f64;
    let batch = env_usize("HRV_LOADGEN_BATCH", 64).max(1);
    let queue = env_usize("HRV_LOADGEN_QUEUE", 1024).max(batch);
    let workers = env_usize("HRV_LOADGEN_WORKERS", 2).max(1);
    let budget_j = env_f64("HRV_LOADGEN_BUDGET_J", 0.0);
    let budget =
        (budget_j > 0.0).then(|| StreamBudget::per_interval(budget_j, BUDGET_INTERVAL_WINDOWS));

    // ---- offline reference: the same cohort through an offline fleet ----
    let offline_fleet = || {
        FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams,
                duration: seconds,
                seed: SEED,
                slice: 60.0,
                workers,
            },
        )
        .expect("valid offline fleet")
    };
    let mut offline = offline_fleet();
    if let Some(budget) = budget {
        offline = offline
            .with_energy_budget(None, budget)
            .expect("valid budget");
    }
    let offline_started = Instant::now();
    let offline_report = offline.run();
    let offline_wall = offline_started.elapsed().as_secs_f64();
    let offline_reports = offline.stream_reports();

    // Detection-preserved invariant of the budget smoke: the governed
    // fleet must flag exactly the windows an ungoverned one flags, while
    // spending no more energy per window.
    if budget.is_some() {
        let ungoverned = offline_fleet().run();
        assert_eq!(
            offline_report.windows, ungoverned.windows,
            "governed fleet must analyse every window"
        );
        assert_eq!(
            offline_report.arrhythmia_windows, ungoverned.arrhythmia_windows,
            "budget governance must preserve LF/HF detection"
        );
        assert!(
            offline_report.charged_energy_per_window()
                <= ungoverned.charged_energy_per_window() + 1e-15,
            "budget governance must not raise energy per window"
        );
        println!(
            "budget smoke: {budget_j} J / {BUDGET_INTERVAL_WINDOWS} windows -> \
             {:.6e} J/window (ungoverned {:.6e}), detection preserved",
            offline_report.charged_energy_per_window(),
            ungoverned.charged_energy_per_window()
        );
    }

    // ---- the gateway, on an ephemeral loopback port ---------------------
    let trace_path = std::env::var("HRV_LOADGEN_TRACE").ok();
    let tracer = match trace_path {
        Some(_) => Tracer::monotonic(),
        None => Tracer::disabled(),
    };
    let handle = Gateway::start(GatewayConfig {
        workers,
        session: SessionConfig {
            max_sessions: streams.max(1),
            queue_capacity: queue,
        },
        tracer: tracer.clone(),
        ..GatewayConfig::default()
    })
    .expect("gateway start");
    let addr = handle.local_addr();
    println!(
        "loadgen: {streams} connections x {seconds:.0} s ({batch}-sample frames, \
         {queue}-sample push bound, {workers} fleet workers) -> {addr}"
    );

    // ---- one client thread per stream -----------------------------------
    let replay_started = Instant::now();
    let mut samples_sent = 0u64;
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..streams)
            .map(|id| {
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("connect");
                    client.open_stream(id as u64).expect("open stream");
                    if let Some(budget) = budget {
                        client.set_budget(id as u64, budget).expect("set budget");
                    }
                    let record = cohort_member(SEED, id, seconds);
                    let samples: Vec<(f64, f64)> = record
                        .rr
                        .times()
                        .iter()
                        .copied()
                        .zip(record.rr.intervals().iter().copied())
                        .collect();
                    // Batches never exceed the per-push bound, so every
                    // push is answered `Pushed` with its windows computed.
                    for chunk in samples.chunks(batch) {
                        if let Err(err) = client.push_rr(id as u64, chunk) {
                            panic!("stream {id}: {err}");
                        }
                    }
                    samples.len() as u64
                })
            })
            .collect();
        for thread in threads {
            samples_sent += thread.join().expect("client thread");
        }
    });
    let replay_wall = replay_started.elapsed().as_secs_f64();

    // ---- drain and compare ----------------------------------------------
    let telemetry = handle.telemetry();
    let mut control = ServiceClient::connect(addr).expect("control connection");
    // Exercise the wire-level metrics path too (same registry the final
    // exposition below renders).
    let live_metrics = control.metrics().expect("metrics");
    assert!(live_metrics.contains("hrv_service_samples_admitted_total"));
    // The constant build-info gauge travels over the wire with the
    // negotiated protocol version in its labels.
    assert!(
        live_metrics.contains("hrv_build_info{"),
        "build-info gauge missing from wire exposition"
    );
    assert!(
        live_metrics.contains(&format!(
            "protocol_version=\"{}\"",
            hrv_service::PROTOCOL_VERSION
        )),
        "build-info gauge must carry the protocol version"
    );
    // The full wire exposition — including every histogram family — must
    // parse as conformant Prometheus text format.
    validate_exposition(&live_metrics).expect("wire exposition conformant");
    for family in [
        "# TYPE hrv_service_frame_decode_seconds histogram",
        "# TYPE hrv_service_pump_dispatch_seconds histogram",
        "# TYPE hrv_stream_window_compute_seconds histogram",
    ] {
        assert!(live_metrics.contains(family), "missing {family:?}");
    }
    let drain_started = Instant::now();
    let reports = control.shutdown().expect("shutdown");
    let drain_wall = drain_started.elapsed().as_secs_f64();
    handle.wait().expect("gateway join");

    let ids: Vec<usize> = reports.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..streams).collect::<Vec<_>>(), "reports id-ordered");
    assert_eq!(
        reports, offline_reports,
        "gateway-drained per-stream reports must be bit-identical to the offline fleet"
    );
    let windows: u64 = reports.iter().map(|r| r.windows).sum();

    println!("\n== loopback replay vs offline fleet ==\n");
    println!(
        "{:<32} {:>10} {:>12} {:>14}",
        "path", "windows", "wall [s]", "samples/s"
    );
    println!(
        "{:<32} {:>10} {:>12.3} {:>14}",
        "offline FleetScheduler", offline_report.windows, offline_wall, "-"
    );
    println!(
        "{:<32} {:>10} {:>12.3} {:>14.0}",
        "gateway (framed TCP loopback)",
        windows,
        replay_wall + drain_wall,
        samples_sent as f64 / replay_wall
    );
    println!(
        "\n{samples_sent} samples over {streams} connections; drain {drain_wall:.3} s; \
         per-stream reports bit-identical: yes"
    );

    // ---- per-stage latency breakdown (the new histograms) ---------------
    let rows = stage_rows(&telemetry);
    println!("\n== per-stage latency (histogram estimates) ==\n");
    println!(
        "{:<42} {:<28} {:>9} {:>11} {:>11}",
        "stage", "labels", "samples", "p50 [us]", "p99 [us]"
    );
    for row in &rows {
        println!(
            "{:<42} {:<28} {:>9} {:>11.2} {:>11.2}",
            row.family, row.labels, row.count, row.p50_us, row.p99_us
        );
    }
    if let Ok(path) = std::env::var("HRV_LOADGEN_BENCH") {
        splice_bench_json(&path, &rows);
    }
    if let Some(path) = trace_path {
        let chrome = tracer.chrome_trace();
        match std::fs::write(&path, &chrome) {
            Ok(()) => println!(
                "loadgen: wrote {} spans of Chrome trace JSON to {path}",
                tracer.spans().len()
            ),
            Err(err) => eprintln!("loadgen: cannot write {path}: {err}"),
        }
    }

    println!("\n== final gateway telemetry (shared Prometheus exposition) ==\n");
    print!(
        "{}",
        telemetry
            .render()
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n")
    );
    println!();
}

// ---- high-connection mode -------------------------------------------------

/// Child-process role: run one gateway, print its address on stdout and
/// serve until the parent's control connection sends `Shutdown`.
fn child_gateway_main() {
    let streams = env_usize("HRV_LOADGEN_STREAMS", 10_000);
    let batch = env_usize("HRV_LOADGEN_BATCH", 64).max(1);
    let queue = env_usize("HRV_LOADGEN_QUEUE", 1024).max(batch);
    let workers = env_usize("HRV_LOADGEN_WORKERS", 2).max(1);
    let reactors = env_usize("HRV_LOADGEN_REACTORS", 2).max(1);
    let handle = Gateway::start(GatewayConfig {
        workers,
        session: SessionConfig {
            max_sessions: streams.max(1),
            queue_capacity: queue,
        },
        reactors,
        max_connections: streams + 64,
        ..GatewayConfig::default()
    })
    .expect("child gateway start");
    println!("ADDR {}", handle.local_addr());
    std::io::stdout().flush().expect("flush addr line");
    handle.wait().expect("child gateway join");
}

/// Reads a `kB`-valued row (e.g. `VmRSS:`) out of `/proc/<pid>/status`.
fn proc_status_kb(pid: u32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Where a high-connection client is in its lockstep request cycle.
#[derive(Clone, Copy, PartialEq)]
enum Stage {
    AwaitHelloAck,
    AwaitOpened,
    Idle,
    AwaitPushed,
    Done,
}

/// One nonblocking client connection in the epoll pool. Lockstep
/// protocol: exactly one request in flight; `last_frame` keeps its wire
/// bytes so a `Busy` reply can replay it after a jittered backoff.
struct ClientConn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    out_pos: usize,
    want_write: bool,
    stage: Stage,
    samples: Vec<(f64, f64)>,
    next_chunk: usize,
    last_frame: Vec<u8>,
    backoff: BusyBackoff,
    retry_at: Option<Instant>,
    sent: u64,
    retries: u64,
}

impl ClientConn {
    /// Drains `out` into the socket; keeps epoll write interest exactly
    /// while bytes remain queued (level-triggered registration).
    fn flush_out(&mut self, epoll: &Epoll, token: u64) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => panic!("conn {token}: gateway closed mid-write"),
                Ok(n) => self.out_pos += n,
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(err) => panic!("conn {token}: write: {err}"),
            }
        }
        if self.out_pos >= self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        let need = !self.out.is_empty();
        if need != self.want_write {
            self.want_write = need;
            epoll
                .modify(self.stream.as_raw_fd(), token, true, need, false)
                .expect("epoll modify");
        }
    }

    /// Queues `frame` (remembering it for Busy replays) and flushes.
    fn send_frame(&mut self, epoll: &Epoll, token: u64, frame: Vec<u8>) {
        self.out.extend_from_slice(&frame);
        self.last_frame = frame;
        self.flush_out(epoll, token);
    }

    /// The next PushRr wire frame, or `None` when the replay is done.
    fn next_push_frame(&mut self, id: u64, batch: usize) -> Option<Vec<u8>> {
        let start = self.next_chunk * batch;
        if start >= self.samples.len() {
            return None;
        }
        let chunk = &self.samples[start..(start + batch).min(self.samples.len())];
        self.next_chunk += 1;
        self.sent += chunk.len() as u64;
        let mut wire = Vec::with_capacity(chunk.len() * 16 + 32);
        write_frame(&mut wire, &hrv_service::proto::encode_push_rr(id, chunk)).expect("encode");
        Some(wire)
    }
}

/// Advances `conn`'s state machine on one decoded reply. Returns `true`
/// when the conn reached this phase's goal stage (`Idle` in the open
/// phase, `Done` in the push phase).
fn on_reply(conn: &mut ClientConn, epoll: &Epoll, token: u64, reply: Reply, batch: usize) -> bool {
    match (conn.stage, reply) {
        (Stage::AwaitHelloAck, Reply::HelloAck { .. }) => {
            conn.stage = Stage::AwaitOpened;
            let mut wire = Vec::new();
            write_frame(&mut wire, &Request::OpenStream { stream: token }.encode())
                .expect("encode");
            conn.send_frame(epoll, token, wire);
            false
        }
        (Stage::AwaitOpened, Reply::StreamOpened { .. }) => {
            conn.stage = Stage::Idle;
            true
        }
        (Stage::AwaitPushed, Reply::Pushed(_)) => {
            conn.backoff.reset();
            match conn.next_push_frame(token, batch) {
                Some(wire) => {
                    conn.send_frame(epoll, token, wire);
                    false
                }
                None => {
                    conn.stage = Stage::Done;
                    true
                }
            }
        }
        (_, Reply::Error(ServiceError::Busy { .. })) => {
            conn.retries += 1;
            conn.retry_at = Some(Instant::now() + conn.backoff.next_delay());
            false
        }
        (_, other) => panic!("conn {token}: unexpected reply {other:?}"),
    }
}

/// Runs the epoll loop until `goal` connections have signalled
/// completion (via `on_reply` returning `true`). Also services Busy
/// retry deadlines.
fn pump_until(conns: &mut [ClientConn], epoll: &Epoll, goal: usize, batch: usize) {
    let mut reached = 0usize;
    let mut events = vec![EpollEvent::default(); 1024];
    while reached < goal {
        // Replay any due Busy retries; find the earliest pending one.
        let now = Instant::now();
        let mut next_retry: Option<Instant> = None;
        for (token, conn) in conns.iter_mut().enumerate() {
            let Some(at) = conn.retry_at else {
                continue;
            };
            if at <= now {
                conn.retry_at = None;
                let frame = conn.last_frame.clone();
                conn.out.extend_from_slice(&frame);
                conn.flush_out(epoll, token as u64);
            } else {
                next_retry = Some(next_retry.map_or(at, |d| d.min(at)));
            }
        }
        let timeout_ms = match next_retry {
            Some(at) => at.saturating_duration_since(now).as_millis().clamp(1, 1000) as i32,
            None => 1000,
        };
        let n = epoll.wait(&mut events, timeout_ms).expect("epoll wait");
        for ev in &events[..n] {
            let token = ev.token();
            let conn = &mut conns[token as usize];
            if ev.writable() {
                conn.flush_out(epoll, token);
            }
            if ev.readable() || ev.hangup() {
                loop {
                    match conn.reader.poll(&mut conn.stream) {
                        Ok(FramePoll::Frame(body)) => {
                            let reply = Reply::decode(&body).expect("reply decode");
                            if on_reply(conn, epoll, token, reply, batch) {
                                reached += 1;
                            }
                        }
                        Ok(FramePoll::Pending) => break,
                        Ok(FramePoll::Closed) => panic!("conn {token}: gateway closed"),
                        Err(err) => panic!("conn {token}: {err}"),
                    }
                }
            }
        }
    }
}

/// Event-driven high-connection replay: a 10k-session epoll client pool
/// against a child-process gateway, asserting drained reports stay
/// bit-identical to the offline fleet and recording sessions/core,
/// idle-free frame-read p99 and memory/session.
fn high_conn_main() {
    let streams = env_usize("HRV_LOADGEN_STREAMS", 10_000);
    let seconds = env_usize("HRV_LOADGEN_SECONDS", 180) as f64;
    let batch = env_usize("HRV_LOADGEN_BATCH", 64).max(1);
    let queue = env_usize("HRV_LOADGEN_QUEUE", 1024).max(batch);
    let workers = env_usize("HRV_LOADGEN_WORKERS", 2).max(1);
    let reactors = env_usize("HRV_LOADGEN_REACTORS", 2).max(1);

    // ---- offline reference ---------------------------------------------
    let mut offline = FleetScheduler::new(
        PsaConfig::conventional(),
        FleetConfig {
            streams,
            duration: seconds,
            seed: SEED,
            slice: 60.0,
            workers,
        },
    )
    .expect("valid offline fleet");
    let offline_started = Instant::now();
    let offline_report = offline.run();
    let offline_wall = offline_started.elapsed().as_secs_f64();
    let offline_reports: Vec<StreamReport> = offline.stream_reports();

    // ---- child-process gateway -----------------------------------------
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .env("HRV_LOADGEN_CHILD_GATEWAY", "1")
        .env("HRV_LOADGEN_STREAMS", streams.to_string())
        .env("HRV_LOADGEN_BATCH", batch.to_string())
        .env("HRV_LOADGEN_QUEUE", queue.to_string())
        .env("HRV_LOADGEN_WORKERS", workers.to_string())
        .env("HRV_LOADGEN_REACTORS", reactors.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn child gateway");
    let mut child_out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    child_out.read_line(&mut line).expect("read child addr");
    let addr = line
        .trim()
        .strip_prefix("ADDR ")
        .expect("child printed ADDR line")
        .to_string();
    let baseline_rss_kb = proc_status_kb(child.id(), "VmRSS:").expect("baseline VmRSS");
    println!(
        "loadgen[highconn]: {streams} sessions x {seconds:.0} s ({batch}-sample frames, \
         {reactors} reactor shards, {workers} fleet workers) -> {addr} (pid {})",
        child.id()
    );

    // ---- phase 1: connect + handshake + open every session -------------
    let epoll = Epoll::new().expect("epoll");
    let open_started = Instant::now();
    let mut conns: Vec<ClientConn> = Vec::with_capacity(streams);
    for id in 0..streams {
        let stream = {
            let mut attempt = 0;
            loop {
                match TcpStream::connect(&addr) {
                    Ok(s) => break s,
                    Err(err) if attempt < 50 => {
                        attempt += 1;
                        std::thread::sleep(Duration::from_millis(20));
                        let _ = err;
                    }
                    Err(err) => panic!("conn {id}: connect: {err}"),
                }
            }
        };
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        epoll
            .add(stream.as_raw_fd(), id as u64, true, false, false)
            .expect("epoll add");
        let record = cohort_member(SEED, id, seconds);
        let samples: Vec<(f64, f64)> = record
            .rr
            .times()
            .iter()
            .copied()
            .zip(record.rr.intervals().iter().copied())
            .collect();
        let mut conn = ClientConn {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            out_pos: 0,
            want_write: false,
            stage: Stage::AwaitHelloAck,
            samples,
            next_chunk: 0,
            last_frame: Vec::new(),
            backoff: BusyBackoff::new(
                Duration::from_micros(200),
                Duration::from_millis(50),
                SEED ^ id as u64,
            ),
            retry_at: None,
            sent: 0,
            retries: 0,
        };
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Request::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("encode");
        conn.send_frame(&epoll, id as u64, wire);
        conns.push(conn);
        if (id + 1) % 2000 == 0 {
            println!("loadgen[highconn]: {} connections established", id + 1);
        }
    }
    pump_until(&mut conns, &epoll, streams, batch);
    let open_wall = open_started.elapsed().as_secs_f64();
    let opened_rss_kb = proc_status_kb(child.id(), "VmRSS:").expect("opened VmRSS");
    let mem_per_session_kb = opened_rss_kb.saturating_sub(baseline_rss_kb) as f64 / streams as f64;
    println!(
        "loadgen[highconn]: all {streams} sessions open in {open_wall:.3} s; gateway RSS \
         {baseline_rss_kb} -> {opened_rss_kb} kB ({mem_per_session_kb:.2} kB/session)"
    );

    // ---- phase 2: replay the cohort ------------------------------------
    let replay_started = Instant::now();
    let mut active = 0usize;
    for (id, conn) in conns.iter_mut().enumerate() {
        match conn.next_push_frame(id as u64, batch) {
            Some(wire) => {
                conn.stage = Stage::AwaitPushed;
                conn.send_frame(&epoll, id as u64, wire);
                active += 1;
            }
            None => conn.stage = Stage::Done,
        }
    }
    pump_until(&mut conns, &epoll, active, batch);
    let replay_wall = replay_started.elapsed().as_secs_f64();
    let samples_sent: u64 = conns.iter().map(|c| c.sent).sum();
    let busy_retries: u64 = conns.iter().map(|c| c.retries).sum();

    // Peak/steady memory must be read BEFORE shutdown — the child exits
    // once the drain completes.
    let loaded_rss_kb = proc_status_kb(child.id(), "VmRSS:").expect("loaded VmRSS");
    let hwm_kb = proc_status_kb(child.id(), "VmHWM:").expect("VmHWM");

    // ---- control connection: telemetry, health, drain ------------------
    let mut control = ServiceClient::connect(&*addr).expect("control connection");
    let live_metrics = control.metrics().expect("metrics");
    validate_exposition(&live_metrics).expect("wire exposition conformant");
    let health = control.read_health().expect("health");
    let stage_p99_us = |family: &str| -> Option<(u64, f64)> {
        health
            .stages
            .iter()
            .find(|s| s.family == family)
            .map(|s| (s.count, s.p99_s * 1e6))
    };
    let (frame_read_count, frame_read_p99_us) =
        stage_p99_us("hrv_service_frame_read_seconds").expect("frame_read stage row");
    let (_, conn_idle_p99_us) =
        stage_p99_us("hrv_service_conn_idle_seconds").expect("conn_idle stage row");

    let drain_started = Instant::now();
    let reports = control.shutdown().expect("shutdown");
    let drain_wall = drain_started.elapsed().as_secs_f64();
    drop(conns); // parked sockets release after the drain epilogue answered
    let status = child.wait().expect("child wait");
    assert!(status.success(), "child gateway exited with {status}");

    let ids: Vec<usize> = reports.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..streams).collect::<Vec<_>>(), "reports id-ordered");
    assert_eq!(
        reports, offline_reports,
        "gateway-drained per-stream reports must be bit-identical to the offline fleet"
    );
    let windows: u64 = reports.iter().map(|r| r.windows).sum();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sessions_per_core = streams as f64 / cores as f64;

    println!("\n== high-connection replay vs offline fleet ==\n");
    println!(
        "{:<34} {:>10} {:>12} {:>14}",
        "path", "windows", "wall [s]", "samples/s"
    );
    println!(
        "{:<34} {:>10} {:>12.3} {:>14}",
        "offline FleetScheduler", offline_report.windows, offline_wall, "-"
    );
    println!(
        "{:<34} {:>10} {:>12.3} {:>14.0}",
        "gateway (epoll client pool)",
        windows,
        replay_wall + drain_wall,
        samples_sent as f64 / replay_wall
    );
    println!(
        "\n{samples_sent} samples over {streams} sessions ({sessions_per_core:.0} \
         sessions/core on {cores} cores); {busy_retries} Busy retries; open {open_wall:.3} s, \
         drain {drain_wall:.3} s; per-stream reports bit-identical: yes"
    );
    println!(
        "frame_read p99 {frame_read_p99_us:.2} us over {frame_read_count} reads (idle wait \
         excluded; conn_idle p99 {:.3} s); gateway RSS {loaded_rss_kb} kB loaded / \
         {hwm_kb} kB peak, {mem_per_session_kb:.2} kB/session at open",
        conn_idle_p99_us / 1e6
    );

    if let Ok(path) = std::env::var("HRV_LOADGEN_BENCH") {
        let block = format!(
            "  \"service_gateway_highconn\": {{\n\
             \x20   \"sessions\": {streams},\n\
             \x20   \"seconds_per_stream\": {seconds:.0},\n\
             \x20   \"reactor_shards\": {reactors},\n\
             \x20   \"cores\": {cores},\n\
             \x20   \"sessions_per_core\": {sessions_per_core:.0},\n\
             \x20   \"open_wall_s\": {open_wall:.3},\n\
             \x20   \"replay_wall_s\": {replay_wall:.3},\n\
             \x20   \"drain_wall_s\": {drain_wall:.3},\n\
             \x20   \"samples_per_s\": {:.0},\n\
             \x20   \"busy_retries\": {busy_retries},\n\
             \x20   \"frame_read_p99_us_idle_free\": {frame_read_p99_us:.2},\n\
             \x20   \"conn_idle_p99_s\": {:.3},\n\
             \x20   \"mem_per_session_kb\": {mem_per_session_kb:.2},\n\
             \x20   \"gateway_rss_peak_kb\": {hwm_kb},\n\
             \x20   \"bit_identical_reports\": true\n\
             \x20 }},\n",
            samples_sent as f64 / replay_wall,
            conn_idle_p99_us / 1e6,
        );
        splice_top_level_key(&path, "service_gateway_highconn", &block);
    }
}
