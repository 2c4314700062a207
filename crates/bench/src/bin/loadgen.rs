//! Service load generator: replays a synthetic cohort against a gateway
//! running in a child process, records throughput, memory and per-stage
//! latency, and **asserts** that the drained per-stream reports are
//! id-ordered and bit-identical to an equivalent offline
//! `FleetScheduler` run — the wire boundary must not change a single
//! operation count.
//!
//! The clients are one event-driven epoll pool in this process (the same
//! readiness machinery the gateway's reactor uses, via
//! `hrv_service::reactor::sys`): every session runs a lockstep
//! request/reply cycle with exactly one request in flight, so one thread
//! drives 16 sessions or 10,000 alike. The gateway runs in a child
//! process — its memory is then the child's alone, and parent and child
//! each stay inside a 20k-fd rlimit at 10k sessions.
//!
//! With `HRV_LOADGEN_BUDGET_J` set, every stream is budget-governed over
//! the wire (`SetBudget` between `StreamOpened` and the first push) and
//! the offline reference carries the same budget — the reports must
//! *still* be bit-identical, and the run additionally asserts the
//! detection-preserved invariant against an ungoverned reference.
//!
//! Run with: `cargo run --release -p hrv-bench --bin loadgen`
//! Environment knobs (the child gateway inherits them):
//!   HRV_LOADGEN_STREAMS  concurrent sessions           (default 16)
//!   HRV_LOADGEN_SECONDS  seconds of RR data per stream (default 600)
//!   HRV_LOADGEN_BATCH    samples per PushRr frame      (default 64)
//!   HRV_LOADGEN_QUEUE    per-push sample bound         (default 1024)
//!   HRV_LOADGEN_REACTORS gateway reactor shards        (default 2)
//!   HRV_LOADGEN_BUDGET_J joules per 4-window interval  (default 0 = ungoverned)
//!   HRV_LOADGEN_TRACE    path: the gateway traces spans and dumps Chrome
//!                        trace-event JSON there once drained (load it at
//!                        `chrome://tracing` or `https://ui.perfetto.dev`)
//!   HRV_LOADGEN_BENCH    path to BENCH_stream.json: splice the run in as
//!                        the `service_gateway_<sessions>` key (summary
//!                        plus its per-stage p50/p99 `latency_stages_us`)
//!
//! The 10k-session run: `HRV_LOADGEN_STREAMS=10000 HRV_LOADGEN_SECONDS=180`
//! (180 s is 1.5x the 120 s spectral window, so every session completes
//! windows).

use hrv_bench::splice_top_level_key;
use hrv_core::{validate_exposition, PsaConfig, Tracer};
use hrv_service::reactor::sys::{Epoll, EpollEvent};
use hrv_service::{
    write_frame, FramePoll, FrameReader, Gateway, GatewayConfig, Reply, Request, ServiceClient,
    SessionConfig, StageLatency, PROTOCOL_VERSION,
};
use hrv_stream::{cohort_samples, FleetConfig, FleetScheduler, StreamBudget};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

const SEED: u64 = 2014;
const BUDGET_INTERVAL_WINDOWS: u64 = 4;

/// The run's shape, read from the environment by the parent and the
/// child gateway alike (the child inherits the parent's environment).
struct Knobs {
    streams: usize,
    seconds: f64,
    batch: usize,
    queue: usize,
    reactors: usize,
    budget_j: f64,
}

impl Knobs {
    fn from_env() -> Self {
        fn env<T: std::str::FromStr>(name: &str, default: T) -> T {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        let batch = env("HRV_LOADGEN_BATCH", 64usize).max(1);
        Knobs {
            streams: env("HRV_LOADGEN_STREAMS", 16usize).max(1),
            seconds: env("HRV_LOADGEN_SECONDS", 600usize) as f64,
            batch,
            queue: env("HRV_LOADGEN_QUEUE", 1024usize).max(batch),
            reactors: env("HRV_LOADGEN_REACTORS", 2usize).max(1),
            budget_j: env("HRV_LOADGEN_BUDGET_J", 0.0f64),
        }
    }

    fn budget(&self) -> Option<StreamBudget> {
        (self.budget_j > 0.0)
            .then(|| StreamBudget::per_interval(self.budget_j, BUDGET_INTERVAL_WINDOWS))
    }

    /// The same cohort through an offline fleet on two worker shards, so
    /// the drain is checked against a sharded run.
    fn offline_fleet(&self) -> FleetScheduler {
        FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams: self.streams,
                duration: self.seconds,
                seed: SEED,
                slice: 60.0,
                workers: 2,
            },
        )
        .expect("valid offline fleet")
    }
}

fn main() {
    if std::env::var("HRV_LOADGEN_CHILD_GATEWAY").is_ok() {
        child_gateway_main();
    } else {
        run();
    }
}

/// Child-process role: run one gateway, print its address on stdout,
/// serve until the parent's control connection sends `Shutdown`, then
/// write the Chrome trace when `HRV_LOADGEN_TRACE` asks for one.
fn child_gateway_main() {
    let knobs = Knobs::from_env();
    let trace_path = std::env::var("HRV_LOADGEN_TRACE").ok();
    let tracer = match trace_path {
        Some(_) => Tracer::monotonic(),
        None => Tracer::disabled(),
    };
    let handle = Gateway::start(GatewayConfig {
        session: SessionConfig {
            max_sessions: knobs.streams,
            queue_capacity: knobs.queue,
        },
        reactors: knobs.reactors,
        max_connections: knobs.streams + 64,
        tracer: tracer.clone(),
        ..GatewayConfig::default()
    })
    .expect("child gateway start");
    println!("ADDR {}", handle.local_addr());
    std::io::stdout().flush().expect("flush addr line");
    handle.wait().expect("child gateway join");
    if let Some(path) = trace_path {
        std::fs::write(&path, tracer.chrome_trace())
            .unwrap_or_else(|err| panic!("cannot write trace {path}: {err}"));
        println!(
            "loadgen: wrote {} spans of Chrome trace JSON to {path}",
            tracer.spans().len()
        );
    }
}

/// Reads a `kB`-valued row (e.g. `VmRSS:`) out of `/proc/<pid>/status`.
fn proc_status_kb(pid: u32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Where a client is in its lockstep request cycle.
#[derive(Clone, Copy, PartialEq)]
enum Stage {
    AwaitHelloAck,
    AwaitOpened,
    AwaitBudgetSet,
    Idle,
    AwaitPushed,
    Done,
}

/// One nonblocking client connection in the epoll pool, with exactly one
/// request in flight.
struct ClientConn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    out_pos: usize,
    want_write: bool,
    stage: Stage,
    samples: Vec<(f64, f64)>,
    next_chunk: usize,
    sent: u64,
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

    /// Frames `body`, queues it and flushes.
    fn send(&mut self, epoll: &Epoll, token: u64, body: &[u8]) {
        write_frame(&mut self.out, body).expect("encode");
        self.flush_out(epoll, token);
    }

    /// Sends the next PushRr batch and returns `true`, or returns `false`
    /// when the replay is done.
    fn push_next(&mut self, epoll: &Epoll, token: u64, batch: usize) -> bool {
        let start = self.next_chunk * batch;
        if start >= self.samples.len() {
            return false;
        }
        let end = (start + batch).min(self.samples.len());
        let body = hrv_service::proto::encode_push_rr(token, &self.samples[start..end]);
        self.next_chunk += 1;
        self.sent += (end - start) as u64;
        self.send(epoll, token, &body);
        true
    }
}

/// Advances `conn`'s state machine on one decoded reply. Returns `true`
/// when the conn reached this phase's goal stage (`Idle` in the open
/// phase, `Done` in the push phase). Batches never exceed the per-push
/// bound, so a `Busy` reply is as unexpected as any other.
fn on_reply(
    conn: &mut ClientConn,
    epoll: &Epoll,
    token: u64,
    reply: Reply,
    batch: usize,
    budget: Option<StreamBudget>,
) -> bool {
    match (conn.stage, reply) {
        (Stage::AwaitHelloAck, Reply::HelloAck { .. }) => {
            conn.stage = Stage::AwaitOpened;
            let request = Request::OpenStream { stream: token };
            conn.send(epoll, token, &request.encode());
            false
        }
        (Stage::AwaitOpened, Reply::StreamOpened { .. }) => match budget {
            Some(budget) => {
                conn.stage = Stage::AwaitBudgetSet;
                let request = Request::SetBudget {
                    stream: token,
                    budget,
                };
                conn.send(epoll, token, &request.encode());
                false
            }
            None => {
                conn.stage = Stage::Idle;
                true
            }
        },
        (Stage::AwaitBudgetSet, Reply::BudgetSet { .. }) => {
            conn.stage = Stage::Idle;
            true
        }
        (Stage::AwaitPushed, Reply::Pushed(_)) => {
            if conn.push_next(epoll, token, batch) {
                false
            } else {
                conn.stage = Stage::Done;
                true
            }
        }
        (_, other) => panic!("conn {token}: unexpected reply {other:?}"),
    }
}

/// Runs the epoll loop until `goal` connections have signalled
/// completion (via `on_reply` returning `true`).
fn pump_until(
    conns: &mut [ClientConn],
    epoll: &Epoll,
    goal: usize,
    batch: usize,
    budget: Option<StreamBudget>,
) {
    let mut reached = 0usize;
    let mut events = vec![EpollEvent::default(); 1024];
    while reached < goal {
        let n = epoll.wait(&mut events, 1000).expect("epoll wait");
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
                            if on_reply(conn, epoll, token, reply, batch, budget) {
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

/// Connects, retrying briefly on a transient refusal (a full accept
/// backlog while thousands of sessions connect).
fn connect(addr: &str, id: usize) -> TcpStream {
    let mut attempt = 0;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(_) if attempt < 50 => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(err) => panic!("conn {id}: connect: {err}"),
        }
    }
}

/// The replay: offline reference, child gateway, epoll client pool,
/// drain, bit-identity check and the recorded rows.
fn run() {
    let knobs = Knobs::from_env();
    let Knobs {
        streams,
        seconds,
        batch,
        queue,
        reactors,
        budget_j,
    } = knobs;
    let budget = knobs.budget();

    // ---- offline reference ---------------------------------------------
    let mut offline = knobs.offline_fleet();
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
        let ungoverned = knobs.offline_fleet().run();
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

    // ---- child-process gateway -----------------------------------------
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .env("HRV_LOADGEN_CHILD_GATEWAY", "1")
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
        "loadgen: {streams} sessions x {seconds:.0} s ({batch}-sample frames, {queue}-sample \
         push bound, {reactors} reactor shards) -> {addr} (pid {})",
        child.id()
    );

    // ---- phase 1: connect + handshake + open (+ budget) every session --
    let epoll = Epoll::new().expect("epoll");
    let open_started = Instant::now();
    let mut conns: Vec<ClientConn> = Vec::with_capacity(streams);
    for id in 0..streams {
        let stream = connect(&addr, id);
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        epoll
            .add(stream.as_raw_fd(), id as u64, true, false, false)
            .expect("epoll add");
        let samples = cohort_samples(SEED, id, seconds);
        let mut conn = ClientConn {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            out_pos: 0,
            want_write: false,
            stage: Stage::AwaitHelloAck,
            samples,
            next_chunk: 0,
            sent: 0,
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        conn.send(&epoll, id as u64, &hello.encode());
        conns.push(conn);
        if (id + 1) % 2000 == 0 {
            println!("loadgen: {} connections established", id + 1);
        }
    }
    pump_until(&mut conns, &epoll, streams, batch, budget);
    let open_wall = open_started.elapsed().as_secs_f64();
    let opened_rss_kb = proc_status_kb(child.id(), "VmRSS:").expect("opened VmRSS");
    let mem_per_session_kb = opened_rss_kb.saturating_sub(baseline_rss_kb) as f64 / streams as f64;
    println!(
        "loadgen: all {streams} sessions open in {open_wall:.3} s; gateway RSS \
         {baseline_rss_kb} -> {opened_rss_kb} kB ({mem_per_session_kb:.2} kB/session)"
    );

    // ---- phase 2: replay the cohort ------------------------------------
    let replay_started = Instant::now();
    let mut active = 0usize;
    for (id, conn) in conns.iter_mut().enumerate() {
        if conn.push_next(&epoll, id as u64, batch) {
            conn.stage = Stage::AwaitPushed;
            active += 1;
        } else {
            conn.stage = Stage::Done;
        }
    }
    pump_until(&mut conns, &epoll, active, batch, budget);
    let replay_wall = replay_started.elapsed().as_secs_f64();
    let samples_sent: u64 = conns.iter().map(|c| c.sent).sum();

    // Peak/steady memory must be read BEFORE shutdown — the child exits
    // once the drain completes.
    let loaded_rss_kb = proc_status_kb(child.id(), "VmRSS:").expect("loaded VmRSS");
    let hwm_kb = proc_status_kb(child.id(), "VmHWM:").expect("VmHWM");

    // ---- control connection: exposition, stages, drain -----------------
    let mut control = ServiceClient::connect(&*addr).expect("control connection");
    let metrics = control.metrics().expect("metrics");
    assert!(metrics.contains("hrv_service_samples_admitted_total"));
    // The constant build-info gauge travels over the wire with the
    // negotiated protocol version in its labels.
    assert!(
        metrics.contains("hrv_build_info{"),
        "build-info gauge missing from wire exposition"
    );
    assert!(
        metrics.contains(&format!("protocol_version=\"{PROTOCOL_VERSION}\"")),
        "build-info gauge must carry the protocol version"
    );
    // The full wire exposition — including every histogram family — must
    // parse as conformant Prometheus text format.
    validate_exposition(&metrics).expect("wire exposition conformant");
    for family in [
        "# TYPE hrv_service_frame_decode_seconds histogram",
        "# TYPE hrv_service_pump_dispatch_seconds histogram",
        "# TYPE hrv_stream_window_compute_seconds histogram",
    ] {
        assert!(metrics.contains(family), "missing {family:?}");
    }
    let stages: Vec<StageLatency> = control
        .read_health()
        .expect("health")
        .stages
        .into_iter()
        .filter(|s| s.count > 0)
        .collect();
    let stage_p99_us = |family: &str| {
        stages
            .iter()
            .find(|s| s.family == family)
            .map_or(0.0, |s| s.p99_s * 1e6)
    };
    let frame_read_p99_us = stage_p99_us("hrv_service_frame_read_seconds");
    let conn_idle_p99_s = stage_p99_us("hrv_service_conn_idle_seconds") / 1e6;

    let drain_started = Instant::now();
    let reports = control.shutdown().expect("shutdown");
    let drain_wall = drain_started.elapsed().as_secs_f64();
    drop(conns); // parked sockets release after the drain epilogue answered
    for line in child_out.lines() {
        println!("{}", line.expect("child stdout"));
    }
    let status = child.wait().expect("child wait");
    assert!(status.success(), "child gateway exited with {status}");

    let ids: Vec<usize> = reports.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..streams).collect::<Vec<_>>(), "reports id-ordered");
    assert_eq!(
        reports, offline_reports,
        "gateway-drained per-stream reports must be bit-identical to the offline fleet"
    );
    let windows: u64 = reports.iter().map(|r| r.windows).sum();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples_per_s = samples_sent as f64 / replay_wall;

    println!("\n== gateway replay vs offline fleet ==\n");
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
        samples_per_s
    );
    println!(
        "\n{samples_sent} samples over {streams} sessions on {cores} cores; open \
         {open_wall:.3} s, drain {drain_wall:.3} s; per-stream reports bit-identical: yes"
    );
    println!(
        "frame_read p99 {frame_read_p99_us:.2} us (idle wait excluded; conn_idle p99 \
         {conn_idle_p99_s:.3} s); gateway RSS {loaded_rss_kb} kB loaded / {hwm_kb} kB peak, \
         {mem_per_session_kb:.2} kB/session at open"
    );

    println!("\n== per-stage latency (histogram estimates, over the wire) ==\n");
    println!(
        "{:<42} {:<28} {:>9} {:>11} {:>11}",
        "stage", "labels", "samples", "p50 [us]", "p99 [us]"
    );
    for s in &stages {
        println!(
            "{:<42} {:<28} {:>9} {:>11.2} {:>11.2}",
            s.family,
            s.labels,
            s.count,
            s.p50_s * 1e6,
            s.p99_s * 1e6
        );
    }

    println!("\n== final gateway telemetry (wire exposition) ==\n");
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        println!("{line}");
    }

    if let Ok(path) = std::env::var("HRV_LOADGEN_BENCH") {
        let key = format!("service_gateway_{streams}");
        let mut block = format!(
            "  \"{key}\": {{\n\
             \x20   \"sessions\": {streams},\n\
             \x20   \"seconds_per_stream\": {seconds:.0},\n\
             \x20   \"push_batch\": {batch},\n\
             \x20   \"push_bound\": {queue},\n\
             \x20   \"budget_j_per_interval\": {budget_j},\n\
             \x20   \"reactor_shards\": {reactors},\n\
             \x20   \"cores\": {cores},\n\
             \x20   \"samples\": {samples_sent},\n\
             \x20   \"windows\": {windows},\n\
             \x20   \"open_wall_s\": {open_wall:.3},\n\
             \x20   \"replay_wall_s\": {replay_wall:.3},\n\
             \x20   \"drain_wall_s\": {drain_wall:.3},\n\
             \x20   \"samples_per_s\": {samples_per_s:.0},\n\
             \x20   \"frame_read_p99_us_idle_free\": {frame_read_p99_us:.2},\n\
             \x20   \"conn_idle_p99_s\": {conn_idle_p99_s:.3},\n\
             \x20   \"mem_per_session_kb\": {mem_per_session_kb:.2},\n\
             \x20   \"gateway_rss_peak_kb\": {hwm_kb},\n\
             \x20   \"bit_identical_reports\": true,\n\
             \x20   \"latency_stages_us\": [\n"
        );
        for (i, s) in stages.iter().enumerate() {
            let sep = if i + 1 == stages.len() { "" } else { "," };
            block.push_str(&format!(
                "      {{ \"stage\": \"{}\", \"labels\": \"{}\", \"samples\": {}, \
                 \"p50\": {:.2}, \"p99\": {:.2} }}{sep}\n",
                s.family,
                s.labels.replace('\\', "\\\\").replace('"', "\\\""),
                s.count,
                s.p50_s * 1e6,
                s.p99_s * 1e6,
            ));
        }
        block.push_str("    ]\n  },\n");
        splice_top_level_key(&path, &key, &block)
            .unwrap_or_else(|err| panic!("cannot splice {key} into {path}: {err}"));
        println!("loadgen: wrote \"{key}\" to {path}");
    }
}
