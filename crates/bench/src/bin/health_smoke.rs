//! Health/alerting smoke: deterministic SLO burn-rate behaviour over a
//! live loopback gateway.
//!
//! Two phases, both **asserted**:
//!
//! 1. **nominal** — a synthetic cohort streamed under a per-push bound
//!    roomy enough that `Busy` is impossible must end with every catalog SLO
//!    `Ok` on every health tick (zero alerts), and the wire exposition
//!    (including the new `hrv_slo_*` and `hrv_build_info` families)
//!    must be conformant Prometheus text format;
//! 2. **overload** — a gateway with a tiny per-push bound is hammered
//!    with oversized batches (each push is a guaranteed whole-batch
//!    `Busy` refusal), one health tick per round;
//!    the `busy_ratio` SLO must page exactly at tick 3 (dwell 2), the
//!    refusals must be journalled, and the whole per-tick trajectory —
//!    states *and* burn rates — must replay bit-identically on a second
//!    run.
//!
//! Run with: `cargo run --release -p hrv-bench --bin health_smoke`
//! Environment knobs (for CI smoke runs):
//!   HRV_HEALTH_STREAMS   nominal cohort size            (default 4)
//!   HRV_HEALTH_SECONDS   seconds of RR per stream       (default 300)
//!   HRV_HEALTH_ROUNDS    overload rounds after paging   (default 6)
//!   HRV_LOADGEN_BENCH    path to BENCH_stream.json: splice the
//!                        overload alert trajectory in as a
//!                        "health_alerts" block

use hrv_bench::splice_top_level_key;
use hrv_core::{validate_exposition, AlertState};
use hrv_service::{Gateway, GatewayConfig, ServiceError, SessionConfig};
use hrv_stream::cohort_samples;

const SEED: u64 = 2014;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One recorded overload tick: `(tick, state, since, short, long)` of
/// the `busy_ratio` SLO.
type BusyTick = (u64, AlertState, u64, f64, f64);

fn main() {
    let streams = env_usize("HRV_HEALTH_STREAMS", 4);
    let seconds = env_usize("HRV_HEALTH_SECONDS", 300) as f64;
    let rounds = env_usize("HRV_HEALTH_ROUNDS", 6).max(4);

    nominal_phase(streams, seconds);

    let first = overload_phase(rounds);
    let second = overload_phase(rounds);
    assert_eq!(
        first, second,
        "overload alert trajectory must replay bit-identically"
    );
    let page_tick = first
        .iter()
        .find(|(_, state, _, _, _)| *state == AlertState::Page)
        .map(|(tick, _, _, _, _)| *tick)
        .expect("overload must page");
    assert_eq!(page_tick, 3, "page must land on tick 3 (dwell 2)");
    println!("\n== overload busy_ratio trajectory (deterministic) ==\n");
    println!(
        "{:<6} {:<9} {:>7} {:>13} {:>13}",
        "tick", "state", "since", "short burn", "long burn"
    );
    for (tick, state, since, short, long) in &first {
        println!(
            "{tick:<6} {:<9} {since:>7} {short:>13.1} {long:>13.1}",
            state.as_str()
        );
    }

    if let Ok(path) = std::env::var("HRV_LOADGEN_BENCH") {
        splice_top_level_key(&path, "health_alerts", &health_alerts_block(&first))
            .unwrap_or_else(|err| panic!("cannot splice health_alerts into {path}: {err}"));
        println!("health_smoke: wrote {} alert rows to {path}", first.len());
    }

    println!(
        "\nok: nominal run alert-free, overload pages at tick {page_tick}, \
         trajectory replayed bit-identically over {} ticks",
        first.len()
    );
}

/// Streams the cohort through a gateway whose per-push bound every
/// batch fits, ticking the
/// health engine as it goes: every SLO must stay `Ok` on every tick.
fn nominal_phase(streams: usize, seconds: f64) {
    let handle = Gateway::start(GatewayConfig {
        session: SessionConfig {
            max_sessions: streams.max(1),
            queue_capacity: 65536,
        },
        ..GatewayConfig::default()
    })
    .expect("gateway start");
    let mut client = handle.client().expect("client");
    let mut pushed = 0u64;
    for id in 0..streams {
        client.open_stream(id as u64).expect("open");
        let samples = cohort_samples(SEED, id, seconds);
        for chunk in samples.chunks(256) {
            let outcome = client.push_rr(id as u64, chunk).expect("push (no Busy)");
            pushed += u64::from(outcome.accepted);
        }
        let health = client.read_health().expect("health");
        for alert in &health.alerts {
            assert_eq!(
                alert.state,
                AlertState::Ok,
                "nominal traffic must not raise {:?} (burns {:.3}/{:.3})",
                alert.slo,
                alert.short_burn,
                alert.long_burn
            );
            assert_eq!(alert.since_tick, 0, "{} never left Ok", alert.slo);
        }
    }
    // Count the analysed windows (every answered push is analysed), then
    // a few extra ticks over the idle gateway: still alert-free.
    let mut windows = 0u64;
    for id in 0..streams {
        windows += client.read_report(id as u64).expect("report").windows;
    }
    for _ in 0..3 {
        let health = client.read_health().expect("health");
        assert!(
            health.alerts.iter().all(|a| a.state == AlertState::Ok),
            "idle ticks must stay alert-free"
        );
    }

    // The journal of every stream records its admissions, and the wire
    // exposition — with the SLO and build-info families the health
    // engine added — stays conformant.
    let events = client.read_events(0).expect("events");
    assert!(
        events.iter().any(|e| e.event.kind() == "admission"),
        "admissions must be journalled"
    );
    assert!(
        !events.iter().any(|e| e.event.kind() == "busy_refusal"),
        "nominal run must journal no refusals"
    );
    let metrics = client.metrics().expect("metrics");
    validate_exposition(&metrics).expect("exposition conformant");
    for family in ["hrv_slo_state", "hrv_slo_burn_rate", "hrv_build_info"] {
        assert!(metrics.contains(family), "missing {family} family");
    }

    let reports = client.shutdown().expect("shutdown");
    assert_eq!(reports.len(), streams);
    handle.wait().expect("gateway join");
    println!(
        "nominal: {streams} streams x {seconds:.0} s, {pushed} samples, {windows} windows, \
         0 alerts across every tick"
    );
}

/// Hammers a tiny-bound gateway with guaranteed-refused pushes, one
/// health tick per round, and records the `busy_ratio` trajectory.
///
/// Each round contributes exactly two request frames (the refused push
/// and the health read) of which one is `Busy` — a bad/total ratio of
/// 1/2 per tick, hundreds of times the 0.1% objective — so the dwell
/// machine's page tick and the burn-rate values are integer-derived and
/// bit-deterministic.
fn overload_phase(rounds: usize) -> Vec<BusyTick> {
    let handle = Gateway::start(GatewayConfig {
        session: SessionConfig {
            max_sessions: 1,
            queue_capacity: 4,
        },
        ..GatewayConfig::default()
    })
    .expect("gateway start");
    let mut client = handle.client().expect("client");
    client.open_stream(0).expect("open");
    let oversized: Vec<(f64, f64)> = (1..=8).map(|i| (0.8 * i as f64, 0.8)).collect();
    let mut trajectory = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        match client.push_rr(0, &oversized) {
            Err(ServiceError::Busy { capacity, .. }) => assert_eq!(capacity, 4),
            other => panic!("oversized push must be refused Busy, got {other:?}"),
        }
        let health = client.read_health().expect("health");
        let busy = health
            .alerts
            .iter()
            .find(|a| a.slo == "busy_ratio")
            .expect("busy_ratio in the catalog");
        trajectory.push((
            health.ticks,
            busy.state,
            busy.since_tick,
            busy.short_burn,
            busy.long_burn,
        ));
    }
    // Every refusal is journalled.
    let refusals = client
        .read_events(0)
        .expect("events")
        .iter()
        .filter(|e| e.event.kind() == "busy_refusal")
        .count();
    assert_eq!(refusals, rounds, "one journalled refusal per round");
    drop(client);
    handle.shutdown().expect("shutdown");
    trajectory
}

/// Renders the overload trajectory as BENCH_stream.json's top-level
/// `"health_alerts"` block.
fn health_alerts_block(trajectory: &[BusyTick]) -> String {
    let mut block = String::from("  \"health_alerts\": [\n");
    for (i, (tick, state, since, short, long)) in trajectory.iter().enumerate() {
        let sep = if i + 1 == trajectory.len() { "" } else { "," };
        block.push_str(&format!(
            "    {{ \"slo\": \"busy_ratio\", \"tick\": {tick}, \"state\": \"{}\", \
             \"since_tick\": {since}, \"short_burn\": {short:.1}, \"long_burn\": {long:.1} \
             }}{sep}\n",
            state.as_str(),
        ));
    }
    block.push_str("  ],\n");
    block
}
