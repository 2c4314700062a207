//! `hrv-top`: a live text console over a running gateway — the fleet's
//! `top(1)`. Polls `ReadHealth`/`ReadEvents` over the wire and renders a
//! refreshing dashboard: SLO alert panel, per-stage latency table,
//! streams ranked by modelled energy, and each stream's recent journal
//! events.
//!
//! Two modes:
//!
//! * **attach** — `HRV_TOP_ADDR=host:port` points at a running gateway
//!   (e.g. one started by `loadgen`); the console polls it
//!   `HRV_TOP_TICKS` times, `HRV_TOP_INTERVAL_MS` apart.
//! * **demo** (default) — self-hosts a loopback gateway, streams a small
//!   deterministic cohort through it (with one scripted operator quality
//!   switch so the journal has something to show), then renders.
//!
//! With `HRV_TOP_SNAPSHOT=path`, demo mode instead writes one
//! deterministic JSON snapshot and exits. The snapshot deliberately
//! excludes every wall-clock-derived quantity (latency quantiles and
//! their counts); what remains — alert states, stream
//! windows/energy/backends, journal event kinds, build identity — is a
//! pure function of the scripted feed, so two invocations produce
//! byte-identical files. CI runs it twice and `cmp`s.
//!
//! Run with: `cargo run --release -p hrv-bench --bin hrv_top`

use hrv_service::{
    Gateway, GatewayConfig, HealthSnapshot, ServiceClient, SessionConfig, PROTOCOL_VERSION,
};
use hrv_stream::{cohort_samples, EventRecord};
use std::time::Duration;

const SEED: u64 = 2014;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    match std::env::var("HRV_TOP_ADDR") {
        Ok(addr) => attach(&addr),
        Err(_) => demo(),
    }
}

/// Attach mode: poll an already-running gateway and render.
fn attach(addr: &str) {
    let ticks = env_usize("HRV_TOP_TICKS", 10);
    let interval = Duration::from_millis(env_usize("HRV_TOP_INTERVAL_MS", 1000) as u64);
    let mut client = match ServiceClient::connect(addr) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("hrv-top: cannot attach to {addr}: {err}");
            std::process::exit(1);
        }
    };
    for tick in 0..ticks {
        match client.read_health() {
            Ok(health) => {
                let events = recent_events(&mut client, &health);
                render(&health, &events);
            }
            Err(err) => {
                eprintln!("hrv-top: gateway went away: {err}");
                return;
            }
        }
        if tick + 1 < ticks {
            std::thread::sleep(interval);
        }
    }
}

/// Demo mode: self-hosted gateway, deterministic scripted feed.
fn demo() {
    let streams = env_usize("HRV_TOP_STREAMS", 4);
    let seconds = env_usize("HRV_TOP_SECONDS", 300) as f64;
    let handle = Gateway::start(GatewayConfig {
        session: SessionConfig {
            max_sessions: streams.max(1),
            queue_capacity: 65536,
        },
        ..GatewayConfig::default()
    })
    .expect("gateway start");
    let mut client = handle.client().expect("client");
    for id in 0..streams {
        client.open_stream(id as u64).expect("open");
        let samples = cohort_samples(SEED, id, seconds);
        for chunk in samples.chunks(256) {
            client.push_rr(id as u64, chunk).expect("push");
        }
    }
    if streams > 1 {
        // A scripted operator switch so the journal shows a
        // quality_switch event alongside the admissions.
        client
            .set_quality(1, hrv_core::ApproximationMode::BandDrop)
            .expect("set quality");
    }
    // Every answered push is analysed, so the snapshot below sees every
    // window.
    let health = client.read_health().expect("health");
    let events = recent_events(&mut client, &health);
    if let Ok(path) = std::env::var("HRV_TOP_SNAPSHOT") {
        let json = snapshot_json(&health, &events);
        std::fs::write(&path, &json).expect("write snapshot");
        println!("hrv-top: wrote deterministic snapshot to {path}");
    } else {
        render(&health, &events);
    }
    drop(client);
    handle.shutdown().expect("shutdown");
}

/// Pulls every stream's journal tail (newest `EVENTS_SHOWN` records).
fn recent_events(
    client: &mut ServiceClient,
    health: &HealthSnapshot,
) -> Vec<(u64, Vec<EventRecord>)> {
    health
        .streams
        .iter()
        .map(|stream| {
            let events = client.read_events(stream.id).unwrap_or_default();
            (stream.id, events)
        })
        .collect()
}

const EVENTS_SHOWN: usize = 4;
const STREAMS_SHOWN: usize = 10;

/// Renders one dashboard frame to stdout.
fn render(health: &HealthSnapshot, events: &[(u64, Vec<EventRecord>)]) {
    println!(
        "\n== hrv-top | proto v{PROTOCOL_VERSION} | simd {} | tick {} | {} stream(s), {} slow \
         request(s) ==",
        hrv_dsp::SimdLevel::active().as_str(),
        health.ticks,
        health.streams.len(),
        health.slow_requests,
    );

    println!("\n-- alerts --");
    println!(
        "{:<22} {:<9} {:>11} {:>11} {:>7}",
        "slo", "state", "short burn", "long burn", "since"
    );
    for alert in &health.alerts {
        println!(
            "{:<22} {:<9} {:>11.2} {:>11.2} {:>7}",
            alert.slo,
            alert.state.as_str(),
            alert.short_burn,
            alert.long_burn,
            alert.since_tick
        );
    }

    println!("\n-- stages (p50/p99) --");
    println!(
        "{:<42} {:<26} {:>9} {:>10} {:>10}",
        "stage", "labels", "samples", "p50 [us]", "p99 [us]"
    );
    for stage in health.stages.iter().filter(|s| s.count > 0) {
        println!(
            "{:<42} {:<26} {:>9} {:>10.2} {:>10.2}",
            stage.family,
            stage.labels,
            stage.count,
            stage.p50_s * 1e6,
            stage.p99_s * 1e6
        );
    }

    println!("\n-- top streams by modelled energy --");
    println!(
        "{:<8} {:>9} {:>13} {:>7} {:<28}",
        "stream", "windows", "energy [J]", "queue", "backend"
    );
    let mut ranked: Vec<_> = health.streams.iter().collect();
    ranked.sort_by(|a, b| {
        b.energy_j
            .partial_cmp(&a.energy_j)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    for stream in ranked.iter().take(STREAMS_SHOWN) {
        println!(
            "{:<8} {:>9} {:>13.6e} {:>7} {:<28}",
            stream.id, stream.windows, stream.energy_j, stream.queue_depth, stream.backend
        );
    }

    if !health.slow_stages.is_empty() {
        println!("\n-- worst slow root spans --");
        for slow in &health.slow_stages {
            println!("{:<22} {:>13} ns", slow.stage, slow.worst_ns);
        }
    }

    println!("\n-- recent events --");
    for (id, records) in events {
        let tail: Vec<String> = records
            .iter()
            .rev()
            .take(EVENTS_SHOWN)
            .rev()
            .map(|record| format!("#{} w{} {}", record.seq, record.window, record.event.kind()))
            .collect();
        println!("stream {id:<4} {}", tail.join(" | "));
    }
}

/// Builds the deterministic JSON snapshot (see the module docs for what
/// is deliberately excluded). Hand-rolled text — the workspace has no
/// JSON dependency — with stable key and row order.
fn snapshot_json(health: &HealthSnapshot, events: &[(u64, Vec<EventRecord>)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"build\": {{ \"protocol_version\": {PROTOCOL_VERSION}, \"simd_level\": \"{}\", \
         \"version\": \"{}\" }},\n",
        hrv_dsp::SimdLevel::active().as_str(),
        env!("CARGO_PKG_VERSION"),
    ));
    out.push_str(&format!("  \"ticks\": {},\n", health.ticks));
    out.push_str("  \"alerts\": [\n");
    for (i, alert) in health.alerts.iter().enumerate() {
        let sep = if i + 1 == health.alerts.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{ \"slo\": \"{}\", \"state\": \"{}\", \"since_tick\": {} }}{sep}\n",
            alert.slo,
            alert.state.as_str(),
            alert.since_tick
        ));
    }
    out.push_str("  ],\n  \"streams\": [\n");
    for (i, stream) in health.streams.iter().enumerate() {
        let sep = if i + 1 == health.streams.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{ \"id\": {}, \"windows\": {}, \"energy_j\": {:.9e}, \"queue_depth\": {}, \
             \"backend\": \"{}\" }}{sep}\n",
            stream.id, stream.windows, stream.energy_j, stream.queue_depth, stream.backend
        ));
    }
    out.push_str("  ],\n  \"stage_families\": [");
    let families: Vec<String> = health
        .stages
        .iter()
        .map(|s| format!("\"{}\"", s.family))
        .collect();
    out.push_str(&families.join(", "));
    out.push_str("],\n  \"events\": {\n");
    for (i, (id, records)) in events.iter().enumerate() {
        let sep = if i + 1 == events.len() { "" } else { "," };
        let kinds: Vec<String> = records
            .iter()
            .map(|r| format!("\"{}\"", r.event.kind()))
            .collect();
        out.push_str(&format!("    \"{id}\": [{}]{sep}\n", kinds.join(", ")));
    }
    out.push_str("  }\n}\n");
    out
}
