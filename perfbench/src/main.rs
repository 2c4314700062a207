//! The repository benchmark: one command, three workloads, every
//! end-to-end metric by name and unit, per-layer metrics from a traced
//! run. See `BENCHMARK.json` at the repository root for the metric set
//! and `layers.json` beside this crate for what each layer metric should
//! move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_offline --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. A failed output
//! check prints no result and exits non-zero.

mod cohort;
mod gateway;
#[cfg(test)]
mod json;
mod offline;
mod paced;
mod procfs;
mod saturate;
mod scrape;
mod stats;
mod wire;

use std::fmt::Write as _;
use std::path::PathBuf;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The gated end-to-end metrics ([`END_TO_END`]).
    pub end_to_end: Vec<Metric>,
    /// End-to-end metrics defined only on this workload: printed, not
    /// part of the result line.
    pub reported: Vec<Metric>,
    /// Per-layer metrics of a traced run ([`PER_LAYER`]).
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Where and how a result was measured.
#[derive(Debug, Default)]
pub struct Provenance {
    pub cores: usize,
    pub seed: u64,
    pub streams: usize,
    pub workers: usize,
    pub offered: String,
}

/// The end-to-end metrics every untraced run reports, in order.
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "windows_per_s",
    "samples_per_s",
    "window_latency_p50_ms",
    "window_latency_p99_ms",
    "cpu_us_per_window",
    "rss_peak_mb",
    "ops_per_window",
    "energy_uj_per_window",
];

/// Kernel tokens of the five operating modes, in `ApproximationMode::ALL`
/// order (`metric_token` of each kernel's name).
const KERNELS: [&str; 5] = [
    "split-radix",
    "wfft-haar_banddrop",
    "wfft-haar_banddrop_prune20_",
    "wfft-haar_banddrop_prune40_",
    "wfft-haar_banddrop_prune60_",
];

/// The per-layer metrics every traced run reports; a layer a workload
/// does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("client.gen_lag_p99_us", "us"),
        ("client.monitor_poll_us_p50", "us"),
        ("client.push_encode_ns", "ns"),
        ("client.reply_decode_ns", "ns"),
        ("client.wire_bytes_per_sample", "B"),
        ("client.push_latency_p50_us", "us"),
        ("client.push_latency_p99_us", "us"),
        ("client.read_latency_p50_us", "us"),
        ("client.read_latency_p99_us", "us"),
        ("reactor.frame_read_us_mean", "us"),
        ("reactor.frames", "count"),
        ("proto.decode_us_mean", "us"),
        ("proto.encode_us_mean", "us"),
        ("session.queue_wait_us_mean", "us"),
        ("session.queue_depth_max", "samples"),
        ("session.admitted", "count"),
        ("session.gated", "count"),
        ("session.busy", "count"),
        ("session.busy_ratio", "ratio"),
        ("gateway.dispatch_us_mean", "us"),
        ("gateway.dispatches_per_window", "count"),
        ("fleet.governor_us_mean", "us"),
        ("exec.kernel_builds", "count"),
        ("exec.kernel_hit_rate", "ratio"),
        ("block.prepare_ns", "ns"),
        ("block.extirpolate_ns", "ns"),
        ("block.lomb_ns", "ns"),
        ("block.bands_ns", "ns"),
        ("block.prepare_ops", "ops"),
        ("block.extirpolate_ops", "ops"),
        ("block.lomb_ops", "ops"),
        ("ledger.unattributed_us", "us"),
        ("trace.overhead_pct", "%"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for kernel in KERNELS {
        names.push((format!("fleet.window_compute_us_mean.{kernel}"), "us"));
        names.push((format!("block.fft_ns.{kernel}"), "ns"));
        names.push((format!("block.fft_ops.{kernel}"), "ops"));
        names.push((format!("wfft.ns_per_op.{kernel}"), "ns/op"));
    }
    names
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["fleet_offline", "gateway_paced"];

/// Workloads the command runs that `BENCHMARK.json` leaves out:
/// `gateway_saturate` saturates both vCPUs of the reference host, so
/// hypervisor steal moved its throughput by up to 2x and its p99 by 3x
/// between runs, wider than any bound the contract allows.
pub const EXTRA_WORKLOADS: [&str; 1] = ["gateway_saturate"];

/// Whether `name` is a workload the command runs.
fn known_workload(name: &str) -> bool {
    WORKLOADS.iter().chain(&EXTRA_WORKLOADS).any(|w| *w == name)
}

/// Directory for Chrome traces: `out/` inside this crate.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Path of one Chrome trace file (its directory is created here, so a
/// gateway child can write it).
pub fn trace_path(workload: &str, seed: u64, role: &str) -> String {
    let _ = std::fs::create_dir_all(out_dir());
    out_dir()
        .join(format!("{workload}-seed{seed}-{role}.json"))
        .to_string_lossy()
        .into_owned()
}

/// Writes one Chrome trace.
pub fn write_trace(workload: &str, seed: u64, role: &str, json: &str) -> Result<(), String> {
    let path = trace_path(workload, seed, role);
    std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
    println!("trace: {path}");
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !known_workload(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or {EXTRA_WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result line: exactly the metrics of the mode, in catalogue order.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let (names, produced): (Vec<(String, &str)>, &[Metric]) = if trace {
        (per_layer(), &outcome.layers)
    } else {
        (
            END_TO_END
                .iter()
                .map(|n| {
                    let unit = outcome
                        .end_to_end
                        .iter()
                        .find(|m| m.name == *n)
                        .map_or("", |m| m.unit);
                    (n.to_string(), unit)
                })
                .collect(),
            &outcome.end_to_end,
        )
    };
    for m in produced {
        if !names.iter().any(|(n, _)| *n == m.name) {
            return Err(format!("metric {} is not in the catalogue", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        if !stats::valid_metric_name(name) {
            return Err(format!("metric name {name:?} is outside the charset"));
        }
        let metric = produced.iter().find(|m| m.name == *name);
        let (value, unit) = match metric {
            Some(m) => (m.value, m.unit),
            None if trace => (0.0, *unit),
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(json)
}

fn run(args: &Args) -> Result<String, String> {
    let mut prov = Provenance {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed: args.seed,
        ..Provenance::default()
    };
    let outcome = match args.workload.as_str() {
        "fleet_offline" => offline::run(args.seed, args.seconds, args.trace, &mut prov),
        "gateway_paced" => paced::run(args.seed, args.seconds, args.trace, &mut prov),
        "gateway_saturate" => saturate::run(args.seed, args.seconds, args.trace, &mut prov),
        other => Err(format!("unknown workload {other}")),
    }?;
    println!(
        "provenance: workload={} cores={} simd={} seed={} streams={} workers={} offered=[{}]",
        args.workload,
        prov.cores,
        hrv_dsp::SimdLevel::active().as_str(),
        prov.seed,
        prov.streams,
        prov.workers,
        prov.offered
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
    let shown: Vec<&Metric> = if args.trace {
        outcome.layers.iter().collect()
    } else {
        outcome.end_to_end.iter().chain(&outcome.reported).collect()
    };
    for m in shown {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    result_line(&outcome, args.trace)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--gateway-child") {
        let sessions = args
            .iter()
            .position(|a| a == "--sessions")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        let trace_out = args
            .iter()
            .position(|a| a == "--trace-out")
            .and_then(|i| args.get(i + 1))
            .cloned();
        if let Err(err) = wire::gateway_child_main(sessions, trace_out) {
            eprintln!("perfbench gateway: {err}");
            std::process::exit(1);
        }
        return;
    }
    let result = parse_args(&args).and_then(|a| run(&a));
    match result {
        Ok(line) => println!("{line}"),
        Err(err) => {
            eprintln!("perfbench: FAILED: {err}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod catalogue_tests {
    use super::*;
    use crate::json::Json;

    fn load(relative: &str) -> Json {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative);
        let text = std::fs::read_to_string(&path).expect("catalogue file");
        Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn benchmark_json_matches_what_the_runs_print() {
        let bench = load("../BENCHMARK.json");
        assert_eq!(
            bench.keys(),
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let workloads: Vec<&str> = bench
            .get("workloads")
            .arr()
            .iter()
            .map(|w| {
                assert_eq!(w.keys(), ["name", "why"]);
                assert!(w.get("why").str().len() <= 200);
                w.get("name").str()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<&str> = bench
            .get("end_to_end")
            .arr()
            .iter()
            .map(|m| {
                assert_eq!(m.keys(), ["better", "bound", "name", "unit"]);
                let Json::Num(bound) = m.get("bound") else {
                    panic!("bound is a number")
                };
                assert!(*bound > 0.0 && *bound <= 0.25);
                m.get("name").str()
            })
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layers: Vec<(String, &str)> = bench
            .get("per_layer")
            .arr()
            .iter()
            .map(|m| {
                assert_eq!(m.keys(), ["better", "name", "unit"]);
                assert!(stats::valid_metric_name(m.get("name").str()));
                (m.get("name").str().to_string(), m.get("unit").str())
            })
            .collect();
        assert_eq!(layers, per_layer());
    }

    /// Every per-layer metric names the end-to-end metric and the
    /// workload it should move.
    #[test]
    fn every_layer_metric_names_what_it_moves() {
        let bench = load("../BENCHMARK.json");
        let catalogue = load("layers.json");
        let entries = catalogue.get("metrics");
        assert_eq!(entries.keys().len(), per_layer().len());
        for (name, _) in per_layer() {
            let entry = entries.get(&name);
            let moves = entry.get("moves").arr();
            assert!(!moves.is_empty(), "{name} moves nothing");
            for m in moves {
                assert!(
                    END_TO_END.contains(&m.get("metric").str()),
                    "{name}: {:?} is not an end-to-end metric",
                    m.get("metric")
                );
                assert!(
                    known_workload(m.get("workload").str()),
                    "{name}: {:?} is not a workload",
                    m.get("workload")
                );
            }
            assert!(!entry.get("expect").str().is_empty());
        }
        let notes = catalogue.get("notes").arr();
        assert!(notes
            .iter()
            .any(|n| n.str().contains("Bucket quantiles are never used")));
        assert!(bench.get("run_seconds") != &Json::Null);
    }

    #[test]
    fn kernel_tokens_are_the_kernels_names() {
        let plan = cohort::plan();
        let cache = hrv_core::KernelCache::new();
        for (mode, token) in hrv_core::ApproximationMode::ALL.into_iter().zip(KERNELS) {
            let choice = hrv_core::OperatingChoice {
                mode,
                policy: hrv_core::PruningPolicy::Static,
                vfs: false,
                expected_error_pct: 0.0,
                expected_savings_pct: 0.0,
            };
            let backend = cache.backend_for_choice(&plan, &choice).expect("kernel");
            assert_eq!(stats::metric_token(backend.name()), token);
        }
    }

    #[test]
    fn result_line_holds_exactly_the_catalogue() {
        let outcome = Outcome {
            attempted: 3,
            end_to_end: END_TO_END
                .iter()
                .map(|n| Metric::new(n, 1.5, "s"))
                .collect(),
            ..Outcome::default()
        };
        let line = result_line(&outcome, false).expect("complete");
        let parsed = Json::parse(&line).expect("result is JSON");
        assert_eq!(parsed.keys(), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("metrics").keys().len(), END_TO_END.len());
        let traced = result_line(&outcome, true).expect("layers default to 0");
        let parsed = Json::parse(&traced).expect("result is JSON");
        assert_eq!(parsed.get("metrics").keys().len(), per_layer().len());
        let missing = Outcome::default();
        assert!(result_line(&missing, false).is_err());
    }
}
