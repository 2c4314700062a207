//! `fleet_offline`: the offline fleet over a seeded cohort, no network.
//! DSP, the WFFT kernels, the governor and the accounting do all the
//! work, so kernel and SIMD changes show here and gateway changes do not.
//!
//! `FleetScheduler::run` synthesises its cohort on every build, at about
//! 80 times the cost of analysing it, so a timed `run` would measure
//! synthesis. The workload therefore feeds the seeded cohort through the
//! fleet's external-ingest path (`push_rr_batch`: the same gate, engine,
//! governor and accounting `run` drives), one fleet per core on its own
//! thread, and checks that this path reports what `run` reports.

use crate::cohort::{self, Tiled};
use crate::procfs::{self, Readings};
use crate::scrape::{label_value, Delta, Snapshot};
use crate::stats::{self, metric_token, Intervals, LatencyLog, MeanNs};
use crate::{Metric, Outcome, Provenance};
use hrv_core::{
    ApproximationMode, KernelCache, OperatingChoice, PruningPolicy, PsaConfig, Telemetry, Tracer,
};
use hrv_dsp::{fft_real_pair_into, sample_variance, Cx, OpCount, RealFft};
use hrv_lomb::MeshScratch;
use hrv_stream::{
    band_powers, FleetConfig, FleetScheduler, RrIngest, SlidingLomb, StreamBudget, StreamReport,
    StreamScratch, WindowView,
};
use std::time::{Duration, Instant};

/// Streams in the cohort: a multiple of [`MODES`] so every mode gets
/// the same share.
const STREAMS: usize = 48;
/// Samples per `push_rr_batch` call — about 53 stream seconds, so most
/// calls complete one window.
const BATCH: usize = 64;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 5;
/// Joules per 4-window interval for budget-governed streams: tight
/// enough that the governor moves off the exact kernel.
const BUDGET_J: f64 = 2.5e-3;
/// Streams per static mode the parity check replays on a serial fleet.
const PARITY_STREAMS_PER_MODE: usize = 1;
/// Streams whose windows the traced run replays block by block, per
/// static mode.
const REPLAY_STREAMS_PER_MODE: usize = 2;
/// Windows replayed per sampled stream, evenly spaced from a seeded
/// offset.
const REPLAY_WINDOWS: usize = 32;
/// Timed repetitions of each replayed window; the fastest counts.
const REPLAY_REPS: usize = 3;
/// Cohort of the `run` anchor: streams and seconds per stream.
const ANCHOR_STREAMS: usize = 12;
const ANCHOR_S: f64 = 600.0;

const MODES: usize = 6;

/// How stream `id` is steered: a fixed static mode, or (`None`) an
/// energy budget.
fn mode_of(id: usize) -> Option<ApproximationMode> {
    match id % MODES {
        0 => Some(ApproximationMode::Exact),
        1 => Some(ApproximationMode::BandDrop),
        2 => Some(ApproximationMode::BandDropSet1),
        3 => Some(ApproximationMode::BandDropSet2),
        4 => Some(ApproximationMode::BandDropSet3),
        _ => None,
    }
}

fn static_choice(mode: ApproximationMode) -> OperatingChoice {
    OperatingChoice {
        mode,
        policy: PruningPolicy::Static,
        vfs: false,
        expected_error_pct: 0.0,
        expected_savings_pct: 0.0,
    }
}

/// Gives stream `id` of `fleet` its steering.
fn steer(fleet: &mut FleetScheduler, id: usize) -> Result<(), String> {
    let done = match mode_of(id) {
        Some(ApproximationMode::Exact) => Ok(String::new()),
        Some(mode) => fleet.set_stream_mode(id, mode),
        None => fleet.set_stream_budget(id, StreamBudget::per_interval(BUDGET_J, 4)),
    };
    done.map(drop).map_err(|e| format!("stream {id}: {e}"))
}

/// An external fleet holding `ids`, each opened and steered.
fn external(ids: impl Iterator<Item = usize>) -> Result<FleetScheduler, String> {
    let mut fleet = FleetScheduler::external(cohort::plan(), 1).map_err(|e| e.to_string())?;
    for id in ids {
        fleet.open_stream(id).map_err(|e| e.to_string())?;
        steer(&mut fleet, id)?;
    }
    Ok(fleet)
}

/// One core's share: a fleet and the streams it owns.
struct Shard {
    fleet: FleetScheduler,
    ids: Vec<usize>,
}

/// The cohort and one fleet per worker, stream `id` on shard
/// `id % workers`.
struct Setup {
    cohort: Vec<Tiled>,
    shards: Vec<Shard>,
}

fn set_up(seed: u64, workers: usize) -> Result<Setup, String> {
    let cohort = (0..STREAMS).map(|id| Tiled::new(seed, id)).collect();
    let shards = (0..workers)
        .map(|w| {
            let ids: Vec<usize> = (w..STREAMS).step_by(workers).collect();
            Ok(Shard {
                fleet: external(ids.iter().copied())?,
                ids,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Setup { cohort, shards })
}

/// Window latencies a feeder thread can hold per second of run: about
/// four times what one core reaches today.
const LATENCIES_PER_THREAD_S: f64 = 200_000.0;

/// What one shard's thread measured.
struct Fed {
    /// Batches fed per stream (same order as the shard's `ids`).
    batches: Vec<usize>,
    /// `push_rr_batch` time of each call that completed windows, once
    /// per window completed, per steering class ([`mode_of`]).
    latencies: Vec<LatencyLog>,
    /// Windows and samples completed in each interval.
    per_interval: Vec<(u64, u64)>,
}

/// Feeds the shard's streams round-robin, one batch per stream per
/// round, through the timed phase. A window is visible when the call
/// that completes it returns, so its latency is that call's wall time.
fn feed(
    shard: &mut Shard,
    cohort: &[Tiled],
    iv: Intervals,
    capacity: usize,
) -> Result<Fed, String> {
    let mut fed = Fed {
        batches: vec![0; shard.ids.len()],
        latencies: (0..MODES)
            .map(|_| LatencyLog::with_capacity(capacity / MODES))
            .collect(),
        per_interval: vec![(0, 0); iv.count],
    };
    let mut windows = vec![0u64; shard.ids.len()];
    let mut buf = Vec::with_capacity(BATCH);
    if let Some(wait) = iv.t0.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    loop {
        for (k, &id) in shard.ids.iter().enumerate() {
            let start = fed.batches[k] * BATCH;
            buf.clear();
            buf.extend((start..start + BATCH).map(|i| cohort[id].get(i)));
            let started = Instant::now();
            shard
                .fleet
                .push_rr_batch(id, &buf)
                .map_err(|e| e.to_string())?;
            let done = Instant::now();
            fed.batches[k] += 1;
            let Some(slot) = iv.index(done) else {
                return Ok(fed);
            };
            let now = shard
                .fleet
                .stream_report(id)
                .map_err(|e| e.to_string())?
                .windows;
            for _ in windows[k]..now {
                fed.latencies[id % MODES].push(slot, done - started)?;
            }
            fed.per_interval[slot].0 += now - windows[k];
            fed.per_interval[slot].1 += BATCH as u64;
            windows[k] = now;
        }
    }
}

/// One timed pass: set-ups, then every shard fed on its own thread.
struct Pass {
    setup_s: f64,
    setup: Setup,
    fed: Vec<Fed>,
    iv: Intervals,
    at: Readings,
    reports: Vec<StreamReport>,
}

impl Pass {
    /// Windows and samples all shards completed in interval `k`.
    fn interval(&self, k: usize) -> (u64, u64) {
        self.fed.iter().fold((0, 0), |(w, s), f| {
            (w + f.per_interval[k].0, s + f.per_interval[k].1)
        })
    }

    fn quiet(&self) -> Vec<usize> {
        self.iv.quiet(&self.at.steal)
    }

    fn windows_per_s(&self) -> f64 {
        let step = self.iv.step.as_secs_f64();
        stats::median_over(&self.quiet(), |k| self.interval(k).0 as f64 / step)
    }

    fn samples_per_s(&self) -> f64 {
        let step = self.iv.step.as_secs_f64();
        stats::median_over(&self.quiet(), |k| self.interval(k).1 as f64 / step)
    }

    fn cpu_us_per_window(&self) -> f64 {
        stats::median_over(&self.quiet(), |k| {
            self.at.cpu_in(k) / self.interval(k).0 as f64 * 1e6
        })
    }

    fn windows(&self) -> u64 {
        self.reports.iter().map(|r| r.windows).sum()
    }
}

fn pass(
    seed: u64,
    workers: usize,
    seconds: f64,
    observe: Option<(&Telemetry, &Tracer)>,
) -> Result<Pass, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let setup = set_up(seed, workers)?;
        times.push(started.elapsed().as_secs_f64());
        kept = Some(setup);
    }
    let mut setup = kept.expect("SETUP_REPS > 0");
    if let Some((telemetry, tracer)) = observe {
        for shard in &mut setup.shards {
            shard.fleet.set_observability(telemetry, tracer.clone());
        }
    }
    let pid = std::process::id();
    let capacity = (seconds * LATENCIES_PER_THREAD_S) as usize;
    let iv = Intervals::new(Instant::now() + Duration::from_millis(10), seconds);
    let cohort = &setup.cohort;
    let (fed, at) = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .shards
            .iter_mut()
            .map(|shard| scope.spawn(move || feed(shard, cohort, iv, capacity)))
            .collect();
        // This thread only takes the readings at every interval
        // boundary.
        let mut at = Readings::default();
        let mut read = Ok(());
        for k in 0..=iv.count {
            if let Some(wait) = iv.boundary(k).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            read = read.and_then(|()| at.take(pid));
        }
        let fed = handles
            .into_iter()
            .map(|h| h.join().expect("feeder thread"))
            .collect::<Result<Vec<_>, _>>();
        (fed, read.map(|()| at))
    });
    let mut reports: Vec<StreamReport> = setup
        .shards
        .iter()
        .flat_map(|s| s.fleet.stream_reports())
        .collect();
    reports.sort_by_key(|r| r.id);
    Ok(Pass {
        setup_s: stats::median(&times),
        fed: fed?,
        at: at?,
        iv,
        setup,
        reports,
    })
}

/// Batches fed to stream `id` in a pass.
fn batches_of(pass: &Pass, id: usize) -> usize {
    let w = id % pass.setup.shards.len();
    let k = pass.setup.shards[w]
        .ids
        .iter()
        .position(|&i| i == id)
        .expect("every stream has a shard");
    pass.fed[w].batches[k]
}

/// Seeded choice of `per_mode` streams of every static mode.
fn sample_streams(seed: u64, per_mode: usize) -> Vec<usize> {
    let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut ids = Vec::new();
    for slot in 0..MODES - 1 {
        for _ in 0..per_mode {
            rng = splitmix64(rng);
            ids.push(slot + MODES * (rng as usize % (STREAMS / MODES)));
        }
    }
    ids
}

/// Shard parity: a seeded sample of streams, replayed on one serial
/// fleet with the same batches, must report what the per-core fleets
/// reported. And the anchor: for a small cohort, the external path must
/// report what `FleetScheduler::run` reports, at `workers` = cores and 1.
fn check(seed: u64, pass: &Pass, workers: usize) -> Result<(), String> {
    if pass.reports.iter().any(|r| r.windows == 0) {
        return Err("fleet_offline: a stream emitted no windows".into());
    }
    let mut ids = sample_streams(seed ^ 1, PARITY_STREAMS_PER_MODE);
    ids.push(MODES - 1); // a budget-governed stream
    ids.sort_unstable();
    ids.dedup();
    let mut serial = external(ids.iter().copied())?;
    for &id in &ids {
        for b in 0..batches_of(pass, id) {
            serial
                .push_rr_batch(id, &pass.setup.cohort[id].slice(b * BATCH..(b + 1) * BATCH))
                .map_err(|e| e.to_string())?;
        }
        let want = serial.stream_report(id).map_err(|e| e.to_string())?;
        if pass.reports[id] != want {
            return Err(format!(
                "fleet_offline shard parity: stream {id} on {workers} fleets differs from \
                 one serial fleet\n  sharded: {:?}\n  serial:  {want:?}",
                pass.reports[id]
            ));
        }
    }

    let mut reports = Vec::new();
    for w in [workers, 1] {
        let mut fleet = FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams: ANCHOR_STREAMS,
                duration: ANCHOR_S,
                seed,
                slice: 30.0,
                workers: w,
            },
        )
        .map_err(|e| e.to_string())?;
        for id in 0..ANCHOR_STREAMS {
            steer(&mut fleet, id)?;
        }
        fleet.run();
        reports.push(fleet.stream_reports());
    }
    let mut fed = external(0..ANCHOR_STREAMS)?;
    for id in 0..ANCHOR_STREAMS {
        let samples = cohort::samples(seed, id, ANCHOR_S);
        for batch in samples.chunks(BATCH) {
            fed.push_rr_batch(id, batch).map_err(|e| e.to_string())?;
        }
    }
    let fed = fed.close_all();
    cohort::check_drain(&reports[0], &reports[1])
        .map_err(|e| format!("fleet_offline: run at {workers} workers vs 1: {e}"))?;
    cohort::check_drain(&fed, &reports[1])
        .map_err(|e| format!("fleet_offline: push_rr_batch path vs run: {e}"))
}

pub fn run(seed: u64, seconds: f64, trace: bool, prov: &mut Provenance) -> Result<Outcome, String> {
    let workers = prov.cores;
    prov.streams = STREAMS;
    prov.workers = workers;
    prov.offered = format!(
        "closed loop: {workers} fleets on {workers} threads, {BATCH}-sample push_rr_batch \
         round-robin over {STREAMS} streams"
    );
    let plain = pass(seed, workers, seconds, None)?;
    let rss_peak_mb = procfs::peak_rss_mb(std::process::id())?;
    check(seed, &plain, workers)?;
    // Window latency is a mix of clusters, one per kernel mode, so its
    // tails are taken per mode and averaged.
    let mut latencies = vec![vec![Vec::new(); plain.iv.count]; MODES];
    for fed in &plain.fed {
        for (class, log) in latencies.iter_mut().zip(&fed.latencies) {
            log.millis_into(class);
        }
    }
    let latency = stats::class_tail("window latency", &mut latencies, &plain.quiet())?;
    let ops: u64 = plain.reports.iter().map(|r| r.ops.total()).sum();
    let energy: f64 = plain.reports.iter().map(|r| r.energy_j).sum();
    let windows = plain.windows() as f64;
    let mut outcome = Outcome {
        attempted: plain.fed.iter().flat_map(|f| &f.batches).sum::<usize>() as u64,
        ..Outcome::default()
    };
    outcome.end_to_end = vec![
        Metric::new("setup_s", plain.setup_s, "s"),
        Metric::new("windows_per_s", plain.windows_per_s(), "1/s"),
        Metric::new("samples_per_s", plain.samples_per_s(), "1/s"),
        Metric::new("window_latency_p50_ms", latency.p50, "ms"),
        Metric::new("window_latency_p99_ms", latency.p99, "ms"),
        Metric::new("cpu_us_per_window", plain.cpu_us_per_window(), "us"),
        Metric::new("rss_peak_mb", rss_peak_mb, "MB"),
        Metric::new("ops_per_window", ops as f64 / windows, "ops"),
        Metric::new("energy_uj_per_window", energy / windows * 1e6, "uJ"),
    ];
    outcome.notes.push(format!(
        "{windows} windows on {workers} threads; {}",
        plain.at.describe(&plain.iv, latency.n)
    ));
    if !trace {
        return Ok(outcome);
    }

    let telemetry = Telemetry::new();
    let tracer = Tracer::monotonic();
    let start = Snapshot::parse(&telemetry.render());
    let traced = pass(seed, workers, seconds, Some((&telemetry, &tracer)))?;
    let delta = Delta::new(start, Snapshot::parse(&telemetry.render()));
    let compute = "hrv_stream_window_compute_seconds";
    for kernel in delta.label_values(compute, "kernel") {
        let keep = |labels: &str| label_value(labels, "kernel").as_deref() == Some(&kernel);
        outcome.layers.push(Metric::new(
            &format!("fleet.window_compute_us_mean.{}", metric_token(&kernel)),
            delta.mean_us_where(compute, &keep),
            "us",
        ));
    }
    let (builds, hits) = traced.setup.shards.iter().fold((0, 0), |(b, h), s| {
        let cache = s.fleet.kernel_cache();
        (b + cache.builds(), h + cache.hits())
    });
    outcome.layers.extend([
        Metric::new(
            "fleet.governor_us_mean",
            delta.mean_us("hrv_stream_governor_decision_seconds"),
            "us",
        ),
        Metric::new("exec.kernel_builds", builds as f64, "count"),
        Metric::new(
            "exec.kernel_hit_rate",
            hits as f64 / (hits + builds).max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "trace.overhead_pct",
            (plain.windows_per_s() / traced.windows_per_s() - 1.0) * 100.0,
            "%",
        ),
    ]);
    outcome.layers.extend(block_replay(seed, &traced, &tracer)?);
    crate::write_trace("fleet_offline", seed, "fleet", &tracer.chrome_trace())?;
    Ok(outcome)
}

/// One window as the sliding engine emitted it.
struct Emitted {
    start: f64,
    samples: usize,
    lf_hf_bits: u64,
    ops: OpCount,
}

/// Per-block wall time and op counts of replayed windows.
#[derive(Default)]
struct BlockTally {
    ns: MeanNs,
    ops: u64,
    windows: u64,
}

impl BlockTally {
    fn add(&mut self, ns: u128, ops: &OpCount) {
        self.ns.add(ns);
        self.ops += ops.total();
        self.windows += 1;
    }

    fn ops_per_window(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.ops as f64 / self.windows as f64
        }
    }
}

/// Times `f` [`REPLAY_REPS`] times and returns the fastest run's
/// nanoseconds with the last run's result.
fn fastest<T>(mut f: impl FnMut() -> T) -> (u128, T) {
    let mut best = u128::MAX;
    let mut out = None;
    for _ in 0..REPLAY_REPS {
        let started = Instant::now();
        let value = std::hint::black_box(f());
        best = best.min(started.elapsed().as_nanos());
        out = Some(value);
    }
    (best, out.expect("REPLAY_REPS > 0"))
}

/// Fig. 1(b) on the host: re-runs a seeded sample of the fleet's windows
/// through the public stage calls, timing each block beside its op
/// count. A replica engine per sampled stream must reproduce the fleet's
/// report, and every replayed LF/HF must equal the replica's bit for bit.
fn block_replay(seed: u64, pass: &Pass, tracer: &Tracer) -> Result<Vec<Metric>, String> {
    let plan = cohort::plan();
    let cache = KernelCache::new();
    let wd = plan.config().window_duration;
    let estimator = plan.estimator().with_span(wd);
    let n = plan.fft_len();
    let rfft = RealFft::new(n);
    let mut weight_spectrum = vec![Cx::ZERO; n / 2 + 1];
    weight_spectrum[0] = Cx::real(n as f64);

    let mut prepare = BlockTally::default();
    let mut extirpolate = BlockTally::default();
    let mut lomb = BlockTally::default();
    let mut bands = BlockTally::default();
    let mut fft: Vec<(String, BlockTally)> = Vec::new();
    let sampled = sample_streams(seed, REPLAY_STREAMS_PER_MODE);
    for (slot, mode) in ApproximationMode::ALL.into_iter().enumerate() {
        let backend = cache
            .backend_for_choice(&plan, &static_choice(mode))
            .map_err(|e| e.to_string())?;
        let fft_tally = {
            fft.push((backend.name().to_string(), BlockTally::default()));
            fft.len() - 1
        };
        for &id in &sampled[slot * REPLAY_STREAMS_PER_MODE..][..REPLAY_STREAMS_PER_MODE] {
            let _span = tracer.span("bench.block_replay_stream");
            // The replica: the fleet's engine wiring, fed the stream's
            // gated samples.
            let mut engine = SlidingLomb::from_plan(&plan, &cache).map_err(|e| e.to_string())?;
            if !backend.is_exact() {
                let index = engine.add_backend(backend.clone());
                engine.set_active_backend(index);
            }
            let mut scratch = StreamScratch::new();
            let mut ingest = RrIngest::new();
            let mut gated = Vec::new();
            let mut emitted = Vec::new();
            let mut ops = OpCount::default();
            let mut sink = |w: &WindowView<'_>| {
                emitted.push(Emitted {
                    start: w.start,
                    samples: w.samples,
                    lf_hf_bits: w.lf_hf_ratio().to_bits(),
                    ops: w.ops,
                });
                ops += w.ops;
            };
            let fed = batches_of(pass, id) * BATCH;
            for (t, rr) in pass.setup.cohort[id].slice(0..fed) {
                ingest.push_rr(t, rr);
                while let Some(sample) = ingest.pop() {
                    gated.push(sample);
                    engine.push(sample.0, sample.1, &mut scratch, &mut sink);
                }
            }
            let fleet = &pass.reports[id];
            if fleet.windows != emitted.len() as u64 || fleet.ops != ops {
                return Err(format!(
                    "block replay: replica of stream {id} emitted {} windows / {} ops, \
                     the fleet {} / {}",
                    emitted.len(),
                    ops.total(),
                    fleet.windows,
                    fleet.ops.total()
                ));
            }

            let mut mesh = MeshScratch::new();
            let (mut wk1, mut wk2) = (Vec::new(), Vec::new());
            let (mut first, mut second) = (Vec::new(), Vec::new());
            let (mut packed, mut work) = (Vec::new(), Vec::new());
            let (mut freqs, mut power) = (Vec::new(), Vec::new());
            let offset = splitmix64(seed ^ id as u64) as usize % emitted.len();
            for k in 0..REPLAY_WINDOWS.min(emitted.len()) {
                let w = &emitted[(offset + k * emitted.len() / REPLAY_WINDOWS) % emitted.len()];
                let from = gated.partition_point(|&(t, _)| t < w.start);
                let to = gated.partition_point(|&(t, _)| t < w.start + wd);
                let (times, values): (Vec<f64>, Vec<f64>) = gated[from..to]
                    .iter()
                    .map(|&(t, v)| (t - w.start, v))
                    .unzip();
                if times.len() != w.samples {
                    return Err(format!(
                        "block replay: stream {id} window at {} has {} samples, engine {}",
                        w.start,
                        times.len(),
                        w.samples
                    ));
                }
                let mut replayed = OpCount::default();
                let seg_var = sample_variance(&values);

                let mut ops = OpCount::default();
                let (ns, var) = fastest(|| {
                    ops = OpCount::default();
                    estimator.prepare_variance(&times, &values, &mut mesh, &mut ops)
                });
                prepare.add(ns, &ops);
                replayed += ops;

                let (ns, ()) = fastest(|| {
                    ops = OpCount::default();
                    estimator.meshes_into(&times, &values, &mut wk1, &mut wk2, &mut mesh, &mut ops)
                });
                extirpolate.add(ns, &ops);
                replayed += ops;

                let exact = backend.is_exact();
                let (ns, ()) = fastest(|| {
                    ops = OpCount::default();
                    if exact {
                        rfft.forward_into(&wk1, &mut first, &mut packed, &mut work, &mut ops);
                    } else {
                        fft_real_pair_into(
                            backend.as_ref(),
                            &wk1,
                            &wk2,
                            &mut first,
                            &mut second,
                            &mut packed,
                            &mut work,
                            &mut ops,
                        );
                    }
                });
                fft[fft_tally].1.add(ns, &ops);
                replayed += ops;

                let other: &[Cx] = if exact { &weight_spectrum } else { &second };
                let (ns, ()) = fastest(|| {
                    ops = OpCount::default();
                    estimator.combine_into(
                        &first, other, wd, w.samples, var, &mut freqs, &mut power, &mut ops,
                    );
                });
                lomb.add(ns, &ops);
                replayed += ops;

                let denorm = 2.0 * seg_var / w.samples as f64;
                for p in &mut power {
                    *p *= denorm;
                }
                let (ns, powers) = fastest(|| band_powers(&freqs, &power));
                bands.add(ns, &OpCount::default());
                if replayed != w.ops {
                    return Err(format!(
                        "block replay: stream {id} window at {} costs {} ops on replay, \
                         the engine {}",
                        w.start,
                        replayed.total(),
                        w.ops.total()
                    ));
                }
                if powers.lf_hf_ratio().to_bits() != w.lf_hf_bits {
                    return Err(format!(
                        "block replay: stream {id} window at {} gives LF/HF {} on replay, \
                         the engine {}",
                        w.start,
                        powers.lf_hf_ratio(),
                        f64::from_bits(w.lf_hf_bits)
                    ));
                }
            }
        }
    }

    let mut layers = vec![
        Metric::new("block.prepare_ns", prepare.ns.mean(), "ns"),
        Metric::new("block.extirpolate_ns", extirpolate.ns.mean(), "ns"),
        Metric::new("block.lomb_ns", lomb.ns.mean(), "ns"),
        Metric::new("block.bands_ns", bands.ns.mean(), "ns"),
        Metric::new("block.prepare_ops", prepare.ops_per_window(), "ops"),
        Metric::new("block.extirpolate_ops", extirpolate.ops_per_window(), "ops"),
        Metric::new("block.lomb_ops", lomb.ops_per_window(), "ops"),
    ];
    for (kernel, tally) in &fft {
        let token = metric_token(kernel);
        layers.push(Metric::new(
            &format!("block.fft_ns.{token}"),
            tally.ns.mean(),
            "ns",
        ));
        layers.push(Metric::new(
            &format!("block.fft_ops.{token}"),
            tally.ops_per_window(),
            "ops",
        ));
        layers.push(Metric::new(
            &format!("wfft.ns_per_op.{token}"),
            tally.ns.mean() / tally.ops_per_window(),
            "ns/op",
        ));
    }
    Ok(layers)
}

/// The splitmix64 step: a seeded, reproducible stream choice.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
