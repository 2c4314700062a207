//! Streaming ↔ batch equivalence and online-controller guarantees.
//!
//! The contract of `hrv-stream`: feeding an RR series one sample at a time
//! through `SlidingLomb` yields the same segments (start, sample count,
//! spectrum within 1e-9) as batch `WelchLomb`, while spending fewer
//! operations per window; and the online `DistortionGovernor` keeps the
//! observed LF/HF distortion within the caller's Q_DES on the seeded
//! cohort.

use hrv_psa::core::{
    energy_quality_sweep, ApproximationMode, DistortionGovernor, KernelCache, NodeModel,
    PruningPolicy, PsaConfig, PsaSystem, QualityController, QualityGovernor, SpectralPlan,
    WindowObservation,
};
use hrv_psa::dsp::{BlockOps, OpCount, SplitRadixFft};
use hrv_psa::ecg::{Condition, SyntheticDatabase};
use hrv_psa::lomb::{FastLomb, WelchLomb, MIN_WINDOW_SAMPLES};
use hrv_psa::prelude::{FleetConfig, FleetScheduler};
use hrv_psa::stream::{SlidingLomb, StreamScratch, WindowView};
use hrv_psa::wavelet::WaveletBasis;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic RR series with LF and HF content, parameterised so
/// proptest can explore amplitudes, frequencies and duration.
fn rr_series(
    duration: f64,
    hf_amp: f64,
    lf_amp: f64,
    hf_freq: f64,
    seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
    let mut t = 0.0;
    let (mut times, mut values) = (Vec::new(), Vec::new());
    while t < duration {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let noise = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.012;
        let rr = 0.85
            + hf_amp * (2.0 * std::f64::consts::PI * hf_freq * t).sin()
            + lf_amp * (2.0 * std::f64::consts::PI * 0.09 * t).sin()
            + noise;
        t += rr;
        times.push(t);
        values.push(rr);
    }
    (times, values)
}

/// Runs the full series through a streaming engine one sample at a time
/// and collects the emitted segments.
fn stream_all(
    engine: &mut SlidingLomb,
    times: &[f64],
    values: &[f64],
) -> Vec<(f64, usize, Vec<f64>)> {
    let mut scratch = StreamScratch::new();
    let mut got = Vec::new();
    let mut sink = |w: &WindowView<'_>| got.push((w.start, w.samples, w.power.to_vec()));
    for (&t, &v) in times.iter().zip(values) {
        engine.push(t, v, &mut scratch, &mut sink);
    }
    engine.finish(&mut scratch, &mut sink);
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The headline equivalence property on the paper's resampling front
    // end: identical windowing, spectra within 1e-9.
    #[test]
    fn streaming_equals_batch_on_paper_front_end(
        seed in 0.0f64..1000.0,
        hf_amp in 0.03f64..0.07,
        lf_amp in 0.01f64..0.04,
        hf_freq in 0.2f64..0.35,
        duration in 300.0f64..700.0,
    ) {
        let (times, values) = rr_series(duration, hf_amp, lf_amp, hf_freq, seed as u64);
        let estimator = FastLomb::new(512, 2.0).with_resampled_mesh().with_max_freq(0.5);
        let welch = WelchLomb::new(estimator.clone(), 120.0, 0.5);
        let batch = welch.process(
            &SplitRadixFft::new(512), &times, &values, &mut OpCount::default(),
        );
        let mut engine = SlidingLomb::new(
            estimator, 120.0, 0.5, Arc::new(SplitRadixFft::new(512)),
        );
        let got = stream_all(&mut engine, &times, &values);
        prop_assert_eq!(got.len(), batch.segments().len());
        for (stream, reference) in got.iter().zip(batch.segments()) {
            prop_assert!((stream.0 - reference.start).abs() < 1e-9);
            prop_assert_eq!(stream.1, reference.samples);
            prop_assert_eq!(stream.2.len(), reference.periodogram.len());
            for (a, b) in stream.2.iter().zip(reference.periodogram.power()) {
                prop_assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "spectrum diverged: {} vs {}", a, b
                );
            }
        }
    }

    // The same property on the extirpolation front end (the ablation
    // path): here the streaming engine runs the bit-identical batch
    // pipeline, so the match is essentially exact.
    #[test]
    fn streaming_equals_batch_on_extirpolated_front_end(
        seed in 0.0f64..1000.0,
        duration in 300.0f64..500.0,
    ) {
        let (times, values) = rr_series(duration, 0.05, 0.02, 0.25, seed as u64);
        let estimator = FastLomb::new(256, 2.0).with_max_freq(0.5);
        let welch = WelchLomb::new(estimator.clone(), 100.0, 0.5);
        let batch = welch.process(
            &SplitRadixFft::new(256), &times, &values, &mut OpCount::default(),
        );
        let mut engine = SlidingLomb::new(
            estimator, 100.0, 0.5, Arc::new(SplitRadixFft::new(256)),
        );
        let got = stream_all(&mut engine, &times, &values);
        prop_assert_eq!(got.len(), batch.segments().len());
        for (stream, reference) in got.iter().zip(batch.segments()) {
            prop_assert_eq!(stream.1, reference.samples);
            for (a, b) in stream.2.iter().zip(reference.periodogram.power()) {
                prop_assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0));
            }
        }
    }
}

/// A sensor gap that leaves one window with fewer than
/// `MIN_WINDOW_SAMPLES` beats: batch and streaming analysis share that
/// skip rule, so both drop the same window and agree on all the others.
#[test]
fn sparse_window_is_skipped_by_batch_and_stream_alike() {
    let (full_times, full_values) = rr_series(600.0, 0.05, 0.02, 0.25, 7);
    // Windows start at the first beat and advance by 60 s; keep only the
    // first and last 4 s of the window starting 180 s in.
    let sparse = full_times[0] + 180.0;
    let (times, values): (Vec<f64>, Vec<f64>) = full_times
        .iter()
        .zip(&full_values)
        .filter(|(&t, _)| !(sparse + 4.0..sparse + 116.0).contains(&t))
        .unzip();
    let in_window = |start: f64| {
        times
            .iter()
            .filter(|&&t| (start..start + 120.0).contains(&t))
            .count()
    };
    assert!((1..MIN_WINDOW_SAMPLES).contains(&in_window(sparse)));
    assert!(in_window(sparse - 60.0) >= MIN_WINDOW_SAMPLES);
    assert!(in_window(sparse + 60.0) >= MIN_WINDOW_SAMPLES);

    let estimator = FastLomb::new(512, 2.0)
        .with_resampled_mesh()
        .with_max_freq(0.5);
    let welch = WelchLomb::new(estimator.clone(), 120.0, 0.5);
    let batch = welch.process(
        &SplitRadixFft::new(512),
        &times,
        &values,
        &mut OpCount::default(),
    );
    let starts: Vec<f64> = batch.segments().iter().map(|s| s.start).collect();
    assert!(starts.iter().all(|&s| (s - sparse).abs() > 1e-9));
    assert!(starts.iter().any(|&s| (s - (sparse - 60.0)).abs() < 1e-9));
    assert!(starts.iter().any(|&s| (s - (sparse + 60.0)).abs() < 1e-9));

    let mut engine = SlidingLomb::new(estimator, 120.0, 0.5, Arc::new(SplitRadixFft::new(512)));
    let got = stream_all(&mut engine, &times, &values);
    assert_eq!(got.len(), batch.segments().len());
    for (stream, reference) in got.iter().zip(batch.segments()) {
        assert!((stream.0 - reference.start).abs() < 1e-9);
        assert_eq!(stream.1, reference.samples);
        assert_eq!(stream.2.len(), reference.periodogram.len());
        for (a, b) in stream.2.iter().zip(reference.periodogram.power()) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }
}

/// The incremental engine must beat the batch recompute on ops per window
/// (weight-spectrum reuse + half-length data FFT).
#[test]
fn incremental_ops_per_window_beat_batch() {
    let (times, values) = rr_series(1800.0, 0.05, 0.02, 0.25, 42);
    let estimator = FastLomb::new(512, 2.0)
        .with_resampled_mesh()
        .with_max_freq(0.5);
    let welch = WelchLomb::new(estimator.clone(), 120.0, 0.5);
    let mut batch_blocks = BlockOps::new();
    let batch =
        welch.process_profiled(&SplitRadixFft::new(512), &times, &values, &mut batch_blocks);
    let mut engine = SlidingLomb::new(estimator, 120.0, 0.5, Arc::new(SplitRadixFft::new(512)));
    let got = stream_all(&mut engine, &times, &values);
    assert_eq!(got.len(), batch.segments().len());
    let windows = got.len() as f64;
    let batch_per_window = batch_blocks.grand_total().arithmetic() as f64 / windows;
    let stream_per_window = engine.blocks().grand_total().arithmetic() as f64 / windows;
    assert!(
        stream_per_window < 0.85 * batch_per_window,
        "incremental {stream_per_window:.0} ops/window vs batch {batch_per_window:.0}"
    );
}

/// Satellite guarantee: on the seeded cohort, an online-controlled stream
/// never exceeds the caller's Q_DES — the hour-average LF/HF ratio of the
/// controlled stream stays within Q_DES of the exact system's.
#[test]
fn online_controller_respects_qdes_on_seeded_cohort() {
    let qdes_pct = 5.0;
    let db = SyntheticDatabase::new(2014);
    let cohort: Vec<_> = (0..6)
        .map(|id| db.record(id, Condition::SinusArrhythmia, 600.0).rr)
        .collect();
    let sweep = energy_quality_sweep(
        &cohort,
        WaveletBasis::Haar,
        &NodeModel::default(),
        &PsaConfig::conventional(),
    )
    .expect("sweep");
    let exact_system = PsaSystem::new(PsaConfig::conventional()).expect("valid");

    // One plan + one kernel cache serve every stream of the cohort: each
    // distinct operating choice is built exactly once below.
    let plan = SpectralPlan::calibrated(PsaConfig::conventional(), &cohort).expect("plan");
    let cache = KernelCache::new();

    for rr in &cohort {
        let mut engine = SlidingLomb::from_plan(&plan, &cache).expect("valid");
        let mut controller =
            DistortionGovernor::new(QualityController::from_sweep(&sweep, true), qdes_pct)
                .with_audit_period(4);
        // Install a kernel per controller choice — cache lookups after the
        // first stream.
        let mapping: Vec<_> = QualityController::from_sweep(&sweep, true)
            .choices()
            .iter()
            .map(|c| {
                let backend = cache.backend_for_choice(&plan, c).expect("buildable");
                (*c, engine.add_backend(backend))
            })
            .collect();
        if let Some(start) = controller.current() {
            let idx = mapping.iter().find(|(c, _)| *c == start).map(|(_, i)| *i);
            engine.set_active_backend(idx.unwrap_or(0));
        }

        let mut scratch = StreamScratch::new();
        let mut decisions: Vec<Option<hrv_psa::core::OperatingChoice>> = Vec::new();
        for (&t, &v) in rr.times().iter().zip(rr.intervals()) {
            let mut decision = None;
            let mut audit = false;
            {
                let mut sink = |w: &WindowView<'_>| {
                    let obs = WindowObservation::quality_only(w.lf_hf_ratio(), w.exact_lf_hf);
                    decision = Some(controller.observe_window(&obs).choice);
                    audit = audit || controller.should_audit();
                };
                engine.push(t, v, &mut scratch, &mut sink);
            }
            if let Some(choice) = decision {
                let idx = choice
                    .and_then(|c| mapping.iter().find(|(k, _)| *k == c).map(|(_, i)| *i))
                    .unwrap_or(0);
                engine.set_active_backend(idx);
                decisions.push(choice);
            }
            if audit {
                engine.request_audit();
            }
        }
        engine.finish(&mut scratch, &mut |_| {});

        // Every configuration the controller ever selected promised a
        // distortion within the budget.
        for choice in decisions.into_iter().flatten() {
            assert!(choice.expected_error_pct <= qdes_pct);
        }
        // And the realised hour-average distortion stays within Q_DES.
        let exact_ratio = exact_system.analyze(rr).expect("analysis").lf_hf_ratio();
        let streamed_ratio = {
            let avg = engine.averaged().expect("windows emitted");
            let powers = hrv_psa::lomb::BandPowers::of(&avg);
            powers.lf_hf_ratio()
        };
        let err_pct = 100.0 * (streamed_ratio - exact_ratio).abs() / exact_ratio.abs();
        assert!(
            err_pct <= qdes_pct,
            "controlled stream distortion {err_pct:.2}% exceeds Q_DES {qdes_pct}%"
        );
    }

    // Six streams, each installing every operating choice: every kernel
    // was still built at most once.
    let distinct = QualityController::from_sweep(&sweep, true).choices().len() as u64 + 1;
    assert!(
        cache.builds() <= distinct,
        "{} builds for {} distinct kernels",
        cache.builds(),
        distinct
    );
    assert!(cache.hits() > cache.builds());
}

/// Acceptance guarantee of the execution layer: once the kernel cache is
/// warm, repeated `DistortionGovernor` switches perform **zero**
/// kernel builds — a switch is a cache lookup.
#[test]
fn warm_kernel_cache_switches_without_builds() {
    use hrv_psa::core::{SweepResult, TradeoffPoint};
    let point = |mode, policy, err: f64, save: f64| TradeoffPoint {
        mode,
        policy,
        vfs: true,
        avg_ratio: 0.46,
        ratio_error_pct: err,
        energy_j: 1.0,
        savings_pct: save,
        cycle_ratio: 0.5,
        fft_cycle_ratio: 0.4,
        fft_savings_pct: save + 10.0,
        detection_rate: 1.0,
    };
    // A sweep with known expectations, so the oscillating evidence below
    // provably drives the controller through exact → BandDrop → Set2
    // cycles.
    let sweep = SweepResult {
        conventional_ratio: 0.45,
        conventional_energy: 1.0,
        conventional_cycles: 1_000_000,
        points: vec![
            point(
                ApproximationMode::BandDrop,
                PruningPolicy::Static,
                2.0,
                40.0,
            ),
            point(
                ApproximationMode::BandDropSet2,
                PruningPolicy::Static,
                4.0,
                60.0,
            ),
            point(
                ApproximationMode::BandDropSet2,
                PruningPolicy::Dynamic,
                3.5,
                55.0,
            ),
            point(
                ApproximationMode::BandDropSet3,
                PruningPolicy::Static,
                8.0,
                80.0,
            ),
        ],
    };
    let db = SyntheticDatabase::new(2014);
    let cohort: Vec<_> = (0..2)
        .map(|id| db.record(id, Condition::SinusArrhythmia, 300.0).rr)
        .collect();
    let plan = SpectralPlan::calibrated(PsaConfig::conventional(), &cohort).expect("plan");
    let cache = KernelCache::new();
    let inner = QualityController::from_sweep(&sweep, true);

    // Warm-up: resolve every operating choice (and the exact fallback)
    // once.
    for choice in inner.choices() {
        cache.backend_for_choice(&plan, choice).expect("buildable");
    }
    cache.exact(plan.fft_len());
    let builds_after_warmup = cache.builds();
    assert_eq!(builds_after_warmup, 5, "4 choices + the exact fallback");

    // Drive the controller through oscillating evidence so it actually
    // switches, resolving its decision through the cache every window —
    // the fleet's per-window path.
    let mut controller = DistortionGovernor::new(inner, 5.0)
        .with_audit_period(1)
        .with_dwell(2)
        .with_ewma_alpha(1.0);
    let mut resolved = 0u64;
    for i in 0..300 {
        let exact = 0.45;
        // A mild overrun (8 % > Q_DES) every 20 windows forces the exact
        // fallback; clean audits in between re-enter approximation.
        let observed = if i % 20 == 0 { 0.45 * 1.08 } else { 0.45 };
        let decision = controller
            .observe_window(&WindowObservation::quality_only(observed, Some(exact)))
            .choice;
        let kernel = match decision {
            Some(choice) => cache.backend_for_choice(&plan, &choice).expect("cached"),
            None => cache.exact(plan.fft_len()),
        };
        assert_eq!(kernel.len(), 512);
        resolved += 1;
    }
    assert!(
        controller.switches() >= 4,
        "evidence must force switches, got {}",
        controller.switches()
    );
    assert_eq!(
        cache.builds(),
        builds_after_warmup,
        "a warm cache must perform zero kernel builds across switches"
    );
    assert!(cache.hits() >= resolved);
}

/// The fleet sustains 1000 concurrent streams through one shared scratch
/// slot and **one** kernel build, with per-stream results identical to
/// batch analysis.
#[test]
fn fleet_sustains_1000_streams() {
    let mut scheduler = FleetScheduler::new(
        PsaConfig::conventional(),
        FleetConfig {
            streams: 1000,
            duration: 300.0,
            seed: 5,
            slice: 60.0,
            workers: 1,
        },
    )
    .expect("valid fleet");
    let report = scheduler.run();
    assert_eq!(report.streams, 1000);
    // 300 s of data, 120 s windows, 60 s hop → ~3-4 windows per stream.
    assert!(report.windows >= 3000, "only {} windows", report.windows);
    assert_eq!(report.scratch_slots, 1, "one shared scratch slot suffices");
    assert_eq!(
        report.kernel_builds, 1,
        "1000 engines must share one cached kernel"
    );
    assert!(report.realtime_factor() > 100.0);
    // Spot-check one patient against the batch system.
    let record = SyntheticDatabase::new(5).record(0, Condition::SinusArrhythmia, 300.0);
    let analysis = PsaSystem::new(PsaConfig::conventional())
        .expect("valid")
        .analyze(&record.rr)
        .expect("analysis");
    assert!(analysis.per_window.len() >= 3);
}

/// The seeded 1000-stream cohort processed by a sharded fleet (≥ 2
/// workers) is bit-identical to the serial scheduler's result.
#[test]
fn sharded_fleet_matches_serial_on_seeded_cohort() {
    let fleet = |workers: usize| {
        FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams: 200,
                duration: 300.0,
                seed: 5,
                slice: 60.0,
                workers,
            },
        )
        .expect("valid fleet")
        .run()
    };
    let serial = fleet(1);
    for workers in [2, 4] {
        let sharded = fleet(workers);
        assert_eq!(sharded.workers, workers);
        assert_eq!(
            sharded.scratch_slots, workers,
            "one scratch arena per worker"
        );
        assert_eq!(sharded.windows, serial.windows);
        assert_eq!(sharded.arrhythmia_windows, serial.arrhythmia_windows);
        assert_eq!(sharded.total_ops, serial.total_ops);
        assert_eq!(sharded.cycles, serial.cycles);
        assert_eq!(sharded.energy_j, serial.energy_j, "{workers} workers");
        assert_eq!(sharded.stream_seconds, serial.stream_seconds);
    }
}

/// Mixed pruned/exact streaming: a static Set3 stream still flags the
/// arrhythmia cohort (the paper's headline claim, live).
#[test]
fn pruned_streaming_preserves_detection() {
    let record = SyntheticDatabase::new(2014).record(0, Condition::SinusArrhythmia, 480.0);
    let mut engine = SlidingLomb::from_config(&PsaConfig::proposed(
        WaveletBasis::Haar,
        ApproximationMode::BandDropSet3,
        PruningPolicy::Static,
    ))
    .expect("valid");
    let mut scratch = StreamScratch::new();
    let mut flagged = 0usize;
    let mut windows = 0usize;
    let mut sink = |w: &WindowView<'_>| {
        windows += 1;
        if w.lf_hf_ratio() < 1.0 {
            flagged += 1;
        }
    };
    for (&t, &v) in record.rr.times().iter().zip(record.rr.intervals()) {
        engine.push(t, v, &mut scratch, &mut sink);
    }
    engine.finish(&mut scratch, &mut sink);
    assert!(windows > 0);
    assert!(
        flagged * 2 > windows,
        "pruned stream lost detection: {flagged}/{windows}"
    );
}
