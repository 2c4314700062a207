//! Governor-layer equivalence and budget-loop integration tests.
//!
//! `hrv_core::DistortionGovernor` is the paper's Fig. 2 run-time
//! controller. The contract is **decision identity** with the original
//! online controller it was extracted from: the governor must reproduce
//! its switch sequence bit for bit. The traces below were recorded
//! against that controller (commit 67b3c6d) and are asserted verbatim —
//! if the decision logic ever drifts, these fail.
//!
//! The budget half closes the quality↔energy loop: sharded
//! budget-governed fleets must stay bit-identical to serial ones, and a
//! loose→tight budget sweep must spend monotonically less energy per
//! window while preserving LF/HF detection.

use hrv_psa::core::{
    ApproximationMode, DistortionGovernor, PruningPolicy, QualityController, QualityGovernor,
    SweepResult, TradeoffPoint, WindowObservation,
};
use hrv_psa::prelude::*;
use hrv_psa::stream::{FleetConfig, FleetScheduler, StreamBudget};

fn point(mode: ApproximationMode, err: f64, save: f64) -> TradeoffPoint {
    TradeoffPoint {
        mode,
        policy: PruningPolicy::Static,
        vfs: true,
        avg_ratio: 0.46,
        ratio_error_pct: err,
        energy_j: 1.0,
        savings_pct: save,
        cycle_ratio: 0.5,
        fft_cycle_ratio: 0.4,
        fft_savings_pct: save + 10.0,
        detection_rate: 1.0,
    }
}

fn sweep() -> SweepResult {
    SweepResult {
        conventional_ratio: 0.45,
        conventional_energy: 1.0,
        conventional_cycles: 1_000_000,
        points: vec![
            point(ApproximationMode::BandDrop, 2.0, 40.0),
            point(ApproximationMode::BandDropSet2, 4.0, 60.0),
            point(ApproximationMode::BandDropSet3, 8.0, 80.0),
        ],
    }
}

/// The deterministic LF/HF trace the legacy sequences were recorded on:
/// moderate error, a hard overrun burst (windows 100–139), then recovery.
fn trace_lf_hf(i: u64) -> f64 {
    let amp = if i < 100 {
        0.03
    } else if i < 140 {
        0.12
    } else {
        0.02
    };
    let sign = if i.is_multiple_of(3) { -1.0 } else { 1.0 };
    let jitter = ((i.wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f64 / (1u64 << 24) as f64) * 0.01;
    0.45 * (1.0 + sign * (amp + jitter))
}

/// Wire decision encoding of the recordings: 255 = exact fallback,
/// otherwise the approximation-mode index.
fn code(choice: Option<hrv_psa::core::OperatingChoice>) -> u8 {
    match choice.map(|c| c.mode) {
        None => 255,
        Some(ApproximationMode::Exact) => 0,
        Some(ApproximationMode::BandDrop) => 1,
        Some(ApproximationMode::BandDropSet1) => 2,
        Some(ApproximationMode::BandDropSet2) => 3,
        Some(ApproximationMode::BandDropSet3) => 4,
    }
}

/// One recorded legacy run: builder parameters plus the expected
/// (window, decision) switch sequence and final counters.
struct RecordedTrace {
    qdes: f64,
    audit_every: u64,
    dwell: Option<usize>,
    alpha: Option<f64>,
    windows: u64,
    switches: u64,
    audits: u64,
    estimate_pct: f64,
    sequence: &'static [(u64, u8)],
}

const TRACE_A: RecordedTrace = RecordedTrace {
    qdes: 5.0,
    audit_every: 4,
    dwell: None,
    alpha: None,
    windows: 300,
    switches: 2,
    audits: 75,
    estimate_pct: 2.625294071674,
    sequence: &[(0, 3), (101, 255), (183, 3)],
};

const TRACE_B: RecordedTrace = RecordedTrace {
    qdes: 8.0,
    audit_every: 2,
    dwell: Some(2),
    alpha: Some(1.0),
    windows: 300,
    switches: 3,
    audits: 150,
    estimate_pct: 2.174128592014,
    sequence: &[(0, 4), (101, 255), (142, 3), (144, 4)],
};

/// Replays one recorded trace through any decision function and returns
/// the observed switch sequence.
fn replay(
    trace: &RecordedTrace,
    initial: Option<hrv_psa::core::OperatingChoice>,
    mut observe: impl FnMut(f64, Option<f64>) -> Option<hrv_psa::core::OperatingChoice>,
) -> Vec<(u64, u8)> {
    let mut sequence = Vec::new();
    let mut last = code(initial);
    sequence.push((0u64, last));
    for i in 0..trace.windows {
        let exact = (i % trace.audit_every == 0).then_some(0.45);
        let decision = code(observe(trace_lf_hf(i), exact));
        if decision != last {
            sequence.push((i + 1, decision));
            last = decision;
        }
    }
    sequence
}

fn build_governor(trace: &RecordedTrace) -> DistortionGovernor {
    let mut governor =
        DistortionGovernor::new(QualityController::from_sweep(&sweep(), true), trace.qdes)
            .with_audit_period(trace.audit_every);
    if let Some(dwell) = trace.dwell {
        governor = governor.with_dwell(dwell);
    }
    if let Some(alpha) = trace.alpha {
        governor = governor.with_ewma_alpha(alpha);
    }
    governor
}

fn assert_trace(trace: &RecordedTrace) {
    let mut governor = build_governor(trace);
    let observed = replay(trace, governor.current(), |lf_hf, exact| {
        governor
            .observe_window(&WindowObservation::quality_only(lf_hf, exact))
            .choice
    });
    assert_eq!(observed, trace.sequence, "governor switch sequence");
    assert_eq!(governor.switches(), trace.switches);
    assert_eq!(governor.audits(), trace.audits);
    assert_eq!(governor.windows(), trace.windows);
    assert!(
        (governor.distortion_estimate_pct() - trace.estimate_pct).abs() < 1e-9,
        "estimate {} vs recorded {}",
        governor.distortion_estimate_pct(),
        trace.estimate_pct
    );
}

#[test]
fn distortion_governor_reproduces_recorded_legacy_trace_a() {
    assert_trace(&TRACE_A);
}

#[test]
fn distortion_governor_reproduces_recorded_legacy_trace_b() {
    assert_trace(&TRACE_B);
}

#[test]
fn budget_governed_shards_match_serial() {
    let budget = StreamBudget::per_interval(2e-2, 4).with_battery(50.0, 1e-5);
    let run = |workers: usize| {
        let mut scheduler = FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams: 8,
                duration: 420.0,
                seed: 11,
                slice: 60.0,
                workers,
            },
        )
        .expect("fleet")
        .with_energy_budget(None, budget)
        .expect("budget");
        let report = scheduler.run();
        (report, scheduler.stream_reports())
    };
    let (serial, serial_streams) = run(1);
    assert_eq!(serial.governed_streams, 8);
    assert!(serial.charged_energy_j > 0.0);
    assert!(serial.battery_charge_j > 0.0);
    for workers in [2, 4] {
        let (sharded, sharded_streams) = run(workers);
        assert_eq!(sharded.windows, serial.windows, "{workers} workers");
        assert_eq!(sharded.total_ops, serial.total_ops);
        assert_eq!(sharded.arrhythmia_windows, serial.arrhythmia_windows);
        assert_eq!(sharded.controller_switches, serial.controller_switches);
        assert_eq!(
            sharded.charged_energy_j.to_bits(),
            serial.charged_energy_j.to_bits(),
            "per-stream energy must aggregate id-ordered"
        );
        assert_eq!(
            sharded.battery_charge_j.to_bits(),
            serial.battery_charge_j.to_bits()
        );
        assert_eq!(sharded_streams, serial_streams, "{workers} workers");
    }
}

#[test]
fn budget_sweep_is_monotone_and_preserves_detection() {
    // The ungoverned reference: every window at the nominal rail.
    let reference = FleetScheduler::new(
        PsaConfig::conventional(),
        FleetConfig {
            streams: 6,
            duration: 420.0,
            seed: 5,
            slice: 60.0,
            workers: 1,
        },
    )
    .expect("fleet")
    .run();
    assert!(reference.arrhythmia_windows > 0, "cohort has arrhythmia");

    // Loose → tight joule budgets per 4-window interval.
    let mut last_energy_per_window = f64::INFINITY;
    for budget_j in [1.0, 8e-3, 4e-3, 2.5e-3, 1.7e-3] {
        let mut scheduler = FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams: 6,
                duration: 420.0,
                seed: 5,
                slice: 60.0,
                workers: 1,
            },
        )
        .expect("fleet")
        .with_energy_budget(None, StreamBudget::per_interval(budget_j, 4))
        .expect("budget");
        let report = scheduler.run();
        let energy_per_window = report.charged_energy_per_window();
        assert!(
            energy_per_window <= last_energy_per_window + 1e-15,
            "budget {budget_j}: {energy_per_window} > {last_energy_per_window}"
        );
        assert_eq!(
            report.windows, reference.windows,
            "budget {budget_j}: governed fleet must analyse every window"
        );
        assert_eq!(
            report.arrhythmia_windows, reference.arrhythmia_windows,
            "budget {budget_j}: LF/HF detection must be preserved"
        );
        last_energy_per_window = energy_per_window;
    }
    // The sweep actually exercised the ladder: the tightest budget spends
    // materially less than the loosest.
    assert!(
        last_energy_per_window < 0.5 * reference.charged_energy_per_window(),
        "tight budget {} vs nominal {}",
        last_energy_per_window,
        reference.charged_energy_per_window()
    );
}

#[test]
fn depleting_battery_forces_the_governor_down_the_ladder() {
    // A tiny battery with no harvest: as it drains, the effective budget
    // shrinks and the governor must walk down the rail — ending with a
    // (much) lower charged energy than the same fleet on a huge battery.
    let run = |capacity: f64| {
        let mut scheduler = FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams: 2,
                duration: 420.0,
                seed: 3,
                slice: 60.0,
                workers: 1,
            },
        )
        .expect("fleet")
        .with_energy_budget(
            None,
            StreamBudget::per_interval(1e-2, 4).with_battery(capacity, 0.0),
        )
        .expect("budget");
        scheduler.run()
    };
    let plentiful = run(1000.0);
    let scarce = run(8e-3);
    assert_eq!(plentiful.windows, scarce.windows);
    assert!(
        scarce.charged_energy_j < plentiful.charged_energy_j,
        "scarce {} vs plentiful {}",
        scarce.charged_energy_j,
        plentiful.charged_energy_j
    );
    assert!(scarce.controller_switches > 0, "the governor reacted");
}
