//! Streaming-subsystem benchmark: incremental vs batch ops per window,
//! fleet throughput at 1 and N concurrent streams, and the zero-allocation
//! steady-state guarantee on every approximation mode's kernel (measured
//! with a counting global allocator; any steady-state allocation exits
//! non-zero).
//!
//! Run with: `cargo run --release -p hrv-bench --bin fleet_throughput`
//! Environment knobs (for CI smoke runs):
//!   HRV_FLEET_STREAMS  concurrent streams in the fleet phase (default 1000)
//!   HRV_FLEET_SECONDS  seconds of RR data per stream     (default 600)
//!   HRV_FLEET_WORKERS  comma list of shard counts to run  (default 1,2,4)

use hrv_core::{
    ApproximationMode, KernelCache, OperatingChoice, PruningPolicy, PsaConfig, SpectralPlan,
    Telemetry,
};
use hrv_dsp::{BlockOps, SplitRadixFft};
use hrv_ecg::{Condition, SyntheticDatabase};
use hrv_lomb::{FastLomb, WelchLomb};
use hrv_stream::{FleetConfig, FleetScheduler, SlidingLomb, StreamBudget, StreamScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counts every heap allocation so the steady-state claim is measured, not
/// asserted.
///
/// The `unsafe` below is the only unsafe code in the workspace (every
/// library crate is `#![forbid(unsafe_code)]`): implementing
/// [`GlobalAlloc`] requires it by signature. Each method delegates
/// straight to [`System`] after bumping a counter, adding no invariants
/// of its own.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Comma-separated shard counts, e.g. `HRV_FLEET_WORKERS=1,2,4`.
fn env_workers(default: &[usize]) -> Vec<usize> {
    std::env::var("HRV_FLEET_WORKERS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|w| w.trim().parse().ok())
                .filter(|&w| w > 0)
                .collect()
        })
        .filter(|ws: &Vec<usize>| !ws.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn main() {
    let streams = env_usize("HRV_FLEET_STREAMS", 1000);
    let seconds = env_usize("HRV_FLEET_SECONDS", 600) as f64;
    let worker_counts = env_workers(&[1, 2, 4]);

    // ---- single stream: incremental vs batch ------------------------------
    let record = SyntheticDatabase::new(2014).record(0, Condition::SinusArrhythmia, 3600.0);
    let times = record.rr.times().to_vec();
    let values = record.rr.intervals().to_vec();
    let estimator = FastLomb::new(512, 2.0)
        .with_resampled_mesh()
        .with_max_freq(0.5);

    let welch = WelchLomb::new(estimator.clone(), 120.0, 0.5);
    let mut batch_blocks = BlockOps::new();
    let batch_started = Instant::now();
    let batch =
        welch.process_profiled(&SplitRadixFft::new(512), &times, &values, &mut batch_blocks);
    let batch_wall = batch_started.elapsed().as_secs_f64();
    let batch_windows = batch.segments().len() as u64;
    let batch_ops_per_window = batch_blocks.grand_total().arithmetic() / batch_windows;

    let mut engine = SlidingLomb::new(estimator, 120.0, 0.5, Arc::new(SplitRadixFft::new(512)));
    let mut scratch = StreamScratch::new();
    let mut stream_windows = 0u64;
    let stream_started = Instant::now();
    let mut sink = |_: &hrv_stream::WindowView<'_>| stream_windows += 1;
    for (&t, &v) in times.iter().zip(&values) {
        engine.push(t, v, &mut scratch, &mut sink);
    }
    engine.finish(&mut scratch, &mut sink);
    let stream_wall = stream_started.elapsed().as_secs_f64();
    let stream_ops_per_window = engine.blocks().grand_total().arithmetic() / stream_windows;

    println!("== single stream, 1 h recording, paper configuration ==\n");
    println!(
        "{:<28} {:>10} {:>14} {:>12}",
        "mode", "windows", "ops/window", "windows/s"
    );
    println!(
        "{:<28} {:>10} {:>14} {:>12.0}",
        "batch WelchLomb",
        batch_windows,
        batch_ops_per_window,
        batch_windows as f64 / batch_wall
    );
    println!(
        "{:<28} {:>10} {:>14} {:>12.0}",
        "incremental SlidingLomb",
        stream_windows,
        stream_ops_per_window,
        stream_windows as f64 / stream_wall
    );
    println!(
        "\nincremental saves {:.1}% ops/window (weight-spectrum reuse + half-length data FFT)\n",
        100.0 * (1.0 - stream_ops_per_window as f64 / batch_ops_per_window as f64)
    );

    // ---- steady-state allocation audit ------------------------------------
    // One engine per approximation mode, wired as the fleet wires it (the
    // plan's engine plus the mode's cached kernel made active), fed the
    // first half of the recording to warm its buffers; the second half
    // must then allocate nothing, whichever kernel computes the spectra.
    println!("== steady-state allocation audit (counting global allocator) ==\n");
    println!(
        "{:<16} {:<30} {:>10} {:>12} {:>12}",
        "mode", "kernel", "windows", "allocations", "per window"
    );
    let plan = SpectralPlan::new(PsaConfig::conventional()).expect("paper configuration");
    let cache = KernelCache::new();
    let half = times.len() / 2;
    let mut allocating = Vec::new();
    for mode in ApproximationMode::ALL {
        let backend = cache
            .backend_for_choice(
                &plan,
                &OperatingChoice {
                    mode,
                    policy: PruningPolicy::Static,
                    vfs: false,
                    expected_error_pct: 0.0,
                    expected_savings_pct: 0.0,
                },
            )
            .expect("static kernel");
        let mut engine = SlidingLomb::from_plan(&plan, &cache).expect("paper engine");
        if !backend.is_exact() {
            let index = engine.add_backend(backend.clone());
            engine.set_active_backend(index);
        }
        let mut scratch = StreamScratch::new();
        let mut sink = |_: &hrv_stream::WindowView<'_>| {};
        for (&t, &v) in times[..half].iter().zip(&values[..half]) {
            engine.push(t, v, &mut scratch, &mut sink);
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut steady_windows = 0u64;
        let mut sink = |_: &hrv_stream::WindowView<'_>| steady_windows += 1;
        for (&t, &v) in times[half..].iter().zip(&values[half..]) {
            engine.push(t, v, &mut scratch, &mut sink);
        }
        let steady_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        println!(
            "{:<16} {:<30} {:>10} {:>12} {:>12.3}",
            mode.to_string(),
            backend.name(),
            steady_windows,
            steady_allocs,
            steady_allocs as f64 / steady_windows.max(1) as f64
        );
        if steady_allocs > 0 {
            allocating.push(mode);
        }
    }
    println!();
    if !allocating.is_empty() {
        eprintln!("steady-state heap allocations on the {allocating:?} kernels: expected none");
        std::process::exit(1);
    }

    // ---- fleet phase: sharded workers over one shared kernel cache --------
    println!("== fleet: {streams} concurrent streams x {seconds:.0} s ==\n");
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>14} {:>14} {:>12}",
        "workers", "windows", "windows/s", "win/s/shard", "kernel builds", "cache hits", "hit rate"
    );
    // Shard-parity fingerprint: everything the report derives from the
    // per-window results must be identical at every worker count.
    let parity =
        |r: &hrv_stream::FleetReport| (r.windows, r.total_ops, r.energy_j, r.arrhythmia_windows);
    let mut serial_parity = None;
    // The detailed per-run stats flow through the shared Telemetry
    // registry — the same path the hrv-service gateway exposes over the
    // wire — instead of ad-hoc println! plumbing.
    let telemetry = Telemetry::new();
    for &workers in &worker_counts {
        let mut scheduler = FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams,
                duration: seconds,
                seed: 2014,
                slice: 60.0,
                workers,
            },
        )
        .expect("valid fleet");
        let report = scheduler.run();
        println!(
            "{:>8} {:>10} {:>12.0} {:>14.0} {:>14} {:>14} {:>11.1}%",
            report.workers,
            report.windows,
            report.windows_per_sec(),
            report.windows_per_sec() / report.workers as f64,
            report.kernel_builds,
            report.kernel_hits,
            100.0 * report.kernel_hit_rate()
        );
        match &serial_parity {
            None => serial_parity = Some(parity(&report)),
            Some(expect) => assert_eq!(
                &parity(&report),
                expect,
                "sharded run must be batch-identical to serial"
            ),
        }
        if workers == *worker_counts.first().expect("non-empty") {
            report.publish(&telemetry);
            scheduler.kernel_cache().publish(&telemetry);
            telemetry
                .gauge(
                    "hrv_fleet_scratch_arenas",
                    "scratch arenas in use (one per worker shard)",
                )
                .set(report.scratch_slots as f64);
        }
    }
    println!(
        "\n== telemetry of the {}-worker run (shared Prometheus exposition) ==\n",
        worker_counts.first().expect("non-empty")
    );
    println!("{}", telemetry.render());

    // ---- quality-controlled fleet: switches are cache lookups --------------
    // Every stream carries an online controller; every operating choice of
    // the design-time sweep resolves to one cached kernel, so kernel
    // builds stay flat however many streams run or switches happen.
    let db = SyntheticDatabase::new(2014);
    let cohort: Vec<_> = (0..3)
        .map(|id| db.record(id, Condition::SinusArrhythmia, 360.0).rr)
        .collect();
    let sweep = hrv_core::energy_quality_sweep(
        &cohort,
        hrv_wavelet::WaveletBasis::Haar,
        &hrv_core::NodeModel::default(),
        &PsaConfig::conventional(),
    )
    .expect("sweep");
    println!("\n== quality-controlled fleet (Q_DES = 5%): {streams} streams x {seconds:.0} s ==\n");
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>14} {:>14} {:>12}",
        "workers", "windows", "windows/s", "switches", "kernel builds", "cache hits", "hit rate"
    );
    let mut qc_serial_parity = None;
    for &workers in &worker_counts {
        let mut scheduler = FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams,
                duration: seconds,
                seed: 2014,
                slice: 60.0,
                workers,
            },
        )
        .expect("valid fleet")
        .with_training(&cohort)
        .expect("training")
        .with_quality_control(&sweep, 5.0);
        let report = scheduler.run();
        println!(
            "{:>8} {:>10} {:>12.0} {:>10} {:>14} {:>14} {:>11.1}%",
            report.workers,
            report.windows,
            report.windows_per_sec(),
            report.controller_switches,
            report.kernel_builds,
            report.kernel_hits,
            100.0 * report.kernel_hit_rate()
        );
        let fingerprint = (parity(&report), report.controller_switches);
        match &qc_serial_parity {
            None => qc_serial_parity = Some(fingerprint),
            Some(expect) => assert_eq!(
                &fingerprint, expect,
                "quality-controlled sharded run must be batch-identical to serial"
            ),
        }
    }

    // ---- budget-governed fleet: the quality↔energy loop closed -------------
    // Each stream gets a joule budget per 4-window reporting interval; the
    // EnergyBudgetGovernor spends it across the candidate ladder (operating
    // choices × DVFS rails, costed by the shared CostProfile). The sweep
    // asserts the acceptance invariant: tightening the budget can only
    // lower energy per window, and LF/HF detection must survive every
    // level. (Cost-probe finding, recorded in BENCH_stream.json: on the
    // resampled paper config the exact half-length fast path undercuts
    // every pruned kernel, so the ladder scales the DVFS rail first.)
    let budget_streams = streams.min(64);
    let reference = FleetScheduler::new(
        PsaConfig::conventional(),
        FleetConfig {
            streams: budget_streams,
            duration: seconds,
            seed: 2014,
            slice: 60.0,
            workers: 1,
        },
    )
    .expect("valid fleet")
    .run();
    println!(
        "\n== budget-governed fleet: {budget_streams} streams x {seconds:.0} s \
         (joules per 4-window interval) ==\n"
    );
    println!(
        "{:>12} {:>10} {:>14} {:>18} {:>10} {:>12}",
        "budget [J]", "windows", "ops/window", "energy/window [J]", "switches", "arrhythmia"
    );
    println!(
        "{:>12} {:>10} {:>14} {:>18.6e} {:>10} {:>12}",
        "(ungoverned)",
        reference.windows,
        reference.ops_per_window() as u64,
        reference.charged_energy_per_window(),
        "-",
        reference.arrhythmia_windows,
    );
    let mut last_energy_per_window = f64::INFINITY;
    for budget_j in [1.0, 2.5e-3, 1.7e-3] {
        let mut scheduler = FleetScheduler::new(
            PsaConfig::conventional(),
            FleetConfig {
                streams: budget_streams,
                duration: seconds,
                seed: 2014,
                slice: 60.0,
                workers: 1,
            },
        )
        .expect("valid fleet")
        .with_energy_budget(None, StreamBudget::per_interval(budget_j, 4))
        .expect("valid budget");
        let report = scheduler.run();
        let energy_per_window = report.charged_energy_per_window();
        println!(
            "{:>12.1e} {:>10} {:>14} {:>18.6e} {:>10} {:>12}",
            budget_j,
            report.windows,
            report.ops_per_window() as u64,
            energy_per_window,
            report.controller_switches,
            report.arrhythmia_windows,
        );
        assert!(
            energy_per_window <= last_energy_per_window + 1e-15,
            "tightening the budget must not raise energy per window"
        );
        assert_eq!(
            report.windows, reference.windows,
            "governed fleet must analyse every window"
        );
        assert_eq!(
            report.arrhythmia_windows, reference.arrhythmia_windows,
            "LF/HF detection must be preserved at every budget level"
        );
        last_energy_per_window = energy_per_window;
    }
    println!("\nbudget sweep: energy/window monotone non-increasing, detection preserved\n");

    let mut single = FleetScheduler::new(
        PsaConfig::conventional(),
        FleetConfig {
            streams: 1,
            duration: seconds,
            seed: 2014,
            slice: 60.0,
            workers: 1,
        },
    )
    .expect("valid fleet");
    let single_report = single.run();
    println!("\n== fleet: 1 stream x {seconds:.0} s (scaling reference) ==\n");
    println!("{single_report}");
}
