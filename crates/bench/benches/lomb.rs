//! Lomb periodogram throughput: direct O(N²) vs Fast-Lomb, and the
//! resampled mesh block on its own.

use criterion::{criterion_group, criterion_main, Criterion};
use hrv_bench::arrhythmia_cohort;
use hrv_dsp::{OpCount, SplitRadixFft};
use hrv_lomb::{lomb_direct, FastLomb, MeshScratch};
use std::hint::black_box;

/// The first 120 s window of one cohort patient, times from 0.
fn cohort_window() -> (Vec<f64>, Vec<f64>) {
    let rr = &arrhythmia_cohort(1, 150.0)[0];
    let window = rr.window(0.0, 120.0).expect("window");
    let times = window
        .times()
        .iter()
        .map(|&t| t - window.times()[0])
        .collect();
    (times, window.intervals().to_vec())
}

fn bench_lomb(c: &mut Criterion) {
    let mut group = c.benchmark_group("lomb");
    group.sample_size(20);
    let (times, values) = cohort_window();

    group.bench_function("direct_120bins", |b| {
        b.iter(|| {
            black_box(lomb_direct(
                &times,
                &values,
                2.0,
                120,
                &mut OpCount::default(),
            ))
        })
    });

    let backend = SplitRadixFft::new(512);
    let extirpolated = FastLomb::new(512, 2.0).with_span(120.0);
    group.bench_function("fast_extirpolated", |b| {
        b.iter(|| {
            black_box(extirpolated.periodogram(&backend, &times, &values, &mut OpCount::default()))
        })
    });
    let resampled = FastLomb::new(512, 2.0)
        .with_resampled_mesh()
        .with_span(120.0);
    group.bench_function("fast_resampled", |b| {
        b.iter(|| {
            black_box(resampled.periodogram(&backend, &times, &values, &mut OpCount::default()))
        })
    });
    group.finish();
}

/// The spline mesh block alone (`FastLomb::meshes_into` on the paper's
/// resampled configuration), on one reused scratch and mesh pair as the
/// streaming engine runs it.
fn mesh_resampled(c: &mut Criterion) {
    let mut group = c.benchmark_group("lomb");
    let (times, values) = cohort_window();
    let estimator = FastLomb::new(512, 2.0)
        .with_resampled_mesh()
        .with_span(120.0);
    let mut scratch = MeshScratch::new();
    let (mut wk1, mut wk2) = (Vec::new(), Vec::new());
    group.bench_function("mesh_resampled", |b| {
        b.iter(|| {
            let mut ops = OpCount::default();
            estimator.meshes_into(&times, &values, &mut wk1, &mut wk2, &mut scratch, &mut ops);
            black_box(wk1[0]);
            ops
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lomb, mesh_resampled);
criterion_main!(benches);
