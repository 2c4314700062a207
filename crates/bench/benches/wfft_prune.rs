//! Pruned wavelet-FFT throughput across approximation modes: the
//! allocating `PrunedWfft::forward` and the in-place backend path with a
//! reused scratch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrv_dsp::{Cx, FftBackend, OpCount};
use hrv_wavelet::WaveletBasis;
use hrv_wfft::{PruneConfig, PruneSet, PrunedWfft, WaveletFftBackend, WfftPlan};
use std::hint::black_box;

fn bench_prune(c: &mut Criterion) {
    let mut group = c.benchmark_group("wfft_prune");
    group.sample_size(30);
    for &n in &[512usize, 1024] {
        let input: Vec<Cx> = (0..n)
            .map(|i| Cx::real(0.9 + 0.05 * (i as f64 * 0.1).sin()))
            .collect();
        let configs = [
            ("exact", PruneConfig::exact()),
            ("band_drop", PruneConfig::band_drop_only()),
            ("set1", PruneConfig::with_set(PruneSet::Set1)),
            ("set2", PruneConfig::with_set(PruneSet::Set2)),
            ("set3", PruneConfig::with_set(PruneSet::Set3)),
        ];
        for (name, config) in configs {
            let pruned = PrunedWfft::new(WfftPlan::new(n, WaveletBasis::Haar), config);
            group.bench_with_input(BenchmarkId::new(format!("haar_{name}"), n), &n, |b, _| {
                b.iter(|| black_box(pruned.forward(&input, &mut OpCount::default())))
            });
            // The path the streaming engine runs: the backend in place,
            // one scratch reused across calls (no allocation after the
            // first).
            let backend = WaveletFftBackend::from_pruned(pruned);
            let (mut data, mut scratch) = (input.clone(), Vec::new());
            group.bench_with_input(
                BenchmarkId::new(format!("haar_{name}_in_place"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        data.copy_from_slice(&input);
                        backend.forward_with_scratch(
                            &mut data,
                            &mut scratch,
                            &mut OpCount::default(),
                        );
                        black_box(&data);
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_prune);
criterion_main!(benches);
