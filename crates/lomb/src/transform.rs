//! The Fast-Lomb window routine (paper Fig. 1(a)): prepare → mesh → FFT
//! → Lomb calculator on one window, on reusable buffers.
//!
//! Under the paper's resampling front end the Lomb *weight* mesh is the
//! same all-ones vector for every window, so its spectrum (`fft_len` at
//! DC, zero elsewhere) is known once and for all. With an exact kernel the
//! FFT block then transforms only the data mesh, through a half-length
//! real FFT ([`RealFft`]), instead of the packed data+weight pair. Every
//! other case — an approximate kernel, or an extirpolated mesh whose
//! weights change per window — runs the packed pair through the given
//! kernel, exactly as the batch pipeline does.

use crate::fast::{blocks, FastLomb, MeshScratch, MeshStrategy};
use hrv_dsp::{fft_real_pair_into, BlockOps, Cx, FftBackend, OpCount, RealFft};

/// The periodogram grid one window's Lomb calculator writes.
#[derive(Clone, Debug, Default)]
pub struct LombSpectrum {
    freqs: Vec<f64>,
    power: Vec<f64>,
}

impl LombSpectrum {
    /// Frequency grid (hertz).
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Normalised power values, one per grid frequency.
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Power values for in-place scaling (Welch de-normalisation).
    pub fn power_mut(&mut self) -> &mut [f64] {
        &mut self.power
    }

    /// Sum of the buffers' capacities (elements, not bytes).
    pub fn capacity_signature(&self) -> usize {
        self.freqs.capacity() + self.power.capacity()
    }
}

/// A prepared window and the FFT stage's buffers: the spline/prepare
/// intermediates, the data and weight meshes, the data and weight
/// half-spectra, the kernel's packed input and working set, and the Lomb
/// normalisation inputs (prepare-stage variance, raw sample count, span in
/// seconds).
#[derive(Clone, Debug, Default)]
struct Prepared {
    mesh: MeshScratch,
    wk1: Vec<f64>,
    wk2: Vec<f64>,
    first: Vec<Cx>,
    second: Vec<Cx>,
    packed: Vec<Cx>,
    work: Vec<Cx>,
    var: f64,
    n_times: usize,
    span: f64,
}

/// Reusable working memory of [`LombFft::window`]. Buffers grow on first
/// use and are reused afterwards, so a warmed-up scratch makes the window
/// routine allocation-free.
#[derive(Clone, Debug, Default)]
pub struct LombScratch {
    prepared: Prepared,
    spectrum: LombSpectrum,
}

impl LombScratch {
    /// The spectrum of the last window.
    pub fn spectrum(&self) -> &LombSpectrum {
        &self.spectrum
    }

    /// The spectrum of the last window, for in-place scaling.
    pub fn spectrum_mut(&mut self) -> &mut LombSpectrum {
        &mut self.spectrum
    }

    /// The data and weight meshes of the last window.
    pub fn meshes(&self) -> (&[f64], &[f64]) {
        (&self.prepared.wk1, &self.prepared.wk2)
    }

    /// The prepare-stage variance (σ² of eq. (1)) of the last window.
    pub fn variance(&self) -> f64 {
        self.prepared.var
    }

    /// Sum of the current capacities of all buffers (elements, not bytes)
    /// — a fingerprint that stops changing once the routine has warmed up.
    pub fn capacity_signature(&self) -> usize {
        let p = &self.prepared;
        p.mesh.capacity_signature()
            + p.wk1.capacity()
            + p.wk2.capacity()
            + p.first.capacity()
            + p.second.capacity()
            + p.packed.capacity()
            + p.work.capacity()
            + self.spectrum.capacity_signature()
    }
}

/// The Fast-Lomb window routine: owns the estimator, the fast-path plan and
/// the cached weight spectrum. Immutable once built, so one instance can be
/// shared (behind an `Arc`) by every engine cloned from a prototype.
///
/// # Examples
///
/// ```
/// use hrv_dsp::{BlockOps, SplitRadixFft};
/// use hrv_lomb::{blocks, FastLomb, LombFft, LombScratch};
///
/// let lomb = LombFft::new(FastLomb::new(64, 1.0).with_resampled_mesh().with_span(60.0));
/// let times: Vec<f64> = (1..70).map(|i| i as f64 * 0.85).collect();
/// let values: Vec<f64> = times.iter().map(|&t| 0.85 + 0.05 * (0.25 * t).sin()).collect();
/// let mut scratch = LombScratch::default();
/// let mut profile = BlockOps::new();
/// let ops = lomb.window(&SplitRadixFft::new(64), &times, &values, &mut scratch, &mut profile);
/// assert_eq!(ops, profile.grand_total());
/// assert!(profile.get(blocks::FFT).is_some());
/// assert_eq!(scratch.spectrum().freqs().len(), scratch.spectrum().power().len());
/// ```
#[derive(Debug)]
pub struct LombFft {
    estimator: FastLomb,
    /// Half-length real-FFT plan of the exact fast path (resampling front
    /// end only).
    rfft: Option<RealFft>,
    /// Spectrum of the all-ones weight mesh: `fft_len` at DC, zero
    /// elsewhere.
    weight_spectrum: Vec<Cx>,
}

impl LombFft {
    /// Plans the window routine of `estimator`: the FFT fast path exists
    /// only under [`MeshStrategy::Resample`].
    pub fn new(estimator: FastLomb) -> Self {
        let n = estimator.fft_len();
        let resampled = estimator.mesh_strategy() == MeshStrategy::Resample;
        let mut weight_spectrum = vec![Cx::ZERO; n / 2 + 1];
        weight_spectrum[0] = Cx::real(n as f64);
        LombFft {
            estimator,
            rfft: resampled.then(|| RealFft::new(n)),
            weight_spectrum,
        }
    }

    /// Analyses one window of `(times, values)` with `backend` as the FFT
    /// kernel: prepare, mesh, FFT and Lomb calculator, each stage recorded
    /// in `profile` under its [`blocks`] name. The spectrum is left in
    /// `scratch` (see [`LombScratch::spectrum`]) together with the meshes
    /// [`LombFft::spectrum_into`] reuses. Returns the window's operations.
    ///
    /// # Panics
    ///
    /// Panics on the input conditions of [`FastLomb::prepare_variance`] and
    /// [`FastLomb::meshes_into`], or when the backend's length differs from
    /// `fft_len` on the packed-pair path.
    // analyze::hot_path
    pub fn window(
        &self,
        backend: &dyn FftBackend,
        times: &[f64],
        values: &[f64],
        scratch: &mut LombScratch,
        profile: &mut BlockOps,
    ) -> OpCount {
        let est = &self.estimator;
        let p = &mut scratch.prepared;
        let (mut prepare, mut mesh, mut fft, mut lomb) = Default::default();
        p.var = est.prepare_variance(times, values, &mut p.mesh, &mut prepare);
        est.meshes_into(
            times,
            values,
            &mut p.wk1,
            &mut p.wk2,
            &mut p.mesh,
            &mut mesh,
        );
        p.n_times = times.len();
        p.span = est.span_of(times);
        self.fft_combine(backend, p, &mut scratch.spectrum, &mut fft, &mut lomb);
        profile.record(blocks::PREPARE, prepare);
        profile.record(blocks::EXTIRPOLATE, mesh);
        profile.record(blocks::FFT, fft);
        profile.record(blocks::LOMB, lomb);
        prepare + mesh + fft + lomb
    }

    /// Runs FFT → Lomb calculator with `backend` on the meshes the last
    /// [`LombFft::window`] call left in `scratch`, writing into `out` —
    /// e.g. the exact reference spectrum of a window an approximate kernel
    /// analysed. The cost of both stages is accounted into `ops`.
    // analyze::hot_path
    pub fn spectrum_into(
        &self,
        backend: &dyn FftBackend,
        scratch: &mut LombScratch,
        out: &mut LombSpectrum,
        ops: &mut OpCount,
    ) {
        let mut lomb = OpCount::default();
        self.fft_combine(backend, &mut scratch.prepared, out, ops, &mut lomb);
        *ops += lomb;
    }

    /// The FFT and Lomb-calculator stages, tallied separately.
    // analyze::hot_path
    fn fft_combine(
        &self,
        backend: &dyn FftBackend,
        p: &mut Prepared,
        out: &mut LombSpectrum,
        fft_ops: &mut OpCount,
        lomb_ops: &mut OpCount,
    ) {
        let weights = self.transform(
            backend,
            &p.wk1,
            &p.wk2,
            &mut p.first,
            &mut p.second,
            &mut p.packed,
            &mut p.work,
            fft_ops,
        );
        self.estimator.combine_into(
            &p.first,
            weights,
            p.span,
            p.n_times,
            p.var,
            &mut out.freqs,
            &mut out.power,
            lomb_ops,
        );
    }

    /// Transforms the data mesh `wk1` and weight mesh `wk2` with
    /// `backend`, writing the data spectrum (bins `0..=n/2`) into `first`
    /// and returning the weight spectrum for
    /// [`FastLomb::combine_into`]: the cached one when `backend` is exact
    /// under the resampling front end (only `wk1` is transformed, at half
    /// length), else `second`, filled from the packed pair. `packed` and
    /// `fft_scratch` are the kernel's reusable working buffers.
    ///
    /// # Panics
    ///
    /// Panics if the mesh lengths differ from each other or from the
    /// plan's `fft_len`.
    #[allow(clippy::too_many_arguments)]
    // analyze::hot_path
    pub fn transform<'a>(
        &'a self,
        backend: &dyn FftBackend,
        wk1: &[f64],
        wk2: &[f64],
        first: &mut Vec<Cx>,
        second: &'a mut Vec<Cx>,
        packed: &mut Vec<Cx>,
        fft_scratch: &mut Vec<Cx>,
        ops: &mut OpCount,
    ) -> &'a [Cx] {
        match &self.rfft {
            Some(rfft) if backend.is_exact() => {
                rfft.forward_into(wk1, first, packed, fft_scratch, ops);
                &self.weight_spectrum
            }
            _ => {
                fft_real_pair_into(backend, wk1, wk2, first, second, packed, fft_scratch, ops);
                second
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Periodogram;
    use hrv_dsp::{fft_real_pair, SplitRadixFft};

    fn meshes(n: usize) -> (Vec<f64>, Vec<f64>) {
        let wk1 = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
        (wk1, vec![1.0; n])
    }

    fn run(fft: &LombFft, backend: &dyn FftBackend, n: usize) -> (Vec<Cx>, Vec<Cx>, OpCount) {
        let (wk1, wk2) = meshes(n);
        let (mut first, mut second) = (Vec::new(), Vec::new());
        let (mut packed, mut work) = (Vec::new(), Vec::new());
        let mut ops = OpCount::default();
        let weights = fft
            .transform(
                backend,
                &wk1,
                &wk2,
                &mut first,
                &mut second,
                &mut packed,
                &mut work,
                &mut ops,
            )
            .to_vec();
        (first, weights, ops)
    }

    #[test]
    fn resampled_exact_takes_the_half_length_path() {
        let n = 128;
        let fft = LombFft::new(FastLomb::new(n, 1.0).with_resampled_mesh());
        let exact = SplitRadixFft::new(n);
        let (first, weights, ops) = run(&fft, &exact, n);
        let (wk1, wk2) = meshes(n);
        let mut pair_ops = OpCount::default();
        let pair = fft_real_pair(&exact, &wk1, &wk2, &mut pair_ops);
        for (a, b) in first.iter().zip(&pair.first) {
            assert!((*a - *b).norm() < 1e-9, "data spectrum {a:?} vs {b:?}");
        }
        // The all-ones weight mesh has exactly the cached spectrum.
        for (a, b) in weights.iter().zip(&pair.second) {
            assert!((*a - *b).norm() < 1e-9, "weight spectrum {a:?} vs {b:?}");
        }
        assert!(ops.arithmetic() < pair_ops.arithmetic());
    }

    #[test]
    fn extirpolated_meshes_run_the_packed_pair() {
        let n = 64;
        let fft = LombFft::new(FastLomb::new(n, 2.0));
        let exact = SplitRadixFft::new(n);
        let (first, weights, ops) = run(&fft, &exact, n);
        let (wk1, wk2) = meshes(n);
        let mut pair_ops = OpCount::default();
        let pair = fft_real_pair(&exact, &wk1, &wk2, &mut pair_ops);
        assert_eq!((first, weights, ops), (pair.first, pair.second, pair_ops));
    }

    /// An uneven ≈ 70 bpm RR series with LF and HF modulation.
    fn rr_series(duration: f64) -> (Vec<f64>, Vec<f64>) {
        let (mut times, mut values) = (Vec::new(), Vec::new());
        let mut t = 0.0;
        while t < duration {
            let rr = 0.85 + 0.05 * (1.57 * t).sin() + 0.02 * (0.63 * t).sin();
            t += rr;
            times.push(t);
            values.push(rr);
        }
        (times, values)
    }

    /// Runs the window routine and the batch pipeline on one window.
    fn against_batch(estimator: FastLomb) -> (LombScratch, BlockOps, Periodogram, BlockOps) {
        let (times, values) = rr_series(120.0);
        let backend = SplitRadixFft::new(estimator.fft_len());
        let mut batch_blocks = BlockOps::new();
        let batch = estimator.periodogram_profiled(&backend, &times, &values, &mut batch_blocks);
        let lomb = LombFft::new(estimator);
        let (mut scratch, mut blocks) = (LombScratch::default(), BlockOps::new());
        let ops = lomb.window(&backend, &times, &values, &mut scratch, &mut blocks);
        assert_eq!(ops, blocks.grand_total());
        (scratch, blocks, batch, batch_blocks)
    }

    #[test]
    fn window_on_extirpolated_meshes_is_the_batch_pipeline() {
        let (scratch, blocks, batch, batch_blocks) =
            against_batch(FastLomb::new(256, 2.0).with_span(125.0));
        assert_eq!(scratch.spectrum().freqs(), batch.freqs());
        assert_eq!(scratch.spectrum().power(), batch.power());
        assert_eq!(
            blocks.iter().collect::<Vec<_>>(),
            batch_blocks.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn window_on_resampled_meshes_differs_from_batch_only_in_the_fft() {
        let estimator = FastLomb::new(512, 2.0)
            .with_resampled_mesh()
            .with_max_freq(0.5)
            .with_span(120.0);
        let (scratch, blocks, batch, batch_blocks) = against_batch(estimator);
        assert_eq!(scratch.spectrum().freqs(), batch.freqs());
        for (a, b) in scratch.spectrum().power().iter().zip(batch.power()) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "power {a} vs {b}");
        }
        for block in [blocks::PREPARE, blocks::EXTIRPOLATE, blocks::LOMB] {
            assert_eq!(blocks.get(block), batch_blocks.get(block), "{block}");
        }
        let fft = |b: &BlockOps| b.get(blocks::FFT).expect("fft").arithmetic();
        assert!(fft(&blocks) < fft(&batch_blocks), "half-length fast path");
    }

    #[test]
    fn spectrum_into_reruns_fft_and_combine_on_the_window_meshes() {
        let (times, values) = rr_series(120.0);
        let lomb = LombFft::new(
            FastLomb::new(128, 2.0)
                .with_resampled_mesh()
                .with_span(120.0),
        );
        let kernel = hrv_dsp::Radix2Fft::new(128);
        let (mut scratch, mut blocks) = (LombScratch::default(), BlockOps::new());
        lomb.window(&kernel, &times, &values, &mut scratch, &mut blocks);
        let mut out = LombSpectrum::default();
        let mut ops = OpCount::default();
        lomb.spectrum_into(&kernel, &mut scratch, &mut out, &mut ops);
        assert_eq!(out.freqs(), scratch.spectrum().freqs());
        assert_eq!(out.power(), scratch.spectrum().power());
        let fft_and_combine =
            *blocks.get(blocks::FFT).expect("fft") + *blocks.get(blocks::LOMB).expect("lomb");
        assert_eq!(ops, fft_and_combine);
        // A warmed-up scratch is reused as is.
        let signature = scratch.capacity_signature() + out.capacity_signature();
        lomb.window(&kernel, &times, &values, &mut scratch, &mut blocks);
        lomb.spectrum_into(&kernel, &mut scratch, &mut out, &mut ops);
        assert_eq!(
            scratch.capacity_signature() + out.capacity_signature(),
            signature
        );
    }
}
