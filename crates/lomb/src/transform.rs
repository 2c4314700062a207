//! The Fast-Lomb FFT block (paper Fig. 1(a)) with its incremental fast
//! path, shared by the streaming engine, its exact-reference audit and the
//! cost probe that predicts a window's operations.
//!
//! Under the paper's resampling front end the Lomb *weight* mesh is the
//! same all-ones vector for every window, so its spectrum (`fft_len` at
//! DC, zero elsewhere) is known once and for all. With an exact kernel the
//! block then transforms only the data mesh, through a half-length real
//! FFT ([`RealFft`]), instead of the packed data+weight pair. Every other
//! case — an approximate kernel, or an extirpolated mesh whose weights
//! change per window — runs the packed pair through the given kernel,
//! exactly as batch [`crate::FastLomb::periodogram`] does.

use crate::fast::{FastLomb, MeshStrategy};
use hrv_dsp::{fft_real_pair_into, Cx, FftBackend, OpCount, RealFft};

/// The one FFT dispatch of a Fast-Lomb window: owns the fast-path plan and
/// the cached weight spectrum. Immutable once built, so one instance can
/// be shared (behind an `Arc`) by every engine cloned from a prototype.
///
/// # Examples
///
/// ```
/// use hrv_dsp::{OpCount, SplitRadixFft};
/// use hrv_lomb::{FastLomb, LombFft};
///
/// let estimator = FastLomb::new(64, 1.0).with_resampled_mesh();
/// let fft = LombFft::new(&estimator);
/// let wk1: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
/// let wk2 = vec![1.0; 64];
/// let (mut first, mut second) = (Vec::new(), Vec::new());
/// let (mut packed, mut work) = (Vec::new(), Vec::new());
/// let mut ops = OpCount::default();
/// let weights = fft.transform(
///     &SplitRadixFft::new(64),
///     &wk1,
///     &wk2,
///     &mut first,
///     &mut second,
///     &mut packed,
///     &mut work,
///     &mut ops,
/// );
/// // Exact kernel on a resampled mesh: the cached DC-impulse weights.
/// assert_eq!(weights[0], hrv_dsp::Cx::real(64.0));
/// assert_eq!(first.len(), 33);
/// ```
#[derive(Debug)]
pub struct LombFft {
    /// Half-length real-FFT plan of the exact fast path (resampling front
    /// end only).
    rfft: Option<RealFft>,
    /// Spectrum of the all-ones weight mesh: `fft_len` at DC, zero
    /// elsewhere.
    weight_spectrum: Vec<Cx>,
}

impl LombFft {
    /// Plans the FFT block of `estimator`: the fast path exists only
    /// under [`MeshStrategy::Resample`].
    pub fn new(estimator: &FastLomb) -> Self {
        let n = estimator.fft_len();
        let resampled = estimator.mesh_strategy() == MeshStrategy::Resample;
        let mut weight_spectrum = vec![Cx::ZERO; n / 2 + 1];
        weight_spectrum[0] = Cx::real(n as f64);
        LombFft {
            rfft: resampled.then(|| RealFft::new(n)),
            weight_spectrum,
        }
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
        let fft = LombFft::new(&FastLomb::new(n, 1.0).with_resampled_mesh());
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
        let fft = LombFft::new(&FastLomb::new(n, 2.0));
        let exact = SplitRadixFft::new(n);
        let (first, weights, ops) = run(&fft, &exact, n);
        let (wk1, wk2) = meshes(n);
        let mut pair_ops = OpCount::default();
        let pair = fft_real_pair(&exact, &wk1, &wk2, &mut pair_ops);
        assert_eq!((first, weights, ops), (pair.first, pair.second, pair_ops));
    }
}
