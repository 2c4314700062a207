//! [`FftBackend`] adapter so the Lomb pipeline can run on the wavelet FFT.

use crate::plan::WfftPlan;
use crate::prune::{PruneConfig, PrunedWfft};
use hrv_dsp::{Cx, FftBackend, OpCount};
use hrv_wavelet::WaveletBasis;

/// Wavelet-based FFT (optionally pruned) behind the [`FftBackend`] trait.
///
/// This is what the quality-scalable PSA system swaps in for the
/// conventional split-radix kernel.
///
/// # Examples
///
/// ```
/// use hrv_dsp::{Cx, FftBackend, OpCount};
/// use hrv_wavelet::WaveletBasis;
/// use hrv_wfft::{PruneConfig, PruneSet, WaveletFftBackend};
///
/// let backend = WaveletFftBackend::new(64, WaveletBasis::Haar, PruneConfig::with_set(PruneSet::Set1));
/// assert!(!backend.is_exact());
/// let mut data = vec![Cx::real(1.0); 64];
/// backend.forward(&mut data, &mut OpCount::default());
/// ```
#[derive(Clone, Debug)]
pub struct WaveletFftBackend {
    inner: PrunedWfft,
    name: String,
}

impl WaveletFftBackend {
    /// Builds a backend of length `n` on `basis` with the given pruning.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 4.
    pub fn new(n: usize, basis: WaveletBasis, config: PruneConfig) -> Self {
        let plan = WfftPlan::new(n, basis);
        Self::from_pruned(PrunedWfft::new(plan, config))
    }

    /// Wraps an already-configured pruned transform (e.g. one switched to
    /// dynamic mode).
    pub fn from_pruned(inner: PrunedWfft) -> Self {
        let cfg = inner.config();
        let name = format!(
            "wfft-{}{}{}",
            inner.plan().basis(),
            if cfg.band_drop { "+banddrop" } else { "" },
            if cfg.twiddle_fraction > 0.0 {
                format!("+prune{:.0}%", cfg.twiddle_fraction * 100.0)
            } else {
                String::new()
            }
        );
        WaveletFftBackend { inner, name }
    }

    /// The wrapped pruned transform.
    pub fn pruned(&self) -> &PrunedWfft {
        &self.inner
    }
}

impl FftBackend for WaveletFftBackend {
    fn len(&self) -> usize {
        self.inner.plan().len()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn is_exact(&self) -> bool {
        self.inner.config().is_exact()
    }

    fn forward(&self, data: &mut [Cx], ops: &mut OpCount) {
        self.forward_with_scratch(data, &mut Vec::new(), ops);
    }

    // analyze::hot_path
    fn forward_with_scratch(&self, data: &mut [Cx], scratch: &mut Vec<Cx>, ops: &mut OpCount) {
        self.inner.forward_in_place(data, scratch, ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::PruneSet;
    use hrv_dsp::{max_deviation, SplitRadixFft};

    #[test]
    fn exact_backend_matches_split_radix() {
        let n = 128;
        let x: Vec<Cx> = (0..n)
            .map(|i| Cx::new((i as f64 * 0.4).sin(), 0.0))
            .collect();
        let backend = WaveletFftBackend::new(n, WaveletBasis::Db2, PruneConfig::exact());
        assert!(backend.is_exact());
        let mut got = x.clone();
        backend.forward(&mut got, &mut OpCount::default());
        let mut expect = x;
        SplitRadixFft::new(n).forward(&mut expect, &mut OpCount::default());
        assert!(max_deviation(&got, &expect) < 1e-9);
    }

    #[test]
    fn names_describe_configuration() {
        let exact = WaveletFftBackend::new(64, WaveletBasis::Haar, PruneConfig::exact());
        assert_eq!(exact.name(), "wfft-haar");
        let pruned = WaveletFftBackend::new(
            64,
            WaveletBasis::Haar,
            PruneConfig::with_set(PruneSet::Set3),
        );
        assert_eq!(pruned.name(), "wfft-haar+banddrop+prune60%");
        assert!(!pruned.is_exact());
        assert_eq!(pruned.len(), 64);
        assert!(!pruned.is_empty());
    }

    #[test]
    fn pruned_accessor_exposes_configuration() {
        let backend = WaveletFftBackend::new(64, WaveletBasis::Haar, PruneConfig::band_drop_only());
        assert!(backend.pruned().config().band_drop);
    }

    #[test]
    fn wavelet_kernels_are_send_and_sync() {
        // Shared across fleet shards through the kernel cache.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WaveletFftBackend>();
        assert_send_sync::<crate::PrunedWfft>();
        assert_send_sync::<crate::WfftPlan>();
    }
}
