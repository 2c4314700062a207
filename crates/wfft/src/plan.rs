//! The exact wavelet-based FFT (Guo–Burrus factorisation, paper eq. (6)).
//!
//! `F_N = G_N · (F_{N/2} ⊕ F_{N/2}) · W_N`: one circular DWT stage splits
//! the signal into low/high subbands, each subband is transformed by a
//! half-size DFT, and a butterfly stage with the wavelet twiddle diagonals
//! `A, B, C, D` recombines them into the exact spectrum. The scheme can be
//! applied recursively to the sub-DFTs (`stages > 1`), turning the front
//! end into a binary wavelet-packet tree (paper Fig. 4); remaining
//! sub-DFTs use the split-radix kernel.
//!
//! The paper's pruned system (eq. (7)) uses a single DWT stage — deeper
//! trees only add overhead without exposing more of the sparsity that the
//! band-drop and twiddle pruning exploit — so `stages = 1` is the default.

use crate::twiddle::{FactorClass, LevelTwiddles};
use hrv_dsp::{Cx, FftBackend, OpCount, SplitRadixFft};
use hrv_wavelet::{analysis_into, FilterPair, WaveletBasis};

/// A planned exact wavelet-based FFT.
///
/// # Examples
///
/// ```
/// use hrv_dsp::{Cx, OpCount};
/// use hrv_wavelet::WaveletBasis;
/// use hrv_wfft::WfftPlan;
///
/// let plan = WfftPlan::new(64, WaveletBasis::Haar);
/// let x: Vec<Cx> = (0..64).map(|i| Cx::real((i as f64 * 0.3).sin())).collect();
/// let mut ops = OpCount::default();
/// let spectrum = plan.forward(&x, &mut ops);
/// assert_eq!(spectrum.len(), 64);
/// ```
#[derive(Clone, Debug)]
pub struct WfftPlan {
    n: usize,
    basis: WaveletBasis,
    stages: usize,
    filters: FilterPair,
    levels: Vec<LevelTwiddles>,
    sub_fft: SplitRadixFft,
}

impl WfftPlan {
    /// Plans a single-DWT-stage transform of length `n` — the structure the
    /// paper's approximations are defined on.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `n` is not a power of two.
    pub fn new(n: usize, basis: WaveletBasis) -> Self {
        Self::with_stages(n, basis, 1)
    }

    /// Plans a transform whose front end is a `stages`-deep wavelet-packet
    /// tree.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two, or `stages` is 0 or too deep
    /// for the length (`n >> stages` must be ≥ 2).
    pub fn with_stages(n: usize, basis: WaveletBasis, stages: usize) -> Self {
        assert!(
            hrv_dsp::is_power_of_two(n) && n >= 4,
            "transform length must be a power of two ≥ 4, got {n}"
        );
        assert!(stages >= 1, "need at least one DWT stage");
        assert!(
            n >> stages >= 2,
            "too many stages ({stages}) for length {n}"
        );
        let filters = FilterPair::new(basis);
        let levels = (0..stages)
            .map(|s| LevelTwiddles::compute(&filters, n >> s))
            .collect();
        WfftPlan {
            n,
            basis,
            stages,
            filters,
            levels,
            sub_fft: SplitRadixFft::new(n >> stages),
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` only for the impossible zero-length plan (plans are ≥ 4).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The wavelet basis the transform is built on.
    pub fn basis(&self) -> WaveletBasis {
        self.basis
    }

    /// Number of DWT stages in the front end.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Analysis filter pair.
    pub fn filters(&self) -> &FilterPair {
        &self.filters
    }

    /// Twiddle tables for combine level `stage` (0 = outermost, size `n`).
    ///
    /// # Panics
    ///
    /// Panics if `stage >= self.stages()`.
    pub fn level(&self, stage: usize) -> &LevelTwiddles {
        &self.levels[stage]
    }

    /// Length of the split-radix sub-transforms at the bottom of the tree.
    pub fn sub_len(&self) -> usize {
        self.n >> self.stages
    }

    /// Exact forward transform. Equals the DFT of `input` to rounding
    /// error; the cost is added to `ops`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn forward(&self, input: &[Cx], ops: &mut OpCount) -> Vec<Cx> {
        assert_eq!(input.len(), self.n, "input length must match plan length");
        let mut out = input.to_vec();
        self.transform_level(&mut out, 0, &mut Vec::new(), ops);
        out
    }

    /// Exact in-place transform of one block of combine level `stage`
    /// (length `n >> stage`): [`WfftPlan::subband_spectra`] and then the
    /// level's butterflies, or the planned split-radix kernel at the
    /// bottom of the tree. `scratch` may arrive dirty and at any size;
    /// once it has grown to the block length the call allocates nothing.
    // analyze::hot_path
    pub(crate) fn transform_level(
        &self,
        data: &mut [Cx],
        stage: usize,
        scratch: &mut Vec<Cx>,
        ops: &mut OpCount,
    ) {
        if stage == self.stages {
            self.sub_fft.forward_with_scratch(data, scratch, ops);
            return;
        }
        self.subband_spectra(data, stage, scratch, true, ops);
        combine_level(&self.levels[stage], data, ops);
    }

    /// DWT stage `stage` and the exact sub-transforms below it, in place:
    /// the analysis writes the lowpass band into the first half of `data`
    /// (and, with `keep_high`, the highpass band into the second) from one
    /// copy of the block in `scratch`, then each kept half is transformed
    /// in place one level down. The spectra `XL` (and `XH`) are left in
    /// the halves for the caller's butterflies.
    // analyze::hot_path
    pub(crate) fn subband_spectra(
        &self,
        data: &mut [Cx],
        stage: usize,
        scratch: &mut Vec<Cx>,
        keep_high: bool,
        ops: &mut OpCount,
    ) {
        scratch.clear();
        scratch.extend_from_slice(data);
        let (low, high) = data.split_at_mut(data.len() / 2);
        analysis_into(
            scratch,
            &self.filters,
            low,
            keep_high.then_some(&mut *high),
            ops,
        );
        self.transform_level(low, stage + 1, scratch, ops);
        if keep_high {
            self.transform_level(high, stage + 1, scratch, ops);
        }
    }
}

/// The butterfly stage of one combine level, in place: the lowpass
/// spectrum `XL` in the first half of `data` and the highpass spectrum
/// `XH` in the second become `A·XL + B·XH` and `C·XL + D·XH`.
// analyze::hot_path
pub(crate) fn combine_level(tw: &LevelTwiddles, data: &mut [Cx], ops: &mut OpCount) {
    let (low, high) = data.split_at_mut(tw.size / 2);
    let factors = tw.a.iter().zip(&tw.b).zip(tw.c.iter().zip(&tw.d));
    for ((xl, xh), ((a, b), (c, d))) in low.iter_mut().zip(high.iter_mut()).zip(factors) {
        let (u, v) = (*xl, *xh);
        *xl = combine(a, u, b, v, ops);
        *xh = combine(c, u, d, v, ops);
    }
}

/// `p·u + q·v` with factor-aware costing: zero factors skip both the
/// product and the addition.
#[inline]
pub(crate) fn combine(
    p: &crate::twiddle::Factor,
    u: Cx,
    q: &crate::twiddle::Factor,
    v: Cx,
    ops: &mut OpCount,
) -> Cx {
    match (p.class == FactorClass::Zero, q.class == FactorClass::Zero) {
        (true, true) => Cx::ZERO,
        (false, true) => p.apply(u, ops),
        (true, false) => q.apply(v, ops),
        (false, false) => {
            let t1 = p.apply(u, ops);
            let t2 = q.apply(v, ops);
            ops.cadd();
            t1 + t2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_dsp::max_deviation;

    fn random_signal(n: usize, seed: u64) -> Vec<Cx> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| Cx::new(next(), next())).collect()
    }

    fn reference_fft(x: &[Cx]) -> Vec<Cx> {
        let plan = SplitRadixFft::new(x.len());
        let mut buf = x.to_vec();
        plan.forward(&mut buf, &mut OpCount::default());
        buf
    }

    #[test]
    fn exact_for_all_bases_single_stage() {
        for basis in WaveletBasis::ALL {
            for &n in &[8usize, 32, 128, 512] {
                let x = random_signal(n, n as u64);
                let plan = WfftPlan::new(n, basis);
                let mut ops = OpCount::default();
                let got = plan.forward(&x, &mut ops);
                let expect = reference_fft(&x);
                let dev = max_deviation(&got, &expect);
                assert!(dev < 1e-8, "{basis} n={n}: deviation {dev}");
            }
        }
    }

    #[test]
    fn exact_for_deep_trees() {
        for basis in [WaveletBasis::Haar, WaveletBasis::Db2, WaveletBasis::Db4] {
            for stages in 1..=5 {
                let n = 128;
                let x = random_signal(n, stages as u64 + 77);
                let plan = WfftPlan::with_stages(n, basis, stages);
                let got = plan.forward(&x, &mut OpCount::default());
                let expect = reference_fft(&x);
                let dev = max_deviation(&got, &expect);
                assert!(dev < 1e-8, "{basis} stages={stages}: deviation {dev}");
            }
        }
    }

    #[test]
    fn full_depth_tree_is_exact() {
        // Recursion down to 2-point sub-DFTs: the pure binary wavelet
        // packet + butterflies of paper Fig. 4.
        let n = 64;
        let x = random_signal(n, 3);
        let plan = WfftPlan::with_stages(n, WaveletBasis::Haar, 5);
        assert_eq!(plan.sub_len(), 2);
        let got = plan.forward(&x, &mut OpCount::default());
        assert!(max_deviation(&got, &reference_fft(&x)) < 1e-8);
    }

    #[test]
    fn costs_more_than_split_radix_without_pruning() {
        // The paper's motivating observation (§IV.B): the unpruned
        // wavelet FFT is more expensive, and overhead grows with filter
        // length (Haar < Db2 < Db4).
        let n = 512;
        let x = random_signal(n, 9);
        let mut sr_ops = OpCount::default();
        let sr = SplitRadixFft::new(n);
        sr.forward(&mut x.clone(), &mut sr_ops);

        let mut prev_overhead = 0.0;
        for basis in WaveletBasis::PAPER {
            let plan = WfftPlan::new(n, basis);
            let mut ops = OpCount::default();
            let _ = plan.forward(&x, &mut ops);
            let overhead = ops.arithmetic() as f64 / sr_ops.arithmetic() as f64 - 1.0;
            assert!(
                overhead > 0.0,
                "{basis}: wavelet FFT should cost more, got {overhead}"
            );
            assert!(
                overhead > prev_overhead,
                "{basis}: overhead should grow with taps"
            );
            prev_overhead = overhead;
        }
    }

    #[test]
    fn op_counts_are_data_independent() {
        let plan = WfftPlan::new(256, WaveletBasis::Db2);
        let mut ops1 = OpCount::default();
        let mut ops2 = OpCount::default();
        let _ = plan.forward(&random_signal(256, 1), &mut ops1);
        let _ = plan.forward(&random_signal(256, 2), &mut ops2);
        assert_eq!(ops1, ops2);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = WfftPlan::new(n, WaveletBasis::Db4);
        let x = random_signal(n, 5);
        let y = random_signal(n, 6);
        let mut ops = OpCount::default();
        let fx = plan.forward(&x, &mut ops);
        let fy = plan.forward(&y, &mut ops);
        let sum: Vec<Cx> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let fsum = plan.forward(&sum, &mut ops);
        for k in 0..n {
            assert!((fx[k] + fy[k]).approx_eq(fsum[k], 1e-9));
        }
    }

    #[test]
    fn accessors() {
        let plan = WfftPlan::with_stages(128, WaveletBasis::Db2, 2);
        assert_eq!(plan.len(), 128);
        assert!(!plan.is_empty());
        assert_eq!(plan.basis(), WaveletBasis::Db2);
        assert_eq!(plan.stages(), 2);
        assert_eq!(plan.sub_len(), 32);
        assert_eq!(plan.level(0).size, 128);
        assert_eq!(plan.level(1).size, 64);
        assert_eq!(plan.filters().taps(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_length() {
        let _ = WfftPlan::new(100, WaveletBasis::Haar);
    }

    #[test]
    #[should_panic(expected = "too many stages")]
    fn rejects_excess_stages() {
        let _ = WfftPlan::with_stages(16, WaveletBasis::Haar, 4);
    }

    #[test]
    #[should_panic(expected = "must match plan length")]
    fn rejects_wrong_input_length() {
        let plan = WfftPlan::new(16, WaveletBasis::Haar);
        let _ = plan.forward(&[Cx::ZERO; 8], &mut OpCount::default());
    }
}
