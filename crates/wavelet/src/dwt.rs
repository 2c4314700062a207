//! Single-stage circular (periodised) DWT analysis and synthesis.
//!
//! Conventions (shared with the wavelet-FFT factorisation in `hrv-wfft`):
//!
//! * analysis:  `zL[m] = Σ_j h0[j] · x[(2m − j) mod N]` (circular
//!   convolution followed by ↓2), likewise `zH` with `h1`;
//! * synthesis: the transpose, `x[t] = Σ_m zL[m]·h0[(2m − t) mod N] +
//!   Σ_m zH[m]·h1[(2m − t) mod N]`.
//!
//! With orthonormal CQF filters analysis∘synthesis is the identity, which
//! the tests verify for every basis.

use crate::basis::FilterPair;
use hrv_dsp::{Cx, OpCount};

/// Circular single-stage analysis of complex data.
///
/// Returns `(lowpass, highpass)` halves of length `N/2`. Haar is
/// special-cased into the shared-pair butterfly form (4 real mults + 4 real
/// adds per output pair) that the paper's complexity numbers rely on.
///
/// # Panics
///
/// Panics if `x.len()` is odd, zero, or shorter than the filter.
pub fn analysis_stage(x: &[Cx], filters: &FilterPair, ops: &mut OpCount) -> (Vec<Cx>, Vec<Cx>) {
    let half = x.len() / 2;
    let mut low = vec![Cx::ZERO; half];
    let mut high = vec![Cx::ZERO; half];
    analysis_into(x, filters, &mut low, Some(&mut high), ops);
    (low, high)
}

/// Circular single-stage analysis of complex data into caller-owned
/// halves: the lowpass band always, the highpass band when `high` is
/// given (`None` is the band-drop kernel of the paper's eq. (7): the
/// detail computations are skipped, so the stage costs half the
/// operations).
///
/// The allocation-free form of [`analysis_stage`], which wraps it, so
/// both produce the same bits and op counts.
/// In-place transforms (`hrv-wfft`) keep one copy of their block in
/// scratch as `x` and write the bands straight into the block's halves.
///
/// # Panics
///
/// Panics if `x.len()` is odd or zero, or a band is not `x.len() / 2` long.
// analyze::hot_path
pub fn analysis_into(
    x: &[Cx],
    filters: &FilterPair,
    low: &mut [Cx],
    high: Option<&mut [Cx]>,
    ops: &mut OpCount,
) {
    let n = x.len();
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "input length must be even and ≥ 2, got {n}"
    );
    let half = n / 2;
    assert_eq!(low.len(), half, "lowpass band must hold N/2 samples");
    let bands = 1 + u64::from(high.is_some());
    let l = filters.taps();

    if l == 2 {
        // Haar: zL[m] = (x[2m] + x[2m−1])/√2, zH[m] = (x[2m] − x[2m−1])/√2,
        // computed from the shared pair with one scaling each.
        let s = filters.h0()[0];
        let pairs = x.chunks_exact(2);
        let mut prev = x[n - 1];
        match high {
            Some(high) => {
                assert_eq!(high.len(), half, "highpass band must hold N/2 samples");
                for ((pair, lo), hi) in pairs.zip(low.iter_mut()).zip(high.iter_mut()) {
                    *lo = (pair[0] + prev).scale(s);
                    *hi = (pair[0] - prev).scale(s);
                    prev = pair[1];
                }
            }
            None => {
                for (pair, lo) in pairs.zip(low.iter_mut()) {
                    *lo = (pair[0] + prev).scale(s);
                    prev = pair[1];
                }
            }
        }
        ops.cadd_n(bands * half as u64);
        ops.cmul_real_n(bands * half as u64);
        return;
    }

    filter_band(x, filters.h0(), low);
    if let Some(high) = high {
        assert_eq!(high.len(), half, "highpass band must hold N/2 samples");
        filter_band(x, filters.h1(), high);
    }
    // Per output: L real·complex mults and (L−1) complex adds.
    ops.cmul_real_n(bands * (half * l) as u64);
    ops.cadd_n(bands * (half * (l - 1)) as u64);
}

/// One band of the circular analysis: `out[m] = Σ_j h[j]·x[(2m − j) mod N]`.
fn filter_band(x: &[Cx], h: &[f64], out: &mut [Cx]) {
    let n = x.len();
    let l = h.len();
    for (m, out) in out.iter_mut().enumerate() {
        let mut acc = Cx::ZERO;
        if 2 * m + 1 >= l {
            // The support x[2m−L+1 ..= 2m] lies inside the block.
            for (&sample, &tap) in x[2 * m + 1 - l..=2 * m].iter().rev().zip(h) {
                acc += sample.scale(tap);
            }
        } else {
            // The first outputs wrap around the start of the block.
            for (j, &tap) in h.iter().enumerate() {
                acc += x[(2 * m + n - (j % n)) % n].scale(tap);
            }
        }
        *out = acc;
    }
}

/// Circular single-stage analysis of real data.
///
/// Identical convention to [`analysis_stage`] but with real arithmetic
/// (half the operation cost). Used for RR-interval sparsity analysis
/// (paper Fig. 3).
///
/// # Panics
///
/// Panics if `x.len()` is odd or zero.
pub fn analysis_stage_real(
    x: &[f64],
    filters: &FilterPair,
    ops: &mut OpCount,
) -> (Vec<f64>, Vec<f64>) {
    let n = x.len();
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "input length must be even and ≥ 2, got {n}"
    );
    let half = n / 2;
    let l = filters.taps();
    let mut low = Vec::with_capacity(half);
    let mut high = Vec::with_capacity(half);

    if l == 2 {
        let s = filters.h0()[0];
        for m in 0..half {
            let a = x[2 * m];
            let b = x[(2 * m + n - 1) % n];
            low.push((a + b) * s);
            high.push((a - b) * s);
            ops.add += 2;
            ops.mul += 2;
        }
        return (low, high);
    }

    for m in 0..half {
        let mut acc_l = 0.0;
        let mut acc_h = 0.0;
        for j in 0..l {
            let idx = (2 * m + n - (j % n)) % n;
            acc_l += x[idx] * filters.h0()[j];
            acc_h += x[idx] * filters.h1()[j];
        }
        ops.mul += 2 * l as u64;
        ops.add += 2 * (l as u64 - 1);
        low.push(acc_l);
        high.push(acc_h);
    }
    (low, high)
}

/// Circular single-stage synthesis (inverse of [`analysis_stage`]).
///
/// # Panics
///
/// Panics if the halves differ in length or are empty.
pub fn synthesis_stage(
    low: &[Cx],
    high: &[Cx],
    filters: &FilterPair,
    ops: &mut OpCount,
) -> Vec<Cx> {
    assert_eq!(low.len(), high.len(), "subband lengths must match");
    assert!(!low.is_empty(), "subbands must be non-empty");
    let half = low.len();
    let n = half * 2;
    let l = filters.taps();
    let mut out = vec![Cx::ZERO; n];
    for m in 0..half {
        for j in 0..l {
            let t = (2 * m + n - (j % n)) % n;
            out[t] += low[m].scale(filters.h0()[j]) + high[m].scale(filters.h1()[j]);
            ops.cmul_real_n(2);
            ops.cadd_n(2);
        }
    }
    out
}

/// Circular single-stage synthesis of real subbands.
///
/// # Panics
///
/// Panics if the halves differ in length or are empty.
pub fn synthesis_stage_real(
    low: &[f64],
    high: &[f64],
    filters: &FilterPair,
    ops: &mut OpCount,
) -> Vec<f64> {
    assert_eq!(low.len(), high.len(), "subband lengths must match");
    assert!(!low.is_empty(), "subbands must be non-empty");
    let half = low.len();
    let n = half * 2;
    let l = filters.taps();
    let mut out = vec![0.0; n];
    for m in 0..half {
        for j in 0..l {
            let t = (2 * m + n - (j % n)) % n;
            out[t] += low[m] * filters.h0()[j] + high[m] * filters.h1()[j];
            ops.mul += 2;
            ops.add += 2;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::WaveletBasis;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 * 0.1 - 1.0).collect()
    }

    fn ramp_cx(n: usize) -> Vec<Cx> {
        (0..n)
            .map(|i| Cx::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect()
    }

    #[test]
    fn perfect_reconstruction_real_all_bases() {
        for basis in WaveletBasis::ALL {
            let pair = FilterPair::new(basis);
            let x = ramp(64);
            let mut ops = OpCount::default();
            let (low, high) = analysis_stage_real(&x, &pair, &mut ops);
            let rec = synthesis_stage_real(&low, &high, &pair, &mut ops);
            for (a, b) in x.iter().zip(&rec) {
                assert!((a - b).abs() < 1e-10, "{basis}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn perfect_reconstruction_complex_all_bases() {
        for basis in WaveletBasis::ALL {
            let pair = FilterPair::new(basis);
            let x = ramp_cx(32);
            let mut ops = OpCount::default();
            let (low, high) = analysis_stage(&x, &pair, &mut ops);
            let rec = synthesis_stage(&low, &high, &pair, &mut ops);
            for (a, b) in x.iter().zip(&rec) {
                assert!(a.approx_eq(*b, 1e-10), "{basis}");
            }
        }
    }

    #[test]
    fn energy_preserved_by_analysis() {
        for basis in WaveletBasis::ALL {
            let pair = FilterPair::new(basis);
            let x = ramp(128);
            let mut ops = OpCount::default();
            let (low, high) = analysis_stage_real(&x, &pair, &mut ops);
            let e_in: f64 = x.iter().map(|v| v * v).sum();
            let e_out: f64 = low.iter().chain(&high).map(|v| v * v).sum();
            assert!((e_in - e_out).abs() < 1e-9 * e_in, "{basis}");
        }
    }

    #[test]
    fn constant_signal_has_zero_detail() {
        for basis in WaveletBasis::ALL {
            let pair = FilterPair::new(basis);
            let x = vec![3.0; 64];
            let mut ops = OpCount::default();
            let (low, high) = analysis_stage_real(&x, &pair, &mut ops);
            for h in &high {
                assert!(h.abs() < 1e-10, "{basis}: detail {h}");
            }
            // Lowpass of a constant is constant·√2.
            for l in &low {
                assert!(
                    (l - 3.0 * std::f64::consts::SQRT_2).abs() < 1e-10,
                    "{basis}"
                );
            }
        }
    }

    #[test]
    fn haar_matches_generic_path() {
        // The special-cased Haar kernel must agree with the generic
        // convolution loop (verified by feeding Haar filters through a
        // slightly perturbed-then-restored pair is impossible, so compare
        // against an explicit evaluation instead).
        let pair = FilterPair::new(WaveletBasis::Haar);
        let x = ramp(16);
        let mut ops = OpCount::default();
        let (low, high) = analysis_stage_real(&x, &pair, &mut ops);
        let n = x.len();
        let s = std::f64::consts::FRAC_1_SQRT_2;
        for m in 0..n / 2 {
            let a = x[2 * m];
            let b = x[(2 * m + n - 1) % n];
            assert!((low[m] - (a + b) * s).abs() < 1e-12);
            assert!((high[m] - (a - b) * s).abs() < 1e-12);
        }
    }

    #[test]
    fn haar_stage_n4_is_known() {
        // zL[m] = h0[0]·x[2m] + h0[1]·x[2m−1], zH likewise with h1 =
        // (s, −s); index −1 wraps circularly to 3.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let x = [1.0, 2.0, 3.0, 4.0];
        let (low, high) = analysis_stage_real(
            &x,
            &FilterPair::new(WaveletBasis::Haar),
            &mut OpCount::default(),
        );
        for (got, want) in low.iter().chain(&high).zip([5.0, 5.0, -3.0, 1.0]) {
            assert!((got - want * s).abs() < 1e-12, "{got} vs {}", want * s);
        }
    }

    #[test]
    fn analysis_matches_the_convention_for_every_basis() {
        let n = 16;
        let x = ramp_cx(n);
        for basis in WaveletBasis::ALL {
            let pair = FilterPair::new(basis);
            let band = |h: &[f64], m: usize| -> Cx {
                (0..pair.taps()).fold(Cx::ZERO, |acc, j| acc + x[(2 * m + n - j % n) % n] * h[j])
            };
            let mut ops = OpCount::default();
            let (low, high) = analysis_stage(&x, &pair, &mut ops);
            let re: Vec<f64> = x.iter().map(|v| v.re).collect();
            let (low_re, high_re) = analysis_stage_real(&re, &pair, &mut ops);
            for m in 0..n / 2 {
                let (l, h) = (band(pair.h0(), m), band(pair.h1(), m));
                assert!(low[m].approx_eq(l, 1e-12), "{basis} low {m}");
                assert!(high[m].approx_eq(h, 1e-12), "{basis} high {m}");
                assert!((low_re[m] - l.re).abs() < 1e-12, "{basis} real low {m}");
                assert!((high_re[m] - h.re).abs() < 1e-12, "{basis} real high {m}");
            }
        }
    }

    #[test]
    fn analysis_stage_is_orthogonal_for_every_basis() {
        // Column k of the stage operator is the analysis of the unit
        // vector e_k; the operator is orthogonal iff those columns are
        // orthonormal.
        let n = 32;
        for basis in WaveletBasis::ALL {
            let pair = FilterPair::new(basis);
            let columns: Vec<Vec<Cx>> = (0..n)
                .map(|k| {
                    let mut e = vec![Cx::ZERO; n];
                    e[k] = Cx::real(1.0);
                    let (low, high) = analysis_stage(&e, &pair, &mut OpCount::default());
                    low.into_iter().chain(high).collect()
                })
                .collect();
            for (i, a) in columns.iter().enumerate() {
                for (j, b) in columns.iter().enumerate() {
                    let dot: f64 = a.iter().zip(b).map(|(p, q)| p.re * q.re).sum();
                    let expect = if i == j { 1.0 } else { 0.0 };
                    assert!(
                        (dot - expect).abs() < 1e-10,
                        "{basis}: <e{i}, e{j}> = {dot}"
                    );
                }
            }
        }
    }

    #[test]
    fn haar_costs_fewer_ops_than_db2() {
        let x = ramp_cx(256);
        let mut ops_haar = OpCount::default();
        let mut ops_db2 = OpCount::default();
        let _ = analysis_stage(&x, &FilterPair::new(WaveletBasis::Haar), &mut ops_haar);
        let _ = analysis_stage(&x, &FilterPair::new(WaveletBasis::Db2), &mut ops_db2);
        assert!(ops_haar.arithmetic() < ops_db2.arithmetic());
    }

    #[test]
    fn op_count_scales_with_taps() {
        let x = ramp_cx(128);
        let mut prev = 0;
        for basis in [WaveletBasis::Db2, WaveletBasis::Db4, WaveletBasis::Db6] {
            let mut ops = OpCount::default();
            let _ = analysis_stage(&x, &FilterPair::new(basis), &mut ops);
            assert!(ops.arithmetic() > prev, "{basis}");
            prev = ops.arithmetic();
        }
    }

    #[test]
    fn lowpass_only_matches_full_stage_and_halves_cost() {
        for basis in WaveletBasis::ALL {
            let pair = FilterPair::new(basis);
            let x = ramp_cx(64);
            let mut ops_full = OpCount::default();
            let mut ops_low = OpCount::default();
            let (low_full, _) = analysis_stage(&x, &pair, &mut ops_full);
            let mut low_only = vec![Cx::ZERO; x.len() / 2];
            analysis_into(&x, &pair, &mut low_only, None, &mut ops_low);
            for (a, b) in low_full.iter().zip(&low_only) {
                assert!(a.approx_eq(*b, 1e-12), "{basis}");
            }
            assert_eq!(
                2 * ops_low.arithmetic(),
                ops_full.arithmetic(),
                "{basis}: lowpass-only should cost exactly half"
            );
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_length_rejected() {
        let pair = FilterPair::new(WaveletBasis::Haar);
        let _ = analysis_stage_real(&[1.0, 2.0, 3.0], &pair, &mut OpCount::default());
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn synthesis_rejects_mismatched_subbands() {
        let pair = FilterPair::new(WaveletBasis::Haar);
        let _ = synthesis_stage_real(&[1.0], &[1.0, 2.0], &pair, &mut OpCount::default());
    }
}
