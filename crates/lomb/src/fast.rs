//! Fast-Lomb (Press–Rybicki) periodogram over a pluggable FFT backend.
//!
//! The PSA pipeline of the paper (Fig. 1(a)): unevenly sampled RR data are
//! extirpolated onto a fixed `N`-point mesh (N = 512), the mesh arrays for
//! the data and for the unit weights are transformed by **one packed
//! complex FFT**, and the "Lomb calculator" combines the four resulting
//! sums into the normalised periodogram. The FFT kernel — the block the
//! paper prunes — is abstracted behind [`FftBackend`], so the identical
//! pipeline runs on the conventional split-radix kernel or the pruned
//! wavelet FFT.

use crate::extirpolate::{extirpolate, DEFAULT_ORDER};
use crate::periodogram::Periodogram;
use hrv_dsp::{
    fft_real_pair, mean, sample_variance, simd, BlockOps, Cx, FftBackend, OpCount, Window,
};

/// Reusable working memory for the mesh-construction and prepare stages.
///
/// The batch pipeline allocates one of these per call; long-running callers
/// (the `hrv-stream` engine) keep a single instance per scratch slot so the
/// per-window hot path performs no heap allocation in steady state.
#[derive(Clone, Debug, Default)]
pub struct MeshScratch {
    tapered: Vec<f64>,
    /// Cached taper coefficients for the resampled mesh, keyed by the
    /// `(window, n)` pair they were evaluated for. Built with the same
    /// per-point [`Window::evaluate`] calls as the uncached code, so the
    /// values are bit-identical; caching just lifts the transcendentals
    /// out of the per-window hot path.
    taper: Vec<f64>,
    taper_key: Option<(Window, usize)>,
    grid: Vec<f64>,
    /// Per knot interval: width, reciprocal width, slope, and the Thomas
    /// `c′`/`d′` of the knot that starts it (entry 0, a boundary knot,
    /// unused).
    h: Vec<f64>,
    inv_h: Vec<f64>,
    slope: Vec<f64>,
    c_prime: Vec<f64>,
    d_prime: Vec<f64>,
    /// Per knot interval: the cubic's `[c0, c1, c2, c3]`.
    coef: Vec<[f64; 4]>,
}

impl MeshScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of the buffers' capacities (elements, not bytes).
    pub(crate) fn capacity_signature(&self) -> usize {
        [
            &self.tapered,
            &self.taper,
            &self.grid,
            &self.h,
            &self.inv_h,
            &self.slope,
            &self.c_prime,
            &self.d_prime,
        ]
        .iter()
        .map(|v| v.capacity())
        .sum::<usize>()
            + 4 * self.coef.capacity()
    }
}

/// Block names used in profiled runs (paper Fig. 1(b)).
pub mod blocks {
    /// Mean/variance and mesh preparation.
    pub const PREPARE: &str = "prepare";
    /// Extirpolation of data and weights onto the mesh.
    pub const EXTIRPOLATE: &str = "extirpolate";
    /// The FFT kernel.
    pub const FFT: &str = "fft";
    /// The Lomb combination stage.
    pub const LOMB: &str = "lomb-calculator";
}

/// How the uneven samples are placed onto the regular FFT mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshStrategy {
    /// Press–Rybicki Lagrange extirpolation of the given order — the
    /// numerically faithful Fast-Lomb (library default). The resulting
    /// mesh is an impulse train, which is *not* wavelet-sparse.
    Extirpolate {
        /// Lagrange interpolation order (the classic `fasper` uses 4).
        order: usize,
    },
    /// The paper's front end (Fig. 3(a)): the RR tachogram is resampled
    /// by a natural cubic spline onto **all** `fft_len` mesh points, held
    /// constant outside the first and last beat — for the paper's
    /// 512-point FFT over 2-minute windows this is the standard ≈4 Hz
    /// HRV resampling. The Lomb weights become uniform, so the weight
    /// spectrum is a DC impulse and the combination reduces to the
    /// classic periodogram. The mesh is smooth, hence approximately
    /// sparse in the wavelet domain — the premise of the band-drop
    /// approximation. The implied oversampling is 1 (`df = 1/span`),
    /// overriding `ofac`.
    Resample,
}

/// Configuration of the Fast-Lomb estimator.
///
/// # Examples
///
/// ```
/// use hrv_dsp::{OpCount, SplitRadixFft};
/// use hrv_lomb::FastLomb;
///
/// let estimator = FastLomb::new(512, 2.0);
/// let times: Vec<f64> = (0..100).map(|i| i as f64 * 0.9).collect();
/// let values: Vec<f64> = times.iter()
///     .map(|&t| 0.9 + 0.1 * (2.0 * std::f64::consts::PI * 0.25 * t).sin())
///     .collect();
/// let backend = SplitRadixFft::new(512);
/// let p = estimator.periodogram(&backend, &times, &values, &mut OpCount::default());
/// assert!((p.peak_frequency() - 0.25).abs() < 0.02);
/// ```
#[derive(Clone, Debug)]
pub struct FastLomb {
    fft_len: usize,
    ofac: f64,
    mesh: MeshStrategy,
    window: Window,
    span_override: Option<f64>,
    max_freq: Option<f64>,
}

impl FastLomb {
    /// Creates an estimator with mesh/FFT length `fft_len` and oversampling
    /// factor `ofac`.
    ///
    /// # Panics
    ///
    /// Panics if `fft_len < 8` or not a power of two, or `ofac < 1`.
    pub fn new(fft_len: usize, ofac: f64) -> Self {
        assert!(
            hrv_dsp::is_power_of_two(fft_len) && fft_len >= 8,
            "fft_len must be a power of two ≥ 8, got {fft_len}"
        );
        assert!(ofac >= 1.0, "oversampling factor must be ≥ 1, got {ofac}");
        FastLomb {
            fft_len,
            ofac,
            mesh: MeshStrategy::Extirpolate {
                order: DEFAULT_ORDER,
            },
            window: Window::Rectangular,
            span_override: None,
            max_freq: None,
        }
    }

    /// Selects the paper's smooth-resampling front end (see
    /// [`MeshStrategy::Resample`]). The effective oversampling factor
    /// becomes 1 regardless of the constructor's `ofac`.
    pub fn with_resampled_mesh(mut self) -> Self {
        self.mesh = MeshStrategy::Resample;
        self.ofac = 1.0;
        self
    }

    /// The active mesh strategy.
    pub fn mesh_strategy(&self) -> MeshStrategy {
        self.mesh
    }

    /// Sets the extirpolation order (default 4); no effect on the
    /// resampled mesh.
    ///
    /// # Panics
    ///
    /// Panics if `order` is 0 or larger than the mesh.
    pub fn with_order(mut self, order: usize) -> Self {
        assert!(
            order >= 1 && order <= self.fft_len,
            "invalid extirpolation order {order}"
        );
        if let MeshStrategy::Extirpolate { .. } = self.mesh {
            self.mesh = MeshStrategy::Extirpolate { order };
        }
        self
    }

    /// Applies a taper to the de-meaned values (Welch–Lomb segmentation).
    pub fn with_window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Fixes the segment span (seconds) instead of deriving it from the
    /// observed time range — this keeps the frequency grid identical
    /// across sliding windows.
    ///
    /// # Panics
    ///
    /// Panics if `span` is not positive.
    pub fn with_span(mut self, span: f64) -> Self {
        assert!(span > 0.0, "span must be positive");
        self.span_override = Some(span);
        self
    }

    /// Limits the highest emitted frequency (hertz).
    ///
    /// # Panics
    ///
    /// Panics if `max_freq` is not positive.
    pub fn with_max_freq(mut self, max_freq: f64) -> Self {
        assert!(max_freq > 0.0, "max_freq must be positive");
        self.max_freq = Some(max_freq);
        self
    }

    /// Mesh / FFT length.
    pub fn fft_len(&self) -> usize {
        self.fft_len
    }

    /// Oversampling factor.
    pub fn ofac(&self) -> f64 {
        self.ofac
    }

    /// The segment span in seconds: the [`FastLomb::with_span`] value, or
    /// the observed time range when no override is set.
    pub(crate) fn span_of(&self, times: &[f64]) -> f64 {
        let observed_span = times.last().expect("non-empty") - times[0];
        self.span_override.unwrap_or(observed_span)
    }

    /// Fills `wk1`/`wk2` with the data and weight meshes for
    /// `(times, values)` under the active strategy, reusing `scratch` for
    /// spline intermediates; the cost is accounted into `ops`.
    ///
    /// This is the mesh-construction stage of
    /// [`FastLomb::periodogram_profiled`], exposed so the streaming engine
    /// can run the identical arithmetic without per-window allocation.
    ///
    /// # Panics
    ///
    /// Same input conditions as [`FastLomb::periodogram_profiled`]
    /// (lengths, sample count, positive span).
    pub fn meshes_into(
        &self,
        times: &[f64],
        values: &[f64],
        wk1: &mut Vec<f64>,
        wk2: &mut Vec<f64>,
        scratch: &mut MeshScratch,
        ops: &mut OpCount,
    ) {
        assert_eq!(times.len(), values.len(), "times and values must match");
        assert!(times.len() >= 3, "need at least 3 samples");
        let t0 = times[0];
        let span = self.span_of(times);
        assert!(span > 0.0, "time span must be positive");
        wk1.clear();
        wk1.resize(self.fft_len, 0.0);
        wk2.clear();
        wk2.resize(self.fft_len, 0.0);
        match self.mesh {
            MeshStrategy::Extirpolate { order } => {
                let ave = mean(values);
                ops.add += values.len() as u64;
                ops.div += 1;
                let ndim = self.fft_len as f64;
                let fac = ndim / (span * self.ofac);
                for (&t, &x) in times.iter().zip(values) {
                    let w = self.window.evaluate((t - t0) / span);
                    let ck = ((t - t0) * fac) % ndim;
                    let ckk = (2.0 * ck) % ndim;
                    ops.add += 2;
                    ops.mul += 3;
                    extirpolate((x - ave) * w, ck, wk1, order, ops);
                    extirpolate(1.0, ckk, wk2, order, ops);
                }
            }
            MeshStrategy::Resample => {
                let n = self.fft_len;
                // Cubic-spline resampling of the tachogram onto the full
                // mesh (the paper's "extrapolation to N values", ≈ 4 Hz
                // for the 512-point / 2-minute configuration). Splines
                // are the Task-Force-recommended HRV resampler: linear
                // interpolation would attenuate the HF band noticeably.
                spline_resample(times, values, t0, span, n, scratch, ops);
                let ave = mean(&scratch.grid);
                ops.add += n as u64;
                ops.div += 1;
                if scratch.taper_key != Some((self.window, n)) {
                    scratch.taper.clear();
                    scratch
                        .taper
                        .extend((0..n).map(|i| self.window.evaluate(i as f64 / (n - 1) as f64)));
                    scratch.taper_key = Some((self.window, n));
                }
                // De-mean and taper in one vectorized pass; the uniform
                // Lomb weights (one unit per resampled point) are a plain
                // fill. Bulk tallies match the former per-point loop.
                simd::demean_taper_into(wk1, &scratch.grid, ave, &scratch.taper);
                wk2.fill(1.0);
                ops.add += n as u64;
                ops.mul += n as u64;
                ops.store += 2 * n as u64;
            }
        }
    }

    /// The prepare stage of the pipeline: variance of the tapered,
    /// de-meaned series (σ² of eq. (1)), with the same operation
    /// accounting as [`FastLomb::periodogram_profiled`].
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or a constant (zero-variance) input.
    pub fn prepare_variance(
        &self,
        times: &[f64],
        values: &[f64],
        scratch: &mut MeshScratch,
        ops: &mut OpCount,
    ) -> f64 {
        assert_eq!(times.len(), values.len(), "times and values must match");
        let t0 = times[0];
        let span = self.span_of(times);
        let ave = mean(values);
        ops.add += values.len() as u64;
        ops.div += 1;
        scratch.tapered.clear();
        scratch
            .tapered
            .extend(times.iter().zip(values).map(|(&t, &x)| {
                let w = self.window.evaluate((t - t0) / span);
                ops.add += 2;
                ops.mul += 1;
                (x - ave) * w
            }));
        // Variance of the tapered, de-meaned series (σ² of eq. (1)).
        let var = {
            let v = sample_variance(&scratch.tapered);
            ops.mul += scratch.tapered.len() as u64;
            ops.add += 2 * scratch.tapered.len() as u64;
            ops.div += 1;
            v
        };
        assert!(var > 0.0, "constant input has no spectrum");
        var
    }

    /// The Lomb-calculator stage: combines the data spectrum `first` and
    /// weight spectrum `second` (bins `0..=fft_len/2`) into the normalised
    /// periodogram, writing the grid into `freqs`/`power`.
    ///
    /// `span` is the segment span in seconds (the `with_span` value, or
    /// the observed time range when no override is set); `n_times` is the
    /// number of raw samples in the window (the effective data count under
    /// [`MeshStrategy::Resample`] is the mesh length and is substituted
    /// internally); `var` is the prepare-stage variance.
    ///
    /// # Panics
    ///
    /// Panics when the frequency cap leaves no output bins.
    #[allow(clippy::too_many_arguments)]
    pub fn combine_into(
        &self,
        first: &[Cx],
        second: &[Cx],
        span: f64,
        n_times: usize,
        var: f64,
        freqs: &mut Vec<f64>,
        power: &mut Vec<f64>,
        ops: &mut OpCount,
    ) {
        let df = 1.0 / (span * self.effective_ofac());
        let mut nout = self.fft_len / 2 - 1;
        if let Some(fmax) = self.max_freq {
            nout = nout.min((fmax / df).floor() as usize);
        }
        assert!(nout >= 1, "frequency cap leaves no output bins");
        let n_data = match self.mesh {
            MeshStrategy::Extirpolate { .. } => n_times as f64,
            // The resampled series has fft_len uniform "samples".
            MeshStrategy::Resample => self.fft_len as f64,
        };
        freqs.clear();
        power.clear();
        freqs.resize(nout, 0.0);
        power.resize(nout, 0.0);
        // Vectorized Press–Rybicki combination (thresholds and sign
        // transfer are branchless selects on every dispatch path). Bulk
        // tallies match the former per-bin loop.
        simd::lomb_combine(first, second, df, n_data, var, freqs, power);
        let nout = nout as u64;
        ops.mul += 12 * nout;
        ops.add += 7 * nout;
        ops.div += 4 * nout;
        ops.sqrt += 3 * nout;
        ops.cmp += nout;
    }

    /// Effective oversampling factor (`Resample` pins it to 1).
    fn effective_ofac(&self) -> f64 {
        match self.mesh {
            MeshStrategy::Extirpolate { .. } => self.ofac,
            MeshStrategy::Resample => 1.0,
        }
    }

    /// The packed complex mesh `wk1 + i·wk2` that the FFT backend will
    /// see for this input — the training data for design-time threshold
    /// calibration (paper eq. (3) and the dynamic thresholds of §VI.C).
    ///
    /// # Panics
    ///
    /// Same conditions as [`FastLomb::periodogram_profiled`] (no backend
    /// involved).
    pub fn packed_mesh(&self, times: &[f64], values: &[f64]) -> Vec<hrv_dsp::Cx> {
        assert_eq!(times.len(), values.len(), "times and values must match");
        assert!(times.len() >= 3, "need at least 3 samples");
        let observed_span = times.last().expect("non-empty") - times[0];
        assert!(observed_span > 0.0, "time span must be positive");
        let (mut wk1, mut wk2) = (Vec::new(), Vec::new());
        let (mut scratch, mut ops) = (MeshScratch::new(), OpCount::default());
        self.meshes_into(times, values, &mut wk1, &mut wk2, &mut scratch, &mut ops);
        wk1.iter()
            .zip(&wk2)
            .map(|(&re, &im)| hrv_dsp::Cx::new(re, im))
            .collect()
    }

    /// Normalised Lomb periodogram of `(times, values)`, aggregated op
    /// accounting.
    ///
    /// # Panics
    ///
    /// See [`FastLomb::periodogram_profiled`].
    pub fn periodogram(
        &self,
        backend: &dyn FftBackend,
        times: &[f64],
        values: &[f64],
        ops: &mut OpCount,
    ) -> Periodogram {
        let mut blocks = BlockOps::new();
        let p = self.periodogram_profiled(backend, times, values, &mut blocks);
        *ops += blocks.grand_total();
        p
    }

    /// Like [`FastLomb::periodogram`] but records per-block operation
    /// counts under the names in [`blocks`] — the data behind the paper's
    /// energy-profile figure.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 3 samples are given, lengths mismatch, the
    /// backend length differs from `fft_len`, the observed span is zero,
    /// or the values are constant.
    pub fn periodogram_profiled(
        &self,
        backend: &dyn FftBackend,
        times: &[f64],
        values: &[f64],
        profile: &mut BlockOps,
    ) -> Periodogram {
        assert_eq!(times.len(), values.len(), "times and values must match");
        assert!(times.len() >= 3, "need at least 3 samples");
        assert_eq!(
            backend.len(),
            self.fft_len,
            "backend length {} must match fft_len {}",
            backend.len(),
            self.fft_len
        );
        let t0 = times[0];
        let observed_span = times.last().expect("non-empty") - t0;
        assert!(observed_span > 0.0, "time span must be positive");
        let span = self.span_override.unwrap_or(observed_span);

        // ---- prepare: variance for the Lomb normalisation ---------------
        let mut scratch = MeshScratch::new();
        let mut ops = OpCount::default();
        let var = self.prepare_variance(times, values, &mut scratch, &mut ops);
        profile.record(blocks::PREPARE, ops);

        // ---- mesh construction (extirpolation or resampling) ------------
        let mut ops = OpCount::default();
        let mut wk1 = Vec::new();
        let mut wk2 = Vec::new();
        self.meshes_into(times, values, &mut wk1, &mut wk2, &mut scratch, &mut ops);
        profile.record(blocks::EXTIRPOLATE, ops);

        // ---- one packed complex FFT for both meshes ---------------------
        let mut ops = OpCount::default();
        let spectra = fft_real_pair(backend, &wk1, &wk2, &mut ops);
        profile.record(blocks::FFT, ops);

        // ---- Lomb calculator --------------------------------------------
        let mut ops = OpCount::default();
        let mut freqs = Vec::new();
        let mut power = Vec::new();
        self.combine_into(
            &spectra.first,
            &spectra.second,
            span,
            times.len(),
            var,
            &mut freqs,
            &mut power,
            &mut ops,
        );
        profile.record(blocks::LOMB, ops);

        Periodogram::new(freqs, power)
    }
}

/// Natural cubic-spline resampling of `(times, values)` onto `n` uniform
/// points over `[t0, t0 + span]` into `scratch.grid`, with constant
/// extrapolation outside the observed knots. The Thomas-algorithm solve and
/// the per-point evaluation are charged to `ops`.
fn spline_resample(
    times: &[f64],
    values: &[f64],
    t0: f64,
    span: f64,
    n: usize,
    scratch: &mut MeshScratch,
    ops: &mut OpCount,
) {
    let k = times.len();
    debug_assert!(k >= 3, "caller validates sample count");
    let MeshScratch {
        grid,
        h,
        inv_h,
        slope,
        c_prime,
        d_prime,
        coef,
        ..
    } = scratch;
    // Every entry below is written before it is read, so a resize only
    // fills when the knot count grows.
    for buf in [
        &mut *h,
        &mut *inv_h,
        &mut *slope,
        &mut *c_prime,
        &mut *d_prime,
    ] {
        buf.resize(k - 1, 0.0);
    }
    coef.resize(k - 1, [0.0; 4]);

    // Forward sweep. Interval i's width, reciprocal and slope (one
    // division per interval, so the dense loop is division-free, as an
    // embedded implementation would arrange it), then the Thomas
    // elimination of row i of the tridiagonal system for the natural
    // spline's second derivatives M (M_0 = M_{k-1} = 0), which needs
    // intervals i−1 and i. Row 0 is the boundary: c′ = d′ = 0.
    let (mut h_prev, mut slope_prev) = (0.0, 0.0);
    let (mut c_prev, mut d_prev) = (0.0, 0.0);
    for i in 0..k - 1 {
        let h_next = times[i + 1] - times[i];
        let inv = 1.0 / h_next;
        let s = (values[i + 1] - values[i]) * inv;
        if i > 0 {
            let b = 2.0 * (h_prev + h_next);
            let d = 6.0 * (s - slope_prev);
            let inv_denom = 1.0 / (b - h_prev * c_prev);
            c_prev = h_next * inv_denom;
            d_prev = (d - h_prev * d_prev) * inv_denom;
            c_prime[i] = c_prev;
            d_prime[i] = d_prev;
        }
        h[i] = h_next;
        inv_h[i] = inv;
        slope[i] = s;
        h_prev = h_next;
        slope_prev = s;
    }

    // Backward sweep: back-substitute M_i, then write interval i's cubic
    // so the dense loop is a 3-mul/4-add Horner evaluation:
    // s(u) = ((c3·u + c2)·u + c1)·u + c0, u = t − t_i.
    let mut m_next = 0.0;
    for i in (0..k - 1).rev() {
        let m = if i > 0 {
            d_prime[i] - c_prime[i] * m_next
        } else {
            0.0
        };
        coef[i] = [
            values[i],
            slope[i] - h[i] * (2.0 * m + m_next) / 6.0,
            0.5 * m,
            (m_next - m) * inv_h[i] / 6.0,
        ];
        m_next = m;
    }
    // The solve's tallies, charged in bulk: per interval, 2 add/1 mul/
    // 1 div for width and slope and 3 add/6 mul/4 stores for its cubic;
    // per interior row, 5 add/6 mul/1 div to eliminate and 1 add/1 mul
    // to back-substitute.
    let (intervals, rows) = ((k - 1) as u64, (k - 2) as u64);
    ops.add += 5 * intervals + 6 * rows;
    ops.mul += 7 * intervals + 7 * rows;
    ops.div += intervals + rows;
    ops.store += 4 * intervals;

    let step = span / (n - 1) as f64;
    let mut seg = 0usize;
    grid.clear();
    grid.extend((0..n).map(|j| {
        let t = t0 + step * j as f64;
        ops.add += 1;
        ops.mul += 1;
        if t <= times[0] {
            return values[0];
        }
        if t >= times[k - 1] {
            return values[k - 1];
        }
        // The query points are monotone: advance the segment cursor
        // instead of binary-searching (counted as comparisons).
        while times[seg + 1] < t {
            seg += 1;
            ops.cmp += 1;
        }
        ops.cmp += 1;
        let u = t - times[seg];
        ops.add += 4;
        ops.mul += 3;
        let [c0, c1, c2, c3] = coef[seg];
        ((c3 * u + c2) * u + c1) * u + c0
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::lomb_direct;
    use hrv_dsp::SplitRadixFft;

    fn uneven_times(n: usize, mean_dt: f64, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut t = 0.0;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let jitter = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.3;
                t += mean_dt * (1.0 + jitter);
                t
            })
            .collect()
    }

    fn tone(times: &[f64], f0: f64, amp: f64) -> Vec<f64> {
        times
            .iter()
            .map(|&t| 0.9 + amp * (2.0 * std::f64::consts::PI * f0 * t).sin())
            .collect()
    }

    #[test]
    fn finds_tone_frequency() {
        let times = uneven_times(117, 1.02, 1); // ≈ paper's 117 RR / 2 min
        let values = tone(&times, 0.3, 0.08);
        let est = FastLomb::new(512, 2.0);
        let backend = SplitRadixFft::new(512);
        let p = est.periodogram(&backend, &times, &values, &mut OpCount::default());
        assert!(
            (p.peak_frequency() - 0.3).abs() < 0.02,
            "peak {}",
            p.peak_frequency()
        );
    }

    #[test]
    fn agrees_with_direct_lomb_in_hrv_band() {
        let times = uneven_times(117, 1.02, 2);
        let values = tone(&times, 0.25, 0.06);
        let ofac = 2.0;
        let est = FastLomb::new(512, ofac);
        let backend = SplitRadixFft::new(512);
        let fast = est.periodogram(&backend, &times, &values, &mut OpCount::default());
        let nout = fast.len();
        let direct = lomb_direct(&times, &values, ofac, nout, &mut OpCount::default());
        // Compare band powers in LF and HF — the quantities the paper's
        // quality metric is built from.
        for (lo, hi) in [(0.04, 0.15), (0.15, 0.4)] {
            let pf = fast.band_power(lo, hi);
            let pd = direct.band_power(lo, hi);
            let rel = (pf - pd).abs() / pd.max(1e-12);
            assert!(
                rel < 0.05,
                "band {lo}-{hi}: fast {pf} vs direct {pd} (rel {rel})"
            );
        }
    }

    #[test]
    fn per_bin_agreement_with_direct_at_low_frequencies() {
        let times = uneven_times(100, 1.0, 3);
        let values = tone(&times, 0.1, 0.05);
        let est = FastLomb::new(1024, 2.0);
        let backend = SplitRadixFft::new(1024);
        let fast = est.periodogram(&backend, &times, &values, &mut OpCount::default());
        let direct = lomb_direct(&times, &values, 2.0, 120, &mut OpCount::default());
        for j in 0..100 {
            let rel = (fast.power()[j] - direct.power()[j]).abs() / direct.power()[j].max(1.0);
            assert!(
                rel < 0.03,
                "bin {j}: {} vs {}",
                fast.power()[j],
                direct.power()[j]
            );
        }
    }

    #[test]
    fn profiled_blocks_show_fft_dominating() {
        // Paper Fig. 1(b): the FFT accounts for the majority of the
        // computation of the conventional system.
        let times = uneven_times(117, 1.02, 4);
        let values = tone(&times, 0.3, 0.06);
        let est = FastLomb::new(512, 2.0);
        let backend = SplitRadixFft::new(512);
        let mut blocks = BlockOps::new();
        let _ = est.periodogram_profiled(&backend, &times, &values, &mut blocks);
        let fft = blocks.get(blocks::FFT).expect("fft block").arithmetic();
        let total = blocks.grand_total().arithmetic();
        assert!(
            fft as f64 / total as f64 > 0.5,
            "fft share {} of {total}",
            fft
        );
        assert_eq!(blocks.len(), 4);
    }

    #[test]
    fn span_override_fixes_grid() {
        let times = uneven_times(100, 1.0, 5);
        let values = tone(&times, 0.2, 0.05);
        let est = FastLomb::new(512, 2.0).with_span(120.0);
        let backend = SplitRadixFft::new(512);
        let p = est.periodogram(&backend, &times, &values, &mut OpCount::default());
        assert!((p.df() - 1.0 / 240.0).abs() < 1e-12);
    }

    #[test]
    fn max_freq_caps_output() {
        let times = uneven_times(100, 1.0, 6);
        let values = tone(&times, 0.2, 0.05);
        let est = FastLomb::new(512, 2.0).with_span(120.0).with_max_freq(1.0);
        let backend = SplitRadixFft::new(512);
        let p = est.periodogram(&backend, &times, &values, &mut OpCount::default());
        assert!(p.freqs().last().unwrap() <= &1.0);
        assert_eq!(p.len(), 240);
    }

    #[test]
    fn taper_preserves_peak_location() {
        let times = uneven_times(150, 0.8, 7);
        let values = tone(&times, 0.3, 0.08);
        let backend = SplitRadixFft::new(512);
        for window in Window::ALL {
            let est = FastLomb::new(512, 2.0).with_window(window);
            let p = est.periodogram(&backend, &times, &values, &mut OpCount::default());
            assert!(
                (p.peak_frequency() - 0.3).abs() < 0.03,
                "{window}: peak {}",
                p.peak_frequency()
            );
        }
    }

    #[test]
    fn resampled_mesh_finds_the_tone_too() {
        let times = uneven_times(117, 1.02, 21);
        let values = tone(&times, 0.25, 0.06);
        let est = FastLomb::new(512, 2.0).with_resampled_mesh();
        assert_eq!(est.mesh_strategy(), MeshStrategy::Resample);
        let backend = SplitRadixFft::new(512);
        let p = est.periodogram(&backend, &times, &values, &mut OpCount::default());
        assert!(
            (p.peak_frequency() - 0.25).abs() < 0.02,
            "peak {}",
            p.peak_frequency()
        );
    }

    #[test]
    fn resampled_ratio_tracks_direct_lomb() {
        // Smooth resampling biases the spectrum slightly (it is the very
        // interpolation the exact Lomb avoids); for dense RR-like data
        // with genuine LF and HF content the LF/HF *ratio* stays within
        // ~20 %.
        let times = uneven_times(130, 0.9, 22);
        let values: Vec<f64> = times
            .iter()
            .map(|&t| {
                0.9 + 0.04 * (2.0 * std::f64::consts::PI * 0.1 * t).sin()
                    + 0.06 * (2.0 * std::f64::consts::PI * 0.3 * t).sin()
            })
            .collect();
        let est = FastLomb::new(512, 2.0).with_resampled_mesh();
        let backend = SplitRadixFft::new(512);
        let fast = est.periodogram(&backend, &times, &values, &mut OpCount::default());
        let direct = lomb_direct(
            &times,
            &values,
            1.0,
            fast.len().min(110),
            &mut OpCount::default(),
        );
        let ratio = |p: &crate::periodogram::Periodogram| {
            p.band_power(0.04, 0.15) / p.band_power(0.15, 0.4)
        };
        let rf = ratio(&fast);
        let rd = ratio(&direct);
        let rel = (rf - rd).abs() / rd;
        assert!(rel < 0.2, "LF/HF fast {rf} vs direct {rd} (rel {rel})");
    }

    #[test]
    fn resampled_mesh_is_smooth_and_fully_filled() {
        let times = uneven_times(117, 1.02, 23);
        let values = tone(&times, 0.25, 0.06);
        let est = FastLomb::new(512, 2.0).with_resampled_mesh();
        let mesh = est.packed_mesh(&times, &values);
        // Uniform unit weights across the whole mesh.
        assert!(mesh.iter().all(|z| (z.im - 1.0).abs() < 1e-12));
        // Smoothness: the mean step between adjacent samples is far below
        // the tone amplitude (≈ 4 Hz sampling of a ≤ 0.4 Hz signal).
        let diffs: f64 = (1..512)
            .map(|i| (mesh[i].re - mesh[i - 1].re).abs())
            .sum::<f64>()
            / 511.0;
        assert!(diffs < 0.02, "mean |Δ| = {diffs}");
    }

    #[test]
    fn packed_mesh_matches_pipeline_input() {
        // Transforming the exposed mesh with the backend must produce the
        // same spectra the pipeline uses internally: verify via the DC
        // bins (sum of tapered data = 0 after de-meaning, count of points
        // in wk2).
        let times = uneven_times(90, 1.0, 11);
        let values = tone(&times, 0.2, 0.05);
        let est = FastLomb::new(512, 2.0);
        let mesh = est.packed_mesh(&times, &values);
        assert_eq!(mesh.len(), 512);
        let wk1_sum: f64 = mesh.iter().map(|z| z.re).sum();
        let wk2_sum: f64 = mesh.iter().map(|z| z.im).sum();
        assert!(wk1_sum.abs() < 1e-9, "de-meaned data sums to zero");
        assert!((wk2_sum - times.len() as f64).abs() < 1e-9, "unit weights");
    }

    #[test]
    fn accessors() {
        let est = FastLomb::new(256, 4.0).with_order(2);
        assert_eq!(est.fft_len(), 256);
        assert_eq!(est.ofac(), 4.0);
    }

    #[test]
    #[should_panic(expected = "must match fft_len")]
    fn backend_length_mismatch_rejected() {
        let est = FastLomb::new(512, 2.0);
        let backend = SplitRadixFft::new(256);
        let times: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let values = tone(&times, 0.1, 0.1);
        let _ = est.periodogram(&backend, &times, &values, &mut OpCount::default());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_fft_len_rejected() {
        let _ = FastLomb::new(500, 2.0);
    }

    /// Working buffers of [`reference_spline_resample`].
    #[derive(Default)]
    struct ReferenceScratch {
        grid: Vec<f64>,
        inv_h: Vec<f64>,
        slope: Vec<f64>,
        m: Vec<f64>,
        c_prime: Vec<f64>,
        d_prime: Vec<f64>,
        c0: Vec<f64>,
        c1: Vec<f64>,
        c2: Vec<f64>,
        c3: Vec<f64>,
    }

    /// The four-pass solve (interval tables, Thomas forward sweep,
    /// back-substitution, coefficient loop) with per-iteration tallies:
    /// the oracle for [`spline_resample`].
    fn reference_spline_resample(
        times: &[f64],
        values: &[f64],
        t0: f64,
        span: f64,
        n: usize,
        scratch: &mut ReferenceScratch,
        ops: &mut OpCount,
    ) {
        let k = times.len();
        debug_assert!(k >= 3, "caller validates sample count");

        // Per-interval tables: widths, their reciprocals, slopes. One division
        // per knot interval; the dense evaluation loop is division-free, as an
        // embedded implementation would arrange it.
        let inv_h = &mut scratch.inv_h;
        inv_h.clear();
        inv_h.resize(k - 1, 0.0);
        let slope = &mut scratch.slope;
        slope.clear();
        slope.resize(k - 1, 0.0);
        for i in 0..k - 1 {
            let h = times[i + 1] - times[i];
            inv_h[i] = 1.0 / h;
            slope[i] = (values[i + 1] - values[i]) * inv_h[i];
            ops.add += 2;
            ops.mul += 1;
            ops.div += 1;
        }

        // Second derivatives M_i of the natural spline (M_0 = M_{k-1} = 0),
        // via the Thomas algorithm on the tridiagonal system.
        let m = &mut scratch.m;
        m.clear();
        m.resize(k, 0.0);
        let c_prime = &mut scratch.c_prime;
        c_prime.clear();
        c_prime.resize(k, 0.0);
        let d_prime = &mut scratch.d_prime;
        d_prime.clear();
        d_prime.resize(k, 0.0);
        for i in 1..k - 1 {
            let h_prev = times[i] - times[i - 1];
            let h_next = times[i + 1] - times[i];
            let b = 2.0 * (h_prev + h_next);
            let d = 6.0 * (slope[i] - slope[i - 1]);
            let inv_denom = 1.0 / (b - h_prev * c_prime[i - 1]);
            c_prime[i] = h_next * inv_denom;
            d_prime[i] = (d - h_prev * d_prime[i - 1]) * inv_denom;
            ops.add += 5;
            ops.mul += 6;
            ops.div += 1;
        }
        for i in (1..k - 1).rev() {
            m[i] = d_prime[i] - c_prime[i] * m[i + 1];
            ops.add += 1;
            ops.mul += 1;
        }

        // Per-interval cubic coefficients so the dense loop is a 3-mul/4-add
        // Horner evaluation: s(u) = ((c3·u + c2)·u + c1)·u + c0, u = t − t_i.
        let c0 = &mut scratch.c0;
        c0.clear();
        c0.resize(k - 1, 0.0);
        let c1 = &mut scratch.c1;
        c1.clear();
        c1.resize(k - 1, 0.0);
        let c2 = &mut scratch.c2;
        c2.clear();
        c2.resize(k - 1, 0.0);
        let c3 = &mut scratch.c3;
        c3.clear();
        c3.resize(k - 1, 0.0);
        for i in 0..k - 1 {
            let h = times[i + 1] - times[i];
            c0[i] = values[i];
            c1[i] = slope[i] - h * (2.0 * m[i] + m[i + 1]) / 6.0;
            c2[i] = 0.5 * m[i];
            c3[i] = (m[i + 1] - m[i]) * inv_h[i] / 6.0;
            ops.add += 3;
            ops.mul += 6;
            ops.store += 4;
        }

        let step = span / (n - 1) as f64;
        let mut seg = 0usize;
        scratch.grid.clear();
        scratch.grid.extend((0..n).map(|j| {
            let t = t0 + step * j as f64;
            ops.add += 1;
            ops.mul += 1;
            if t <= times[0] {
                return values[0];
            }
            if t >= times[k - 1] {
                return values[k - 1];
            }
            // The query points are monotone: advance the segment cursor
            // instead of binary-searching (counted as comparisons).
            while times[seg + 1] < t {
                seg += 1;
                ops.cmp += 1;
            }
            ops.cmp += 1;
            let u = t - times[seg];
            ops.add += 4;
            ops.mul += 3;
            ((c3[seg] * u + c2[seg]) * u + c1[seg]) * u + c0[seg]
        }));
    }

    /// Runs [`spline_resample`] on `scratch` and the reference on fresh
    /// buffers, and demands the same grid bit for bit and the same tally
    /// in every field.
    fn assert_spline_matches_reference(
        times: &[f64],
        values: &[f64],
        span: f64,
        n: usize,
        scratch: &mut MeshScratch,
    ) {
        let t0 = times[0];
        let mut ops = OpCount::default();
        spline_resample(times, values, t0, span, n, scratch, &mut ops);
        let (mut reference, mut ref_ops) = (ReferenceScratch::default(), OpCount::default());
        reference_spline_resample(times, values, t0, span, n, &mut reference, &mut ref_ops);
        assert_eq!(scratch.grid.len(), n);
        for (j, (a, b)) in scratch.grid.iter().zip(&reference.grid).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "point {j}: {a} vs {b}");
        }
        assert_eq!(ops, ref_ops);
    }

    #[test]
    fn spline_solve_tallies_match_the_closed_form() {
        for k in [3usize, 4, 140] {
            let times: Vec<f64> = (0..k).map(|i| i as f64 * 0.85).collect();
            let values = tone(&times, 0.2, 0.05);
            let span = times[k - 1];
            // Two mesh points, on the end knots: the evaluation charges
            // one add and one mul to each and nothing else.
            let (mut scratch, mut ops) = (MeshScratch::new(), OpCount::default());
            spline_resample(&times, &values, 0.0, span, 2, &mut scratch, &mut ops);
            let (k1, k2) = ((k - 1) as u64, (k - 2) as u64);
            let expected = OpCount {
                add: 5 * k1 + 6 * k2 + 2,
                mul: 7 * k1 + 7 * k2 + 2,
                div: k1 + k2,
                store: 4 * k1,
                ..OpCount::default()
            };
            assert_eq!(ops, expected, "k = {k}");
            assert_spline_matches_reference(&times, &values, span, 2, &mut scratch);
        }
    }

    #[test]
    fn spline_matches_reference_at_the_knot_count_extremes() {
        // One scratch throughout, shrinking and regrowing the knot count,
        // as a stream's reused scratch sees it.
        let mut scratch = MeshScratch::new();
        for (k, mean_dt, span, n) in [
            (140, 0.86, 120.0, 512),
            (3, 1.0, 2.5, 64),
            (3, 40.0, 120.0, 512),
            (60, 0.2, 120.0, 512),
            (140, 0.86, 120.0, 64),
            (141, 0.2, 120.0, 512),
        ] {
            let times = uneven_times(k, mean_dt, k as u64);
            let values = tone(&times, 0.25, 0.06);
            assert_spline_matches_reference(&times, &values, span, n, &mut scratch);
        }
    }

    // Random knot sets: 3 to 150 knots, gaps mixing sub-step clusters
    // (closer than the mesh step) with RR-like intervals, and spans from
    // shorter than the knots to twice their range (a last knot well before
    // `t0 + span`).
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn spline_is_bit_identical_to_the_four_pass_reference(
            gaps in proptest::collection::vec(
                proptest::prop_oneof![0.001f64..0.05, 0.3f64..1.6],
                2..150,
            ),
            levels in proptest::collection::vec(0.4f64..1.4, 150),
            start in 0.0f64..5000.0,
            span_scale in 0.6f64..2.0,
            n in proptest::prop_oneof![proptest::Just(64usize), proptest::Just(512usize)],
        ) {
            let mut times = vec![start];
            for g in &gaps {
                times.push(times[times.len() - 1] + g);
            }
            let values = &levels[..times.len()];
            let span = (times[times.len() - 1] - start) * span_scale;
            assert_spline_matches_reference(&times, values, span, n, &mut MeshScratch::new());
        }
    }
}
