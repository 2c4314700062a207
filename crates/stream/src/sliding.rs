//! The incremental sliding Welch–Lomb engine.
//!
//! [`SlidingLomb`] consumes clean RR samples one at a time and emits a
//! spectrum per hop, reproducing batch [`hrv_lomb::WelchLomb`] windowing
//! bit for bit (same starts, same skip rules, same arithmetic) while doing
//! **less work per window**:
//!
//! * The spectral work of a window — prepare, mesh, FFT, Lomb calculator
//!   — is one call to [`hrv_lomb::LombFft::window`], the routine the cost
//!   probe also runs. Under the paper's resampling front end the Lomb
//!   *weight* mesh is the same all-ones vector for every window, so with an
//!   exact kernel active the routine reuses the cached weight spectrum and
//!   transforms only the data mesh, through a half-length real FFT,
//!   instead of the full packed transform. `BENCH_stream.json` quantifies
//!   the saving. Engines cloned from one prototype share one routine (its
//!   plan tables and weight spectrum).
//! * All per-window buffers come from a reusable [`StreamScratch`], and
//!   every kernel — exact or pruned wavelet — transforms in those buffers,
//!   so the steady-state hot path allocates nothing (measured by
//!   `fleet_throughput`'s counting allocator).
//!
//! The engine itself keeps only what the batch pipeline does around the
//! routine: windowing, skip rules, de-normalisation, band powers and the
//! running average. With an approximate (pruned wavelet) kernel active,
//! the routine runs the identical packed transform the batch system
//! would, so approximation behaviour — and the quality controller's
//! design-time expectations — carry over unchanged.

use crate::scratch::StreamScratch;
use hrv_core::{KernelCache, PsaConfig, PsaError, SpectralPlan};
use hrv_dsp::{sample_variance, BlockOps, FftBackend, OpCount, SplitRadixFft};
use hrv_lomb::{band_powers, BandPowers, FastLomb, LombFft, Periodogram, MIN_WINDOW_SAMPLES};
use std::collections::VecDeque;
use std::sync::Arc;

/// Extra profiling block recorded for audit (exact-reference) windows.
pub const AUDIT_BLOCK: &str = "audit";

/// One emitted window, borrowing the engine's scratch buffers — consuming
/// it allocates nothing.
#[derive(Debug)]
pub struct WindowView<'a> {
    /// Window start time (seconds, absolute).
    pub start: f64,
    /// Number of RR samples in the window.
    pub samples: usize,
    /// Frequency grid (hertz).
    pub freqs: &'a [f64],
    /// De-normalised power values (same scaling as batch Welch–Lomb).
    pub power: &'a [f64],
    /// Integrated HRV band powers of this window.
    pub powers: BandPowers,
    /// LF/HF ratio computed by the *exact* kernel: always present when the
    /// active kernel is exact, and on audit windows otherwise.
    pub exact_lf_hf: Option<f64>,
    /// Operations spent on this window (audit cost included).
    pub ops: OpCount,
    /// Name of the kernel that produced the spectrum.
    pub backend: &'a str,
}

impl WindowView<'_> {
    /// LF/HF ratio of this window.
    pub fn lf_hf_ratio(&self) -> f64 {
        self.powers.lf_hf_ratio()
    }
}

/// Streaming Welch–Lomb analysis engine. See the module docs.
///
/// # Examples
///
/// ```
/// use hrv_stream::{SlidingLomb, StreamScratch};
///
/// let mut engine = SlidingLomb::paper_default();
/// let mut scratch = StreamScratch::new();
/// let mut t = 0.0;
/// let mut ratios = Vec::new();
/// while t < 300.0 {
///     let rr = 0.85 + 0.05 * (2.0 * std::f64::consts::PI * 0.25 * t).sin();
///     t += rr;
///     engine.push(t, rr, &mut scratch, &mut |w| ratios.push(w.lf_hf_ratio()));
/// }
/// engine.finish(&mut scratch, &mut |w| ratios.push(w.lf_hf_ratio()));
/// assert!(!ratios.is_empty());
/// assert!(ratios.iter().all(|r| *r < 1.0)); // HF-dominated input
/// ```
#[derive(Clone, Debug)]
pub struct SlidingLomb {
    window_duration: f64,
    overlap: f64,
    backends: Vec<Arc<dyn FftBackend>>,
    active: usize,
    /// The Fast-Lomb window routine (estimator, FFT plan and weight
    /// spectrum), shared by every clone of this engine.
    lomb: Arc<LombFft>,
    /// Full-length exact kernel for audit windows (shared through the
    /// kernel cache when the engine is built from a plan).
    exact: Arc<dyn FftBackend>,
    window: VecDeque<(f64, f64)>,
    next_start: Option<f64>,
    last_time: Option<f64>,
    audit_requested: bool,
    avg_freqs: Vec<f64>,
    avg_power: Vec<f64>,
    segments: u64,
    blocks: BlockOps,
}

impl SlidingLomb {
    /// Builds an engine mirroring `WelchLomb::new(estimator, ...)` with an
    /// initial FFT kernel. The estimator's span is fixed to
    /// `window_duration` so every window shares one frequency grid.
    ///
    /// # Panics
    ///
    /// Panics if `window_duration ≤ 0`, `overlap ∉ [0, 1)`, or the backend
    /// length differs from the estimator's `fft_len`.
    pub fn new(
        estimator: FastLomb,
        window_duration: f64,
        overlap: f64,
        backend: Arc<dyn FftBackend>,
    ) -> Self {
        let exact = Arc::new(SplitRadixFft::new(estimator.fft_len()));
        Self::with_kernels(estimator, window_duration, overlap, backend, exact)
    }

    /// [`SlidingLomb::new`] with the exact audit kernel supplied by the
    /// caller — [`SlidingLomb::from_plan`] passes the cache-shared one so
    /// no throwaway split-radix plan is built.
    fn with_kernels(
        estimator: FastLomb,
        window_duration: f64,
        overlap: f64,
        backend: Arc<dyn FftBackend>,
        exact: Arc<dyn FftBackend>,
    ) -> Self {
        assert!(window_duration > 0.0, "window duration must be positive");
        assert!(
            (0.0..1.0).contains(&overlap),
            "overlap must be in [0, 1), got {overlap}"
        );
        let estimator = estimator.with_span(window_duration);
        let n = estimator.fft_len();
        assert_eq!(
            backend.len(),
            n,
            "backend length {} must match fft_len {n}",
            backend.len()
        );
        assert_eq!(exact.len(), n, "audit kernel length must match fft_len");
        SlidingLomb {
            lomb: Arc::new(LombFft::new(estimator)),
            window_duration,
            overlap,
            backends: vec![backend],
            active: 0,
            exact,
            window: VecDeque::new(),
            next_start: None,
            last_time: None,
            audit_requested: false,
            avg_freqs: Vec::new(),
            avg_power: Vec::new(),
            segments: 0,
            blocks: BlockOps::new(),
        }
    }

    /// Paper configuration: resampling front end, 512-point mesh,
    /// 2-minute windows with 50 % overlap, 0.5 Hz cap, exact split-radix
    /// kernel.
    pub fn paper_default() -> Self {
        let estimator = FastLomb::new(512, 2.0)
            .with_resampled_mesh()
            .with_max_freq(0.5);
        SlidingLomb::new(estimator, 120.0, 0.5, Arc::new(SplitRadixFft::new(512)))
    }

    /// Builds the engine from a [`PsaConfig`], choosing the same kernel a
    /// batch [`hrv_core::PsaSystem`] would.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::InvalidConfig`] for invalid parameters and
    /// [`PsaError::NeedsCalibration`] for dynamic pruning (build a
    /// calibrated [`SpectralPlan`] and use [`SlidingLomb::from_plan`]
    /// instead).
    pub fn from_config(config: &PsaConfig) -> Result<Self, PsaError> {
        let plan = SpectralPlan::new(config.clone())?;
        if plan.requires_calibration() {
            return Err(PsaError::NeedsCalibration);
        }
        Self::from_plan(&plan, &KernelCache::new())
    }

    /// Builds the engine through the shared execution layer: the active
    /// kernel and the exact audit kernel both come from `cache`, so a
    /// fleet of engines built from one plan constructs each kernel once.
    /// The estimator wiring is [`SpectralPlan::estimator`] — the same the
    /// batch system uses, so batch/stream equivalence holds by
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::MissingCalibration`] when the plan demands a
    /// dynamic-pruning kernel but carries no training set.
    pub fn from_plan(plan: &SpectralPlan, cache: &KernelCache) -> Result<Self, PsaError> {
        let backend = cache.backend(plan)?;
        let exact = cache.exact(plan.fft_len());
        Ok(SlidingLomb::with_kernels(
            plan.estimator(),
            plan.config().window_duration,
            plan.config().overlap,
            backend,
            exact,
        ))
    }

    /// Registers an additional kernel (e.g. a pruned configuration the
    /// quality controller can switch to) and returns its index.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch with the estimator.
    pub fn add_backend(&mut self, backend: Arc<dyn FftBackend>) -> usize {
        assert_eq!(
            backend.len(),
            self.exact.len(),
            "backend length must match fft_len"
        );
        self.backends.push(backend);
        self.backends.len() - 1
    }

    /// Selects the kernel used for subsequent windows.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not returned by [`SlidingLomb::add_backend`]
    /// (index 0 is the construction kernel).
    pub fn set_active_backend(&mut self, index: usize) {
        assert!(index < self.backends.len(), "unknown backend index");
        self.active = index;
    }

    /// The currently active kernel.
    pub fn active_backend(&self) -> &dyn FftBackend {
        self.backends[self.active].as_ref()
    }

    /// The kernel registered at `index` (0 is the construction kernel) —
    /// lets re-attachment paths check what an index points at instead of
    /// registering duplicates.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not returned by [`SlidingLomb::add_backend`].
    pub fn backend_at(&self, index: usize) -> &dyn FftBackend {
        self.backends[index].as_ref()
    }

    /// Index of the currently active kernel.
    pub fn active_backend_index(&self) -> usize {
        self.active
    }

    /// Requests that the next emitted window also computes the exact
    /// reference spectrum (its cost is charged to the window).
    pub fn request_audit(&mut self) {
        self.audit_requested = true;
    }

    /// Window duration in seconds.
    pub fn window_duration(&self) -> f64 {
        self.window_duration
    }

    /// Hop between window starts in seconds.
    pub fn hop(&self) -> f64 {
        self.window_duration * (1.0 - self.overlap)
    }

    /// Number of windows emitted so far.
    pub fn segments_emitted(&self) -> u64 {
        self.segments
    }

    /// Per-block operation counts accumulated over all emitted windows.
    pub fn blocks(&self) -> &BlockOps {
        &self.blocks
    }

    /// Running average of all emitted spectra (the streaming counterpart
    /// of batch `WelchAnalysis::averaged`). `None` before the first
    /// window.
    pub fn averaged(&self) -> Option<Periodogram> {
        if self.segments == 0 {
            return None;
        }
        let scale = 1.0 / self.segments as f64;
        Some(Periodogram::new(
            self.avg_freqs.clone(),
            self.avg_power.iter().map(|p| p * scale).collect(),
        ))
    }

    /// Whether feeding a sample at beat time `t` would run the window
    /// emission loop (at least one window boundary is crossed). Two f64
    /// compares — cheap enough that instrumentation gates its timing on
    /// this, paying clock reads only for pushes that do spectral work.
    /// `true` does not guarantee a window is *emitted* (sparse windows
    /// are skipped by the same rules batch Welch–Lomb applies).
    pub fn will_emit(&self, t: f64) -> bool {
        self.next_start
            .is_some_and(|start| t >= start + self.window_duration)
    }

    /// Feeds one clean RR sample (`t` = beat time ending interval `rr`),
    /// invoking `on_window` for every window the sample completes.
    /// Returns the number of windows emitted.
    ///
    /// Samples must arrive in strictly increasing time order (use
    /// [`crate::RrIngest`] to enforce this on raw feeds).
    ///
    /// # Panics
    ///
    /// Panics if `rr ≤ 0` or `t` does not advance.
    // analyze::hot_path
    pub fn push(
        &mut self,
        t: f64,
        rr: f64,
        scratch: &mut StreamScratch,
        on_window: &mut dyn FnMut(&WindowView<'_>),
    ) -> usize {
        assert!(rr > 0.0, "RR intervals must be positive");
        assert!(
            self.last_time.is_none_or(|last| t > last),
            "beat times must be strictly increasing"
        );
        if self.next_start.is_none() {
            // Batch parity: the first window starts at the first sample.
            self.next_start = Some(t);
        }
        let mut emitted = 0;
        while t >= self.next_start.expect("initialised above") + self.window_duration {
            emitted += usize::from(self.emit_window(scratch, on_window));
            self.advance();
        }
        self.window.push_back((t, rr));
        self.last_time = Some(t);
        emitted
    }

    /// Flushes the trailing windows a batch run would still analyse (its
    /// loop admits windows up to `1e-9` past the last beat). Call when the
    /// recording ends; returns the number of windows emitted.
    pub fn finish(
        &mut self,
        scratch: &mut StreamScratch,
        on_window: &mut dyn FnMut(&WindowView<'_>),
    ) -> usize {
        let Some(t_end) = self.last_time else {
            return 0;
        };
        let mut emitted = 0;
        while let Some(start) = self.next_start {
            if start + self.window_duration > t_end + 1e-9 {
                break;
            }
            emitted += usize::from(self.emit_window(scratch, on_window));
            self.advance();
        }
        emitted
    }

    /// Advances to the next hop and evicts samples that can no longer fall
    /// in any future window.
    // analyze::hot_path
    fn advance(&mut self) {
        let next = self.next_start.expect("advance follows emission") + self.hop();
        self.next_start = Some(next);
        while self.window.front().is_some_and(|&(t, _)| t < next) {
            self.window.pop_front();
        }
    }

    /// Analyses the window at `next_start`; returns `true` when a segment
    /// was emitted (skip rules mirror batch Welch–Lomb exactly).
    // analyze::hot_path
    fn emit_window(
        &mut self,
        scratch: &mut StreamScratch,
        on_window: &mut dyn FnMut(&WindowView<'_>),
    ) -> bool {
        let start = self.next_start.expect("emission requires a start");
        let end = start + self.window_duration;
        scratch.seg_times.clear();
        scratch.seg_values.clear();
        for &(t, v) in &self.window {
            if t < start {
                continue;
            }
            if t >= end {
                break;
            }
            scratch.seg_times.push(t - start);
            scratch.seg_values.push(v);
        }
        let samples = scratch.seg_values.len();
        if samples < MIN_WINDOW_SAMPLES {
            return false;
        }
        let seg_var = sample_variance(&scratch.seg_values);
        if !(seg_var > 0.0 && scratch.seg_times.last() > scratch.seg_times.first()) {
            return false;
        }

        let backend = Arc::clone(&self.backends[self.active]);
        let mut window_ops = self.lomb.window(
            backend.as_ref(),
            &scratch.seg_times,
            &scratch.seg_values,
            &mut scratch.lomb,
            &mut self.blocks,
        );

        // De-normalise by 2σ²/N so segment variance re-enters the average
        // (batch Welch–Lomb does the same).
        let denorm = 2.0 * seg_var / samples as f64;
        for p in scratch.lomb.spectrum_mut().power_mut() {
            *p *= denorm;
        }

        let spectrum = scratch.lomb.spectrum();
        let powers = band_powers(spectrum.freqs(), spectrum.power());
        let exact_lf_hf = if backend.is_exact() {
            Some(powers.lf_hf_ratio())
        } else if self.audit_requested {
            let mut ops = OpCount::default();
            let ratio = self.exact_reference_ratio(scratch, denorm, &mut ops);
            self.blocks.record(AUDIT_BLOCK, ops);
            window_ops += ops;
            Some(ratio)
        } else {
            None
        };
        self.audit_requested = false;

        // Running average (all windows share one grid by construction).
        let spectrum = scratch.lomb.spectrum();
        if self.avg_power.is_empty() {
            self.avg_freqs.extend_from_slice(spectrum.freqs());
            self.avg_power.resize(spectrum.power().len(), 0.0);
        }
        for (a, &p) in self.avg_power.iter_mut().zip(spectrum.power()) {
            *a += p;
        }
        self.segments += 1;

        let view = WindowView {
            start,
            samples,
            freqs: spectrum.freqs(),
            power: spectrum.power(),
            powers,
            exact_lf_hf,
            ops: window_ops,
            backend: backend.name(),
        };
        on_window(&view);
        true
    }

    /// Computes the exact-kernel LF/HF ratio for the current window (audit
    /// path for approximate kernels) on the meshes the window routine just
    /// built, into the audit spectrum.
    // analyze::hot_path
    fn exact_reference_ratio(
        &self,
        scratch: &mut StreamScratch,
        denorm: f64,
        ops: &mut OpCount,
    ) -> f64 {
        let audit = &mut scratch.audit;
        self.lomb
            .spectrum_into(self.exact.as_ref(), &mut scratch.lomb, audit, ops);
        for p in audit.power_mut() {
            *p *= denorm;
        }
        band_powers(audit.freqs(), audit.power()).lf_hf_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_dsp::Window;
    use hrv_lomb::{blocks, WelchLomb};

    /// ≈ 70 bpm RR series with LF + HF content.
    fn rr_series(duration: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut t = 0.0;
        let (mut times, mut values) = (Vec::new(), Vec::new());
        while t < duration {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.01;
            let rr = 0.85
                + 0.05 * (2.0 * std::f64::consts::PI * 0.25 * t).sin()
                + 0.02 * (2.0 * std::f64::consts::PI * 0.1 * t).sin()
                + noise;
            t += rr;
            times.push(t);
            values.push(rr);
        }
        (times, values)
    }

    fn stream_segments(
        engine: &mut SlidingLomb,
        times: &[f64],
        values: &[f64],
    ) -> Vec<(f64, usize, Vec<f64>)> {
        let mut scratch = StreamScratch::new();
        let mut got = Vec::new();
        let mut sink = |w: &WindowView<'_>| {
            got.push((w.start, w.samples, w.power.to_vec()));
        };
        for (&t, &v) in times.iter().zip(values) {
            engine.push(t, v, &mut scratch, &mut sink);
        }
        engine.finish(&mut scratch, &mut sink);
        got
    }

    fn assert_matches_batch(estimator: FastLomb, window: f64, overlap: f64, tol: f64, seed: u64) {
        let (times, values) = rr_series(620.0, seed);
        let n = estimator.fft_len();
        let welch = WelchLomb::new(estimator.clone(), window, overlap);
        let batch = welch.process(
            &SplitRadixFft::new(n),
            &times,
            &values,
            &mut OpCount::default(),
        );
        let mut engine =
            SlidingLomb::new(estimator, window, overlap, Arc::new(SplitRadixFft::new(n)));
        let got = stream_segments(&mut engine, &times, &values);
        assert_eq!(got.len(), batch.segments().len(), "segment count");
        for (stream, batch) in got.iter().zip(batch.segments()) {
            assert!((stream.0 - batch.start).abs() < 1e-9, "start");
            assert_eq!(stream.1, batch.samples, "sample count");
            for (a, b) in stream.2.iter().zip(batch.periodogram.power()) {
                assert!(
                    (a - b).abs() <= tol * b.abs().max(1.0),
                    "power {a} vs {b} (tol {tol})"
                );
            }
        }
    }

    #[test]
    fn resampled_fast_path_matches_batch_within_1e9() {
        let est = FastLomb::new(512, 2.0)
            .with_resampled_mesh()
            .with_max_freq(0.5);
        assert_matches_batch(est, 120.0, 0.5, 1e-9, 1);
    }

    #[test]
    fn extirpolated_path_matches_batch_exactly() {
        let est = FastLomb::new(256, 2.0).with_window(Window::Hann);
        assert_matches_batch(est, 100.0, 0.5, 1e-12, 2);
    }

    #[test]
    fn fast_path_does_measurably_fewer_fft_ops_than_batch() {
        let (times, values) = rr_series(620.0, 3);
        let est = FastLomb::new(512, 2.0)
            .with_resampled_mesh()
            .with_max_freq(0.5);
        let welch = WelchLomb::new(est.clone(), 120.0, 0.5);
        let mut batch_blocks = BlockOps::new();
        let batch =
            welch.process_profiled(&SplitRadixFft::new(512), &times, &values, &mut batch_blocks);
        let mut engine = SlidingLomb::new(est, 120.0, 0.5, Arc::new(SplitRadixFft::new(512)));
        let got = stream_segments(&mut engine, &times, &values);
        assert_eq!(got.len(), batch.segments().len());
        let batch_total = batch_blocks.grand_total().arithmetic();
        let stream_total = engine.blocks().grand_total().arithmetic();
        assert!(
            (stream_total as f64) < 0.85 * batch_total as f64,
            "incremental {stream_total} ops should be well below batch {batch_total}"
        );
        // The saving comes from the FFT block specifically.
        let batch_fft = batch_blocks.get(blocks::FFT).unwrap().arithmetic();
        let stream_fft = engine.blocks().get(blocks::FFT).unwrap().arithmetic();
        assert!(
            (stream_fft as f64) < 0.75 * batch_fft as f64,
            "fft block: incremental {stream_fft} vs batch {batch_fft}"
        );
    }

    #[test]
    fn averaged_spectrum_tracks_batch_average() {
        let (times, values) = rr_series(620.0, 4);
        let est = FastLomb::new(512, 2.0)
            .with_resampled_mesh()
            .with_max_freq(0.5);
        let welch = WelchLomb::new(est.clone(), 120.0, 0.5);
        let batch = welch.process(
            &SplitRadixFft::new(512),
            &times,
            &values,
            &mut OpCount::default(),
        );
        let mut engine = SlidingLomb::new(est, 120.0, 0.5, Arc::new(SplitRadixFft::new(512)));
        let _ = stream_segments(&mut engine, &times, &values);
        let avg = engine.averaged().expect("segments emitted");
        for (a, b) in avg.power().iter().zip(batch.averaged().power()) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
        }
        assert_eq!(engine.segments_emitted() as usize, batch.segments().len());
    }

    fn static_choice(mode: hrv_core::ApproximationMode) -> hrv_core::OperatingChoice {
        hrv_core::OperatingChoice {
            mode,
            policy: hrv_core::PruningPolicy::Static,
            vfs: false,
            expected_error_pct: 0.0,
            expected_savings_pct: 0.0,
        }
    }

    /// An engine wired as the fleet wires one: built from the plan through
    /// the shared cache, with `mode`'s static kernel made active.
    fn fleet_engine(
        plan: &SpectralPlan,
        cache: &KernelCache,
        mode: hrv_core::ApproximationMode,
    ) -> SlidingLomb {
        let backend = cache
            .backend_for_choice(plan, &static_choice(mode))
            .expect("static");
        let mut engine = SlidingLomb::from_plan(plan, cache).expect("valid");
        if !backend.is_exact() {
            let index = engine.add_backend(backend);
            engine.set_active_backend(index);
        }
        engine
    }

    #[test]
    fn scratch_capacities_stabilise_after_warmup() {
        let (times, values) = rr_series(900.0, 5);
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let cache = KernelCache::new();
        for mode in hrv_core::ApproximationMode::ALL {
            for audit in [false, true] {
                let mut engine = fleet_engine(&plan, &cache, mode);
                let mut scratch = StreamScratch::new();
                let mut sink = |_: &WindowView<'_>| {};
                let mut signature_after_warmup = None;
                for (i, (&t, &v)) in times.iter().zip(&values).enumerate() {
                    if audit {
                        engine.request_audit();
                    }
                    engine.push(t, v, &mut scratch, &mut sink);
                    if i == times.len() / 2 {
                        signature_after_warmup = Some(scratch.capacity_signature());
                    }
                }
                engine.finish(&mut scratch, &mut sink);
                assert_eq!(
                    Some(scratch.capacity_signature()),
                    signature_after_warmup,
                    "{mode} (audit {audit}): steady-state windows must not grow any buffer"
                );
                assert!(engine.segments_emitted() > 10);
                let audited = engine.blocks().get(AUDIT_BLOCK).is_some();
                assert_eq!(audited, audit && mode != hrv_core::ApproximationMode::Exact);
            }
        }
    }

    #[test]
    fn cost_probe_charges_the_fft_ops_of_a_live_engine() {
        use hrv_core::{ApproximationMode, NodeModel};
        let (times, values) = rr_series(620.0, 8);
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let cache = KernelCache::new();
        let profile = cache.cost_profile(&plan, &NodeModel::default());
        // Per kernel: the probe's predicted window ops and the engine's
        // per-window `blocks::FFT` tally (identical for every window).
        let charged: Vec<(OpCount, OpCount)> = ApproximationMode::ALL
            .into_iter()
            .map(|mode| {
                let choice = static_choice(mode);
                let backend = cache.backend_for_choice(&plan, &choice).expect("static");
                let predicted = profile.predict(plan.spec_for_choice(&choice), backend.as_ref());
                let mut engine = fleet_engine(&plan, &cache, mode);
                let mut scratch = StreamScratch::new();
                let mut per_window = Vec::new();
                let mut before = OpCount::default();
                for (&t, &v) in times.iter().zip(&values) {
                    if engine.push(t, v, &mut scratch, &mut |_| {}) == 1 {
                        let after = *engine.blocks().get(blocks::FFT).expect("fft block");
                        per_window.push(after.saturating_sub(&before));
                        before = after;
                    }
                }
                assert!(per_window.len() > 5, "{mode}");
                assert!(per_window.iter().all(|ops| *ops == per_window[0]), "{mode}");
                (predicted, per_window[0])
            })
            .collect();
        // The probe's non-FFT ops come from its own window, so compare
        // each kernel against the exact one: predicted differences must
        // equal live FFT differences, field by field.
        let (exact_predicted, exact_fft) = charged[0];
        for (mode, &(predicted, fft)) in ApproximationMode::ALL.iter().zip(&charged) {
            assert_eq!(
                predicted + exact_fft,
                exact_predicted + fft,
                "{mode}: probe and engine disagree on the FFT block"
            );
        }
        // Live, the exact kernel is the cheapest (its half-length fast
        // path), so by the equalities above the probe charged it that
        // path too.
        assert!(charged[1..]
            .iter()
            .all(|(_, fft)| fft.arithmetic() > exact_fft.arithmetic()));
    }

    #[test]
    fn engines_cloned_from_one_prototype_share_one_transform() {
        let prototype = SlidingLomb::paper_default();
        let mut a = prototype.clone();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&prototype.lomb, &a.lomb));
        assert!(Arc::ptr_eq(&a.lomb, &b.lomb));
        // Sharing changes nothing: two clones fed the same samples emit
        // the same spectra.
        let (times, values) = rr_series(400.0, 10);
        assert_eq!(
            stream_segments(&mut a, &times, &values),
            stream_segments(&mut b, &times, &values)
        );
    }

    #[test]
    fn backend_switching_and_audit_report_exact_ratio() {
        use hrv_wavelet::WaveletBasis;
        use hrv_wfft::{PruneConfig, PruneSet, WaveletFftBackend};
        let (times, values) = rr_series(620.0, 6);
        let mut engine = SlidingLomb::paper_default();
        let pruned = engine.add_backend(Arc::new(WaveletFftBackend::new(
            512,
            WaveletBasis::Haar,
            PruneConfig::with_set(PruneSet::Set3),
        )));
        engine.set_active_backend(pruned);
        assert_eq!(engine.active_backend_index(), pruned);
        assert!(!engine.active_backend().is_exact());
        let mut scratch = StreamScratch::new();
        let mut audits = Vec::new();
        let mut plain = 0usize;
        let mut sink = |w: &WindowView<'_>| match w.exact_lf_hf {
            Some(exact) => audits.push((w.lf_hf_ratio(), exact)),
            None => plain += 1,
        };
        let mut emitted = 0;
        for (&t, &v) in times.iter().zip(&values) {
            engine.request_audit();
            emitted += engine.push(t, v, &mut scratch, &mut sink);
        }
        emitted += engine.finish(&mut scratch, &mut sink);
        assert!(emitted > 0);
        assert!(!audits.is_empty(), "audited windows must carry exact ratio");
        for (approx, exact) in &audits {
            let err = (approx - exact).abs() / exact.abs().max(1e-9);
            assert!(err < 0.5, "pruned ratio {approx} vs exact {exact}");
        }
        assert!(engine.blocks().get(AUDIT_BLOCK).is_some());
    }

    #[test]
    fn from_config_mirrors_batch_backend_choice() {
        use hrv_core::{ApproximationMode, PruningPolicy};
        use hrv_wavelet::WaveletBasis;
        let conv = SlidingLomb::from_config(&PsaConfig::conventional()).expect("valid");
        assert_eq!(conv.active_backend().name(), "split-radix");
        let pruned = SlidingLomb::from_config(&PsaConfig::proposed(
            WaveletBasis::Haar,
            ApproximationMode::BandDropSet3,
            PruningPolicy::Static,
        ))
        .expect("valid");
        assert!(!pruned.active_backend().is_exact());
        let dynamic = SlidingLomb::from_config(&PsaConfig::proposed(
            WaveletBasis::Haar,
            ApproximationMode::BandDropSet3,
            PruningPolicy::Dynamic,
        ));
        assert!(matches!(dynamic, Err(PsaError::NeedsCalibration)));
    }

    #[test]
    fn engines_from_one_plan_share_kernels() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let cache = KernelCache::new();
        let a = SlidingLomb::from_plan(&plan, &cache).expect("valid");
        let b = SlidingLomb::from_plan(&plan, &cache).expect("valid");
        // Active kernel and audit kernel of both engines resolve to the
        // one cached split-radix entry.
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 3);
        assert_eq!(a.active_backend().name(), b.active_backend().name());
    }

    #[test]
    fn calibrated_plan_drives_dynamic_streaming() {
        use hrv_core::{ApproximationMode, PruningPolicy};
        use hrv_ecg::{Condition, SyntheticDatabase};
        use hrv_wavelet::WaveletBasis;
        let db = SyntheticDatabase::new(21);
        let cohort: Vec<_> = (0..2)
            .map(|id| db.record(id, Condition::SinusArrhythmia, 300.0).rr)
            .collect();
        let config = PsaConfig::proposed(
            WaveletBasis::Haar,
            ApproximationMode::BandDropSet2,
            PruningPolicy::Dynamic,
        );
        let plan = SpectralPlan::calibrated(config, &cohort).expect("calibrated");
        let mut engine = SlidingLomb::from_plan(&plan, &KernelCache::new()).expect("valid");
        assert!(!engine.active_backend().is_exact());
        let (times, values) = rr_series(400.0, 9);
        let got = stream_segments(&mut engine, &times, &values);
        assert!(!got.is_empty(), "dynamic engine must emit windows");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_pushes_rejected() {
        let mut engine = SlidingLomb::paper_default();
        let mut scratch = StreamScratch::new();
        engine.push(1.0, 0.8, &mut scratch, &mut |_| {});
        engine.push(0.5, 0.8, &mut scratch, &mut |_| {});
    }
}
