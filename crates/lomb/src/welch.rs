//! Welch–Lomb time–frequency analysis (paper §II.A).
//!
//! A sliding window (2 minutes, 50 % overlap in the paper) is applied to
//! the RR series; each segment's normalised Fast-Lomb periodogram is
//! de-normalised by `2σ²/N` and the segments are averaged, tracking the
//! time-varying heart-rate spectrum over long recordings.

use crate::fast::FastLomb;
use crate::periodogram::Periodogram;
use hrv_dsp::{sample_variance, BlockOps, FftBackend, OpCount};

/// Fewest RR samples a window must hold to be analysed; sparser windows
/// are skipped. The one skip rule batch ([`WelchLomb`]) and streaming
/// analysis share, so both skip the same windows.
pub const MIN_WINDOW_SAMPLES: usize = 16;

/// Configuration of the sliding-window analysis.
#[derive(Clone, Debug)]
pub struct WelchLomb {
    estimator: FastLomb,
    window_duration: f64,
    overlap: f64,
}

/// One analysed segment: start time, de-normalised spectrum, sample count.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Segment start time (seconds, absolute).
    pub start: f64,
    /// De-normalised periodogram of the segment.
    pub periodogram: Periodogram,
    /// Number of RR samples that fell in the segment.
    pub samples: usize,
}

/// Result of a Welch–Lomb run: per-segment spectra plus their average.
#[derive(Clone, Debug)]
pub struct WelchAnalysis {
    segments: Vec<Segment>,
    averaged: Periodogram,
}

impl WelchAnalysis {
    /// The per-window segments in time order (the time–frequency
    /// distribution of the paper's hourly monitoring experiments).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The averaged, de-normalised spectrum.
    pub fn averaged(&self) -> &Periodogram {
        &self.averaged
    }
}

impl WelchLomb {
    /// Builds a Welch–Lomb analyser with the paper's defaults on top of a
    /// Fast-Lomb estimator: the estimator's span is fixed to
    /// `window_duration` so every segment shares one frequency grid.
    ///
    /// # Panics
    ///
    /// Panics if `window_duration ≤ 0` or `overlap ∉ [0, 1)`.
    pub fn new(estimator: FastLomb, window_duration: f64, overlap: f64) -> Self {
        assert!(window_duration > 0.0, "window duration must be positive");
        assert!(
            (0.0..1.0).contains(&overlap),
            "overlap must be in [0, 1), got {overlap}"
        );
        WelchLomb {
            estimator: estimator.with_span(window_duration),
            window_duration,
            overlap,
        }
    }

    /// Paper configuration: 2-minute windows, 50 % overlap.
    pub fn paper_default(estimator: FastLomb) -> Self {
        Self::new(estimator, 120.0, 0.5)
    }

    /// Window duration in seconds.
    pub fn window_duration(&self) -> f64 {
        self.window_duration
    }

    /// Fractional overlap between consecutive windows.
    pub fn overlap(&self) -> f64 {
        self.overlap
    }

    /// Hop between consecutive window starts in seconds.
    pub fn hop(&self) -> f64 {
        self.window_duration * (1.0 - self.overlap)
    }

    /// The per-segment Fast-Lomb estimator (span already fixed to the
    /// window duration).
    pub fn estimator(&self) -> &FastLomb {
        &self.estimator
    }

    /// Runs the sliding-window analysis, aggregating operation counts.
    ///
    /// # Panics
    ///
    /// See [`WelchLomb::process_profiled`].
    pub fn process(
        &self,
        backend: &dyn FftBackend,
        times: &[f64],
        values: &[f64],
        ops: &mut OpCount,
    ) -> WelchAnalysis {
        let mut blocks = BlockOps::new();
        let analysis = self.process_profiled(backend, times, values, &mut blocks);
        *ops += blocks.grand_total();
        analysis
    }

    /// Runs the analysis recording per-block operation counts (summed over
    /// all windows).
    ///
    /// # Panics
    ///
    /// Panics if inputs mismatch in length, the recording is shorter than
    /// one window, or no segment has enough samples.
    pub fn process_profiled(
        &self,
        backend: &dyn FftBackend,
        times: &[f64],
        values: &[f64],
        profile: &mut BlockOps,
    ) -> WelchAnalysis {
        assert_eq!(times.len(), values.len(), "times and values must match");
        assert!(!times.is_empty(), "empty recording");
        let t_start = times[0];
        let t_end = *times.last().expect("non-empty");
        assert!(
            t_end - t_start >= self.window_duration,
            "recording shorter than one window"
        );

        let hop = self.window_duration * (1.0 - self.overlap);
        let mut segments = Vec::new();
        let mut start = t_start;
        while start + self.window_duration <= t_end + 1e-9 {
            let lo = times.partition_point(|&t| t < start);
            let hi = times.partition_point(|&t| t < start + self.window_duration);
            if hi - lo >= MIN_WINDOW_SAMPLES {
                let seg_times: Vec<f64> = times[lo..hi].iter().map(|&t| t - start).collect();
                let seg_values = &values[lo..hi];
                if sample_variance(seg_values) > 0.0 && seg_times.last() > seg_times.first() {
                    let p = self
                        .estimator
                        .periodogram_profiled(backend, &seg_times, seg_values, profile);
                    // De-normalise by 2σ²/N so segment variance re-enters
                    // the average (paper §II.A).
                    let var = sample_variance(seg_values);
                    let denorm = 2.0 * var / (hi - lo) as f64;
                    segments.push(Segment {
                        start,
                        periodogram: p.scaled(denorm),
                        samples: hi - lo,
                    });
                }
            }
            start += hop;
        }
        assert!(
            !segments.is_empty(),
            "no segment had at least {MIN_WINDOW_SAMPLES} samples"
        );

        let nbins = segments
            .iter()
            .map(|s| s.periodogram.len())
            .min()
            .expect("segments non-empty");
        let freqs = segments[0].periodogram.freqs()[..nbins].to_vec();
        let mut avg = vec![0.0; nbins];
        for seg in &segments {
            for (a, &p) in avg.iter_mut().zip(seg.periodogram.power()) {
                *a += p;
            }
        }
        for a in &mut avg {
            *a /= segments.len() as f64;
        }
        WelchAnalysis {
            averaged: Periodogram::new(freqs, avg),
            segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_dsp::SplitRadixFft;

    /// ≈ 70 bpm RR series with an HF (respiratory) component, 10 minutes.
    fn rr_series(duration: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut t = 0.0;
        let mut times = Vec::new();
        let mut values = Vec::new();
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

    #[test]
    fn produces_expected_segment_count() {
        let (times, values) = rr_series(600.0, 1);
        let welch = WelchLomb::paper_default(FastLomb::new(512, 2.0));
        let backend = SplitRadixFft::new(512);
        let analysis = welch.process(&backend, &times, &values, &mut OpCount::default());
        // 600 s recording, 120 s windows, 60 s hop: starts at 0..=480 → up
        // to 8-9 segments depending on the last beat time.
        let n = analysis.segments().len();
        assert!((7..=9).contains(&n), "got {n} segments");
        assert_eq!(welch.window_duration(), 120.0);
        assert_eq!(welch.overlap(), 0.5);
    }

    #[test]
    fn averaged_spectrum_peaks_at_respiratory_frequency() {
        let (times, values) = rr_series(600.0, 2);
        let welch = WelchLomb::paper_default(FastLomb::new(512, 2.0).with_max_freq(0.5));
        let backend = SplitRadixFft::new(512);
        let analysis = welch.process(&backend, &times, &values, &mut OpCount::default());
        let peak = analysis.averaged().peak_frequency();
        assert!((peak - 0.25).abs() < 0.03, "peak {peak}");
    }

    #[test]
    fn segments_share_frequency_grid() {
        let (times, values) = rr_series(480.0, 3);
        let welch = WelchLomb::paper_default(FastLomb::new(512, 2.0));
        let backend = SplitRadixFft::new(512);
        let analysis = welch.process(&backend, &times, &values, &mut OpCount::default());
        let df0 = analysis.segments()[0].periodogram.df();
        for seg in analysis.segments() {
            assert!((seg.periodogram.df() - df0).abs() < 1e-12);
        }
        assert!((df0 - 1.0 / 240.0).abs() < 1e-12);
    }

    #[test]
    fn segment_starts_advance_by_hop() {
        let (times, values) = rr_series(600.0, 4);
        let welch = WelchLomb::new(FastLomb::new(256, 2.0), 100.0, 0.5);
        let backend = SplitRadixFft::new(256);
        let analysis = welch.process(&backend, &times, &values, &mut OpCount::default());
        for pair in analysis.segments().windows(2) {
            assert!((pair[1].start - pair[0].start - 50.0).abs() < 1e-9);
        }
    }

    #[test]
    fn profiled_ops_accumulate_over_segments() {
        let (times, values) = rr_series(480.0, 5);
        let welch = WelchLomb::paper_default(FastLomb::new(512, 2.0));
        let backend = SplitRadixFft::new(512);
        let mut blocks = BlockOps::new();
        let analysis = welch.process_profiled(&backend, &times, &values, &mut blocks);
        let per_window_fft = {
            let mut one = BlockOps::new();
            let seg = &analysis.segments()[0];
            let lo = times.partition_point(|&t| t < seg.start);
            let hi = times.partition_point(|&t| t < seg.start + 120.0);
            let seg_times: Vec<f64> = times[lo..hi].iter().map(|&t| t - seg.start).collect();
            let est = FastLomb::new(512, 2.0).with_span(120.0);
            let _ = est.periodogram_profiled(&backend, &seg_times, &values[lo..hi], &mut one);
            one.get("fft").unwrap().arithmetic()
        };
        let total_fft = blocks.get("fft").unwrap().arithmetic();
        assert_eq!(total_fft, per_window_fft * analysis.segments().len() as u64);
    }

    #[test]
    #[should_panic(expected = "shorter than one window")]
    fn short_recording_rejected() {
        let (times, values) = rr_series(60.0, 6);
        let welch = WelchLomb::paper_default(FastLomb::new(512, 2.0));
        let backend = SplitRadixFft::new(512);
        let _ = welch.process(&backend, &times, &values, &mut OpCount::default());
    }

    #[test]
    #[should_panic(expected = "overlap must be in [0, 1)")]
    fn bad_overlap_rejected() {
        let _ = WelchLomb::new(FastLomb::new(512, 2.0), 120.0, 1.0);
    }
}
