//! The periodogram container shared by all Lomb estimators.

/// A one-sided power spectral estimate on a regular frequency grid.
///
/// Frequencies are in hertz; power is in the (unitless) Lomb normalisation
/// unless de-normalised by a Welch accumulator.
#[derive(Clone, Debug, PartialEq)]
pub struct Periodogram {
    freqs: Vec<f64>,
    power: Vec<f64>,
}

impl Periodogram {
    /// Builds a periodogram from matching frequency and power vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length, are empty, or frequencies
    /// are not strictly increasing and positive.
    pub fn new(freqs: Vec<f64>, power: Vec<f64>) -> Self {
        assert_eq!(freqs.len(), power.len(), "freqs and power must match");
        assert!(!freqs.is_empty(), "periodogram must be non-empty");
        assert!(
            freqs.windows(2).all(|w| w[1] > w[0]) && freqs[0] > 0.0,
            "frequencies must be positive and strictly increasing"
        );
        Periodogram { freqs, power }
    }

    /// Frequency grid in hertz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Power estimates, same length as [`Periodogram::freqs`].
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Number of frequency bins.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` when there are no bins (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Grid spacing in hertz (assumes a regular grid).
    pub fn df(&self) -> f64 {
        grid_df(&self.freqs)
    }

    /// Total power in `[lo, hi)` hertz (rectangle rule × `df`).
    ///
    /// Returns 0 when no bins fall in the band.
    pub fn band_power(&self, lo: f64, hi: f64) -> f64 {
        grid_band_power(&self.freqs, &self.power, lo, hi)
    }

    /// Frequency of the largest power bin.
    pub fn peak_frequency(&self) -> f64 {
        let mut best = 0usize;
        for i in 1..self.power.len() {
            if self.power[i] > self.power[best] {
                best = i;
            }
        }
        self.freqs[best]
    }

    /// Scales all power values by `factor` (used by Welch de-normalisation).
    pub fn scaled(&self, factor: f64) -> Periodogram {
        Periodogram {
            freqs: self.freqs.clone(),
            power: self.power.iter().map(|p| p * factor).collect(),
        }
    }
}

/// Spacing of a regular frequency grid: the first bin when it is the only
/// one, 0 when the grid is empty.
fn grid_df(freqs: &[f64]) -> f64 {
    if freqs.len() > 1 {
        freqs[1] - freqs[0]
    } else {
        freqs.first().copied().unwrap_or(0.0)
    }
}

/// Total power in `[lo, hi)` hertz of the regular grid `freqs`/`power`
/// (rectangle rule × df) — the one band integration behind
/// [`Periodogram::band_power`] and [`crate::band_powers`].
// analyze::hot_path
pub(crate) fn grid_band_power(freqs: &[f64], power: &[f64], lo: f64, hi: f64) -> f64 {
    let df = grid_df(freqs);
    freqs
        .iter()
        .zip(power)
        .filter(|(&f, _)| f >= lo && f < hi)
        .map(|(_, &p)| p * df)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Periodogram {
        Periodogram::new(vec![0.1, 0.2, 0.3, 0.4], vec![1.0, 4.0, 2.0, 1.0])
    }

    #[test]
    fn accessors() {
        let p = simple();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert!((p.df() - 0.1).abs() < 1e-12);
        assert_eq!(p.freqs()[2], 0.3);
        assert_eq!(p.power()[1], 4.0);
    }

    #[test]
    fn band_power_integrates_rectangles() {
        let p = simple();
        // Band [0.15, 0.35) catches bins at 0.2 and 0.3.
        assert!((p.band_power(0.15, 0.35) - (4.0 + 2.0) * 0.1).abs() < 1e-12);
        assert_eq!(p.band_power(0.5, 0.9), 0.0);
    }

    #[test]
    fn peak_frequency_finds_maximum() {
        assert_eq!(simple().peak_frequency(), 0.2);
    }

    #[test]
    fn scaling_multiplies_power() {
        let p = simple().scaled(2.0);
        assert_eq!(p.power()[1], 8.0);
        assert_eq!(p.freqs()[1], 0.2);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_lengths_rejected() {
        let _ = Periodogram::new(vec![0.1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_freqs_rejected() {
        let _ = Periodogram::new(vec![0.2, 0.1], vec![1.0, 2.0]);
    }
}
