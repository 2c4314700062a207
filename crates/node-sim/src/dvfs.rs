//! Voltage/frequency scaling (paper §VI.B).
//!
//! Static pruning shortens execution; the freed slack lets the node run
//! slower at a lower voltage while still meeting the original real-time
//! deadline — quadratic dynamic-energy savings on top of the linear
//! operation savings. The voltage↔frequency relation follows the
//! alpha-power law `f ∝ (V − Vt)^α / V`.

use crate::energy::OperatingPoint;

/// Alpha-power-law DVFS model with an optional discrete OPP ladder.
#[derive(Clone, Debug, PartialEq)]
pub struct DvfsModel {
    vt: f64,
    alpha: f64,
    nominal: OperatingPoint,
    min_voltage: f64,
    /// Discrete supported voltages, descending.
    ladder: Vec<f64>,
}

impl DvfsModel {
    /// A 90 nm-flavoured model: Vt = 0.35 V, α = 1.6, nominal 1.0 V /
    /// 100 MHz, scaling floor at 0.55 V, 50 mV ladder steps.
    pub fn ninety_nm() -> Self {
        let ladder = (0..=9).map(|i| 1.0 - 0.05 * i as f64).collect();
        DvfsModel {
            vt: 0.35,
            alpha: 1.6,
            nominal: OperatingPoint::nominal(),
            min_voltage: 0.55,
            ladder,
        }
    }

    /// The nominal operating point.
    pub fn nominal(&self) -> OperatingPoint {
        self.nominal
    }

    /// Maximum clock frequency supported at voltage `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is at or below the threshold voltage.
    pub fn max_frequency(&self, v: f64) -> f64 {
        assert!(v > self.vt, "voltage {v} not above threshold {}", self.vt);
        let k = self.nominal.frequency
            / ((self.nominal.voltage - self.vt).powf(self.alpha) / self.nominal.voltage);
        k * (v - self.vt).powf(self.alpha) / v
    }

    /// Lowest voltage (continuous) able to sustain frequency `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` exceeds the nominal frequency.
    pub fn voltage_for_frequency(&self, f: f64) -> f64 {
        assert!(
            f <= self.nominal.frequency * (1.0 + 1e-12),
            "frequency {f} above nominal"
        );
        let (mut lo, mut hi) = (self.vt + 1e-6, self.nominal.voltage);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.max_frequency(mid) < f {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi.max(self.min_voltage)
    }

    /// The operating point for a workload that needs only `cycle_ratio`
    /// of the nominal cycles within the same deadline (continuous
    /// scaling): run at `f = f0·cycle_ratio` and the matching voltage.
    ///
    /// # Panics
    ///
    /// Panics if `cycle_ratio` is not in `(0, 1]`.
    pub fn opp_for_slack(&self, cycle_ratio: f64) -> OperatingPoint {
        assert!(
            cycle_ratio > 0.0 && cycle_ratio <= 1.0,
            "cycle ratio must be in (0, 1], got {cycle_ratio}"
        );
        let f = self.nominal.frequency * cycle_ratio;
        let v = self.voltage_for_frequency(f);
        // The voltage floor may allow a higher frequency than needed; keep
        // the requested frequency (the node idles away any residual slack).
        OperatingPoint {
            voltage: v,
            frequency: f,
        }
    }

    /// The discrete supported voltages, descending from nominal. Budget
    /// policies walk this ladder to build their candidate operating
    /// points; entries below the scaling floor are excluded.
    pub fn ladder(&self) -> impl Iterator<Item = f64> + '_ {
        self.ladder
            .iter()
            .copied()
            .filter(move |&v| v >= self.min_voltage)
    }

    /// The operating point at ladder voltage `v`, running at the maximum
    /// frequency the voltage sustains (race-to-idle).
    ///
    /// # Panics
    ///
    /// Panics if `v` is at or below the threshold voltage.
    pub fn opp_at(&self, v: f64) -> OperatingPoint {
        OperatingPoint {
            voltage: v,
            frequency: self.max_frequency(v).min(self.nominal.frequency),
        }
    }
}

impl Default for DvfsModel {
    fn default() -> Self {
        Self::ninety_nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_is_consistent() {
        let m = DvfsModel::ninety_nm();
        let f = m.max_frequency(1.0);
        assert!((f - 100e6).abs() < 1.0, "f(V0) = {f}");
        assert_eq!(m.nominal().voltage, 1.0);
    }

    #[test]
    fn frequency_is_monotone_in_voltage() {
        let m = DvfsModel::ninety_nm();
        let mut prev = 0.0;
        for i in 0..20 {
            let v = 0.4 + 0.03 * i as f64;
            let f = m.max_frequency(v);
            assert!(f > prev, "f({v}) = {f}");
            prev = f;
        }
    }

    #[test]
    fn voltage_for_frequency_inverts() {
        let m = DvfsModel::ninety_nm();
        for ratio in [0.9, 0.7, 0.5] {
            let f = 100e6 * ratio;
            let v = m.voltage_for_frequency(f);
            assert!(m.max_frequency(v) >= f * 0.999, "ratio {ratio}");
        }
    }

    #[test]
    fn half_speed_needs_roughly_two_thirds_voltage() {
        // Sanity anchor for the calibration used in DESIGN.md: ~49 % of
        // the cycles → V ≈ 0.66–0.72 → dynamic energy ratio ≈ 0.49·V²
        // ≈ 0.22–0.25 → ≈ 75–78 % savings before leakage effects.
        let m = DvfsModel::ninety_nm();
        let v = m.voltage_for_frequency(49e6);
        assert!((0.6..0.75).contains(&v), "V(0.49·f0) = {v}");
    }

    #[test]
    fn slack_opp_reduces_both_voltage_and_frequency() {
        let m = DvfsModel::ninety_nm();
        let opp = m.opp_for_slack(0.6);
        assert!((opp.frequency - 60e6).abs() < 1.0);
        assert!(opp.voltage < 1.0);
        let full = m.opp_for_slack(1.0);
        assert!((full.voltage - 1.0).abs() < 1e-6);
    }

    #[test]
    fn voltage_floor_is_respected() {
        let m = DvfsModel::ninety_nm();
        let opp = m.opp_for_slack(0.05);
        assert!(opp.voltage >= 0.55);
    }

    #[test]
    fn ladder_is_descending_and_floored() {
        let m = DvfsModel::ninety_nm();
        let steps: Vec<f64> = m.ladder().collect();
        assert!(steps.len() >= 5, "{steps:?}");
        assert!((steps[0] - 1.0).abs() < 1e-12);
        assert!(steps.windows(2).all(|w| w[0] > w[1]));
        assert!(steps.iter().all(|&v| v >= 0.55));
        for v in steps {
            let opp = m.opp_at(v);
            assert_eq!(opp.voltage, v);
            assert!(opp.frequency <= 100e6 + 1.0);
            assert!(opp.frequency > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "cycle ratio")]
    fn zero_slack_rejected() {
        let _ = DvfsModel::ninety_nm().opp_for_slack(0.0);
    }

    #[test]
    #[should_panic(expected = "above nominal")]
    fn overclock_rejected() {
        let _ = DvfsModel::ninety_nm().voltage_for_frequency(200e6);
    }
}
