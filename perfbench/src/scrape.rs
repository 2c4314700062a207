//! Layer numbers from the program's own Prometheus exposition (the
//! `ReadMetrics` reply, or an in-process registry render): per-series
//! `_sum`/`_count` deltas between a snapshot at the start and one at
//! the end of the timed phase.
//!
//! Bucket quantiles are never used: the registry's buckets are
//! power-of-two bounds, so an interpolated p99 snaps to a bucket edge and
//! cannot resolve a 10% change. The mean of a delta (Δsum / Δcount) is
//! exact.

use std::collections::BTreeMap;

/// One exposition, keyed by `name{labels}` exactly as rendered.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    samples: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Parses the sample lines of a Prometheus text exposition; comments
    /// and unparseable lines are skipped.
    pub fn parse(text: &str) -> Snapshot {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            if let Ok(v) = value.parse::<f64>() {
                samples.insert(key.to_string(), v);
            }
        }
        Snapshot { samples }
    }

    /// Series of `name` (no suffix handling) as `(labels, value)`, where
    /// `labels` is the raw `{…}` text or empty.
    fn series<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.samples.iter().filter_map(move |(key, &v)| {
            let rest = key.strip_prefix(name)?;
            (rest.is_empty() || rest.starts_with('{')).then_some((rest, v))
        })
    }
}

/// The change of every series between two snapshots.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    start: Snapshot,
    end: Snapshot,
}

impl Delta {
    pub fn new(start: Snapshot, end: Snapshot) -> Delta {
        Delta { start, end }
    }

    /// Δ of every series of `name` whose labels pass `keep`, summed.
    fn sum_where(&self, name: &str, keep: &dyn Fn(&str) -> bool) -> f64 {
        self.end
            .series(name)
            .filter(|(labels, _)| keep(labels))
            .map(|(labels, v)| {
                let key = format!("{name}{labels}");
                v - self.start.samples.get(&key).copied().unwrap_or(0.0)
            })
            .sum()
    }

    /// Δ of a counter (all its series summed).
    pub fn counter(&self, name: &str) -> f64 {
        self.sum_where(name, &|_| true)
    }

    /// Observations a histogram family gained, over series passing `keep`.
    pub fn count_where(&self, family: &str, keep: &dyn Fn(&str) -> bool) -> f64 {
        self.sum_where(&format!("{family}_count"), keep)
    }

    /// Mean observation (Δsum / Δcount) of a histogram family over the
    /// series passing `keep`, in microseconds (the families record
    /// seconds). 0 when nothing was observed.
    pub fn mean_us_where(&self, family: &str, keep: &dyn Fn(&str) -> bool) -> f64 {
        let count = self.count_where(family, keep);
        if count <= 0.0 {
            return 0.0;
        }
        self.sum_where(&format!("{family}_sum"), keep) / count * 1e6
    }

    pub fn mean_us(&self, family: &str) -> f64 {
        self.mean_us_where(family, &|_| true)
    }

    /// Every distinct value of label `label` among the series of
    /// `family`'s `_count` at the end snapshot.
    pub fn label_values(&self, family: &str, label: &str) -> Vec<String> {
        let count = format!("{family}_count");
        let mut values: Vec<String> = self
            .end
            .series(&count)
            .filter_map(|(labels, _)| label_value(labels, label))
            .collect();
        values.sort();
        values.dedup();
        values
    }
}

/// The value of `label` in a rendered `{a="x",b="y"}` label set.
pub fn label_value(labels: &str, label: &str) -> Option<String> {
    let needle = format!("{label}=\"");
    let start = labels.find(&needle)? + needle.len();
    let len = labels[start..].find('"')?;
    Some(labels[start..start + len].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const START: &str = "\
# HELP hrv_service_frames_total request frames decoded
# TYPE hrv_service_frames_total counter
hrv_service_frames_total 10
hrv_stream_window_compute_seconds_bucket{kernel=\"split-radix\",simd=\"avx2\",rail=\"1.20V\",le=\"+Inf\"} 2
hrv_stream_window_compute_seconds_sum{kernel=\"split-radix\",simd=\"avx2\",rail=\"1.20V\"} 0.00002
hrv_stream_window_compute_seconds_count{kernel=\"split-radix\",simd=\"avx2\",rail=\"1.20V\"} 2
";
    const END: &str = "\
hrv_service_frames_total 110
hrv_service_frames_total_extra 5
hrv_stream_window_compute_seconds_sum{kernel=\"split-radix\",simd=\"avx2\",rail=\"1.20V\"} 0.00012
hrv_stream_window_compute_seconds_count{kernel=\"split-radix\",simd=\"avx2\",rail=\"1.20V\"} 12
hrv_stream_window_compute_seconds_sum{kernel=\"wfft-haar+banddrop\",simd=\"avx2\",rail=\"1.20V\"} 0.0003
hrv_stream_window_compute_seconds_count{kernel=\"wfft-haar+banddrop\",simd=\"avx2\",rail=\"1.20V\"} 10
";

    #[test]
    fn deltas_are_per_series_and_exact() {
        let d = Delta::new(Snapshot::parse(START), Snapshot::parse(END));
        assert_eq!(d.counter("hrv_service_frames_total"), 100.0);
        let family = "hrv_stream_window_compute_seconds";
        let split = |l: &str| label_value(l, "kernel").as_deref() == Some("split-radix");
        assert_eq!(d.count_where(family, &split), 10.0);
        assert!((d.mean_us_where(family, &split) - 10.0).abs() < 1e-9);
        assert!((d.mean_us(family) - (0.0004 / 20.0) * 1e6).abs() < 1e-9);
        assert_eq!(
            d.label_values(family, "kernel"),
            ["split-radix", "wfft-haar+banddrop"]
        );
        assert_eq!(d.mean_us("hrv_service_queue_wait_seconds"), 0.0);
    }
}
