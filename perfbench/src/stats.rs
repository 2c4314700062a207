//! Exact order statistics over the benchmark's own timings, and the
//! metric-name charset.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// value with at least `p` percent of the samples at or below it.
/// `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`
/// samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// 1-based nearest rank of the `p` percentile among `n > 0` samples.
/// `p * n` is formed first so integral percentiles divide exactly.
fn rank(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    rank.clamp(1, n)
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, a single outlier would set it.
pub const MIN_BEYOND: usize = 10;

/// Median and p99 of a sample set, both nearest-rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

/// Sorts `values` and returns its median and p99, or an error when the
/// set holds fewer than [`MIN_BEYOND`] samples beyond its p99.
pub fn tail(what: &str, values: &mut [f64]) -> Result<Tail, String> {
    let n = values.len();
    if n == 0 || beyond(n, 99.0) < MIN_BEYOND {
        return Err(format!(
            "{what}: {n} samples leave {} beyond p99, need {MIN_BEYOND}",
            beyond(n, 99.0)
        ));
    }
    values.sort_by(f64::total_cmp);
    Ok(Tail {
        n,
        p50: nearest_rank(values, 50.0).expect("non-empty"),
        p99: nearest_rank(values, 99.0).expect("non-empty"),
    })
}

/// Median of a small set (setup repetitions, rounds), nearest-rank.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0).unwrap_or(0.0)
}

/// Maps a free-form label (a kernel name such as
/// `wfft-haar+banddrop+prune20%`) into the metric-name charset
/// `[A-Za-z0-9_.-]`: every other character becomes `_`.
pub fn metric_token(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A timed phase cut into equal intervals. Rates and latency medians are
/// medians over the measured intervals (tails: see [`interval_tail`] and
/// [`class_tail`]): all but the first, which warms
/// caches, clocks and allocators, and of those the ones the hypervisor
/// stole least from ([`Intervals::quiet`]). A hiccup of the host then
/// moves one interval, not the result.
#[derive(Clone, Copy, Debug)]
pub struct Intervals {
    pub t0: Instant,
    pub step: Duration,
    pub count: usize,
}

/// Intervals a timed phase is cut into.
pub const INTERVALS: usize = 10;

/// Steal ticks (10 ms each, summed over CPUs) an interval may lose and
/// still count as quiet whatever the other intervals lost.
pub const STEAL_FLOOR: u64 = 2;

impl Intervals {
    /// `seconds` from `t0`, in [`INTERVALS`] steps.
    pub fn new(t0: Instant, seconds: f64) -> Intervals {
        Intervals {
            t0,
            step: Duration::from_secs_f64(seconds / INTERVALS as f64),
            count: INTERVALS,
        }
    }

    pub fn end(&self) -> Instant {
        self.boundary(self.count)
    }

    /// Start of interval `k` (`k == count` is the end).
    pub fn boundary(&self, k: usize) -> Instant {
        self.t0 + self.step * k as u32
    }

    /// The interval holding `at`, if any.
    pub fn index(&self, at: Instant) -> Option<usize> {
        let since = at.checked_duration_since(self.t0)?;
        let k = (since.as_nanos() / self.step.as_nanos().max(1)) as usize;
        (k < self.count).then_some(k)
    }

    /// The measured intervals: after the warm-up one, those whose stolen
    /// time is at most the median over them, or at most [`STEAL_FLOOR`]
    /// ticks. `steal` holds the machine's steal counter at every boundary
    /// (`count + 1` readings).
    pub fn quiet(&self, steal: &[u64]) -> Vec<usize> {
        let stolen = |k: usize| steal[k + 1] - steal[k];
        let mut sorted: Vec<u64> = (1..self.count).map(stolen).collect();
        sorted.sort_unstable();
        let limit = sorted[(sorted.len() - 1) / 2].max(STEAL_FLOOR);
        (1..self.count).filter(|&k| stolen(k) <= limit).collect()
    }
}

/// Median of `per_interval(k)` over the intervals `ks`.
pub fn median_over(ks: &[usize], per_interval: impl Fn(usize) -> f64) -> f64 {
    let values: Vec<f64> = ks.iter().map(|&k| per_interval(k)).collect();
    median(&values)
}

/// Median and p99 of a timed phase from each measured interval's (`ks`)
/// own nearest-rank median and p99: the median of the medians, and the
/// lowest p99 (min-of-N). A tail is what a noisy neighbour moves first;
/// the quietest interval's tail is the one a change to the program
/// reproduces. Every interval must hold [`MIN_BEYOND`] samples beyond
/// its p99.
pub fn interval_tail(
    what: &str,
    per_interval: &mut [Vec<f64>],
    ks: &[usize],
) -> Result<Tail, String> {
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut n = 0;
    for &k in ks {
        let t = tail(&format!("{what}, interval {k}"), &mut per_interval[k])?;
        p50.push(t.p50);
        p99.push(t.p99);
        n += t.n;
    }
    Ok(Tail {
        n,
        p50: median(&p50),
        p99: p99.into_iter().fold(f64::INFINITY, f64::min),
    })
}

/// Median and p99 of a mix of classes that differ in cost (one per
/// kernel mode): each class's own nearest-rank median and p99 in each
/// measured interval (`ks`), averaged over classes and intervals.
///
/// Both averages are means, not medians, because the values cluster.
/// The pooled median of a mix of classes sits in a gap between them and
/// jumps when the mix shifts a little. And on a shared host a thread's
/// speed flips between levels from one interval to the next, so a median
/// over intervals jumps with the level that held the majority. A mean
/// moves only in proportion to either shift.
///
/// `per_class[c][k]` holds class `c`'s latencies in interval `k`; every
/// class must hold [`MIN_BEYOND`] samples beyond its p99 in every
/// interval of `ks`.
pub fn class_tail(
    what: &str,
    per_class: &mut [Vec<Vec<f64>>],
    ks: &[usize],
) -> Result<Tail, String> {
    let cells = (per_class.len() * ks.len()) as f64;
    let mut mean = Tail {
        n: 0,
        p50: 0.0,
        p99: 0.0,
    };
    for (c, per_interval) in per_class.iter_mut().enumerate() {
        for &k in ks {
            let t = tail(
                &format!("{what}, class {c}, interval {k}"),
                &mut per_interval[k],
            )?;
            mean.n += t.n;
            mean.p50 += t.p50 / cells;
            mean.p99 += t.p99 / cells;
        }
    }
    Ok(mean)
}

/// Latencies in whole nanoseconds, in a buffer allocated and touched
/// before the timed phase, so the benchmark's own bookkeeping neither
/// allocates while timing nor lets its memory grow with throughput.
/// Entries arrive in time order, tagged with their interval.
pub struct LatencyLog {
    ns: Vec<u32>,
    /// (interval, index of its first entry), in order.
    starts: Vec<(usize, usize)>,
}

impl LatencyLog {
    pub fn with_capacity(capacity: usize) -> LatencyLog {
        let mut ns = vec![u32::MAX; capacity];
        ns.clear();
        LatencyLog {
            ns,
            starts: Vec::with_capacity(INTERVALS),
        }
    }

    /// Records `d` (saturating at 4.29 s) in interval `slot`; fails once
    /// the buffer is full.
    pub fn push(&mut self, slot: usize, d: Duration) -> Result<(), String> {
        if self.ns.len() == self.ns.capacity() {
            return Err(format!(
                "latency log full at {} samples: raise its capacity",
                self.ns.len()
            ));
        }
        if self.starts.last().is_none_or(|&(k, _)| k != slot) {
            self.starts.push((slot, self.ns.len()));
        }
        self.ns
            .push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
        Ok(())
    }

    /// Appends the recorded latencies, in milliseconds, to their
    /// interval's list in `out`.
    pub fn millis_into(&self, out: &mut [Vec<f64>]) {
        for (i, &(slot, from)) in self.starts.iter().enumerate() {
            let to = self.starts.get(i + 1).map_or(self.ns.len(), |&(_, at)| at);
            out[slot].extend(self.ns[from..to].iter().map(|&ns| f64::from(ns) / 1e6));
        }
    }
}

/// Running mean of nanosecond timings.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeanNs {
    pub total_ns: u128,
    pub count: u64,
}

impl MeanNs {
    pub fn add(&mut self, ns: u128) {
        self.total_ns += ns;
        self.count += 1;
    }

    pub fn merge(&mut self, other: MeanNs) {
        self.total_ns += other.total_ns;
        self.count += other.count;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_value_covering_p() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 51.0), Some(6.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 99.0), 0);
        let mut short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail("short", &mut short).is_err());
        let mut enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let t = tail("enough", &mut enough).expect("1000 samples suffice");
        assert_eq!(t.n, 1000);
        assert_eq!(t.p50, 499.0);
        assert_eq!(t.p99, 989.0);
        assert!(tail("empty", &mut []).is_err());
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn kernel_labels_map_into_the_metric_charset() {
        assert_eq!(metric_token("split-radix"), "split-radix");
        assert_eq!(
            metric_token("wfft-haar+banddrop+prune20%"),
            "wfft-haar_banddrop_prune20_"
        );
        assert_eq!(metric_token("a b/c{d}"), "a_b_c_d_");
        let name = format!(
            "fleet.window_compute_us_mean.{}",
            metric_token("wfft-haar+banddrop")
        );
        assert!(valid_metric_name(&name));
        assert!(!valid_metric_name("_leading"));
        assert!(!valid_metric_name("has+plus"));
        assert!(!valid_metric_name(&"x".repeat(65)));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn intervals_split_the_phase_and_skip_the_warm_up() {
        let t0 = Instant::now();
        let iv = Intervals::new(t0, 1.0);
        assert_eq!(iv.index(t0), Some(0));
        assert_eq!(iv.index(t0 + Duration::from_millis(150)), Some(1));
        assert_eq!(iv.index(t0 + Duration::from_millis(999)), Some(9));
        assert_eq!(iv.index(iv.end()), None);
        assert_eq!(iv.index(t0 - Duration::from_millis(1)), None);
        // Interval 0 is warm-up; of 1..=9, the ones stolen from at most
        // the median amount (here 0 ticks) are measured.
        let steal = [0, 50, 50, 50, 90, 90, 90, 90, 120, 120, 120];
        let quiet = iv.quiet(&steal);
        assert_eq!(quiet, [1, 2, 4, 5, 6, 8, 9]);
        assert_eq!(median_over(&quiet, |k| k as f64), 5.0);
        let calm = [0; 11];
        assert_eq!(iv.quiet(&calm), (1..10).collect::<Vec<_>>());
        // A tick or two of steal is noise, not a reason to drop intervals.
        let light = [0, 5, 5, 6, 8, 8, 9, 9, 10, 11, 11];
        assert_eq!(iv.quiet(&light), (1..10).collect::<Vec<_>>());
    }

    #[test]
    fn latency_log_is_bounded_exact_in_ns_and_split_by_interval() {
        let mut log = LatencyLog::with_capacity(3);
        log.push(0, Duration::from_nanos(1_500)).expect("room");
        log.push(2, Duration::from_secs(10)).expect("room");
        log.push(2, Duration::from_micros(3)).expect("room");
        assert!(log.push(2, Duration::from_nanos(1)).is_err());
        let mut out = vec![Vec::new(); 3];
        log.millis_into(&mut out);
        assert_eq!(out[0], [0.0015]);
        assert!(out[1].is_empty());
        assert_eq!(out[2], [f64::from(u32::MAX) / 1e6, 0.003]);
    }

    #[test]
    fn interval_tail_is_the_median_of_interval_tails() {
        let mut per: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                (0..1000)
                    .map(|i| f64::from(i) + 1000.0 * f64::from(k))
                    .collect()
            })
            .collect();
        let t = interval_tail("x", &mut per, &[1, 2, 3]).expect("each interval has 1000");
        // Intervals 1..=3 have p50 = 499 + 1000k and p99 = 989 + 1000k.
        assert_eq!(t.p50, 2499.0);
        assert_eq!(t.p99, 1989.0);
        assert_eq!(t.n, 3000);
        per[2].truncate(999);
        assert!(interval_tail("x", &mut per, &[1, 2, 3]).is_err());
        assert!(interval_tail("x", &mut per, &[1, 3]).is_ok());
    }

    #[test]
    fn class_tail_averages_over_classes_and_intervals() {
        let interval = |base: f64| (0..1000).map(|i| base + f64::from(i)).collect::<Vec<_>>();
        let class = |base: f64| vec![interval(base), interval(base + 10.0), interval(base)];
        // One class: interval 1 has p50 509 and p99 999, interval 2 499
        // and 989; the means are 504 and 994.
        let mut one = vec![class(0.0)];
        let t = class_tail("x", &mut one, &[1, 2]).expect("each interval has 1000");
        assert_eq!((t.p50, t.p99, t.n), (504.0, 994.0, 2000));
        // A cheap and a dear class: each class's tails, averaged.
        let mut two = vec![class(0.0), class(6000.0)];
        let t = class_tail("x", &mut two, &[1, 2]).expect("each interval has 1000");
        assert_eq!((t.p50, t.p99, t.n), (3504.0, 3994.0, 4000));
        two[1][2].truncate(999);
        assert!(class_tail("x", &mut two, &[1, 2]).is_err());
    }

    #[test]
    fn mean_ns_accumulates() {
        let mut m = MeanNs::default();
        assert_eq!(m.mean(), 0.0);
        m.add(10);
        m.add(30);
        let mut other = MeanNs::default();
        other.add(20);
        m.merge(other);
        assert_eq!(m.mean(), 20.0);
    }
}
