//! Sample-by-sample RR ingestion with plausibility gating.
//!
//! [`RrIngest`] is the front door of a patient stream: it accepts raw beat
//! times (or pre-computed RR intervals) one at a time, applies the same
//! physiological plausibility rules as `hrv-delineate`'s batch extraction
//! ([`hrv_delineate::StreamingRrFilter`]), rejects out-of-order samples,
//! and buffers accepted samples in a bounded ring so bursty producers and
//! the analysis engine can run at different cadences.

use hrv_delineate::{BeatOutcome, StreamingRrFilter, MAX_RR, MIN_RR};
use std::collections::VecDeque;

/// The RR-sample plausibility gate: finite, strictly advancing beat
/// time and a physiological interval ([`MIN_RR`]`..=`[`MAX_RR`]; NaN
/// fails the range check). [`RrIngest::push_rr`] applies it to every
/// sample, whether fed offline or over `hrv-service`'s wire.
fn rr_sample_plausible(t: f64, rr: f64, last_time: Option<f64>) -> bool {
    t.is_finite() && !last_time.is_some_and(|last| t <= last) && (MIN_RR..=MAX_RR).contains(&rr)
}

/// Counters describing everything the ingest stage has seen.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Samples accepted into the ring.
    pub accepted: u64,
    /// Beats rejected as double detections / ectopic (interval too short).
    pub rejected_short: u64,
    /// Dropouts (interval too long; the chain restarts, nothing emitted).
    pub rejected_dropout: u64,
    /// Samples rejected because time did not advance.
    pub rejected_out_of_order: u64,
    /// Accepted samples evicted unread because the ring was full.
    pub overflow_dropped: u64,
}

/// Bounded ring buffer of clean `(beat time, RR)` samples.
///
/// # Examples
///
/// ```
/// use hrv_stream::RrIngest;
///
/// let mut ingest = RrIngest::new();
/// assert!(!ingest.push_beat(0.0)); // anchor beat, no interval yet
/// assert!(ingest.push_beat(0.8));
/// assert!(!ingest.push_beat(0.82)); // double detection rejected
/// assert_eq!(ingest.len(), 1);
/// let (t, rr) = ingest.pop().unwrap();
/// assert_eq!(t, 0.8);
/// assert!((rr - 0.8).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct RrIngest {
    filter: StreamingRrFilter,
    ring: VecDeque<(f64, f64)>,
    capacity: usize,
    last_time: Option<f64>,
    stats: IngestStats,
}

impl RrIngest {
    /// Default ring capacity (samples).
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates an ingest ring with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an ingest ring holding at most `capacity` samples; when
    /// full, the oldest unread sample is dropped (and counted).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RrIngest {
            filter: StreamingRrFilter::new(),
            ring: VecDeque::with_capacity(capacity),
            capacity,
            last_time: None,
            stats: IngestStats::default(),
        }
    }

    /// Pushes a raw detected beat time. Returns `true` when the beat
    /// completed a plausible interval, now buffered in the ring (drain it
    /// with [`RrIngest::pop`]).
    pub fn push_beat(&mut self, t: f64) -> bool {
        match self.filter.push(t) {
            // The beat chain knows nothing of samples admitted through
            // `push_rr`: an interval ending at or before the newest one
            // would put the ring out of order.
            BeatOutcome::Accepted { time, .. } if self.last_time.is_some_and(|l| time <= l) => {
                self.stats.rejected_out_of_order += 1;
                false
            }
            BeatOutcome::Accepted { time, rr } => {
                self.accept(time, rr);
                true
            }
            BeatOutcome::Anchor => false,
            BeatOutcome::DoubleDetection => {
                self.stats.rejected_short += 1;
                false
            }
            BeatOutcome::Dropout => {
                self.stats.rejected_dropout += 1;
                false
            }
            BeatOutcome::OutOfOrder => {
                self.stats.rejected_out_of_order += 1;
                false
            }
        }
    }

    /// Pushes a pre-computed RR interval ending at beat time `t`, applying
    /// the same plausibility gates as the beat path
    /// (finite, strictly advancing time; interval in
    /// [`MIN_RR`]`..=`[`MAX_RR`]). Returns `true` when the sample was
    /// accepted into the ring. Non-finite values are rejected outright —
    /// an admitted NaN beat time would otherwise poison every later
    /// ordering comparison.
    pub fn push_rr(&mut self, t: f64, rr: f64) -> bool {
        if rr_sample_plausible(t, rr, self.last_time) {
            self.accept(t, rr);
            return true;
        }
        // Classify the rejection for the stats.
        if !t.is_finite() || self.last_time.is_some_and(|last| t <= last) {
            self.stats.rejected_out_of_order += 1;
        } else if rr.is_nan() || rr < MIN_RR {
            self.stats.rejected_short += 1;
        } else {
            self.stats.rejected_dropout += 1;
        }
        false
    }

    fn accept(&mut self, t: f64, rr: f64) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.stats.overflow_dropped += 1;
        }
        self.ring.push_back((t, rr));
        self.last_time = Some(t);
        self.stats.accepted += 1;
    }

    /// Takes the oldest buffered sample.
    pub fn pop(&mut self) -> Option<(f64, f64)> {
        self.ring.pop_front()
    }

    /// Number of buffered samples.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no samples are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Time of the most recently accepted sample.
    pub fn last_time(&self) -> Option<f64> {
        self.last_time
    }

    /// Ingestion counters so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }
}

impl Default for RrIngest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_path_applies_delineate_rules() {
        let mut ingest = RrIngest::new();
        assert!(!ingest.push_beat(0.0));
        assert!(ingest.push_beat(0.8));
        assert!(!ingest.push_beat(0.82)); // double detection
        assert!(!ingest.push_beat(5.0)); // dropout
        assert!(ingest.push_beat(5.8)); // chain restarted
        let stats = ingest.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected_short, 1);
        assert_eq!(stats.rejected_dropout, 1);
        assert_eq!(ingest.len(), 2);
    }

    #[test]
    fn rr_path_gates_plausibility_and_order() {
        let mut ingest = RrIngest::new();
        assert!(ingest.push_rr(1.0, 0.8));
        assert!(!ingest.push_rr(0.5, 0.8)); // out of order
        assert!(!ingest.push_rr(2.0, 0.1)); // too short
        assert!(!ingest.push_rr(2.0, 3.0)); // too long
        assert!(ingest.push_rr(2.0, 1.0));
        let stats = ingest.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected_out_of_order, 1);
        assert_eq!(stats.rejected_short, 1);
        assert_eq!(stats.rejected_dropout, 1);
        assert_eq!(ingest.last_time(), Some(2.0));
    }

    #[test]
    fn non_finite_samples_rejected_without_poisoning_order() {
        let mut ingest = RrIngest::new();
        assert!(!ingest.push_rr(f64::NAN, 0.8));
        assert!(!ingest.push_rr(f64::INFINITY, 0.8));
        assert!(!ingest.push_rr(1.0, f64::NAN));
        assert!(!ingest.push_rr(1.0, f64::INFINITY));
        // The gate still functions — no NaN ever became `last_time`.
        assert!(ingest.push_rr(1.0, 0.8));
        assert!(!ingest.push_rr(0.5, 0.8));
        let stats = ingest.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.rejected_out_of_order, 3);
        assert_eq!(stats.rejected_short, 1);
        assert_eq!(stats.rejected_dropout, 1);
    }

    #[test]
    fn mixing_rr_and_beat_pushes_keeps_the_ring_monotone() {
        let mut ingest = RrIngest::new();
        assert!(ingest.push_rr(99.2, 0.8));
        assert!(ingest.push_rr(100.0, 0.8));
        // A fresh beat chain starting in the past: its intervals are
        // plausible in isolation but precede the RR-path samples.
        for t in [0.0, 0.8, 1.6] {
            assert!(!ingest.push_beat(t));
        }
        assert_eq!(ingest.stats().rejected_out_of_order, 2);
        // A chain continuing past the newest sample is admitted.
        assert!(!ingest.push_beat(100.5)); // restarts the chain (dropout)
        assert!(ingest.push_beat(101.3));
        let times: Vec<f64> = std::iter::from_fn(|| ingest.pop())
            .map(|(t, _)| t)
            .collect();
        assert_eq!(times, [99.2, 100.0, 101.3]);
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let mut ingest = RrIngest::with_capacity(2);
        assert!(ingest.push_rr(1.0, 0.8));
        assert!(ingest.push_rr(2.0, 0.8));
        assert!(ingest.push_rr(3.0, 0.8));
        assert_eq!(ingest.len(), 2);
        assert_eq!(ingest.stats().overflow_dropped, 1);
        assert_eq!(ingest.pop().unwrap().0, 2.0);
        assert_eq!(ingest.pop().unwrap().0, 3.0);
        assert!(ingest.pop().is_none());
        assert!(ingest.is_empty());
        assert_eq!(ingest.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = RrIngest::with_capacity(0);
    }
}
