//! Seeded inputs: cohort samples, the paced push schedule, and the
//! offline reference every gateway run is checked against.

use hrv_core::{ApproximationMode, PsaConfig, SpectralPlan};
use hrv_stream::{cohort_member, FleetScheduler, StreamReport};
use std::ops::Range;

/// The RR samples `(beat time, interval)` of cohort member `id`.
pub fn samples(seed: u64, id: usize, duration: f64) -> Vec<(f64, f64)> {
    let record = cohort_member(seed, id, duration);
    record
        .rr
        .times()
        .iter()
        .copied()
        .zip(record.rr.intervals().iter().copied())
        .collect()
}

/// Stream seconds of cohort data synthesised per stream. Synthesis costs
/// about 35 us per stream second, some 80 times the analysis, so longer
/// replays repeat this record instead of synthesising more.
pub const BASE_S: f64 = 300.0;

/// Cohort member `id`'s first [`BASE_S`] seconds, repeated end to end
/// for as long as a replay needs. Each repetition is shifted by the
/// record's span plus its first interval, so beat times keep rising and
/// the interval across every seam is the record's first interval.
#[derive(Clone, Debug)]
pub struct Tiled {
    base: Vec<(f64, f64)>,
    period: f64,
}

impl Tiled {
    pub fn new(seed: u64, id: usize) -> Tiled {
        let base = samples(seed, id, BASE_S);
        let (first, last) = (base[0], base[base.len() - 1]);
        Tiled {
            period: last.0 - first.0 + first.1,
            base,
        }
    }

    /// Sample `i` of the endless replay.
    pub fn get(&self, i: usize) -> (f64, f64) {
        let n = self.base.len();
        let (t, rr) = self.base[i % n];
        (t + (i / n) as f64 * self.period, rr)
    }

    /// Samples `range` of the replay.
    pub fn slice(&self, range: Range<usize>) -> Vec<(f64, f64)> {
        range.map(|i| self.get(i)).collect()
    }
}

/// The paper configuration every workload analyses with.
pub fn plan() -> SpectralPlan {
    SpectralPlan::new(PsaConfig::conventional()).expect("the paper configuration is valid")
}

/// Hop between window starts of the paper configuration, in seconds.
pub fn hop_s() -> f64 {
    let config = PsaConfig::conventional();
    config.window_duration * (1.0 - config.overlap)
}

/// One `PushRr` batch of the paced schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    pub stream: usize,
    pub range: Range<usize>,
    /// When the batch is due, in nanoseconds after the schedule starts:
    /// the moment its last sample's beat time is reached.
    pub due_ns: u64,
}

/// An open-loop replay: every stream's samples, and the batches that
/// fall due within the run, in due order.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub streams: Vec<Tiled>,
    pub batches: Vec<Batch>,
}

impl Schedule {
    /// Streams replay their cohort member `compression` times faster
    /// than real time in `batch`-sample pushes. Stream `i`'s timeline is
    /// shifted by `i / streams` of a hop so window completions spread
    /// evenly instead of arriving in bursts. Batches due at or after
    /// `seconds` are left out.
    pub fn paced(seed: u64, streams: usize, batch: usize, compression: f64, seconds: f64) -> Self {
        let hop = hop_s();
        let mut all = Vec::with_capacity(streams);
        let mut batches = Vec::new();
        for id in 0..streams {
            let samples = Tiled::new(seed, id);
            let phase = hop * id as f64 / streams as f64;
            for start in (0..).step_by(batch) {
                let due_s = (samples.get(start + batch - 1).0 + phase) / compression;
                if due_s >= seconds {
                    break;
                }
                batches.push(Batch {
                    stream: id,
                    range: start..start + batch,
                    due_ns: (due_s * 1e9) as u64,
                });
            }
            all.push(samples);
        }
        batches.sort_by_key(|b| (b.due_ns, b.stream));
        Schedule {
            streams: all,
            batches,
        }
    }
}

/// One step of a stream's recorded history on the gateway.
#[derive(Clone, Debug)]
pub enum Step {
    /// Samples acknowledged by `Pushed`.
    Push(Range<usize>),
    /// An operator `SetQuality`.
    Quality(ApproximationMode),
    /// A `ReadReport` reply, checked against the reference.
    Read(Box<StreamReport>),
}

/// The offline reference: a serial external fleet fed the same samples
/// with the same switch points. Returns, per stream, the cumulative
/// window count after each of its `Push` steps, and the final drained
/// reports. Every `Read` step must equal the reference at that point.
pub fn replay(
    streams: &[Tiled],
    histories: &[Vec<Step>],
) -> Result<(Vec<Vec<u64>>, Vec<StreamReport>), String> {
    let mut fleet = FleetScheduler::external(plan(), 1).map_err(|e| e.to_string())?;
    let mut windows_after = Vec::with_capacity(histories.len());
    for (id, history) in histories.iter().enumerate() {
        fleet.open_stream(id).map_err(|e| e.to_string())?;
        let mut after = Vec::new();
        for (n, step) in history.iter().enumerate() {
            match step {
                Step::Push(range) => {
                    fleet
                        .push_rr_batch(id, &streams[id].slice(range.clone()))
                        .map_err(|e| e.to_string())?;
                    after.push(fleet.stream_report(id).map_err(|e| e.to_string())?.windows);
                }
                Step::Quality(mode) => {
                    fleet
                        .set_stream_mode(id, *mode)
                        .map_err(|e| e.to_string())?;
                }
                Step::Read(report) => {
                    let reference = fleet.stream_report(id).map_err(|e| e.to_string())?;
                    if **report != reference {
                        return Err(format!(
                            "stream {id}: ReadReport #{n} differs from the offline reference\n  \
                             gateway:   {report:?}\n  reference: {reference:?}"
                        ));
                    }
                }
            }
        }
        windows_after.push(after);
    }
    Ok((windows_after, fleet.close_all()))
}

/// Checks drained gateway reports against the reference, bit for bit.
pub fn check_drain(drained: &[StreamReport], reference: &[StreamReport]) -> Result<(), String> {
    if drained.len() != reference.len() {
        return Err(format!(
            "drain returned {} reports, reference {}",
            drained.len(),
            reference.len()
        ));
    }
    for (got, want) in drained.iter().zip(reference) {
        if got != want {
            return Err(format!(
                "stream {}: drained report differs from the offline reference\n  \
                 gateway:   {got:?}\n  reference: {want:?}",
                want.id
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_stream::{RrIngest, SlidingLomb, StreamScratch};

    #[test]
    fn tiles_keep_time_rising_with_the_first_interval_at_seams() {
        let tiled = Tiled::new(5, 2);
        let n = tiled.base.len();
        let seam = (tiled.get(n - 1), tiled.get(n));
        assert!((seam.1 .0 - seam.0 .0 - tiled.get(0).1).abs() < 1e-9);
        let long = tiled.slice(0..4 * n);
        assert!(long.windows(2).all(|w| w[1].0 > w[0].0));
        assert!(long.last().expect("samples").0 > 3.0 * BASE_S);
        assert_eq!(tiled.slice(n..n + 3), long[n..n + 3]);
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = Schedule::paced(7, 4, 16, 200.0, 2.0);
        let b = Schedule::paced(7, 4, 16, 200.0, 2.0);
        assert_eq!(a.batches, b.batches);
        let c = Schedule::paced(8, 4, 16, 200.0, 2.0);
        assert_ne!(a.batches, c.batches);
        assert_ne!(a.streams[0].slice(0..16), c.streams[0].slice(0..16));
        assert!(a.batches.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.batches.iter().all(|b| b.due_ns < 2_000_000_000));
        // Each stream's batches tile its samples from the start, in order.
        for id in 0..4 {
            let mut next = 0;
            for b in a.batches.iter().filter(|b| b.stream == id) {
                assert_eq!(b.range.start, next);
                assert_eq!(b.range.len(), 16);
                next = b.range.end;
            }
            assert!(next > 0);
        }
    }

    /// The reference window counts must agree with a bare sliding engine
    /// fed the same gated samples.
    #[test]
    fn expected_windows_match_a_sliding_engine() {
        let schedule = Schedule::paced(11, 3, 32, 300.0, 3.0);
        let histories: Vec<Vec<Step>> = (0..3)
            .map(|id| {
                schedule
                    .batches
                    .iter()
                    .filter(|b| b.stream == id)
                    .map(|b| Step::Push(b.range.clone()))
                    .collect()
            })
            .collect();
        let (windows_after, reports) =
            replay(&schedule.streams, &histories).expect("reference replay");
        for id in 0..3 {
            let mut engine =
                SlidingLomb::from_config(&PsaConfig::conventional()).expect("paper engine");
            let mut scratch = StreamScratch::new();
            let mut ingest = RrIngest::new();
            let mut expected = Vec::new();
            for step in &histories[id] {
                let Step::Push(range) = step else {
                    unreachable!()
                };
                for (t, rr) in schedule.streams[id].slice(range.clone()) {
                    ingest.push_rr(t, rr);
                    while let Some((t, rr)) = ingest.pop() {
                        engine.push(t, rr, &mut scratch, &mut |_| {});
                    }
                }
                expected.push(engine.segments_emitted());
            }
            assert_eq!(windows_after[id], expected, "stream {id}");
            assert!(*expected.last().expect("batches") > 0);
            engine.finish(&mut scratch, &mut |_| {});
            assert_eq!(reports[id].windows, engine.segments_emitted());
        }
    }

    #[test]
    fn a_read_that_disagrees_with_the_reference_fails() {
        let streams = vec![Tiled::new(3, 0)];
        let mut fleet = FleetScheduler::external(plan(), 1).expect("fleet");
        fleet.open_stream(0).expect("open");
        fleet
            .push_rr_batch(0, &streams[0].slice(0..200))
            .expect("push");
        let report = fleet.stream_report(0).expect("report");
        let good = vec![Step::Push(0..200), Step::Read(Box::new(report.clone()))];
        assert!(replay(&streams, &[good]).is_ok());
        let mut wrong = report;
        wrong.windows += 1;
        let bad = vec![Step::Push(0..200), Step::Read(Box::new(wrong))];
        assert!(replay(&streams, &[bad]).is_err());
    }
}
