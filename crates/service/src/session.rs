//! Session admission and the one lock around the analysis state.
//!
//! A *session* is the gateway-side registration of one open stream: its
//! admission journal (push batches and `Busy` refusals). The
//! `SessionTable` owns every session **and** the external-ingest
//! [`FleetScheduler`] that analyses them, so the gateway guards both
//! with a single mutex: a session visible to a request always has its
//! fleet stream, and no lock order exists to get wrong.
//!
//! A push is analysed when it lands: the batch goes straight into the
//! fleet, whose [`hrv_stream::RrIngest`] is the one plausibility gate
//! (`hrv-delineate`'s interval bounds, monotone beat time) and the one
//! buffer, and every window the batch completes is computed before the
//! push is answered. Backpressure is a bound on the work one push can
//! buy: a batch longer than [`SessionConfig::queue_capacity`] samples is
//! refused whole with [`ServiceError::Busy`] — it leaves no state behind,
//! and the same samples succeed in smaller batches.

use crate::error::ServiceError;
use crate::proto::Pushed;
use hrv_core::{Counter, Gauge, Histogram, PsaError, Telemetry, Tracer};
use hrv_stream::{
    EventJournal, EventRecord, FleetScheduler, StreamEvent, StreamReport, EVENT_JOURNAL_CAPACITY,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Gateway lifecycle: accepting work.
pub(crate) const STATE_RUNNING: u8 = 0;
/// Gateway lifecycle: draining; no new work admitted.
pub(crate) const STATE_DRAINING: u8 = 1;
/// Gateway lifecycle: drained; final reports published.
pub(crate) const STATE_DONE: u8 = 2;

/// Admission limits of the session table.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Maximum concurrently open sessions.
    pub max_sessions: usize,
    /// Maximum samples (or beats) per push; a longer batch draws
    /// [`ServiceError::Busy`]. It bounds how long one push can hold the
    /// analysis lock.
    pub queue_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_sessions: 64,
            queue_capacity: 4096,
        }
    }
}

/// The session registry plus the fleet it feeds; see the module docs.
///
/// The gateway keeps it behind one mutex. "Is the gateway still
/// admitting work?" is decided under that lock, so once the drain holds
/// it after `STATE_DRAINING`, no sample can reach the fleet any more.
#[derive(Debug)]
pub(crate) struct SessionTable {
    /// The analysis side: one external-ingest stream per session.
    pub(crate) fleet: FleetScheduler,
    config: SessionConfig,
    state: Arc<AtomicU8>,
    /// Per-session admission journal: push batches and Busy refusals
    /// (the fleet keeps the analysis-side journal).
    journals: BTreeMap<u64, EventJournal>,
    tracer: Tracer,
    open_gauge: Gauge,
    accepted_total: Counter,
    gated_total: Counter,
    busy_total: Counter,
    /// `hrv_service_pump_dispatch_seconds` — one push's inline fleet
    /// call, window compute included.
    dispatch_hist: Histogram,
}

impl SessionTable {
    pub(crate) fn new(
        fleet: FleetScheduler,
        config: SessionConfig,
        telemetry: &Telemetry,
        tracer: Tracer,
        state: Arc<AtomicU8>,
    ) -> Self {
        SessionTable {
            fleet,
            config,
            state,
            journals: BTreeMap::new(),
            tracer,
            open_gauge: telemetry.gauge("hrv_service_sessions_open", "currently open sessions"),
            accepted_total: telemetry.counter(
                "hrv_service_samples_admitted_total",
                "samples accepted by the ingest plausibility gate",
            ),
            gated_total: telemetry.counter(
                "hrv_service_samples_gated_total",
                "samples rejected by the ingest plausibility gate",
            ),
            busy_total: telemetry.counter(
                "hrv_service_busy_total",
                "pushes refused with Busy (batch above the per-push bound)",
            ),
            dispatch_hist: telemetry.histogram(
                "hrv_service_pump_dispatch_seconds",
                "one push fed into the fleet, the windows it completed computed",
            ),
        }
    }

    fn admitting(&self) -> Result<(), ServiceError> {
        if self.state.load(Ordering::SeqCst) == STATE_RUNNING {
            Ok(())
        } else {
            Err(ServiceError::ShuttingDown)
        }
    }

    /// Admits a new session and opens its fleet stream.
    pub(crate) fn open(&mut self, id: u64) -> Result<(), ServiceError> {
        self.admitting()?;
        if self.journals.contains_key(&id) {
            return Err(ServiceError::DuplicateStream(id));
        }
        if self.journals.len() >= self.config.max_sessions {
            return Err(ServiceError::SessionLimit {
                max: self.config.max_sessions as u32,
            });
        }
        self.fleet.open_stream(id as usize)?;
        self.journals
            .insert(id, EventJournal::new(EVENT_JOURNAL_CAPACITY));
        self.open_gauge.set(self.journals.len() as f64);
        Ok(())
    }

    /// `(beat time, RR)` batch: gated by the fleet's ingest, windows
    /// computed before this returns.
    pub(crate) fn push_rr(
        &mut self,
        id: u64,
        samples: &[(f64, f64)],
    ) -> Result<Pushed, ServiceError> {
        self.push(id, samples.len(), |fleet| {
            fleet.push_rr_batch(id as usize, samples)
        })
    }

    /// Raw beat-time batch, through the ingest's delineate filter.
    pub(crate) fn push_beats(&mut self, id: u64, beats: &[f64]) -> Result<Pushed, ServiceError> {
        self.push(id, beats.len(), |fleet| {
            fleet.push_beat_batch(id as usize, beats)
        })
    }

    /// Admission, then the inline fleet call (timed and spanned as the
    /// dispatch stage), then the push's accounting.
    fn push(
        &mut self,
        id: u64,
        len: usize,
        feed: impl FnOnce(&mut FleetScheduler) -> Result<usize, PsaError>,
    ) -> Result<Pushed, ServiceError> {
        self.admitting()?;
        let journal = self
            .journals
            .get_mut(&id)
            .ok_or(ServiceError::UnknownStream(id))?;
        let capacity = self.config.queue_capacity as u32;
        if len > self.config.queue_capacity {
            self.busy_total.inc();
            journal.record(
                0,
                StreamEvent::BusyRefusal {
                    queue_depth: 0,
                    capacity,
                },
            );
            return Err(ServiceError::Busy {
                stream: id,
                capacity,
            });
        }
        let accepted = {
            let _span = self.tracer.span("push_dispatch");
            let started = Instant::now();
            let accepted = feed(&mut self.fleet)? as u32;
            self.dispatch_hist.observe_duration(started.elapsed());
            accepted
        };
        let gated = len as u32 - accepted;
        self.accepted_total.add(u64::from(accepted));
        self.gated_total.add(u64::from(gated));
        journal.record(0, StreamEvent::Admission { accepted, gated });
        Ok(Pushed {
            stream: id,
            accepted,
            gated,
            queue_depth: 0,
        })
    }

    /// Session `id`'s admission journal followed by its fleet journal,
    /// oldest first; each keeps its own sequence space.
    pub(crate) fn events(&self, id: u64) -> Result<Vec<EventRecord>, ServiceError> {
        let journal = self
            .journals
            .get(&id)
            .ok_or(ServiceError::UnknownStream(id))?;
        let mut events = journal.events();
        events.extend(self.fleet.stream_events(id as usize)?);
        Ok(events)
    }

    /// Removes session `id` and closes its fleet stream, flushing the
    /// trailing windows into the returned final report.
    pub(crate) fn close(&mut self, id: u64) -> Result<StreamReport, ServiceError> {
        self.journals
            .remove(&id)
            .ok_or(ServiceError::UnknownStream(id))?;
        self.open_gauge.set(self.journals.len() as f64);
        Ok(self.fleet.close_stream(id as usize)?)
    }

    /// The shutdown drain: flushes every stream's trailing windows,
    /// publishes the final fleet telemetry and returns the id-ordered
    /// final reports, leaving the table empty.
    pub(crate) fn close_all(&mut self, telemetry: &Telemetry) -> Vec<StreamReport> {
        self.fleet.finish();
        self.publish(telemetry);
        self.journals.clear();
        self.open_gauge.set(0.0);
        self.fleet.close_all()
    }

    /// Publishes the fleet's throughput and kernel-cache gauges.
    pub(crate) fn publish(&self, telemetry: &Telemetry) {
        self.fleet.report().publish(telemetry);
        self.fleet.kernel_cache().publish(telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_core::{PsaConfig, SpectralPlan};

    fn table_in(state: Arc<AtomicU8>, max_sessions: usize, queue_capacity: usize) -> SessionTable {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
        SessionTable::new(
            FleetScheduler::external(plan, 1).expect("fleet"),
            SessionConfig {
                max_sessions,
                queue_capacity,
            },
            &Telemetry::new(),
            Tracer::disabled(),
            state,
        )
    }

    fn table(max_sessions: usize, queue_capacity: usize) -> SessionTable {
        table_in(
            Arc::new(AtomicU8::new(STATE_RUNNING)),
            max_sessions,
            queue_capacity,
        )
    }

    #[test]
    fn admission_limits_are_enforced() {
        let mut table = table(2, 16);
        table.open(1).expect("first");
        table.open(2).expect("second");
        assert_eq!(table.open(1).unwrap_err(), ServiceError::DuplicateStream(1));
        assert_eq!(
            table.open(3).unwrap_err(),
            ServiceError::SessionLimit { max: 2 }
        );
        assert_eq!(table.fleet.streams(), 2);
        // Closing frees a slot.
        table.close(1).expect("close");
        table.open(3).expect("freed slot");
        let ids: Vec<usize> = table.fleet.stream_reports().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn plausibility_gate_reuses_delineate_rules() {
        let mut table = table(4, 16);
        table.open(1).expect("open");
        let outcome = table
            .push_rr(
                1,
                &[
                    (1.0, 0.8), // fine
                    (0.5, 0.8), // time going backwards
                    (2.0, 0.1), // below MIN_RR (double detection)
                    (3.0, 3.0), // above MAX_RR (dropout)
                    (3.5, 0.9), // fine
                ],
            )
            .expect("admitted");
        assert_eq!((outcome.accepted, outcome.gated), (2, 3));
        assert_eq!(outcome.queue_depth, 0, "nothing queues: the fleet ingested");
        let ingest = table.fleet.stream_report(1).expect("report").ingest;
        assert_eq!(ingest.accepted, 2);
        assert_eq!(ingest.rejected_out_of_order, 1);
    }

    #[test]
    fn non_finite_wire_values_are_gated_and_do_not_poison_the_session() {
        let mut table = table(4, 16);
        table.open(1).expect("open");
        let outcome = table
            .push_rr(
                1,
                &[
                    (f64::NAN, 0.8),      // NaN beat time
                    (f64::INFINITY, 0.8), // infinite beat time
                    (1.0, f64::NAN),      // NaN interval
                    (2.0, f64::INFINITY), // infinite interval
                ],
            )
            .expect("admitted");
        assert_eq!((outcome.accepted, outcome.gated), (0, 4));
        // The ordering gate still works afterwards — nothing was poisoned.
        let outcome = table
            .push_rr(1, &[(1.0, 0.8), (0.5, 0.8), (2.0, 0.8)])
            .expect("admitted");
        assert_eq!((outcome.accepted, outcome.gated), (2, 1));
    }

    #[test]
    fn beats_are_converted_and_gated_like_the_batch_delineator() {
        let mut table = table(4, 16);
        table.open(1).expect("open");
        let outcome = table
            .push_beats(1, &[0.0, 0.8, 0.82, 5.0, 5.8])
            .expect("admitted");
        // Anchor, accepted, double detection, dropout, accepted-after-restart.
        assert_eq!((outcome.accepted, outcome.gated), (2, 3));
        let ingest = table.fleet.stream_report(1).expect("report").ingest;
        assert_eq!(ingest.accepted, 2);
        assert_eq!((ingest.rejected_short, ingest.rejected_dropout), (1, 1));
    }

    #[test]
    fn oversized_push_is_refused_whole() {
        let mut table = table(4, 4);
        table.open(7).expect("open");
        let batch: Vec<(f64, f64)> = (0..6).map(|i| (i as f64 + 1.0, 0.8)).collect();
        assert_eq!(
            table.push_rr(7, &batch).unwrap_err(),
            ServiceError::Busy {
                stream: 7,
                capacity: 4
            }
        );
        // Nothing was ingested — the refusal leaves no state behind, so
        // the same samples succeed in bound-sized batches, and nothing
        // accumulates between pushes.
        assert_eq!(
            table
                .fleet
                .stream_report(7)
                .expect("report")
                .ingest
                .accepted,
            0
        );
        for chunk in batch.chunks(4) {
            let outcome = table.push_rr(7, chunk).expect("fits");
            assert_eq!(outcome.accepted as usize, chunk.len());
        }
        assert!(matches!(
            table.push_beats(7, &[0.0; 5]),
            Err(ServiceError::Busy { .. })
        ));
        let kinds: Vec<&str> = table
            .events(7)
            .expect("events")
            .iter()
            .map(|e| e.event.kind())
            .collect();
        assert_eq!(
            kinds,
            ["busy_refusal", "admission", "admission", "busy_refusal"]
        );
    }

    #[test]
    fn per_push_bound_counts_every_wire_sample() {
        let mut table = table(4, 4);
        table.open(1).expect("open");
        // 8 samples of which only 4 would pass the gate: the bound is
        // on wire samples (the work a push buys), so the batch is refused.
        let batch: Vec<(f64, f64)> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    (i as f64 + 1.0, 0.8)
                } else {
                    (i as f64 + 1.5, 9.0) // dropout, gated
                }
            })
            .collect();
        assert!(matches!(
            table.push_rr(1, &batch),
            Err(ServiceError::Busy { capacity: 4, .. })
        ));
        let outcome = table.push_rr(1, &batch[..4]).expect("fits");
        assert_eq!((outcome.accepted, outcome.gated), (2, 2));
    }

    #[test]
    fn draining_state_stops_admission_inside_the_lock() {
        let state = Arc::new(AtomicU8::new(STATE_RUNNING));
        let mut table = table_in(state.clone(), 4, 16);
        table.open(1).expect("open while running");
        state.store(STATE_DRAINING, Ordering::SeqCst);
        assert_eq!(table.open(2).unwrap_err(), ServiceError::ShuttingDown);
        assert_eq!(
            table.push_rr(1, &[(1.0, 0.8)]).unwrap_err(),
            ServiceError::ShuttingDown
        );
        // Closing still works.
        assert_eq!(table.close(1).expect("close").ingest.accepted, 0);
    }

    #[test]
    fn close_frees_the_slot_and_returns_the_final_report() {
        let telemetry = Telemetry::new();
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
        let mut table = SessionTable::new(
            FleetScheduler::external(plan, 1).expect("fleet"),
            SessionConfig::default(),
            &telemetry,
            Tracer::disabled(),
            Arc::new(AtomicU8::new(STATE_RUNNING)),
        );
        table.open(5).expect("open");
        table.push_rr(5, &[(1.0, 0.8), (2.0, 0.9)]).expect("push");
        assert!(telemetry.render().contains("hrv_service_sessions_open 1"));
        assert!(
            !telemetry.render().contains("stream=\"5\""),
            "no per-stream series"
        );
        let report = table.close(5).expect("close");
        assert_eq!((report.id, report.ingest.accepted), (5, 2));
        assert!(telemetry.render().contains("hrv_service_sessions_open 0"));
        assert_eq!(table.close(5).unwrap_err(), ServiceError::UnknownStream(5));
        assert_eq!(
            table.push_rr(5, &[(3.0, 0.8)]).unwrap_err(),
            ServiceError::UnknownStream(5)
        );
    }
}
