//! Bounded per-stream event journals with a deterministic binary codec.
//!
//! Every patient stream keeps a fixed-size ring of structured
//! [`StreamEvent`]s — quality/DVFS-rail switches (with the reason),
//! budget exhaustion, battery-low crossings, admission batches, Busy
//! refusals and drains — so an operator can answer *why* a stream is
//! in its current state without replaying it. Two design rules keep
//! the journal service-grade:
//!
//! * **Bounded**: the ring holds at most its capacity; the oldest
//!   record is evicted, and a monotonically increasing sequence number
//!   makes eviction visible to readers. Back-to-back admissions fold
//!   into one record, so a steady push rate cannot evict the rarer
//!   switch, budget, battery and drain records.
//! * **Deterministic**: records carry the stream's *window count* at
//!   the time of the event, never wall-clock time, so a sharded fleet
//!   produces per-stream journals bit-identical to a serial run
//!   (shard parity, asserted in the fleet tests).
//!
//! The codec follows the `frame.rs` / `proto.rs` idiom of the service
//! crate: big-endian integers, `f64` as IEEE-754 bit patterns (floats
//! survive bit-exactly), length-prefixed UTF-8 strings, a
//! division-form count guard against allocation bombs and trailing
//! bytes rejected.

use std::collections::VecDeque;

/// Default ring capacity for per-stream journals.
pub const EVENT_JOURNAL_CAPACITY: usize = 64;

/// Smallest possible encoded record: sequence + window + kind tag.
const MIN_RECORD_LEN: usize = 8 + 8 + 1;

/// Why a quality/DVFS operating-point switch happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchReason {
    /// The stream's governor re-selected the operating point.
    Governor,
    /// An operator command (`SetMode` / governor attach) forced it.
    Operator,
}

impl SwitchReason {
    fn to_wire(self) -> u8 {
        match self {
            SwitchReason::Governor => 0,
            SwitchReason::Operator => 1,
        }
    }

    fn from_wire(code: u8) -> Result<SwitchReason, String> {
        match code {
            0 => Ok(SwitchReason::Governor),
            1 => Ok(SwitchReason::Operator),
            other => Err(format!("unknown switch reason {other}")),
        }
    }
}

/// One structured stream event.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamEvent {
    /// Push batches cleared admission: `accepted` samples entered the
    /// ingest ring, `gated` were rejected by the plausibility rules.
    Admission {
        /// Samples accepted by the ingest gate.
        accepted: u32,
        /// Samples rejected by delineate gating.
        gated: u32,
    },
    /// The active kernel backend and/or DVFS rail changed.
    QualitySwitch {
        /// Name of the backend now in force.
        backend: String,
        /// Supply voltage of the rail now in force (volts).
        rail_v: f64,
        /// Who initiated the switch.
        reason: SwitchReason,
    },
    /// The stream's energy budget for the current reporting interval
    /// was exhausted (`spent_j` crossed `budget_j`).
    BudgetExhausted {
        /// Joules charged in the interval so far.
        spent_j: f64,
        /// The interval's joule budget.
        budget_j: f64,
    },
    /// A push batch above the per-push bound was refused with `Busy`.
    BusyRefusal {
        /// Always 0 from the gateway, which queues nothing (kept for the
        /// codec layout).
        queue_depth: u32,
        /// The per-push bound in samples.
        capacity: u32,
    },
    /// The simulated battery's state of charge crossed below the
    /// low-battery threshold.
    BatteryLow {
        /// State of charge in `[0, 1]` at the crossing.
        soc: f64,
    },
    /// The stream flushed its trailing windows (drain/close).
    Drain {
        /// Total windows emitted over the stream's lifetime.
        windows: u64,
    },
}

impl StreamEvent {
    /// Stable lowercase kind name (used by `hrv-top` and snapshots).
    pub fn kind(&self) -> &'static str {
        match self {
            StreamEvent::Admission { .. } => "admission",
            StreamEvent::QualitySwitch { .. } => "quality_switch",
            StreamEvent::BudgetExhausted { .. } => "budget_exhausted",
            StreamEvent::BusyRefusal { .. } => "busy_refusal",
            StreamEvent::BatteryLow { .. } => "battery_low",
            StreamEvent::Drain { .. } => "drain",
        }
    }
}

/// One journal record: a [`StreamEvent`] plus its position in the
/// stream's history.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Monotonic per-journal sequence number (gaps reveal eviction).
    pub seq: u64,
    /// The stream's emitted-window count when the event was recorded.
    pub window: u64,
    /// The event itself.
    pub event: StreamEvent,
}

/// A bounded ring of [`EventRecord`]s with monotonic sequencing.
#[derive(Debug)]
pub struct EventJournal {
    ring: VecDeque<EventRecord>,
    capacity: usize,
    next_seq: u64,
}

impl EventJournal {
    /// A journal holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> EventJournal {
        EventJournal {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
        }
    }

    /// Appends an event, evicting the oldest record when full. An
    /// [`StreamEvent::Admission`] that directly follows another adds its
    /// counts (saturating) into that record instead, which keeps its
    /// `seq` and `window`.
    pub fn record(&mut self, window: u64, event: StreamEvent) {
        if let (StreamEvent::Admission { accepted, gated }, Some(last)) =
            (&event, self.ring.back_mut())
        {
            if let StreamEvent::Admission {
                accepted: a,
                gated: g,
            } = &mut last.event
            {
                *a = a.saturating_add(*accepted);
                *g = g.saturating_add(*gated);
                return;
            }
        }
        while self.ring.len() >= self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(EventRecord {
            seq: self.next_seq,
            window,
            event,
        });
        self.next_seq += 1;
    }

    /// The retained records, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        self.ring.iter().cloned().collect()
    }

    /// Records ever appended (`seq` of the next record); a coalesced
    /// admission appends none.
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }
}

// ---- codec ----------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "journal truncated: wanted {n} bytes, {} left",
                self.remaining()
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take_u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn take_f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    fn take_str(&mut self) -> Result<String, String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "journal string not UTF-8".to_string())
    }

    fn finish(self) -> Result<(), String> {
        if self.remaining() > 0 {
            return Err(format!(
                "{} trailing bytes after journal payload",
                self.remaining()
            ));
        }
        Ok(())
    }
}

const KIND_ADMISSION: u8 = 1;
const KIND_QUALITY_SWITCH: u8 = 2;
const KIND_BUDGET_EXHAUSTED: u8 = 3;
const KIND_BUSY_REFUSAL: u8 = 4;
const KIND_BATTERY_LOW: u8 = 5;
const KIND_DRAIN: u8 = 6;

/// Encodes records into the deterministic journal wire form:
/// `u32 count`, then per record `u64 seq · u64 window · u8 kind ·
/// kind-specific payload`. The same records always produce the same
/// bytes (floats are carried as bit patterns).
pub fn encode_events(events: &[EventRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + events.len() * 32);
    put_u32(&mut out, events.len() as u32);
    for record in events {
        put_u64(&mut out, record.seq);
        put_u64(&mut out, record.window);
        match &record.event {
            StreamEvent::Admission { accepted, gated } => {
                put_u8(&mut out, KIND_ADMISSION);
                put_u32(&mut out, *accepted);
                put_u32(&mut out, *gated);
            }
            StreamEvent::QualitySwitch {
                backend,
                rail_v,
                reason,
            } => {
                put_u8(&mut out, KIND_QUALITY_SWITCH);
                put_str(&mut out, backend);
                put_f64(&mut out, *rail_v);
                put_u8(&mut out, reason.to_wire());
            }
            StreamEvent::BudgetExhausted { spent_j, budget_j } => {
                put_u8(&mut out, KIND_BUDGET_EXHAUSTED);
                put_f64(&mut out, *spent_j);
                put_f64(&mut out, *budget_j);
            }
            StreamEvent::BusyRefusal {
                queue_depth,
                capacity,
            } => {
                put_u8(&mut out, KIND_BUSY_REFUSAL);
                put_u32(&mut out, *queue_depth);
                put_u32(&mut out, *capacity);
            }
            StreamEvent::BatteryLow { soc } => {
                put_u8(&mut out, KIND_BATTERY_LOW);
                put_f64(&mut out, *soc);
            }
            StreamEvent::Drain { windows } => {
                put_u8(&mut out, KIND_DRAIN);
                put_u64(&mut out, *windows);
            }
        }
    }
    out
}

/// Decodes a journal payload produced by [`encode_events`]. Rejects
/// truncation, oversized counts (the division-form guard: a count
/// cannot exceed `remaining / MIN_RECORD_LEN`), unknown kind tags and
/// trailing bytes.
pub fn decode_events(bytes: &[u8]) -> Result<Vec<EventRecord>, String> {
    let mut cursor = Cursor::new(bytes);
    let count = cursor.take_u32()? as usize;
    if count > cursor.remaining() / MIN_RECORD_LEN {
        return Err(format!(
            "journal count {count} exceeds payload capacity ({} bytes)",
            cursor.remaining()
        ));
    }
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let seq = cursor.take_u64()?;
        let window = cursor.take_u64()?;
        let event = match cursor.take_u8()? {
            KIND_ADMISSION => StreamEvent::Admission {
                accepted: cursor.take_u32()?,
                gated: cursor.take_u32()?,
            },
            KIND_QUALITY_SWITCH => StreamEvent::QualitySwitch {
                backend: cursor.take_str()?,
                rail_v: cursor.take_f64()?,
                reason: SwitchReason::from_wire(cursor.take_u8()?)?,
            },
            KIND_BUDGET_EXHAUSTED => StreamEvent::BudgetExhausted {
                spent_j: cursor.take_f64()?,
                budget_j: cursor.take_f64()?,
            },
            KIND_BUSY_REFUSAL => StreamEvent::BusyRefusal {
                queue_depth: cursor.take_u32()?,
                capacity: cursor.take_u32()?,
            },
            KIND_BATTERY_LOW => StreamEvent::BatteryLow {
                soc: cursor.take_f64()?,
            },
            KIND_DRAIN => StreamEvent::Drain {
                windows: cursor.take_u64()?,
            },
            other => return Err(format!("unknown journal event kind {other}")),
        };
        events.push(EventRecord { seq, window, event });
    }
    cursor.finish()?;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<EventRecord> {
        vec![
            EventRecord {
                seq: 0,
                window: 0,
                event: StreamEvent::Admission {
                    accepted: 64,
                    gated: 3,
                },
            },
            EventRecord {
                seq: 1,
                window: 12,
                event: StreamEvent::QualitySwitch {
                    backend: "band-drop-set2".into(),
                    rail_v: 0.8,
                    reason: SwitchReason::Governor,
                },
            },
            EventRecord {
                seq: 2,
                window: 13,
                event: StreamEvent::BudgetExhausted {
                    spent_j: 2.5e-3,
                    budget_j: 2.0e-3,
                },
            },
            EventRecord {
                seq: 3,
                window: 13,
                event: StreamEvent::BusyRefusal {
                    queue_depth: 256,
                    capacity: 256,
                },
            },
            EventRecord {
                seq: 4,
                window: 20,
                event: StreamEvent::BatteryLow { soc: 0.249 },
            },
            EventRecord {
                seq: 5,
                window: 31,
                event: StreamEvent::Drain { windows: 31 },
            },
        ]
    }

    #[test]
    fn codec_round_trips_every_event_kind() {
        let events = sample_events();
        let bytes = encode_events(&events);
        let decoded = decode_events(&bytes).expect("decodes");
        assert_eq!(decoded, events);
    }

    #[test]
    fn wire_layout_is_pinned() {
        // The v3 bytes of every event kind; a change here is a protocol
        // change and needs a `PROTOCOL_VERSION` bump.
        const GOLDEN: &str = concat!(
            "00000006000000000000000000000000000000000100000040000000030000",
            "000000000001000000000000000c020000000e62616e642d64726f702d7365",
            "74323fe999999999999a000000000000000002000000000000000d033f647a",
            "e147ae147b3f60624dd2f1a9fc0000000000000003000000000000000d0400",
            "0001000000010000000000000000040000000000000014053fcfdf3b645a1c",
            "ac0000000000000005000000000000001f06000000000000001f",
        );
        let hex: String = encode_events(&sample_events())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN);
    }

    #[test]
    fn encoding_is_deterministic() {
        let events = sample_events();
        assert_eq!(encode_events(&events), encode_events(&events));
    }

    #[test]
    fn oversized_count_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX);
        let err = decode_events(&bytes).expect_err("count bomb rejected");
        assert!(err.contains("exceeds payload capacity"), "{err}");
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let bytes = encode_events(&sample_events());
        for cut in [bytes.len() - 1, bytes.len() / 2, 3] {
            assert!(decode_events(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = bytes;
        extended.push(0);
        // One trailing byte can also flip the count guard; either way
        // the decode must fail.
        assert!(decode_events(&extended).is_err());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 1);
        put_u64(&mut bytes, 0);
        put_u64(&mut bytes, 0);
        put_u8(&mut bytes, 0xee);
        let err = decode_events(&bytes).expect_err("unknown kind");
        assert!(err.contains("unknown journal event kind"), "{err}");
    }

    #[test]
    fn ring_bounds_and_orders_records() {
        let mut journal = EventJournal::new(4);
        for i in 0..10u64 {
            journal.record(i, StreamEvent::Drain { windows: i });
        }
        let events = journal.events();
        assert_eq!(events.len(), 4);
        assert_eq!(journal.recorded(), 10);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest evicted, order kept");
    }

    #[test]
    fn consecutive_admissions_coalesce_and_saturate() {
        let admission = |accepted, gated| StreamEvent::Admission { accepted, gated };
        let mut journal = EventJournal::new(4);
        journal.record(0, admission(10, 1));
        journal.record(3, admission(5, 2));
        journal.record(3, StreamEvent::Drain { windows: 3 });
        journal.record(4, admission(u32::MAX - 1, 0));
        journal.record(5, admission(7, u32::MAX));
        let expected = [
            (0, 0, admission(15, 3)),
            (1, 3, StreamEvent::Drain { windows: 3 }),
            (2, 4, admission(u32::MAX, u32::MAX)),
        ];
        let got: Vec<(u64, u64, StreamEvent)> = journal
            .events()
            .into_iter()
            .map(|r| (r.seq, r.window, r.event))
            .collect();
        assert_eq!(got, expected, "a merged record keeps its seq and window");
        assert_eq!(journal.recorded(), 3);
    }
}
