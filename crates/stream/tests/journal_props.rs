//! Property tests for the per-stream event-journal codec and ring —
//! the journal counterpart of the service frame/proto codec suites:
//! encode/decode must be a bit-exact inverse pair for every event kind
//! (including awkward `f64` bit patterns: NaN, ±Inf, -0.0, all-ones),
//! truncation and count bombs must be typed errors, and the ring must
//! stay bounded with contiguous monotonic sequence numbers.

use hrv_stream::{
    decode_events, encode_events, EventJournal, EventRecord, StreamEvent, SwitchReason,
};
use proptest::prelude::*;

/// Stretches a unit draw onto awkward `f64` bit patterns: NaN, the
/// infinities, negative zero, all-ones — alongside well-spread
/// ordinary patterns (splitmix-style scramble of the mantissa draw).
fn stretch_bits(unit: f64) -> u64 {
    match unit {
        u if u < 0.08 => f64::NAN.to_bits(),
        u if u < 0.16 => f64::INFINITY.to_bits(),
        u if u < 0.24 => f64::NEG_INFINITY.to_bits(),
        u if u < 0.32 => (-0.0f64).to_bits(),
        u if u < 0.40 => u64::MAX,
        u => ((u * (1u64 << 53) as f64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    }
}

/// Deterministically builds one event from three unit draws: a kind
/// discriminant and two payload values.
fn event_from(kind: f64, a: f64, b: f64) -> StreamEvent {
    let bits_a = stretch_bits(a);
    let bits_b = stretch_bits(b);
    match kind {
        k if k < 1.0 / 6.0 => StreamEvent::Admission {
            accepted: bits_a as u32,
            gated: bits_b as u32,
        },
        k if k < 2.0 / 6.0 => StreamEvent::QualitySwitch {
            backend: {
                let len = (a * 24.0) as usize;
                (0..len)
                    .map(|i| char::from(b'a' + (bits_b.wrapping_add(i as u64) % 26) as u8))
                    .collect()
            },
            rail_v: f64::from_bits(bits_a),
            reason: if b < 0.5 {
                SwitchReason::Governor
            } else {
                SwitchReason::Operator
            },
        },
        k if k < 3.0 / 6.0 => StreamEvent::BudgetExhausted {
            spent_j: f64::from_bits(bits_a),
            budget_j: f64::from_bits(bits_b),
        },
        k if k < 4.0 / 6.0 => StreamEvent::BusyRefusal {
            queue_depth: bits_a as u32,
            capacity: bits_b as u32,
        },
        k if k < 5.0 / 6.0 => StreamEvent::BatteryLow {
            soc: f64::from_bits(bits_a),
        },
        _ => StreamEvent::Drain { windows: bits_a },
    }
}

/// Builds records from unit draws taken three at a time (kind + two
/// payloads); `seq`/`window` derive from the same draws.
fn records_from(units: &[f64]) -> Vec<EventRecord> {
    units
        .chunks_exact(3)
        .enumerate()
        .map(|(i, chunk)| EventRecord {
            seq: stretch_bits(chunk[1]).wrapping_add(i as u64),
            window: stretch_bits(chunk[2]),
            event: event_from(chunk[0], chunk[1], chunk[2]),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // decode ∘ encode is the identity on the byte level: re-encoding
    // the decoded records reproduces the original bytes bit for bit
    // (this covers NaN payloads, where record equality cannot).
    #[test]
    fn codec_round_trips_bit_exactly(units in prop::collection::vec(0.0f64..1.0, 0..72)) {
        let records = records_from(&units);
        let bytes = encode_events(&records);
        let decoded = decode_events(&bytes).expect("decodes");
        prop_assert_eq!(decoded.len(), records.len());
        prop_assert_eq!(encode_events(&decoded), bytes);
    }

    // Every proper prefix of a non-empty encoding is a typed error,
    // and so is any encoding with trailing bytes appended.
    #[test]
    fn truncation_and_trailing_bytes_are_rejected(
        units in prop::collection::vec(0.0f64..1.0, 3..36),
        extra in 1.0f64..8.0,
    ) {
        let records = records_from(&units);
        let bytes = encode_events(&records);
        for cut in 0..bytes.len() {
            prop_assert!(decode_events(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
        let mut extended = bytes;
        extended.extend(std::iter::repeat_n(0u8, extra as usize));
        prop_assert!(decode_events(&extended).is_err());
    }

    // A count field claiming more records than the payload could hold
    // is rejected up front (allocation-bomb guard): any non-zero claim
    // over a payload shorter than one minimal record must fail.
    #[test]
    fn oversized_counts_are_rejected(
        claim_unit in 0.0f64..1.0,
        payload_unit in 0.0f64..1.0,
    ) {
        let claim = (claim_unit * u32::MAX as f64) as u32 | 1;
        let payload_len = (payload_unit * 16.0) as usize; // < one record
        let mut bytes = claim.to_be_bytes().to_vec();
        bytes.extend(std::iter::repeat_n(0u8, payload_len));
        prop_assert!(decode_events(&bytes).is_err());
    }

    // The ring never exceeds its capacity, keeps insertion order and
    // assigns contiguous sequence numbers ending at `recorded - 1`, over
    // mixed event kinds. Back-to-back admissions fold into one record,
    // so no two adjacent records are admissions.
    #[test]
    fn ring_is_bounded_and_ordered(
        capacity_unit in 0.0f64..1.0,
        units in prop::collection::vec(0.0f64..1.0, 0..192),
    ) {
        let capacity = 1 + (capacity_unit * 15.0) as usize;
        let mut journal = EventJournal::new(capacity);
        // Window stamps of the records a coalescing ring appends.
        let mut appended = Vec::new();
        let mut after_admission = false;
        for (i, chunk) in units.chunks_exact(3).enumerate() {
            // Half the draws are admissions, so runs of them are common.
            let kind = if chunk[0] < 0.5 { 0.0 } else { chunk[0] };
            let event = event_from(kind, chunk[1], chunk[2]);
            let admission = matches!(event, StreamEvent::Admission { .. });
            if !(admission && after_admission) {
                appended.push(i as u64);
            }
            after_admission = admission;
            journal.record(i as u64, event);
        }
        let events = journal.events();
        prop_assert_eq!(events.len(), appended.len().min(capacity));
        prop_assert_eq!(journal.recorded(), appended.len() as u64);
        let first = appended.len() - events.len();
        for (offset, record) in events.iter().enumerate() {
            prop_assert_eq!(record.seq, (first + offset) as u64);
            prop_assert_eq!(record.window, appended[first + offset]);
        }
        for pair in events.windows(2) {
            prop_assert!(
                !pair.iter().all(|r| matches!(r.event, StreamEvent::Admission { .. })),
                "adjacent admissions at seq {}",
                pair[0].seq
            );
        }
    }
}
