//! # hrv-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! DATE 2014 paper; each binary prints its paper-vs-measured comparison.
//!
//! One binary per figure/table:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1b_profile` | Fig. 1(b) energy profile of the conventional PSA |
//! | `fig3_sparsity` | Fig. 3 extrapolated RR + DWT band outputs |
//! | `fig5_complexity` | Fig. 5(a)/(b) + §V op-count comparisons |
//! | `fig6_twiddles` | Fig. 6 twiddle-magnitude histogram |
//! | `fig7_mse` | Fig. 7 MSE vs pruning degree |
//! | `fig8_periodogram` | Fig. 8 conventional vs pruned periodogram |
//! | `table1_ratio` | Table I static/dynamic LFP-HFP ratios |
//! | `fig9_energy_quality` | Fig. 9 energy–quality trade-offs |
//!
//! Criterion benches (`benches/`) measure host wall-clock throughput of
//! the kernels; the paper-shaped numbers come from the deterministic
//! operation/energy models printed by these binaries.

#![forbid(unsafe_code)]

use hrv_ecg::{Condition, RrSeries, SyntheticDatabase};

/// The workspace-wide master seed (the publication year, for flavour).
pub const SEED: u64 = 2014;

/// The standard evaluation cohort: `n` sinus-arrhythmia recordings of
/// `seconds` duration.
pub fn arrhythmia_cohort(n: usize, seconds: f64) -> Vec<RrSeries> {
    let db = SyntheticDatabase::new(SEED);
    (0..n)
        .map(|i| db.record(i, Condition::SinusArrhythmia, seconds).rr)
        .collect()
}

/// Renders a unicode bar of `value/max` scaled to `width` characters.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    let filled = filled.min(width);
    format!("{}{}", "█".repeat(filled), "·".repeat(width - filled))
}

/// Splices `block` — a complete `  "key": …,\n` fragment — into `text`,
/// a `BENCH_*.json` record in its 2-space-indented top-level layout, as
/// the top-level `key`. An existing block for `key` is replaced where it
/// stands; a new key goes just before the trailing `"notes"` key (or the
/// closing brace). Plain string surgery: the workspace has no JSON
/// dependency.
fn splice_block(text: &str, key: &str, block: &str) -> String {
    let closing = || text.rfind("\n}").map_or(text.len(), |i| i + 1);
    let (start, end) = match text.find(&format!("\n  \"{key}\":")) {
        Some(at) => {
            let start = at + 1;
            let end = text[start..]
                .find("\n  \"")
                .map_or_else(closing, |i| start + i + 1);
            (start, end)
        }
        None => {
            let anchor = text.find("\n  \"notes\":").map_or_else(closing, |i| i + 1);
            (anchor, anchor)
        }
    };
    format!("{}{block}{}", &text[..start], &text[end..])
}

/// Splices `block` — a complete `  "key": …,\n` fragment — into the
/// `BENCH_*.json` record at `path` as its top-level `key`, rewriting the
/// file: an existing block for `key` is replaced where it stands, a new
/// key goes just before the trailing `"notes"` key.
///
/// # Errors
///
/// Returns the I/O error when `path` cannot be read or written.
pub fn splice_top_level_key(path: &str, key: &str, block: &str) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    std::fs::write(path, splice_block(&text, key, block))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_replaces_in_place_inserts_before_notes_and_is_idempotent() {
        let record = "{\n  \"a\": 1,\n  \"b\": [\n    { \"x\": 1 }\n  ],\n  \"c\": 3,\n  \
                      \"notes\": [\n    \"n\"\n  ]\n}\n";
        let replaced = splice_block(record, "b", "  \"b\": 2,\n");
        assert_eq!(
            replaced,
            "{\n  \"a\": 1,\n  \"b\": 2,\n  \"c\": 3,\n  \"notes\": [\n    \"n\"\n  ]\n}\n"
        );
        let block = "  \"d\": {\n    \"y\": 4\n  },\n";
        let added = splice_block(&replaced, "d", block);
        assert_eq!(
            added,
            "{\n  \"a\": 1,\n  \"b\": 2,\n  \"c\": 3,\n  \"d\": {\n    \"y\": 4\n  },\n  \
             \"notes\": [\n    \"n\"\n  ]\n}\n"
        );
        assert_eq!(splice_block(&added, "d", block), added, "idempotent");
    }

    #[test]
    fn cohorts_are_deterministic_and_sized() {
        let a = arrhythmia_cohort(3, 200.0);
        let b = arrhythmia_cohort(3, 200.0);
        assert_eq!(a.len(), 3);
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "█████·····");
        assert_eq!(bar(0.0, 10.0, 4), "····");
        assert_eq!(bar(20.0, 10.0, 4), "████");
    }
}
