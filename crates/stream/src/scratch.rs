//! Reusable per-window working memory.
//!
//! Every buffer the sliding engine touches per emitted window lives here —
//! the window's samples, the Fast-Lomb routine's [`LombScratch`] and the
//! audit spectrum — so that after a warm-up phase the hot path performs
//! **zero heap allocations per window**, the property that lets one node
//! multiplex thousands of patient streams (`fleet_throughput` measures it
//! with a counting allocator).

use hrv_lomb::{LombScratch, LombSpectrum};

/// Working buffers for one in-flight window computation.
///
/// One slot serves any number of engines driven from one thread — each
/// [`crate::FleetScheduler`] shard owns one. All buffers grow on first use
/// and are reused afterwards.
#[derive(Debug, Default)]
pub struct StreamScratch {
    /// Window-relative sample times.
    pub(crate) seg_times: Vec<f64>,
    /// Window sample values.
    pub(crate) seg_values: Vec<f64>,
    /// The Fast-Lomb window routine's buffers and the window's spectrum.
    pub(crate) lomb: LombScratch,
    /// Audit-path (exact-reference) spectrum.
    pub(crate) audit: LombSpectrum,
}

impl StreamScratch {
    /// Creates an empty scratch slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of the current capacities of all buffers (elements, not bytes) —
    /// a cheap fingerprint tests use to prove steady-state reuse: once the
    /// engine has warmed up, this value must stop changing.
    // analyze::hot_path
    pub fn capacity_signature(&self) -> usize {
        self.seg_times.capacity()
            + self.seg_values.capacity()
            + self.lomb.capacity_signature()
            + self.audit.capacity_signature()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_send() {
        // Each fleet worker owns one scratch arena and carries it into a
        // scoped thread.
        fn assert_send<T: Send>() {}
        assert_send::<StreamScratch>();
    }
}
