//! Reusable per-window working memory.
//!
//! Every buffer the sliding engine touches per emitted window lives here,
//! so that after a warm-up phase the hot path performs **zero heap
//! allocations per window** — the property that lets one node multiplex
//! thousands of patient streams (`fleet_throughput` measures it with a
//! counting allocator).

use hrv_dsp::Cx;
use hrv_lomb::MeshScratch;

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
    /// Data mesh.
    pub(crate) wk1: Vec<f64>,
    /// Weight mesh.
    pub(crate) wk2: Vec<f64>,
    /// Data half-spectrum.
    pub(crate) first: Vec<Cx>,
    /// Weight half-spectrum (full packed path only).
    pub(crate) second: Vec<Cx>,
    /// Packed complex FFT input.
    pub(crate) packed: Vec<Cx>,
    /// FFT kernel working set.
    pub(crate) fft: Vec<Cx>,
    /// Output frequency grid.
    pub(crate) freqs: Vec<f64>,
    /// Output power values.
    pub(crate) power: Vec<f64>,
    /// Audit-path data spectrum.
    pub(crate) audit_first: Vec<Cx>,
    /// Audit-path weight spectrum.
    pub(crate) audit_second: Vec<Cx>,
    /// Audit-path frequency grid.
    pub(crate) audit_freqs: Vec<f64>,
    /// Audit-path power values.
    pub(crate) audit_power: Vec<f64>,
    /// Spline / prepare intermediates.
    pub(crate) mesh: MeshScratch,
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
            + self.wk1.capacity()
            + self.wk2.capacity()
            + self.first.capacity()
            + self.second.capacity()
            + self.packed.capacity()
            + self.fft.capacity()
            + self.freqs.capacity()
            + self.power.capacity()
            + self.audit_first.capacity()
            + self.audit_second.capacity()
            + self.audit_freqs.capacity()
            + self.audit_power.capacity()
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
