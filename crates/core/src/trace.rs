//! Lightweight pipeline span tracing.
//!
//! A [`Tracer`] records **spans** — `(id, parent, stage, start,
//! duration)` tuples — into bounded per-thread ring buffers. Time comes
//! from a [`Clock`] trait object: [`MonotonicClock`] in production,
//! [`MockClock`] in tests so span trees and their exports can be
//! asserted byte-for-byte. The recorded spans export as Chrome
//! trace-event JSON ([`Tracer::chrome_trace`] — load it in
//! `chrome://tracing` or Perfetto), and any **root** span that exceeds a
//! configurable threshold is captured with its full descendant breakdown
//! in a bounded slow-request log ([`Tracer::slow_requests`]).
//!
//! A timed stage ([`Tracer::stage`]) reads the clock once at start and
//! once at end; those two reads feed both its latency [`Histogram`] and
//! its span, so the two views of a stage always agree.
//!
//! Cost model: a *disabled* tracer (the default for production
//! configs) spends one relaxed atomic load per [`Tracer::span`] call and
//! never touches the clock — cheap enough to leave the instrumentation
//! permanently compiled in; a timed stage still reads the clock twice
//! for its histogram. An *enabled* tracer reads the clock twice per span
//! and takes one uncontended per-thread mutex on finish. Ring capacity
//! is fixed at creation; once a thread's ring is warm, steady state
//! records overwrite the oldest span without allocating.
//!
//! # Examples
//!
//! ```
//! use hrv_core::{MockClock, Tracer};
//! use std::sync::Arc;
//!
//! let clock = Arc::new(MockClock::new());
//! let tracer = Tracer::with_clock(clock.clone());
//! clock.set_ns(1_000);
//! {
//!     let _request = tracer.span("request");
//!     clock.advance_ns(250);
//!     {
//!         let _decode = tracer.span("decode");
//!         clock.advance_ns(500);
//!     }
//!     clock.advance_ns(250);
//! }
//! let spans = tracer.spans();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[0].stage, "request");
//! assert_eq!(spans[1].parent, spans[0].id);
//! assert!(tracer.chrome_trace().contains("\"name\":\"decode\""));
//! ```

use crate::sync::lock_unpoisoned;
use crate::telemetry::Histogram;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A monotonic nanosecond time source the tracer reads through.
///
/// Implementations must be cheap and monotone per thread; the tracer
/// subtracts values returned from the same instance.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since an arbitrary (per-instance) origin.
    fn now_ns(&self) -> u64;
}

/// Wall [`Clock`] over [`std::time::Instant`], origin at construction.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // Saturates ~584 years after construction.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-driven [`Clock`] for deterministic tests.
///
/// Starts at 0; advance it explicitly with [`MockClock::advance_ns`] /
/// [`MockClock::set_ns`]. [`MockClock::reads`] counts `now_ns` calls, so
/// tests can assert a disabled tracer performs **zero** clock reads.
#[derive(Debug, Default)]
pub struct MockClock {
    now: AtomicU64,
    reads: AtomicU64,
}

impl MockClock {
    /// A clock frozen at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Jumps the clock to an absolute nanosecond value.
    pub fn set_ns(&self, ns: u64) {
        self.now.store(ns, Ordering::Relaxed);
    }

    /// Moves the clock forward by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }

    /// How many times `now_ns` has been called.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl Clock for MockClock {
    fn now_ns(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.now.load(Ordering::Relaxed)
    }
}

/// One finished span. `parent == 0` marks a root span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique (per tracer) span id, starting at 1.
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for roots.
    pub parent: u64,
    /// Static stage label (e.g. `"frame_decode"`).
    pub stage: &'static str,
    /// Start time, [`Clock`] nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
    /// Tracer-assigned recording-thread index (dense, starting at 0).
    pub thread: u32,
}

/// A root span that exceeded the slow threshold, with every descendant
/// span still present in its thread's ring at capture time.
#[derive(Clone, Debug)]
pub struct SlowRequest {
    /// The offending root span.
    pub root: SpanRecord,
    /// The root plus its descendants, in recording (finish) order.
    pub spans: Vec<SpanRecord>,
}

#[derive(Debug)]
struct ThreadRing {
    thread: u32,
    /// Overwrite-oldest span ring of the tracer's capacity, oldest first.
    ring: Mutex<VecDeque<SpanRecord>>,
}

#[derive(Debug)]
struct TracerInner {
    /// Process-unique tracer id, keys the thread-local slot table.
    id: u64,
    enabled: AtomicBool,
    clock: Arc<dyn Clock>,
    capacity: usize,
    next_span: AtomicU64,
    next_thread: AtomicU32,
    threads: Mutex<Vec<Arc<ThreadRing>>>,
    /// Root spans at least this long are captured; `u64::MAX` disables.
    slow_threshold_ns: AtomicU64,
    slow: Mutex<Vec<SlowRequest>>,
}

/// How many slow requests the log retains (oldest dropped first).
const SLOW_LOG_CAPACITY: usize = 16;

/// Default per-thread ring capacity (spans).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

static TRACER_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread slots: (tracer id → this thread's ring + open-span
    /// cursor). Linear scan — a process holds one or two tracers.
    static LOCAL: RefCell<Vec<LocalSlot>> = const { RefCell::new(Vec::new()) };
}

struct LocalSlot {
    tracer: u64,
    ring: Arc<ThreadRing>,
    /// Id of the innermost open span on this thread (0 = none).
    current: u64,
}

/// The span recorder; see the module docs.
///
/// Cloning is cheap and yields a handle to the same trace state, so one
/// tracer threads through a gateway's reactor shards and its fleet.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    fn build(clock: Arc<dyn Clock>, enabled: bool, capacity: usize) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                id: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
                enabled: AtomicBool::new(enabled),
                clock,
                capacity: capacity.max(1),
                next_span: AtomicU64::new(1),
                next_thread: AtomicU32::new(0),
                threads: Mutex::new(Vec::new()),
                slow_threshold_ns: AtomicU64::new(u64::MAX),
                slow: Mutex::new(Vec::new()),
            }),
        }
    }

    /// An **enabled** tracer over the real monotonic clock with the
    /// default ring capacity.
    pub fn monotonic() -> Self {
        Self::build(Arc::new(MonotonicClock::new()), true, DEFAULT_RING_CAPACITY)
    }

    /// An **enabled** tracer over the given clock (tests pass a
    /// [`MockClock`] here).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self::build(clock, true, DEFAULT_RING_CAPACITY)
    }

    /// An **enabled** tracer with an explicit per-thread ring capacity.
    pub fn with_clock_and_capacity(clock: Arc<dyn Clock>, capacity: usize) -> Self {
        Self::build(clock, true, capacity)
    }

    /// A **disabled** tracer: every [`Tracer::span`] call is one relaxed
    /// atomic load, no clock reads, nothing recorded. The production
    /// default — flip on with [`Tracer::set_enabled`].
    pub fn disabled() -> Self {
        Self::build(
            Arc::new(MonotonicClock::new()),
            false,
            DEFAULT_RING_CAPACITY,
        )
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Captures any **root** span whose duration reaches `ns` into the
    /// slow-request log. `u64::MAX` (the default) disables capture.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.inner.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Makes span `id` this thread's innermost open span, registering
    /// the thread's ring on first use. Returns the ring and the id of the
    /// span it nests in (0 for a root).
    fn enter(&self, id: u64) -> (Arc<ThreadRing>, u64) {
        LOCAL.with(|slots| {
            let mut slots = slots.borrow_mut();
            let index = match slots.iter().position(|s| s.tracer == self.inner.id) {
                Some(index) => index,
                None => {
                    let ring = Arc::new(ThreadRing {
                        thread: self.inner.next_thread.fetch_add(1, Ordering::Relaxed),
                        ring: Mutex::new(VecDeque::with_capacity(self.inner.capacity)),
                    });
                    lock_unpoisoned(&self.inner.threads).push(Arc::clone(&ring));
                    slots.push(LocalSlot {
                        tracer: self.inner.id,
                        ring,
                        current: 0,
                    });
                    slots.len() - 1
                }
            };
            let slot = &mut slots[index];
            (
                Arc::clone(&slot.ring),
                std::mem::replace(&mut slot.current, id),
            )
        })
    }

    /// Opens a span; it records when the returned guard drops. Spans
    /// opened while the guard is live (on the same thread) become its
    /// children. When the tracer is disabled this is one atomic load and
    /// the guard is inert.
    pub fn span(&self, stage: &'static str) -> Stage<'_> {
        self.begin(stage, None)
    }

    /// Opens a timed stage: the guard observes `hist` and, when the
    /// tracer is enabled, records a `stage` span — both from the same two
    /// clock reads, so they see the same duration.
    pub fn stage<'a>(&'a self, stage: &'static str, hist: &'a Histogram) -> Stage<'a> {
        self.begin(stage, Some(hist))
    }

    fn begin<'a>(&'a self, stage: &'static str, hist: Option<&'a Histogram>) -> Stage<'a> {
        let enabled = self.is_enabled();
        // A bare span under a disabled tracer reads no clock.
        let start_ns = if enabled || hist.is_some() {
            self.inner.clock.now_ns()
        } else {
            0
        };
        let span = enabled.then(|| {
            let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
            let (ring, parent) = self.enter(id);
            ActiveSpan {
                ring,
                stage,
                id,
                parent,
            }
        });
        Stage {
            tracer: &self.inner,
            hist,
            start_ns,
            span,
        }
    }

    /// Every recorded span, across threads, sorted by
    /// `(start_ns, thread, id)` for deterministic assertions.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let rings: Vec<Arc<ThreadRing>> = lock_unpoisoned(&self.inner.threads).clone();
        let mut out = Vec::new();
        for ring in rings {
            out.extend(lock_unpoisoned(&ring.ring).iter().copied());
        }
        out.sort_by_key(|s| (s.start_ns, s.thread, s.id));
        out
    }

    /// Captured slow requests, oldest first.
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        lock_unpoisoned(&self.inner.slow).clone()
    }

    /// Drops every recorded span and slow request (rings stay
    /// registered).
    pub fn clear(&self) {
        let rings: Vec<Arc<ThreadRing>> = lock_unpoisoned(&self.inner.threads).clone();
        for ring in rings {
            lock_unpoisoned(&ring.ring).clear();
        }
        lock_unpoisoned(&self.inner.slow).clear();
    }

    /// Exports every recorded span as Chrome trace-event JSON (an object
    /// with a `traceEvents` array of complete — `"ph":"X"` — events,
    /// microsecond timestamps). Load the string in `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev). Deterministic given
    /// deterministic spans: events are sorted like [`Tracer::spans`].
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{name},\"cat\":\"hrv\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                name = json_string(span.stage),
                ts = Micros(span.start_ns),
                dur = Micros(span.duration_ns),
                tid = span.thread,
                id = span.id,
                parent = span.parent,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Nanoseconds rendered as decimal microseconds (Chrome's `ts` unit)
/// without float formatting, so exports are bit-deterministic.
struct Micros(u64);

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (whole, frac) = (self.0 / 1_000, self.0 % 1_000);
        if frac == 0 {
            write!(f, "{whole}")
        } else {
            // Trim trailing zeros of the 3-digit fraction.
            let mut frac = format!("{frac:03}");
            while frac.ends_with('0') {
                frac.pop();
            }
            write!(f, "{whole}.{frac}")
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Pushes a finished record into its ring; a slow **root** additionally
/// captures its descendant breakdown into the slow-request log.
fn finish(inner: &TracerInner, ring: &ThreadRing, record: SpanRecord) {
    let is_slow =
        record.parent == 0 && record.duration_ns >= inner.slow_threshold_ns.load(Ordering::Relaxed);
    let breakdown = {
        let mut guard = lock_unpoisoned(&ring.ring);
        if guard.len() == inner.capacity {
            guard.pop_front();
        }
        guard.push_back(record);
        is_slow.then(|| descendants(guard.make_contiguous(), record.id))
    };
    if let Some(spans) = breakdown {
        let mut slow = lock_unpoisoned(&inner.slow);
        if slow.len() >= SLOW_LOG_CAPACITY {
            slow.remove(0);
        }
        slow.push(SlowRequest {
            root: record,
            spans,
        });
    }
}

/// The spans of `ordered` reachable from `root` by parent links, in
/// recording order, root included. Children finish (and record) before
/// their parents, so one reverse pass resolves the whole tree.
fn descendants(ordered: &[SpanRecord], root: u64) -> Vec<SpanRecord> {
    let mut keep = vec![false; ordered.len()];
    let mut ids = std::collections::BTreeSet::new();
    ids.insert(root);
    for (i, span) in ordered.iter().enumerate().rev() {
        if span.id == root || ids.contains(&span.parent) {
            keep[i] = true;
            ids.insert(span.id);
        }
    }
    ordered
        .iter()
        .zip(keep)
        .filter_map(|(span, keep)| keep.then_some(*span))
        .collect()
}

/// The span half of an open [`Stage`].
struct ActiveSpan {
    ring: Arc<ThreadRing>,
    stage: &'static str,
    id: u64,
    parent: u64,
}

/// RAII guard of an open span ([`Tracer::span`]) or timed stage
/// ([`Tracer::stage`]). On drop it reads the clock once and hands the
/// duration to the stage histogram, if any, and to the span, if the
/// tracer was enabled at start. A disabled bare span is inert.
#[must_use = "the stage records when this guard drops"]
pub struct Stage<'a> {
    tracer: &'a TracerInner,
    /// `None` for a bare span, and once cancelled.
    hist: Option<&'a Histogram>,
    start_ns: u64,
    /// `None` while the tracer is disabled, and once closed.
    span: Option<ActiveSpan>,
}

impl Stage<'_> {
    /// Discards the stage: no span, no observation, no further clock
    /// read — for call sites that only know in hindsight that nothing
    /// happened (a window-compute step that emitted no window). Spans
    /// opened inside it keep their parent link.
    pub fn cancel(mut self) {
        self.hist = None;
        self.leave();
    }

    /// Closes the span, restoring its parent as this thread's innermost.
    fn leave(&mut self) -> Option<ActiveSpan> {
        let span = self.span.take()?;
        LOCAL.with(|slots| {
            let mut slots = slots.borrow_mut();
            if let Some(slot) = slots.iter_mut().find(|s| s.tracer == self.tracer.id) {
                slot.current = span.parent;
            }
        });
        Some(span)
    }
}

impl Drop for Stage<'_> {
    fn drop(&mut self) {
        let span = self.leave();
        if span.is_none() && self.hist.is_none() {
            return;
        }
        let duration_ns = self.tracer.clock.now_ns().saturating_sub(self.start_ns);
        if let Some(hist) = self.hist {
            hist.observe_duration(Duration::from_nanos(duration_ns));
        }
        if let Some(span) = span {
            let record = SpanRecord {
                id: span.id,
                parent: span.parent,
                stage: span.stage,
                start_ns: self.start_ns,
                duration_ns,
                thread: span.ring.thread,
            };
            finish(self.tracer, &span.ring, record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mock_tracer() -> (Arc<MockClock>, Tracer) {
        let clock = Arc::new(MockClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        (clock, tracer)
    }

    #[test]
    fn nested_spans_build_a_parent_chain() {
        let (clock, tracer) = mock_tracer();
        clock.set_ns(100);
        {
            let _a = tracer.span("a");
            clock.advance_ns(10);
            {
                let _b = tracer.span("b");
                clock.advance_ns(5);
            }
            {
                let _c = tracer.span("c");
                clock.advance_ns(7);
            }
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let a = spans.iter().find(|s| s.stage == "a").unwrap();
        let b = spans.iter().find(|s| s.stage == "b").unwrap();
        let c = spans.iter().find(|s| s.stage == "c").unwrap();
        assert_eq!(a.parent, 0);
        assert_eq!(b.parent, a.id);
        assert_eq!(c.parent, a.id, "siblings share the restored parent");
        assert_eq!(a.duration_ns, 22);
        assert_eq!(b.duration_ns, 5);
        assert_eq!(c.start_ns, 115);
    }

    #[test]
    fn disabled_tracer_reads_no_clock_and_records_nothing() {
        let clock = Arc::new(MockClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        tracer.set_enabled(false);
        for _ in 0..100 {
            let _g = tracer.span("stage");
        }
        assert_eq!(clock.reads(), 0, "disabled path must not touch the clock");
        assert!(tracer.spans().is_empty());
    }

    fn stage_hist() -> Histogram {
        crate::Telemetry::new().histogram("stage_seconds", "stage time")
    }

    #[test]
    fn a_stage_feeds_span_and_histogram_from_two_clock_reads() {
        let (clock, tracer) = mock_tracer();
        let hist = stage_hist();
        clock.set_ns(1_000);
        let outer = tracer.span("outer");
        let reads = clock.reads();
        {
            let _stage = tracer.stage("inner", &hist);
            clock.advance_ns(400);
        }
        assert_eq!(clock.reads() - reads, 2, "one read at start, one at end");
        drop(outer);
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.stage == "outer").unwrap();
        let inner = spans.iter().find(|s| s.stage == "inner").unwrap();
        assert_eq!(inner.parent, outer.id, "parented under the open span");
        assert_eq!((inner.start_ns, inner.duration_ns), (1_000, 400));
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), 400e-9, "the histogram saw the span's duration");
    }

    #[test]
    fn a_cancelled_stage_records_nothing() {
        let (clock, tracer) = mock_tracer();
        let hist = stage_hist();
        let stage = tracer.stage("cancelled", &hist);
        clock.advance_ns(10);
        stage.cancel();
        assert_eq!(clock.reads(), 1, "only the start was read");
        assert_eq!(hist.count(), 0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn a_stage_under_a_disabled_tracer_only_observes_the_histogram() {
        let (clock, tracer) = mock_tracer();
        tracer.set_enabled(false);
        let hist = stage_hist();
        {
            let _stage = tracer.stage("stage", &hist);
            clock.advance_ns(250);
        }
        assert_eq!(clock.reads(), 2);
        assert_eq!((hist.count(), hist.sum()), (1, 250e-9));
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_at_capacity() {
        let clock = Arc::new(MockClock::new());
        let tracer = Tracer::with_clock_and_capacity(clock.clone(), 4);
        for i in 0..10u64 {
            clock.set_ns(i * 100);
            let _g = tracer.span("s");
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].start_ns, 600, "oldest six were overwritten");
    }

    #[test]
    fn slow_roots_capture_their_breakdown() {
        let (clock, tracer) = mock_tracer();
        tracer.set_slow_threshold_ns(1_000);
        // Fast request: not captured.
        {
            let _r = tracer.span("request");
            clock.advance_ns(500);
        }
        assert!(tracer.slow_requests().is_empty());
        // Slow request with two stages.
        {
            let _r = tracer.span("request");
            {
                let _d = tracer.span("decode");
                clock.advance_ns(300);
            }
            {
                let _c = tracer.span("compute");
                clock.advance_ns(900);
            }
        }
        let slow = tracer.slow_requests();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].root.stage, "request");
        assert_eq!(slow[0].root.duration_ns, 1_200);
        let stages: Vec<_> = slow[0].spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec!["decode", "compute", "request"]);
        // An unrelated earlier root span is NOT swept into the breakdown.
        assert!(slow[0].spans.iter().all(|s| s.start_ns >= 500));
    }

    #[test]
    fn spans_merge_across_threads() {
        let tracer = Tracer::monotonic();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    let _g = tracer.span("worker");
                });
            }
        });
        let _main = tracer.span("main");
        drop(_main);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        let threads: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 4, "each thread got its own ring");
    }

    #[test]
    fn clear_resets_spans_and_slow_log() {
        let (clock, tracer) = mock_tracer();
        tracer.set_slow_threshold_ns(1);
        {
            let _g = tracer.span("s");
            clock.advance_ns(10);
        }
        assert_eq!(tracer.spans().len(), 1);
        assert_eq!(tracer.slow_requests().len(), 1);
        tracer.clear();
        assert!(tracer.spans().is_empty());
        assert!(tracer.slow_requests().is_empty());
        // The ring still works after a clear.
        let _g = tracer.span("t");
        drop(_g);
        assert_eq!(tracer.spans().len(), 1);
    }

    #[test]
    fn cancelled_spans_vanish_but_restore_the_parent() {
        let (clock, tracer) = mock_tracer();
        let _outer = tracer.span("outer");
        clock.advance_ns(10);
        let cancelled = tracer.span("cancelled");
        clock.advance_ns(10);
        cancelled.cancel();
        {
            let _sibling = tracer.span("sibling");
            clock.advance_ns(10);
        }
        drop(_outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2, "cancelled span not recorded: {spans:?}");
        let outer = spans.iter().find(|s| s.stage == "outer").unwrap();
        let sibling = spans.iter().find(|s| s.stage == "sibling").unwrap();
        assert_eq!(sibling.parent, outer.id, "parent restored after the cancel");
    }

    #[test]
    fn micros_formatting_is_exact() {
        assert_eq!(Micros(0).to_string(), "0");
        assert_eq!(Micros(1_000).to_string(), "1");
        assert_eq!(Micros(1_500).to_string(), "1.5");
        assert_eq!(Micros(1_005).to_string(), "1.005");
        assert_eq!(Micros(123_456_789).to_string(), "123456.789");
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
