//! A lightweight observability layer: named counters, gauges, and
//! fixed-bucket histograms in a process-global registry, plus an opt-in
//! per-run trace ring buffer.
//!
//! Every figure of the paper is the average of many seeded runs; this
//! module makes those runs inspectable without perturbing them. Three
//! properties drive the design:
//!
//! * **Zero allocation on the hot path.** Metrics are registered once
//!   (one leaked allocation per name) and call sites cache the returned
//!   `&'static` handle in a [`std::sync::OnceLock`] via the
//!   [`metric_counter!`](crate::metric_counter!)/[`metric_gauge!`](crate::metric_gauge!)/
//!   [`metric_histogram!`](crate::metric_histogram!) macros,
//!   so a recording is one or two relaxed atomic operations.
//! * **Scheduling independence.** All recordings are commutative
//!   (saturating adds, maxima, bucket increments), so the totals are a
//!   pure function of *what* ran, not of how the OS interleaved the
//!   worker threads — the same contract [`crate::rng::SimRng`] gives the
//!   simulation results themselves.
//! * **No external dependencies.** The registry is `std`-only and
//!   [`MetricsSnapshot::to_json`] hand-rolls its JSON, so the vendored
//!   workspace builds offline.
//!
//! # Examples
//!
//! ```
//! use jrsnd_sim::metric_counter;
//! use jrsnd_sim::metrics;
//!
//! metric_counter!("doc.example_events").add(3);
//! let snap = metrics::snapshot();
//! assert_eq!(snap.counter("doc.example_events"), Some(3));
//! assert!(snap.to_json().contains("doc.example_events"));
//! ```

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing event count. Saturates at `u64::MAX`
/// instead of wrapping, so a runaway counter can never masquerade as a
/// small one.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        // `fetch_add` would wrap; a CAS loop keeps saturation exact. The
        // loop body is a single relaxed compare-exchange in the
        // non-contended common case.
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write or running-maximum `f64` value (stored as bits so updates
/// stay lock-free).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0), // 0.0f64
        }
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water mark). NaN is
    /// ignored.
    #[inline]
    pub fn set_max(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                let cur = f64::from_bits(bits);
                if v > cur {
                    Some(v.to_bits())
                } else {
                    None
                }
            });
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A fixed-range histogram over `[min, max)` with uniform atomic buckets
/// and under/overflow tracking — the same bucket semantics as
/// [`crate::stats::Histogram`], but concurrently recordable.
#[derive(Debug)]
pub struct HistogramMetric {
    min: f64,
    max: f64,
    buckets: Vec<AtomicU64>,
    underflow: AtomicU64,
    overflow: AtomicU64,
    total: AtomicU64,
}

impl HistogramMetric {
    fn new(min: f64, max: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(
            min.is_finite() && max.is_finite() && min < max,
            "invalid histogram range [{min}, {max})"
        );
        HistogramMetric {
            min,
            max,
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// Records one observation. NaN is counted as overflow rather than
    /// panicking: instrumentation must never kill a run.
    #[inline]
    pub fn record(&self, x: f64) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if x.is_nan() || x >= self.max {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        } else if x < self.min {
            self.underflow.fetch_add(1, Ordering::Relaxed);
        } else {
            let n = self.buckets.len();
            let idx = ((x - self.min) / (self.max - self.min) * n as f64) as usize;
            self.buckets[idx.min(n - 1)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The `[lo, hi)` bounds of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        assert!(i < self.buckets.len(), "bucket {i} out of range");
        let w = (self.max - self.min) / self.buckets.len() as f64;
        (self.min + i as f64 * w, self.min + (i + 1) as f64 * w)
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow.load(Ordering::Relaxed)
    }

    /// Observations at or above the range end (or NaN).
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.underflow.store(0, Ordering::Relaxed);
        self.overflow.store(0, Ordering::Relaxed);
        self.total.store(0, Ordering::Relaxed);
    }
}

/// The process-global registry. Registration takes a lock and leaks one
/// allocation per distinct name; recording never touches the lock.
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static HistogramMetric>>,
}

static REGISTRY: Registry = Registry {
    counters: Mutex::new(BTreeMap::new()),
    gauges: Mutex::new(BTreeMap::new()),
    histograms: Mutex::new(BTreeMap::new()),
};

/// Returns the counter registered under `name`, creating it on first use.
/// Prefer [`metric_counter!`](crate::metric_counter!) at call sites — it caches the handle.
pub fn counter(name: &'static str) -> &'static Counter {
    REGISTRY
        .counters
        .lock()
        .expect("metrics registry poisoned")
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// Returns the gauge registered under `name`, creating it on first use.
/// Prefer [`metric_gauge!`](crate::metric_gauge!) at call sites.
pub fn gauge(name: &'static str) -> &'static Gauge {
    REGISTRY
        .gauges
        .lock()
        .expect("metrics registry poisoned")
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
}

/// Returns the histogram registered under `name`, creating it with the
/// given range on first use. A later registration under the same name
/// keeps the original range (first writer wins). Prefer
/// [`metric_histogram!`](crate::metric_histogram!) at call sites.
pub fn histogram(
    name: &'static str,
    min: f64,
    max: f64,
    buckets: usize,
) -> &'static HistogramMetric {
    REGISTRY
        .histograms
        .lock()
        .expect("metrics registry poisoned")
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(HistogramMetric::new(min, max, buckets))))
}

/// Caches a [`counter`] handle at the call site: after the first call the
/// expansion is one atomic load plus the recording itself.
#[macro_export]
macro_rules! metric_counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Caches a [`gauge`] handle at the call site.
#[macro_export]
macro_rules! metric_gauge {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Caches a [`histogram`] handle at the call site.
#[macro_export]
macro_rules! metric_histogram {
    ($name:literal, $min:expr, $max:expr, $buckets:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::HistogramMetric> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::histogram($name, $min, $max, $buckets))
    }};
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name, dot-namespaced by layer (e.g. `dndp.discovered`).
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// One histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Lower bound of the bucketed range.
    pub min: f64,
    /// Upper bound (exclusive) of the bucketed range.
    pub max: f64,
    /// Per-bucket counts over `[min, max)`, uniform width.
    pub buckets: Vec<u64>,
    /// Observations below `min`.
    pub underflow: u64,
    /// Observations at or above `max`.
    pub overflow: u64,
    /// Total observations.
    pub total: u64,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, ascending by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, ascending by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, ascending by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Counter names that start with `prefix` and have a nonzero value —
    /// the "did this layer record anything" check.
    pub fn nonzero_with_prefix(&self, prefix: &str) -> Vec<&str> {
        self.counters
            .iter()
            .filter(|c| c.value > 0 && c.name.starts_with(prefix))
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Serializes the snapshot as pretty-printed JSON (hand-rolled: the
    /// workspace is vendored-only). Non-finite gauge values serialize as
    /// `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(&c.name), c.value));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {}",
                json_string(&g.name),
                json_f64(g.value)
            ));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "\n    {}: {{\"min\": {}, \"max\": {}, \"buckets\": [{}], \
                 \"underflow\": {}, \"overflow\": {}, \"total\": {}}}",
                json_string(&h.name),
                json_f64(h.min),
                json_f64(h.max),
                buckets.join(", "),
                h.underflow,
                h.overflow,
                h.total
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Copies every registered metric into a [`MetricsSnapshot`].
pub fn snapshot() -> MetricsSnapshot {
    let counters = REGISTRY
        .counters
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(&name, c)| CounterSnapshot {
            name: name.to_string(),
            value: c.get(),
        })
        .collect();
    let gauges = REGISTRY
        .gauges
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(&name, g)| GaugeSnapshot {
            name: name.to_string(),
            value: g.get(),
        })
        .collect();
    let histograms = REGISTRY
        .histograms
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(&name, h)| HistogramSnapshot {
            name: name.to_string(),
            min: h.min,
            max: h.max,
            buckets: h
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            underflow: h.underflow(),
            overflow: h.overflow(),
            total: h.count(),
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Zeroes every registered metric (names and histogram ranges are kept).
/// Intended for scoping: snapshot-and-reset between experiment phases.
pub fn reset() {
    for c in REGISTRY
        .counters
        .lock()
        .expect("metrics registry poisoned")
        .values()
    {
        c.reset();
    }
    for g in REGISTRY
        .gauges
        .lock()
        .expect("metrics registry poisoned")
        .values()
    {
        g.reset();
    }
    for h in REGISTRY
        .histograms
        .lock()
        .expect("metrics registry poisoned")
        .values()
    {
        h.reset();
    }
}

// ---------------------------------------------------------------------------
// Per-run trace ring buffer
// ---------------------------------------------------------------------------

/// One traced event: a virtual-time key, a static target (the layer that
/// emitted it), and a rendered message.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event in seconds (0.0 for snapshot-mode layers
    /// that have no clock).
    pub t: f64,
    /// The emitting layer, e.g. `"timeline"` or `"dndp"`.
    pub target: &'static str,
    /// The rendered message.
    pub message: String,
}

struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

thread_local! {
    static TRACE: RefCell<Option<TraceRing>> = const { RefCell::new(None) };
}

/// Cheap global check so disabled tracing costs one relaxed load. Tracing
/// itself is per-thread; this flag is set while *any* thread traces.
static TRACE_ARMED: AtomicBool = AtomicBool::new(false);

/// Enables tracing on the current thread with a bounded ring of
/// `capacity` events (oldest dropped first). Tracing is off by default
/// and never enabled transitively on worker threads.
pub fn trace_enable(capacity: usize) {
    assert!(capacity > 0, "trace ring needs capacity");
    TRACE_ARMED.store(true, Ordering::Relaxed);
    TRACE.with(|t| {
        *t.borrow_mut() = Some(TraceRing {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        });
    });
}

/// Disables tracing on the current thread and discards its buffer.
pub fn trace_disable() {
    TRACE.with(|t| *t.borrow_mut() = None);
}

/// Whether tracing *might* be enabled (fast pre-check used by
/// [`sim_trace!`](crate::sim_trace!) so the format arguments are never rendered when
/// tracing is off anywhere in the process).
#[inline]
pub fn trace_armed() -> bool {
    TRACE_ARMED.load(Ordering::Relaxed)
}

/// Appends an event to the current thread's ring, if tracing is enabled
/// here. Prefer [`sim_trace!`](crate::sim_trace!), which skips message rendering when off.
pub fn trace_event(t: f64, target: &'static str, message: String) {
    TRACE.with(|ring| {
        if let Some(ring) = ring.borrow_mut().as_mut() {
            if ring.events.len() == ring.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.events.push_back(TraceEvent { t, target, message });
        }
    });
}

/// Takes every buffered event from the current thread's ring (the ring
/// stays enabled). Returns `(events, dropped_count)`.
pub fn trace_drain() -> (Vec<TraceEvent>, u64) {
    TRACE.with(|ring| {
        let mut borrow = ring.borrow_mut();
        match borrow.as_mut() {
            Some(ring) => {
                let dropped = ring.dropped;
                ring.dropped = 0;
                (ring.events.drain(..).collect(), dropped)
            }
            None => (Vec::new(), 0),
        }
    })
}

/// `trace!`-style macro: records `(virtual_time, target, format…)` into
/// the per-thread ring buffer. Compiles to a single relaxed load when no
/// thread has tracing enabled — cheap enough for protocol hot paths.
#[macro_export]
macro_rules! sim_trace {
    ($t:expr, $target:literal, $($arg:tt)*) => {
        if $crate::metrics::trace_armed() {
            $crate::metrics::trace_event(($t) as f64, $target, format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_saturates() {
        let c = counter("test.counter_saturation");
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.add(100); // must saturate, not wrap
        assert_eq!(c.get(), u64::MAX);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_shared_by_name() {
        counter("test.shared").add(2);
        counter("test.shared").add(3);
        assert_eq!(counter("test.shared").get(), 5);
    }

    #[test]
    fn gauge_set_and_max() {
        let g = gauge("test.gauge");
        g.set(1.5);
        assert_eq!(g.get(), 1.5);
        g.set_max(0.5); // lower: ignored
        assert_eq!(g.get(), 1.5);
        g.set_max(9.25);
        assert_eq!(g.get(), 9.25);
        g.set_max(f64::NAN); // NaN: ignored
        assert_eq!(g.get(), 9.25);
    }

    #[test]
    fn histogram_bucket_edges() {
        let h = histogram("test.hist_edges", 0.0, 10.0, 5);
        assert_eq!(h.bucket_bounds(0), (0.0, 2.0));
        assert_eq!(h.bucket_bounds(4), (8.0, 10.0));
        h.record(0.0); // inclusive lower edge -> bucket 0
        h.record(2.0); // bucket boundary -> bucket 1
        h.record(9.999); // last bucket
        h.record(10.0); // exclusive upper edge -> overflow
        h.record(-0.001); // underflow
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(4), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_nan_is_overflow_not_panic() {
        let h = histogram("test.hist_nan", 0.0, 1.0, 2);
        h.record(f64::NAN);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_first_registration_wins() {
        let a = histogram("test.hist_range", 0.0, 1.0, 4);
        let b = histogram("test.hist_range", 0.0, 100.0, 7);
        assert!(std::ptr::eq(a, b));
        assert_eq!(b.buckets.len(), 4);
    }

    #[test]
    fn snapshot_reports_and_serializes() {
        counter("test.snap_counter").add(7);
        gauge("test.snap_gauge").set(2.5);
        histogram("test.snap_hist", 0.0, 4.0, 2).record(1.0);
        let snap = snapshot();
        assert_eq!(snap.counter("test.snap_counter"), Some(7));
        assert_eq!(snap.gauge("test.snap_gauge"), Some(2.5));
        let h = snap.histogram("test.snap_hist").expect("registered");
        assert_eq!(h.buckets.iter().sum::<u64>(), 1);
        let json = snap.to_json();
        assert!(json.contains("\"test.snap_counter\": 7"));
        assert!(json.contains("\"test.snap_gauge\": 2.5"));
        assert!(json.contains("\"test.snap_hist\""));
        // Names are sorted, so the output is reproducible.
        let again = snapshot().to_json();
        assert_eq!(json, again);
    }

    #[test]
    fn nonzero_prefix_filter() {
        counter("prefix_a.x").add(1);
        counter("prefix_a.y"); // registered but zero
        counter("prefix_b.z").add(1);
        let snap = snapshot();
        let hits = snap.nonzero_with_prefix("prefix_a.");
        assert_eq!(hits, vec!["prefix_a.x"]);
    }

    #[test]
    fn macros_cache_handles() {
        let a = metric_counter!("test.macro_counter");
        let b = metric_counter!("test.macro_counter");
        assert!(std::ptr::eq(a, b));
        a.inc();
        assert_eq!(counter("test.macro_counter").get(), 1);
        metric_gauge!("test.macro_gauge").set(3.0);
        assert_eq!(gauge("test.macro_gauge").get(), 3.0);
        metric_histogram!("test.macro_hist", 0.0, 1.0, 2).record(0.25);
        assert_eq!(histogram("test.macro_hist", 0.0, 1.0, 2).count(), 1);
    }

    #[test]
    fn trace_ring_bounds_and_drains() {
        trace_enable(3);
        for i in 0..5 {
            sim_trace!(i as f64, "test", "event {i}");
        }
        let (events, dropped) = trace_drain();
        assert_eq!(events.len(), 3, "ring keeps the newest 3");
        assert_eq!(dropped, 2);
        assert_eq!(events[0].message, "event 2");
        assert_eq!(events[2].message, "event 4");
        assert_eq!(events[2].t, 4.0);
        // Drained but still enabled: new events accumulate again.
        sim_trace!(9.0, "test", "later");
        let (events, dropped) = trace_drain();
        assert_eq!(events.len(), 1);
        assert_eq!(dropped, 0);
        trace_disable();
    }

    #[test]
    fn trace_off_by_default_on_fresh_threads() {
        std::thread::spawn(|| {
            // Even if another test armed tracing globally, this thread has
            // no ring, so events vanish without side effects.
            sim_trace!(0.0, "test", "dropped silently");
            let (events, dropped) = trace_drain();
            assert!(events.is_empty());
            assert_eq!(dropped, 0);
        })
        .join()
        .expect("thread ok");
    }

    #[test]
    fn json_escaping_is_valid() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.25), "1.25");
    }
}
