//! Metric storage: thread-local buffers aggregated into one global registry.
//!
//! Instrumented code records into an unsynchronised thread-local [`LocalBuffer`]; the
//! buffer drains into the process-wide registry when the thread exits, when its trace
//! buffer fills, or when a [`snapshot`](crate::snapshot) is taken (which drains the
//! *calling* thread first).  The hot path therefore never takes the global lock except
//! at those rare drain points.
//!
//! All aggregate maps are `BTreeMap`s so every export (summary, Chrome
//! trace) iterates metrics in a stable name order.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Log-linear histogram resolution: each power-of-two octave splits into
/// `2^SUB_BUCKET_BITS` equal-width buckets.
const SUB_BUCKET_BITS: u32 = 3;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Number of histogram buckets: one per value below 8 (exact), then 8 per octave up to
/// `u64::MAX` — enough for nanosecond durations up to ~584 years.
pub const HISTOGRAM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BUCKET_BITS as usize) * SUB_BUCKETS;

/// Global cap on buffered Chrome-trace events; beyond it events are counted as dropped
/// instead of stored, so a long run cannot exhaust memory.
pub const MAX_TRACE_EVENTS: usize = 1 << 18;

/// Local trace buffers drain into the registry at this size.
const LOCAL_TRACE_DRAIN: usize = 4096;

/// A key of one metric series: a static name plus an optional small index for
/// per-worker/per-core breakdowns (`executor.steal` worker 3 and so on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name (dot-separated, `layer.metric` convention).
    pub name: &'static str,
    /// Optional per-entity index (worker id, core id).
    pub index: Option<u32>,
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.index {
            Some(i) => write!(f, "{}[{i}]", self.name),
            None => f.write_str(self.name),
        }
    }
}

/// A log-linear histogram (8 buckets per octave, exact below 8) with exact
/// count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts recorded values `v` with `bucket_of(v) == i`.
    pub buckets: Vec<u64>,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: vec![0; HISTOGRAM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Index of the bucket `value` falls into: `value` itself below 8, otherwise its
    /// octave and the three bits after its leading one.
    pub fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let shift = 63 - value.leading_zeros() - SUB_BUCKET_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        SUB_BUCKETS * (1 + shift as usize) + sub
    }

    /// The largest value bucket `index` holds.
    fn bucket_upper_bound(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let shift = index / SUB_BUCKETS - 1;
        let lower = ((SUB_BUCKETS + index % SUB_BUCKETS) as u64) << shift;
        lower + ((1u64 << shift) - 1)
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket where the cumulative count first reaches
    /// `q * count` — an upper estimate of the `q`-quantile, less than 12.5% above it
    /// (exact below 8).
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let threshold = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= threshold {
                // The bucket's upper bound, clamped to the observed maximum.
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Aggregate of one gauge: the most recently set value plus the running extremes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStat {
    /// Most recently set value (by drain order across threads).
    pub last: f64,
    /// Largest value ever set.
    pub max: f64,
    /// Smallest value ever set.
    pub min: f64,
    /// Number of sets.
    pub count: u64,
}

impl GaugeStat {
    fn new(value: f64) -> Self {
        Self { last: value, max: value, min: value, count: 1 }
    }

    fn set(&mut self, value: f64) {
        self.last = value;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        self.count += 1;
    }

    fn merge(&mut self, other: &GaugeStat) {
        self.last = other.last;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        self.count += other.count;
    }
}

/// Aggregate of one span name: call count plus a duration histogram (nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Nanosecond durations of every completed span with this name.
    pub durations: Histogram,
}

/// One completed span occurrence, kept for the Chrome trace export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name.
    pub name: &'static str,
    /// Start, nanoseconds since the process [`epoch`].
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small sequential id of the recording thread.
    pub tid: u64,
}

/// The aggregated state of every metric, as drained from the thread-local buffers.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Monotonic counters.
    pub counters: BTreeMap<Key, u64>,
    /// Last-write gauges with running extremes.
    pub gauges: BTreeMap<Key, GaugeStat>,
    /// Value histograms.
    pub histograms: BTreeMap<Key, Histogram>,
    /// Span statistics by name.
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Completed span occurrences for the Chrome trace (capped).
    pub trace: Vec<TraceEvent>,
    /// Trace events discarded once [`MAX_TRACE_EVENTS`] was reached.
    pub dropped_trace_events: u64,
    /// Labels attached to thread ids (Chrome trace `thread_name` metadata).
    pub thread_labels: BTreeMap<u64, String>,
}

impl Aggregate {
    fn merge_from(&mut self, local: &mut LocalBuffer) {
        for (key, value) in std::mem::take(&mut local.counters) {
            *self.counters.entry(key).or_insert(0) += value;
        }
        for (key, value) in std::mem::take(&mut local.gauges) {
            self.gauges.entry(key).and_modify(|g| g.merge(&value)).or_insert(value);
        }
        for (key, value) in std::mem::take(&mut local.histograms) {
            self.histograms.entry(key).and_modify(|h| h.merge(&value)).or_insert(value);
        }
        for (name, value) in std::mem::take(&mut local.spans) {
            self.spans
                .entry(name)
                .and_modify(|s| s.durations.merge(&value.durations))
                .or_insert(value);
        }
        for event in local.trace.drain(..) {
            if self.trace.len() < MAX_TRACE_EVENTS {
                self.trace.push(event);
            } else {
                self.dropped_trace_events += 1;
            }
        }
        if let Some((tid, label)) = local.thread_label.take() {
            self.thread_labels.insert(tid, label);
        }
    }

    /// Clears every metric (used by tests via [`crate::reset`]).
    pub fn clear(&mut self) {
        *self = Aggregate::default();
    }
}

/// The process-wide registry.
fn global() -> &'static Mutex<Aggregate> {
    static GLOBAL: OnceLock<Mutex<Aggregate>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Aggregate::default()))
}

/// The process epoch all trace timestamps are relative to (first telemetry use).
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn next_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The per-thread unsynchronised metric buffer.
#[derive(Debug, Default)]
struct LocalBuffer {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, GaugeStat>,
    histograms: BTreeMap<Key, Histogram>,
    spans: BTreeMap<&'static str, SpanStat>,
    trace: Vec<TraceEvent>,
    thread_label: Option<(u64, String)>,
    tid: u64,
}

/// Drains the buffer into the global registry when the owning thread exits.
struct LocalGuard(RefCell<LocalBuffer>);

impl Drop for LocalGuard {
    fn drop(&mut self) {
        let local = self.0.get_mut();
        if !is_empty(local) {
            global().lock().expect("telemetry registry lock never poisoned").merge_from(local);
        }
    }
}

fn is_empty(local: &LocalBuffer) -> bool {
    local.counters.is_empty()
        && local.gauges.is_empty()
        && local.histograms.is_empty()
        && local.spans.is_empty()
        && local.trace.is_empty()
        && local.thread_label.is_none()
}

thread_local! {
    static LOCAL: LocalGuard = LocalGuard(RefCell::new(LocalBuffer::default()));
}

fn with_local(f: impl FnOnce(&mut LocalBuffer)) {
    // During thread teardown the TLS slot may already be gone; the guard has flushed,
    // and late records (from other TLS destructors) are deliberately dropped.
    let _ = LOCAL.try_with(|guard| {
        let mut local = guard.0.borrow_mut();
        if local.tid == 0 {
            local.tid = next_tid();
        }
        f(&mut local);
        if local.trace.len() >= LOCAL_TRACE_DRAIN {
            global().lock().expect("telemetry registry lock never poisoned").merge_from(&mut local);
        }
    });
}

pub(crate) fn record_counter(name: &'static str, index: Option<u32>, delta: u64) {
    with_local(|local| *local.counters.entry(Key { name, index }).or_insert(0) += delta);
}

pub(crate) fn record_gauge(name: &'static str, index: Option<u32>, value: f64) {
    with_local(|local| {
        local
            .gauges
            .entry(Key { name, index })
            .and_modify(|g| g.set(value))
            .or_insert_with(|| GaugeStat::new(value));
    });
}

pub(crate) fn record_histogram(name: &'static str, index: Option<u32>, value: u64) {
    with_local(|local| local.histograms.entry(Key { name, index }).or_default().record(value));
}

pub(crate) fn record_span(name: &'static str, start_ns: u64, dur_ns: u64) {
    with_local(|local| {
        local.spans.entry(name).or_default().durations.record(dur_ns);
        let tid = local.tid;
        local.trace.push(TraceEvent { name, start_ns, dur_ns, tid });
    });
}

pub(crate) fn record_span_stat_only(name: &'static str, dur_ns: u64) {
    with_local(|local| local.spans.entry(name).or_default().durations.record(dur_ns));
}

pub(crate) fn record_thread_label(label: &str) {
    with_local(|local| {
        let tid = local.tid;
        local.thread_label = Some((tid, label.to_owned()));
    });
}

/// Drains the calling thread's buffer into the registry.
pub fn flush() {
    let _ = LOCAL.try_with(|guard| {
        let mut local = guard.0.borrow_mut();
        if !is_empty(&local) {
            global().lock().expect("telemetry registry lock never poisoned").merge_from(&mut local);
        }
    });
}

/// Drains the calling thread and returns a clone of the aggregated state.
///
/// Buffers of *other* still-running threads are not included until those threads exit
/// (scoped executor workers always have by the time their spawner snapshots).
pub fn snapshot() -> Aggregate {
    flush();
    global().lock().expect("telemetry registry lock never poisoned").clone()
}

/// Clears every aggregated and thread-local metric of the calling thread.
pub fn reset() {
    let _ = LOCAL.try_with(|guard| {
        let mut local = guard.0.borrow_mut();
        let tid = local.tid;
        *local = LocalBuffer::default();
        local.tid = tid;
    });
    global().lock().expect("telemetry registry lock never poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_linear() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(7), 7);
        assert_eq!(Histogram::bucket_of(8), 8);
        assert_eq!(Histogram::bucket_of(15), 15);
        assert_eq!(Histogram::bucket_of(16), 16);
        assert_eq!(Histogram::bucket_of(17), 16);
        assert_eq!(Histogram::bucket_of(18), 17);
        assert_eq!(Histogram::bucket_of(1023), 63);
        assert_eq!(Histogram::bucket_of(1024), 64);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for index in 0..HISTOGRAM_BUCKETS {
            let upper = Histogram::bucket_upper_bound(index);
            assert_eq!(Histogram::bucket_of(upper), index, "bucket {index} ends at {upper}");
            if let Some(next) = upper.checked_add(1) {
                assert_eq!(Histogram::bucket_of(next), index + 1, "bucket {index} is followed");
            }
        }
    }

    #[test]
    fn quantile_upper_bounds_are_within_an_eighth_of_the_value() {
        // A sweep of values from 1 to 2^40, about 1% apart: each one's bucket bound
        // (unclamped, since a far larger value is recorded too) is at most 12.5% above.
        let mut value = 1u64;
        while value <= 1 << 40 {
            let mut h = Histogram::default();
            h.record(value);
            h.record(1 << 41);
            let bound = h.quantile_upper_bound(0.5);
            assert!(bound >= value, "bound {bound} below value {value}");
            assert!(bound - value <= value / 8, "bound {bound} too loose for {value}");
            if value < 8 {
                assert_eq!(bound, value, "exact below 8");
            }
            value += value / 100 + 1;
        }
    }

    #[test]
    fn histogram_tracks_exact_count_sum_extremes() {
        let mut h = Histogram::default();
        for v in [3u64, 9, 1, 100] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 113);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert!((h.mean() - 28.25).abs() < 1e-12);
    }

    #[test]
    fn quantile_upper_bound_brackets_the_true_quantile() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile_upper_bound(0.5);
        // True median 500; the bound is the enclosing bucket's upper edge.
        assert!((500..=1023).contains(&p50), "p50 bound {p50}");
        assert_eq!(h.quantile_upper_bound(1.0), 1000, "clamped to the observed max");
        let empty = Histogram::default();
        assert_eq!(empty.quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn gauge_merge_keeps_last_and_extremes() {
        let mut a = GaugeStat::new(5.0);
        a.set(2.0);
        let mut b = GaugeStat::new(9.0);
        b.set(7.0);
        a.merge(&b);
        assert_eq!(a.last, 7.0);
        assert_eq!(a.max, 9.0);
        assert_eq!(a.min, 2.0);
        assert_eq!(a.count, 4);
    }

    #[test]
    fn key_display_includes_the_index() {
        assert_eq!(Key { name: "executor.steal", index: None }.to_string(), "executor.steal");
        assert_eq!(Key { name: "executor.steal", index: Some(3) }.to_string(), "executor.steal[3]");
    }
}
