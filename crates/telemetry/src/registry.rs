//! Metric storage: one process-wide registry behind a mutex.
//!
//! Every record takes the registry lock.  Records only happen with telemetry on, and
//! they are rare (one span per engine run or executor item, a few counters per
//! batch), so the lock costs nothing measurable, and a [`snapshot`] sees every
//! thread's records, including those of threads that are still running.
//!
//! All aggregate maps are `BTreeMap`s so every export (summary, Chrome
//! trace) iterates metrics in a stable name order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
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
    /// Start, nanoseconds since the process epoch (the first span start).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small sequential id of the recording thread.
    pub tid: u64,
}

/// The aggregated state of every metric.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Value histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Span statistics by name.
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Completed span occurrences for the Chrome trace (capped).
    pub trace: Vec<TraceEvent>,
    /// Trace events discarded once [`MAX_TRACE_EVENTS`] was reached.
    pub dropped_trace_events: u64,
    /// Labels attached to thread ids (Chrome trace `thread_name` metadata).
    pub thread_labels: BTreeMap<u64, String>,
}

/// The process-wide registry.  Nothing panics while holding it, but a poisoned lock
/// would still hold consistent metrics, so poisoning is ignored.
fn registry() -> MutexGuard<'static, Aggregate> {
    static GLOBAL: OnceLock<Mutex<Aggregate>> = OnceLock::new();
    GLOBAL.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
}

/// Nanoseconds since the process epoch, the first time a span started.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    /// Small sequential id of the calling thread, for the Chrome trace.
    static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

pub(crate) fn record_counter(name: &'static str, delta: u64) {
    *registry().counters.entry(name).or_insert(0) += delta;
}

pub(crate) fn record_histogram(name: &'static str, value: u64) {
    registry().histograms.entry(name).or_default().record(value);
}

pub(crate) fn record_span(name: &'static str, start_ns: u64, dur_ns: u64) {
    let tid = TID.with(|&tid| tid);
    let mut agg = registry();
    agg.spans.entry(name).or_default().durations.record(dur_ns);
    if agg.trace.len() < MAX_TRACE_EVENTS {
        agg.trace.push(TraceEvent { name, start_ns, dur_ns, tid });
    } else {
        agg.dropped_trace_events += 1;
    }
}

pub(crate) fn record_thread_label(label: &str) {
    let tid = TID.with(|&tid| tid);
    registry().thread_labels.insert(tid, label.to_owned());
}

/// A clone of every thread's aggregated records.
pub fn snapshot() -> Aggregate {
    registry().clone()
}

/// Clears every aggregated metric.
pub fn reset() {
    *registry() = Aggregate::default();
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
}
