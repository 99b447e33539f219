//! `mp-telemetry` — structured observability for the measurement harness.
//!
//! The paper's method is instrumentation: read the PMCs while controlled workloads run.
//! This crate gives the harness itself the same visibility — scoped spans (nested
//! wall-time timers), monotonic counters and log-linear histograms — without
//! perturbing the thing being observed:
//!
//! * **Provably inert.**  Telemetry only ever *reads* clocks; it never touches RNG
//!   streams, simulator state or scheduling decisions, so golden fingerprints and the
//!   serial==parallel determinism suites pass byte-identical with telemetry enabled.
//! * **Near-free when disabled.**  Every recording call first checks [`enabled`] — one
//!   relaxed atomic load — and returns immediately when telemetry is off (the default).
//! * **One registry.**  Every record goes straight into one locked process-wide
//!   aggregate, so a [`snapshot`] sees the records of every thread, running or not.
//!
//! Enable with `MP_TELEMETRY=1` (or [`set_enabled`] in tests/benches).  Export two
//! ways: [`summary`]/[`report`] (the `# Telemetry` block on stderr), and
//! [`chrome_trace_json`] / `MP_TELEMETRY_TRACE` (Chrome trace-event format — open the
//! file in Perfetto to see every span on a per-thread timeline).
//!
//! # Examples
//!
//! ```
//! mp_telemetry::set_enabled(true);
//! {
//!     let _span = mp_telemetry::span("demo.phase");
//!     mp_telemetry::counter("demo.items", 3);
//!     mp_telemetry::histogram("demo.latency_ns", 1500);
//! }
//! let snapshot = mp_telemetry::snapshot();
//! assert_eq!(snapshot.counters["demo.items"], 3);
//! assert!(mp_telemetry::summary(&snapshot).contains("span demo.phase"));
//! ```

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

pub mod export;
pub mod registry;

pub use export::{chrome_trace_json, report, summary, TRACE_ENV};
pub use registry::{snapshot, Aggregate, Histogram, SpanStat, TraceEvent};

/// Environment variable gating collection: truthy values (`1`, `true`, `on`, `yes`)
/// enable telemetry for the process.
pub const ENABLE_ENV: &str = "MP_TELEMETRY";

/// Tri-state gate: 0 = uninitialised (read the environment once), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is collecting.  One relaxed atomic load on the hot path.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var(ENABLE_ENV)
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            !v.is_empty() && v != "0" && v != "false" && v != "off" && v != "no"
        })
        .unwrap_or(false);
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Overrides the `MP_TELEMETRY` gate for this process (tests, benches).
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Clears every collected metric (tests, benches).
pub fn reset() {
    registry::reset();
}

/// Adds `delta` to a monotonic counter.  No-op when disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        registry::record_counter(name, delta);
    }
}

/// Records `value` into a log-linear histogram.
#[inline]
pub fn histogram(name: &'static str, value: u64) {
    if enabled() {
        registry::record_histogram(name, value);
    }
}

/// Labels the calling thread in the Chrome trace (`thread_name` metadata), e.g.
/// `worker-3` for executor workers.
pub fn set_thread_label(label: &str) {
    if enabled() {
        registry::record_thread_label(label);
    }
}

/// An RAII scoped span: measures wall time from construction to drop, records the
/// duration under `name` (count + histogram) and emits a Chrome-trace event.
///
/// When telemetry is disabled the guard is inert (no clock read, nothing recorded).
#[must_use = "a span measures until it is dropped; binding to _ drops immediately"]
pub struct Span {
    name: &'static str,
    start: Option<(Instant, u64)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, start_ns)) = self.start {
            let dur_ns = start.elapsed().as_nanos() as u64;
            registry::record_span(self.name, start_ns, dur_ns);
        }
    }
}

/// Starts a scoped span.  See [`Span`].
#[inline]
pub fn span(name: &'static str) -> Span {
    let start = if enabled() {
        // Capture both the monotonic instant (for the duration) and the epoch-relative
        // offset (for the trace timeline) at entry.
        Some((Instant::now(), registry::now_ns()))
    } else {
        None
    };
    Span { name, start }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The registry is process-global; tests that reset it must not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = serial();
        set_enabled(false);
        reset();
        counter("test.off", 5);
        histogram("test.off_hist", 1);
        drop(span("test.off_span"));
        let agg = snapshot();
        assert!(agg.counters.is_empty());
        assert!(agg.histograms.is_empty());
        assert!(agg.spans.is_empty());
    }

    #[test]
    fn enabled_aggregates_counters_spans_and_trace_events() {
        let _guard = serial();
        set_enabled(true);
        reset();
        counter("test.items", 2);
        counter("test.items", 3);
        {
            let _outer = span("test.outer");
            let _inner = span("test.inner");
        }
        let agg = snapshot();
        set_enabled(false);
        assert_eq!(agg.counters["test.items"], 5);
        assert_eq!(agg.spans["test.outer"].durations.count, 1);
        assert_eq!(agg.spans["test.inner"].durations.count, 1);
        assert_eq!(agg.trace.len(), 2, "one trace event per completed span");
        // Inner completes first (drop order), so it precedes outer in the buffer.
        assert_eq!(agg.trace[0].name, "test.inner");
        assert!(agg.trace[1].dur_ns >= agg.trace[0].dur_ns, "outer encloses inner");
    }

    #[test]
    fn snapshot_sees_the_records_of_running_threads() {
        let _guard = serial();
        set_enabled(true);
        reset();
        // The workers record, then wait at the barrier until the snapshot is taken:
        // their records must be visible while they are still alive.
        let recorded = std::sync::Barrier::new(4);
        let snapshotted = std::sync::Barrier::new(4);
        let agg = std::thread::scope(|scope| {
            for i in 0..3u64 {
                let (recorded, snapshotted) = (&recorded, &snapshotted);
                scope.spawn(move || {
                    counter("test.worker_work", i + 1);
                    set_thread_label(&format!("unit-worker-{i}"));
                    recorded.wait();
                    snapshotted.wait();
                });
            }
            recorded.wait();
            let agg = snapshot();
            snapshotted.wait();
            agg
        });
        set_enabled(false);
        assert_eq!(agg.counters["test.worker_work"], 6);
        let mut labels: Vec<&str> = agg.thread_labels.values().map(String::as_str).collect();
        labels.sort_unstable();
        assert_eq!(labels, ["unit-worker-0", "unit-worker-1", "unit-worker-2"]);
    }

    #[test]
    fn env_values_parse_truthy_and_falsy() {
        // Exercises the parsing logic only (the cached STATE is process-wide, so the
        // environment itself is not mutated here).
        let truthy = |v: &str| {
            let v = v.trim().to_ascii_lowercase();
            !v.is_empty() && v != "0" && v != "false" && v != "off" && v != "no"
        };
        assert!(truthy("1"));
        assert!(truthy("true"));
        assert!(truthy("ON"));
        assert!(!truthy("0"));
        assert!(!truthy("false"));
        assert!(!truthy(" off "));
        assert!(!truthy(""));
    }
}
