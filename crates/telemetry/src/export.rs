//! Exports: human summary and Chrome trace-event JSON.
//!
//! Two views of one [`Aggregate`](crate::registry::Aggregate):
//!
//! * [`summary`] — the `# Telemetry` block every experiment binary prints to **stderr**
//!   (stderr so figure stdout stays byte-identical across worker counts while the
//!   telemetry — steal counts, wall times — legitimately varies);
//! * [`chrome_trace_json`] — the Chrome trace-event array format; load the file in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` to see the spans on a
//!   per-thread timeline.

use std::fmt::Write as _;
use std::io::Write as _;

use crate::registry::{Aggregate, Key};

/// Environment variable naming the Chrome-trace output file.
pub const TRACE_ENV: &str = "MP_TELEMETRY_TRACE";

/// Formats a nanosecond quantity for humans (`412ns`, `3.1us`, `2.4ms`, `1.7s`).
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// One metric name's `(index, value)` pairs, in key order (plain key first).
type Series<T> = Vec<(Option<u32>, T)>;

/// Groups indexed series under their base name.
fn grouped<'a, V, T>(
    entries: impl Iterator<Item = (&'a Key, &'a V)>,
    value: impl Fn(&V) -> T,
) -> std::collections::BTreeMap<&'static str, Series<T>>
where
    V: 'a,
{
    let mut out: std::collections::BTreeMap<&'static str, Series<T>> =
        std::collections::BTreeMap::new();
    for (key, v) in entries {
        out.entry(key.name).or_default().push((key.index, value(v)));
    }
    out
}

/// The multi-line `# Telemetry` summary block (every line `#`-prefixed, so it can share
/// a stream with figure output without breaking text-table consumers).
pub fn summary(agg: &Aggregate) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Telemetry — {} counters, {} gauges, {} spans, {} histograms",
        agg.counters.len(),
        agg.gauges.len(),
        agg.spans.len(),
        agg.histograms.len()
    );

    for (name, series) in grouped(agg.counters.iter(), |v: &u64| *v) {
        let total: u64 = series.iter().map(|(_, v)| v).sum();
        let _ = write!(out, "#   counter {name} = {total}");
        if series.len() > 1 || series.first().is_some_and(|(i, _)| i.is_some()) {
            let parts: Vec<String> =
                series.iter().filter_map(|(i, v)| i.map(|i| format!("w{i}={v}"))).collect();
            if !parts.is_empty() {
                let _ = write!(out, " ({})", parts.join(" "));
            }
        }
        let _ = writeln!(out);
    }

    for (key, gauge) in &agg.gauges {
        let _ = writeln!(
            out,
            "#   gauge {key} = {:.3} (min {:.3}, max {:.3}, {} sets)",
            gauge.last, gauge.min, gauge.max, gauge.count
        );
    }

    for (name, span) in &agg.spans {
        let d = &span.durations;
        let _ = writeln!(
            out,
            "#   span {name} — {} calls, {} total, mean {}, p50<={}, p90<={}, max {}",
            d.count,
            fmt_ns(d.sum),
            fmt_ns(d.mean() as u64),
            fmt_ns(d.quantile_upper_bound(0.5)),
            fmt_ns(d.quantile_upper_bound(0.9)),
            fmt_ns(d.max),
        );
    }

    for (key, hist) in &agg.histograms {
        let _ = writeln!(
            out,
            "#   hist {key} — n={}, mean {:.1}, p50<={}, p90<={}, min {}, max {}",
            hist.count,
            hist.mean(),
            hist.quantile_upper_bound(0.5),
            hist.quantile_upper_bound(0.9),
            if hist.count == 0 { 0 } else { hist.min },
            hist.max,
        );
    }

    if agg.dropped_trace_events > 0 {
        let _ = writeln!(
            out,
            "#   note: {} trace events dropped past the {} cap",
            agg.dropped_trace_events,
            crate::registry::MAX_TRACE_EVENTS
        );
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the Chrome trace-event JSON document (the array format Perfetto and
/// `chrome://tracing` both load).
///
/// Spans become complete (`"ph":"X"`) events with microsecond timestamps relative to
/// the process epoch; thread labels become `thread_name` metadata events so executor
/// workers show up as named lanes.
pub fn chrome_trace_json(agg: &Aggregate) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(&line);
    };

    for (tid, label) in &agg.thread_labels {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(label)
            ),
            &mut out,
        );
    }
    for event in &agg.trace {
        push(
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"cat\":\"mp\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                json_escape(event.name),
                event.tid,
                event.start_ns as f64 / 1e3,
                event.dur_ns as f64 / 1e3
            ),
            &mut out,
        );
    }
    out.push_str("\n]\n");
    out
}

/// End-of-process reporting for binaries: when telemetry is enabled, prints the
/// [`summary`] to stderr and writes the Chrome trace to the file named by
/// [`TRACE_ENV`].  A no-op when disabled, so every
/// binary can call it unconditionally.
pub fn report() {
    if !crate::enabled() {
        return;
    }
    let agg = crate::registry::snapshot();
    eprint!("{}", summary(&agg));
    if let Ok(path) = std::env::var(TRACE_ENV) {
        if !path.is_empty() {
            if let Err(err) = std::fs::write(&path, chrome_trace_json(&agg)) {
                eprintln!("# Telemetry: failed writing Chrome trace to {path}: {err}");
            }
        }
    }
    let _ = std::io::stderr().flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{GaugeStat, Histogram, SpanStat, TraceEvent};

    fn sample_aggregate() -> Aggregate {
        let mut agg = Aggregate::default();
        agg.counters.insert(Key { name: "session.hit", index: None }, 7);
        agg.counters.insert(Key { name: "executor.steal", index: Some(0) }, 2);
        agg.counters.insert(Key { name: "executor.steal", index: Some(1) }, 5);
        let mut g = GaugeStat { last: 3.0, max: 9.0, min: 1.0, count: 4 };
        g.last = 3.0;
        agg.gauges.insert(Key { name: "session.memo_entries", index: None }, g);
        let mut span = SpanStat::default();
        span.durations.record(1_500);
        span.durations.record(3_000);
        agg.spans.insert("sim.cycle_loop", span);
        let mut hist = Histogram::default();
        hist.record(64);
        agg.histograms.insert(Key { name: "executor.task_ns", index: None }, hist);
        agg.trace.push(TraceEvent {
            name: "sim.cycle_loop",
            start_ns: 2_000,
            dur_ns: 1_500,
            tid: 1,
        });
        agg.thread_labels.insert(1, "worker-0".to_owned());
        agg
    }

    #[test]
    fn summary_totals_indexed_counters_and_shows_the_breakdown() {
        let text = summary(&sample_aggregate());
        assert!(text.starts_with("# Telemetry — "), "{text}");
        assert!(text.contains("counter executor.steal = 7 (w0=2 w1=5)"), "{text}");
        assert!(text.contains("counter session.hit = 7"), "{text}");
        assert!(text.contains("span sim.cycle_loop — 2 calls"), "{text}");
        assert!(text.lines().all(|l| l.starts_with('#')), "all lines #-prefixed: {text}");
    }

    #[test]
    fn chrome_trace_is_an_array_of_events_with_thread_names() {
        let json = chrome_trace_json(&sample_aggregate());
        assert!(json.trim_start().starts_with('['), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"name\":\"worker-0\""), "{json}");
        assert!(json.contains("\"ts\":2.000"), "ns -> us: {json}");
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(3_100), "3.1us");
        assert_eq!(fmt_ns(2_400_000), "2.4ms");
        assert_eq!(fmt_ns(1_700_000_000), "1.70s");
    }
}
