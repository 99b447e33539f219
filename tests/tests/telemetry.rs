//! The observability layer must be provably inert: enabling telemetry may not change
//! any simulated or measured result, only *describe* the run.  These tests flip the
//! gate in-process (`mp_telemetry::set_enabled`) and compare results bit-for-bit,
//! check that the summary and Chrome-trace exports actually carry the promised
//! executor/session metrics, and smoke-test the disabled call-site cost.
//!
//! The telemetry registry is process-global, so every test takes the `serial()` lock
//! and leaves the gate disabled and the registry clear on exit.

use std::sync::{Mutex, MutexGuard, OnceLock};

use microprobe::ir::MicroBenchmark;
use microprobe::platform::SimPlatform;
use microprobe::prelude::*;
use mp_power::SampleKind;
use mp_runtime::{ExperimentPlan, ExperimentSession};
use mp_sim::fixtures::{branchy, compute_bound, reference_kernels};
use mp_sim::{ChipSim, Measurement, SimOptions};
use mp_telemetry::registry::Aggregate;
use mp_uarch::{CmpSmtConfig, SmtMode};

/// Serializes the tests in this binary: the telemetry registry and gate are
/// process-global state.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Restores the disabled/clear state even when a test panics under the lock.
struct TelemetryOff;

impl Drop for TelemetryOff {
    fn drop(&mut self) {
        mp_telemetry::set_enabled(false);
        mp_telemetry::reset();
    }
}

fn fast_sim() -> ChipSim {
    ChipSim::new(mp_uarch::power7()).with_options(SimOptions {
        warmup_cycles: 300,
        measure_cycles: 900,
        sample_cycles: 150,
        noise_fraction: 0.002,
        prefetch_enabled: true,
        seed: 0x7e1e,
        uncore_mode: mp_sim::UncoreMode::Private,
    })
}

fn fast_platform() -> SimPlatform {
    SimPlatform::new(fast_sim())
}

/// A small fixed measurement plan with intentional repeats (exercises dedup + memo).
fn fixed_plan() -> ExperimentPlan {
    let arch = mp_uarch::power7();
    let computes = arch.isa.compute_instructions();
    let benches: Vec<MicroBenchmark> = (0..3u64)
        .map(|i| {
            let mut synth = Synthesizer::new(arch.clone())
                .with_name_prefix(format!("tel{i}"))
                .with_seed(0x7e1e << 4 | i);
            synth.add_pass(SkeletonPass::endless_loop(24));
            synth.add_pass(InstructionMixPass::uniform(computes.clone()));
            synth.synthesize().expect("plan benchmark synthesizes")
        })
        .collect();
    let configs = [CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(1, SmtMode::Smt4)];
    let mut plan = ExperimentPlan::new();
    for i in 0..8usize {
        let bench = &benches[i % benches.len()];
        let config = configs[i % configs.len()];
        plan.push(format!("job{i}"), bench.clone(), config, SampleKind::Random);
    }
    plan
}

fn sim_runs() -> Vec<Measurement> {
    let sim = fast_sim();
    let kernels = reference_kernels(&sim.uarch().isa);
    let configs = [CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(2, SmtMode::Smt2)];
    let mut out = Vec::new();
    for kernel in &kernels {
        for config in configs {
            out.push(sim.run(kernel, config));
        }
    }
    out
}

/// A counter's total, 0 when it was never recorded.
fn counter_total(agg: &Aggregate, name: &str) -> u64 {
    agg.counters.get(name).copied().unwrap_or(0)
}

/// A tiny recursive-descent JSON syntax checker — enough to prove the Chrome trace
/// export is well-formed without a JSON dependency.
fn json_value(s: &[u8], mut i: usize) -> Result<usize, String> {
    let skip_ws = |s: &[u8], mut i: usize| {
        while i < s.len() && (s[i] as char).is_ascii_whitespace() {
            i += 1;
        }
        i
    };
    i = skip_ws(s, i);
    let Some(&c) = s.get(i) else { return Err("unexpected end".into()) };
    match c {
        b'{' | b'[' => {
            let (close, is_obj) = if c == b'{' { (b'}', true) } else { (b']', false) };
            i = skip_ws(s, i + 1);
            if s.get(i) == Some(&close) {
                return Ok(i + 1);
            }
            loop {
                if is_obj {
                    i = json_value(s, i)?; // key (string, checked as a value)
                    i = skip_ws(s, i);
                    if s.get(i) != Some(&b':') {
                        return Err(format!("expected ':' at byte {i}"));
                    }
                    i += 1;
                }
                i = json_value(s, i)?;
                i = skip_ws(s, i);
                match s.get(i) {
                    Some(b',') => i = skip_ws(s, i + 1),
                    Some(&b) if b == close => return Ok(i + 1),
                    other => return Err(format!("expected ',' or close, got {other:?}")),
                }
            }
        }
        b'"' => {
            i += 1;
            while let Some(&b) = s.get(i) {
                match b {
                    b'"' => return Ok(i + 1),
                    b'\\' => i += 2,
                    _ => i += 1,
                }
            }
            Err("unterminated string".into())
        }
        b't' => s[i..].starts_with(b"true").then(|| i + 4).ok_or_else(|| "bad literal".into()),
        b'f' => s[i..].starts_with(b"false").then(|| i + 5).ok_or_else(|| "bad literal".into()),
        b'n' => s[i..].starts_with(b"null").then(|| i + 4).ok_or_else(|| "bad literal".into()),
        _ => {
            let start = i;
            while i < s.len() && matches!(s[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                i += 1;
            }
            if i == start {
                return Err(format!("unexpected byte {c:#x} at {i}"));
            }
            Ok(i)
        }
    }
}

fn assert_valid_json(text: &str) {
    let bytes = text.as_bytes();
    let end = json_value(bytes, 0).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{text}"));
    assert!(
        bytes[end..].iter().all(|b| (*b as char).is_ascii_whitespace()),
        "trailing garbage after JSON document"
    );
}

#[test]
fn enabling_telemetry_does_not_change_simulator_results() {
    let _lock = serial();
    let _restore = TelemetryOff;

    mp_telemetry::set_enabled(false);
    let off = sim_runs();
    mp_telemetry::reset();
    mp_telemetry::set_enabled(true);
    let on = sim_runs();
    assert!(off == on, "telemetry changed simulator measurements");

    // The simulator's work is an exact count, not a last-value rate gauge.
    let agg = mp_telemetry::snapshot();
    let thread_cycles: u64 = on.iter().map(|m| m.cycles() * u64::from(m.config().threads())).sum();
    assert_eq!(counter_total(&agg, "sim.thread_cycles"), thread_cycles);
}

#[test]
fn replicated_thread_cycles_count_the_cores_replayed_instead_of_simulated() {
    let _lock = serial();
    let _restore = TelemetryOff;
    mp_telemetry::set_enabled(true);
    let sim = fast_sim();
    let isa = &sim.uarch().isa;
    let config = CmpSmtConfig::new(4, SmtMode::Smt2);

    sim.run(&compute_bound(isa), config);
    let agg = mp_telemetry::snapshot();
    // (300 warm-up + 900 measured cycles) × 2 threads × 3 replayed cores.
    assert_eq!(counter_total(&agg, "sim.replicated_thread_cycles"), 7_200);
    assert_eq!(counter_total(&agg, "sim.thread_cycles"), 900 * 8);

    // Mispredicting cores draw distinct branch streams: every core is simulated.
    mp_telemetry::reset();
    sim.run(&branchy(isa), config);
    let agg = mp_telemetry::snapshot();
    assert_eq!(counter_total(&agg, "sim.replicated_thread_cycles"), 0);
    assert_eq!(counter_total(&agg, "sim.thread_cycles"), 900 * 8);
}

#[test]
fn replicated_thread_cycles_count_the_cores_shared_by_a_family() {
    let _lock = serial();
    let _restore = TelemetryOff;
    mp_telemetry::set_enabled(true);
    let sim = fast_sim();
    let configs = [1, 2, 4].map(|cores| CmpSmtConfig::new(cores, SmtMode::Smt2));

    // Mispredicting cores are distinct per index: 4 cores simulated for the 7 served.
    sim.run_family(&branchy(&sim.uarch().isa), &configs);
    let agg = mp_telemetry::snapshot();
    // (300 warm-up + 900 measured cycles) × 2 threads × 3 shared cores.
    assert_eq!(counter_total(&agg, "sim.replicated_thread_cycles"), 7_200);
    assert_eq!(counter_total(&agg, "sim.measurements"), 3);
    assert_eq!(counter_total(&agg, "sim.cycles"), 3 * 900);
    assert_eq!(counter_total(&agg, "sim.warmup_cycles"), 3 * 300);
    assert_eq!(counter_total(&agg, "sim.thread_cycles"), 900 * 2 * 7);
    assert_eq!(agg.spans["sim.warmup"].durations.count, 1, "one engine run");
    assert_eq!(agg.spans["sim.cycle_loop"].durations.count, 1, "one engine run");
}

#[test]
fn stepped_thread_cycles_count_only_the_cores_a_family_steps() {
    let _lock = serial();
    let _restore = TelemetryOff;
    mp_telemetry::set_enabled(true);
    let sim = fast_sim();
    let isa = &sim.uarch().isa;
    let configs: Vec<CmpSmtConfig> =
        (1..=8).map(|cores| CmpSmtConfig::new(cores, SmtMode::Smt2)).collect();
    // 36 cores served over the family, 900 measured cycles × 2 threads each.
    let served = 900 * 2 * 36;

    // An RNG-free core is stepped once, for all eight core indices.
    sim.run_family(&compute_bound(isa), &configs);
    let agg = mp_telemetry::snapshot();
    assert_eq!(counter_total(&agg, "sim.thread_cycles"), served);
    // (300 warm-up + 900 measured cycles) × 2 threads × 1 stepped core.
    assert_eq!(counter_total(&agg, "sim.stepped_thread_cycles"), 1_200 * 2);
    assert_eq!(counter_total(&agg, "sim.replicated_thread_cycles"), 1_200 * 2 * 35);

    // Mispredicting cores are stepped once per index: 8 cores for the 36 served.
    mp_telemetry::reset();
    sim.run_family(&branchy(isa), &configs);
    let agg = mp_telemetry::snapshot();
    assert_eq!(counter_total(&agg, "sim.thread_cycles"), served);
    assert_eq!(counter_total(&agg, "sim.stepped_thread_cycles"), 1_200 * 2 * 8);
    assert_eq!(counter_total(&agg, "sim.replicated_thread_cycles"), 1_200 * 2 * 28);
}

#[test]
fn enabling_telemetry_does_not_change_session_results_at_any_worker_count() {
    let _lock = serial();
    let _restore = TelemetryOff;
    let plan = fixed_plan();

    mp_telemetry::set_enabled(false);
    let reference = ExperimentSession::new(fast_platform()).with_workers(1).run(&plan);

    mp_telemetry::reset();
    mp_telemetry::set_enabled(true);
    for workers in [1usize, 8] {
        let session = ExperimentSession::new(fast_platform()).with_workers(workers);
        let samples = session.run(&plan);
        assert!(samples == reference, "telemetry-on session diverged at workers={workers}");
        // Resubmission answers from the memo cache; still identical, and counted.
        assert!(session.run(&plan) == reference, "memo replay diverged at workers={workers}");
    }
}

#[test]
fn summary_reports_executor_and_session_metrics() {
    let _lock = serial();
    let _restore = TelemetryOff;
    mp_telemetry::set_enabled(true);

    let plan = fixed_plan();
    let session = ExperimentSession::new(fast_platform()).with_workers(4);
    session.run(&plan);
    session.run(&plan); // all hits the second time

    let agg = mp_telemetry::snapshot();
    assert!(counter_total(&agg, "session.miss") > 0, "no session misses recorded");
    assert!(counter_total(&agg, "session.hit") > 0, "no session hits recorded");
    assert!(counter_total(&agg, "executor.jobs") > 0, "executor recorded no jobs");
    assert!(agg.spans.contains_key("session.measure_batch"), "batch span missing");
    assert!(agg.spans.contains_key("sim.cycle_loop"), "cycle-loop span missing");

    let summary = mp_telemetry::summary(&agg);
    assert!(summary.starts_with("# Telemetry"), "summary must open with '# Telemetry'");
    for line in summary.lines().filter(|l| !l.is_empty()) {
        assert!(line.starts_with('#'), "non-comment summary line: {line}");
    }
    for needle in ["executor.jobs", "session.hit", "session.miss", "sim.cycle_loop"] {
        assert!(summary.contains(needle), "summary missing {needle}:\n{summary}");
    }
}

#[test]
fn one_batch_records_exactly_one_session_keys_span() {
    let _lock = serial();
    let _restore = TelemetryOff;
    let plan = fixed_plan();
    let session = ExperimentSession::new(fast_platform()).with_workers(2);

    // Inert while telemetry is off...
    session.run(&plan);
    assert!(mp_telemetry::snapshot().spans.is_empty(), "disabled batch recorded spans");

    // ...and one span around the whole batch's keying once it is on, whether the batch
    // is all hits (this replay) or not.
    mp_telemetry::set_enabled(true);
    session.run(&plan);
    let agg = mp_telemetry::snapshot();
    let keys = agg.spans.get("session.keys").map_or(0, |span| span.durations.count);
    assert_eq!(keys, 1, "one session.keys span per measure_batch");
}

#[test]
fn executor_task_spans_count_exactly_the_parallel_items() {
    let _lock = serial();
    let _restore = TelemetryOff;
    mp_telemetry::set_enabled(true);

    let items: Vec<u64> = (0..32).collect();
    // A cheap hinted batch (32 × 50 ns ≪ the inline threshold) runs inline on the
    // caller and records no task spans...
    mp_runtime::par_map_with_workers_and_cost(
        8,
        mp_runtime::CostHint::per_item_ns(50),
        &items,
        |&x| x + 1,
    );
    let inline = mp_telemetry::snapshot();
    assert!(!inline.spans.contains_key("executor.task"), "an inline batch recorded task spans");
    assert_eq!(counter_total(&inline, "executor.inline_jobs"), 32);

    // ...while a 2-worker batch records one span per item, the spawned worker's share
    // included.  `executor.busy_s` in the end-to-end benchmark is the total of exactly
    // these spans.
    mp_runtime::par_map_with_workers(2, &items, |&x| x + 1);
    let agg = mp_telemetry::snapshot();
    let tasks = agg.spans.get("executor.task").map_or(0, |span| span.durations.count);
    assert_eq!(tasks, 32, "one executor.task span per parallel item");
    assert_eq!(counter_total(&agg, "executor.jobs"), 64);
}

#[test]
fn chrome_trace_export_is_well_formed() {
    let _lock = serial();
    let _restore = TelemetryOff;
    mp_telemetry::set_enabled(true);

    let session = ExperimentSession::new(fast_platform()).with_workers(2);
    session.run(&fixed_plan());

    let agg = mp_telemetry::snapshot();
    assert!(!agg.trace.is_empty(), "no trace events collected");
    let trace = mp_telemetry::chrome_trace_json(&agg);
    assert_valid_json(&trace);
    assert!(trace.contains("\"ph\":\"X\""), "no complete events in trace");
    assert!(trace.contains("thread_name"), "no thread_name metadata in trace");
    assert!(trace.contains("session.measure_batch"), "batch span absent from trace");
}

#[test]
fn disabled_telemetry_call_sites_are_cheap() {
    let _lock = serial();
    let _restore = TelemetryOff;
    mp_telemetry::set_enabled(false);

    const CALLS: u64 = 1_000_000;
    let start = std::time::Instant::now();
    for i in 0..CALLS {
        mp_telemetry::counter("smoke.counter", std::hint::black_box(i) & 1);
        let span = mp_telemetry::span("smoke.span");
        std::hint::black_box(&span);
    }
    let per_call_ns = start.elapsed().as_nanos() as f64 / (2 * CALLS) as f64;
    // A disabled call is one relaxed atomic load; 150ns/call is a generous smoke
    // bound that still catches an accidental lock or allocation on the fast path.
    assert!(
        per_call_ns < 150.0,
        "disabled telemetry call costs {per_call_ns:.1}ns — fast path regressed"
    );
    assert!(mp_telemetry::snapshot().counters.is_empty(), "disabled calls recorded data");
}
