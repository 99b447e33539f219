//! Integration tests for deterministic fault injection ([`mp_runtime::faults`],
//! `MP_FAULTS`): injected store IO errors and torn writes never change results,
//! injected job panics fail only their own jobs (through both the session and the
//! stressmark search's quarantine convention), and injected executor delays reorder
//! scheduling without reordering results.
//!
//! The fault plan is process-global, so every test here takes a file-local serial
//! lock, installs its own plan, and restores the ambient (`MP_FAULTS`) plan on exit.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use microprobe::ir::MicroBenchmark;
use microprobe::platform::SimPlatform;
use microprobe::prelude::*;
use mp_runtime::{faults, ExperimentSession, FaultPlan, Store};
use mp_sim::Measurement;
use mp_stressmark::{expert_dse_sequences, StressmarkSearch};
use mp_uarch::{CmpSmtConfig, SmtMode};

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// Pins the fault plan for the guard's lifetime, restoring the ambient plan on drop.
struct PlanGuard {
    ambient: Option<FaultPlan>,
    _serial: MutexGuard<'static, ()>,
}

fn pin_faults(plan: Option<FaultPlan>) -> PlanGuard {
    let guard = serial();
    let ambient = faults::plan();
    faults::set_plan(plan);
    PlanGuard { ambient, _serial: guard }
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        faults::set_plan(self.ambient);
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        static NONCE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "mp-faults-it-{label}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("temp dir creates");
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fast_platform() -> SimPlatform {
    SimPlatform::power7_fast()
}

fn spec_digest() -> u128 {
    fast_platform().uarch().spec_digest
}

fn benchmark_pool() -> &'static Vec<MicroBenchmark> {
    static POOL: OnceLock<Vec<MicroBenchmark>> = OnceLock::new();
    POOL.get_or_init(|| {
        let arch = mp_uarch::power7();
        let computes = arch.isa.compute_instructions();
        (0..4u64)
            .map(|i| {
                let mut synth = Synthesizer::new(arch.clone())
                    .with_name_prefix(format!("flt{i}"))
                    .with_seed(0xFA17 << 4 | i);
                synth.add_pass(SkeletonPass::endless_loop(24));
                synth.add_pass(InstructionMixPass::uniform(computes.clone()));
                synth.synthesize().expect("pool benchmark synthesizes")
            })
            .collect()
    })
}

fn plan_jobs() -> Vec<(&'static MicroBenchmark, CmpSmtConfig)> {
    let configs = [CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(2, SmtMode::Smt2)];
    benchmark_pool().iter().flat_map(|b| configs.iter().map(move |&c| (b, c))).collect()
}

/// The fault-free reference every faulted run must match bit-for-bit.
fn reference_measurements() -> Vec<Measurement> {
    let session = ExperimentSession::new(fast_platform()).with_workers(1);
    session.measure_batch(&plan_jobs())
}

// ---------------------------------------------------------------------------
// Store faults: wrong results are never an outcome.
// ---------------------------------------------------------------------------

#[test]
fn injected_io_errors_degrade_the_store_but_never_the_results() {
    let reference = {
        let _off = pin_faults(None);
        reference_measurements()
    };
    let _faults = pin_faults(Some(FaultPlan {
        seed: 7,
        io_error: 1.0, // every store read and every write attempt fails
        ..FaultPlan::default()
    }));
    let dir = TempDir::new("io");
    let session = ExperimentSession::new(fast_platform())
        .with_workers(2)
        .with_store(Store::open(dir.path(), spec_digest()).expect("store opens"));
    assert_eq!(session.measure_batch(&plan_jobs()), reference);
    let store = session.store().expect("attached");
    assert!(store.is_degraded(), "exhausted write retries must degrade the store");
    assert_eq!(store.stats().hits, 0, "no read survives io=1.0");
    assert!(store.stats().retries > 0);
}

#[test]
fn injected_torn_writes_are_quarantined_on_resume_never_served() {
    let reference = {
        let _off = pin_faults(None);
        reference_measurements()
    };
    let dir = TempDir::new("torn");
    {
        let _faults = pin_faults(Some(FaultPlan {
            seed: 21,
            torn_write: 0.6, // most records reach the disk incomplete
            ..FaultPlan::default()
        }));
        let session = ExperimentSession::new(fast_platform())
            .with_workers(2)
            .with_store(Store::open(dir.path(), spec_digest()).expect("store opens"));
        assert_eq!(
            session.measure_batch(&plan_jobs()),
            reference,
            "torn writes never corrupt results"
        );
    }
    // Resume with faults off: torn records quarantine and recompute; intact ones hit.
    let _off = pin_faults(None);
    let session = ExperimentSession::new(fast_platform())
        .with_workers(2)
        .with_store(Store::open(dir.path(), spec_digest()).expect("store reopens"));
    assert_eq!(session.measure_batch(&plan_jobs()), reference, "resumed results identical");
    let stats = session.store().expect("attached").stats();
    assert!(stats.quarantined > 0, "seed 21 at torn=0.6 tears at least one record");
    assert_eq!(stats.hits + stats.quarantined, plan_jobs().len() as u64);
}

// ---------------------------------------------------------------------------
// Job panics: blast radius is exactly one job.
// ---------------------------------------------------------------------------

#[test]
fn injected_job_panics_are_contained_and_heal_on_retry() {
    let reference = {
        let _off = pin_faults(None);
        reference_measurements()
    };
    let _faults = pin_faults(Some(FaultPlan { seed: 5, job_panic: 0.4, ..FaultPlan::default() }));
    let session = ExperimentSession::new(fast_platform()).with_workers(4);
    let jobs = plan_jobs();
    let results = session.measure_batch_resilient(&jobs);
    let failed = results.iter().filter(|r| r.is_err()).count();
    assert!(failed > 0, "seed 5 at panic=0.4 fires over {} jobs", jobs.len());
    assert!(failed < jobs.len(), "and spares at least one");
    for (result, expected) in results.iter().zip(&reference) {
        match result {
            Ok(measurement) => assert_eq!(measurement, expected, "surviving jobs are exact"),
            Err(error) => {
                let message = error.to_string();
                assert!(message.contains("injected fault"), "attributed: {message}");
                assert!(message.contains("seed=5"), "reproducible: {message}");
            }
        }
    }
    // The pool survived the panics, survivors are cached, and each retry only re-runs
    // the still-failed jobs — so repeated retries drain the failure set.
    let mut last = session.measure_batch_resilient(&jobs);
    for _ in 0..16 {
        if last.iter().all(Result::is_ok) {
            break;
        }
        last = session.measure_batch_resilient(&jobs);
    }
    assert!(last.iter().all(Result::is_ok), "repeated retries eventually drain the plan");
    for (result, expected) in last.iter().zip(&reference) {
        assert_eq!(result.as_ref().expect("healed"), expected);
    }
}

#[test]
fn stressmark_search_quarantines_panicking_candidates_and_keeps_ranking() {
    let platform = fast_platform();
    let candidates = || {
        let mut all = expert_dse_sequences(platform.uarch());
        all.truncate(6);
        all
    };
    // Each search gets its own session: a shared one would answer the faulted run from
    // the clean run's memo and never reach the injected panics.
    let clean = {
        let _off = pin_faults(None);
        let session = ExperimentSession::new(&platform);
        let search = StressmarkSearch::with_session(&session).with_loop_instructions(48);
        search.exhaustive(candidates(), None)
    };
    assert_eq!(clean.failures, 0, "the fault-free run builds and measures everything");

    let _faults = pin_faults(Some(FaultPlan { seed: 11, job_panic: 0.25, ..FaultPlan::default() }));
    // Under injected panics the search must finish — failed candidates quarantine to
    // the −inf convention — and still produce a winner from the survivors.
    let session = ExperimentSession::new(&platform);
    let search = StressmarkSearch::with_session(&session).with_loop_instructions(48);
    let result = search.exhaustive(candidates(), None);
    assert_eq!(result.evaluations, clean.evaluations, "every candidate is still visited");
    assert!(result.failures > 0, "seed 11 at panic=0.25 quarantines at least one candidate");
    assert!(result.best_score.is_finite(), "a surviving candidate wins");
    assert!(!result.best.is_empty());
}

// ---------------------------------------------------------------------------
// Executor delays: scheduling noise, never result noise.
// ---------------------------------------------------------------------------

#[test]
fn injected_task_delays_reorder_scheduling_but_not_results() {
    let reference = {
        let _off = pin_faults(None);
        reference_measurements()
    };
    let _faults = pin_faults(Some(FaultPlan {
        seed: 3,
        task_delay: 0.5,
        delay_us: 200,
        ..FaultPlan::default()
    }));
    for workers in [1, 4, 8] {
        let session = ExperimentSession::new(fast_platform()).with_workers(workers);
        assert_eq!(
            session.measure_batch(&plan_jobs()),
            reference,
            "delays at {workers} workers must not change results"
        );
    }
}

// ---------------------------------------------------------------------------
// Plan parsing: the knob users actually type.
// ---------------------------------------------------------------------------

#[test]
fn fault_plans_parse_the_documented_spec_and_reject_typos() {
    let plan = FaultPlan::parse("seed=42,io=0.2,torn=0.1,panic=0.05,delay=0.25,delay_us=200")
        .expect("the EXPERIMENTS.md example parses");
    assert_eq!(plan.seed, 42);
    assert!((plan.io_error - 0.2).abs() < 1e-12);
    assert!((plan.torn_write - 0.1).abs() < 1e-12);
    assert!((plan.job_panic - 0.05).abs() < 1e-12);
    assert!((plan.task_delay - 0.25).abs() < 1e-12);
    assert_eq!(plan.delay_us, 200);
    assert!(FaultPlan::parse("seed=42,oi=0.2").is_err(), "unknown keys are errors, not no-ops");
}
