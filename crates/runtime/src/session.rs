//! Layer 2: memoizing experiment sessions.
//!
//! An [`ExperimentSession`] wraps a [`Platform`] and executes declarative
//! [`ExperimentPlan`]s of `(benchmark, configuration)` measurement jobs.  Every job is
//! content-hashed (the kernel body, data profile, misprediction rate and configuration —
//! the benchmark *name* is deliberately excluded), duplicate jobs are measured once, and
//! the resulting [`Measurement`]s are memoized across plan submissions for the lifetime
//! of the session.  The figure drivers and the integration-test fixtures therefore stop
//! re-measuring the same pairs for every figure/model/test case.
//!
//! The cache has two tiers: the in-memory memo map (one mutex-guarded map that only
//! the submitting thread probes and fills), and — when `MP_STORE_DIR` is set
//! (or a [`Store`] is attached via [`SessionOptions`]/[`with_store`]) — the crash-safe
//! persistent [`store`](crate::store), so measurements survive restarts and are shared
//! across CI runs and figure binaries.  Lookup order is memory → disk → simulate.
//! Disk hits are *deliberately counted as unique runs* in [`SessionStats`]: the
//! `# Runtime` stdout line stays byte-identical between a cold and a warm store, and
//! all store-specific accounting goes to stderr/telemetry instead
//! ([`report_store`](ExperimentSession::report_store)).
//!
//! Unique jobs are measured on the work-stealing [`executor`](crate::executor); results
//! are handed back in plan order, so output is deterministic regardless of the worker
//! count (the simulator itself is deterministic per job).  A panicking job — real, or
//! injected via [`faults`](crate::faults) — fails only its own batch entry:
//! [`measure_batch_resilient`](ExperimentSession::measure_batch_resilient) returns
//! per-job `Result`s while the worker pool and both cache tiers keep serving.
//!
//! [`with_store`]: ExperimentSession::with_store

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use microprobe::bootstrap::{Bootstrap, BootstrapOptions, BootstrapRecord};
use microprobe::ir::MicroBenchmark;
use microprobe::platform::Platform;
use microprobe::synth::PassError;
use mp_power::{SampleKind, WorkloadSample};
use mp_sim::Measurement;
use mp_uarch::{CmpSmtConfig, InstrPropsTable};

use crate::store::{Store, STORE_DIR_ENV};
use crate::{executor, faults, poison};

/// A 128-bit content fingerprint of one measurement job.
///
/// Two jobs collide exactly when they would produce the same [`Measurement`]: the
/// simulator is a pure function of the backend (fingerprinted by the machine-spec
/// `digest`), the kernel *content* (loop body, data profile, misprediction rate) and
/// the configuration, so the benchmark name is excluded — renamed copies of the same
/// kernel dedupe onto one measurement, but the same kernel measured on two backends
/// occupies two cache entries.
fn job_key(benchmark: &MicroBenchmark, config: CmpSmtConfig, digest: u128) -> u128 {
    use std::fmt::Write as _;

    /// Feeds formatted output into two hashers without materialising a string (kernel
    /// bodies reach thousands of instructions, and keys are recomputed per submission —
    /// including pure cache-hit replays).
    struct DualHasher {
        lo: std::collections::hash_map::DefaultHasher,
        hi: std::collections::hash_map::DefaultHasher,
    }

    impl std::fmt::Write for DualHasher {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            s.hash(&mut self.lo);
            s.hash(&mut self.hi);
            Ok(())
        }
    }

    let kernel = benchmark.kernel();
    let mut hasher = DualHasher {
        lo: std::collections::hash_map::DefaultHasher::new(),
        hi: std::collections::hash_map::DefaultHasher::new(),
    };
    // Distinct per-half prefixes make the two 64-bit digests independent.
    0xA5u8.hash(&mut hasher.lo);
    0x5Au8.hash(&mut hasher.hi);
    digest.hash(&mut hasher.lo);
    digest.hash(&mut hasher.hi);
    // The kernel body has no stable binary serialisation; its `Debug` form is a faithful
    // content encoding (every operand, memory access and attribute).
    write!(
        hasher,
        "{:?}|{:?}|{}|{:?}",
        kernel.body(),
        kernel.data_profile(),
        kernel.mispredict_rate().to_bits(),
        config
    )
    .expect("hashing formatter never fails");
    (u128::from(hasher.hi.finish()) << 64) | u128::from(hasher.lo.finish())
}

/// One labelled measurement job of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    /// The workload name attached to the resulting sample.
    pub name: String,
    /// The benchmark to run.
    pub benchmark: MicroBenchmark,
    /// The CMP-SMT configuration to run it on.
    pub config: CmpSmtConfig,
    /// Training-set label of the resulting sample.
    pub kind: SampleKind,
}

/// A declarative batch of measurement jobs.
///
/// Plans are plain data: build one with [`push`](Self::push)/[`sweep`](Self::sweep) and
/// hand it to [`ExperimentSession::run`].  Job order is preserved in the results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentPlan {
    jobs: Vec<PlannedJob>,
}

impl ExperimentPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one job.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        benchmark: MicroBenchmark,
        config: CmpSmtConfig,
        kind: SampleKind,
    ) -> &mut Self {
        self.jobs.push(PlannedJob { name: name.into(), benchmark, config, kind });
        self
    }

    /// Appends one job per configuration for a single benchmark.
    pub fn sweep(
        &mut self,
        name: impl Into<String>,
        benchmark: &MicroBenchmark,
        configs: &[CmpSmtConfig],
        kind: SampleKind,
    ) -> &mut Self {
        let name = name.into();
        for config in configs {
            self.push(name.clone(), benchmark.clone(), *config, kind);
        }
        self
    }

    /// The queued jobs, in submission order.
    pub fn jobs(&self) -> &[PlannedJob] {
        &self.jobs
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Cumulative cache statistics of a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Jobs submitted across all plans (including repeats).
    pub submitted: usize,
    /// Jobs answered from the memo cache (or deduped within a plan).
    pub hits: usize,
    /// Jobs that required a platform run — or a persistent-store load: disk hits count
    /// here so the stdout summary is identical between a cold and a warm store (the
    /// crash-safety CI step `cmp`s exactly that).
    pub misses: usize,
}

impl SessionStats {
    /// The uniform `# Runtime` stats line every experiment binary prints.
    ///
    /// Deliberately scheduling-independent (submitted/unique/hit counts only, no wall
    /// times or worker counts) *and* store-independent (disk hits count as unique
    /// runs), so binary stdout stays byte-identical across `MP_THREADS` settings and
    /// across cold/warm `MP_STORE_DIR` runs; the variable telemetry goes to stderr via
    /// [`mp_telemetry::report`] and [`ExperimentSession::report_store`].
    pub fn summary_line(&self) -> String {
        format!(
            "# Runtime — {} measurement jobs submitted, {} unique runs, {} memoized hits",
            self.submitted, self.misses, self.hits
        )
    }

    /// [`summary_line`](Self::summary_line) tagged with a label, for binaries driving
    /// several sessions (e.g. one per backend).
    pub fn summary_line_for(&self, label: &str) -> String {
        format!(
            "# Runtime[{label}] — {} measurement jobs submitted, {} unique runs, {} memoized hits",
            self.submitted, self.misses, self.hits
        )
    }
}

/// How to construct an [`ExperimentSession`] beyond its platform: worker count and
/// persistent-store location.  [`from_env`](Self::from_env) (what
/// [`ExperimentSession::new`] uses) picks both up from `MP_THREADS`-family and
/// [`STORE_DIR_ENV`] variables; tests can set fields explicitly via
/// [`ExperimentSession::with_options`].
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Executor worker count override (`None` = [`executor::default_workers`]).
    pub workers: Option<usize>,
    /// Root of the persistent store (`None` = in-memory memoization only).
    pub store_dir: Option<PathBuf>,
}

impl SessionOptions {
    /// Options from the environment: default workers, and the persistent store at
    /// [`STORE_DIR_ENV`] when that variable is set and non-empty.
    pub fn from_env() -> Self {
        Self {
            workers: None,
            store_dir: std::env::var_os(STORE_DIR_ENV).filter(|v| !v.is_empty()).map(PathBuf::from),
        }
    }
}

/// One failed measurement job: the panic (real or
/// [fault-injected](crate::faults::maybe_panic)) that killed it, captured per job so
/// the rest of the batch still measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The job's content key (same key as the cache tiers use).
    pub key: u128,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "measurement job {:032x} panicked: {}", self.key, self.message)
    }
}

impl std::error::Error for JobError {}

/// Renders a caught panic payload (the two shapes `panic!` produces, plus a fallback).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A memoizing measurement session over a platform.
///
/// The session owns (or borrows, via the blanket `Platform for &P` impl) the platform
/// and a content-addressed cache of [`Measurement`]s.  All methods take `&self`; the
/// cache is internally synchronised, so a session can be shared across test threads
/// (e.g. behind a `OnceLock`).
pub struct ExperimentSession<P: Platform> {
    platform: P,
    workers: Option<usize>,
    store: Option<Store>,
    /// The memory tier, keyed by [`job_key`].  Executor tasks never touch it.
    cache: Mutex<HashMap<u128, Measurement>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Total measured wall time and count of platform runs, feeding the executor's
    /// [`CostHint`](executor::CostHint): the session *measures* what its jobs cost and
    /// schedules the next batch accordingly (inline when a batch is too small to pay
    /// for pool dispatch, chunked when jobs are tiny).
    job_ns: AtomicU64,
    job_runs: AtomicU64,
}

/// What one measurement job is assumed to cost before the session has measured any:
/// simulations are milliseconds-scale, so the first batch of a session parallelizes.
const DEFAULT_JOB_COST_NS: u64 = 1_000_000;

impl<P: Platform> ExperimentSession<P> {
    /// Creates a session over a platform configured from the environment: the default
    /// worker count ([`executor::default_workers`], i.e. `MP_THREADS` or the host
    /// parallelism), and the persistent store at `MP_STORE_DIR` when set.
    pub fn new(platform: P) -> Self {
        Self::with_options(platform, SessionOptions::from_env())
    }

    /// Creates a session with explicit [`SessionOptions`].  A store directory that
    /// fails to open is a stderr warning and an in-memory-only session — persistence
    /// trouble must never take an experiment down.
    pub fn with_options(platform: P, options: SessionOptions) -> Self {
        let digest = platform.uarch().spec_digest;
        let store = options.store_dir.and_then(|root| Store::open_lenient(root, digest));
        Self {
            platform,
            workers: options.workers.map(|w| w.max(1)),
            store,
            cache: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            job_ns: AtomicU64::new(0),
            job_runs: AtomicU64::new(0),
        }
    }

    /// Overrides the executor worker count for this session.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Attaches (or replaces) the persistent store tier.
    pub fn with_store(mut self, store: Store) -> Self {
        self.store = Some(store);
        self
    }

    /// The wrapped platform.
    pub fn platform(&self) -> &P {
        &self.platform
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Prints the store's stderr summary line, if a store is attached.  Experiment
    /// binaries call this next to [`mp_telemetry::report`]; stdout stays
    /// store-independent by construction.
    pub fn report_store(&self) {
        if let Some(store) = &self.store {
            eprintln!("{}", store.summary_line());
        }
    }

    /// The worker count measurements run on.
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(executor::default_workers)
    }

    /// The cache key one `(benchmark, configuration)` job files under.
    ///
    /// The key covers the kernel content, the configuration and the platform's
    /// machine-spec digest ([`MicroArchitecture::spec_digest`]) — so two sessions over
    /// different backends never share (or, if their caches were merged, collide on) a
    /// measurement, while renamed copies of one kernel on one backend still dedupe.
    ///
    /// [`MicroArchitecture::spec_digest`]: mp_uarch::MicroArchitecture
    pub fn job_key(&self, benchmark: &MicroBenchmark, config: CmpSmtConfig) -> u128 {
        job_key(benchmark, config, self.platform.uarch().spec_digest)
    }

    /// The measured average wall time of one platform run, in nanoseconds
    /// ([`DEFAULT_JOB_COST_NS`] until the session has measured anything).
    ///
    /// This is the session's *measured* per-job cost estimate; it only ever influences
    /// scheduling (inline-vs-parallel, chunk sizing), never results.
    pub fn avg_job_ns(&self) -> u64 {
        let runs = self.job_runs.load(Ordering::Relaxed);
        match self.job_ns.load(Ordering::Relaxed).checked_div(runs) {
            None => DEFAULT_JOB_COST_NS,
            Some(avg) => avg.max(1),
        }
    }

    /// The cost hint the next batch is scheduled with.
    fn cost_hint(&self) -> executor::CostHint {
        executor::CostHint::per_item_ns(self.avg_job_ns())
    }

    /// Cumulative cache statistics.
    pub fn stats(&self) -> SessionStats {
        let hits = self.hits.load(Ordering::SeqCst);
        let misses = self.misses.load(Ordering::SeqCst);
        SessionStats { submitted: hits + misses, hits, misses }
    }

    /// Measures one benchmark/configuration pair, memoized.
    pub fn measure(&self, benchmark: &MicroBenchmark, config: CmpSmtConfig) -> Measurement {
        self.measure_batch(&[(benchmark, config)]).pop().expect("one job in, one result out")
    }

    /// Measures a batch of `(benchmark, configuration)` jobs and returns the
    /// measurements in job order.  Repeats (within the batch or against the session
    /// cache) are measured once; cache misses run in parallel on the executor.
    ///
    /// # Panics
    ///
    /// Re-raises the first per-job panic (after the whole batch has settled and every
    /// successful result is cached) — callers that must survive individual job
    /// failures use [`measure_batch_resilient`](Self::measure_batch_resilient).
    pub fn measure_batch(&self, jobs: &[(&MicroBenchmark, CmpSmtConfig)]) -> Vec<Measurement> {
        self.measure_batch_resilient(jobs)
            .into_iter()
            .map(|result| result.unwrap_or_else(|error| panic!("{error}")))
            .collect()
    }

    /// [`measure_batch`](Self::measure_batch) with per-job failure isolation: each
    /// result is `Ok(measurement)` or `Err` carrying the panic that killed *that job
    /// alone*.  Failed jobs are never cached (memory or disk) — a later submission
    /// retries them — and the worker pool, lease/latch handshake and memo cache all
    /// stay poison-free, so one bad kernel (or one injected fault) can never wedge
    /// later batches.
    pub fn measure_batch_resilient(
        &self,
        jobs: &[(&MicroBenchmark, CmpSmtConfig)],
    ) -> Vec<Result<Measurement, JobError>> {
        let _batch_span = mp_telemetry::span("session.measure_batch");
        let digest = self.platform.uarch().spec_digest;
        let keys: Vec<u128> = jobs.iter().map(|(b, c)| job_key(b, *c, digest)).collect();

        // Tier 1 — memory, probed under one lock acquisition.  Unique misses collect in
        // first-appearance order (deterministic).  Disk probes and platform runs both
        // count as session "misses" so the stdout stats line is store-independent.
        let telemetry = mp_telemetry::enabled();
        let mut memo_hits = 0u64;
        let mut dedup_hits = 0u64;
        let mut settled: Vec<Option<Result<Measurement, JobError>>> = vec![None; jobs.len()];
        let mut to_probe: Vec<(u128, usize)> = Vec::new();
        {
            let cache = poison::lock(&self.cache);
            let mut queued: HashSet<u128> = HashSet::new();
            for (index, key) in keys.iter().enumerate() {
                if queued.contains(key) {
                    self.hits.fetch_add(1, Ordering::SeqCst);
                    dedup_hits += 1;
                } else if let Some(measurement) = cache.get(key) {
                    self.hits.fetch_add(1, Ordering::SeqCst);
                    memo_hits += 1;
                    settled[index] = Some(Ok(measurement.clone()));
                } else {
                    queued.insert(*key);
                    self.misses.fetch_add(1, Ordering::SeqCst);
                    to_probe.push((*key, index));
                }
            }
        }
        if telemetry {
            // Register all three keys every batch so summaries always carry them.
            mp_telemetry::counter("session.hit", memo_hits);
            mp_telemetry::counter("session.dedup", dedup_hits);
            mp_telemetry::counter("session.miss", to_probe.len() as u64);
        }

        // Tier 2 — disk.  Probed serially in first-appearance order: loads are small
        // reads, and a fixed probe order keeps the fault-injection occurrence indices
        // (and therefore a replayed failure) independent of `MP_THREADS`.
        let mut to_measure: Vec<(u128, usize)> = Vec::new();
        if let Some(store) = &self.store {
            for (key, index) in to_probe {
                match store.load(key) {
                    Some(measurement) => {
                        poison::lock(&self.cache).insert(key, measurement.clone());
                        settled[index] = Some(Ok(measurement));
                    }
                    None => to_measure.push((key, index)),
                }
            }
        } else {
            to_measure = to_probe;
        }

        // Tier 3 — simulate.  Failures stay per-job and are never cached.
        let mut failures: HashMap<u128, JobError> = HashMap::new();
        if !to_measure.is_empty() {
            let measured = self.simulate_batch(jobs, &to_measure);
            {
                let mut cache = poison::lock(&self.cache);
                for (&(key, index), result) in to_measure.iter().zip(&measured) {
                    match result {
                        Ok(measurement) => {
                            cache.insert(key, measurement.clone());
                            settled[index] = Some(Ok(measurement.clone()));
                        }
                        Err(error) => {
                            failures.insert(key, error.clone());
                            settled[index] = Some(Err(error.clone()));
                        }
                    }
                }
                if telemetry {
                    mp_telemetry::gauge("session.memo_entries", cache.len() as f64);
                }
            }
            // Persist new measurements serially in first-appearance order
            // (deterministic fault occurrences, see above).
            if let Some(store) = &self.store {
                for ((key, _), result) in to_measure.iter().zip(&measured) {
                    if let Ok(measurement) = result {
                        store.save(*key, measurement);
                    }
                }
            }
        }

        // Only in-batch duplicates are still unsettled: resolve them by key against
        // whatever their first appearance produced.
        let cache = poison::lock(&self.cache);
        keys.iter()
            .zip(settled)
            .map(|(key, slot)| match slot {
                Some(result) => result,
                None => match cache.get(key) {
                    Some(measurement) => Ok(measurement.clone()),
                    None => Err(failures
                        .get(key)
                        .expect("every job was measured, cached, or recorded as failed")
                        .clone()),
                },
            })
            .collect()
    }

    /// Tier 3: simulates the cache-missing jobs on the executor.
    /// Panics are caught *inside* the parallel closure, so a failing job surfaces as a
    /// per-job `Err` while the executor never observes an unwinding task and the pool
    /// survives intact.
    fn simulate_batch(
        &self,
        jobs: &[(&MicroBenchmark, CmpSmtConfig)],
        to_measure: &[(u128, usize)],
    ) -> Vec<Result<Measurement, JobError>> {
        executor::par_map_with_workers_and_cost(
            self.workers(),
            self.cost_hint(),
            to_measure,
            |&(key, index)| {
                let (benchmark, config) = jobs[index];
                // Per-job wall time is always measured (two clock reads against a
                // simulation run): it feeds the cost hint that decides whether the
                // *next* batch is worth farming out at all, and at what chunk size.
                let start = std::time::Instant::now();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    faults::maybe_panic("session.job");
                    self.platform.run(benchmark, config)
                }));
                match outcome {
                    Ok(measurement) => {
                        let wall_ns = start.elapsed().as_nanos() as u64;
                        self.job_ns.fetch_add(wall_ns, Ordering::Relaxed);
                        self.job_runs.fetch_add(1, Ordering::Relaxed);
                        if mp_telemetry::enabled() {
                            mp_telemetry::histogram("session.job_wall_ns", wall_ns);
                            mp_telemetry::histogram("session.job_sim_cycles", measurement.cycles());
                        }
                        Ok(measurement)
                    }
                    Err(payload) => {
                        mp_telemetry::counter("session.job_failed", 1);
                        Err(JobError { key, message: panic_message(payload.as_ref()) })
                    }
                }
            },
        )
    }

    /// Runs a plan and returns one labelled sample per job, in plan order.
    pub fn run(&self, plan: &ExperimentPlan) -> Vec<(WorkloadSample, SampleKind)> {
        let jobs: Vec<(&MicroBenchmark, CmpSmtConfig)> =
            plan.jobs().iter().map(|job| (&job.benchmark, job.config)).collect();
        let measurements = self.measure_batch(&jobs);
        plan.jobs()
            .iter()
            .zip(&measurements)
            .map(|(job, measurement)| {
                (WorkloadSample::from_measurement(&job.name, measurement), job.kind)
            })
            .collect()
    }

    /// Runs the per-instruction bootstrap through the session: generation is
    /// declarative ([`Bootstrap::jobs`]), the characterisation loops are measured in
    /// parallel with memoization, and the records are assembled in job order
    /// ([`Bootstrap::assemble`]) — output is identical to the serial
    /// [`Bootstrap::run`].
    ///
    /// # Errors
    ///
    /// Returns the first benchmark generation failure.
    pub fn bootstrap(
        &self,
        options: BootstrapOptions,
    ) -> Result<(InstrPropsTable, Vec<BootstrapRecord>), PassError> {
        let _span = mp_telemetry::span("session.bootstrap");
        let driver = Bootstrap::new(&self.platform).with_options(options);
        let jobs = driver.jobs()?;
        let flat: Vec<(&MicroBenchmark, CmpSmtConfig)> = jobs
            .iter()
            .flat_map(|job| [(&job.chained, job.config), (&job.independent, job.config)])
            .collect();
        let mut measured = self.measure_batch(&flat).into_iter();
        let pairs: Vec<(Measurement, Measurement)> = jobs
            .iter()
            .map(|_| {
                (
                    measured.next().expect("two measurements per job"),
                    measured.next().expect("two measurements per job"),
                )
            })
            .collect();
        Ok(driver.assemble(&jobs, &pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microprobe::platform::SimPlatform;
    use microprobe::prelude::*;
    use mp_uarch::SmtMode;

    fn tiny_benchmark(name: &str, seed: u64) -> MicroBenchmark {
        let arch = mp_uarch::power7();
        let computes = arch.isa.compute_instructions();
        let mut synth = Synthesizer::new(arch).with_name_prefix(name).with_seed(seed);
        synth.add_pass(SkeletonPass::endless_loop(24));
        synth.add_pass(InstructionMixPass::uniform(computes));
        synth.synthesize().expect("tiny benchmark synthesizes")
    }

    #[test]
    fn repeats_are_measured_once_and_relabelled() {
        let session = ExperimentSession::new(SimPlatform::power7_fast()).with_workers(2);
        let bench = tiny_benchmark("t", 1);
        let config = CmpSmtConfig::new(1, SmtMode::Smt1);

        let mut plan = ExperimentPlan::new();
        plan.push("first", bench.clone(), config, SampleKind::MicroArch);
        plan.push("again", bench.clone(), config, SampleKind::Random);
        let samples = session.run(&plan);

        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].0.name, "first");
        assert_eq!(samples[1].0.name, "again");
        assert_eq!(samples[0].0.power, samples[1].0.power, "same content, same measurement");
        assert_eq!(samples[1].1, SampleKind::Random, "labels follow the plan, not the cache");
        let stats = session.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);

        // A second submission of the same plan is answered entirely from the cache.
        let replay = session.run(&plan);
        assert_eq!(replay, samples);
        assert_eq!(session.stats().misses, 1);
        assert_eq!(session.stats().hits, 3);
    }

    #[test]
    fn renamed_copies_of_the_same_kernel_dedupe() {
        let session = ExperimentSession::new(SimPlatform::power7_fast());
        let a = tiny_benchmark("alpha", 7);
        // Same seed + passes => identical kernel content; only the name differs.
        let renamed = tiny_benchmark("beta", 7);
        assert_ne!(a.name(), renamed.name());
        let config = CmpSmtConfig::new(2, SmtMode::Smt2);
        assert_eq!(session.job_key(&a, config), session.job_key(&renamed, config));
        assert_ne!(
            session.job_key(&a, config),
            session.job_key(&a, CmpSmtConfig::new(2, SmtMode::Smt4)),
            "the configuration is part of the content"
        );
        assert_ne!(
            session.job_key(&a, config),
            session.job_key(&tiny_benchmark("alpha", 8), config),
            "different kernel bodies do not collide"
        );
    }

    #[test]
    fn the_backend_is_part_of_the_job_key() {
        let p7 = ExperimentSession::new(SimPlatform::power7_fast());
        let p8 = ExperimentSession::new(SimPlatform::new(
            mp_sim::ChipSim::new(mp_uarch::power8()).with_options(mp_sim::SimOptions::fast()),
        ));
        let bench = tiny_benchmark("portable", 3);
        let config = CmpSmtConfig::new(1, SmtMode::Smt1);

        assert_ne!(
            p7.job_key(&bench, config),
            p8.job_key(&bench, config),
            "the same kernel on two backends files under two cache entries"
        );

        // And the kernel-level fingerprint is backend-scoped the same way.
        let kernel = bench.kernel();
        assert_ne!(
            kernel.content_hash_with(p7.platform().uarch().spec_digest),
            kernel.content_hash_with(p8.platform().uarch().spec_digest),
        );

        // Each session measures the kernel on its own machine: one miss per backend,
        // and the measurements genuinely differ.
        let m7 = p7.measure(&bench, config);
        let m8 = p8.measure(&bench, config);
        assert_eq!(p7.stats().misses, 1);
        assert_eq!(p8.stats().misses, 1);
        assert_ne!(m7.average_power(), m8.average_power());
    }

    #[test]
    fn plan_results_are_in_plan_order_for_any_worker_count() {
        let platform = SimPlatform::power7_fast();
        let benches: Vec<MicroBenchmark> =
            (0..4).map(|i| tiny_benchmark(&format!("b{i}"), i)).collect();
        let configs = [CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(2, SmtMode::Smt2)];

        let mut plan = ExperimentPlan::new();
        for (i, bench) in benches.iter().enumerate() {
            plan.sweep(format!("b{i}"), bench, &configs, SampleKind::Random);
        }

        let reference: Vec<(WorkloadSample, SampleKind)> = plan
            .jobs()
            .iter()
            .map(|job| {
                let m = platform.run(&job.benchmark, job.config);
                (WorkloadSample::from_measurement(&job.name, &m), job.kind)
            })
            .collect();

        for workers in [1usize, 3, 8] {
            let session = ExperimentSession::new(SimPlatform::power7_fast()).with_workers(workers);
            assert_eq!(session.run(&plan), reference, "workers={workers}");
        }
    }

    #[test]
    fn session_bootstrap_matches_the_serial_driver() {
        let platform = SimPlatform::power7_fast();
        let options = BootstrapOptions {
            loop_instructions: 48,
            config: CmpSmtConfig::new(1, SmtMode::Smt1),
            include: Some(vec!["add".to_owned(), "mulld".to_owned(), "lbz".to_owned()]),
        };
        let (serial_table, serial_records) = Bootstrap::new(&platform)
            .with_options(options.clone())
            .run()
            .expect("serial bootstrap succeeds");

        let session = ExperimentSession::new(&platform).with_workers(4);
        let (table, records) = session.bootstrap(options).expect("session bootstrap succeeds");
        assert_eq!(records, serial_records);
        for record in &records {
            let a = table.get(&record.mnemonic).expect("bootstrapped");
            let b = serial_table.get(&record.mnemonic).expect("bootstrapped");
            assert_eq!(a.epi, b.epi);
            assert_eq!(a.measured_ipc, b.measured_ipc);
            assert_eq!(a.measured_latency, b.measured_latency);
        }
    }

    #[test]
    fn an_injected_job_panic_fails_only_its_own_entry() {
        let _guard = crate::faults::tests::serial();
        let ambient = faults::plan();
        let session = ExperimentSession::new(SimPlatform::power7_fast()).with_workers(4);
        let benches: Vec<MicroBenchmark> =
            (0..6).map(|i| tiny_benchmark(&format!("p{i}"), 100 + i)).collect();
        let config = CmpSmtConfig::new(1, SmtMode::Smt1);
        let jobs: Vec<(&MicroBenchmark, CmpSmtConfig)> =
            benches.iter().map(|b| (b, config)).collect();

        // ~half the jobs panic, reproducibly.
        faults::set_plan(Some(faults::FaultPlan {
            seed: 12,
            job_panic: 0.5,
            ..faults::FaultPlan::default()
        }));
        let results = session.measure_batch_resilient(&jobs);
        faults::set_plan(ambient);

        assert_eq!(results.len(), jobs.len());
        let failed: Vec<usize> =
            results.iter().enumerate().filter(|(_, r)| r.is_err()).map(|(i, _)| i).collect();
        assert!(!failed.is_empty(), "seed 12 at rate 0.5 injects at least one panic over 6 jobs");
        assert!(failed.len() < jobs.len(), "and at least one job survives");
        for index in &failed {
            let error = results[*index].as_ref().expect_err("failed job");
            assert!(error.message.contains("injected fault"), "{error}");
            assert!(error.message.contains("seed=12"), "panics carry their replay seed: {error}");
        }

        // The session (cache, stats, pool) survives: resubmitting with injection off
        // measures the failed jobs fresh and hits the cache for the survivors.
        let healed = session.measure_batch_resilient(&jobs);
        assert!(healed.iter().all(Result::is_ok), "every job heals on retry");
        let stats = session.stats();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.hits, jobs.len() - failed.len(), "survivors were cached");

        // And measure_batch (the panicking wrapper) still works afterwards.
        let direct = session.measure_batch(&jobs);
        assert_eq!(direct.len(), jobs.len());
    }

    #[test]
    fn a_store_backed_session_answers_a_fresh_session_from_disk() {
        let dir = crate::store::tests::TempDir::new("session-tier");
        let bench = tiny_benchmark("persist", 5);
        let config = CmpSmtConfig::new(2, SmtMode::Smt2);

        let first = ExperimentSession::new(SimPlatform::power7_fast())
            .with_workers(2)
            .with_store(Store::open(dir.path(), digest_of()).expect("store opens"));
        let original = first.measure(&bench, config);
        assert_eq!(first.stats().misses, 1);
        assert_eq!(first.store().expect("attached").stats().writes, 1);
        let cold_line = first.stats().summary_line();
        drop(first);

        // A brand-new session (fresh memory tier) over the same store answers from
        // disk: no platform run, yet stats still call it a "unique run" so the stdout
        // summary is identical to the cold run's.
        let second = ExperimentSession::new(SimPlatform::power7_fast())
            .with_workers(2)
            .with_store(Store::open(dir.path(), digest_of()).expect("store reopens"));
        let replayed = second.measure(&bench, config);
        assert_eq!(replayed, original, "disk round-trip is the identity");
        let stats = second.stats();
        assert_eq!((stats.misses, stats.hits), (1, 0), "disk hits count as unique runs");
        let store_stats = second.store().expect("attached").stats();
        assert_eq!((store_stats.hits, store_stats.misses), (1, 0), "served purely from disk");
        assert_eq!(
            stats.summary_line(),
            cold_line,
            "cold and warm runs print the identical stdout stats line"
        );
    }

    fn digest_of() -> u128 {
        SimPlatform::power7_fast().uarch().spec_digest
    }

    /// A platform that counts its simulator runs.
    struct CountingPlatform {
        inner: SimPlatform,
        runs: AtomicUsize,
    }

    impl Platform for CountingPlatform {
        fn uarch(&self) -> &mp_uarch::MicroArchitecture {
            self.inner.uarch()
        }

        fn run(&self, bench: &MicroBenchmark, config: CmpSmtConfig) -> Measurement {
            self.runs.fetch_add(1, Ordering::SeqCst);
            self.inner.run(bench, config)
        }

        fn run_heterogeneous(
            &self,
            benches: &[MicroBenchmark],
            config: CmpSmtConfig,
        ) -> Measurement {
            self.runs.fetch_add(1, Ordering::SeqCst);
            self.inner.run_heterogeneous(benches, config)
        }

        fn idle_power(&self) -> f64 {
            self.inner.idle_power()
        }
    }

    #[test]
    fn concurrent_submitters_share_one_memo() {
        let _guard = crate::faults::tests::serial();
        let ambient = faults::plan();
        faults::set_plan(None);

        let benches: Vec<MicroBenchmark> =
            (0..4).map(|i| tiny_benchmark(&format!("c{i}"), 200 + i)).collect();
        let configs = [CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(2, SmtMode::Smt2)];
        let jobs: Vec<(&MicroBenchmark, CmpSmtConfig)> =
            benches.iter().flat_map(|b| configs.iter().map(move |&c| (b, c))).collect();
        let serial =
            ExperimentSession::with_options(SimPlatform::power7_fast(), SessionOptions::default());
        let expected = serial.measure_batch(&jobs);

        let platform =
            CountingPlatform { inner: SimPlatform::power7_fast(), runs: AtomicUsize::new(0) };
        let session = ExperimentSession::with_options(&platform, SessionOptions::default());
        std::thread::scope(|scope| {
            let submitters: Vec<_> =
                (0..4).map(|_| scope.spawn(|| session.measure_batch(&jobs))).collect();
            for submitter in submitters {
                assert_eq!(submitter.join().expect("submitter completes"), expected);
            }
        });
        // No cross-call in-flight dedup: concurrent misses may each simulate, so only
        // the accounting is exact.
        let stats = session.stats();
        assert_eq!(stats.submitted, 4 * jobs.len());
        assert_eq!(stats.hits + stats.misses, stats.submitted);

        // Everything is memoized now: a fifth replay is all hits and runs nothing.
        let runs = platform.runs.load(Ordering::SeqCst);
        assert_eq!(session.measure_batch(&jobs), expected);
        assert_eq!(session.stats().hits, stats.hits + jobs.len());
        assert_eq!(platform.runs.load(Ordering::SeqCst), runs);
        faults::set_plan(ambient);
    }
}
