//! Layer 2: memoizing experiment sessions.
//!
//! An [`ExperimentSession`] wraps a [`Platform`] and executes declarative
//! [`ExperimentPlan`]s of `(benchmark, configuration)` measurement jobs.  Every job is
//! keyed by a stable hash of an explicit binary encoding of its content (the machine-spec
//! digest, the kernel body, data profile, misprediction rate and configuration — the
//! benchmark *name* is deliberately excluded), duplicate jobs are measured once, and
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
//! Unique jobs are measured in parallel on the [`executor`](crate::executor); results
//! are handed back in plan order, so output is deterministic regardless of the worker
//! count (the simulator itself is deterministic per job).  A panicking job — real, or
//! injected via [`faults`](crate::faults) — fails only its own batch entry:
//! [`measure_batch_resilient`](ExperimentSession::measure_batch_resilient) returns
//! per-job `Result`s while both cache tiers keep serving.
//!
//! [`with_store`]: ExperimentSession::with_store

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use microprobe::bootstrap::{Bootstrap, BootstrapOptions, BootstrapRecord};
use microprobe::ir::MicroBenchmark;
use microprobe::platform::Platform;
use microprobe::synth::PassError;
use mp_isa::spec::{fnv1a_128, FNV1A_128_OFFSET};
use mp_power::{SampleKind, WorkloadSample};
use mp_sim::{Kernel, Measurement};
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
///
/// The key is FNV-1a-128 over one byte stream: the digest (`u128`), the kernel's
/// [`encode_content`](mp_sim::Kernel::encode_content) bytes, then `cores` and the SMT
/// threads per core (`u32` each), integers little-endian.  Both the encoding and the
/// hash are fixed, so keys are stable across processes and toolchains.
fn job_key(kernel: &Kernel, config: CmpSmtConfig, digest: u128) -> u128 {
    config_key(content_hash(kernel, digest, &mut Vec::new()), config)
}

/// The FNV-1a-128 state after the digest and the kernel's content: the prefix every
/// job key of this kernel shares.  `buffer` is scratch space for the encoding.
fn content_hash(kernel: &Kernel, digest: u128, buffer: &mut Vec<u8>) -> u128 {
    buffer.clear();
    buffer.extend_from_slice(&digest.to_le_bytes());
    kernel.encode_content(buffer);
    fnv1a_128(FNV1A_128_OFFSET, buffer)
}

/// Continues a [`content_hash`] with the configuration: the job key.
fn config_key(content: u128, config: CmpSmtConfig) -> u128 {
    let hash = fnv1a_128(content, &config.cores.to_le_bytes());
    fnv1a_128(hash, &config.smt.threads_per_core().to_le_bytes())
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
/// [fault-injected](crate::faults::injected_panic)) that killed it, captured per job so
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
}

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
    /// It hashes a fixed binary encoding with FNV-1a-128, so the same job gets the
    /// same key in every process — what lets the persistent store answer a later run.
    ///
    /// [`MicroArchitecture::spec_digest`]: mp_uarch::MicroArchitecture
    pub fn job_key(&self, benchmark: &MicroBenchmark, config: CmpSmtConfig) -> u128 {
        job_key(benchmark.kernel(), config, self.platform.uarch().spec_digest)
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
    /// retries them — and the memo cache stays poison-free, so one bad kernel (or one
    /// injected fault) can never wedge later batches.
    pub fn measure_batch_resilient(
        &self,
        jobs: &[(&MicroBenchmark, CmpSmtConfig)],
    ) -> Vec<Result<Measurement, JobError>> {
        let _batch_span = mp_telemetry::span("session.measure_batch");
        let digest = self.platform.uarch().spec_digest;
        let (contents, keys): (Vec<u128>, Vec<u128>) = {
            let _keys_span = mp_telemetry::span("session.keys");
            let mut buffer = Vec::new();
            // Sweep jobs share one kernel and sit next to each other: hash each run of
            // jobs on the same kernel once.
            let mut previous: Option<(&Kernel, u128)> = None;
            jobs.iter()
                .map(|(b, c)| {
                    let kernel = b.kernel();
                    let content = match previous {
                        Some((k, content)) if std::ptr::eq(k, kernel) => content,
                        _ => content_hash(kernel, digest, &mut buffer),
                    };
                    previous = Some((kernel, content));
                    (content, config_key(content, *c))
                })
                .unzip()
        };

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
            let measured = self.simulate_batch(jobs, &contents, &to_measure);
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

    /// Tier 3: simulates the cache-missing jobs on the executor, one item per family:
    /// the jobs of one kernel content and SMT mode, in first-appearance order, measured
    /// by one [`Platform::run_family`] call.
    ///
    /// Injected panics are drawn here, one per job in `to_measure` order, so which jobs
    /// fail depends on the fault plan alone, not on which worker claims which family.
    /// Each drawn panic is raised inside its own job's unwind guard and fails that job
    /// alone; the rest of its family is still measured.  A real panic inside the family
    /// run fails each of the family's jobs with its message.  Either way the executor
    /// never observes an unwinding task, so the rest of the batch still runs.
    fn simulate_batch(
        &self,
        jobs: &[(&MicroBenchmark, CmpSmtConfig)],
        contents: &[u128],
        to_measure: &[(u128, usize)],
    ) -> Vec<Result<Measurement, JobError>> {
        let mut families: Vec<Vec<usize>> = Vec::new();
        let mut family_of: HashMap<(u128, u32), usize> = HashMap::new();
        for (position, &(_, index)) in to_measure.iter().enumerate() {
            let family = (contents[index], jobs[index].1.smt.threads_per_core());
            let slot = *family_of.entry(family).or_insert_with(|| {
                families.push(Vec::new());
                families.len() - 1
            });
            families[slot].push(position);
        }
        let injected: Vec<Option<String>> =
            to_measure.iter().map(|_| faults::injected_panic("session.job")).collect();

        let measured = executor::par_map_with_workers(self.workers(), &families, |family| {
            let start = mp_telemetry::enabled().then(std::time::Instant::now);
            let outcomes = self.measure_family(jobs, to_measure, &injected, family);
            if let Some(start) = start {
                mp_telemetry::histogram(
                    "session.family_wall_ns",
                    start.elapsed().as_nanos() as u64,
                );
                mp_telemetry::histogram("session.family_jobs", family.len() as u64);
                for measurement in outcomes.iter().flatten() {
                    mp_telemetry::histogram("session.job_sim_cycles", measurement.cycles());
                }
            }
            outcomes
        });

        let mut results: Vec<Option<Result<Measurement, JobError>>> = vec![None; to_measure.len()];
        for (family, outcomes) in families.iter().zip(measured) {
            for (&position, outcome) in family.iter().zip(outcomes) {
                results[position] = Some(outcome);
            }
        }
        results.into_iter().map(|r| r.expect("every job belongs to one family")).collect()
    }

    /// Measures one family (positions into `to_measure`) with one
    /// [`Platform::run_family`] call over the jobs that drew no injected panic, and
    /// returns one outcome per job of the family, in order.
    fn measure_family(
        &self,
        jobs: &[(&MicroBenchmark, CmpSmtConfig)],
        to_measure: &[(u128, usize)],
        injected: &[Option<String>],
        family: &[usize],
    ) -> Vec<Result<Measurement, JobError>> {
        let benchmark = jobs[to_measure[family[0]].1].0;
        let configs: Vec<CmpSmtConfig> = family
            .iter()
            .filter(|&&position| injected[position].is_none())
            .map(|&position| jobs[to_measure[position].1].1)
            .collect();
        let mut measured = if configs.is_empty() {
            Ok(Vec::new().into_iter())
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.platform.run_family(benchmark, &configs)
            }))
            .map(Vec::into_iter)
            .map_err(|payload| panic_message(&*payload))
        };
        family
            .iter()
            .map(|&position| {
                let outcome = match (&injected[position], &mut measured) {
                    (Some(message), _) => {
                        let payload = std::panic::catch_unwind(|| panic!("{message}"))
                            .expect_err("an injected panic unwinds");
                        Err(panic_message(&*payload))
                    }
                    (None, Ok(measurements)) => {
                        Ok(measurements.next().expect("one measurement per configuration"))
                    }
                    (None, Err(message)) => Err(message.clone()),
                };
                outcome.map_err(|message| {
                    mp_telemetry::counter("session.job_failed", 1);
                    JobError { key: to_measure[position].0, message }
                })
            })
            .collect()
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
        // Another test's job-panic plan would fail these measurements.
        let _faults = crate::faults::tests::serial();
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
        // Another test's job-panic plan would fail these measurements.
        let _faults = crate::faults::tests::serial();
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

        // The kernel's content encoding is backend-blind; only the digest the key mixes
        // in tells the two backends apart.
        let kernel = bench.kernel();
        let digest7 = p7.platform().uarch().spec_digest;
        let digest8 = p8.platform().uarch().spec_digest;
        assert_ne!(digest7, digest8);
        assert_eq!(job_key(kernel, config, digest7), p7.job_key(&bench, config));
        assert_ne!(job_key(kernel, config, digest7), job_key(kernel, config, digest8));

        // Each session measures the kernel on its own machine: one miss per backend,
        // and the measurements genuinely differ.
        let m7 = p7.measure(&bench, config);
        let m8 = p8.measure(&bench, config);
        assert_eq!(p7.stats().misses, 1);
        assert_eq!(p8.stats().misses, 1);
        assert_ne!(m7.average_power(), m8.average_power());
    }

    /// A hand-built kernel touching every operand variant and both memory tags.
    fn key_fixture_body() -> Vec<mp_isa::Instruction> {
        use mp_isa::{Instruction, MemAccess, Operand, RegRef};
        let isa = mp_uarch::power7().isa;
        let inst = |mnemonic: &str, operands: Vec<Operand>, mem: Option<MemAccess>| {
            Instruction::new(&isa, isa.opcode(mnemonic).expect("opcode"), operands, mem)
                .expect("valid instruction")
        };
        let gpr = |index| Operand::Reg(RegRef::gpr(index));
        vec![
            inst("add", vec![gpr(1), gpr(2), gpr(3)], None),
            inst("addi", vec![gpr(4), gpr(5), Operand::Imm(4)], None),
            inst(
                "ld",
                vec![gpr(6), Operand::Displacement(8), gpr(7)],
                Some(MemAccess { address: 0x1000, bytes: 8, is_store: false }),
            ),
            inst("cmpd", vec![Operand::CrField(1), gpr(8), gpr(9)], None),
            inst("bc", vec![Operand::CrField(1), Operand::BranchTarget(-4)], None),
        ]
    }

    fn key_fixture(body: Vec<mp_isa::Instruction>) -> Kernel {
        Kernel::new("keyed", body)
            .with_data_profile(mp_sim::DataProfile::Constant)
            .with_mispredict_rate(0.125)
    }

    const KEY_CONFIG: CmpSmtConfig = CmpSmtConfig { cores: 2, smt: SmtMode::Smt2 };

    #[test]
    fn spec_digests_and_job_keys_are_pinned() {
        // Literal values: a change to the spec texts, the digest hash, the content
        // encoding or the key layout shows up here, on any toolchain or host.
        let p7 = mp_uarch::power7().spec_digest;
        assert_eq!(p7, 0x2f7a_f288_01fd_8840_4109_4823_10b5_e4a3, "POWER7 spec digest");
        assert_eq!(
            mp_uarch::power8().spec_digest,
            0xbc5e_7fe0_9a63_1d52_3c77_1dde_2cf1_6b11,
            "POWER8 spec digest"
        );
        let kernel = key_fixture(key_fixture_body());
        assert_eq!(
            job_key(&kernel, KEY_CONFIG, p7),
            0xc9cd_a5b5_f766_1369_2603_b06d_a1e5_8e00,
            "pinned job key"
        );
    }

    #[test]
    fn changing_any_encoded_field_changes_the_job_key() {
        use mp_isa::{Instruction, Operand, RegRef, RegisterFile};
        let digest = mp_uarch::power7().spec_digest;
        let isa = mp_uarch::power7().isa;
        let base = key_fixture_body();
        let body_with = |edit: &dyn Fn(&mut Vec<Instruction>)| {
            let mut body = base.clone();
            edit(&mut body);
            key_fixture(body)
        };
        let set_operand = |inst: usize, slot: usize, operand: Operand| {
            body_with(&move |body: &mut Vec<Instruction>| {
                body[inst].operands_mut()[slot] = operand;
            })
        };
        let set_mem = |inst: usize, edit: &dyn Fn(&mut mp_isa::MemAccess)| {
            body_with(&|body: &mut Vec<Instruction>| {
                let mut mem = body[inst].mem().unwrap_or(mp_isa::MemAccess {
                    address: 0,
                    bytes: 0,
                    is_store: false,
                });
                edit(&mut mem);
                body[inst].set_mem(Some(mem));
            })
        };
        let subf = isa.opcode("subf").expect("subf");

        let variants: Vec<(&str, Kernel, CmpSmtConfig)> = vec![
            ("base", key_fixture(base.clone()), KEY_CONFIG),
            (
                "opcode",
                body_with(&|body| {
                    let operands = body[0].operands().to_vec();
                    body[0] = Instruction::new(&isa, subf, operands, None).expect("valid");
                }),
                KEY_CONFIG,
            ),
            ("Imm(4) -> Displacement(4)", set_operand(1, 2, Operand::Displacement(4)), KEY_CONFIG),
            ("Imm(4) -> BranchTarget(4)", set_operand(1, 2, Operand::BranchTarget(4)), KEY_CONFIG),
            ("register index", set_operand(0, 1, Operand::Reg(RegRef::gpr(12))), KEY_CONFIG),
            (
                "register file",
                set_operand(0, 1, Operand::Reg(RegRef::new(RegisterFile::Fpr, 2))),
                KEY_CONFIG,
            ),
            ("CR field", set_operand(3, 0, Operand::CrField(2)), KEY_CONFIG),
            ("mem None -> Some(0, 0, load)", set_mem(0, &|_| {}), KEY_CONFIG),
            ("mem address", set_mem(2, &|mem| mem.address += 8), KEY_CONFIG),
            ("mem bytes", set_mem(2, &|mem| mem.bytes = 4), KEY_CONFIG),
            ("mem is_store", set_mem(2, &|mem| mem.is_store = true), KEY_CONFIG),
            (
                "mem Some -> None",
                body_with(&|body: &mut Vec<Instruction>| body[2].set_mem(None)),
                KEY_CONFIG,
            ),
            ("swapped instructions", body_with(&|body| body.swap(0, 1)), KEY_CONFIG),
            ("dropped instruction", body_with(&|body| body.truncate(4)), KEY_CONFIG),
            (
                "data profile",
                key_fixture(base.clone()).with_data_profile(mp_sim::DataProfile::Zeros),
                KEY_CONFIG,
            ),
            (
                "mispredict bits",
                key_fixture(base.clone())
                    .with_mispredict_rate(f64::from_bits(0.125f64.to_bits() + 1)),
                KEY_CONFIG,
            ),
            ("cores", key_fixture(base.clone()), CmpSmtConfig::new(3, SmtMode::Smt2)),
            ("SMT mode", key_fixture(base.clone()), CmpSmtConfig::new(2, SmtMode::Smt4)),
        ];

        let mut seen: HashMap<u128, &str> = HashMap::new();
        for (label, kernel, config) in &variants {
            if let Some(other) = seen.insert(job_key(kernel, *config, digest), label) {
                panic!("`{label}` and `{other}` share a job key");
            }
        }
        assert_eq!(seen.len(), variants.len());
    }

    #[test]
    fn plan_results_are_in_plan_order_for_any_worker_count() {
        // Another test's job-panic plan would fail these measurements.
        let _faults = crate::faults::tests::serial();
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
        // Another test's job-panic plan would fail these measurements.
        let _faults = crate::faults::tests::serial();
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

        // The session (cache, stats) survives: resubmitting with injection off
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
        // Another test's fault plan would inject IO errors into this store.
        let _faults = crate::faults::tests::serial();
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

    /// A platform that counts the measurements it produces (`runs`) and its family
    /// runs (`families`).
    struct CountingPlatform {
        inner: SimPlatform,
        runs: AtomicUsize,
        families: AtomicUsize,
    }

    impl CountingPlatform {
        fn new() -> Self {
            Self {
                inner: SimPlatform::power7_fast(),
                runs: AtomicUsize::new(0),
                families: AtomicUsize::new(0),
            }
        }
    }

    impl Platform for CountingPlatform {
        fn uarch(&self) -> &mp_uarch::MicroArchitecture {
            self.inner.uarch()
        }

        fn run(&self, bench: &MicroBenchmark, config: CmpSmtConfig) -> Measurement {
            self.runs.fetch_add(1, Ordering::SeqCst);
            self.inner.run(bench, config)
        }

        fn run_family(&self, bench: &MicroBenchmark, configs: &[CmpSmtConfig]) -> Vec<Measurement> {
            self.families.fetch_add(1, Ordering::SeqCst);
            self.runs.fetch_add(configs.len(), Ordering::SeqCst);
            self.inner.run_family(bench, configs)
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

        let platform = CountingPlatform::new();
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

    #[test]
    fn one_kernel_at_several_core_counts_is_one_family_run() {
        let _guard = crate::faults::tests::serial();
        let ambient = faults::plan();
        faults::set_plan(None);
        let dir = crate::store::tests::TempDir::new("session-family");
        let bench = tiny_benchmark("family", 9);
        let other = tiny_benchmark("other", 10);
        let configs = [1, 2, 4].map(|cores| CmpSmtConfig::new(cores, SmtMode::Smt2));
        let mut jobs: Vec<(&MicroBenchmark, CmpSmtConfig)> =
            configs.iter().map(|&config| (&bench, config)).collect();
        // Another SMT mode and another kernel each form a family of their own.
        jobs.push((&bench, CmpSmtConfig::new(2, SmtMode::Smt4)));
        jobs.push((&other, CmpSmtConfig::new(2, SmtMode::Smt2)));
        let reference: Vec<Measurement> =
            jobs.iter().map(|(b, c)| SimPlatform::power7_fast().run(b, *c)).collect();

        // Owned, and borrowed through the forwarding impl.
        let owned = CountingPlatform::new();
        let borrowed = CountingPlatform::new();
        for platform in [&owned, &borrowed] {
            let session = ExperimentSession::with_options(platform, SessionOptions::default())
                .with_workers(2)
                .with_store(
                    Store::open(dir.path().join(format!("{:p}", platform)), digest_of())
                        .expect("store opens"),
                );
            assert_eq!(session.measure_batch(&jobs), reference);
            assert_eq!(platform.families.load(Ordering::SeqCst), 3, "three families");
            assert_eq!(platform.runs.load(Ordering::SeqCst), jobs.len());
            // Stats, memo entries and store records stay per job.
            assert_eq!(session.stats().misses, jobs.len());
            assert_eq!(session.store().expect("attached").stats().writes, jobs.len() as u64);
            for (job, expected) in jobs.iter().zip(&reference) {
                assert_eq!(&session.measure(job.0, job.1), expected);
            }
            assert_eq!(session.stats().hits, jobs.len(), "every job is memoized on its own");
            assert_eq!(platform.families.load(Ordering::SeqCst), 3);
        }
        let by_value = ExperimentSession::new(CountingPlatform::new()).with_workers(1);
        by_value.measure_batch(&jobs[..3]);
        assert_eq!(by_value.platform().families.load(Ordering::SeqCst), 1);
        faults::set_plan(ambient);
    }

    #[test]
    fn injected_job_panics_hit_the_same_jobs_at_any_worker_count() {
        let _guard = crate::faults::tests::serial();
        let ambient = faults::plan();
        let benches: Vec<MicroBenchmark> =
            (0..4).map(|i| tiny_benchmark(&format!("w{i}"), 300 + i)).collect();
        // Families of three core counts, so a drawn panic lands inside a family.
        let jobs: Vec<(&MicroBenchmark, CmpSmtConfig)> = benches
            .iter()
            .flat_map(|b| [1, 2, 3].map(|cores| (b, CmpSmtConfig::new(cores, SmtMode::Smt1))))
            .collect();
        let failed_at = |workers: usize| -> Vec<usize> {
            faults::set_plan(Some(faults::FaultPlan {
                seed: 21,
                job_panic: 0.3,
                task_delay: 0.5,
                delay_us: 300,
                ..faults::FaultPlan::default()
            }));
            let session = ExperimentSession::new(SimPlatform::power7_fast()).with_workers(workers);
            let results = session.measure_batch_resilient(&jobs);
            faults::set_plan(None);
            // Survivors are exact and cached, also next to a failed job of their family.
            for (job, result) in jobs.iter().zip(&results) {
                if let Ok(measurement) = result {
                    assert_eq!(measurement, &SimPlatform::power7_fast().run(job.0, job.1));
                }
            }
            let failed: Vec<usize> =
                results.iter().enumerate().filter(|(_, r)| r.is_err()).map(|(i, _)| i).collect();
            assert_eq!(session.measure_batch_resilient(&jobs).len(), jobs.len());
            assert_eq!(session.stats().hits, jobs.len() - failed.len(), "survivors were cached");
            failed
        };
        let serial = failed_at(1);
        assert!(!serial.is_empty() && serial.len() < jobs.len(), "{serial:?}");
        assert!(
            (0..benches.len()).any(|family| {
                let failed = serial.iter().filter(|&&i| i / 3 == family).count();
                failed > 0 && failed < 3
            }),
            "some family keeps a survivor next to a failed job: {serial:?}"
        );
        for workers in [2, 8] {
            assert_eq!(failed_at(workers), serial, "workers={workers}");
        }
        faults::set_plan(ambient);
    }
}
