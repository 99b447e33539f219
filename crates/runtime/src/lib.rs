//! `mp-runtime` — the measurement runtime of the MicroProbe reproduction.
//!
//! The paper's methodology is embarrassingly parallel: hundreds of independent
//! `(micro-benchmark × CMP-SMT configuration)` runs feed the bottom-up/top-down power
//! models.  This crate supplies the two layers every measurement path in the workspace
//! runs through:
//!
//! 1. [`executor`] — a std-only, cost-aware work-stealing thread pool (one persistent
//!    per-process pool of lazily-spawned workers, per-worker deques plus stealing)
//!    exposing [`scope`]/[`par_map`] with deterministic result ordering, worker-count
//!    control via the `MP_THREADS` environment variable, panic propagation, and a
//!    [`CostHint`]-driven inline-serial fallback plus adaptive chunking so parallel
//!    dispatch never loses to the serial loop;
//! 2. [`session`] — a memoizing [`ExperimentSession`] that takes a declarative
//!    [`ExperimentPlan`] of measurement jobs, content-hashes each job, dedupes repeats
//!    and memoizes [`Measurement`](mp_sim::Measurement)s across plan submissions, so
//!    regenerating every figure (or running every test fixture) measures each unique
//!    pair exactly once per process;
//! 3. [`dse`] — a [`ParallelEvaluator`] bridging the core DSE search drivers onto the
//!    executor, so exhaustive and genetic searches score whole candidate batches in
//!    parallel with results identical to the serial path;
//! 4. [`store`] — a crash-safe, content-addressed persistent measurement store
//!    (opt-in via `MP_STORE_DIR`) that turns the session's memo cache into a second,
//!    disk-backed tier surviving restarts, with torn/corrupt/stale records quarantined
//!    and recomputed instead of crashing;
//! 5. [`faults`] — deterministic, seeded fault injection (`MP_FAULTS`) that drives IO
//!    errors and torn writes into the store, panics into simulation jobs and delays
//!    into executor tasks, so every failure path above is provable in CI.
//!
//! `mp_bench::measure_benchmarks`, the experiment binaries, and the slow integration
//! tests are all thin wrappers over these layers.

pub mod dse;
pub mod executor;
pub mod faults;
mod poison;
pub mod session;
pub mod store;

pub use dse::ParallelEvaluator;
pub use executor::{
    default_workers, par_map, par_map_with_cost, par_map_with_workers,
    par_map_with_workers_and_cost, scope, scope_with_workers, worker_index, CostHint, Scope,
    CHUNK_TARGET_ENV, PAR_THRESHOLD_ENV, THREADS_ENV,
};
pub use faults::{FaultPlan, FAULTS_ENV};
pub use session::{
    ExperimentPlan, ExperimentSession, JobError, PlannedJob, SessionOptions, SessionStats,
};
pub use store::{Store, StoreStats, STORE_DIR_ENV};
