//! `mp-runtime` — the measurement runtime of the MicroProbe reproduction.
//!
//! The paper's methodology is embarrassingly parallel: hundreds of independent
//! `(micro-benchmark × CMP-SMT configuration)` runs feed the bottom-up/top-down power
//! models.  This crate supplies the layers every measurement path in the workspace
//! runs through:
//!
//! 1. [`executor`] — a std-only parallel map over a slice on scoped threads (the caller
//!    plus `workers − 1` spawned threads claiming items from one atomic index), with
//!    results in input order, worker-count control via the `MP_THREADS` environment
//!    variable, first-panic propagation, and a [`CostHint`] that keeps batches too
//!    cheap to pay for the threads on the caller;
//! 2. [`session`] — a memoizing [`ExperimentSession`] that takes a declarative
//!    [`ExperimentPlan`] of measurement jobs, content-hashes each job, dedupes repeats
//!    and memoizes [`Measurement`](mp_sim::Measurement)s across plan submissions, so
//!    regenerating every figure (or running every test fixture) measures each unique
//!    pair exactly once per process;
//! 3. [`store`] — a crash-safe, content-addressed persistent measurement store
//!    (opt-in via `MP_STORE_DIR`) that turns the session's memo cache into a second,
//!    disk-backed tier surviving restarts, with torn/corrupt/stale records quarantined
//!    and recomputed instead of crashing;
//! 4. [`faults`] — deterministic, seeded fault injection (`MP_FAULTS`) that drives IO
//!    errors and torn writes into the store, panics into simulation jobs and delays
//!    into executor tasks, so every failure path above is provable in CI.
//!
//! The experiment binaries, the stressmark search (every candidate it scores is a
//! session job) and the slow integration tests are all thin wrappers over these layers.

#![forbid(unsafe_code)]

pub mod executor;
pub mod faults;
mod poison;
pub mod session;
pub mod store;

pub use executor::{
    default_workers, par_map_with_workers, par_map_with_workers_and_cost, CostHint, THREADS_ENV,
};
pub use faults::{FaultPlan, FAULTS_ENV};
pub use session::{
    ExperimentPlan, ExperimentSession, JobError, PlannedJob, SessionOptions, SessionStats,
};
pub use store::{Store, StoreStats, STORE_DIR_ENV};
