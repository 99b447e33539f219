//! Experiment harness for the MicroProbe reproduction.
//!
//! The [`runner`] module turns benchmark populations into measured
//! [`WorkloadSample`](mp_power::WorkloadSample)s by translating them into
//! `mp_runtime` [`ExperimentPlan`](mp_runtime::ExperimentPlan)s (measured in parallel
//! on the `mp_runtime` executor, memoized per session), and the [`experiments`]
//! module implements one function per table/figure of the paper's evaluation.  The
//! binaries in `src/bin` and the `experiments` bench target print the regenerated
//! rows/series; see `EXPERIMENTS.md` at the repository root for the recorded outputs
//! and the `MP_THREADS` / session-memoization semantics.

pub mod experiments;
pub mod report;
pub mod runner;
pub mod table3;

pub use experiments::{ExperimentScale, Experiments};
pub use runner::{measurement_plan, MeasuredBenchmark};
pub use table3::{Table3, Table3Row};
