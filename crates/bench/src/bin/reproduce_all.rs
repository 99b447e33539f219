//! Regenerates every table and figure of the paper's evaluation in one run.
//!
//! Usage: `cargo run --release -p mp-bench --bin reproduce_all [quick|standard|full]`

use mp_bench::{ExperimentScale, Experiments};

fn main() {
    let scale = ExperimentScale::from_cli();
    let experiments = Experiments::new(scale);
    println!("{}", experiments.run_all());
    // Variable observability (executor job counts, wall times, Chrome trace, persistent-store
    // hit/write/quarantine accounting) goes to stderr and the MP_TELEMETRY_* files;
    // stdout above stays byte-identical across MP_THREADS settings and across cold vs
    // warm MP_STORE_DIR runs.
    mp_bench::report::conclude_quietly(experiments.session());
}
