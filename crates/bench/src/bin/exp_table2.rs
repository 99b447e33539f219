//! Regenerates Table 2: the automatically generated training micro-benchmark suite.

use mp_bench::{ExperimentScale, Experiments};

fn main() {
    let scale = ExperimentScale::from_cli();
    let experiments = Experiments::new(scale);
    println!("{}", experiments.table2());
    // Table 2 only *generates* benchmarks; the uniform stats line reports 0 jobs.
    mp_bench::report::conclude(experiments.session());
}
