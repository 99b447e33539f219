//! Regenerates Table 3: the EPI-based instruction taxonomy derived by the bootstrap.

use mp_bench::{ExperimentScale, Experiments};

fn main() {
    let scale = ExperimentScale::from_cli();
    let experiments = Experiments::new(scale);
    let taxonomy = experiments.taxonomy_study();
    println!("{}", experiments.table3(&taxonomy));
    // Scheduling-independent cache statistics: identical for any MP_THREADS setting.
    mp_bench::report::conclude(experiments.session());
}
