//! Regenerates Figure 5a (SPEC power breakdown, real vs predicted, CMP-SMT 4-4) and
//! Figure 5b (PAAE of the bottom-up model across configurations).

use mp_bench::{ExperimentScale, Experiments};

fn main() {
    let scale = ExperimentScale::from_cli();
    let experiments = Experiments::new(scale);
    let study = experiments.model_study();
    println!("{}", experiments.fig5a(&study));
    println!("{}", experiments.fig5b(&study));
    mp_bench::report::conclude(experiments.session());
}
