//! Regenerates Figure 7: model accuracy on the extreme activity cases.

use mp_bench::{ExperimentScale, Experiments};

fn main() {
    let scale = ExperimentScale::from_cli();
    let experiments = Experiments::new(scale);
    let study = experiments.model_study();
    println!("{}", experiments.fig7(&study));
    mp_bench::report::conclude(experiments.session());
}
