//! Regenerates Figure 8: average per-component power breakdown per configuration.

use mp_bench::{ExperimentScale, Experiments};

fn main() {
    let scale = ExperimentScale::from_cli();
    let experiments = Experiments::new(scale);
    let study = experiments.model_study();
    println!("{}", experiments.fig8(&study));
    mp_bench::report::conclude(experiments.session());
}
