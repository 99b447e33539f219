//! Regenerates Figure 6: PAAE of TD_Micro / TD_Random / TD_SPEC / BU across
//! configurations.

use mp_bench::{ExperimentScale, Experiments};

fn main() {
    let scale = ExperimentScale::from_cli();
    let experiments = Experiments::new(scale);
    let study = experiments.model_study();
    println!("{}", experiments.fig6(&study));
    mp_bench::report::conclude(experiments.session());
}
