//! Regenerates Figure 9: the max-power stressmark comparison (DAXPY, Expert manual,
//! Expert DSE, MicroProbe) normalised to the SPEC maximum.
//!
//! The whole study — SPEC baseline, bootstrap, and every candidate set — shares one
//! memoizing session: the stressmark search measures each unique candidate × SMT mode
//! pair once, in parallel (`MP_THREADS` controls the worker count).

use mp_bench::{ExperimentScale, Experiments};

fn main() {
    let scale = ExperimentScale::from_cli();
    let experiments = Experiments::new(scale);
    let model_study = experiments.model_study();
    let taxonomy = experiments.taxonomy_study();
    let spec_max = model_study.spec.iter().map(|s| s.power).fold(f64::NEG_INFINITY, f64::max);
    let stressmark = experiments.stressmark_study(spec_max, &taxonomy.props);
    println!("{}", experiments.fig9(&stressmark));
    mp_bench::report::conclude(experiments.session());
}
