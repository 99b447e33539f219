//! Trains a reduced bottom-up power model on simulated measurements and uses its
//! decomposability to break a SPEC proxy's power into components.

use microprobe::platform::Platform;
use mp_examples::example_platform;
use mp_power::{BottomUpModel, PowerModel, SampleKind, TrainingSet, WorkloadSample};
use mp_runtime::{ExperimentPlan, ExperimentSession};
use mp_uarch::{CmpSmtConfig, SmtMode};
use mp_workloads::{spec_proxies, TrainingOptions, TrainingSuite};

fn main() {
    let session = ExperimentSession::new(example_platform());
    let arch = session.platform().uarch().clone();

    // 1. Generate a reduced Table 2 training suite and measure it (in parallel on the
    //    parallel executor; honours MP_THREADS).
    let suite = TrainingSuite::generate(&arch, TrainingOptions::reduced(0.05, 96))
        .expect("training suite generates");
    let configs: Vec<CmpSmtConfig> = vec![
        CmpSmtConfig::new(1, SmtMode::Smt1),
        CmpSmtConfig::new(1, SmtMode::Smt2),
        CmpSmtConfig::new(1, SmtMode::Smt4),
        CmpSmtConfig::new(2, SmtMode::Smt2),
        CmpSmtConfig::new(4, SmtMode::Smt4),
    ];
    let mut plan = ExperimentPlan::new();
    for tb in suite.benchmarks() {
        let kind = if tb.family.is_random() { SampleKind::Random } else { SampleKind::MicroArch };
        plan.sweep(tb.benchmark.name(), &tb.benchmark, &configs, kind);
    }
    let mut training = TrainingSet::new();
    training.extend(session.run(&plan));
    println!("measured {} training samples", training.len());

    // 2. Train the bottom-up model.
    let model = BottomUpModel::train(&training, session.platform().idle_power())
        .expect("training succeeds");
    println!(
        "fitted SMT effect {:.2}, CMP effect {:.2}, uncore {:.2}",
        model.smt_effect(),
        model.cmp_effect(),
        model.uncore()
    );

    // 3. Predict and decompose one SPEC proxy on a configuration.
    let proxy = &spec_proxies()[5]; // mcf
    let bench = proxy.generate(&arch, 128).expect("proxy generates");
    let config = CmpSmtConfig::new(4, SmtMode::Smt4);
    let m = session.measure(&bench, config);
    let sample = WorkloadSample::from_measurement(proxy.name, &m);
    let breakdown = model.breakdown(&sample).expect("bottom-up models decompose");

    println!("\n{} on {config}:", proxy.name);
    println!("  measured power : {:.1}", sample.power);
    println!(
        "  predicted power: {:.1}  ({:+.1}% error)",
        model.predict(&sample),
        100.0 * (model.predict(&sample) - sample.power) / sample.power
    );
    for (name, pct) in
        mp_power::PowerBreakdownEstimate::COMPONENT_NAMES.iter().zip(breakdown.percentages())
    {
        println!("  {name:<22} {pct:>5.1}%");
    }
}
