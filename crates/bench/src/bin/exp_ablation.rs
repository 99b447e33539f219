//! Ablation study of the design choices called out in DESIGN.md:
//!
//! 1. instruction selection heuristic for the stressmark search — IPC×EPI (the paper's
//!    proposal) vs pure-IPC vs pure-EPI selection;
//! 2. the SMT/CMP terms of the bottom-up model — full model vs a model that drops them
//!    (the paper argues these inputs are crucial for consistency across configurations).
//!
//! Usage: `cargo run --release -p mp-bench --bin exp_ablation [quick|standard|full]`

use microprobe::platform::Platform;
use mp_bench::{ExperimentScale, Experiments};
use mp_power::{paae, TopDownModel, WorkloadSample};

fn main() {
    let scale = ExperimentScale::from_cli();
    let experiments = Experiments::new(scale);

    // ---- Ablation 2: drop the CMP/SMT inputs from a counter-based model ----------------
    let study = experiments.model_study();
    println!("# Ablation — value of the SMT/CMP model inputs");
    let full = paae(&study.bu, study.spec.iter()).expect("non-empty");
    // A model trained on the same samples but blind to the configuration: activity-only
    // multiple regression (strip cores/SMT by projecting them to a constant).
    let blind_samples: Vec<WorkloadSample> = study
        .training
        .samples()
        .map(|s| {
            let mut c = s.clone();
            c.config = mp_uarch::CmpSmtConfig::new(1, mp_uarch::SmtMode::Smt1);
            c
        })
        .collect();
    let blind = TopDownModel::train("TD_NoConfig", blind_samples.iter()).expect("training works");
    let blind_spec: Vec<WorkloadSample> = study
        .spec
        .iter()
        .map(|s| {
            let mut c = s.clone();
            c.config = mp_uarch::CmpSmtConfig::new(1, mp_uarch::SmtMode::Smt1);
            c
        })
        .collect();
    let no_config = paae(&blind, blind_spec.iter()).expect("non-empty");
    println!("  BU model (with SMT/CMP inputs)      : {full:.2}% PAAE");
    println!("  regression without SMT/CMP inputs   : {no_config:.2}% PAAE");
    println!(
        "  -> removing the configuration inputs multiplies the error by {:.1}x\n",
        no_config / full.max(1e-9)
    );

    // ---- Ablation 1: stressmark instruction-selection heuristics -----------------------
    println!("# Ablation — stressmark instruction selection heuristic");
    let taxonomy = experiments.taxonomy_study();
    let arch = experiments.platform().uarch();
    let spec_max = study.spec.iter().map(|s| s.power).fold(f64::NEG_INFINITY, f64::max);

    let pick = |score: &dyn Fn(&mp_uarch::InstrProps) -> Option<f64>| -> Vec<mp_isa::OpcodeId> {
        use mp_isa::IssueClass;
        let mut out = Vec::new();
        for class in [IssueClass::Fxu, IssueClass::Lsu, IssueClass::Vsu] {
            let mut best: Option<(mp_isa::OpcodeId, f64)> = None;
            for (id, def) in arch.isa.entries() {
                let primary = match def.issue_class() {
                    IssueClass::Fxu | IssueClass::FxuOrLsu => IssueClass::Fxu,
                    other => other,
                };
                if primary != class {
                    continue;
                }
                let Some(props) = taxonomy.props.get(def.mnemonic()) else { continue };
                let Some(s) = score(props) else { continue };
                if best.map(|(_, b)| s > b).unwrap_or(true) {
                    best = Some((id, s));
                }
            }
            if let Some((id, _)) = best {
                out.push(id);
            }
        }
        out
    };

    let heuristics: Vec<(&str, Vec<mp_isa::OpcodeId>)> = vec![
        ("IPC*EPI (paper)", pick(&|p| p.ipc_epi_product())),
        ("IPC only", pick(&|p| p.measured_ipc)),
        ("EPI only", pick(&|p| p.epi)),
    ];
    let search = mp_stressmark::StressmarkSearch::new(experiments.platform())
        .with_cores(4)
        .with_loop_instructions(96)
        .with_smt_modes(vec![mp_uarch::SmtMode::Smt4]);
    println!("  {:<18} {:<34} {:>12}", "heuristic", "selected instructions", "best power");
    for (name, selection) in heuristics {
        if selection.len() < 3 {
            println!("  {name:<18} (not enough bootstrapped instructions)");
            continue;
        }
        let mut candidates = mp_stressmark::sets::sequences_using_all(&selection);
        candidates.truncate(40);
        let result = search.exhaustive(candidates, None);
        let names: Vec<&str> = selection.iter().map(|id| arch.isa.def(*id).mnemonic()).collect();
        println!(
            "  {:<18} {:<34} {:>9.3}x SPEC max",
            name,
            names.join(", "),
            result.best_score / spec_max
        );
    }

    mp_bench::report::conclude(experiments.session());
}
