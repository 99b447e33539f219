//! Cross-backend portability study: run the same workloads on every spec-loaded
//! backend (`specs/*.uarch`) and report how the machines differ.
//!
//! 1. same-kernel deltas — the shared simulator fixtures run unchanged on each
//!    backend (both machines implement the same ISA spec), and the report shows the
//!    per-kernel power / IPC / energy-breakdown deltas relative to the first backend;
//! 2. per-backend max-power stressmarks — a budget-limited exhaustive search over the
//!    expert DSE sequences runs on each backend's full chip, in every SMT mode that
//!    backend's machine description lists (POWER8-like backends search SMT8 too).
//!
//! Usage: `cargo run --release -p mp-bench --bin exp_cross_backend [quick|standard|full]`

use microprobe::platform::Platform;
use mp_bench::{ExperimentScale, Experiments};
use mp_sim::fixtures::{reference_kernels, uncore_mem_chain, uncore_prefetch_stream};
use mp_sim::Kernel;
use mp_stressmark::{expert_dse_sequences, StressmarkSearch};
use mp_uarch::{CmpSmtConfig, SmtMode};

fn fixture_kernels(isa: &mp_isa::Isa) -> Vec<Kernel> {
    let mut kernels = reference_kernels(isa);
    kernels.push(uncore_mem_chain(isa));
    kernels.push(uncore_prefetch_stream(isa));
    kernels
}

fn main() {
    let scale = ExperimentScale::from_cli();
    let backends: Vec<(String, Experiments)> = mp_uarch::backend_names()
        .iter()
        .map(|name| {
            let experiments =
                Experiments::on_backend(name, scale).expect("backend_names lists loadable specs");
            ((*name).to_owned(), experiments)
        })
        .collect();

    // ---- 1. Same-kernel deltas ---------------------------------------------------------
    // Every backend implements the same ISA spec, so one materialised kernel runs on all
    // of them; the baseline for the delta columns is the first backend (power7).
    println!("# Cross-backend — same kernel, different machine (1 core, SMT1)");
    let config = CmpSmtConfig::new(1, SmtMode::Smt1);
    let isa = backends[0].1.platform().uarch().isa.clone();
    println!(
        "  {:<22} {:<8} {:>9} {:>7} {:>9} {:>10} {:>8}",
        "kernel", "backend", "power", "IPC", "d.power", "d.IPC", "uncore"
    );
    for kernel in fixture_kernels(&isa) {
        let mut baseline: Option<(f64, f64)> = None;
        for (name, experiments) in &backends {
            let m = experiments.platform().sim().run(&kernel, config);
            let (power, ipc) = (m.average_power(), m.chip_ipc());
            let (base_power, base_ipc) = *baseline.get_or_insert((power, ipc));
            println!(
                "  {:<22} {:<8} {:>8.2}W {:>7.3} {:>+8.1}% {:>+9.1}% {:>7.2}J",
                kernel.name(),
                name,
                power,
                ipc,
                100.0 * (power - base_power) / base_power,
                100.0 * (ipc - base_ipc) / base_ipc,
                m.ground_truth().uncore
            );
        }
    }

    // ---- 2. Per-backend max-power stressmarks ------------------------------------------
    println!("\n# Cross-backend — max-power stressmark search per backend");
    for (name, experiments) in &backends {
        let arch = experiments.platform().uarch();
        let mut candidates = expert_dse_sequences(arch);
        if let Some(budget) = scale.stressmark_budget() {
            candidates.truncate(budget);
        }
        // Full chip, and all SMT modes the backend's machine description lists.
        let search = StressmarkSearch::with_session(experiments.session())
            .with_loop_instructions(scale.loop_instructions().min(384));
        let result = search.exhaustive(candidates, None);
        let best = search.evaluate(&result.best).expect("winning sequence re-evaluates");
        let mnemonics = best.sequence.join(" ");
        println!(
            "  {name:<8} {} cores, modes {:?}: {:>7.2}W at {:?} (IPC {:.2}) after {} evaluations",
            arch.max_cores,
            arch.smt_modes,
            best.power,
            best.best_mode,
            best.ipc,
            result.evaluations
        );
        println!("           best sequence: {mnemonics}");
    }

    // The session caches make re-running this report cheap; surface the hit rates.
    println!();
    // Per-backend store accounting is stderr-only (each backend's session opens the
    // shared MP_STORE_DIR root; records never cross backends — the spec digest in
    // every record header sees to that).
    mp_bench::report::conclude_labeled(
        backends.iter().map(|(name, experiments)| (name.as_str(), experiments.session())),
    );
}
