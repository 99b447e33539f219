//! Property test: determinism under parallelism.
//!
//! For random measurement plans and every worker count in `1..=8`, the parallel
//! executor ([`mp_runtime::par_map_with_workers`]) and the memoizing
//! [`ExperimentSession`] produce results identical to the serial run — the claim
//! interleaving may reorder *execution*, but never the *results*.

use std::sync::OnceLock;

use microprobe::ir::MicroBenchmark;
use microprobe::platform::{Platform, SimPlatform};
use microprobe::prelude::*;
use mp_power::{SampleKind, WorkloadSample};
use mp_runtime::{par_map_with_workers, ExperimentPlan, ExperimentSession};
use mp_sim::{ChipSim, SimOptions};
use mp_uarch::{CmpSmtConfig, SmtMode};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A platform with very short runs: the property only cares about bit-identity, not
/// steady-state measurements.
fn fast_platform() -> SimPlatform {
    SimPlatform::new(ChipSim::new(mp_uarch::power7()).with_options(SimOptions {
        warmup_cycles: 300,
        measure_cycles: 600,
        sample_cycles: 150,
        noise_fraction: 0.002,
        prefetch_enabled: true,
        seed: 0xd37e,
        uncore_mode: mp_sim::UncoreMode::Private,
    }))
}

/// A small pool of distinct benchmarks the random plans draw from.
fn benchmark_pool() -> &'static Vec<MicroBenchmark> {
    static POOL: OnceLock<Vec<MicroBenchmark>> = OnceLock::new();
    POOL.get_or_init(|| {
        let arch = mp_uarch::power7();
        let computes = arch.isa.compute_instructions();
        (0..4u64)
            .map(|i| {
                let mut synth = Synthesizer::new(arch.clone())
                    .with_name_prefix(format!("det{i}"))
                    .with_seed(0xde7e << 4 | i);
                synth.add_pass(SkeletonPass::endless_loop(24));
                synth.add_pass(InstructionMixPass::uniform(computes.clone()));
                synth.synthesize().expect("pool benchmark synthesizes")
            })
            .collect()
    })
}

fn config_pool() -> [CmpSmtConfig; 4] {
    [
        CmpSmtConfig::new(1, SmtMode::Smt1),
        CmpSmtConfig::new(1, SmtMode::Smt4),
        CmpSmtConfig::new(2, SmtMode::Smt1),
        CmpSmtConfig::new(2, SmtMode::Smt2),
    ]
}

fn random_plan(seed: u64, jobs: usize) -> ExperimentPlan {
    let pool = benchmark_pool();
    let configs = config_pool();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut plan = ExperimentPlan::new();
    for i in 0..jobs {
        let bench = &pool[rng.gen_range(0..pool.len())];
        let config = configs[rng.gen_range(0..configs.len())];
        // Repeats are likely (small pools) and intended: they exercise the dedup path.
        plan.push(format!("job{i}"), bench.clone(), config, SampleKind::Random);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    #[test]
    fn parallel_results_are_identical_to_serial(seed in 0u64..u64::MAX, jobs in 1usize..=6) {
        let platform = fast_platform();
        let plan = random_plan(seed, jobs);

        // Serial references: a plain loop for the session results, a serial map for
        // par_map.
        let reference: Vec<(WorkloadSample, SampleKind)> = plan
            .jobs()
            .iter()
            .map(|job| {
                let m = platform.run(&job.benchmark, job.config);
                (WorkloadSample::from_measurement(&job.name, &m), job.kind)
            })
            .collect();
        let pairs: Vec<(MicroBenchmark, CmpSmtConfig)> =
            plan.jobs().iter().map(|j| (j.benchmark.clone(), j.config)).collect();
        let serial_map: Vec<_> = pairs.iter().map(|(b, c)| platform.run(b, *c)).collect();

        for workers in 1usize..=8 {
            let session = ExperimentSession::new(fast_platform()).with_workers(workers);
            let samples = session.run(&plan);
            prop_assert!(samples == reference, "session diverged at workers={workers}");
            // Resubmission is answered from the memo cache — still identical.
            prop_assert!(session.run(&plan) == reference, "replay diverged at workers={workers}");

            let mapped = par_map_with_workers(workers, &pairs, |(b, c)| platform.run(b, *c));
            prop_assert!(mapped == serial_map, "par_map diverged at workers={workers}");
        }
    }
}
