//! Measurement plans for benchmark populations across CMP-SMT configurations.
//!
//! A population is translated into a declarative [`ExperimentPlan`], which a memoizing
//! [`ExperimentSession`](mp_runtime::ExperimentSession) runs on the parallel executor.
//! Results come back in plan order — benchmark-major, then configuration — identical
//! to a serial run regardless of the worker count.

use microprobe::ir::MicroBenchmark;
use mp_power::SampleKind;
use mp_runtime::ExperimentPlan;
use mp_uarch::CmpSmtConfig;

/// A benchmark queued for measurement, with the label the power models use.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredBenchmark {
    /// Workload name.
    pub name: String,
    /// The benchmark to run.
    pub benchmark: MicroBenchmark,
    /// Training-set label.
    pub kind: SampleKind,
}

impl MeasuredBenchmark {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, benchmark: MicroBenchmark, kind: SampleKind) -> Self {
        Self { name: name.into(), benchmark, kind }
    }
}

/// Builds the measurement plan for every `(benchmark, configuration)` pair,
/// benchmark-major.
pub fn measurement_plan(
    benchmarks: &[MeasuredBenchmark],
    configs: &[CmpSmtConfig],
) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new();
    for mb in benchmarks {
        plan.sweep(mb.name.clone(), &mb.benchmark, configs, mb.kind);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use microprobe::platform::SimPlatform;
    use microprobe::prelude::*;
    use mp_runtime::ExperimentSession;
    use mp_uarch::SmtMode;

    fn tiny_benchmark(name: &str) -> MicroBenchmark {
        let arch = mp_uarch::power7();
        let computes = arch.isa.compute_instructions();
        let mut synth = Synthesizer::new(arch).with_name_prefix(name);
        synth.add_pass(SkeletonPass::endless_loop(32));
        synth.add_pass(InstructionMixPass::uniform(computes));
        synth.synthesize().unwrap()
    }

    fn population() -> Vec<MeasuredBenchmark> {
        vec![
            MeasuredBenchmark::new("a", tiny_benchmark("a"), SampleKind::MicroArch),
            MeasuredBenchmark::new("b", tiny_benchmark("b"), SampleKind::Random),
        ]
    }

    fn configs() -> Vec<CmpSmtConfig> {
        vec![CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(2, SmtMode::Smt2)]
    }

    #[test]
    fn measures_every_pair_and_labels_them() {
        let session = ExperimentSession::new(SimPlatform::power7_fast());
        let samples = session.run(&measurement_plan(&population(), &configs()));
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().any(|(s, k)| s.name == "a" && *k == SampleKind::MicroArch));
        assert!(samples.iter().any(|(s, k)| s.name == "b" && *k == SampleKind::Random));
        for (s, _) in &samples {
            assert!(s.power > 0.0);
            assert!(s.ipc > 0.0);
        }
    }

    #[test]
    fn measurement_plan_is_benchmark_major() {
        let (benchmarks, configs) = (population(), configs());
        let plan = measurement_plan(&benchmarks, &configs);
        let pairs: Vec<(&str, CmpSmtConfig)> =
            plan.jobs().iter().map(|job| (job.name.as_str(), job.config)).collect();
        assert_eq!(
            pairs,
            [("a", configs[0]), ("a", configs[1]), ("b", configs[0]), ("b", configs[1])]
        );
        for job in plan.jobs() {
            let source = benchmarks.iter().find(|mb| mb.name == job.name).unwrap();
            assert_eq!(job.kind, source.kind);
            assert_eq!(job.benchmark, source.benchmark);
        }
    }

    #[test]
    fn empty_inputs_produce_no_samples() {
        let plan = measurement_plan(&[], &[]);
        assert!(plan.is_empty());
        assert!(ExperimentSession::new(SimPlatform::power7_fast()).run(&plan).is_empty());
    }
}
