//! Parallel measurement of benchmark populations across CMP-SMT configurations.
//!
//! This is a thin wrapper over [`mp_runtime`]: populations are translated into a
//! declarative [`ExperimentPlan`] and executed by a (possibly caller-shared, memoizing)
//! [`ExperimentSession`] on the parallel executor.  Results come back in plan
//! order — benchmark-major, then configuration — identical to a serial run regardless
//! of the worker count.

use microprobe::ir::MicroBenchmark;
use microprobe::platform::Platform;
use mp_power::{SampleKind, WorkloadSample};
use mp_runtime::{ExperimentPlan, ExperimentSession};
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

/// Runs every `(benchmark, configuration)` pair and returns the measured workload
/// samples together with their labels.
///
/// Work is spread over `parallelism` workers of the `mp_runtime` executor
/// (the simulated platform is pure computation, so this scales with host cores).
/// Callers that measure repeatedly should hold their own [`ExperimentSession`] instead
/// and submit plans to it, so repeated pairs are memoized.
pub fn measure_benchmarks<P: Platform>(
    platform: &P,
    benchmarks: &[MeasuredBenchmark],
    configs: &[CmpSmtConfig],
    parallelism: usize,
) -> Vec<(WorkloadSample, SampleKind)> {
    let session = ExperimentSession::new(platform).with_workers(parallelism);
    session.run(&measurement_plan(benchmarks, configs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use microprobe::platform::SimPlatform;
    use microprobe::prelude::*;
    use mp_uarch::SmtMode;

    fn tiny_benchmark(name: &str) -> MicroBenchmark {
        let arch = mp_uarch::power7();
        let computes = arch.isa.compute_instructions();
        let mut synth = Synthesizer::new(arch).with_name_prefix(name);
        synth.add_pass(SkeletonPass::endless_loop(32));
        synth.add_pass(InstructionMixPass::uniform(computes));
        synth.synthesize().unwrap()
    }

    #[test]
    fn measures_every_pair_and_labels_them() {
        let platform = SimPlatform::power7_fast();
        let benchmarks = vec![
            MeasuredBenchmark::new("a", tiny_benchmark("a"), SampleKind::MicroArch),
            MeasuredBenchmark::new("b", tiny_benchmark("b"), SampleKind::Random),
        ];
        let configs =
            vec![CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(2, SmtMode::Smt2)];
        let samples = measure_benchmarks(&platform, &benchmarks, &configs, 2);
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().any(|(s, k)| s.name == "a" && *k == SampleKind::MicroArch));
        assert!(samples.iter().any(|(s, k)| s.name == "b" && *k == SampleKind::Random));
        for (s, _) in &samples {
            assert!(s.power > 0.0);
            assert!(s.ipc > 0.0);
        }
    }

    #[test]
    fn results_are_benchmark_major_and_deterministic() {
        let platform = SimPlatform::power7_fast();
        let benchmarks = vec![
            MeasuredBenchmark::new("a", tiny_benchmark("a"), SampleKind::MicroArch),
            MeasuredBenchmark::new("b", tiny_benchmark("b"), SampleKind::Random),
        ];
        let configs =
            vec![CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(2, SmtMode::Smt2)];
        let serial = measure_benchmarks(&platform, &benchmarks, &configs, 1);
        let names: Vec<&str> = serial.iter().map(|(s, _)| s.name.as_str()).collect();
        assert_eq!(names, ["a", "a", "b", "b"]);
        for workers in 2..=4 {
            assert_eq!(
                measure_benchmarks(&platform, &benchmarks, &configs, workers),
                serial,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn empty_inputs_produce_no_samples() {
        let platform = SimPlatform::power7_fast();
        assert!(measure_benchmarks(&platform, &[], &[], 4).is_empty());
    }
}
