//! The measurement platform abstraction.
//!
//! MicroProbe itself is architecture- and platform-independent: the same generation
//! policies can target a simulator (pre-silicon) or a real machine (post-silicon).  The
//! [`Platform`] trait captures the minimal measurement interface the case studies need —
//! run a benchmark in a CMP-SMT configuration, read the performance counters and the
//! power sensor — and [`SimPlatform`] binds it to the `mp-sim` chip simulator.

use mp_sim::{ChipSim, Measurement, SimOptions};
use mp_uarch::{CmpSmtConfig, MicroArchitecture};

use crate::ir::MicroBenchmark;

/// A machine (real or simulated) that can run micro-benchmarks and be measured.
pub trait Platform: Send + Sync {
    /// The machine description of the platform.
    fn uarch(&self) -> &MicroArchitecture;

    /// Runs one copy of the benchmark per hardware thread context of `config` and
    /// returns the counter and power measurements.
    fn run(&self, bench: &MicroBenchmark, config: CmpSmtConfig) -> Measurement;

    /// Runs the benchmark on each configuration of a family that shares one SMT mode,
    /// returning one measurement per configuration in order: the same measurements as
    /// calling [`run`](Self::run) on each.  The default does exactly that; a platform
    /// that can share work across core counts overrides it.
    fn run_family(&self, bench: &MicroBenchmark, configs: &[CmpSmtConfig]) -> Vec<Measurement> {
        configs.iter().map(|&config| self.run(bench, config)).collect()
    }

    /// Runs one (possibly different) benchmark per hardware thread context.
    fn run_heterogeneous(&self, benches: &[MicroBenchmark], config: CmpSmtConfig) -> Measurement;

    /// The workload-independent power of the platform (sensor reading with no activity).
    fn idle_power(&self) -> f64;
}

/// Forwarding impl so borrowed platforms can be handed to APIs that take a platform by
/// value (e.g. a memoizing session wrapping a caller-owned platform).  It forwards
/// every method, defaulted ones included, so a borrowed platform keeps its overrides.
impl<P: Platform + ?Sized> Platform for &P {
    fn uarch(&self) -> &MicroArchitecture {
        (**self).uarch()
    }

    fn run(&self, bench: &MicroBenchmark, config: CmpSmtConfig) -> Measurement {
        (**self).run(bench, config)
    }

    fn run_family(&self, bench: &MicroBenchmark, configs: &[CmpSmtConfig]) -> Vec<Measurement> {
        (**self).run_family(bench, configs)
    }

    fn run_heterogeneous(&self, benches: &[MicroBenchmark], config: CmpSmtConfig) -> Measurement {
        (**self).run_heterogeneous(benches, config)
    }

    fn idle_power(&self) -> f64 {
        (**self).idle_power()
    }
}

/// The simulated POWER7 platform.
#[derive(Debug, Clone)]
pub struct SimPlatform {
    sim: ChipSim,
}

impl SimPlatform {
    /// Creates a platform around a simulator instance.
    pub fn new(sim: ChipSim) -> Self {
        Self { sim }
    }

    /// Convenience constructor: the POWER7-like machine with default options.
    pub fn power7() -> Self {
        Self::new(ChipSim::new(mp_uarch::power7()))
    }

    /// Convenience constructor: the POWER7-like machine with shorter runs, for the large
    /// experiment sweeps.
    pub fn power7_fast() -> Self {
        Self::new(ChipSim::new(mp_uarch::power7()).with_options(SimOptions::fast()))
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &ChipSim {
        &self.sim
    }
}

impl Platform for SimPlatform {
    fn uarch(&self) -> &MicroArchitecture {
        self.sim.uarch()
    }

    fn run(&self, bench: &MicroBenchmark, config: CmpSmtConfig) -> Measurement {
        self.sim.run(bench.kernel(), config)
    }

    /// Shares the core simulations across the family's core counts
    /// ([`ChipSim::run_family`]).
    fn run_family(&self, bench: &MicroBenchmark, configs: &[CmpSmtConfig]) -> Vec<Measurement> {
        self.sim.run_family(bench.kernel(), configs)
    }

    fn run_heterogeneous(&self, benches: &[MicroBenchmark], config: CmpSmtConfig) -> Measurement {
        let kernels: Vec<_> = benches.iter().map(|b| b.kernel().clone()).collect();
        self.sim.run_heterogeneous(&kernels, config)
    }

    fn idle_power(&self) -> f64 {
        self.sim.measure_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{InstructionMixPass, SkeletonPass};
    use crate::synth::Synthesizer;
    use mp_uarch::SmtMode;

    #[test]
    fn sim_platform_runs_generated_benchmarks() {
        let platform = SimPlatform::power7_fast();
        let computes = platform.uarch().isa.compute_instructions();
        let mut synth = Synthesizer::new(mp_uarch::power7());
        synth.add_pass(SkeletonPass::endless_loop(64));
        synth.add_pass(InstructionMixPass::uniform(computes));
        let bench = synth.synthesize().unwrap();
        let m = platform.run(&bench, CmpSmtConfig::new(1, SmtMode::Smt1));
        assert!(m.chip_ipc() > 0.0);
        assert!(m.average_power() > platform.idle_power());
    }

    #[test]
    fn heterogeneous_runs_take_one_benchmark_per_thread() {
        let platform = SimPlatform::power7_fast();
        let computes = platform.uarch().isa.compute_instructions();
        let mut synth = Synthesizer::new(mp_uarch::power7());
        synth.add_pass(SkeletonPass::endless_loop(32));
        synth.add_pass(InstructionMixPass::uniform(computes));
        let benches = synth.synthesize_many(4).unwrap();
        let m = platform.run_heterogeneous(&benches, CmpSmtConfig::new(2, SmtMode::Smt2));
        assert_eq!(m.per_thread().len(), 4);
    }
}
