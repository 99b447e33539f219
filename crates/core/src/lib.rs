//! MicroProbe: a micro-architecture aware micro-benchmark generation framework.
//!
//! This crate is the Rust reproduction of the paper's primary contribution (Section 2).
//! Its three distinguishing features map to the following modules:
//!
//! * **Low-level micro-architecture semantics** — generation policies query the ISA
//!   ([`mp_isa::Isa`]) and the machine description ([`mp_uarch::MicroArchitecture`])
//!   to select instructions by type, functional unit stressed, latency, throughput or
//!   (after [`bootstrap`]) energy per instruction.
//! * **Flexible, compiler-like code generation** — a micro-benchmark is an internal
//!   representation ([`ir::BenchmarkIr`]) transformed by an ordered sequence of
//!   [`passes`] driven by the [`Synthesizer`](synth::Synthesizer); new passes can be
//!   added and ordered at will.
//! * **Integrated design space exploration** — the [`dse`] module provides exhaustive,
//!   genetic and user-guided searches that evaluate candidate benchmarks directly on a
//!   [`Platform`](platform::Platform) (the simulated POWER7 of `mp-sim`, or any other
//!   implementation of the trait).
//!
//! The example below is the Rust equivalent of the paper's Figure 2 script: an endless
//! loop of vector loads that hit the three cache levels equally.
//!
//! ```
//! use microprobe::prelude::*;
//!
//! # fn main() -> Result<(), microprobe::synth::PassError> {
//! let arch = mp_uarch::power7();
//! // Pass 2.x of Figure 2: select the loads that stress the VSU.
//! let loads_vsu: Vec<_> = arch
//!     .isa
//!     .select(|d| d.is_load() && d.stresses(mp_isa::Unit::Vsu));
//!
//! let mut synth = Synthesizer::new(arch);
//! synth.add_pass(SkeletonPass::endless_loop(128));
//! synth.add_pass(InstructionMixPass::uniform(loads_vsu));
//! synth.add_pass(MemoryPass::new(HitDistribution::caches_balanced()));
//! synth.add_pass(InitRegistersPass::constant());
//! synth.add_pass(DependencyDistancePass::random(1, 8));
//!
//! let bench = synth.synthesize()?;
//! assert_eq!(bench.kernel().len(), 128);
//! # Ok(())
//! # }
//! ```

pub mod bootstrap;
pub mod dse;
pub mod ir;
pub mod passes;
pub mod platform;
pub mod synth;

/// Convenient re-exports of the types most generation scripts need.
pub mod prelude {
    pub use crate::dse::{
        BatchEvaluator, ExhaustiveSearch, GeneticSearch, GenomeSpace, SearchResult,
    };
    pub use crate::ir::{BenchmarkIr, MicroBenchmark};
    pub use crate::passes::{
        BranchBehaviorPass, DependencyDistancePass, InitImmediatesPass, InitRegistersPass,
        InstructionMixPass, MemoryPass, SequencePass, SkeletonPass,
    };
    pub use crate::platform::{Platform, SimPlatform};
    pub use crate::synth::{Pass, PassContext, PassError, Synthesizer};
    pub use mp_cache::HitDistribution;
    pub use mp_sim::DataProfile;
    pub use mp_uarch::{CmpSmtConfig, SmtMode};
}

pub use ir::{BenchmarkIr, MicroBenchmark};
pub use platform::{Platform, SimPlatform};
pub use synth::{Pass, PassContext, PassError, Synthesizer};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::MicroBenchmark>();
        assert_send_sync::<super::Synthesizer>();
        assert_send_sync::<super::SimPlatform>();
    }
}
