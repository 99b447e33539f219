//! The micro-benchmark synthesizer: an ordered pipeline of transformation passes.

use std::error::Error;
use std::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use mp_uarch::MicroArchitecture;

use crate::ir::{BenchmarkIr, MicroBenchmark};

/// Error raised by a pass or by the final IR validation.
#[derive(Debug, Clone, PartialEq)]
pub struct PassError {
    pass: String,
    message: String,
}

impl PassError {
    /// Creates an error attributed to a pass.
    pub fn new(pass: impl Into<String>, message: impl Into<String>) -> Self {
        Self { pass: pass.into(), message: message.into() }
    }

    /// Name of the pass that failed.
    pub fn pass(&self) -> &str {
        &self.pass
    }

    /// Failure description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass `{}` failed: {}", self.pass, self.message)
    }
}

impl Error for PassError {}

/// Context handed to every pass invocation: the machine description plus deterministic
/// per-invocation randomness.
pub struct PassContext<'a> {
    /// The target machine description (ISA + micro-architecture).
    pub arch: &'a MicroArchitecture,
    /// Deterministic random number generator; re-seeded for every synthesized benchmark
    /// so that repeated [`Synthesizer::synthesize`] calls produce different (but
    /// reproducible) benchmarks, as in the paper's `for idx in 1..10` loop.
    pub rng: SmallRng,
    /// Index of the benchmark being synthesized (0-based).
    pub invocation: u64,
}

/// A code generation pass: one transformation of the benchmark IR.
///
/// This is the extension point that makes the synthesizer "operate like a compiler
/// infrastructure": users add passes (their own or the built-in ones in
/// [`passes`](crate::passes)) in any order.
pub trait Pass: Send + Sync {
    /// Human readable pass name (used in error messages and logs).
    fn name(&self) -> &str;

    /// Applies the transformation to the IR.
    ///
    /// # Errors
    ///
    /// Returns a [`PassError`] when the IR cannot be transformed (e.g. an instruction
    /// distribution pass applied before a skeleton exists).
    fn apply(&self, ir: &mut BenchmarkIr, ctx: &mut PassContext<'_>) -> Result<(), PassError>;
}

/// A pass defined by a closure, for ad-hoc user transformations.
pub struct FnPass<F> {
    name: String,
    f: F,
}

impl<F> FnPass<F>
where
    F: Fn(&mut BenchmarkIr, &mut PassContext<'_>) -> Result<(), PassError> + Send + Sync,
{
    /// Wraps a closure as a pass.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        Self { name: name.into(), f }
    }
}

impl<F> Pass for FnPass<F>
where
    F: Fn(&mut BenchmarkIr, &mut PassContext<'_>) -> Result<(), PassError> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&self, ir: &mut BenchmarkIr, ctx: &mut PassContext<'_>) -> Result<(), PassError> {
        (self.f)(ir, ctx)
    }
}

/// The micro-benchmark synthesizer.
///
/// Passes are applied in insertion order; every call to [`synthesize`](Self::synthesize)
/// produces a new benchmark with fresh (but deterministic) randomness, so a script can
/// generate families of benchmarks exactly like Figure 2 of the paper.
pub struct Synthesizer {
    arch: MicroArchitecture,
    passes: Vec<Box<dyn Pass>>,
    seed: u64,
    invocation: u64,
    name_prefix: String,
}

impl fmt::Debug for Synthesizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Synthesizer")
            .field("arch", &self.arch.name)
            .field("passes", &self.passes.iter().map(|p| p.name().to_owned()).collect::<Vec<_>>())
            .field("seed", &self.seed)
            .field("invocation", &self.invocation)
            .finish()
    }
}

impl Synthesizer {
    /// Creates a synthesizer for a target machine.
    pub fn new(arch: MicroArchitecture) -> Self {
        Self {
            arch,
            passes: Vec::new(),
            seed: 0x01c0_ffee,
            invocation: 0,
            name_prefix: "ubench".to_owned(),
        }
    }

    /// Sets the base seed used to derive per-benchmark randomness.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the prefix used for generated benchmark names.
    pub fn with_name_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.name_prefix = prefix.into();
        self
    }

    /// The target machine description.
    pub fn arch(&self) -> &MicroArchitecture {
        &self.arch
    }

    /// Appends a pass to the pipeline.
    pub fn add_pass<P: Pass + 'static>(&mut self, pass: P) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Applies the pass pipeline and produces the next micro-benchmark.
    ///
    /// # Errors
    ///
    /// Returns the first pass failure, or a validation error if the resulting IR does
    /// not form well-typed instructions.
    pub fn synthesize(&mut self) -> Result<MicroBenchmark, PassError> {
        let invocation = self.invocation;
        self.invocation += 1;

        let mut ir = BenchmarkIr::new(format!("{}-{}", self.name_prefix, invocation));
        let mut ctx = PassContext {
            arch: &self.arch,
            rng: SmallRng::seed_from_u64(
                self.seed.wrapping_add(invocation.wrapping_mul(0x9e37_79b9)),
            ),
            invocation,
        };
        for pass in &self.passes {
            pass.apply(&mut ir, &mut ctx)?;
        }
        ir.finalize(&self.arch.isa).map_err(|e| PassError::new("finalize", e))
    }

    /// Convenience: synthesize `n` benchmarks in one call.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first failure.
    pub fn synthesize_many(&mut self, n: usize) -> Result<Vec<MicroBenchmark>, PassError> {
        (0..n).map(|_| self.synthesize()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Slot;
    use crate::passes::{InstructionMixPass, SkeletonPass};
    use mp_uarch::power7;

    #[test]
    fn pass_pipeline_runs_in_order_and_errors_are_attributed() {
        let mut synth = Synthesizer::new(power7());
        // A mix pass before the skeleton pass must fail: no slots to fill yet.
        synth.add_pass(InstructionMixPass::uniform(vec![]));
        let err = synth.synthesize().unwrap_err();
        assert!(err.to_string().contains("instruction-mix"));
    }

    #[test]
    fn synthesize_produces_distinct_reproducible_benchmarks() {
        let arch = power7();
        let adds = arch.isa.select(|d| d.issue_class() == mp_isa::IssueClass::FxuOrLsu);
        let build = || {
            let mut synth = Synthesizer::new(power7()).with_seed(11);
            synth.add_pass(SkeletonPass::endless_loop(32));
            synth.add_pass(InstructionMixPass::uniform(adds.clone()));
            synth
        };
        let mut a = build();
        let mut b = build();
        let a1 = a.synthesize().unwrap();
        let a2 = a.synthesize().unwrap();
        let b1 = b.synthesize().unwrap();
        assert_eq!(a1, b1, "same seed and invocation must reproduce the same benchmark");
        assert_ne!(a1, a2, "consecutive invocations must differ");
        assert_eq!(a1.name(), "ubench-0");
        assert_eq!(a2.name(), "ubench-1");
    }

    #[test]
    fn fn_pass_allows_ad_hoc_transformations() {
        let arch = power7();
        let (nop, _) = arch.isa.get("nop").unwrap();
        let mut synth = Synthesizer::new(arch);
        synth.add_pass(FnPass::new(
            "add-one-nop",
            move |ir: &mut BenchmarkIr, _ctx: &mut PassContext<'_>| {
                ir.slots_mut().push(Slot { opcode: nop, operands: vec![], mem: None });
                Ok(())
            },
        ));
        let bench = synth.synthesize().unwrap();
        assert_eq!(bench.kernel().len(), 1);
    }
}
