//! The program skeleton pass.

use crate::ir::{BenchmarkIr, Slot};
use crate::synth::{Pass, PassContext, PassError};

/// Defines the program skeleton: an endless loop of `n` instruction slots.
///
/// Slots are initialised with the architecture's preferred no-op; subsequent passes
/// replace them with the requested instruction distribution.  The loop-closing branch is
/// implicit in the execution model (kernels wrap around), matching the paper's
/// "single end-less loop of 4096 instructions" skeleton.
#[derive(Debug, Clone)]
pub struct SkeletonPass {
    instructions: usize,
}

impl SkeletonPass {
    /// An endless loop with `instructions` slots.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    pub fn endless_loop(instructions: usize) -> Self {
        assert!(instructions > 0, "the loop body needs at least one instruction");
        Self { instructions }
    }

    /// Number of slots the skeleton creates.
    pub fn instructions(&self) -> usize {
        self.instructions
    }
}

impl Pass for SkeletonPass {
    fn name(&self) -> &str {
        "skeleton"
    }

    fn apply(&self, ir: &mut BenchmarkIr, ctx: &mut PassContext<'_>) -> Result<(), PassError> {
        let (nop, def) = ctx
            .arch
            .isa
            .get("nop")
            .ok_or_else(|| PassError::new(self.name(), "the ISA does not define a no-op"))?;
        debug_assert!(def.operands().is_empty());
        ir.slots_mut().clear();
        ir.slots_mut().extend(
            std::iter::repeat_with(|| Slot { opcode: nop, operands: Vec::new(), mem: None })
                .take(self.instructions),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Synthesizer;
    use mp_uarch::power7;

    #[test]
    fn creates_the_requested_number_of_slots() {
        let mut synth = Synthesizer::new(power7());
        synth.add_pass(SkeletonPass::endless_loop(128));
        let bench = synth.synthesize().unwrap();
        assert_eq!(bench.kernel().len(), 128);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn zero_length_skeleton_is_rejected() {
        let _ = SkeletonPass::endless_loop(0);
    }
}
