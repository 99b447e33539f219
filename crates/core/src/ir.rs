//! The internal representation transformed by the synthesizer passes and the final
//! micro-benchmark artifact.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

use mp_isa::{Instruction, Isa, MemAccess, OpcodeId, Operand, OperandKind, RegRef};
use mp_sim::{DataProfile, Kernel};

/// One instruction slot of the benchmark body.
///
/// A slot starts as a bare opcode with default operands and is refined by subsequent
/// passes (register allocation, memory address assignment, immediate initialisation).
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// The instruction occupying the slot.
    pub opcode: OpcodeId,
    /// Operand values (always the full operand count of the definition).
    pub operands: Vec<Operand>,
    /// Resolved memory access for memory instructions.
    pub mem: Option<MemAccess>,
}

/// The mutable internal representation of a micro-benchmark while passes run on it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkIr {
    name: String,
    slots: Vec<Slot>,
    data: DataProfile,
    mispredict_rate: f64,
}

impl BenchmarkIr {
    /// Creates an empty IR (no slots yet); the skeleton pass populates it.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            slots: Vec::new(),
            data: DataProfile::Random,
            mispredict_rate: 0.0,
        }
    }

    /// Benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction slots.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Mutable access to the instruction slots.
    pub fn slots_mut(&mut self) -> &mut Vec<Slot> {
        &mut self.slots
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when no slots exist yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Data initialisation profile.
    pub fn data_profile(&self) -> DataProfile {
        self.data
    }

    /// Sets the data initialisation profile (register/immediate/memory init passes).
    pub fn set_data_profile(&mut self, data: DataProfile) {
        self.data = data;
    }

    /// Conditional-branch misprediction rate configured by the branch behaviour pass.
    pub fn mispredict_rate(&self) -> f64 {
        self.mispredict_rate
    }

    /// Sets the conditional-branch misprediction rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is outside `[0, 1]`.
    pub fn set_mispredict_rate(&mut self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "misprediction rate must be in [0,1]");
        self.mispredict_rate = rate;
    }

    /// Finalises the IR into an immutable [`MicroBenchmark`], validating every slot
    /// against the ISA.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed slot, if any.
    pub fn finalize(&self, isa: &Isa) -> Result<MicroBenchmark, String> {
        if self.slots.is_empty() {
            return Err(format!("benchmark `{}` has no instructions", self.name));
        }
        let mut body = Vec::with_capacity(self.slots.len());
        for (idx, slot) in self.slots.iter().enumerate() {
            let inst = Instruction::new(isa, slot.opcode, slot.operands.clone(), slot.mem)
                .map_err(|e| format!("slot {idx}: {e}"))?;
            body.push(inst);
        }
        let kernel = Kernel::new(self.name.clone(), body)
            .with_data_profile(self.data)
            .with_mispredict_rate(self.mispredict_rate);
        Ok(MicroBenchmark { kernel: Arc::new(kernel) })
    }
}

/// A finalised micro-benchmark: the artifact produced by the synthesizer, runnable on a
/// [`Platform`](crate::platform::Platform) and exportable as assembly text.
///
/// The kernel is shared, so cloning a benchmark (into a measured population, a plan
/// or a result row) does not copy its instruction body.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroBenchmark {
    kernel: Arc<Kernel>,
}

impl MicroBenchmark {
    /// The executable kernel (endless loop body plus execution attributes).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Benchmark name.
    pub fn name(&self) -> &str {
        self.kernel.name()
    }

    /// Renders the benchmark as an assembly listing wrapped in an endless loop, the
    /// equivalent of the `.c`/`.s` files the paper's framework saves.
    pub fn to_asm(&self, isa: &Isa) -> String {
        mp_isa::asm::format_listing(isa, self.kernel.body(), Some("ubench_loop"))
    }
}

/// Materialises a default operand value for an operand slot.
///
/// Register operands receive a register chosen from a small rotating pool (destination
/// registers rotate with `slot_index` so that consecutive instructions are independent by
/// default); immediates and displacements receive small in-range values.  Passes that
/// care about registers, immediates or addresses overwrite these defaults later.
pub fn default_operand(kind: &OperandKind, slot_index: usize, rng: &mut SmallRng) -> Operand {
    match *kind {
        OperandKind::Reg { file, access } => {
            let pool = 8u16.min(file.count());
            let idx = if access.writes() {
                (slot_index as u16) % pool
            } else {
                pool + (rng.gen_range(0..pool)) % (file.count() - pool).max(1)
            };
            Operand::Reg(RegRef::new(file, idx.min(file.count() - 1)))
        }
        OperandKind::Imm { bits, signed } => {
            let (lo, hi) = OperandKind::Imm { bits, signed }
                .immediate_range()
                .expect("immediate kinds have a range");
            Operand::Imm(rng.gen_range(lo..=hi.min(255)))
        }
        OperandKind::Displacement { .. } => Operand::Displacement(0),
        OperandKind::BranchTarget { .. } => Operand::BranchTarget(0),
        OperandKind::CrField { .. } => Operand::CrField(0),
    }
}

/// Materialises the full default operand list for an instruction definition.
pub fn default_operands(
    isa: &Isa,
    opcode: OpcodeId,
    slot_index: usize,
    rng: &mut SmallRng,
) -> Vec<Operand> {
    isa.def(opcode).operands().iter().map(|kind| default_operand(kind, slot_index, rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_isa::power_isa::power_isa_v206b;
    use rand::SeedableRng;

    #[test]
    fn finalize_validates_slots() {
        let isa = power_isa_v206b();
        let mut rng = SmallRng::seed_from_u64(1);
        let (add, _) = isa.get("add").unwrap();
        let mut ir = BenchmarkIr::new("t");
        assert!(ir.finalize(&isa).is_err(), "empty IR must not finalize");
        ir.slots_mut().push(Slot {
            opcode: add,
            operands: default_operands(&isa, add, 0, &mut rng),
            mem: None,
        });
        let bench = ir.finalize(&isa).expect("valid IR finalizes");
        assert_eq!(bench.kernel().len(), 1);
        assert_eq!(bench.name(), "t");
    }

    #[test]
    fn finalize_reports_malformed_slots() {
        let isa = power_isa_v206b();
        let (lwz, _) = isa.get("lwz").unwrap();
        let mut ir = BenchmarkIr::new("bad");
        // Memory instruction without a resolved address: must be rejected.
        ir.slots_mut().push(Slot {
            opcode: lwz,
            operands: vec![
                Operand::Reg(RegRef::gpr(1)),
                Operand::Displacement(0),
                Operand::Reg(RegRef::gpr(2)),
            ],
            mem: None,
        });
        let err = ir.finalize(&isa).unwrap_err();
        assert!(err.contains("slot 0"));
    }

    #[test]
    fn default_operands_match_definitions() {
        let isa = power_isa_v206b();
        let mut rng = SmallRng::seed_from_u64(7);
        for (id, def) in isa.entries() {
            let ops = default_operands(&isa, id, 3, &mut rng);
            assert_eq!(ops.len(), def.operands().len(), "{}", def.mnemonic());
            for (op, kind) in ops.iter().zip(def.operands()) {
                assert!(op.matches(kind), "{}: {op:?} vs {kind:?}", def.mnemonic());
            }
        }
    }

    #[test]
    fn asm_export_contains_loop_label() {
        let isa = power_isa_v206b();
        let mut rng = SmallRng::seed_from_u64(2);
        let (add, _) = isa.get("add").unwrap();
        let mut ir = BenchmarkIr::new("asm");
        ir.slots_mut().push(Slot {
            opcode: add,
            operands: default_operands(&isa, add, 0, &mut rng),
            mem: None,
        });
        let asm = ir.finalize(&isa).unwrap().to_asm(&isa);
        assert!(asm.contains("ubench_loop:"));
        assert!(asm.contains("add "));
    }

    #[test]
    fn data_profile_and_mispredict_rate_propagate() {
        let isa = power_isa_v206b();
        let mut rng = SmallRng::seed_from_u64(3);
        let (xor, _) = isa.get("xor").unwrap();
        let mut ir = BenchmarkIr::new("p");
        ir.slots_mut().push(Slot {
            opcode: xor,
            operands: default_operands(&isa, xor, 0, &mut rng),
            mem: None,
        });
        ir.set_data_profile(DataProfile::Zeros);
        ir.set_mispredict_rate(0.25);
        let bench = ir.finalize(&isa).unwrap();
        assert_eq!(bench.kernel().data_profile(), DataProfile::Zeros);
        assert!((bench.kernel().mispredict_rate() - 0.25).abs() < 1e-12);
    }
}
