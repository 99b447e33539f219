//! Executable micro-benchmark kernels.

use mp_isa::{Instruction, Operand};

/// How the generator initialised the data (registers, immediates and memory) consumed by
/// the kernel.
///
/// The paper observes that EPI is largely insensitive to *which* random values are used
/// but that all-zero data can reduce EPI by up to 40% — the operand switching activity in
/// the datapath collapses.  The simulator's ground-truth energy model uses this profile
/// as its operand-switching scale factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataProfile {
    /// Registers/immediates/memory initialised with random values (maximum switching).
    #[default]
    Random,
    /// Initialised with a repeated constant pattern (e.g. `0b01010101`), reduced
    /// switching.
    Constant,
    /// Initialised with zeroes: minimum switching activity.
    Zeros,
}

impl DataProfile {
    /// The operand-dependent switching scale factor applied to datapath energy.
    pub fn switching_factor(self) -> f64 {
        match self {
            DataProfile::Random => 1.0,
            DataProfile::Constant => 0.85,
            DataProfile::Zeros => 0.60,
        }
    }
}

/// An executable micro-benchmark: an endless loop over `body`, as produced by the
/// MicroProbe synthesizer (the paper's common skeleton is a 4 K-instruction endless
/// loop).
///
/// One copy of the kernel is deployed per hardware thread context by
/// [`ChipSim`](crate::ChipSim), mirroring the paper's deployment methodology
/// (Section 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    body: Vec<Instruction>,
    data: DataProfile,
    mispredict_rate: f64,
}

impl Kernel {
    /// Creates a kernel from a loop body.
    ///
    /// # Panics
    ///
    /// Panics if the body is empty or the misprediction rate is outside `[0, 1]`.
    pub fn new(name: impl Into<String>, body: Vec<Instruction>) -> Self {
        let name = name.into();
        assert!(!body.is_empty(), "kernel `{name}` must have a non-empty loop body");
        Self { name, body, data: DataProfile::Random, mispredict_rate: 0.0 }
    }

    /// Sets the data initialisation profile.
    pub fn with_data_profile(mut self, data: DataProfile) -> Self {
        self.data = data;
        self
    }

    /// Sets the misprediction rate applied to conditional branches in the body.
    ///
    /// # Panics
    ///
    /// Panics if the rate is outside `[0, 1]`.
    pub fn with_mispredict_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "misprediction rate must be in [0,1]");
        self.mispredict_rate = rate;
        self
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The loop body.
    pub fn body(&self) -> &[Instruction] {
        &self.body
    }

    /// Number of instructions in the loop body.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Returns `true` if the body is empty (never true for constructed kernels).
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Data initialisation profile.
    pub fn data_profile(&self) -> DataProfile {
        self.data
    }

    /// Conditional branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        self.mispredict_rate
    }

    /// Appends the kernel's *content* — loop body, data profile and misprediction
    /// rate, excluding the name — to `out` as an explicit binary encoding.
    ///
    /// Kernels with equal encodings simulate identically, and the encoding is
    /// self-delimiting, so the bytes serve as the content identity of a kernel: hash
    /// them to key or bucket kernels.  Layout, integers little-endian:
    ///
    /// - body length (`u32`), then per instruction: opcode index (`u32`), operand
    ///   count (`u8`), one tag byte plus payload per operand (`Reg` → register file
    ///   byte + `u16` index; `Imm`, `Displacement`, `BranchTarget` → `i64`;
    ///   `CrField` → `u8`), and a memory tag (`0`, or `1` + `u64` address + `u8`
    ///   bytes + `u8` store flag);
    /// - the data profile byte and the `u64` bits of the misprediction rate.
    pub fn encode_content(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.body.len()).expect("loop bodies fit a u32 length");
        out.extend_from_slice(&len.to_le_bytes());
        for inst in &self.body {
            let opcode = u32::try_from(inst.opcode().index()).expect("opcode ids are u32");
            out.extend_from_slice(&opcode.to_le_bytes());
            out.push(u8::try_from(inst.operands().len()).expect("at most 255 operands"));
            for operand in inst.operands() {
                match *operand {
                    Operand::Reg(reg) => {
                        out.extend_from_slice(&[0, reg.file as u8]);
                        out.extend_from_slice(&reg.index.to_le_bytes());
                    }
                    Operand::Imm(value) => encode_i64(out, 1, value),
                    Operand::Displacement(value) => encode_i64(out, 2, value),
                    Operand::BranchTarget(value) => encode_i64(out, 3, value),
                    Operand::CrField(field) => out.extend_from_slice(&[4, field]),
                }
            }
            match inst.mem() {
                None => out.push(0),
                Some(mem) => {
                    out.push(1);
                    out.extend_from_slice(&mem.address.to_le_bytes());
                    out.extend_from_slice(&[mem.bytes, u8::from(mem.is_store)]);
                }
            }
        }
        out.push(self.data as u8);
        out.extend_from_slice(&self.mispredict_rate.to_bits().to_le_bytes());
    }
}

fn encode_i64(out: &mut Vec<u8>, tag: u8, value: i64) {
    out.push(tag);
    out.extend_from_slice(&value.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_isa::power_isa::power_isa_v206b;
    use mp_isa::{Operand, RegRef};

    fn add_inst() -> Instruction {
        let isa = power_isa_v206b();
        let (id, _) = isa.get("add").unwrap();
        Instruction::new(
            &isa,
            id,
            vec![
                Operand::Reg(RegRef::gpr(1)),
                Operand::Reg(RegRef::gpr(2)),
                Operand::Reg(RegRef::gpr(3)),
            ],
            None,
        )
        .unwrap()
    }

    #[test]
    fn kernel_builders() {
        let k = Kernel::new("k", vec![add_inst()])
            .with_data_profile(DataProfile::Zeros)
            .with_mispredict_rate(0.1);
        assert_eq!(k.name(), "k");
        assert_eq!(k.len(), 1);
        assert_eq!(k.data_profile(), DataProfile::Zeros);
        assert!((k.mispredict_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty loop body")]
    fn empty_body_is_rejected() {
        let _ = Kernel::new("empty", vec![]);
    }

    #[test]
    fn switching_factors_ordered() {
        assert!(DataProfile::Zeros.switching_factor() < DataProfile::Constant.switching_factor());
        assert!(DataProfile::Constant.switching_factor() < DataProfile::Random.switching_factor());
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn invalid_mispredict_rate_is_rejected() {
        let _ = Kernel::new("k", vec![add_inst()]).with_mispredict_rate(1.5);
    }

    fn encoding(kernel: &Kernel) -> Vec<u8> {
        let mut out = Vec::new();
        kernel.encode_content(&mut out);
        out
    }

    #[test]
    fn encode_content_ignores_the_name_but_not_the_content() {
        let a = Kernel::new("a", vec![add_inst()]);
        let renamed = Kernel::new("b", vec![add_inst()]);
        assert_eq!(encoding(&a), encoding(&renamed));
        let zeros = Kernel::new("a", vec![add_inst()]).with_data_profile(DataProfile::Zeros);
        assert_ne!(encoding(&a), encoding(&zeros));
        let longer = Kernel::new("a", vec![add_inst(), add_inst()]);
        assert_ne!(encoding(&a), encoding(&longer));
        let noisy = Kernel::new("a", vec![add_inst()]).with_mispredict_rate(0.25);
        assert_ne!(encoding(&a), encoding(&noisy));
    }

    #[test]
    fn encode_content_appends_a_length_prefixed_record() {
        let a = Kernel::new("a", vec![add_inst()]);
        let bytes = encoding(&a);
        // Body length, then opcode + operand count + three registers + memory tag,
        // then the data profile byte and the misprediction bits.
        assert_eq!(bytes.len(), 4 + (4 + 1 + 3 * 4 + 1) + 1 + 8);
        assert_eq!(bytes[..4], 1u32.to_le_bytes());

        let longer = Kernel::new("b", vec![add_inst(), add_inst()]);
        let mut both = bytes.clone();
        longer.encode_content(&mut both);
        assert_eq!(both, [bytes, encoding(&longer)].concat(), "encoding appends");
    }
}
