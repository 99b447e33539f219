//! Instruction definitions: the static description of each instruction of the ISA.

use std::fmt;

use crate::flags::InstrFlags;
use crate::operand::OperandKind;

/// Instruction encoding format, following the Power ISA manual nomenclature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Format {
    /// D-form: opcode, RT/RS, RA, 16-bit immediate/displacement.
    D,
    /// DS-form: like D but with a 14-bit displacement (doubleword memory ops).
    Ds,
    /// X-form: opcode, RT/RS, RA, RB, extended opcode.
    X,
    /// XO-form: arithmetic with OE/Rc bits.
    Xo,
    /// A-form: four register operands (fused multiply-add).
    A,
    /// M-form / MD-form rotates.
    M,
    /// XX1/XX2/XX3-form VSX operations.
    Xx3,
    /// VX/VA-form VMX operations.
    Vx,
    /// B-form conditional branches.
    B,
    /// I-form unconditional branches.
    I,
    /// XL-form branches to LR/CTR and CR logical ops.
    Xl,
    /// XFX-form moves to/from SPRs.
    Xfx,
    /// Z23/Z22-form decimal floating point.
    Z,
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Functional units of a POWER7-class core that an instruction can stress.
///
/// The mapping from instructions to the units they stress is the key piece of
/// micro-architecture semantics that the paper's framework exposes to generation
/// policies (used e.g. to select "the loads that stress the VSU" in Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Unit {
    /// Instruction fetch unit.
    Ifu,
    /// Instruction sequencing unit (dispatch/completion).
    Isu,
    /// Fixed point unit.
    Fxu,
    /// Load/store unit.
    Lsu,
    /// Vector and scalar unit (FP, VMX, VSX and DFP datapaths).
    Vsu,
    /// Decimal floating point pipe (physically part of the VSU on POWER7).
    Dfu,
    /// Branch/condition unit.
    Bru,
}

impl Unit {
    /// All functional units, in a stable order.
    pub const ALL: [Unit; 7] =
        [Unit::Ifu, Unit::Isu, Unit::Fxu, Unit::Lsu, Unit::Vsu, Unit::Dfu, Unit::Bru];

    /// Short upper-case name used in tables ("FXU", "LSU", ...).
    pub const fn name(self) -> &'static str {
        match self {
            Unit::Ifu => "IFU",
            Unit::Isu => "ISU",
            Unit::Fxu => "FXU",
            Unit::Lsu => "LSU",
            Unit::Vsu => "VSU",
            Unit::Dfu => "DFU",
            Unit::Bru => "BRU",
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Issue class: which execution pipes can issue the instruction.
///
/// POWER7 can execute *simple* fixed point operations in both its FXU and LSU pipes,
/// which is why the paper's taxonomy has an "FXU or LSU" category with IPC 3.5+.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueClass {
    /// Fixed point pipes only.
    Fxu,
    /// Load/store pipes only.
    Lsu,
    /// Either a fixed point or a load/store pipe (simple integer ops).
    FxuOrLsu,
    /// Vector/scalar pipes.
    Vsu,
    /// Decimal pipe.
    Dfu,
    /// Branch pipe.
    Bru,
}

impl IssueClass {
    /// The functional units able to execute instructions of this class.
    pub fn units(self) -> &'static [Unit] {
        match self {
            IssueClass::Fxu => &[Unit::Fxu],
            IssueClass::Lsu => &[Unit::Lsu],
            IssueClass::FxuOrLsu => &[Unit::Fxu, Unit::Lsu],
            IssueClass::Vsu => &[Unit::Vsu],
            IssueClass::Dfu => &[Unit::Dfu],
            IssueClass::Bru => &[Unit::Bru],
        }
    }
}

impl fmt::Display for IssueClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssueClass::FxuOrLsu => f.write_str("FXU|LSU"),
            other => write!(f, "{:?}", other),
        }
    }
}

/// Coarse latency class of an instruction (the concrete cycle counts are part of the
/// micro-architecture definition, not the ISA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LatencyClass {
    /// Single-cycle simple operations.
    Simple,
    /// Short fixed multi-cycle operations (multiplies, FP adds).
    Medium,
    /// Long fixed-latency operations (FP divide/sqrt pipelines).
    Long,
    /// Very long, mostly unpipelined operations (integer divide, decimal ops).
    VeryLong,
    /// Memory access: latency depends on the memory hierarchy level hit.
    Memory,
    /// Control flow: latency depends on prediction.
    Control,
}

/// Width of the data operated on, in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OperandWidth {
    /// 8-bit data.
    W8,
    /// 16-bit data.
    W16,
    /// 32-bit data.
    W32,
    /// 64-bit data.
    W64,
    /// 128-bit (vector) data.
    W128,
}

impl OperandWidth {
    /// Width in bits.
    pub const fn bits(self) -> u16 {
        match self {
            OperandWidth::W8 => 8,
            OperandWidth::W16 => 16,
            OperandWidth::W32 => 32,
            OperandWidth::W64 => 64,
            OperandWidth::W128 => 128,
        }
    }

    /// Width in bytes.
    pub const fn bytes(self) -> u16 {
        self.bits() / 8
    }
}

/// Static definition of one instruction of the ISA.
///
/// Instances are created through [`InstructionDef::builder`] and are normally obtained
/// from the [`Isa`](crate::isa::Isa) registry rather than constructed by hand.
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionDef {
    mnemonic: &'static str,
    description: &'static str,
    format: Format,
    flags: InstrFlags,
    issue: IssueClass,
    units: Vec<Unit>,
    width: OperandWidth,
    latency: LatencyClass,
    complexity: f64,
    mem_bytes: u8,
    operands: Vec<OperandKind>,
    opcode: u8,
    xo: u16,
}

impl InstructionDef {
    /// Starts building an instruction definition.
    pub fn builder(mnemonic: &'static str, format: Format, opcode: u8) -> InstructionDefBuilder {
        InstructionDefBuilder {
            def: InstructionDef {
                mnemonic,
                description: "",
                format,
                flags: InstrFlags::empty(),
                issue: IssueClass::Fxu,
                units: Vec::new(),
                width: OperandWidth::W64,
                latency: LatencyClass::Simple,
                complexity: 1.0,
                mem_bytes: 0,
                operands: Vec::new(),
                opcode,
                xo: 0,
            },
        }
    }

    /// Assembly mnemonic (e.g. `"lxvw4x"`).
    pub fn mnemonic(&self) -> &'static str {
        self.mnemonic
    }

    /// Human readable description from the ISA manual.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Encoding format.
    pub fn format(&self) -> Format {
        self.format
    }

    /// Semantic attribute flags.
    pub fn flags(&self) -> InstrFlags {
        self.flags
    }

    /// Issue class (which pipes can execute the instruction).
    pub fn issue_class(&self) -> IssueClass {
        self.issue
    }

    /// Functional units stressed when the instruction executes.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Returns `true` if executing the instruction stresses `unit`.
    pub fn stresses(&self, unit: Unit) -> bool {
        self.units.contains(&unit)
    }

    /// Width of the data operated on.
    pub fn operand_width(&self) -> OperandWidth {
        self.width
    }

    /// Coarse latency class.
    pub fn latency_class(&self) -> LatencyClass {
        self.latency
    }

    /// Relative datapath complexity hint (1.0 = simple 64-bit integer add).
    ///
    /// This mirrors the per-instruction energy/complexity information that the paper's
    /// micro-architecture definition module associates with instructions; the simulator
    /// substrate uses it to derive its hidden ground-truth energy cost.
    pub fn complexity(&self) -> f64 {
        self.complexity
    }

    /// Number of bytes read/written from memory, 0 for non-memory instructions.
    pub fn mem_bytes(&self) -> u8 {
        self.mem_bytes
    }

    /// Ordered operand slot descriptions.
    pub fn operands(&self) -> &[OperandKind] {
        &self.operands
    }

    /// Primary opcode field (6 bits).
    pub fn opcode(&self) -> u8 {
        self.opcode
    }

    /// Extended opcode field.
    pub fn extended_opcode(&self) -> u16 {
        self.xo
    }

    /// Returns `true` if the instruction reads memory.
    pub fn is_load(&self) -> bool {
        self.flags.contains(InstrFlags::LOAD)
    }

    /// Returns `true` if the instruction writes memory.
    pub fn is_store(&self) -> bool {
        self.flags.contains(InstrFlags::STORE)
    }

    /// Returns `true` if the instruction accesses memory (load, store or prefetch).
    pub fn is_memory(&self) -> bool {
        self.flags.intersects(InstrFlags::LOAD | InstrFlags::STORE | InstrFlags::PREFETCH)
    }

    /// Returns `true` if the instruction changes control flow.
    pub fn is_branch(&self) -> bool {
        self.flags.contains(InstrFlags::BRANCH)
    }

    /// Returns `true` for vector (VMX/VSX) instructions.
    pub fn is_vector(&self) -> bool {
        self.flags.contains(InstrFlags::VECTOR)
    }

    /// Returns `true` for decimal floating point instructions.
    pub fn is_decimal(&self) -> bool {
        self.flags.contains(InstrFlags::DECIMAL)
    }

    /// Returns `true` for fixed point (integer) instructions.
    pub fn is_integer(&self) -> bool {
        self.flags.contains(InstrFlags::INTEGER)
    }

    /// Returns `true` if the instruction requires a privileged state.
    pub fn is_privileged(&self) -> bool {
        self.flags.contains(InstrFlags::PRIVILEGED)
    }

    /// Returns `true` for data prefetch hints.
    pub fn is_prefetch(&self) -> bool {
        self.flags.contains(InstrFlags::PREFETCH)
    }

    /// Returns `true` if the instruction executes conditionally.
    pub fn is_conditional(&self) -> bool {
        self.flags.contains(InstrFlags::CONDITIONAL)
    }

    /// Returns `true` for update-form memory accesses (they also write the base GPR).
    pub fn is_update_form(&self) -> bool {
        self.flags.contains(InstrFlags::UPDATE_FORM)
    }
}

impl fmt::Display for InstructionDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}-form, {})", self.mnemonic, self.format, self.issue)
    }
}

/// Builder for [`InstructionDef`]; used by the ISA definition tables.
#[derive(Debug, Clone)]
pub struct InstructionDefBuilder {
    def: InstructionDef,
}

impl InstructionDefBuilder {
    /// Sets the human readable description.
    pub fn description(mut self, description: &'static str) -> Self {
        self.def.description = description;
        self
    }

    /// Adds semantic flags.
    pub fn flags(mut self, flags: InstrFlags) -> Self {
        self.def.flags |= flags;
        self
    }

    /// Sets the issue class and the stressed units implied by it.
    pub fn issue(mut self, issue: IssueClass) -> Self {
        self.def.issue = issue;
        for unit in issue.units() {
            if !self.def.units.contains(unit) {
                self.def.units.push(*unit);
            }
        }
        self
    }

    /// Declares an additional stressed functional unit (beyond the issue class units).
    pub fn also_stresses(mut self, unit: Unit) -> Self {
        if !self.def.units.contains(&unit) {
            self.def.units.push(unit);
        }
        self
    }

    /// Sets the operand data width.
    pub fn width(mut self, width: OperandWidth) -> Self {
        self.def.width = width;
        self
    }

    /// Sets the coarse latency class.
    pub fn latency(mut self, latency: LatencyClass) -> Self {
        self.def.latency = latency;
        self
    }

    /// Sets the relative datapath complexity hint.
    pub fn complexity(mut self, complexity: f64) -> Self {
        assert!(complexity > 0.0, "complexity must be positive");
        self.def.complexity = complexity;
        self
    }

    /// Declares the number of memory bytes accessed.
    pub fn mem_bytes(mut self, bytes: u8) -> Self {
        self.def.mem_bytes = bytes;
        self
    }

    /// Appends an operand slot.
    pub fn operand(mut self, operand: OperandKind) -> Self {
        self.def.operands.push(operand);
        self
    }

    /// Appends several operand slots.
    pub fn operands(mut self, operands: &[OperandKind]) -> Self {
        self.def.operands.extend_from_slice(operands);
        self
    }

    /// Sets the extended opcode.
    pub fn xo(mut self, xo: u16) -> Self {
        self.def.xo = xo;
        self
    }

    /// Finalises the definition.
    ///
    /// # Panics
    ///
    /// Panics if a memory flag is set but no memory width was declared, or vice versa —
    /// catching definition-table typos early.
    pub fn build(self) -> InstructionDef {
        let def = self.def;
        let is_mem = def.flags.intersects(InstrFlags::LOAD | InstrFlags::STORE);
        assert!(
            !(is_mem && def.mem_bytes == 0),
            "{}: memory instruction must declare mem_bytes",
            def.mnemonic
        );
        assert!(
            !(def.mem_bytes > 0 && !is_mem && !def.flags.contains(InstrFlags::PREFETCH)),
            "{}: non-memory instruction must not declare mem_bytes",
            def.mnemonic
        );
        assert!(
            !def.units.is_empty(),
            "{}: instruction must stress at least one unit",
            def.mnemonic
        );
        def
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::register::{RegAccess, RegisterFile};

    fn sample_load() -> InstructionDef {
        InstructionDef::builder("lwz", Format::D, 32)
            .description("Load Word and Zero")
            .flags(InstrFlags::LOAD | InstrFlags::INTEGER)
            .issue(IssueClass::Lsu)
            .width(OperandWidth::W32)
            .latency(LatencyClass::Memory)
            .mem_bytes(4)
            .operand(OperandKind::gpr_write())
            .operand(OperandKind::Displacement { bits: 16 })
            .operand(OperandKind::gpr_read())
            .build()
    }

    #[test]
    fn builder_produces_consistent_definition() {
        let def = sample_load();
        assert!(def.is_load());
        assert!(!def.is_store());
        assert!(def.is_memory());
        assert_eq!(def.mem_bytes(), 4);
        assert_eq!(def.units(), &[Unit::Lsu]);
        assert!(def.stresses(Unit::Lsu));
        assert!(!def.stresses(Unit::Vsu));
    }

    #[test]
    #[should_panic(expected = "must declare mem_bytes")]
    fn builder_rejects_load_without_mem_bytes() {
        let _ = InstructionDef::builder("bad", Format::D, 32)
            .flags(InstrFlags::LOAD)
            .issue(IssueClass::Lsu)
            .operand(OperandKind::gpr_write())
            .build();
    }

    #[test]
    fn issue_class_units() {
        assert_eq!(IssueClass::FxuOrLsu.units(), &[Unit::Fxu, Unit::Lsu]);
        assert_eq!(IssueClass::Vsu.units(), &[Unit::Vsu]);
    }

    #[test]
    fn also_stresses_adds_units_once() {
        let def = InstructionDef::builder("stxvw4x", Format::Xx3, 31)
            .flags(InstrFlags::STORE | InstrFlags::VECTOR)
            .issue(IssueClass::Lsu)
            .also_stresses(Unit::Vsu)
            .also_stresses(Unit::Vsu)
            .width(OperandWidth::W128)
            .mem_bytes(16)
            .operand(OperandKind::Reg { file: RegisterFile::Vsr, access: RegAccess::Read })
            .operand(OperandKind::gpr_read())
            .operand(OperandKind::gpr_read())
            .build();
        assert_eq!(def.units(), &[Unit::Lsu, Unit::Vsu]);
    }

    #[test]
    fn operand_width_conversions() {
        assert_eq!(OperandWidth::W128.bits(), 128);
        assert_eq!(OperandWidth::W128.bytes(), 16);
        assert_eq!(OperandWidth::W8.bytes(), 1);
    }

    #[test]
    fn display_mentions_mnemonic_and_issue() {
        let s = sample_load().to_string();
        assert!(s.contains("lwz"));
        assert!(s.contains("Lsu"));
    }
}
