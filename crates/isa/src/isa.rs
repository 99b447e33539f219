//! The ISA registry: a queryable collection of instruction definitions.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::def::{InstructionDef, Unit};

/// Opaque identifier of an instruction definition within an [`Isa`].
///
/// `OpcodeId`s are small indices; concrete [`Instruction`](crate::instruction::Instruction)
/// instances refer to their definition through an `OpcodeId` so that programs stay cheap
/// to copy and to hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpcodeId(pub(crate) u32);

impl OpcodeId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpcodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// Errors reported by [`Isa`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// A mnemonic was looked up that the ISA does not define.
    UnknownMnemonic(String),
    /// Two definitions with the same mnemonic were registered.
    DuplicateMnemonic(String),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::UnknownMnemonic(m) => write!(f, "unknown mnemonic `{m}`"),
            IsaError::DuplicateMnemonic(m) => write!(f, "duplicate mnemonic `{m}`"),
        }
    }
}

impl Error for IsaError {}

/// A queryable instruction set architecture definition.
///
/// The registry owns the [`InstructionDef`]s and provides the selection queries that the
/// paper's generation policies rely on (loads, stores, per-unit filters, arbitrary
/// predicates).
#[derive(Debug, Clone, PartialEq)]
pub struct Isa {
    name: String,
    defs: Vec<InstructionDef>,
    by_mnemonic: HashMap<&'static str, OpcodeId>,
}

impl Isa {
    /// Creates an ISA from a list of instruction definitions.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::DuplicateMnemonic`] if two definitions share a mnemonic.
    pub fn new(name: impl Into<String>, defs: Vec<InstructionDef>) -> Result<Self, IsaError> {
        let mut by_mnemonic = HashMap::with_capacity(defs.len());
        for (idx, def) in defs.iter().enumerate() {
            if by_mnemonic.insert(def.mnemonic(), OpcodeId(idx as u32)).is_some() {
                return Err(IsaError::DuplicateMnemonic(def.mnemonic().to_owned()));
            }
        }
        Ok(Self { name: name.into(), defs, by_mnemonic })
    }

    /// Name of the ISA (e.g. `"PowerISA-2.06B"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of instructions defined.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Returns `true` if the ISA defines no instructions.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Iterates over all instruction definitions.
    pub fn instructions(&self) -> impl Iterator<Item = &InstructionDef> {
        self.defs.iter()
    }

    /// Iterates over `(OpcodeId, &InstructionDef)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (OpcodeId, &InstructionDef)> {
        self.defs.iter().enumerate().map(|(i, d)| (OpcodeId(i as u32), d))
    }

    /// Looks up a definition by its identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this ISA.
    pub fn def(&self, id: OpcodeId) -> &InstructionDef {
        &self.defs[id.index()]
    }

    /// Looks up a definition by mnemonic.
    pub fn get(&self, mnemonic: &str) -> Option<(OpcodeId, &InstructionDef)> {
        self.by_mnemonic.get(mnemonic).map(|id| (*id, &self.defs[id.index()]))
    }

    /// Looks up an [`OpcodeId`] by mnemonic.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnknownMnemonic`] if the ISA does not define the mnemonic.
    pub fn opcode(&self, mnemonic: &str) -> Result<OpcodeId, IsaError> {
        self.by_mnemonic
            .get(mnemonic)
            .copied()
            .ok_or_else(|| IsaError::UnknownMnemonic(mnemonic.to_owned()))
    }

    /// Returns the ids of all instructions matching a predicate.
    pub fn select<F>(&self, mut predicate: F) -> Vec<OpcodeId>
    where
        F: FnMut(&InstructionDef) -> bool,
    {
        self.entries().filter(|(_, d)| predicate(d)).map(|(id, _)| id).collect()
    }

    /// All load instructions.
    pub fn loads(&self) -> Vec<OpcodeId> {
        self.select(InstructionDef::is_load)
    }

    /// All store instructions.
    pub fn stores(&self) -> Vec<OpcodeId> {
        self.select(InstructionDef::is_store)
    }

    /// All branch instructions.
    pub fn branches(&self) -> Vec<OpcodeId> {
        self.select(InstructionDef::is_branch)
    }

    /// All instructions that stress the given functional unit.
    pub fn stressing(&self, unit: Unit) -> Vec<OpcodeId> {
        self.select(|d| d.stresses(unit))
    }

    /// All non-memory, non-branch, unprivileged compute instructions — the population
    /// the paper samples for its "Unit Mix" and random micro-benchmarks.
    pub fn compute_instructions(&self) -> Vec<OpcodeId> {
        self.select(|d| !d.is_memory() && !d.is_branch() && !d.is_privileged())
    }
}

impl<'a> IntoIterator for &'a Isa {
    type Item = &'a InstructionDef;
    type IntoIter = std::slice::Iter<'a, InstructionDef>;

    fn into_iter(self) -> Self::IntoIter {
        self.defs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::{Format, IssueClass, LatencyClass, OperandWidth};
    use crate::flags::InstrFlags;
    use crate::operand::OperandKind;

    fn tiny_isa() -> Isa {
        let defs = vec![
            InstructionDef::builder("add", Format::Xo, 31)
                .flags(InstrFlags::INTEGER)
                .issue(IssueClass::FxuOrLsu)
                .operand(OperandKind::gpr_write())
                .operand(OperandKind::gpr_read())
                .operand(OperandKind::gpr_read())
                .build(),
            InstructionDef::builder("lwz", Format::D, 32)
                .flags(InstrFlags::LOAD | InstrFlags::INTEGER)
                .issue(IssueClass::Lsu)
                .width(OperandWidth::W32)
                .latency(LatencyClass::Memory)
                .mem_bytes(4)
                .operand(OperandKind::gpr_write())
                .operand(OperandKind::Displacement { bits: 16 })
                .operand(OperandKind::gpr_read())
                .build(),
            InstructionDef::builder("b", Format::I, 18)
                .flags(InstrFlags::BRANCH)
                .issue(IssueClass::Bru)
                .latency(LatencyClass::Control)
                .operand(OperandKind::BranchTarget { bits: 24 })
                .build(),
        ];
        Isa::new("tiny", defs).expect("tiny ISA is valid")
    }

    #[test]
    fn lookup_by_mnemonic_and_id_agree() {
        let isa = tiny_isa();
        let (id, def) = isa.get("lwz").expect("lwz defined");
        assert_eq!(def.mnemonic(), "lwz");
        assert_eq!(isa.def(id).mnemonic(), "lwz");
        assert_eq!(isa.opcode("lwz").unwrap(), id);
    }

    #[test]
    fn unknown_mnemonic_is_an_error() {
        let isa = tiny_isa();
        assert!(matches!(isa.opcode("frobnicate"), Err(IsaError::UnknownMnemonic(_))));
        assert!(isa.get("frobnicate").is_none());
    }

    #[test]
    fn duplicate_mnemonics_are_rejected() {
        let def = InstructionDef::builder("add", Format::Xo, 31)
            .flags(InstrFlags::INTEGER)
            .issue(IssueClass::Fxu)
            .operand(OperandKind::gpr_write())
            .build();
        let err = Isa::new("dup", vec![def.clone(), def]).unwrap_err();
        assert_eq!(err, IsaError::DuplicateMnemonic("add".to_owned()));
    }

    #[test]
    fn selection_queries() {
        let isa = tiny_isa();
        assert_eq!(isa.loads().len(), 1);
        assert_eq!(isa.stores().len(), 0);
        assert_eq!(isa.branches().len(), 1);
        assert_eq!(isa.stressing(Unit::Lsu).len(), 2); // lwz + add (FxuOrLsu)
        assert_eq!(isa.compute_instructions().len(), 1);
    }

    #[test]
    fn iteration_matches_len() {
        let isa = tiny_isa();
        assert_eq!(isa.instructions().count(), isa.len());
        assert_eq!((&isa).into_iter().count(), isa.len());
        assert!(!isa.is_empty());
    }
}
