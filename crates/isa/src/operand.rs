//! Operand descriptors (what an instruction accepts) and operand values (what a concrete
//! instruction instance carries).

use std::fmt;

use crate::register::{RegAccess, RegRef, RegisterFile};

/// Description of one operand slot of an instruction definition.
///
/// An [`InstructionDef`](crate::def::InstructionDef) carries an ordered list of
/// `OperandKind`s; a concrete [`Instruction`](crate::instruction::Instruction) binds each
/// of them to an [`Operand`] value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// A register operand in a given register file with a given access mode.
    Reg {
        /// Register file the operand addresses.
        file: RegisterFile,
        /// Whether the register is read, written or both.
        access: RegAccess,
    },
    /// An immediate operand of `bits` significant bits.
    Imm {
        /// Width of the immediate in bits.
        bits: u8,
        /// Whether the immediate is sign-extended.
        signed: bool,
    },
    /// A memory displacement (D-form / DS-form offset), always relative to a base GPR.
    Displacement {
        /// Width of the displacement field in bits.
        bits: u8,
    },
    /// A branch target displacement.
    BranchTarget {
        /// Width of the target field in bits.
        bits: u8,
    },
    /// A condition register field operand.
    CrField {
        /// Whether the CR field is read, written or both.
        access: RegAccess,
    },
}

impl OperandKind {
    /// Shorthand for a read GPR operand.
    pub const fn gpr_read() -> Self {
        OperandKind::Reg { file: RegisterFile::Gpr, access: RegAccess::Read }
    }

    /// Shorthand for a written GPR operand.
    pub const fn gpr_write() -> Self {
        OperandKind::Reg { file: RegisterFile::Gpr, access: RegAccess::Write }
    }

    /// Register file addressed by the operand, if it is a register operand.
    pub const fn register_file(&self) -> Option<RegisterFile> {
        match self {
            OperandKind::Reg { file, .. } => Some(*file),
            OperandKind::CrField { .. } => Some(RegisterFile::Cr),
            _ => None,
        }
    }

    /// Access mode of the operand, if it is a register operand.
    pub const fn access(&self) -> Option<RegAccess> {
        match self {
            OperandKind::Reg { access, .. } | OperandKind::CrField { access } => Some(*access),
            _ => None,
        }
    }

    /// Maximum representable magnitude of an immediate-like operand.
    ///
    /// Returns `None` for register operands.
    pub fn immediate_range(&self) -> Option<(i64, i64)> {
        match *self {
            OperandKind::Imm { bits, signed } => Some(immediate_range(bits, signed)),
            OperandKind::Displacement { bits } | OperandKind::BranchTarget { bits } => {
                Some(immediate_range(bits, true))
            }
            _ => None,
        }
    }
}

fn immediate_range(bits: u8, signed: bool) -> (i64, i64) {
    assert!(bits > 0 && bits <= 32, "immediate width must be 1..=32 bits, got {bits}");
    if signed {
        let max = (1i64 << (bits - 1)) - 1;
        (-(max + 1), max)
    } else {
        (0, (1i64 << bits) - 1)
    }
}

/// A bound operand value of a concrete instruction instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A concrete register.
    Reg(RegRef),
    /// An immediate value.
    Imm(i64),
    /// A memory displacement.
    Displacement(i64),
    /// A branch target displacement (in instructions, relative to the branch).
    BranchTarget(i64),
    /// A condition register field index.
    CrField(u8),
}

impl Operand {
    /// The register, if this is a register operand.
    pub const fn as_reg(&self) -> Option<RegRef> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// Returns `true` if the value is compatible with the operand slot description.
    pub fn matches(&self, kind: &OperandKind) -> bool {
        match (self, kind) {
            (Operand::Reg(r), OperandKind::Reg { file, .. }) => r.file == *file,
            (Operand::CrField(idx), OperandKind::CrField { .. }) => *idx < 8,
            (Operand::Imm(v), OperandKind::Imm { .. })
            | (Operand::Displacement(v), OperandKind::Displacement { .. })
            | (Operand::BranchTarget(v), OperandKind::BranchTarget { .. }) => {
                let (lo, hi) = kind.immediate_range().expect("immediate kind has a range");
                *v >= lo && *v <= hi
            }
            _ => false,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) | Operand::Displacement(v) | Operand::BranchTarget(v) => {
                write!(f, "{v}")
            }
            Operand::CrField(v) => write!(f, "cr{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_ranges() {
        assert_eq!(
            OperandKind::Imm { bits: 16, signed: true }.immediate_range(),
            Some((-32768, 32767))
        );
        assert_eq!(
            OperandKind::Imm { bits: 16, signed: false }.immediate_range(),
            Some((0, 65535))
        );
        assert_eq!(OperandKind::gpr_read().immediate_range(), None);
    }

    #[test]
    fn operand_matching_checks_file_and_range() {
        let gpr = OperandKind::gpr_read();
        assert!(Operand::Reg(RegRef::gpr(5)).matches(&gpr));
        assert!(!Operand::Reg(RegRef::fpr(5)).matches(&gpr));

        let imm = OperandKind::Imm { bits: 16, signed: true };
        assert!(Operand::Imm(1000).matches(&imm));
        assert!(!Operand::Imm(70000).matches(&imm));
        assert!(!Operand::Reg(RegRef::gpr(0)).matches(&imm));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Operand::Reg(RegRef::gpr(7)).to_string(), "r7");
        assert_eq!(Operand::Imm(-12).to_string(), "-12");
        assert_eq!(Operand::CrField(3).to_string(), "cr3");
    }

    #[test]
    fn register_file_and_access_queries() {
        let k = OperandKind::Reg { file: RegisterFile::Vsr, access: RegAccess::Write };
        assert_eq!(k.register_file(), Some(RegisterFile::Vsr));
        assert_eq!(k.access(), Some(RegAccess::Write));
    }
}
