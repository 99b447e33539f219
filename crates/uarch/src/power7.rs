//! The complete machine description type and the POWER7-like instance.
//!
//! The POWER7 definition is the data file `specs/power7.uarch`, loaded by
//! [`crate::spec`]; [`power7`] is the entry point the rest of the workspace uses.

use mp_isa::Isa;

use crate::cache::{MemoryHierarchy, UncoreGeometry};
use crate::config::{CmpSmtConfig, SmtMode};
use crate::counters::CounterId;
use crate::energy::EnergyParams;
use crate::iprops::{InstrProps, InstrPropsTable, OpcodePropsTable};
use crate::units::{CorePipes, FloorplanEntry};

/// A complete micro-architecture description: the ISA plus every implementation-specific
/// parameter the generation framework and the simulator need.
///
/// The paper supplies this information as readable text files; so does this
/// reproduction: instances are built by the spec loader ([`crate::spec`]) from
/// `specs/<backend>.uarch` (and remain adjustable afterwards, which is what keeps the
/// generation process architecture-independent).
#[derive(Debug, Clone)]
pub struct MicroArchitecture {
    /// Name of the machine (e.g. `"POWER7"`).
    pub name: String,
    /// The instruction set architecture implemented.
    pub isa: Isa,
    /// Per-core execution resources.
    pub pipes: CorePipes,
    /// Cache hierarchy and memory latency.
    pub hierarchy: MemoryHierarchy,
    /// Chip-level shared uncore: shared L3 geometry and memory-port bandwidth.
    pub uncore: UncoreGeometry,
    /// Maximum number of cores on the chip.
    pub max_cores: u32,
    /// SMT modes the cores support (e.g. 1/2/4 on POWER7, 1/2/4/8 on POWER8-class).
    pub smt_modes: Vec<SmtMode>,
    /// Nominal core frequency in GHz.
    pub frequency_ghz: f64,
    /// Coarse per-unit area floorplan.
    pub floorplan: Vec<FloorplanEntry>,
    /// Parameters of the (hidden) ground-truth energy model for this chip.  Only the
    /// simulator reads these; modeling code never sees them.
    pub energy: EnergyParams,
    /// Platform names of the performance counter events backing each [`CounterId`]
    /// (the PMC mapping of the paper's micro-architecture definition).
    pub pmc_names: Vec<(CounterId, String)>,
    /// 128-bit digest of the ISA + machine spec texts this description was loaded
    /// from; measurement memoization mixes it into job keys so results can never be
    /// confused across backends.  Zero for descriptions not built by the spec loader.
    pub spec_digest: u128,
    /// Per-instruction implementation properties.
    pub iprops: InstrPropsTable,
}

impl MicroArchitecture {
    /// Properties of an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not described; the constructor guarantees that every
    /// ISA instruction has an entry, so this only fires for foreign mnemonics.
    pub fn props(&self, mnemonic: &str) -> &InstrProps {
        self.iprops
            .get(mnemonic)
            .unwrap_or_else(|| panic!("no micro-architecture properties for `{mnemonic}`"))
    }

    /// Builds the [`OpcodeId`](mp_isa::OpcodeId)-indexed snapshot of the instruction
    /// properties, for hot paths that must not hash mnemonic strings (pre-decoders
    /// call this once per kernel, never per issue).
    pub fn opcode_props(&self) -> OpcodePropsTable {
        OpcodePropsTable::build(&self.isa, &self.iprops)
    }

    /// All CMP-SMT configurations supported by the chip
    /// ({1..=max_cores} × supported SMT modes).
    pub fn configurations(&self) -> Vec<CmpSmtConfig> {
        CmpSmtConfig::all_with_modes(self.max_cores, &self.smt_modes)
    }

    /// Platform event name backing a counter (falls back to the counter's own
    /// mnemonic when the spec does not map it).
    pub fn pmc_name(&self, id: CounterId) -> &str {
        self.pmc_names
            .iter()
            .find(|(c, _)| *c == id)
            .map(|(_, n)| n.as_str())
            .unwrap_or_else(|| id.name())
    }

    /// Cycles per millisecond at the nominal frequency (used by the power sensor model).
    pub fn cycles_per_ms(&self) -> f64 {
        self.frequency_ghz * 1e6
    }
}

/// The POWER7-like machine description used throughout the reproduction, loaded from
/// `specs/power7.uarch`: 8 cores, SMT1/2/4, 3.0 GHz, 2 FXU + 2 LSU + 2 VSU pipes per
/// core, 32 KB / 256 KB / 4 MB caches with 128-byte lines, and per-instruction
/// latency/throughput properties derived from the ISA's semantic attributes.
pub fn power7() -> MicroArchitecture {
    crate::spec::backend("power7").expect("power7 machine spec is embedded")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_isa::Unit;

    #[test]
    fn every_isa_instruction_has_properties() {
        for name in crate::backend_names() {
            let m = crate::backend(name).expect("shipped backend loads");
            for def in m.isa.instructions() {
                let p = m.props(def.mnemonic());
                assert!(p.latency_cycles >= 1, "{name}: {} latency", def.mnemonic());
                assert!(p.recip_throughput > 0.0, "{name}: {} throughput", def.mnemonic());
                assert_eq!(p.units, def.units(), "{name}: {} units", def.mnemonic());
            }
        }
    }

    #[test]
    fn table3_ipc_classes_are_reflected_in_throughput() {
        let m = power7();
        // Simple integer ops sustain the highest rate, FXU-only ops 1 per pipe per cycle,
        // update-form loads half the load rate, vector stores the lowest rate.
        assert!(m.props("add").recip_throughput < m.props("subf").recip_throughput + 0.2);
        assert!(m.props("lbz").recip_throughput < m.props("ldux").recip_throughput);
        assert!(m.props("ldux").recip_throughput < m.props("stxvw4x").recip_throughput);
        assert!((m.props("stfd").recip_throughput - 4.17).abs() < 1e-9);
        assert!((m.props("xvmaddadp").recip_throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_derivation_is_sensible() {
        let m = power7();
        assert_eq!(m.props("add").latency_cycles, 1);
        assert_eq!(m.props("mulld").latency_cycles, 4);
        assert_eq!(m.props("fadd").latency_cycles, 6);
        assert!(m.props("divd").latency_cycles > 20);
        assert_eq!(m.props("lwz").latency_cycles, 2);
    }

    #[test]
    fn configurations_cover_the_paper_matrix() {
        let m = power7();
        assert_eq!(m.configurations().len(), 24);
        assert_eq!(m.max_cores, 8);
    }

    #[test]
    fn frequency_and_sampling_constants() {
        let m = power7();
        assert!((m.frequency_ghz - 3.0).abs() < 1e-12);
        assert!((m.cycles_per_ms() - 3.0e6).abs() < 1e-3);
    }

    #[test]
    fn pmc_mapping_covers_every_counter() {
        let m = power7();
        for id in CounterId::ALL {
            assert_eq!(m.pmc_name(id), id.name(), "{id} maps to its platform event");
        }
    }

    #[test]
    #[should_panic(expected = "no micro-architecture properties")]
    fn unknown_mnemonic_panics() {
        let _ = power7().props("not-an-instruction");
    }

    #[test]
    fn vector_stores_stress_lsu_and_vsu_in_props() {
        let m = power7();
        let p = m.props("stxvw4x");
        assert!(p.units.contains(&Unit::Lsu));
        assert!(p.units.contains(&Unit::Vsu));
    }
}
