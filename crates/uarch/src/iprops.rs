//! Per-instruction implementation properties (latency, throughput, stressed units, EPI).

use std::collections::HashMap;

use mp_isa::{Isa, OpcodeId, Unit};

/// Implementation properties of one instruction on the target micro-architecture.
///
/// The static fields (latency, reciprocal throughput, stressed units) come from the
/// machine description; the measured fields (`epi`, `avg_power`, `measured_ipc`) start
/// out as `None` and are filled in by MicroProbe's automatic bootstrap process
/// (Section 2.1.2 of the paper), which runs per-instruction micro-benchmarks and reads
/// the performance counters and power sensors.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrProps {
    /// Instruction mnemonic these properties belong to.
    pub mnemonic: String,
    /// Execution latency in cycles (for memory operations: the non-memory part; the
    /// cache-level latency is added by the memory hierarchy).
    pub latency_cycles: u32,
    /// Reciprocal throughput per execution pipe (cycles per instruction per pipe).
    pub recip_throughput: f64,
    /// Functional units stressed by the instruction.
    pub units: Vec<Unit>,
    /// Energy per instruction in normalized energy units, measured by the bootstrap.
    pub epi: Option<f64>,
    /// Average sustained chip power when running only this instruction, normalized,
    /// measured by the bootstrap.
    pub avg_power: Option<f64>,
    /// Core IPC measured by the bootstrap on the throughput (no-dependency) benchmark.
    pub measured_ipc: Option<f64>,
    /// Latency in cycles derived by the bootstrap from the dependency-chain benchmark.
    pub measured_latency: Option<f64>,
}

impl InstrProps {
    /// Creates the static part of the properties (measured fields unset).
    pub fn new(
        mnemonic: impl Into<String>,
        latency_cycles: u32,
        recip_throughput: f64,
        units: Vec<Unit>,
    ) -> Self {
        assert!(recip_throughput > 0.0, "reciprocal throughput must be positive");
        Self {
            mnemonic: mnemonic.into(),
            latency_cycles,
            recip_throughput,
            units,
            epi: None,
            avg_power: None,
            measured_ipc: None,
            measured_latency: None,
        }
    }

    /// Returns `true` once the bootstrap has filled in the measured energy fields.
    pub fn is_bootstrapped(&self) -> bool {
        self.epi.is_some() && self.measured_ipc.is_some()
    }

    /// The IPC×EPI product used by the max-power stressmark selection heuristic
    /// (Section 6), or `None` before bootstrap.
    pub fn ipc_epi_product(&self) -> Option<f64> {
        Some(self.measured_ipc? * self.epi?)
    }
}

/// Table of per-instruction properties, keyed by mnemonic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstrPropsTable {
    props: HashMap<String, InstrProps>,
}

impl InstrPropsTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instructions described.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// Returns `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// Inserts (or replaces) the properties of one instruction.
    pub fn insert(&mut self, props: InstrProps) {
        self.props.insert(props.mnemonic.clone(), props);
    }

    /// Properties of an instruction, if described.
    pub fn get(&self, mnemonic: &str) -> Option<&InstrProps> {
        self.props.get(mnemonic)
    }

    /// Mutable properties of an instruction, if described (used by the bootstrap to fill
    /// in measured values).
    pub fn get_mut(&mut self, mnemonic: &str) -> Option<&mut InstrProps> {
        self.props.get_mut(mnemonic)
    }

    /// Iterates over all entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &InstrProps> {
        self.props.values()
    }
}

/// [`OpcodeId`]-indexed view of an [`InstrPropsTable`]: a dense `Vec` lookup instead of
/// a `&str`-keyed hash, for per-issue hot paths (the simulator's pre-decoder).
///
/// The view snapshots the table at build time; bootstrap updates to the measured
/// fields of the underlying mnemonic-keyed table (which stays the source of truth and
/// the string API for existing callers) are not reflected in views built earlier.
#[derive(Debug, Clone, PartialEq)]
pub struct OpcodePropsTable {
    props: Vec<InstrProps>,
}

impl OpcodePropsTable {
    /// Builds the dense view for `isa`, one entry per [`OpcodeId`].
    ///
    /// # Panics
    ///
    /// Panics if the table does not describe some instruction of `isa` — machine
    /// descriptions guarantee full coverage, so a hole is a construction bug.
    pub fn build(isa: &Isa, table: &InstrPropsTable) -> Self {
        let props = isa
            .instructions()
            .map(|def| {
                table
                    .get(def.mnemonic())
                    .unwrap_or_else(|| {
                        panic!("no micro-architecture properties for `{}`", def.mnemonic())
                    })
                    .clone()
            })
            .collect();
        Self { props }
    }

    /// Properties of the instruction definition identified by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the ISA the view was built from.
    pub fn get(&self, id: OpcodeId) -> &InstrProps {
        &self.props[id.index()]
    }

    /// Number of instructions described.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// Returns `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }
}

impl FromIterator<InstrProps> for InstrPropsTable {
    fn from_iter<T: IntoIterator<Item = InstrProps>>(iter: T) -> Self {
        let mut table = Self::new();
        for p in iter {
            table.insert(p);
        }
        table
    }
}

impl Extend<InstrProps> for InstrPropsTable {
    fn extend<T: IntoIterator<Item = InstrProps>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut table = InstrPropsTable::new();
        table.insert(InstrProps::new("add", 1, 1.0, vec![Unit::Fxu, Unit::Lsu]));
        assert_eq!(table.len(), 1);
        assert!(table.get("add").is_some());
        assert!(table.get("sub").is_none());
        assert!(!table.get("add").unwrap().is_bootstrapped());
    }

    #[test]
    fn bootstrap_fills_measured_fields() {
        let mut table = InstrPropsTable::new();
        table.insert(InstrProps::new("mulld", 4, 1.4, vec![Unit::Fxu]));
        {
            let p = table.get_mut("mulld").unwrap();
            p.epi = Some(2.6);
            p.measured_ipc = Some(1.4);
        }
        let p = table.get("mulld").unwrap();
        assert!(p.is_bootstrapped());
        assert!((p.ipc_epi_product().unwrap() - 3.64).abs() < 1e-9);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut table: InstrPropsTable =
            vec![InstrProps::new("a", 1, 1.0, vec![Unit::Fxu])].into_iter().collect();
        table.extend(vec![InstrProps::new("b", 2, 2.0, vec![Unit::Vsu])]);
        assert_eq!(table.len(), 2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_throughput_is_rejected() {
        let _ = InstrProps::new("bad", 1, 0.0, vec![Unit::Fxu]);
    }

    #[test]
    fn opcode_view_agrees_with_mnemonic_lookup() {
        let m = crate::power7();
        let dense = OpcodePropsTable::build(&m.isa, &m.iprops);
        assert_eq!(dense.len(), m.isa.len());
        assert!(!dense.is_empty());
        for (id, def) in m.isa.entries() {
            assert_eq!(dense.get(id), m.props(def.mnemonic()), "{}", def.mnemonic());
        }
    }

    #[test]
    #[should_panic(expected = "no micro-architecture properties")]
    fn opcode_view_requires_full_coverage() {
        let m = crate::power7();
        let _ = OpcodePropsTable::build(&m.isa, &InstrPropsTable::new());
    }
}
