//! Energy model parameters of a backend.
//!
//! These parameters describe the physical power behaviour of the chip being modeled.
//! They belong to the machine description — each backend spec (`specs/<name>.uarch`)
//! carries its own `energy*` records — but they are *only* read by the simulator's
//! hidden ground-truth model in `mp-sim`: the counter-based modeling code of `mp-power`
//! never sees them, exactly like the paper's methodology only sees the TPMD sensor.
//!
//! All energies are expressed in *normalized energy units per cycle*; since the core
//! frequency is fixed, average power in normalized units equals average energy per cycle.

use mp_isa::{OperandWidth, Unit};

use crate::cache::MemLevel;

/// Parameters of the ground-truth energy model.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyParams {
    /// Workload-independent power (consumed even with no activity): leakage, PLLs, ...
    pub idle_power: f64,
    /// Constant uncore power while the chip is executing (fabric, memory controllers).
    /// Only charged in private-uncore mode; shared mode accrues uncore energy per event.
    pub uncore_power: f64,
    /// Shared-uncore mode: energy per demand access reaching the shared L3 (hit or the
    /// tag probe of a miss).
    pub uncore_l3_energy: f64,
    /// Shared-uncore mode: energy per line transferred through the memory port.
    pub uncore_mem_energy: f64,
    /// Shared-uncore mode: energy per bandwidth-stall cycle — a transfer waiting in
    /// the memory-port queue, or a hardware thread held off the full queue (queue
    /// occupancy and retry power).  Charged once per `PM_MEM_BW_STALL_CYC` count, so
    /// the ground truth is exactly linear in that counter.
    pub uncore_stall_energy: f64,
    /// Per enabled core constant power (core clock grid, private L3 slice active).
    pub per_core_power: f64,
    /// Extra per-core power when the SMT logic is enabled (independent of SMT width).
    pub smt_power: f64,
    /// Base energy of activating a functional unit pipe, per instruction, by unit.
    pub unit_base: [(Unit, f64); 5],
    /// Energy charged once per cycle per functional unit that issued at least one
    /// instruction in that cycle (clock-gating wake-up cost).  This term is deliberately
    /// *not* proportional to any performance counter, which is what makes the machine's
    /// power sub-linear in activity and separates well-trained from biased counter
    /// models, as on real hardware.
    pub unit_wake: [(Unit, f64); 5],
    /// Energy per unit of instruction datapath complexity.
    pub complexity_scale: f64,
    /// Energy per normalized bit toggled between consecutive instruction encodings on
    /// the same execution pipe (the instruction-order/switching term).
    pub switching_scale: f64,
    /// Energy per demand access served by each memory hierarchy level.
    pub mem_access_energy: [(MemLevel, f64); 4],
    /// Energy per prefetch issued.
    pub prefetch_energy: f64,
    /// Energy wasted per misprediction flush.
    pub flush_energy: f64,
}

impl EnergyParams {
    /// Base activation energy of an execution unit.
    ///
    /// # Panics
    ///
    /// Panics if `unit` has no `unit_base` entry (IFU and ISU never do; the spec
    /// loader rejects specs missing any execution unit).
    pub fn unit_energy(&self, unit: Unit) -> f64 {
        self.unit_base
            .iter()
            .find(|(u, _)| *u == unit)
            .map(|(_, e)| *e)
            .expect("all execution units are parameterised")
    }

    /// Per-active-cycle wake-up energy of an execution unit.
    ///
    /// # Panics
    ///
    /// Panics if `unit` has no `unit_wake` entry.
    pub fn wake_energy(&self, unit: Unit) -> f64 {
        self.unit_wake
            .iter()
            .find(|(u, _)| *u == unit)
            .map(|(_, e)| *e)
            .expect("all execution units are parameterised")
    }

    /// Access energy of a memory hierarchy level.
    pub fn access_energy(&self, level: MemLevel) -> f64 {
        self.mem_access_energy
            .iter()
            .find(|(l, _)| *l == level)
            .map(|(_, e)| *e)
            .expect("all levels are parameterised")
    }

    /// Width-dependent datapath scale factor.
    pub fn width_factor(width: OperandWidth) -> f64 {
        match width {
            OperandWidth::W8 => 0.80,
            OperandWidth::W16 => 0.85,
            OperandWidth::W32 => 0.90,
            OperandWidth::W64 => 1.00,
            OperandWidth::W128 => 1.35,
        }
    }

    /// Dynamic energy of executing one instruction (excluding its memory accesses).
    ///
    /// `switch_bits` is the Hamming distance between this instruction's encoding and the
    /// previous instruction executed on the same pipe (normalised to a 32-bit word);
    /// `data_factor` comes from the kernel's data profile.
    pub fn instruction_energy(
        &self,
        unit: Unit,
        complexity: f64,
        width: OperandWidth,
        switch_bits: u32,
        data_factor: f64,
    ) -> f64 {
        self.unit_energy(unit)
            + self.datapath_energy(complexity, width, data_factor)
            + self.switching_energy(switch_bits)
    }

    /// The datapath term of [`instruction_energy`](Self::instruction_energy).
    pub fn datapath_energy(&self, complexity: f64, width: OperandWidth, data_factor: f64) -> f64 {
        self.complexity_scale * complexity * Self::width_factor(width) * data_factor
    }

    /// The switching term of [`instruction_energy`](Self::instruction_energy).
    pub fn switching_energy(&self, switch_bits: u32) -> f64 {
        self.switching_scale * f64::from(switch_bits) / 32.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_energy_grows_with_distance() {
        let p = crate::power7().energy;
        assert!(p.access_energy(MemLevel::L1) < p.access_energy(MemLevel::L2));
        assert!(p.access_energy(MemLevel::L2) < p.access_energy(MemLevel::L3));
        assert!(p.access_energy(MemLevel::L3) < p.access_energy(MemLevel::Mem));
    }

    #[test]
    fn instruction_energy_depends_on_all_factors() {
        let p = crate::power7().energy;
        let base = p.instruction_energy(Unit::Fxu, 1.0, OperandWidth::W64, 0, 1.0);
        let complex = p.instruction_energy(Unit::Fxu, 4.0, OperandWidth::W64, 0, 1.0);
        let wide = p.instruction_energy(Unit::Fxu, 1.0, OperandWidth::W128, 0, 1.0);
        let switched = p.instruction_energy(Unit::Fxu, 1.0, OperandWidth::W64, 16, 1.0);
        let zeroed = p.instruction_energy(Unit::Fxu, 1.0, OperandWidth::W64, 0, 0.6);
        assert!(complex > base);
        assert!(wide > base);
        assert!(switched > base);
        assert!(zeroed < base);
    }

    #[test]
    fn vsu_costs_more_than_fxu_per_activation() {
        let p = crate::power7().energy;
        assert!(p.unit_energy(Unit::Vsu) > p.unit_energy(Unit::Fxu));
    }

    #[test]
    #[should_panic(expected = "all execution units are parameterised")]
    fn unparameterised_unit_is_rejected() {
        let _ = crate::power7().energy.wake_energy(Unit::Isu);
    }
}
