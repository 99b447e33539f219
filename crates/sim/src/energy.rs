//! The simulator's hidden ground-truth energy model.
//!
//! This module is the stand-in for the physical power behaviour of the chip.  The
//! counter-based modeling code of `mp-power` never reads these parameters or the
//! per-component accumulators — it only sees the sampled total power, exactly like the
//! paper's methodology only sees the TPMD sensor.  The breakdown is exported solely as a
//! validation oracle.
//!
//! The parameter set itself ([`EnergyParams`]) lives in the machine description
//! (`mp-uarch`), because each backend spec carries its own energy numbers; it is
//! re-exported here so the simulator's API is unchanged.
//!
//! All energies are expressed in *normalized energy units per cycle*; since the core
//! frequency is fixed, average power in normalized units equals average energy per cycle.

use mp_isa::Unit;
use mp_uarch::MemLevel;

pub use mp_uarch::EnergyParams;

/// The execution units that issue instructions, in slot order.  A unit's slot indexes
/// its pipes, its per-cycle issue flag and its entries in [`EnergyTables`].
pub(crate) const UNIT_SLOTS: [Unit; 5] = [Unit::Fxu, Unit::Lsu, Unit::Vsu, Unit::Dfu, Unit::Bru];

/// One run's [`EnergyParams`] with every per-issue lookup resolved to an array index.
///
/// Each entry is the value of the [`EnergyParams`] method it replaces, and the issue
/// loop sums `(unit_base + datapath) + switching` in the order
/// [`EnergyParams::instruction_energy`] does (the datapath term is stored per body
/// instruction by the decoder), so it accrues bit-identical energy without the
/// linear unit searches.
#[derive(Debug)]
pub(crate) struct EnergyTables<'a> {
    /// The parameters the tables were built from; scalar terms are read from here.
    pub(crate) params: &'a EnergyParams,
    /// Base activation energy per issue, by unit slot.
    pub(crate) unit_base: [f64; 5],
    /// Per-active-cycle wake-up energy, by unit slot.
    pub(crate) wake: [f64; 5],
    /// Access energy, indexed by `MemLevel as usize`.
    access: [f64; 4],
    /// `switching_scale * bits / 32` for every Hamming distance of two 32-bit encodings.
    pub(crate) switching: [f64; 33],
}

impl<'a> EnergyTables<'a> {
    pub(crate) fn new(params: &'a EnergyParams) -> Self {
        Self {
            params,
            unit_base: UNIT_SLOTS.map(|unit| params.unit_energy(unit)),
            wake: UNIT_SLOTS.map(|unit| params.wake_energy(unit)),
            access: MemLevel::ALL.map(|level| params.access_energy(level)),
            switching: std::array::from_fn(|bits| params.switching_energy(bits as u32)),
        }
    }

    /// Access energy of a memory hierarchy level.
    pub(crate) fn access(&self, level: MemLevel) -> f64 {
        self.access[level as usize]
    }
}

/// Addends each field of a [`CycleEnergy`] log holds.
const CYCLE_LOG_CAPACITY: usize = 32;

/// The addends of one [`EnergyBreakdown`] field, in accrual order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Addends {
    values: [f64; CYCLE_LOG_CAPACITY],
    len: usize,
}

impl Addends {
    pub(crate) fn push(&mut self, value: f64) {
        self.values[self.len] = value;
        self.len += 1;
    }

    /// Adds the addends, in order, to the `field` of every breakdown.
    fn add_to(
        &self,
        breakdowns: &mut [EnergyBreakdown],
        field: impl Fn(&mut EnergyBreakdown) -> &mut f64,
    ) {
        for value in &self.values[..self.len] {
            for breakdown in breakdowns.iter_mut() {
                *field(breakdown) += value;
            }
        }
    }
}

/// The dynamic energy one core accrued in one cycle, kept as the individual addends of
/// each [`EnergyBreakdown`] field.
///
/// [`CycleEnergy::add_to`] adds every field's addends in the order they were logged,
/// so replaying the logs of a chip's cores one after another performs exactly the f64
/// additions — in the same per-field order — of accruing into one breakdown directly,
/// and replaying one log `n` times is bit-identical to `n` cores that logged the same
/// addends.
#[derive(Debug, Clone, Default)]
pub(crate) struct CycleEnergy {
    /// Instruction execution, misprediction flush and unit wake-up energy.
    pub(crate) compute: Addends,
    /// Memory hierarchy access and prefetch energy.
    pub(crate) memory: Addends,
    /// Shared-uncore event and bandwidth-stall energy.
    pub(crate) uncore: Addends,
}

impl CycleEnergy {
    /// Whether the log holds any cycle of a core that issues up to `dispatch_width`
    /// instructions per cycle from `threads` thread contexts.  Per cycle the compute
    /// field takes one addend per issue, at most one flush per thread and one wake per
    /// unit; the memory field at most one per issue; the uncore field at most one per
    /// issue plus one bandwidth stall per thread.
    pub(crate) fn fits(dispatch_width: usize, threads: usize) -> bool {
        dispatch_width + threads + UNIT_SLOTS.len() <= CYCLE_LOG_CAPACITY
    }

    /// Empties the log for the next cycle.
    pub(crate) fn clear(&mut self) {
        self.compute.len = 0;
        self.memory.len = 0;
        self.uncore.len = 0;
    }

    /// Adds the logged addends to each of `breakdowns`, field by field in logging
    /// order.  Every breakdown sees exactly the additions it would see alone; the
    /// breakdowns' additions are independent of each other.
    pub(crate) fn add_to(&self, breakdowns: &mut [EnergyBreakdown]) {
        self.compute.add_to(breakdowns, |b| &mut b.dynamic_compute);
        self.memory.add_to(breakdowns, |b| &mut b.dynamic_memory);
        self.uncore.add_to(breakdowns, |b| &mut b.uncore);
    }
}

/// Per-component energy accumulated during a measurement window.
///
/// This is the *ground truth* the bottom-up model tries to approximate from counters:
/// exposing it to modeling code would defeat the purpose of the reproduction, so it is
/// only used by validation oracles and the experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Workload-independent energy.
    pub idle: f64,
    /// Constant uncore energy.
    pub uncore: f64,
    /// Per-enabled-core constant energy (the paper's CMP effect).
    pub cmp: f64,
    /// SMT-enable overhead energy.
    pub smt: f64,
    /// Instruction execution (datapath + switching) energy.
    pub dynamic_compute: f64,
    /// Memory hierarchy access energy.
    pub dynamic_memory: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.idle + self.uncore + self.cmp + self.smt + self.dynamic_compute + self.dynamic_memory
    }

    /// Total dynamic (activity-driven) energy.
    pub fn dynamic(&self) -> f64 {
        self.dynamic_compute + self.dynamic_memory
    }

    /// Converts accumulated energy over `cycles` into average power per component
    /// (energy units per cycle).
    pub fn to_power(&self, cycles: u64) -> EnergyBreakdown {
        assert!(cycles > 0, "cannot normalise a breakdown over zero cycles");
        let c = cycles as f64;
        EnergyBreakdown {
            idle: self.idle / c,
            uncore: self.uncore / c,
            cmp: self.cmp / c,
            smt: self.smt / c,
            dynamic_compute: self.dynamic_compute / c,
            dynamic_memory: self.dynamic_memory / c,
        }
    }
}

impl std::ops::AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.idle += rhs.idle;
        self.uncore += rhs.uncore;
        self.cmp += rhs.cmp;
        self.smt += rhs.smt;
        self.dynamic_compute += rhs.dynamic_compute;
        self.dynamic_memory += rhs.dynamic_memory;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_isa::OperandWidth;

    #[test]
    fn reexported_params_expose_the_power7_set() {
        let p = mp_uarch::power7().energy;
        assert!(p.access_energy(MemLevel::L1) < p.access_energy(MemLevel::Mem));
        assert!((p.idle_power - 100.0).abs() < 1e-12);
    }

    #[test]
    fn tables_reproduce_instruction_energy_bit_for_bit() {
        let mut params = mp_uarch::power7().energy;
        // Awkward scales make any reassociation visible in the last bits.
        params.complexity_scale = 1.0 / 3.0;
        params.switching_scale = 0.1 + 0.2;
        let tables = EnergyTables::new(&params);
        let widths = [
            OperandWidth::W8,
            OperandWidth::W16,
            OperandWidth::W32,
            OperandWidth::W64,
            OperandWidth::W128,
        ];
        for (slot, unit) in UNIT_SLOTS.into_iter().enumerate() {
            assert_eq!(tables.wake[slot].to_bits(), params.wake_energy(unit).to_bits());
            for width in widths {
                for (complexity, factor) in [(1.25, 1.0), (3.42, 0.6), (1.85, 0.7)] {
                    let datapath = params.datapath_energy(complexity, width, factor);
                    for bits in 0..=32u32 {
                        let table =
                            tables.unit_base[slot] + datapath + tables.switching[bits as usize];
                        let direct =
                            params.instruction_energy(unit, complexity, width, bits, factor);
                        assert_eq!(table.to_bits(), direct.to_bits(), "{unit:?} {width:?} {bits}");
                    }
                }
            }
        }
        for level in MemLevel::ALL {
            assert_eq!(tables.access(level).to_bits(), params.access_energy(level).to_bits());
        }
    }

    #[test]
    fn replayed_log_matches_direct_accrual_bit_for_bit() {
        // Addends whose sums round differently under any reordering.
        let compute = [0.1, 1e16, 0.3, -1e16, 0.7];
        let memory = [0.2, 0.1, 1e-17];
        let uncore = [3.0, 1.0 / 3.0];
        let mut log = CycleEnergy::default();
        for v in compute {
            log.compute.push(v);
        }
        for v in memory {
            log.memory.push(v);
        }
        for v in uncore {
            log.uncore.push(v);
        }
        let mut direct = EnergyBreakdown { uncore: 0.5, ..EnergyBreakdown::default() };
        let mut lanes = [direct; 3];
        for _ in 0..3 {
            for v in compute {
                direct.dynamic_compute += v;
            }
            for v in memory {
                direct.dynamic_memory += v;
            }
            for v in uncore {
                direct.uncore += v;
            }
            log.add_to(&mut lanes);
        }
        for replayed in lanes {
            for (a, b) in [
                (direct.dynamic_compute, replayed.dynamic_compute),
                (direct.dynamic_memory, replayed.dynamic_memory),
                (direct.uncore, replayed.uncore),
            ] {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        log.clear();
        let before = lanes;
        log.add_to(&mut lanes);
        assert_eq!(before, lanes, "a cleared log adds nothing");
    }

    #[test]
    fn log_capacity_covers_both_backends() {
        // POWER7 dispatches 6 per cycle, POWER8 8; both run up to 8 threads per core.
        assert!(CycleEnergy::fits(6, 4));
        assert!(CycleEnergy::fits(8, 8));
        assert!(!CycleEnergy::fits(CYCLE_LOG_CAPACITY, 1));
    }

    #[test]
    fn breakdown_total_and_power_normalisation() {
        let b = EnergyBreakdown {
            idle: 100.0,
            uncore: 40.0,
            cmp: 10.0,
            smt: 2.0,
            dynamic_compute: 30.0,
            dynamic_memory: 18.0,
        };
        assert!((b.total() - 200.0).abs() < 1e-12);
        assert!((b.dynamic() - 48.0).abs() < 1e-12);
        let p = b.to_power(10);
        assert!((p.total() - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero cycles")]
    fn power_normalisation_requires_cycles() {
        let _ = EnergyBreakdown::default().to_power(0);
    }
}
