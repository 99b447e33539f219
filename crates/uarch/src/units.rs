//! Functional unit resources of a core and the chip floorplan.

use mp_isa::Unit;

/// Number of execution pipes a single core provides for each functional unit, plus the
/// front-end widths that bound per-cycle progress.
///
/// POWER7 dispatches up to 6 instructions per cycle per core and provides 2 fixed point
/// pipes, 2 load/store pipes (which can also execute simple fixed point operations),
/// 4 double-precision-capable floating point pipes organised as 2 VSU issue ports,
/// 1 branch pipe and 1 decimal pipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorePipes {
    /// Maximum instructions dispatched per cycle per core (shared by the SMT threads).
    pub dispatch_width: u32,
    /// Maximum instructions completed per cycle per core.
    pub completion_width: u32,
    /// Fixed point pipes.
    pub fxu: u32,
    /// Load/store pipes.
    pub lsu: u32,
    /// Vector-scalar issue ports.
    pub vsu: u32,
    /// Decimal floating point pipes.
    pub dfu: u32,
    /// Branch pipes.
    pub bru: u32,
}

impl CorePipes {
    /// Number of pipes for a functional unit (0 for units that are not execution pipes).
    pub fn pipes(&self, unit: Unit) -> u32 {
        match unit {
            Unit::Fxu => self.fxu,
            Unit::Lsu => self.lsu,
            Unit::Vsu => self.vsu,
            Unit::Dfu => self.dfu,
            Unit::Bru => self.bru,
            Unit::Ifu | Unit::Isu => 0,
        }
    }
}

/// One entry of the (coarse) chip floorplan: the relative die area of a component.
///
/// The paper lists floorplan/area knowledge as part of the micro-architecture definition;
/// area-proportional heuristics (Isci & Martonosi style) are one classic way to seed
/// bottom-up power models, and the ablation benches use this table for comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloorplanEntry {
    /// The functional unit.
    pub unit: Unit,
    /// Fraction of the core area occupied by the unit (0.0–1.0).
    pub core_area_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power7_pipe_counts() {
        let p = crate::power7().pipes;
        assert_eq!(p.pipes(Unit::Fxu), 2);
        assert_eq!(p.pipes(Unit::Lsu), 2);
        assert_eq!(p.pipes(Unit::Vsu), 2);
        assert_eq!(p.pipes(Unit::Ifu), 0);
        assert_eq!(p.dispatch_width, 6);
    }

    #[test]
    fn floorplan_fractions_sum_to_about_one() {
        for name in crate::backend_names() {
            let floorplan = crate::backend(name).expect("shipped backend loads").floorplan;
            let total: f64 = floorplan.iter().map(|e| e.core_area_fraction).sum();
            assert!((total - 1.0).abs() < 0.01, "{name}: floorplan fractions sum to {total}");
        }
    }
}
