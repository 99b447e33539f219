//! The disjoint-set address planner.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use mp_uarch::{MemLevel, MemoryHierarchy};

use crate::distribution::HitDistribution;

/// One planned memory access: the effective address to use and the hierarchy level it is
/// guaranteed to be served by in steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedAccess {
    /// Effective address.
    pub address: u64,
    /// Level that serves the access once the loop reaches steady state.
    pub level: MemLevel,
}

/// The address stream computed for one micro-benchmark loop body.
///
/// The stream is meant to be applied in order to the memory instructions of the loop; it
/// is valid for an endless loop (the per-level pools are sized for cyclic re-use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPlan {
    accesses: Vec<PlannedAccess>,
}

impl AccessPlan {
    /// The planned accesses, in loop-body order.
    pub fn accesses(&self) -> &[PlannedAccess] {
        &self.accesses
    }

    /// Number of planned accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Returns `true` if the plan contains no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Number of accesses planned to be served by `level`.
    pub fn count_for(&self, level: MemLevel) -> usize {
        self.accesses.iter().filter(|a| a.level == level).count()
    }

    /// Iterates over the planned addresses only.
    pub fn addresses(&self) -> impl Iterator<Item = u64> + '_ {
        self.accesses.iter().map(|a| a.address)
    }
}

impl<'a> IntoIterator for &'a AccessPlan {
    type Item = &'a PlannedAccess;
    type IntoIter = std::slice::Iter<'a, PlannedAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

/// Builds [`AccessPlan`]s for a given memory hierarchy.
#[derive(Debug, Clone)]
pub struct AccessPlanner<'a> {
    hierarchy: &'a MemoryHierarchy,
}

impl<'a> AccessPlanner<'a> {
    /// Number of distinct lines cycled per L1 set for an always-miss stream.  Must be
    /// strictly greater than the associativity of every level whose set is pinned.
    const OVERFLOW_LINES: usize = 32;

    /// Creates a planner for a hierarchy.
    pub fn new(hierarchy: &'a MemoryHierarchy) -> Self {
        Self { hierarchy }
    }

    /// Plans `n_accesses` memory accesses that, cycled in an endless loop, are served by
    /// the hierarchy levels according to `dist`.
    ///
    /// `thread_slot` selects a disjoint group of cache sets so that hardware threads
    /// sharing the same core caches (up to 4 on POWER7) do not evict each other's
    /// streams; `seed` controls the deterministic shuffling that interleaves the
    /// per-level streams (randomised, as in the paper, to defeat hardware prefetchers).
    pub fn plan(
        &self,
        dist: &HitDistribution,
        n_accesses: usize,
        thread_slot: u32,
        seed: u64,
    ) -> AccessPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_cafe);
        let counts = dist.counts(n_accesses);

        // Interleave the per-level streams pseudo-randomly (consecutive same-level
        // accesses with regular strides would be trivially prefetchable), but keep every
        // stream's *own* accesses in strict round-robin order over its line pool: the
        // always-miss guarantee relies on each line's reuse distance covering the whole
        // pool, which an arbitrary permutation would break.
        let mut level_sequence: Vec<MemLevel> = Vec::with_capacity(n_accesses);
        for (level, count) in counts {
            level_sequence.extend(std::iter::repeat_n(level, count));
        }
        level_sequence.shuffle(&mut rng);

        let pools: Vec<(MemLevel, Vec<u64>)> = MemLevel::ALL
            .iter()
            .enumerate()
            .map(|(idx, &level)| (level, self.pool_for(level, thread_slot, idx as u32)))
            .collect();
        let mut cursors = [0usize; 4];
        let accesses = level_sequence
            .into_iter()
            .map(|level| {
                let slot = MemLevel::ALL.iter().position(|&l| l == level).expect("known level");
                let pool = &pools[slot].1;
                let address = pool[cursors[slot] % pool.len()];
                cursors[slot] += 1;
                PlannedAccess { address, level }
            })
            .collect();
        AccessPlan { accesses }
    }

    /// Builds the pool of distinct line addresses reserved for one `(level, thread,
    /// stream)` combination.
    ///
    /// Every pool is confined to a single L1 set chosen uniquely per combination, which —
    /// because all levels share the line size — also confines it to disjoint stripes of
    /// L2 and L3 sets.
    fn pool_for(&self, level: MemLevel, thread_slot: u32, stream: u32) -> Vec<u64> {
        let l1 = &self.hierarchy.l1;
        let l2 = &self.hierarchy.l2;
        let l3 = &self.hierarchy.l3;
        let line = self.hierarchy.line_bytes();
        let l1_sets = l1.num_sets();
        let l2_sets = l2.num_sets();
        let l3_sets = l3.num_sets();

        // Unique L1 set per (thread, stream): 4 streams × up to 8 thread slots fit the
        // 32 L1 sets of POWER7.
        let set =
            (u64::from(thread_slot) * MemLevel::ALL.len() as u64 + u64::from(stream)) % l1_sets;

        let lines: Vec<u64> = match level {
            MemLevel::L1 => {
                // At most `ways` distinct lines in the chosen L1 set: always hits.
                (0..l1.ways as u64).map(|k| set + k * l1_sets).collect()
            }
            MemLevel::L2 => {
                // More lines than L1 ways, spread over the L2 stripe: misses L1, fits L2.
                (0..Self::OVERFLOW_LINES as u64).map(|k| set + k * l1_sets).collect()
            }
            MemLevel::L3 => {
                // All lines share one L2 set (stride = number of L2 sets): misses L1 and
                // L2, spreads over the L3 stripe and fits it.
                (0..Self::OVERFLOW_LINES as u64).map(|k| set + k * l2_sets).collect()
            }
            MemLevel::Mem => {
                // All lines share one L3 set (stride = number of L3 sets): misses
                // everything.
                (0..Self::OVERFLOW_LINES as u64).map(|k| set + k * l3_sets).collect()
            }
        };
        lines.into_iter().map(|line_index| line_index * line).collect()
    }

    /// The memory footprint (bytes, counted in distinct lines) of a plan's pools; useful
    /// to check that a requested plan fits the intended level.
    pub fn footprint_bytes(&self, plan: &AccessPlan) -> u64 {
        let line = self.hierarchy.line_bytes();
        let mut lines: Vec<u64> = plan.addresses().map(|a| a / line).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len() as u64 * line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn hierarchy() -> MemoryHierarchy {
        mp_uarch::power7().hierarchy
    }

    #[test]
    fn plan_has_requested_counts() {
        let h = hierarchy();
        let planner = AccessPlanner::new(&h);
        let dist = HitDistribution::new(0.25, 0.25, 0.25, 0.25).unwrap();
        let plan = planner.plan(&dist, 400, 0, 7);
        assert_eq!(plan.len(), 400);
        assert_eq!(plan.count_for(MemLevel::L1), 100);
        assert_eq!(plan.count_for(MemLevel::L2), 100);
        assert_eq!(plan.count_for(MemLevel::L3), 100);
        assert_eq!(plan.count_for(MemLevel::Mem), 100);
    }

    #[test]
    fn l1_pool_fits_within_one_set_associativity() {
        let h = hierarchy();
        let planner = AccessPlanner::new(&h);
        let plan = planner.plan(&HitDistribution::l1_only(), 256, 0, 1);
        let lines: BTreeSet<u64> = plan.addresses().map(|a| h.l1.line_base(a)).collect();
        assert!(lines.len() <= h.l1.ways as usize, "L1 pool must fit in one set");
        let sets: BTreeSet<u64> = plan.addresses().map(|a| h.l1.set_of(a)).collect();
        assert_eq!(sets.len(), 1, "L1 stream must be confined to a single set");
    }

    #[test]
    fn l2_pool_overflows_l1_but_fits_l2() {
        let h = hierarchy();
        let planner = AccessPlanner::new(&h);
        let plan = planner.plan(&HitDistribution::l2_only(), 256, 0, 2);
        let lines: BTreeSet<u64> = plan.addresses().map(|a| h.l1.line_base(a)).collect();
        assert!(lines.len() > h.l1.ways as usize, "L2 stream must not fit in the L1 set");
        let l1_sets: BTreeSet<u64> = plan.addresses().map(|a| h.l1.set_of(a)).collect();
        assert_eq!(l1_sets.len(), 1);
        // It must fit the L2: no L2 set receives more lines than the associativity.
        for set in plan.addresses().map(|a| h.l2.set_of(a)).collect::<BTreeSet<_>>() {
            let in_set = lines.iter().filter(|&&l| h.l2.set_of(l) == set).count();
            assert!(in_set <= h.l2.ways as usize);
        }
    }

    #[test]
    fn l3_pool_conflicts_in_l2_but_fits_l3() {
        let h = hierarchy();
        let planner = AccessPlanner::new(&h);
        let plan = planner.plan(&HitDistribution::l3_only(), 256, 0, 3);
        let lines: BTreeSet<u64> = plan.addresses().map(|a| h.l1.line_base(a)).collect();
        let l2_sets: BTreeSet<u64> = lines.iter().map(|&l| h.l2.set_of(l)).collect();
        assert_eq!(l2_sets.len(), 1, "L3 stream must conflict in a single L2 set");
        assert!(lines.len() > h.l2.ways as usize);
        for set in lines.iter().map(|&l| h.l3.set_of(l)).collect::<BTreeSet<_>>() {
            let in_set = lines.iter().filter(|&&l| h.l3.set_of(l) == set).count();
            assert!(in_set <= h.l3.ways as usize);
        }
    }

    #[test]
    fn mem_pool_conflicts_at_every_level() {
        let h = hierarchy();
        let planner = AccessPlanner::new(&h);
        let plan = planner.plan(&HitDistribution::memory_only(), 64, 0, 4);
        let lines: BTreeSet<u64> = plan.addresses().map(|a| h.l1.line_base(a)).collect();
        let l3_sets: BTreeSet<u64> = lines.iter().map(|&l| h.l3.set_of(l)).collect();
        assert_eq!(l3_sets.len(), 1, "memory stream must conflict in a single L3 set");
        assert!(lines.len() > h.l3.ways as usize);
    }

    #[test]
    fn levels_use_disjoint_sets() {
        let h = hierarchy();
        let planner = AccessPlanner::new(&h);
        let dist = HitDistribution::new(0.25, 0.25, 0.25, 0.25).unwrap();
        let plan = planner.plan(&dist, 512, 0, 9);
        for level_a in MemLevel::ALL {
            for level_b in MemLevel::ALL {
                if level_a >= level_b {
                    continue;
                }
                let sets_a: BTreeSet<u64> = plan
                    .accesses()
                    .iter()
                    .filter(|p| p.level == level_a)
                    .map(|p| h.l1.set_of(p.address))
                    .collect();
                let sets_b: BTreeSet<u64> = plan
                    .accesses()
                    .iter()
                    .filter(|p| p.level == level_b)
                    .map(|p| h.l1.set_of(p.address))
                    .collect();
                assert!(sets_a.is_disjoint(&sets_b), "{level_a} and {level_b} share L1 sets");
            }
        }
    }

    #[test]
    fn different_thread_slots_use_disjoint_sets() {
        let h = hierarchy();
        let planner = AccessPlanner::new(&h);
        let dist = HitDistribution::caches_balanced();
        let a = planner.plan(&dist, 128, 0, 11);
        let b = planner.plan(&dist, 128, 1, 11);
        let sets_a: BTreeSet<u64> = a.addresses().map(|x| h.l1.set_of(x)).collect();
        let sets_b: BTreeSet<u64> = b.addresses().map(|x| h.l1.set_of(x)).collect();
        assert!(sets_a.is_disjoint(&sets_b));
    }

    #[test]
    fn plan_is_deterministic_for_a_seed() {
        let h = hierarchy();
        let planner = AccessPlanner::new(&h);
        let dist = HitDistribution::caches_balanced();
        assert_eq!(planner.plan(&dist, 256, 0, 5), planner.plan(&dist, 256, 0, 5));
        assert_ne!(planner.plan(&dist, 256, 0, 5), planner.plan(&dist, 256, 0, 6));
    }

    #[test]
    fn footprint_reflects_distinct_lines() {
        let h = hierarchy();
        let planner = AccessPlanner::new(&h);
        let plan = planner.plan(&HitDistribution::l1_only(), 64, 0, 1);
        let fp = planner.footprint_bytes(&plan);
        assert!(fp <= h.l1.ways as u64 * h.line_bytes());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn counts_always_match_distribution(
            l1 in 0.0f64..1.0,
            l2 in 0.0f64..1.0,
            l3 in 0.0f64..1.0,
            mem in 0.0f64..1.0,
            n in 1usize..2048,
            thread in 0u32..4,
            seed in 0u64..u64::MAX,
        ) {
            let total = l1 + l2 + l3 + mem;
            prop_assume!(total > 1e-6);
            let dist = HitDistribution::new(l1 / total, l2 / total, l3 / total, mem / total)
                .expect("normalised distribution is valid");
            let h = mp_uarch::power7().hierarchy;
            let plan = AccessPlanner::new(&h).plan(&dist, n, thread, seed);
            prop_assert_eq!(plan.len(), n);
            // Per-level counts match the largest-remainder split of the distribution.
            for (level, count) in dist.counts(n) {
                prop_assert_eq!(plan.count_for(level), count);
            }
            // All addresses are line aligned to their declared width granularity.
            for access in plan.accesses() {
                prop_assert_eq!(access.address % h.line_bytes(), 0);
            }
        }
    }
}
