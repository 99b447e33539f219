//! Functional set-associative cache hierarchy simulation.

use mp_uarch::{CacheGeometry, MemLevel, MemoryHierarchy};

use crate::energy::EnergyParams;
use crate::uncore::UncoreSim;

/// Outcome of a demand access: which level served it and its load-to-use latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The level that served the access.
    pub level: MemLevel,
    /// Load-to-use latency in cycles.
    pub latency: u32,
    /// Whether the hardware prefetcher issued a prefetch alongside this access.
    pub prefetched: bool,
    /// Cycles the access waited for the shared memory port (0 with a private uncore).
    pub bw_stall: u32,
}

/// One set-associative cache level with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// `sets[set]` holds `(tag, last_use_stamp)` pairs, at most `ways` of them.
    sets: Vec<Vec<(u64, u64)>>,
    stamp: u64,
    // Set/tag extraction pre-resolved from the geometry: `set_of`/`tag_of` divide by
    // `num_sets()` on every call, which is measurable at one demand access per issue.
    offset_bits: u32,
    set_mask: u64,
    tag_shift: u32,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = vec![Vec::with_capacity(geometry.ways as usize); geometry.num_sets() as usize];
        Self {
            sets,
            stamp: 0,
            offset_bits: geometry.offset_bits(),
            set_mask: geometry.num_sets() - 1,
            tag_shift: geometry.offset_bits() + geometry.index_bits(),
            geometry,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    fn set_and_tag(&self, address: u64) -> (usize, u64) {
        (((address >> self.offset_bits) & self.set_mask) as usize, address >> self.tag_shift)
    }

    /// Looks up an address; on hit the LRU stamp is refreshed.  Returns `true` on hit.
    pub fn access(&mut self, address: u64) -> bool {
        self.stamp += 1;
        let (set, tag) = self.set_and_tag(address);
        if let Some(entry) = self.sets[set].iter_mut().find(|(t, _)| *t == tag) {
            entry.1 = self.stamp;
            return true;
        }
        false
    }

    /// Inserts the line containing `address`, evicting the LRU line of the set if needed.
    pub fn fill(&mut self, address: u64) {
        self.stamp += 1;
        let (set, tag) = self.set_and_tag(address);
        let lines = &mut self.sets[set];
        if let Some(entry) = lines.iter_mut().find(|(t, _)| *t == tag) {
            entry.1 = self.stamp;
            return;
        }
        if lines.len() >= self.geometry.ways as usize {
            let lru = lines
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("set is non-empty when full");
            lines.swap_remove(lru);
        }
        lines.push((tag, self.stamp));
    }

    /// Returns `true` if the line containing `address` is currently resident.
    pub fn contains(&self, address: u64) -> bool {
        let (set, tag) = self.set_and_tag(address);
        self.sets[set].iter().any(|(t, _)| *t == tag)
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.stamp = 0;
    }
}

/// The private cache hierarchy of one core (L1 + L2 + local L3 slice) plus a simple
/// next-line hardware prefetcher.
///
/// The hierarchy fills every level on a miss (mostly-inclusive), which is the behaviour
/// the analytical cache model of `mp-cache` assumes.
#[derive(Debug, Clone)]
pub struct CoreCaches {
    l1: SetAssocCache,
    l2: SetAssocCache,
    /// The private L3 slice; `None` when the core's L3 lives behind the shared uncore.
    l3: Option<SetAssocCache>,
    mem_latency: u32,
    prefetch_enabled: bool,
    last_line: Option<u64>,
    /// `log2(line_bytes)`; the line size is asserted to be a power of two.
    line_shift: u32,
    prefetches_issued: u64,
}

impl CoreCaches {
    /// Creates the cache hierarchy of one core, with a private L3 slice.
    pub fn new(hierarchy: &MemoryHierarchy, prefetch_enabled: bool) -> Self {
        Self::build(hierarchy, prefetch_enabled, true)
    }

    /// Creates the hierarchy for a core whose L3 lives behind the chip's shared
    /// uncore: only L1 and L2 are allocated (the private slice would never be
    /// touched).  Such a hierarchy must be driven through the `*_shared` accessors.
    pub fn new_shared(hierarchy: &MemoryHierarchy, prefetch_enabled: bool) -> Self {
        Self::build(hierarchy, prefetch_enabled, false)
    }

    fn build(hierarchy: &MemoryHierarchy, prefetch_enabled: bool, private_l3: bool) -> Self {
        Self {
            l1: SetAssocCache::new(hierarchy.l1),
            l2: SetAssocCache::new(hierarchy.l2),
            l3: private_l3.then(|| SetAssocCache::new(hierarchy.l3)),
            mem_latency: hierarchy.mem_latency_cycles,
            prefetch_enabled,
            last_line: None,
            line_shift: hierarchy.line_bytes().trailing_zeros(),
            prefetches_issued: 0,
        }
    }

    fn private_l3(&mut self) -> &mut SetAssocCache {
        self.l3.as_mut().expect("private-mode access on a shared-uncore hierarchy")
    }

    /// The next-line stride prefetcher, shared by the private and shared access
    /// paths: on two consecutive accesses to adjacent lines, pull the following line
    /// into the whole hierarchy.  Randomised access plans defeat it.  With the L3
    /// behind the shared uncore, the fill charges the memory port
    /// ([`UncoreSim::prefetch_fill`]) and may be dropped under bandwidth pressure.
    /// Returns whether a prefetch was issued plus its ground-truth uncore energy.
    fn next_line_prefetch(
        &mut self,
        address: u64,
        uncore: Option<(&mut UncoreSim, u64, &EnergyParams)>,
    ) -> (bool, f64) {
        let mut prefetched = false;
        let mut uncore_energy = 0.0;
        let line = address >> self.line_shift;
        if self.prefetch_enabled {
            if let Some(prev) = self.last_line {
                if line == prev + 1 {
                    let next = (line + 1) << self.line_shift;
                    if !self.l1.contains(next) {
                        let admitted = match uncore {
                            Some((uncore, now, params)) => {
                                match uncore.prefetch_fill(next, now, params) {
                                    Some(energy) => {
                                        uncore_energy += energy;
                                        true
                                    }
                                    None => false,
                                }
                            }
                            None => {
                                self.private_l3().fill(next);
                                true
                            }
                        };
                        if admitted {
                            self.l1.fill(next);
                            self.l2.fill(next);
                            self.prefetches_issued += 1;
                            prefetched = true;
                        }
                    }
                }
            }
        }
        self.last_line = Some(line);
        (prefetched, uncore_energy)
    }

    /// Performs a demand access (load or store treated alike for residence purposes).
    pub fn access(&mut self, address: u64) -> AccessOutcome {
        let (level, latency) = if self.l1.access(address) {
            (MemLevel::L1, self.l1.geometry().hit_latency_cycles)
        } else if self.l2.access(address) {
            self.l1.fill(address);
            (MemLevel::L2, self.l2.geometry().hit_latency_cycles)
        } else if self.private_l3().access(address) {
            self.l2.fill(address);
            self.l1.fill(address);
            (MemLevel::L3, self.l3.as_ref().expect("private L3").geometry().hit_latency_cycles)
        } else {
            self.private_l3().fill(address);
            self.l2.fill(address);
            self.l1.fill(address);
            (MemLevel::Mem, self.mem_latency)
        };

        let (prefetched, _) = self.next_line_prefetch(address, None);
        AccessOutcome { level, latency, prefetched, bw_stall: 0 }
    }

    /// Performs a demand access with the L3 and memory behind the chip's shared uncore:
    /// L1 and L2 stay private, L2 misses contend for the shared L3 and the memory port.
    ///
    /// Returns the outcome plus the ground-truth uncore energy of the event (0 for
    /// accesses served by the private L1/L2), which the caller accrues into the uncore
    /// component of the energy breakdown.
    pub fn access_shared(
        &mut self,
        address: u64,
        now: u64,
        uncore: &mut UncoreSim,
        params: &EnergyParams,
    ) -> (AccessOutcome, f64) {
        let (level, latency, bw_stall, uncore_energy) = if self.l1.access(address) {
            (MemLevel::L1, self.l1.geometry().hit_latency_cycles, 0, 0.0)
        } else if self.l2.access(address) {
            self.l1.fill(address);
            (MemLevel::L2, self.l2.geometry().hit_latency_cycles, 0, 0.0)
        } else {
            let outcome = uncore.access(address, now, params);
            self.l2.fill(address);
            self.l1.fill(address);
            (outcome.level, outcome.latency, outcome.queue_wait, outcome.energy)
        };

        // Prefetch fills go to the shared L3 *through the memory port*: they occupy
        // bandwidth like demand transfers and are dropped when the queue is full.
        let (prefetched, prefetch_energy) =
            self.next_line_prefetch(address, Some((uncore, now, params)));
        (AccessOutcome { level, latency, prefetched, bw_stall }, uncore_energy + prefetch_energy)
    }

    /// Returns `true` if a demand access to `address` may proceed at `now`: it is
    /// resident somewhere (private L1/L2, or the shared L3), or the shared memory port
    /// can accept another transfer.  Always `true` with a private uncore.
    ///
    /// The probe is read-only — LRU state is not touched — so callers can gate issue on
    /// it and retry the same access later.
    pub fn admits(&self, address: u64, now: u64, uncore: &UncoreSim) -> bool {
        if !uncore.is_shared() {
            return true;
        }
        // Queue-has-room first: it is a single compare and true in the uncongested
        // common case, short-circuiting the three associative residency walks.
        uncore.can_accept(now)
            || self.l1.contains(address)
            || self.l2.contains(address)
            || uncore.contains(address)
    }

    /// Explicit software prefetch (e.g. `dcbt`): fills the hierarchy without a demand
    /// latency.
    pub fn prefetch(&mut self, address: u64) {
        self.private_l3().fill(address);
        self.l2.fill(address);
        self.l1.fill(address);
        self.prefetches_issued += 1;
    }

    /// Software prefetch with the L3 behind the shared uncore: the line transfer
    /// charges the memory port and is silently dropped (no fills anywhere) when the
    /// port queue is full.  Returns the ground-truth uncore energy of the event.
    pub fn prefetch_shared(
        &mut self,
        address: u64,
        now: u64,
        uncore: &mut UncoreSim,
        params: &EnergyParams,
    ) -> f64 {
        match uncore.prefetch_fill(address, now, params) {
            Some(energy) => {
                self.l2.fill(address);
                self.l1.fill(address);
                self.prefetches_issued += 1;
                energy
            }
            None => 0.0,
        }
    }

    /// Number of prefetches issued (hardware + software).
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// Clears all levels and the prefetcher state.
    pub fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
        if let Some(l3) = &mut self.l3 {
            l3.clear();
        }
        self.last_line = None;
        self.prefetches_issued = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        mp_uarch::power7().hierarchy
    }

    #[test]
    fn repeated_access_hits_l1() {
        let mut c = CoreCaches::new(&hierarchy(), false);
        assert_eq!(c.access(0x1000).level, MemLevel::Mem);
        assert_eq!(c.access(0x1000).level, MemLevel::L1);
        assert_eq!(c.access(0x1008).level, MemLevel::L1, "same line, different offset");
    }

    #[test]
    fn lru_eviction_in_one_set() {
        let h = hierarchy();
        let mut c = SetAssocCache::new(h.l1);
        // Fill one set with `ways` lines then one more: the first one must be evicted.
        let addrs: Vec<u64> = (0..=h.l1.ways as u64).map(|k| k * h.l1.num_sets() * 128).collect();
        for &a in &addrs {
            assert!(!c.access(a));
            c.fill(a);
        }
        assert!(!c.contains(addrs[0]), "LRU line must have been evicted");
        assert!(c.contains(*addrs.last().unwrap()));
    }

    #[test]
    fn cyclic_overflow_of_a_set_always_misses() {
        let h = hierarchy();
        let mut c = CoreCaches::new(&hierarchy(), false);
        // 16 lines mapping to the same L1 set, cycled twice: every access must miss L1.
        let addrs: Vec<u64> = (0..16u64).map(|k| k * h.l1.num_sets() * 128).collect();
        for &a in &addrs {
            c.access(a);
        }
        for &a in &addrs {
            assert_ne!(c.access(a).level, MemLevel::L1);
        }
    }

    #[test]
    fn l2_serves_what_l1_cannot_hold() {
        let h = hierarchy();
        let mut c = CoreCaches::new(&hierarchy(), false);
        let addrs: Vec<u64> = (0..16u64).map(|k| k * h.l1.num_sets() * 128).collect();
        // Warm-up pass, then steady state should be all-L2.
        for _ in 0..2 {
            for &a in &addrs {
                c.access(a);
            }
        }
        for &a in &addrs {
            assert_eq!(c.access(a).level, MemLevel::L2);
        }
    }

    #[test]
    fn next_line_prefetcher_catches_sequential_streams() {
        let mut c = CoreCaches::new(&hierarchy(), true);
        let line = 128u64;
        c.access(0);
        c.access(line); // adjacent: prefetch of line 2 issued
        assert!(c.prefetches_issued() >= 1);
        assert_eq!(c.access(2 * line).level, MemLevel::L1, "prefetched line must hit");
    }

    #[test]
    fn prefetcher_is_defeated_by_non_sequential_accesses() {
        let mut c = CoreCaches::new(&hierarchy(), true);
        c.access(0);
        c.access(10 * 128);
        c.access(3 * 128);
        assert_eq!(c.prefetches_issued(), 0);
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = CoreCaches::new(&hierarchy(), true);
        c.access(0x4000);
        c.clear();
        assert_eq!(c.access(0x4000).level, MemLevel::Mem);
    }

    #[test]
    fn shared_path_serves_l2_misses_from_the_shared_l3() {
        use crate::uncore::{UncoreMode, UncoreSim};
        let uarch = mp_uarch::power7();
        let params = mp_uarch::power7().energy;
        let mut a = CoreCaches::new(&uarch.hierarchy, false);
        let mut b = CoreCaches::new(&uarch.hierarchy, false);
        let mut uncore = UncoreSim::new(&uarch, UncoreMode::Shared);

        // Core A misses everywhere: the line lands in the shared L3.
        let (miss, energy) = a.access_shared(0x10_0000, 0, &mut uncore, &params);
        assert_eq!(miss.level, MemLevel::Mem);
        assert!(energy > params.uncore_mem_energy);
        // Core B (cold private caches) now hits the *shared* L3 — cross-core reuse that
        // is impossible with private hierarchies.
        let (hit, energy) = b.access_shared(0x10_0000, 10, &mut uncore, &params);
        assert_eq!(hit.level, MemLevel::L3);
        assert_eq!(hit.bw_stall, 0);
        assert!((energy - params.uncore_l3_energy).abs() < 1e-12);
    }

    #[test]
    fn admission_probe_is_read_only_and_gates_on_the_queue() {
        use crate::uncore::{UncoreMode, UncoreSim};
        let uarch = mp_uarch::power7();
        let params = mp_uarch::power7().energy;
        let mut c = CoreCaches::new(&uarch.hierarchy, false);
        let mut uncore = UncoreSim::new(&uarch, UncoreMode::Shared);
        // Resident lines are always admitted.
        let _ = c.access_shared(0x2000, 0, &mut uncore, &params);
        assert!(c.admits(0x2000, 0, &uncore));
        // Fill the memory-port queue with misses to distinct lines.
        for i in 1..=u64::from(uarch.uncore.mem_queue_depth) {
            let _ = c.access_shared(i << 30, 0, &mut uncore, &params);
        }
        assert!(!c.admits(63 << 30, 0, &uncore), "non-resident line must wait for the port");
        assert!(c.admits(0x2000, 0, &uncore), "resident lines bypass the port");
        assert!(c.admits(63 << 30, uarch.uncore.queue_limit_cycles(), &uncore));
    }

    #[test]
    fn private_mode_admits_everything() {
        use crate::uncore::{UncoreMode, UncoreSim};
        let uarch = mp_uarch::power7();
        let c = CoreCaches::new(&uarch.hierarchy, false);
        let uncore = UncoreSim::new(&uarch, UncoreMode::Private);
        assert!(c.admits(0xdead_0000, 0, &uncore));
    }

    #[test]
    fn latencies_come_from_the_hierarchy() {
        let h = hierarchy();
        let mut c = CoreCaches::new(&h, false);
        assert_eq!(c.access(0x8000).latency, h.mem_latency_cycles);
        assert_eq!(c.access(0x8000).latency, h.l1.hit_latency_cycles);
    }
}
