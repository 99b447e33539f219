//! Cache hierarchy geometry and address field decomposition.
//!
//! The analytical set-associative cache model of the paper (Section 2.1.3, Figure 3b)
//! relies on knowing, for every level of the hierarchy, which address bits select the
//! set.  [`CacheGeometry`] provides that decomposition; the `mp-cache` crate builds the
//! disjoint-set address generator on top of it and the `mp-sim` crate uses the same
//! geometry for its functional cache simulation, so both sides agree by construction.

use std::fmt;

/// A level of the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLevel {
    /// First level data cache.
    L1,
    /// Second level cache.
    L2,
    /// Third level cache (local slice).
    L3,
    /// Main memory (DRAM).
    Mem,
}

impl MemLevel {
    /// All levels ordered from closest to furthest from the core.
    pub const ALL: [MemLevel; 4] = [MemLevel::L1, MemLevel::L2, MemLevel::L3, MemLevel::Mem];

    /// Cache levels only (excludes main memory).
    pub const CACHES: [MemLevel; 3] = [MemLevel::L1, MemLevel::L2, MemLevel::L3];

    /// Short display name ("L1", "L2", "L3", "MEM").
    pub const fn name(self) -> &'static str {
        match self {
            MemLevel::L1 => "L1",
            MemLevel::L2 => "L2",
            MemLevel::L3 => "L3",
            MemLevel::Mem => "MEM",
        }
    }
}

impl fmt::Display for MemLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Geometry of one set-associative cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Which level this geometry describes.
    pub level: MemLevel,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Cache line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Load-to-use latency in core cycles on a hit at this level.
    pub hit_latency_cycles: u32,
}

impl CacheGeometry {
    /// Creates a geometry, validating the power-of-two and divisibility requirements.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two, or if the capacity is not an exact
    /// multiple of `line_bytes * ways`.
    pub fn new(
        level: MemLevel,
        capacity_bytes: u64,
        line_bytes: u64,
        ways: u32,
        hit_latency_cycles: u32,
    ) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways > 0, "associativity must be positive");
        assert_eq!(
            capacity_bytes % (line_bytes * ways as u64),
            0,
            "capacity must be a multiple of line_bytes * ways"
        );
        let geom = Self { level, capacity_bytes, line_bytes, ways, hit_latency_cycles };
        assert!(geom.num_sets().is_power_of_two(), "number of sets must be a power of two");
        geom
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.capacity_bytes / (self.line_bytes * self.ways as u64)
    }

    /// Number of line-offset bits (bits below the set index).
    pub fn offset_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// Number of set-index bits.
    pub fn index_bits(&self) -> u32 {
        self.num_sets().trailing_zeros()
    }

    /// The set an address maps to.
    pub fn set_of(&self, address: u64) -> u64 {
        (address >> self.offset_bits()) & (self.num_sets() - 1)
    }

    /// The tag of an address at this level.
    pub fn tag_of(&self, address: u64) -> u64 {
        address >> (self.offset_bits() + self.index_bits())
    }

    /// The line-aligned base address of the line containing `address`.
    pub fn line_base(&self, address: u64) -> u64 {
        address & !(self.line_bytes - 1)
    }

    /// An address that maps to `set` with the given `tag` (offset zero).
    pub fn address_for(&self, tag: u64, set: u64) -> u64 {
        assert!(set < self.num_sets(), "set {set} out of range");
        (tag << (self.offset_bits() + self.index_bits())) | (set << self.offset_bits())
    }
}

/// Geometry of the chip-level shared uncore: the shared last-level cache all cores
/// contend for, plus the finite memory port behind it.
///
/// The per-core [`MemoryHierarchy`] describes the *private* view (L1, L2 and a local L3
/// slice); this structure describes what the slices aggregate into when the simulator
/// runs in shared-uncore mode: one chip-wide L3 and a memory interface with finite
/// bandwidth, so co-scheduled memory-bound workloads contend for capacity and bandwidth
/// instead of simulating in isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncoreGeometry {
    /// Geometry of the chip-wide shared L3 (the aggregation of all per-core slices).
    pub shared_l3: CacheGeometry,
    /// Cycles the memory port is occupied per line transferred (the reciprocal of the
    /// chip's memory bandwidth in lines per cycle).
    pub mem_port_cycles: u32,
    /// Maximum number of line transfers that may be queued on the memory port; demand
    /// misses beyond this depth stall the requesting thread (back-pressure).
    pub mem_queue_depth: u32,
}

impl UncoreGeometry {
    /// Cycles of queueing the port can accumulate before admission control stalls
    /// further demand misses.
    pub fn queue_limit_cycles(&self) -> u64 {
        u64::from(self.mem_queue_depth) * u64::from(self.mem_port_cycles)
    }
}

/// The full memory hierarchy description of one core plus main memory.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryHierarchy {
    /// First level data cache geometry (per core).
    pub l1: CacheGeometry,
    /// Second level cache geometry (per core).
    pub l2: CacheGeometry,
    /// Third level cache geometry (local slice, per core).
    pub l3: CacheGeometry,
    /// Main memory access latency in core cycles.
    pub mem_latency_cycles: u32,
}

impl MemoryHierarchy {
    /// Geometry of a cache level.
    ///
    /// # Panics
    ///
    /// Panics if called with [`MemLevel::Mem`], which has no cache geometry.
    pub fn geometry(&self, level: MemLevel) -> &CacheGeometry {
        match level {
            MemLevel::L1 => &self.l1,
            MemLevel::L2 => &self.l2,
            MemLevel::L3 => &self.l3,
            MemLevel::Mem => panic!("main memory has no cache geometry"),
        }
    }

    /// Access latency (cycles) for a hit at the given level.
    pub fn latency(&self, level: MemLevel) -> u32 {
        match level {
            MemLevel::L1 => self.l1.hit_latency_cycles,
            MemLevel::L2 => self.l2.hit_latency_cycles,
            MemLevel::L3 => self.l3.hit_latency_cycles,
            MemLevel::Mem => self.mem_latency_cycles,
        }
    }

    /// Common line size across the hierarchy, in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the levels disagree on line size (the analytical model requires a common
    /// line size, which POWER7 satisfies).
    pub fn line_bytes(&self) -> u64 {
        assert_eq!(self.l1.line_bytes, self.l2.line_bytes);
        assert_eq!(self.l2.line_bytes, self.l3.line_bytes);
        self.l1.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power7_geometry_matches_published_parameters() {
        let h = crate::power7().hierarchy;
        assert_eq!(h.l1.num_sets(), 32);
        assert_eq!(h.l2.num_sets(), 256);
        assert_eq!(h.l3.num_sets(), 4096);
        assert_eq!(h.l1.offset_bits(), 7);
        assert_eq!(h.l1.index_bits(), 5);
        assert_eq!(h.l2.index_bits(), 8);
        assert_eq!(h.l3.index_bits(), 12);
        assert_eq!(h.line_bytes(), 128);
    }

    #[test]
    fn set_and_tag_roundtrip() {
        let g = crate::power7().hierarchy.l1;
        for set in [0u64, 1, 17, 31] {
            for tag in [0u64, 5, 1000] {
                let addr = g.address_for(tag, set);
                assert_eq!(g.set_of(addr), set);
                assert_eq!(g.tag_of(addr), tag);
                assert_eq!(g.line_base(addr + 5), addr);
            }
        }
    }

    #[test]
    fn latencies_are_monotonically_increasing() {
        let h = crate::power7().hierarchy;
        assert!(h.latency(MemLevel::L1) < h.latency(MemLevel::L2));
        assert!(h.latency(MemLevel::L2) < h.latency(MemLevel::L3));
        assert!(h.latency(MemLevel::L3) < h.latency(MemLevel::Mem));
    }

    #[test]
    fn shared_uncore_aggregates_the_slices() {
        let m = crate::power7();
        let (h, u) = (m.hierarchy, m.uncore);
        assert_eq!(u.shared_l3.capacity_bytes, 8 * h.l3.capacity_bytes);
        assert_eq!(u.shared_l3.line_bytes, h.line_bytes());
        assert_eq!(u.shared_l3.num_sets(), 32768);
        assert_eq!(u.queue_limit_cycles(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_size_is_rejected() {
        let _ = CacheGeometry::new(MemLevel::L1, 32 * 1024, 100, 8, 2);
    }

    #[test]
    #[should_panic(expected = "no cache geometry")]
    fn mem_level_has_no_geometry() {
        let _ = crate::power7().hierarchy.geometry(MemLevel::Mem);
    }
}
