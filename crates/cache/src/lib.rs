//! Analytical set-associative cache model (paper Section 2.1.3).
//!
//! Previous micro-benchmark generators obtained a requested cache hit/miss behaviour by
//! searching over stride patterns with a design space exploration.  MicroProbe instead
//! *statically* constructs an address stream that is guaranteed to produce a requested
//! distribution of hits across the memory hierarchy levels, using two observations:
//!
//! 1. with the address-field knowledge from the micro-architecture definition one can
//!    control exactly which set an access maps to at every cache level, and
//! 2. cycling through more distinct lines than a set has ways guarantees steady-state
//!    misses at that level, while cycling through at most `ways` lines guarantees
//!    steady-state hits.
//!
//! The model assigns *disjoint sets* to each target level (so the streams never evict
//! each other) and sizes each per-level line pool so that the accesses hit exactly at
//! the requested level.  Because all levels share the 128-byte line size, fixing the L1
//! set index automatically confines a stream to a disjoint stripe of L2 and L3 sets.
//!
//! ```
//! use mp_cache::{AccessPlanner, HitDistribution};
//!
//! # fn main() -> Result<(), mp_cache::DistributionError> {
//! let hierarchy = mp_uarch::power7().hierarchy;
//! // A third of the accesses hit each cache level, as in the paper's Figure 2 example.
//! let dist = HitDistribution::new(0.33, 0.33, 0.34, 0.0)?;
//! let plan = AccessPlanner::new(&hierarchy).plan(&dist, 1024, 0, 42);
//! assert_eq!(plan.len(), 1024);
//! # Ok(())
//! # }
//! ```

pub mod distribution;
pub mod planner;

pub use distribution::{DistributionError, HitDistribution};
pub use planner::{AccessPlan, AccessPlanner, PlannedAccess};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::HitDistribution>();
        assert_send_sync::<super::AccessPlan>();
    }
}
