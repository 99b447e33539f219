//! The chip-level shared uncore: one L3 shared by all cores plus a finite-bandwidth
//! memory port.
//!
//! With the default [`UncoreMode::Private`], every core owns its whole cache hierarchy
//! (the original simulator behaviour, bit-for-bit) and the uncore draws a constant
//! power.  In [`UncoreMode::Shared`], all cores send their L2 misses to one
//! [`UncoreSim`]: they contend for shared-L3 capacity and for the memory port, whose
//! queue applies back-pressure to the issuing threads, and uncore energy is accrued
//! *per event* (L3 access, memory line transfer, bandwidth-stall cycle) instead of as
//! a flat per-cycle constant — which is what makes the uncore component of the power
//! model learnable from counters.

use mp_uarch::{MemLevel, MicroArchitecture};

use crate::cache_sim::SetAssocCache;
use crate::energy::EnergyParams;

/// Whether the cores share the chip-level uncore or own private hierarchies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UncoreMode {
    /// Each core owns an L3 slice; the uncore draws a constant power (legacy behaviour).
    #[default]
    Private,
    /// All cores share one L3 and one finite-bandwidth memory port; uncore power is
    /// accrued per access/transfer/stall.
    Shared,
}

/// Result of one shared-uncore demand access (an L2 miss forwarded to the uncore).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncoreOutcome {
    /// The level that served the access ([`MemLevel::L3`] or [`MemLevel::Mem`]).
    pub level: MemLevel,
    /// Load-to-use latency in cycles, including memory-port queueing delay.
    pub latency: u32,
    /// Cycles the transfer waited for the memory port (0 on an L3 hit).
    pub queue_wait: u32,
    /// Ground-truth uncore energy of the event (hidden from modeling code).
    pub energy: f64,
}

/// State shared by all cores in [`UncoreMode::Shared`].
#[derive(Debug, Clone)]
struct SharedState {
    l3: SetAssocCache,
    mem_latency: u32,
    /// Port occupancy per line transfer (reciprocal bandwidth).
    port_cycles: u64,
    /// Queueing the port may accumulate before admission control stalls demand misses.
    queue_limit: u64,
    /// Cycle at which the memory port becomes free again.
    port_free: u64,
}

/// The chip-level uncore simulator, stepped implicitly by the cores' memory accesses.
#[derive(Debug, Clone)]
pub struct UncoreSim {
    shared: Option<SharedState>,
}

impl UncoreSim {
    /// Creates the uncore for a run: inert in [`UncoreMode::Private`], a shared L3 and
    /// memory port (from `uarch.uncore`) in [`UncoreMode::Shared`].
    pub fn new(uarch: &MicroArchitecture, mode: UncoreMode) -> Self {
        let shared = match mode {
            UncoreMode::Private => None,
            UncoreMode::Shared => Some(SharedState {
                l3: SetAssocCache::new(uarch.uncore.shared_l3),
                mem_latency: uarch.hierarchy.mem_latency_cycles,
                port_cycles: u64::from(uarch.uncore.mem_port_cycles),
                queue_limit: uarch.uncore.queue_limit_cycles(),
                port_free: 0,
            }),
        };
        Self { shared }
    }

    /// Returns `true` when the cores share this uncore (i.e. mode is `Shared`).
    pub fn is_shared(&self) -> bool {
        self.shared.is_some()
    }

    /// Returns `true` if the line containing `address` is resident in the shared L3.
    /// Always `false` in private mode.
    pub fn contains(&self, address: u64) -> bool {
        self.shared.as_ref().is_some_and(|s| s.l3.contains(address))
    }

    /// Returns `true` if the memory port can accept another line transfer at `now`
    /// without exceeding its queue depth.  Always `true` in private mode.
    pub fn can_accept(&self, now: u64) -> bool {
        match &self.shared {
            None => true,
            Some(s) => s.port_free.saturating_sub(now) < s.queue_limit,
        }
    }

    /// Serves an L2 miss from the shared L3 or memory, accruing the event's
    /// ground-truth uncore energy into the outcome.
    ///
    /// # Panics
    ///
    /// Panics in private mode — private hierarchies never forward to the uncore.
    pub fn access(&mut self, address: u64, now: u64, params: &EnergyParams) -> UncoreOutcome {
        let s = self.shared.as_mut().expect("uncore accesses require shared mode");
        if s.l3.access(address) {
            return UncoreOutcome {
                level: MemLevel::L3,
                latency: s.l3.geometry().hit_latency_cycles,
                queue_wait: 0,
                energy: params.uncore_l3_energy,
            };
        }
        s.l3.fill(address);
        let start = s.port_free.max(now);
        let wait = start - now;
        s.port_free = start + s.port_cycles;
        // Every cycle spent queued burns stall energy, so the ground truth stays
        // exactly linear in the bandwidth-stall counter (queue waits here, full-queue
        // reject cycles in the core's issue loop).
        let energy = params.uncore_l3_energy
            + params.uncore_mem_energy
            + params.uncore_stall_energy * wait as f64;
        UncoreOutcome {
            level: MemLevel::Mem,
            latency: s.mem_latency + wait as u32,
            queue_wait: wait as u32,
            energy,
        }
    }

    /// Fills the shared L3 with the line containing `address` on behalf of a prefetch
    /// (hardware or software), *charging the memory port* for the line transfer like
    /// any other fill: prefetch-heavy kernels occupy port bandwidth that demand misses
    /// then queue behind.
    ///
    /// Returns the ground-truth uncore energy of the event, or `None` when the port
    /// queue is full and the prefetch is dropped (prefetches are hints; they never
    /// stall the core, they just don't happen under bandwidth pressure).  Lines already
    /// resident in the shared L3 are LRU-refreshed without port traffic.  In private
    /// mode the uncore is inert and the fill costs nothing.
    pub fn prefetch_fill(&mut self, address: u64, now: u64, params: &EnergyParams) -> Option<f64> {
        let Some(s) = &mut self.shared else {
            return Some(0.0);
        };
        if s.l3.access(address) {
            return Some(0.0);
        }
        if s.port_free.saturating_sub(now) >= s.queue_limit {
            return None;
        }
        s.l3.fill(address);
        s.port_free = s.port_free.max(now) + s.port_cycles;
        // The transfer itself; prefetches never queue-wait (they drop instead), so no
        // stall term — the ground truth stays linear in the bandwidth-stall counter.
        Some(params.uncore_mem_energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_uarch::power7;

    fn shared_uncore() -> UncoreSim {
        UncoreSim::new(&power7(), UncoreMode::Shared)
    }

    #[test]
    fn private_uncore_is_inert() {
        let u = UncoreSim::new(&power7(), UncoreMode::Private);
        assert!(!u.is_shared());
        assert!(!u.contains(0x1000));
        assert!(u.can_accept(0));
    }

    #[test]
    fn repeated_access_hits_the_shared_l3() {
        let mut u = shared_uncore();
        let p = power7().energy;
        let miss = u.access(0x4000, 0, &p);
        assert_eq!(miss.level, MemLevel::Mem);
        assert!((miss.energy - (p.uncore_l3_energy + p.uncore_mem_energy)).abs() < 1e-12);
        let hit = u.access(0x4000, 10, &p);
        assert_eq!(hit.level, MemLevel::L3);
        assert_eq!(hit.queue_wait, 0);
        assert!((hit.energy - p.uncore_l3_energy).abs() < 1e-12);
        assert!(u.contains(0x4000));
    }

    #[test]
    fn memory_port_queues_back_to_back_misses() {
        let uarch = power7();
        let mut u = UncoreSim::new(&uarch, UncoreMode::Shared);
        let p = power7().energy;
        let base = uarch.hierarchy.mem_latency_cycles;
        // Distinct lines far apart: every access misses the L3 and takes the port.
        let first = u.access(0, 0, &p);
        assert_eq!(first.queue_wait, 0);
        assert_eq!(first.latency, base);
        let second = u.access(1 << 30, 0, &p);
        assert_eq!(u64::from(second.queue_wait), u64::from(uarch.uncore.mem_port_cycles));
        assert_eq!(second.latency, base + uarch.uncore.mem_port_cycles);
        // Queue-wait cycles carry stall energy on top of the transfer energy.
        let expected = p.uncore_l3_energy
            + p.uncore_mem_energy
            + p.uncore_stall_energy * f64::from(second.queue_wait);
        assert!((second.energy - expected).abs() < 1e-12);
    }

    #[test]
    fn admission_control_limits_the_queue() {
        let uarch = power7();
        let mut u = UncoreSim::new(&uarch, UncoreMode::Shared);
        let p = power7().energy;
        for i in 0..u64::from(uarch.uncore.mem_queue_depth) {
            assert!(u.can_accept(0), "transfer {i} should be admitted");
            let _ = u.access(i << 30, 0, &p);
        }
        assert!(!u.can_accept(0), "queue must be full after queue_depth transfers");
        // The queue drains as time advances.
        assert!(u.can_accept(uarch.uncore.queue_limit_cycles()));
    }

    #[test]
    fn prefetch_fill_makes_lines_resident_and_charges_the_port() {
        let uarch = power7();
        let mut u = shared_uncore();
        let p = power7().energy;
        let energy = u.prefetch_fill(0x8000, 0, &p).expect("empty queue admits the prefetch");
        assert!((energy - p.uncore_mem_energy).abs() < 1e-12);
        assert!(u.contains(0x8000));
        let hit = u.access(0x8000, 0, &p);
        assert_eq!(hit.level, MemLevel::L3);
        // The line transfer occupied the port: a demand miss right behind it queues.
        let miss = u.access(1 << 30, 0, &p);
        assert_eq!(u64::from(miss.queue_wait), u64::from(uarch.uncore.mem_port_cycles));
    }

    #[test]
    fn resident_prefetch_fills_are_free() {
        let mut u = shared_uncore();
        let p = power7().energy;
        let _ = u.prefetch_fill(0x8000, 0, &p);
        let again = u.prefetch_fill(0x8000, 0, &p).expect("resident line is always accepted");
        assert_eq!(again, 0.0, "no port traffic for a resident line");
        // Only the first fill took the port.
        let miss = u.access(1 << 30, 0, &p);
        assert_eq!(u64::from(miss.queue_wait), u64::from(power7().uncore.mem_port_cycles));
    }

    #[test]
    fn prefetch_fills_are_dropped_when_the_queue_is_full() {
        let uarch = power7();
        let mut u = shared_uncore();
        let p = power7().energy;
        for i in 0..u64::from(uarch.uncore.mem_queue_depth) {
            assert!(u.prefetch_fill(i << 30, 0, &p).is_some(), "prefetch {i} admitted");
        }
        assert!(u.prefetch_fill(63 << 30, 0, &p).is_none(), "full queue drops the prefetch");
        assert!(!u.contains(63 << 30), "a dropped prefetch fills nothing");
        // Prefetches drain with time like demand transfers.
        assert!(u.prefetch_fill(63 << 30, uarch.uncore.queue_limit_cycles(), &p).is_some());
    }

    #[test]
    fn prefetch_fill_is_inert_in_private_mode() {
        let mut u = UncoreSim::new(&power7(), UncoreMode::Private);
        let p = power7().energy;
        assert_eq!(u.prefetch_fill(0x8000, 0, &p), Some(0.0));
        assert!(!u.contains(0x8000));
    }
}
