//! One SMT core: thread contexts, issue logic, execution pipes.
//!
//! The issue loop runs entirely over the pre-decoded kernel representation
//! ([`DecodedBody`]) and the run's [`EnergyTables`]: per window entry it does
//! flat-array loads, a shift-and-mask of the entry's static "older writers" against
//! the thread's unissued mask and a scoreboard test, and per issue one scoreboard
//! update — no allocation, no hashing, no re-encoding, no searches.  A core never
//! touches the chip's energy breakdown: each cycle it logs its dynamic-energy addends
//! into a fixed-capacity [`CycleEnergy`], which the chip replays.
//!
//! A thread's window is a head index plus a 12-bit "unissued" mask: entry `pos` is
//! body instruction `head + pos`, wrapped.  Retiring `r` issued entries and fetching
//! `r` new ones advances the head by `r` and shifts the mask, filling its top bits.
//!
//! The scan visits only what can issue.  It walks, oldest first, the unissued entries
//! whose instruction can use a unit slot with a free pipe (the body's per-head slot
//! masks over the slots not yet found full), and narrows that set whenever pipe
//! selection finds another slot full.  A thread with no such entry is not scanned at
//! all.  Every skip is exact.  A slot without a free pipe stays full for the rest of
//! the cycle, for every thread of the core, because issuing only raises a pipe's
//! `busy_until`, so a skipped entry would have failed its pipe check.  Whether an
//! entry waits on an older one reads only the unissued mask, never what the scan has
//! visited, so skipping an entry changes nothing for the entries behind it.  A skipped
//! scan would have issued, logged and retired nothing.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mp_uarch::{CounterValues, MemLevel, MicroArchitecture};

use crate::cache_sim::CoreCaches;
use crate::decoded::{DecodedBody, ISSUE_WINDOW, WINDOW_FULL};
use crate::energy::{CycleEnergy, EnergyTables};
use crate::uncore::{UncoreMode, UncoreSim};

/// Pipeline flush penalty in cycles on a branch misprediction.
const MISPREDICT_PENALTY: u64 = 15;

/// One execution pipe of a functional unit.
#[derive(Debug, Clone, Copy, Default)]
struct Pipe {
    busy_until: f64,
    last_encoding: u32,
}

/// Architectural state and issue window of one hardware thread.
#[derive(Debug)]
struct ThreadContext<'a> {
    /// The thread's kernel, compiled to the dense hot-loop representation.
    body: &'a DecodedBody,
    /// The body index of the oldest window entry: the window holds the
    /// [`ISSUE_WINDOW`] instructions `(head + pos) mod len` of the dynamic stream.
    head: usize,
    /// Bit `pos` is set while the window entry at position `pos` has not issued.
    unissued: u16,
    /// Ready time of every register, indexed by the kernel's dense register id.
    reg_ready: Vec<u64>,
    stall_until: u64,
    counters: CounterValues,
    rng: SmallRng,
}

impl<'a> ThreadContext<'a> {
    fn new(body: &'a DecodedBody, seed: u64) -> Self {
        Self {
            body,
            head: 0,
            unissued: WINDOW_FULL,
            reg_ready: vec![0; body.dense_regs()],
            stall_until: 0,
            counters: CounterValues::default(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Retires the issued entries at the head of the window and fetches as many new
    /// ones behind its youngest entry.
    fn retire_and_refill(&mut self) {
        let retired = (self.unissued.trailing_zeros() as usize).min(ISSUE_WINDOW);
        self.head += retired;
        if self.head >= self.body.len() {
            self.head %= self.body.len();
        }
        self.unissued =
            (self.unissued >> retired) | ((WINDOW_FULL << (ISSUE_WINDOW - retired)) & WINDOW_FULL);
    }
}

/// Unit slots, in [`UNIT_SLOTS`](crate::energy::UNIT_SLOTS) order.
const FXU: usize = 0;
const LSU: usize = 1;
const VSU: usize = 2;
const DFU: usize = 3;

/// The execution pipes of one core, by unit slot.
#[derive(Debug)]
struct Pipes([Vec<Pipe>; 5]);

impl Pipes {
    /// Picks a pipe that frees up during cycle `now` in the first slot of `units`, in
    /// slot order, that is not in `full`, as a (unit slot, pipe index) pair.  Every slot
    /// it finds without a free pipe is added to `full`.  Slot order puts the FXU before
    /// the LSU for `FxuOrLsu` instructions.
    fn select(&self, units: u8, full: &mut u8, now: u64) -> Option<(usize, usize)> {
        let deadline = (now + 1) as f64 - 1e-9;
        let mut candidates = units & !*full;
        while candidates != 0 {
            let slot = candidates.trailing_zeros() as usize;
            if let Some(pipe) = self.0[slot].iter().position(|p| p.busy_until <= deadline) {
                return Some((slot, pipe));
            }
            *full |= 1 << slot;
            candidates &= candidates - 1;
        }
        None
    }
}

/// One simulated SMT core.
#[derive(Debug)]
pub(crate) struct CoreSim<'a> {
    threads: Vec<ThreadContext<'a>>,
    caches: CoreCaches,
    pipes: Pipes,
    dispatch_width: u32,
    /// The dynamic-energy addends of the current cycle.
    energy: CycleEnergy,
    /// Units that issued at least one instruction in the current cycle, by unit slot
    /// — drives the per-active-cycle wake energy.
    cycle_units: [bool; 5],
    /// Unit slots found without a free pipe in the current cycle, as a slot mask.  A
    /// slot stays full until the cycle ends: issuing only raises `busy_until`.
    full_units: u8,
}

impl<'a> CoreSim<'a> {
    /// Creates a core running one pre-decoded kernel body per hardware thread.  The
    /// caller decodes each distinct kernel once (see `ChipSim::run_heterogeneous`) and
    /// lends the bodies to the threads that run them; the per-cycle loop never sees an
    /// `Instruction` again.
    ///
    /// # Panics
    ///
    /// Panics if one cycle of the core could log more energy addends than a
    /// [`CycleEnergy`] holds (see [`CycleEnergy::fits`]).
    pub(crate) fn new(
        uarch: &MicroArchitecture,
        bodies: Vec<&'a DecodedBody>,
        prefetch_enabled: bool,
        seed: u64,
        uncore_mode: UncoreMode,
    ) -> Self {
        assert!(
            CycleEnergy::fits(uarch.pipes.dispatch_width as usize, bodies.len()),
            "a dispatch width of {} with {} threads per core overflows the per-cycle \
             energy log",
            uarch.pipes.dispatch_width,
            bodies.len()
        );
        let threads = bodies
            .into_iter()
            .enumerate()
            .map(|(i, b)| ThreadContext::new(b, seed.wrapping_add(i as u64 * 7919)))
            .collect();
        let counts =
            [uarch.pipes.fxu, uarch.pipes.lsu, uarch.pipes.vsu, uarch.pipes.dfu, uarch.pipes.bru];
        let caches = match uncore_mode {
            // Shared mode: the private L3 slice would never be touched, skip it.
            UncoreMode::Private => CoreCaches::new(&uarch.hierarchy, prefetch_enabled),
            UncoreMode::Shared => CoreCaches::new_shared(&uarch.hierarchy, prefetch_enabled),
        };
        Self {
            threads,
            caches,
            pipes: Pipes(counts.map(|n| vec![Pipe::default(); n as usize])),
            dispatch_width: uarch.pipes.dispatch_width,
            energy: CycleEnergy::default(),
            cycle_units: [false; 5],
            full_units: 0,
        }
    }

    /// Resets the performance counters (keeps caches and timing state), used at the end
    /// of the warm-up phase.
    pub(crate) fn reset_counters(&mut self) {
        for t in &mut self.threads {
            t.counters = CounterValues::default();
        }
    }

    /// Per-thread counters, with the cycle counter set to `cycles`.
    pub(crate) fn counters(&self, cycles: u64) -> Vec<CounterValues> {
        self.threads
            .iter()
            .map(|t| {
                let mut c = t.counters;
                c.cycles = cycles;
                c
            })
            .collect()
    }

    /// The dynamic-energy addends of the last [`step`](Self::step).
    pub(crate) fn energy(&self) -> &CycleEnergy {
        &self.energy
    }

    /// Advances the core by one cycle, issuing instructions, and returns the cycle's
    /// dynamic-energy addends.  Memory accesses beyond the private L2 go through
    /// `uncore` (the local L3 slice in private mode, the chip-shared L3 + memory port in
    /// shared mode).
    pub(crate) fn step(
        &mut self,
        now: u64,
        tables: &EnergyTables<'_>,
        uncore: &mut UncoreSim,
    ) -> &CycleEnergy {
        self.energy.clear();
        let nthreads = self.threads.len();
        if nthreads == 0 {
            return &self.energy;
        }
        let mut dispatch_left = self.dispatch_width;
        let mut tid = (now as usize) % nthreads;
        self.cycle_units = [false; 5];
        self.full_units = 0;

        for _ in 0..nthreads {
            if dispatch_left == 0 {
                break;
            }
            dispatch_left = self.step_thread(tid, now, tables, uncore, dispatch_left);
            tid += 1;
            if tid == nthreads {
                tid = 0;
            }
        }

        // Clock-gating: every unit that woke up this cycle pays a fixed wake-up energy,
        // independent of how many operations it executed.
        for (woke, wake) in self.cycle_units.iter().zip(tables.wake) {
            if *woke {
                self.energy.compute.push(wake);
            }
        }
        &self.energy
    }

    /// Tries to issue instructions from one thread; returns the remaining dispatch slots.
    fn step_thread(
        &mut self,
        tid: usize,
        now: u64,
        tables: &EnergyTables<'_>,
        uncore: &mut UncoreSim,
        mut dispatch_left: u32,
    ) -> u32 {
        let Self { threads, caches, pipes, energy, cycle_units, full_units, .. } = self;
        let params = tables.params;
        let thread = &mut threads[tid];
        if thread.stall_until > now {
            return dispatch_left;
        }
        let ThreadContext { body, head, unissued, reg_ready, stall_until, counters, rng } =
            &mut *thread;
        let body: &DecodedBody = body;

        // The unissued entries that can use a unit slot with a free pipe, oldest first.
        // If there are none, the scan would issue and log nothing, and retire nothing
        // because the head is unissued.
        let mut full = *full_units;
        let mut scan = *unissued & body.issuable(*head, full);
        if scan == 0 {
            return dispatch_left;
        }
        while scan != 0 {
            if dispatch_left == 0 {
                break;
            }
            let pos = scan.trailing_zeros() as usize;
            scan &= scan - 1;
            let mut idx = *head + pos;
            if idx >= body.len() {
                idx %= body.len();
            }

            // The register dependencies must be met: no older entry still waiting to
            // issue writes a source, and every source's value is available by this
            // cycle.  Then an execution pipe of the right unit must be free; a slot
            // found full this cycle takes the entries that can only use full slots out
            // of the scan.
            if body.waits_on_older(idx, pos, *unissued)
                || body.reads(idx).iter().any(|&reg| reg_ready[usize::from(reg)] > now)
            {
                continue;
            }
            let units = body.units(idx);
            let selected = pipes.select(units, full_units, now);
            if *full_units != full {
                full = *full_units;
                scan &= body.issuable(*head, full);
            }
            let Some((slot, pipe_idx)) = selected else { continue };

            // Shared-uncore back-pressure: a demand access that would need a memory
            // line transfer cannot issue while the port queue is full.  The thread
            // stalls for the cycle (an LSU reject/replay) and retries; the held-off
            // request keeps the queue logic powered, which is the bandwidth-stall
            // uncore energy term.
            if let Some(mem) = body.mem(idx) {
                if !body.flags(idx).is_prefetch() && !caches.admits(mem.address, now, uncore) {
                    counters.bw_stalls += 1;
                    energy.uncore.push(params.uncore_stall_energy);
                    break;
                }
            }

            // ---- issue ----
            dispatch_left -= 1;
            *unissued &= !(1 << pos);
            cycle_units[slot] = true;

            let flags = body.flags(idx);
            let mut total_latency = body.latency(idx);

            // Memory access (demand or prefetch).  Only memory instructions log memory
            // and uncore addends, and only shared-uncore events log uncore ones: the
            // other issues would add 0.0, which leaves a field that starts at +0.0
            // bit-for-bit unchanged.
            if let Some(mem) = body.mem(idx) {
                let mut mem_energy = 0.0;
                if flags.is_prefetch() {
                    if uncore.is_shared() {
                        let event_energy = caches.prefetch_shared(mem.address, now, uncore, params);
                        energy.uncore.push(event_energy);
                    } else {
                        caches.prefetch(mem.address);
                    }
                    // The prefetch instruction executes (and costs issue energy) even
                    // when a full port queue drops its line transfer.
                    counters.prefetches += 1;
                    mem_energy += params.prefetch_energy;
                } else {
                    let outcome = if uncore.is_shared() {
                        // L1/L2 stay core-side energy; the shared L3 and memory port
                        // accrue *uncore* energy, returned alongside the outcome.
                        let (outcome, event_energy) =
                            caches.access_shared(mem.address, now, uncore, params);
                        energy.uncore.push(event_energy);
                        if matches!(outcome.level, MemLevel::L1 | MemLevel::L2) {
                            mem_energy += tables.access(outcome.level);
                        }
                        outcome
                    } else {
                        let outcome = caches.access(mem.address);
                        mem_energy += tables.access(outcome.level);
                        outcome
                    };
                    total_latency += u64::from(outcome.latency);
                    if outcome.prefetched {
                        mem_energy += params.prefetch_energy;
                        counters.prefetches += 1;
                    }
                    if mem.is_store {
                        counters.stores += 1;
                    } else {
                        counters.loads += 1;
                    }
                    match outcome.level {
                        MemLevel::L1 => counters.l1_hits += 1,
                        MemLevel::L2 => counters.l2_hits += 1,
                        MemLevel::L3 => {
                            counters.l3_hits += 1;
                            counters.l3_accesses += 1;
                        }
                        MemLevel::Mem => {
                            counters.mem_accesses += 1;
                            counters.l3_accesses += 1;
                            counters.l3_misses += 1;
                        }
                    }
                    counters.bw_stalls += u64::from(outcome.bw_stall);
                }
                energy.memory.push(mem_energy);
            }

            // Destination registers become ready after the full latency.
            for &reg in body.writes(idx) {
                reg_ready[usize::from(reg)] = now + total_latency;
            }

            // Occupy the pipe for the instruction's reciprocal throughput and charge the
            // order-dependent switching energy against the previous instruction executed
            // on the same physical pipe.
            let enc = body.encoding(idx);
            let pipe = &mut pipes.0[slot][pipe_idx];
            let switch_bits = (enc ^ pipe.last_encoding).count_ones();
            // Accumulate the fractional occupancy so that non-integer reciprocal
            // throughputs (e.g. 1.14 cycles) are honoured in the long-run average.
            pipe.busy_until = pipe.busy_until.max(now as f64) + body.recip_throughput(idx);
            pipe.last_encoding = enc;

            // `EnergyParams::instruction_energy`, from the tables (same sum order).
            energy.compute.push(
                tables.unit_base[slot]
                    + body.datapath(idx)
                    + tables.switching[switch_bits as usize],
            );

            // Branches: conditional ones may mispredict and flush the thread.
            if flags.is_branch() {
                counters.bru_ops += 1;
                if flags.is_conditional() {
                    let rate = body.mispredict_rate();
                    if rate > 0.0 && rng.gen::<f64>() < rate {
                        *stall_until = now + MISPREDICT_PENALTY;
                        energy.compute.push(params.flush_energy);
                    }
                }
            } else {
                let ops = match slot {
                    FXU => &mut counters.fxu_ops,
                    LSU => &mut counters.lsu_ops,
                    VSU => &mut counters.vsu_ops,
                    DFU => &mut counters.dfu_ops,
                    _ => &mut counters.bru_ops,
                };
                *ops += 1;
            }
            counters.instr_completed += 1;

            if *stall_until > now {
                break;
            }
        }

        thread.retire_and_refill();
        dispatch_left
    }

    /// Number of hardware threads on the core.
    #[cfg(test)]
    pub(crate) fn thread_count(&self) -> usize {
        self.threads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyBreakdown;
    use mp_isa::{Instruction, Isa, Operand, RegRef};
    use mp_uarch::power7;

    fn rrr(isa: &Isa, m: &str, d: u16, a: u16, b: u16) -> Instruction {
        let (id, _) = isa.get(m).unwrap();
        Instruction::new(
            isa,
            id,
            vec![
                Operand::Reg(RegRef::gpr(d)),
                Operand::Reg(RegRef::gpr(a)),
                Operand::Reg(RegRef::gpr(b)),
            ],
            None,
        )
        .unwrap()
    }

    fn decode_all(uarch: &MicroArchitecture, kernels: &[Kernel]) -> Vec<DecodedBody> {
        let props = uarch.opcode_props();
        kernels.iter().map(|k| DecodedBody::decode(k, uarch, &props)).collect()
    }

    fn run_core(
        uarch: &MicroArchitecture,
        kernel: Kernel,
        cycles: u64,
    ) -> (Vec<CounterValues>, EnergyBreakdown) {
        let decoded = decode_all(uarch, &[kernel]);
        let mut core = CoreSim::new(uarch, decoded.iter().collect(), false, 1, UncoreMode::Private);
        let mut uncore = UncoreSim::new(uarch, UncoreMode::Private);
        let params = power7().energy;
        let tables = EnergyTables::new(&params);
        // Warm up then measure.
        for now in 0..1000u64 {
            core.step(now, &tables, &mut uncore);
        }
        core.reset_counters();
        let mut energy = EnergyBreakdown::default();
        for now in 1000..1000 + cycles {
            core.step(now, &tables, &mut uncore).add_to(std::slice::from_mut(&mut energy));
        }
        (core.counters(cycles), energy)
    }

    #[test]
    fn independent_fxu_only_ops_reach_two_ipc() {
        let uarch = power7();
        let isa = &uarch.isa;
        // Independent subf instructions: writes to distinct registers, reads constants.
        let body: Vec<Instruction> =
            (0..64).map(|i| rrr(isa, "subf", (i % 8) as u16, 10, 11)).collect();
        let (counters, _) = run_core(&uarch, Kernel::new("subf", body), 4000);
        let ipc = counters[0].ipc();
        assert!((1.7..=2.2).contains(&ipc), "FXU-only IPC should be ~2.0, got {ipc}");
        assert!(counters[0].fxu_ops > 0);
        assert_eq!(counters[0].vsu_ops, 0);
    }

    #[test]
    fn simple_ops_exceed_three_ipc_using_both_fxu_and_lsu() {
        let uarch = power7();
        let isa = &uarch.isa;
        let body: Vec<Instruction> =
            (0..64).map(|i| rrr(isa, "add", (i % 8) as u16, 10, 11)).collect();
        let (counters, _) = run_core(&uarch, Kernel::new("add", body), 4000);
        let ipc = counters[0].ipc();
        assert!(ipc > 3.0, "simple integer IPC should exceed 3, got {ipc}");
        assert!(counters[0].fxu_ops > 0 && counters[0].lsu_ops > 0);
    }

    #[test]
    fn dependency_chain_limits_ipc_to_inverse_latency() {
        let uarch = power7();
        let isa = &uarch.isa;
        // mulld r3 <- r3, r3 chained: IPC ~ 1/latency (latency 4).
        let body: Vec<Instruction> = (0..64).map(|_| rrr(isa, "mulld", 3, 3, 3)).collect();
        let (counters, _) = run_core(&uarch, Kernel::new("chain", body), 4000);
        let ipc = counters[0].ipc();
        assert!((0.2..=0.3).contains(&ipc), "chained mulld IPC should be ~0.25, got {ipc}");
    }

    #[test]
    fn energy_scales_with_activity() {
        let uarch = power7();
        let isa = &uarch.isa;
        let busy: Vec<Instruction> =
            (0..64).map(|i| rrr(isa, "add", (i % 8) as u16, 10, 11)).collect();
        let lazy: Vec<Instruction> = (0..64).map(|_| rrr(isa, "mulld", 3, 3, 3)).collect();
        let (_, e_busy) = run_core(&uarch, Kernel::new("busy", busy), 4000);
        let (_, e_lazy) = run_core(&uarch, Kernel::new("lazy", lazy), 4000);
        assert!(e_busy.dynamic() > e_lazy.dynamic());
    }

    #[test]
    fn zero_data_reduces_energy() {
        let uarch = power7();
        let isa = &uarch.isa;
        let body: Vec<Instruction> =
            (0..64).map(|i| rrr(isa, "xor", (i % 8) as u16, 10, 11)).collect();
        let random = Kernel::new("rand", body.clone()).with_data_profile(DataProfile::Random);
        let zeros = Kernel::new("zeros", body).with_data_profile(DataProfile::Zeros);
        let (_, e_rand) = run_core(&uarch, random, 4000);
        let (_, e_zero) = run_core(&uarch, zeros, 4000);
        assert!(e_zero.dynamic_compute < e_rand.dynamic_compute);
    }

    use crate::kernel::{DataProfile, Kernel};

    #[test]
    fn smt_threads_share_core_resources() {
        let uarch = power7();
        let isa = &uarch.isa;
        let body: Vec<Instruction> =
            (0..64).map(|i| rrr(isa, "subf", (i % 8) as u16, 10, 11)).collect();
        let kernel = Kernel::new("subf", body);
        let params = power7().energy;
        let tables = EnergyTables::new(&params);

        let ipc_for = |n: usize| {
            let decoded = decode_all(&uarch, &vec![kernel.clone(); n]);
            let mut core =
                CoreSim::new(&uarch, decoded.iter().collect(), false, 3, UncoreMode::Private);
            let mut uncore = UncoreSim::new(&uarch, UncoreMode::Private);
            for now in 0..6000u64 {
                if now == 3000 {
                    core.reset_counters();
                }
                core.step(now, &tables, &mut uncore);
            }
            let total: u64 = core.counters(3000).iter().map(|c| c.instr_completed).sum();
            total as f64 / 3000.0
        };
        let one = ipc_for(1);
        let four = ipc_for(4);
        // FXU-only work saturates the 2 FXU pipes regardless of SMT: aggregate IPC stays
        // ~2 while per-thread IPC drops.
        assert!((one - 2.0).abs() < 0.3, "1-thread IPC {one}");
        assert!((four - 2.0).abs() < 0.3, "4-thread aggregate IPC {four}");
    }

    #[test]
    fn mispredicting_branches_reduce_throughput() {
        let uarch = power7();
        let isa = &uarch.isa;
        let (bc, _) = isa.get("bc").unwrap();
        let mut body: Vec<Instruction> =
            (0..32).map(|i| rrr(isa, "add", (i % 8) as u16, 10, 11)).collect();
        body.push(
            Instruction::new(isa, bc, vec![Operand::CrField(0), Operand::BranchTarget(-32)], None)
                .unwrap(),
        );
        let clean = Kernel::new("clean", body.clone());
        let noisy = Kernel::new("noisy", body).with_mispredict_rate(0.5);
        let (c_clean, _) = run_core(&uarch, clean, 4000);
        let (c_noisy, _) = run_core(&uarch, noisy, 4000);
        assert!(c_noisy[0].instr_completed < c_clean[0].instr_completed);
        assert!(c_noisy[0].bru_ops > 0);
    }

    #[test]
    fn core_reports_one_counter_set_per_thread() {
        let uarch = power7();
        let isa = &uarch.isa;
        let body: Vec<Instruction> = vec![rrr(isa, "add", 1, 2, 3)];
        let decoded = decode_all(&uarch, &vec![Kernel::new("k", body); 4]);
        let core = CoreSim::new(&uarch, decoded.iter().collect(), false, 0, UncoreMode::Private);
        assert_eq!(core.thread_count(), 4);
        assert_eq!(core.counters(10).len(), 4);
    }
}
