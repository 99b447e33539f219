//! The pre-decode layer: a [`Kernel`] compiled once into the dense, allocation-free
//! representation the per-cycle issue loop runs over.
//!
//! Before this layer existed, every *issue* of a body instruction cloned the
//! `Instruction` (a `Vec<Operand>` heap allocation), looked its properties up in a
//! mnemonic-keyed hash map, re-ran the 32-bit encoder over the operand list and walked
//! `Vec<RegRef>` read/write sets against a `HashMap<RegRef, u64>` scoreboard.  All of
//! that state is static per kernel: [`DecodedBody::decode`] resolves it once into a
//! struct-of-arrays so the hot loop does only integer indexing, bitmask tests and
//! flat-array loads — O(1) per issue, zero allocation per cycle.
//!
//! Registers are renamed to a per-kernel dense index (see
//! [`RegDenseMap`](mp_isa::RegDenseMap)): each instruction's read and write sets become
//! short lists of dense ids, and the ready-time scoreboard becomes a flat `Vec<u64>`
//! indexed by the dense id.
//!
//! The decoder also compiles the issue window.  A thread's window always holds the
//! [`ISSUE_WINDOW`] consecutive instructions of the dynamic stream that start at one
//! body index, its head.  So whether an older window entry writes one of an entry's
//! sources depends only on the instruction and the distance between them, and which
//! window positions can use a unit slot depends only on the head.  Both are tabled
//! here: a 12-bit "older writers" mask per instruction and a per-head mask of window
//! positions per unit slot.  Bodies shorter than the window wrap: the window then
//! holds several iterations of the body, and distances are taken modulo its length.

use mp_isa::{encoding, IssueClass, MemAccess, RegDenseMap};
use mp_uarch::{MicroArchitecture, OpcodePropsTable};

use crate::energy::UNIT_SLOTS;
use crate::kernel::Kernel;

/// Number of in-flight instructions a thread can look ahead over when issuing — a small
/// out-of-order window standing in for POWER7's much larger out-of-order engine.
pub(crate) const ISSUE_WINDOW: usize = 12;
/// The window mask with every position set.
pub(crate) const WINDOW_FULL: u16 = (1 << ISSUE_WINDOW) - 1;
/// The unit-slot mask with every slot set.
const ALL_SLOTS: u8 = (1 << UNIT_SLOTS.len()) - 1;

/// Pre-resolved per-instruction attributes packed into one byte.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct DecodedFlags(u8);

impl DecodedFlags {
    const PREFETCH: u8 = 1 << 0;
    const BRANCH: u8 = 1 << 1;
    const CONDITIONAL: u8 = 1 << 2;

    pub(crate) fn is_prefetch(self) -> bool {
        self.0 & Self::PREFETCH != 0
    }

    pub(crate) fn is_branch(self) -> bool {
        self.0 & Self::BRANCH != 0
    }

    pub(crate) fn is_conditional(self) -> bool {
        self.0 & Self::CONDITIONAL != 0
    }
}

/// A kernel body compiled to struct-of-arrays form, plus the kernel-level constant
/// the issue loop needs (misprediction rate) and the issue window's tables.
///
/// The per-instruction vectors have one element per body instruction; the register
/// lists hold one span per instruction, and the slot masks one entry per window head.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DecodedBody {
    len: usize,
    /// Number of distinct registers referenced by the body (dense index space).
    dense_regs: usize,
    /// The unit slots whose pipes can execute each instruction, as a mask with bit `s`
    /// for [`UNIT_SLOTS`]`[s]`.
    units: Vec<u8>,
    latency: Vec<u64>,
    recip_throughput: Vec<f64>,
    encoding: Vec<u32>,
    /// Datapath energy per issue: complexity, operand width and the kernel's
    /// data-profile switching factor under the run's energy parameters.
    datapath: Vec<f64>,
    flags: Vec<DecodedFlags>,
    mem: Vec<Option<MemAccess>>,
    /// The dense ids each instruction reads, in operand order:
    /// `reads[read_at[i]..read_at[i + 1]]`.
    reads: Vec<u16>,
    read_at: Vec<u32>,
    /// The dense ids each instruction writes, laid out like `reads`.
    writes: Vec<u16>,
    write_at: Vec<u32>,
    /// Per instruction `i`, bit `ISSUE_WINDOW - d` is set when instruction
    /// `(i - d) mod len`, `d` places earlier in the dynamic stream (`1 <= d <
    /// ISSUE_WINDOW`), writes a register that `i` reads.
    older_writers: Vec<u16>,
    /// Per window head `h` and unit slot `s`, bit `pos` is set when the entry at window
    /// position `pos`, instruction `(h + pos) mod len`, can issue to slot `s`.
    slot_masks: Vec<[u16; UNIT_SLOTS.len()]>,
    mispredict_rate: f64,
}

impl DecodedBody {
    /// Compiles `kernel` against `uarch`, resolving every per-issue lookup ahead of
    /// time, including each instruction's datapath energy under `uarch.energy`.  Called
    /// once per distinct kernel of a run, never on the per-cycle path; `props` (one
    /// [`MicroArchitecture::opcode_props`] snapshot per run) is shared across all
    /// decodes.
    pub(crate) fn decode(
        kernel: &Kernel,
        uarch: &MicroArchitecture,
        props: &OpcodePropsTable,
    ) -> Self {
        let isa = &uarch.isa;
        let body = kernel.body();
        let len = body.len();

        // Pass 1: resolve definitions, properties and encodings, and rename every
        // referenced register to a kernel-local dense index, in order of first use.
        let mut dense = RegDenseMap::new();
        let mut decoded = Self {
            len,
            dense_regs: 0,
            units: Vec::with_capacity(len),
            latency: Vec::with_capacity(len),
            recip_throughput: Vec::with_capacity(len),
            encoding: Vec::with_capacity(len),
            datapath: Vec::with_capacity(len),
            flags: Vec::with_capacity(len),
            mem: Vec::with_capacity(len),
            reads: Vec::new(),
            read_at: vec![0],
            writes: Vec::new(),
            write_at: vec![0],
            older_writers: Vec::with_capacity(len),
            slot_masks: Vec::with_capacity(len),
            mispredict_rate: kernel.mispredict_rate(),
        };
        let switching_factor = kernel.data_profile().switching_factor();
        for inst in body {
            let def = isa.def(inst.opcode());
            let p = props.get(inst.opcode());
            decoded.units.push(unit_mask(def.issue_class()));
            decoded.latency.push(u64::from(p.latency_cycles));
            decoded.recip_throughput.push(p.recip_throughput);
            decoded.encoding.push(encoding::encode(isa, inst));
            decoded.datapath.push(uarch.energy.datapath_energy(
                def.complexity(),
                def.operand_width(),
                switching_factor,
            ));
            let mut flags = 0u8;
            if def.is_prefetch() {
                flags |= DecodedFlags::PREFETCH;
            }
            if def.is_branch() {
                flags |= DecodedFlags::BRANCH;
            }
            if def.is_conditional() {
                flags |= DecodedFlags::CONDITIONAL;
            }
            decoded.flags.push(DecodedFlags(flags));
            decoded.mem.push(inst.mem());
            decoded.reads.extend(inst.reads(isa).into_iter().map(|r| dense.intern(r)));
            decoded.read_at.push(span_end(&decoded.reads));
            decoded.writes.extend(inst.writes(isa).into_iter().map(|r| dense.intern(r)));
            decoded.write_at.push(span_end(&decoded.writes));
        }
        decoded.dense_regs = dense.len();

        // Pass 2: the issue window's tables, over the dynamic stream the body repeats.
        for i in 0..len {
            let reads = decoded.reads(i);
            let mut older = 0u16;
            for d in 1..ISSUE_WINDOW {
                let writer = (i + d * len - d) % len;
                if decoded.writes(writer).iter().any(|w| reads.contains(w)) {
                    older |= 1 << (ISSUE_WINDOW - d);
                }
            }
            decoded.older_writers.push(older);
        }
        for head in 0..len {
            let mut masks = [0u16; UNIT_SLOTS.len()];
            for pos in 0..ISSUE_WINDOW {
                let units = decoded.units[(head + pos) % len];
                for (slot, mask) in masks.iter_mut().enumerate() {
                    if units & 1 << slot != 0 {
                        *mask |= 1 << pos;
                    }
                }
            }
            decoded.slot_masks.push(masks);
        }
        decoded
    }

    /// Number of body instructions.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Size of the dense register index space (length for ready-time scoreboards).
    pub(crate) fn dense_regs(&self) -> usize {
        self.dense_regs
    }

    /// The unit slots instruction `idx` can issue to (bit `s` for [`UNIT_SLOTS`]`[s]`).
    pub(crate) fn units(&self, idx: usize) -> u8 {
        self.units[idx]
    }

    pub(crate) fn latency(&self, idx: usize) -> u64 {
        self.latency[idx]
    }

    pub(crate) fn recip_throughput(&self, idx: usize) -> f64 {
        self.recip_throughput[idx]
    }

    pub(crate) fn encoding(&self, idx: usize) -> u32 {
        self.encoding[idx]
    }

    pub(crate) fn datapath(&self, idx: usize) -> f64 {
        self.datapath[idx]
    }

    pub(crate) fn flags(&self, idx: usize) -> DecodedFlags {
        self.flags[idx]
    }

    pub(crate) fn mem(&self, idx: usize) -> Option<MemAccess> {
        self.mem[idx]
    }

    /// The dense ids of the registers instruction `idx` reads, in operand order.
    pub(crate) fn reads(&self, idx: usize) -> &[u16] {
        &self.reads[self.read_at[idx] as usize..self.read_at[idx + 1] as usize]
    }

    /// The dense ids of the registers instruction `idx` writes, in operand order.
    pub(crate) fn writes(&self, idx: usize) -> &[u16] {
        &self.writes[self.write_at[idx] as usize..self.write_at[idx + 1] as usize]
    }

    /// Whether instruction `idx`, at window position `pos`, reads a register that an
    /// older entry still waiting to issue writes; bit `q` of `unissued` is set while
    /// the entry at position `q` has not issued.
    pub(crate) fn waits_on_older(&self, idx: usize, pos: usize, unissued: u16) -> bool {
        (self.older_writers[idx] >> (ISSUE_WINDOW - pos)) & unissued != 0
    }

    /// The positions of a window whose oldest entry is instruction `head` that hold an
    /// instruction able to issue to a unit slot outside the slot mask `full`.
    pub(crate) fn issuable(&self, head: usize, full: u8) -> u16 {
        let masks = &self.slot_masks[head];
        let mut free = !full & ALL_SLOTS;
        let mut positions = 0;
        while free != 0 {
            positions |= masks[free.trailing_zeros() as usize];
            free &= free - 1;
        }
        positions
    }

    /// Conditional-branch misprediction rate of the kernel.
    pub(crate) fn mispredict_rate(&self) -> f64 {
        self.mispredict_rate
    }

    /// Whether a thread running this body ever draws from its RNG: only the issue of
    /// a conditional branch with a positive misprediction rate does.
    pub(crate) fn draws_rng(&self) -> bool {
        self.mispredict_rate > 0.0 && self.flags.iter().any(|f| f.is_branch() && f.is_conditional())
    }
}

/// The unit-slot mask of `issue`: bit `s` is set if [`UNIT_SLOTS`]`[s]` can execute it.
fn unit_mask(issue: IssueClass) -> u8 {
    issue.units().iter().fold(0, |mask, unit| {
        let slot = UNIT_SLOTS.iter().position(|u| u == unit).expect("every unit has a slot");
        mask | 1 << slot
    })
}

/// The offset just past the last span of a flat register list.
fn span_end(regs: &[u16]) -> u32 {
    u32::try_from(regs.len()).expect("fewer than 2^32 register operands in one body")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{branchy, compute_bound, memory_bound, short_chain, wide_registers};
    use mp_isa::{Instruction, RegRef};
    use mp_uarch::power7;

    #[test]
    fn decode_matches_per_instruction_lookups() {
        let uarch = power7();
        let isa = &uarch.isa;
        let props = uarch.opcode_props();
        for kernel in [compute_bound(isa), memory_bound(isa), branchy(isa)] {
            let d = DecodedBody::decode(&kernel, &uarch, &props);
            assert_eq!(d.len(), kernel.len());
            for (i, inst) in kernel.body().iter().enumerate() {
                let def = isa.def(inst.opcode());
                let p = uarch.props(def.mnemonic());
                let units: Vec<_> = (0..UNIT_SLOTS.len())
                    .filter(|s| d.units(i) & 1 << s != 0)
                    .map(|s| UNIT_SLOTS[s])
                    .collect();
                assert_eq!(units, def.issue_class().units());
                assert_eq!(d.latency(i), u64::from(p.latency_cycles));
                assert!((d.recip_throughput(i) - p.recip_throughput).abs() == 0.0);
                assert_eq!(d.encoding(i), encoding::encode(isa, inst));
                assert_eq!(d.mem(i), inst.mem());
                assert_eq!(d.flags(i).is_branch(), def.is_branch());
                assert_eq!(d.flags(i).is_prefetch(), def.is_prefetch());
                assert_eq!(d.flags(i).is_conditional(), def.is_conditional());
            }
        }
    }

    #[test]
    fn register_lists_reproduce_read_write_sets() {
        let uarch = power7();
        let isa = &uarch.isa;
        for kernel in [memory_bound(isa), wide_registers(isa)] {
            let d = DecodedBody::decode(&kernel, &uarch, &uarch.opcode_props());

            // Rebuild the dense map the same way decode() does and compare the lists
            // against the operand-derived read/write sets.
            let mut dense = RegDenseMap::new();
            for inst in kernel.body() {
                for r in inst.reads(isa) {
                    dense.intern(r);
                }
                for r in inst.writes(isa) {
                    dense.intern(r);
                }
            }
            assert_eq!(dense.len(), d.dense_regs());
            let ids = |regs: Vec<RegRef>| -> Vec<u16> {
                regs.iter().map(|r| dense.get(*r).unwrap()).collect()
            };
            for (i, inst) in kernel.body().iter().enumerate() {
                assert_eq!(d.reads(i), ids(inst.reads(isa)), "reads of instruction {i}");
                assert_eq!(d.writes(i), ids(inst.writes(isa)), "writes of instruction {i}");
            }
        }
    }

    /// Checks the window tables of `kernel` against a brute-force walk of the dynamic
    /// stream: for every head, the window holds instructions `(head + pos) mod len`, an
    /// entry waits on exactly the older entries that write one of its sources (by
    /// register, not by dense id), and a position is issuable exactly when its
    /// instruction can use a slot outside the full ones.
    fn assert_window_tables_match_the_stream(kernel: &Kernel) {
        let uarch = power7();
        let isa = &uarch.isa;
        let d = DecodedBody::decode(kernel, &uarch, &uarch.opcode_props());
        let body = kernel.body();
        let len = body.len();
        let name = kernel.name();
        let writes_a_source_of = |writer: &Instruction, reader: &Instruction| {
            let reads = reader.reads(isa);
            writer.writes(isa).iter().any(|w| reads.contains(w))
        };
        for head in 0..len {
            let window: Vec<usize> = (0..ISSUE_WINDOW).map(|pos| (head + pos) % len).collect();
            for (pos, &idx) in window.iter().enumerate() {
                for (older, &writer) in window[..pos].iter().enumerate() {
                    assert_eq!(
                        d.waits_on_older(idx, pos, 1 << older),
                        writes_a_source_of(&body[writer], &body[idx]),
                        "{name} (len {len}): head {head}, entry {pos} on entry {older}"
                    );
                }
                // Neither the entry itself nor a younger one ever blocks it.
                assert!(!d.waits_on_older(idx, pos, WINDOW_FULL & !((1 << pos) - 1)));
            }
            for full in 0..=ALL_SLOTS {
                let expected = window.iter().enumerate().fold(0u16, |mask, (pos, &idx)| {
                    let units = body[idx].def(isa).issue_class().units();
                    let free = units.iter().any(|unit| {
                        let slot = UNIT_SLOTS.iter().position(|u| u == unit).unwrap();
                        full & 1 << slot == 0
                    });
                    mask | u16::from(free) << pos
                });
                assert_eq!(d.issuable(head, full), expected, "{name}: head {head}, full {full}");
            }
        }
    }

    #[test]
    fn window_tables_match_a_brute_force_walk_of_the_stream() {
        let uarch = power7();
        let isa = &uarch.isa;
        let prefixes = [compute_bound(isa), memory_bound(isa), branchy(isa), wide_registers(isa)];
        for len in 1..=14 {
            assert_window_tables_match_the_stream(&short_chain(isa, len));
            for kernel in &prefixes {
                let body = kernel.body()[..len].to_vec();
                assert_window_tables_match_the_stream(&Kernel::new(kernel.name(), body));
            }
        }
        // The whole two-word register space, with chains six instructions long.
        let wide = wide_registers(isa);
        assert!(DecodedBody::decode(&wide, &uarch, &uarch.opcode_props()).dense_regs() > 64);
        assert_window_tables_match_the_stream(&wide);
    }

    #[test]
    fn only_mispredicting_conditional_branches_draw_rng() {
        let uarch = power7();
        let isa = &uarch.isa;
        let props = uarch.opcode_props();
        let decode = |k: &Kernel| DecodedBody::decode(k, &uarch, &props);
        assert!(decode(&branchy(isa)).draws_rng());
        assert!(!decode(&branchy(isa).with_mispredict_rate(0.0)).draws_rng());
        // A misprediction rate without conditional branches never reaches the RNG.
        assert!(!decode(&compute_bound(isa).with_mispredict_rate(0.5)).draws_rng());
        assert!(!decode(&memory_bound(isa)).draws_rng());
    }

    #[test]
    fn unit_masks_follow_the_slot_order() {
        assert_eq!(unit_mask(IssueClass::Fxu), 0b00001);
        assert_eq!(unit_mask(IssueClass::Lsu), 0b00010);
        assert_eq!(unit_mask(IssueClass::FxuOrLsu), 0b00011);
        assert_eq!(unit_mask(IssueClass::Vsu), 0b00100);
        assert_eq!(unit_mask(IssueClass::Dfu), 0b01000);
        assert_eq!(unit_mask(IssueClass::Bru), 0b10000);
    }
}
