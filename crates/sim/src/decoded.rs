//! The pre-decode layer: a [`Kernel`] compiled once into the dense, allocation-free
//! representation the per-cycle issue loop runs over.
//!
//! Before this layer existed, every *issue* of a body instruction cloned the
//! `Instruction` (a `Vec<Operand>` heap allocation), looked its properties up in a
//! mnemonic-keyed hash map, re-ran the 32-bit encoder over the operand list and walked
//! `Vec<RegRef>` read/write sets against a `HashMap<RegRef, u64>` scoreboard.  All of
//! that state is static per kernel: [`DecodedBody::decode`] resolves it once into a
//! struct-of-arrays so the hot loop does only integer indexing, bitmask intersection
//! and flat-array loads — O(1) per issue, zero allocation per cycle.
//!
//! Registers are renamed to a per-kernel dense index (see
//! [`RegDenseMap`](mp_isa::RegDenseMap)): read/write sets become bitmasks of
//! `mask_words` × 64 bits and the ready-time scoreboard becomes a flat `Vec<u64>`
//! indexed by the dense id.

use mp_isa::{encoding, IssueClass, MemAccess, RegDenseMap};
use mp_uarch::{MicroArchitecture, OpcodePropsTable};

use crate::energy::UNIT_SLOTS;
use crate::kernel::Kernel;

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
/// the issue loop needs (misprediction rate).
///
/// All vectors (except the mask arenas) have one element per body instruction; the
/// mask arenas hold `mask_words` words per instruction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DecodedBody {
    len: usize,
    /// Number of distinct registers referenced by the body (dense index space).
    dense_regs: usize,
    /// Words of 64 register bits per read/write mask.
    mask_words: usize,
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
    /// Read masks, `mask_words` words per instruction.
    reads: Vec<u64>,
    /// Write masks, `mask_words` words per instruction.
    writes: Vec<u64>,
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

        // Pass 1: rename every referenced register to a kernel-local dense index.
        let mut dense = RegDenseMap::new();
        for inst in body {
            for r in inst.reads(isa) {
                dense.intern(r);
            }
            for r in inst.writes(isa) {
                dense.intern(r);
            }
        }
        let dense_regs = dense.len();
        let mask_words = dense_regs.div_ceil(64).max(1);

        // Pass 2: resolve definitions, properties, encodings and register masks.
        let mut decoded = Self {
            len,
            dense_regs,
            mask_words,
            units: Vec::with_capacity(len),
            latency: Vec::with_capacity(len),
            recip_throughput: Vec::with_capacity(len),
            encoding: Vec::with_capacity(len),
            datapath: Vec::with_capacity(len),
            flags: Vec::with_capacity(len),
            mem: Vec::with_capacity(len),
            reads: vec![0; len * mask_words],
            writes: vec![0; len * mask_words],
            mispredict_rate: kernel.mispredict_rate(),
        };
        let switching_factor = kernel.data_profile().switching_factor();
        for (i, inst) in body.iter().enumerate() {
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
            for r in inst.reads(isa) {
                let id = dense.get(r).expect("interned in pass 1");
                decoded.reads[i * mask_words + usize::from(id) / 64] |= 1 << (id % 64);
            }
            for r in inst.writes(isa) {
                let id = dense.get(r).expect("interned in pass 1");
                decoded.writes[i * mask_words + usize::from(id) / 64] |= 1 << (id % 64);
            }
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

    /// Words of 64 register bits per read/write mask.
    pub(crate) fn mask_words(&self) -> usize {
        self.mask_words
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

    /// The read mask of instruction `idx` (`mask_words` words of 64 register bits).
    pub(crate) fn reads_mask(&self, idx: usize) -> &[u64] {
        &self.reads[idx * self.mask_words..(idx + 1) * self.mask_words]
    }

    /// The write mask of instruction `idx`.
    pub(crate) fn writes_mask(&self, idx: usize) -> &[u64] {
        &self.writes[idx * self.mask_words..(idx + 1) * self.mask_words]
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

/// Returns `true` if two register masks share a set bit.
pub(crate) fn masks_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Adds the registers of `mask` to `acc`.
pub(crate) fn mask_union(acc: &mut [u64], mask: &[u64]) {
    for (a, m) in acc.iter_mut().zip(mask) {
        *a |= m;
    }
}

/// Returns `true` if every register in `mask` has `reg_ready[id] <= now`.
pub(crate) fn regs_ready(mask: &[u64], reg_ready: &[u64], now: u64) -> bool {
    for (word_idx, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            if reg_ready[word_idx * 64 + bit] > now {
                return false;
            }
            bits &= bits - 1;
        }
    }
    true
}

/// Calls `f` with each dense register id set in `mask`.
pub(crate) fn for_each_reg(mask: &[u64], mut f: impl FnMut(usize)) {
    for (word_idx, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            f(word_idx * 64 + bit);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{branchy, compute_bound, memory_bound};
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
    fn register_masks_reproduce_read_write_sets() {
        let uarch = power7();
        let isa = &uarch.isa;
        let kernel = memory_bound(isa);
        let d = DecodedBody::decode(&kernel, &uarch, &uarch.opcode_props());

        // Rebuild the dense map the same way decode() does and compare set bits
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
        for (i, inst) in kernel.body().iter().enumerate() {
            let mut read_ids: Vec<usize> =
                inst.reads(isa).iter().map(|r| usize::from(dense.get(*r).unwrap())).collect();
            read_ids.sort_unstable();
            read_ids.dedup();
            let mut from_mask = Vec::new();
            for_each_reg(d.reads_mask(i), |id| from_mask.push(id));
            assert_eq!(from_mask, read_ids, "reads of instruction {i}");

            let mut write_ids: Vec<usize> =
                inst.writes(isa).iter().map(|r| usize::from(dense.get(*r).unwrap())).collect();
            write_ids.sort_unstable();
            write_ids.dedup();
            let mut from_mask = Vec::new();
            for_each_reg(d.writes_mask(i), |id| from_mask.push(id));
            assert_eq!(from_mask, write_ids, "writes of instruction {i}");
        }
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

    #[test]
    fn mask_intersection_detects_shared_registers() {
        assert!(masks_intersect(&[0b1010], &[0b0010]));
        assert!(!masks_intersect(&[0b1010], &[0b0101]));
        assert!(masks_intersect(&[0, 1 << 63], &[0, 1 << 63]));
        assert!(!masks_intersect(&[u64::MAX, 0], &[0, u64::MAX]));
        let mut acc = [0b0001, 0];
        mask_union(&mut acc, &[0b0100, 1 << 63]);
        assert_eq!(acc, [0b0101, 1 << 63]);
    }
}
