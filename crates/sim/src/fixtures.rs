//! Deterministic reference kernels shared by the `sim_hot_loop` bench and the
//! golden-measurement regression test.
//!
//! Every kernel is constructed instruction-by-instruction from the ISA definition —
//! no synthesizer passes, no RNG — so the exact same instruction stream (operands,
//! resolved addresses, data profile, misprediction rate) is reproduced on every build
//! of every revision.  The golden hashes checked in by the regression test depend on
//! it.

use mp_isa::{Instruction, Isa, MemAccess, Operand, OperandKind, RegRef, RegisterFile};

use crate::kernel::{DataProfile, Kernel};

/// Materialises one instruction of `mnemonic` with operands derived from the
/// definition's operand slots: written registers rotate with `i` (avoiding dependence
/// chains), read registers are fixed per slot, immediates are small constants.
///
/// # Panics
///
/// Panics if the ISA does not define `mnemonic` — the fixtures only reference
/// mnemonics of the Power ISA subset this repository ships.
pub fn materialise(isa: &Isa, mnemonic: &str, i: usize, address: Option<u64>) -> Instruction {
    let (id, def) = isa.get(mnemonic).unwrap_or_else(|| panic!("undefined mnemonic {mnemonic}"));
    let ops: Vec<Operand> = def
        .operands()
        .iter()
        .enumerate()
        .map(|(slot, kind)| match *kind {
            OperandKind::Reg { file, access } => {
                let idx = if access.writes() {
                    (i % 8) as u16
                } else {
                    (10 + slot as u16) % file.count()
                };
                Operand::Reg(RegRef::new(file, idx))
            }
            OperandKind::Imm { .. } => Operand::Imm(1),
            OperandKind::Displacement { .. } => Operand::Displacement(0),
            OperandKind::BranchTarget { .. } => Operand::BranchTarget(-(i as i64 % 16) - 1),
            OperandKind::CrField { .. } => Operand::CrField((i % 8) as u8),
        })
        .collect();
    let mem = if def.is_memory() {
        address.map(|a| MemAccess {
            address: a,
            bytes: def.mem_bytes().max(1),
            is_store: def.is_store(),
        })
    } else {
        None
    };
    Instruction::new(isa, id, ops, mem).expect("fixture operands match the definition")
}

/// A compute-bound kernel: a 256-instruction mix over the FXU and VSU datapaths with
/// rotating destination registers (no chains longer than 8 instructions).
pub fn compute_bound(isa: &Isa) -> Kernel {
    const MIX: [&str; 8] = ["add", "subf", "xor", "mulld", "fadd", "xvmaddadp", "fmul", "and"];
    let body: Vec<Instruction> =
        (0..256).map(|i| materialise(isa, MIX[i % MIX.len()], i, None)).collect();
    Kernel::new("fix_compute", body)
}

/// A memory-bound kernel: 256 loads/stores with resolved effective addresses striding
/// 128-byte lines over footprints sized to hit every cache level (L1 walk, L2 walk,
/// L3 walk, memory scatter), plus software prefetches.
pub fn memory_bound(isa: &Isa) -> Kernel {
    const MIX: [&str; 8] = ["lwz", "ld", "lfd", "stw", "lbz", "std", "dcbt", "lxvd2x"];
    let body: Vec<Instruction> = (0..256)
        .map(|i| {
            // Four interleaved address walks: 16 KB (L1 resident), 192 KB (L2), 2 MB
            // (L3) and a 48 MB scatter (memory).  Line size is 128 bytes.
            let address = match i % 4 {
                0 => (i as u64 / 4) * 128 % (16 << 10),
                1 => (i as u64 / 4) * 3 * 128 % (192 << 10) + (1 << 20),
                2 => (i as u64 / 4) * 31 * 128 % (2 << 20) + (8 << 20),
                _ => (i as u64 * 7919 * 128) % (48 << 20) + (64 << 20),
            };
            materialise(isa, MIX[i % MIX.len()], i, Some(address))
        })
        .collect();
    Kernel::new("fix_memory", body)
}

/// A branchy kernel: short basic blocks of simple integer work separated by
/// conditional branches, with a 15% misprediction rate and reduced-switching data.
pub fn branchy(isa: &Isa) -> Kernel {
    let body: Vec<Instruction> = (0..64)
        .map(|i| {
            if i % 8 == 7 {
                materialise(isa, "bc", i, None)
            } else {
                materialise(isa, ["add", "subf", "cmpd", "and"][i % 4], i, None)
            }
        })
        .collect();
    Kernel::new("fix_branchy", body)
        .with_mispredict_rate(0.15)
        .with_data_profile(DataProfile::Constant)
}

/// Destination registers per file in [`wide_registers`]: three files of 28 give 84
/// written registers, so with the shared sources the dense index spans more than 64
/// registers (two 64-bit words of any per-register bit set).
const WIDE_DESTS: usize = 28;

/// A register-pressure kernel with more than 64 dense registers: destinations rotate
/// over [`WIDE_DESTS`] GPRs, FPRs and VSRs in turn (`add`, `fadd`, `xvadddp`), and each
/// instruction reads the register written two same-file steps earlier, so short
/// dependence chains run through registers on both sides of dense id 64.
pub fn wide_registers(isa: &Isa) -> Kernel {
    const OPS: [(&str, RegisterFile); 3] =
        [("add", RegisterFile::Gpr), ("fadd", RegisterFile::Fpr), ("xvadddp", RegisterFile::Vsr)];
    let body: Vec<Instruction> = (0..2 * OPS.len() * WIDE_DESTS)
        .map(|i| {
            let (mnemonic, file) = OPS[i % OPS.len()];
            let (id, _) = isa.get(mnemonic).unwrap_or_else(|| panic!("{mnemonic} is defined"));
            let step = i / OPS.len();
            let reg = |idx: usize| Operand::Reg(RegRef::new(file, idx as u16));
            let dest = step % WIDE_DESTS;
            let src = (step + WIDE_DESTS - 2) % WIDE_DESTS;
            Instruction::new(isa, id, vec![reg(dest), reg(src), reg(30)], None)
                .expect("wide-register operands match the definition")
        })
        .collect();
    Kernel::new("fix_wide", body)
}

/// A loop of `len` instructions whose read-after-write chains wrap past the loop end.
/// Every third instruction is a VSU `fadd` on the FPRs, the others are `add`s (FXU or
/// LSU) on the GPRs.  Instruction `i` writes register `i` of its file and reads the
/// registers written by the previous and the third-previous instruction of its kind,
/// counted cyclically over the body: the first instructions read what the last ones
/// wrote, and a body shorter than the issue window holds several iterations of itself.
///
/// # Panics
///
/// Panics if `len` is zero or above 32 (one register per instruction and file).
pub fn short_chain(isa: &Isa, len: usize) -> Kernel {
    assert!((1..=32).contains(&len), "short_chain takes 1 to 32 instructions, not {len}");
    let is_vsu = |i: usize| i % 3 == 2;
    let body: Vec<Instruction> = (0..len)
        .map(|i| {
            let kind: Vec<usize> = (0..len).filter(|&j| is_vsu(j) == is_vsu(i)).collect();
            let at = kind.iter().position(|&j| j == i).expect("i is of its own kind");
            let back = |steps: usize| kind[(at + steps * kind.len() - steps) % kind.len()];
            let (mnemonic, file) =
                if is_vsu(i) { ("fadd", RegisterFile::Fpr) } else { ("add", RegisterFile::Gpr) };
            let (id, _) = isa.get(mnemonic).unwrap_or_else(|| panic!("{mnemonic} is defined"));
            let reg = |j: usize| Operand::Reg(RegRef::new(file, j as u16));
            Instruction::new(isa, id, vec![reg(i), reg(back(1)), reg(back(3))], None)
                .expect("chain operands match the definition")
        })
        .collect();
    Kernel::new(format!("fix_short{len}"), body)
}

/// The full reference kernel set, in a stable order.
pub fn reference_kernels(isa: &Isa) -> Vec<Kernel> {
    vec![compute_bound(isa), memory_bound(isa), branchy(isa)]
}

/// Number of shared-L3 tag-group slots [`uncore_contender`] supports.
pub const CONTENDER_GROUPS: usize = 4;

/// Distinct shared-L3 sets each contender walks.
const CONTENDER_SETS: usize = 12;

/// Lines per walked set (tags within one L3 set owned by one contender).
const CONTENDER_TAGS: usize = 5;

/// A shared-L3 contention kernel: independent 8-byte loads whose addresses are laid
/// out against the POWER7 geometry so that the private L1/L2 always miss while the
/// footprint fits a *fraction* of the shared L3's associativity.
///
/// Every address is a multiple of 32 KB (private L1 and L2 set 0 — 60 lines cycling
/// through 8 ways always miss) spread over [`CONTENDER_SETS`] distinct shared-L3 sets
/// with [`CONTENDER_TAGS`] tags each.  Tags are disjoint between `group`s: run alone,
/// a contender's 5 tags fit the 8-way shared L3 and every access is an L3 hit; run
/// against a contender of another group, the combined 10 tags per set thrash the LRU
/// and most accesses become memory transfers that queue on the chip's memory port —
/// per-thread IPC drops and uncore energy rises superlinearly, the contention
/// signature the shared-uncore power model has to learn.
///
/// # Panics
///
/// Panics if `group >= CONTENDER_GROUPS`.
pub fn uncore_contender(isa: &Isa, group: usize) -> Kernel {
    assert!(group < CONTENDER_GROUPS, "contender group {group} out of range");
    let body: Vec<Instruction> = (0..CONTENDER_SETS * CONTENDER_TAGS)
        .map(|i| {
            let set = (i % CONTENDER_SETS) as u64 + 1;
            let tag = (group * CONTENDER_TAGS + i / CONTENDER_SETS) as u64;
            // Bit 15+ selects the shared-L3 set (32768 sets × 128-byte lines), bit 22+
            // the shared-L3 tag (4 MB apart): same L1/L2/L3 sets across groups,
            // disjoint L3 tags.
            let address = set * (32 << 10) + tag * (4 << 20);
            materialise(isa, "ld", i, Some(address))
        })
        .collect();
    Kernel::new(format!("fix_contender{group}"), body)
}

/// The co-scheduled memory-bound pair of the uncore-contention experiments:
/// two [`uncore_contender`] kernels with disjoint shared-L3 tag groups.
pub fn uncore_contention_pair(isa: &Isa) -> (Kernel, Kernel) {
    (uncore_contender(isa, 0), uncore_contender(isa, 1))
}

/// A latency-bound memory streamer: four pointer-chase-style chains of dependent
/// loads (each load's base register is its own destination) walking 12 shared-L3 tags
/// of one set per chain, so every access misses the whole hierarchy — but at a rate
/// bounded by the memory latency, well below the memory port's bandwidth.
///
/// This is the *unsaturated* memory workload of the uncore experiments: it produces
/// line transfers without bandwidth stalls, decorrelating the transfer and stall
/// counters that saturated contention pairs move together.
pub fn uncore_mem_chain(isa: &Isa) -> Kernel {
    const CHAINS: u64 = 4;
    const TAGS: u64 = 12;
    let (id, _) = isa.get("ld").expect("ld is defined");
    let body: Vec<Instruction> = (0..CHAINS * TAGS)
        .map(|i| {
            let chain = i % CHAINS;
            let tag = i / CHAINS;
            // 4 MB apart: one shared-L3 set per chain (set index = chain), 12 tags
            // cycling through its 8 ways — misses everywhere, in both L3 geometries.
            let address = tag * (4 << 20) + chain * 128;
            let reg = Operand::Reg(RegRef::gpr(3 + chain as u16));
            Instruction::new(
                isa,
                id,
                vec![reg, Operand::Displacement(0), reg],
                Some(MemAccess { address, bytes: 8, is_store: false }),
            )
            .expect("chained load operands match the definition")
        })
        .collect();
    Kernel::new("fix_memchain", body)
}

/// Shared-L3 sets walked by [`uncore_prefetch_stream`].
const PREFETCH_SETS: u64 = 8;

/// Tags per walked set — beyond the 8-way associativity, so every touch misses.
const PREFETCH_TAGS: u64 = 12;

/// A software-prefetch firehose: back-to-back `dcbt` touches to addresses that miss
/// the whole hierarchy ([`PREFETCH_SETS`] sets × [`PREFETCH_TAGS`] tags cycling
/// through the 8-way shared L3), so in shared-uncore mode every admitted prefetch
/// wants a line transfer through the chip's memory port.
///
/// `dcbt` issues far faster than the port drains, so the stream keeps the port
/// saturated: co-scheduled demand misses queue behind the prefetch transfers (the
/// bandwidth-contention signature the prefetch-fill accounting has to produce), and
/// the excess prefetches are dropped by the full queue.
pub fn uncore_prefetch_stream(isa: &Isa) -> Kernel {
    let body: Vec<Instruction> = (0..PREFETCH_SETS * PREFETCH_TAGS)
        .map(|i| {
            let set = i % PREFETCH_SETS;
            let tag = i / PREFETCH_SETS;
            // 4 MB apart: same shared-L3 set per `set`, one tag per step.  The tag
            // base keeps the footprint disjoint from every other fixture's, so the
            // stream only ever *competes* with co-runners for the port — its fills
            // never usefully warm their lines.
            let address = (64 + tag) * (4 << 20) + set * 128;
            materialise(isa, "dcbt", i as usize, Some(address))
        })
        .collect();
    Kernel::new("fix_prefetch_stream", body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_isa::power_isa::power_isa_v206b;

    #[test]
    fn fixtures_are_deterministic() {
        let isa = power_isa_v206b();
        for (a, b) in reference_kernels(&isa).iter().zip(reference_kernels(&isa).iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn contenders_share_sets_with_disjoint_tags() {
        let isa = power_isa_v206b();
        let geom = mp_uarch::power7().uncore.shared_l3;
        let hierarchy = mp_uarch::power7().hierarchy;
        let (a, b) = uncore_contention_pair(&isa);
        assert_eq!(a.len(), CONTENDER_SETS * CONTENDER_TAGS);
        let addresses = |k: &Kernel| -> Vec<u64> {
            k.body().iter().map(|i| i.mem().expect("contenders only load").address).collect()
        };
        for (addr_a, addr_b) in addresses(&a).iter().zip(addresses(&b)) {
            // Identical private L1/L2 sets and shared-L3 sets, disjoint L3 tags.
            assert_eq!(hierarchy.l1.set_of(*addr_a), 0);
            assert_eq!(hierarchy.l2.set_of(*addr_a), 0);
            assert_eq!(geom.set_of(*addr_a), geom.set_of(addr_b));
            assert_ne!(geom.tag_of(*addr_a), geom.tag_of(addr_b));
        }
        // Per shared-L3 set, one contender owns CONTENDER_TAGS tags — within the
        // associativity alone, beyond it when two groups are co-scheduled.
        let per_set = CONTENDER_TAGS as u32;
        assert!(per_set <= geom.ways);
        assert!(2 * per_set > geom.ways);
    }

    #[test]
    fn mem_chain_is_dependent_and_misses_everywhere() {
        let isa = power_isa_v206b();
        let geom = mp_uarch::power7().uncore.shared_l3;
        let kernel = uncore_mem_chain(&isa);
        let mut per_set: std::collections::HashMap<u64, Vec<u64>> =
            std::collections::HashMap::new();
        for inst in kernel.body() {
            let addr = inst.mem().expect("chain is all loads").address;
            per_set.entry(geom.set_of(addr)).or_default().push(geom.tag_of(addr));
        }
        for tags in per_set.values() {
            let mut distinct = tags.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                distinct.len() as u32 > geom.ways,
                "each walked set must exceed the associativity"
            );
        }
    }

    #[test]
    fn prefetch_stream_misses_every_level() {
        let isa = power_isa_v206b();
        let geom = mp_uarch::power7().uncore.shared_l3;
        let kernel = uncore_prefetch_stream(&isa);
        let mut per_set: std::collections::HashMap<u64, Vec<u64>> =
            std::collections::HashMap::new();
        for inst in kernel.body() {
            assert!(inst.def(&isa).is_prefetch(), "the stream is all software prefetches");
            let addr = inst.mem().expect("prefetches carry addresses").address;
            per_set.entry(geom.set_of(addr)).or_default().push(geom.tag_of(addr));
        }
        for tags in per_set.values() {
            let mut distinct = tags.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() as u32 > geom.ways, "each set must exceed associativity");
        }
    }

    #[test]
    fn wide_registers_need_two_mask_words() {
        let uarch = mp_uarch::power7();
        let kernel = wide_registers(&uarch.isa);
        let decoded = crate::decoded::DecodedBody::decode(&kernel, &uarch, &uarch.opcode_props());
        assert!(decoded.dense_regs() > 64, "{} dense registers", decoded.dense_regs());
    }

    #[test]
    fn fixture_shapes() {
        let isa = power_isa_v206b();
        let compute = compute_bound(&isa);
        assert_eq!(compute.len(), 256);
        assert!(compute.body().iter().all(|i| i.mem().is_none()));
        let memory = memory_bound(&isa);
        assert!(memory.body().iter().all(|i| i.mem().is_some()));
        let branchy = branchy(&isa);
        assert!(branchy.body().iter().any(|i| i.def(&isa).is_branch()));
        assert!(branchy.mispredict_rate() > 0.0);
    }
}
