//! The Table 2 training micro-benchmark suite.
//!
//! The suite covers a broad range of processor activities so that the bottom-up model's
//! per-component regressions see every unit exercised at many different levels:
//! per-unit IPC sweeps (realised by sweeping the dependency distance and the share of
//! idle slots), memory mixes that pin the hit distribution at every hierarchy level
//! through the analytical cache model, and a population of fully random benchmarks.

use rand::Rng;

use microprobe::prelude::*;
use microprobe::synth::FnPass;
use mp_isa::{InstrFlags, IssueClass, OpcodeId};
use mp_uarch::MicroArchitecture;

/// The benchmark families of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Simple integer instructions (FXU or LSU pipes), IPC sweep.
    SimpleInteger,
    /// Complex integer instructions (FXU only), IPC sweep.
    ComplexInteger,
    /// Mixed integer instructions (FXU + LSU), IPC sweep.
    Integer,
    /// Vector/float/decimal instructions (VSU), IPC sweep.
    FloatVector,
    /// Mix of all non-memory, non-branch instructions, IPC sweep.
    UnitMix,
    /// Loads hitting the L1.
    L1Load,
    /// Loads and stores hitting the L1.
    L1LoadStore,
    /// 75% L1 / 25% L2.
    L1L2a,
    /// 50% L1 / 50% L2.
    L1L2b,
    /// 25% L1 / 75% L2.
    L1L2c,
    /// 75% L1 / 25% L3.
    L1L3a,
    /// 50% L1 / 50% L3.
    L1L3b,
    /// 25% L1 / 75% L3.
    L1L3c,
    /// All accesses served by the L2.
    L2,
    /// 75% L2 / 25% L3.
    L2L3a,
    /// 50% L2 / 50% L3.
    L2L3b,
    /// 25% L2 / 75% L3.
    L2L3c,
    /// All accesses served by the L3.
    L3,
    /// 33% L1 / 33% L2 / 34% L3.
    Caches,
    /// All accesses missing the whole hierarchy.
    Memory,
    /// Random micro-benchmarks.
    Random,
}

impl Family {
    /// All families in Table 2 order.
    pub const ALL: [Family; 22] = [
        Family::SimpleInteger,
        Family::ComplexInteger,
        Family::Integer,
        Family::FloatVector,
        Family::UnitMix,
        Family::L1Load,
        Family::L1LoadStore,
        Family::L1L2a,
        Family::L1L2b,
        Family::L1L2c,
        Family::L1L3a,
        Family::L1L3b,
        Family::L1L3c,
        Family::L2,
        Family::L2L3a,
        Family::L2L3b,
        Family::L2L3c,
        Family::L3,
        Family::Caches,
        Family::Memory,
        Family::Random,
        Family::Random, // placeholder keeps the array length stable; never iterated twice
    ];

    /// Table 2 row name.
    pub fn name(self) -> &'static str {
        match self {
            Family::SimpleInteger => "Simple Integer",
            Family::ComplexInteger => "Complex Integer",
            Family::Integer => "Integer",
            Family::FloatVector => "Float/Vector",
            Family::UnitMix => "Unit Mix",
            Family::L1Load => "L1 ld",
            Family::L1LoadStore => "L1 ld/st",
            Family::L1L2a => "L1L2a",
            Family::L1L2b => "L1L2b",
            Family::L1L2c => "L1L2c",
            Family::L1L3a => "L1L3a",
            Family::L1L3b => "L1L3b",
            Family::L1L3c => "L1L3c",
            Family::L2 => "L2",
            Family::L2L3a => "L2L3a",
            Family::L2L3b => "L2L3b",
            Family::L2L3c => "L2L3c",
            Family::L3 => "L3",
            Family::Caches => "Caches",
            Family::Memory => "Memory",
            Family::Random => "Random",
        }
    }

    /// Table 2 "Units stressed" column.
    pub fn units_stressed(self) -> &'static str {
        match self {
            Family::SimpleInteger => "FXU or LSU",
            Family::ComplexInteger => "FXU",
            Family::Integer => "FXU, LSU",
            Family::FloatVector => "VSU",
            Family::UnitMix => "VSU, FXU, LSU",
            Family::L1Load => "LSU, L1",
            Family::L1LoadStore => "LSU, L1, L2",
            Family::L1L2a | Family::L1L2b | Family::L1L2c | Family::L2 => "LSU, L1, L2",
            Family::L1L3a
            | Family::L1L3b
            | Family::L1L3c
            | Family::L2L3a
            | Family::L2L3b
            | Family::L2L3c
            | Family::L3
            | Family::Caches => "LSU, L1, L2, L3",
            Family::Memory => "LSU, L1, L2, L3, MEM",
            Family::Random => "Unknown",
        }
    }

    /// Number of benchmarks the paper generates for the family (Table 2 "#" column).
    pub fn paper_count(self) -> usize {
        match self {
            Family::SimpleInteger => 35,
            Family::ComplexInteger => 11,
            Family::Integer => 12,
            Family::FloatVector => 14,
            Family::UnitMix => 20,
            Family::Memory => 20,
            Family::Random => 331,
            _ => 10,
        }
    }

    /// The target memory hit distribution of the family, if it is a memory family.
    pub fn hit_distribution(self) -> Option<HitDistribution> {
        let dist = |l1, l2, l3, mem| {
            HitDistribution::new(l1, l2, l3, mem).expect("family distributions are valid")
        };
        match self {
            Family::L1Load | Family::L1LoadStore => Some(HitDistribution::l1_only()),
            Family::L1L2a => Some(dist(0.75, 0.25, 0.0, 0.0)),
            Family::L1L2b => Some(dist(0.50, 0.50, 0.0, 0.0)),
            Family::L1L2c => Some(dist(0.25, 0.75, 0.0, 0.0)),
            Family::L1L3a => Some(dist(0.75, 0.0, 0.25, 0.0)),
            Family::L1L3b => Some(dist(0.50, 0.0, 0.50, 0.0)),
            Family::L1L3c => Some(dist(0.25, 0.0, 0.75, 0.0)),
            Family::L2 => Some(HitDistribution::l2_only()),
            Family::L2L3a => Some(dist(0.0, 0.75, 0.25, 0.0)),
            Family::L2L3b => Some(dist(0.0, 0.50, 0.50, 0.0)),
            Family::L2L3c => Some(dist(0.0, 0.25, 0.75, 0.0)),
            Family::L3 => Some(HitDistribution::l3_only()),
            Family::Caches => Some(HitDistribution::caches_balanced()),
            Family::Memory => Some(HitDistribution::memory_only()),
            _ => None,
        }
    }

    /// Returns `true` for the random family (used to label training samples).
    pub fn is_random(self) -> bool {
        self == Family::Random
    }
}

/// One generated training benchmark and its family.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingBenchmark {
    /// The benchmark family (Table 2 row).
    pub family: Family,
    /// The generated micro-benchmark.
    pub benchmark: MicroBenchmark,
}

/// Options controlling the suite size (the full paper-scale suite has 583 benchmarks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingOptions {
    /// Scale factor applied to every family's paper count (1.0 = full Table 2 size).
    pub scale: f64,
    /// Loop body length of every benchmark (the paper uses 4096).
    pub loop_instructions: usize,
    /// Base random seed.
    pub seed: u64,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        Self { scale: 1.0, loop_instructions: 4096, seed: 0x7ab1e2 }
    }
}

impl TrainingOptions {
    /// A reduced-size suite for quick experiments and tests.
    pub fn reduced(scale: f64, loop_instructions: usize) -> Self {
        Self { scale, loop_instructions, ..Self::default() }
    }

    fn count(&self, family: Family) -> usize {
        ((family.paper_count() as f64 * self.scale).round() as usize).max(1)
    }
}

/// The generated training suite.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSuite {
    benchmarks: Vec<TrainingBenchmark>,
}

impl TrainingSuite {
    /// Generates the suite for a machine description.
    ///
    /// # Errors
    ///
    /// Returns the first pass failure (which indicates a bug in the family definitions,
    /// not a user error).
    pub fn generate(arch: &MicroArchitecture, options: TrainingOptions) -> Result<Self, PassError> {
        let mut benchmarks = Vec::new();
        for family in [
            Family::SimpleInteger,
            Family::ComplexInteger,
            Family::Integer,
            Family::FloatVector,
            Family::UnitMix,
            Family::L1Load,
            Family::L1LoadStore,
            Family::L1L2a,
            Family::L1L2b,
            Family::L1L2c,
            Family::L1L3a,
            Family::L1L3b,
            Family::L1L3c,
            Family::L2,
            Family::L2L3a,
            Family::L2L3b,
            Family::L2L3c,
            Family::L3,
            Family::Caches,
            Family::Memory,
            Family::Random,
        ] {
            let count = options.count(family);
            benchmarks.extend(generate_family(arch, family, count, &options)?);
        }
        Ok(Self { benchmarks })
    }

    /// All generated benchmarks.
    pub fn benchmarks(&self) -> &[TrainingBenchmark] {
        &self.benchmarks
    }

    /// Number of benchmarks in the suite.
    pub fn len(&self) -> usize {
        self.benchmarks.len()
    }

    /// Returns `true` if the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.benchmarks.is_empty()
    }

    /// The benchmarks of one family.
    pub fn family(&self, family: Family) -> Vec<&TrainingBenchmark> {
        self.benchmarks.iter().filter(|b| b.family == family).collect()
    }

    /// Table 2 summary rows: `(family name, units stressed, count)`.
    pub fn table2_rows(&self) -> Vec<(&'static str, &'static str, usize)> {
        let mut rows = Vec::new();
        for family in [
            Family::SimpleInteger,
            Family::ComplexInteger,
            Family::Integer,
            Family::FloatVector,
            Family::UnitMix,
            Family::L1Load,
            Family::L1LoadStore,
            Family::L1L2a,
            Family::L1L2b,
            Family::L1L2c,
            Family::L1L3a,
            Family::L1L3b,
            Family::L1L3c,
            Family::L2,
            Family::L2L3a,
            Family::L2L3b,
            Family::L2L3c,
            Family::L3,
            Family::Caches,
            Family::Memory,
            Family::Random,
        ] {
            rows.push((family.name(), family.units_stressed(), self.family(family).len()));
        }
        rows
    }
}

/// Population of instructions for the IPC-sweep (non-memory) families.
fn unit_population(arch: &MicroArchitecture, family: Family) -> Vec<OpcodeId> {
    let isa = &arch.isa;
    match family {
        Family::SimpleInteger => isa.select(|d| {
            d.issue_class() == IssueClass::FxuOrLsu && !d.is_memory() && !d.is_branch()
        }),
        Family::ComplexInteger => isa.select(|d| {
            d.issue_class() == IssueClass::Fxu
                && d.is_integer()
                && !d.is_memory()
                && !d.is_privileged()
        }),
        Family::Integer => isa.select(|d| {
            d.is_integer()
                && !d.is_vector()
                && !d.is_memory()
                && !d.is_branch()
                && !d.is_privileged()
        }),
        Family::FloatVector => {
            isa.select(|d| d.issue_class() == IssueClass::Vsu || d.issue_class() == IssueClass::Dfu)
        }
        Family::UnitMix => isa.compute_instructions(),
        _ => Vec::new(),
    }
}

/// Population of memory instructions for the memory families.
fn memory_population(arch: &MicroArchitecture, family: Family) -> Vec<OpcodeId> {
    let isa = &arch.isa;
    match family {
        Family::L1Load => isa.select(|d| d.is_load() && !d.is_vector()),
        _ => isa.select(|d| (d.is_load() || d.is_store()) && !d.is_vector()),
    }
}

fn generate_family(
    arch: &MicroArchitecture,
    family: Family,
    count: usize,
    options: &TrainingOptions,
) -> Result<Vec<TrainingBenchmark>, PassError> {
    let mut out = Vec::with_capacity(count);
    for idx in 0..count {
        let mut synth = Synthesizer::new(arch.clone())
            .with_seed(options.seed ^ (family as u64) << 32 ^ idx as u64)
            .with_name_prefix(format!("{}-{idx}", family.name().replace([' ', '/'], "_")));
        synth.add_pass(SkeletonPass::endless_loop(options.loop_instructions));

        match family {
            Family::Random => {
                add_random_passes(arch, &mut synth, idx);
            }
            _ if family.hit_distribution().is_some() => {
                // Memory family: mix of loads/stores plus the analytical memory model.
                let population = memory_population(arch, family);
                synth.add_pass(InstructionMixPass::uniform(population));
                synth.add_pass(MemoryPass::new(
                    family.hit_distribution().expect("memory family has a distribution"),
                ));
                synth.add_pass(InitRegistersPass::random());
                synth.add_pass(DependencyDistancePass::random(4, 12));
            }
            _ => {
                // IPC sweep family: the activity level is modulated by mixing in idle
                // slots and tightening the dependency distance as `idx` grows.
                let population = unit_population(arch, family);
                let nop = arch.isa.opcode("nop").expect("nop is defined");
                let idle_weight = idx as f64 / count as f64 * 3.0;
                let mut weighted: Vec<(OpcodeId, f64)> =
                    population.iter().map(|op| (*op, 1.0)).collect();
                if idle_weight > 0.0 {
                    weighted.push((nop, idle_weight * population.len() as f64));
                }
                synth.add_pass(InstructionMixPass::weighted(weighted));
                synth.add_pass(InitRegistersPass::random());
                let max_distance = 2 + (idx % 10);
                synth.add_pass(DependencyDistancePass::random(1, max_distance.max(2)));
            }
        }
        let benchmark = synth.synthesize()?;
        out.push(TrainingBenchmark { family, benchmark });
    }
    Ok(out)
}

/// Random micro-benchmarks: random instruction mix, random memory behaviour, random ILP
/// and a touch of branching.
fn add_random_passes(arch: &MicroArchitecture, synth: &mut Synthesizer, idx: usize) {
    let isa = &arch.isa;
    let population = isa
        .select(|d| !d.is_privileged() && !d.is_branch() && !d.flags().contains(InstrFlags::SYNC));
    synth.add_pass(InstructionMixPass::uniform(population));
    // The memory distribution, dependency window and branch density are all derived
    // (deterministically) from the benchmark index inside a custom pass, so every random
    // benchmark explores a different corner of the behaviour space.
    synth.add_pass(FnPass::new("randomize-behaviour", move |_ir, ctx| {
        // The per-invocation RNG is advanced so downstream passes see fresh randomness.
        let _: u64 = ctx.rng.gen();
        Ok(())
    }));
    let l1 = 0.2 + 0.8 * ((idx * 7) % 10) as f64 / 10.0;
    let rest = 1.0 - l1;
    let l2 = rest * (((idx * 3) % 5) as f64 / 5.0);
    let l3 = (rest - l2) * (((idx * 11) % 4) as f64 / 4.0);
    let mem = (rest - l2 - l3).max(0.0);
    let dist = HitDistribution::new(l1, l2, l3, mem)
        .unwrap_or_else(|_| HitDistribution::caches_balanced());
    synth.add_pass(MemoryPass::new(dist));
    synth.add_pass(InitRegistersPass::random());
    synth.add_pass(DependencyDistancePass::random(1, 2 + (idx % 14)));
    synth.add_pass(BranchBehaviorPass::conditional_every(32, (idx % 5) as f64 * 0.01));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_isa::Unit;
    use mp_uarch::power7;

    fn tiny_suite() -> TrainingSuite {
        let arch = power7();
        TrainingSuite::generate(&arch, TrainingOptions::reduced(0.02, 64)).expect("suite generates")
    }

    #[test]
    fn suite_contains_every_family() {
        let suite = tiny_suite();
        for family in [
            Family::SimpleInteger,
            Family::ComplexInteger,
            Family::FloatVector,
            Family::Caches,
            Family::Memory,
            Family::Random,
        ] {
            assert!(
                !suite.family(family).is_empty(),
                "family {} missing from the suite",
                family.name()
            );
        }
        assert_eq!(suite.table2_rows().len(), 21);
    }

    #[test]
    fn paper_scale_counts_match_table2() {
        // Verify the declared paper counts sum to the 603 benchmarks of Table 2.
        let total: usize = [
            Family::SimpleInteger,
            Family::ComplexInteger,
            Family::Integer,
            Family::FloatVector,
            Family::UnitMix,
            Family::L1Load,
            Family::L1LoadStore,
            Family::L1L2a,
            Family::L1L2b,
            Family::L1L2c,
            Family::L1L3a,
            Family::L1L3b,
            Family::L1L3c,
            Family::L2,
            Family::L2L3a,
            Family::L2L3b,
            Family::L2L3c,
            Family::L3,
            Family::Caches,
            Family::Memory,
            Family::Random,
        ]
        .iter()
        .map(|f| f.paper_count())
        .sum();
        assert_eq!(total, 583);
    }

    #[test]
    fn memory_families_only_contain_memory_instructions_with_addresses() {
        let arch = power7();
        let suite = tiny_suite();
        let isa = &arch.isa;
        for tb in suite.family(Family::Caches) {
            for inst in tb.benchmark.kernel().body() {
                let def = inst.def(isa);
                assert!(def.is_memory(), "{} is not a memory op", def.mnemonic());
                assert!(inst.mem().is_some());
            }
        }
    }

    #[test]
    fn unit_families_respect_their_unit_constraints() {
        let arch = power7();
        let suite = tiny_suite();
        let isa = &arch.isa;
        for tb in suite.family(Family::FloatVector) {
            for inst in tb.benchmark.kernel().body() {
                let def = inst.def(isa);
                assert!(
                    def.stresses(Unit::Vsu) || def.stresses(Unit::Dfu) || def.mnemonic() == "nop",
                    "{} does not stress the VSU",
                    def.mnemonic()
                );
            }
        }
        for tb in suite.family(Family::ComplexInteger) {
            for inst in tb.benchmark.kernel().body() {
                let def = inst.def(isa);
                assert!(
                    def.issue_class() == IssueClass::Fxu || def.mnemonic() == "nop",
                    "{} is not an FXU-only op",
                    def.mnemonic()
                );
            }
        }
    }

    #[test]
    fn family_metadata_is_consistent() {
        assert_eq!(Family::Caches.hit_distribution(), Some(HitDistribution::caches_balanced()));
        assert!(Family::UnitMix.hit_distribution().is_none());
        assert!(Family::Random.is_random());
        assert_eq!(Family::Memory.paper_count(), 20);
        assert_eq!(Family::L1Load.units_stressed(), "LSU, L1");
    }
}
