//! Golden-measurement regression test: the simulator's observable results are pinned
//! bit-for-bit.
//!
//! The pre-decode rewrite (and any future simulator performance work) must not change
//! any measurable output: counters, power trace, energy breakdowns and the RNG-driven
//! branch/noise streams all feed figures and trained models, so even a last-bit f64
//! difference silently shifts every downstream number.  This test runs the fixed
//! reference kernel set through `ChipSim` across CMP/SMT configurations and compares a
//! fingerprint of every `Measurement` field against checked-in golden hashes.
//!
//! If a change *intends* to alter simulator results, regenerate the table by running
//! the test and copying the printed `actual` values — and say so in the PR.

use mp_sim::fixtures::{reference_kernels, uncore_contention_pair, wide_registers};
use mp_sim::{ChipSim, Kernel, Measurement, SimOptions, UncoreMode};
use mp_uarch::{power7, CmpSmtConfig, CounterId, SmtMode};

/// FNV-1a 64-bit over a byte stream, driven field-by-field below.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// The counter set of the pre-shared-uncore simulator, in its original order.  The
/// private-mode golden hashes below were recorded over exactly these counters; the
/// uncore counters added later (`L3Accesses`, `L3Misses`, `BwStalls`) are hashed only
/// by the shared-mode table, so the legacy fingerprints stay byte-identical.
const LEGACY_COUNTERS: [CounterId; 14] = [
    CounterId::Cycles,
    CounterId::InstrCompleted,
    CounterId::FxuOps,
    CounterId::LsuOps,
    CounterId::VsuOps,
    CounterId::DfuOps,
    CounterId::BruOps,
    CounterId::Loads,
    CounterId::Stores,
    CounterId::Prefetches,
    CounterId::L1Hits,
    CounterId::L2Hits,
    CounterId::L3Hits,
    CounterId::MemAccesses,
];

/// Hashes every observable field of a measurement over the given counter set, in a
/// stable order.
fn fingerprint_with(m: &Measurement, counters: &[CounterId]) -> u64 {
    let mut h = Fingerprint::new();
    h.u64(u64::from(m.config().cores));
    h.u64(u64::from(m.config().smt.threads_per_core()));
    h.u64(m.cycles());
    for c in m.per_thread() {
        for &id in counters {
            h.u64(c.get(id));
        }
    }
    h.f64(m.average_power());
    h.u64(m.trace().cycles_per_sample());
    for &s in m.trace().samples() {
        h.f64(s);
    }
    let gt = m.ground_truth();
    for v in [gt.idle, gt.uncore, gt.cmp, gt.smt, gt.dynamic_compute, gt.dynamic_memory] {
        h.f64(v);
    }
    h.0
}

/// Options pinned forever — the golden hashes depend on every field.
fn golden_sim() -> ChipSim {
    ChipSim::new(power7()).with_options(SimOptions {
        warmup_cycles: 1_500,
        measure_cycles: 4_000,
        sample_cycles: 500,
        noise_fraction: 0.0025,
        prefetch_enabled: true,
        seed: 0x0060_1de2,
        uncore_mode: UncoreMode::Private,
    })
}

/// The same pinned options with the shared chip-level uncore enabled.
fn golden_shared_sim() -> ChipSim {
    let mut options = golden_sim().options().clone();
    options.uncore_mode = UncoreMode::Shared;
    ChipSim::new(power7()).with_options(options)
}

fn golden_runs() -> Vec<(String, u64)> {
    let sim = golden_sim();
    let kernels = reference_kernels(&sim.uarch().isa);
    let configs = [
        CmpSmtConfig::new(1, SmtMode::Smt1),
        CmpSmtConfig::new(1, SmtMode::Smt4),
        CmpSmtConfig::new(2, SmtMode::Smt2),
    ];
    let mut out = Vec::new();
    for kernel in &kernels {
        for config in configs {
            let m = sim.run(kernel, config);
            out.push((
                format!("{}/{}", kernel.name(), config.label()),
                fingerprint_with(&m, &LEGACY_COUNTERS),
            ));
        }
    }
    // A heterogeneous deployment exercises per-thread kernel state (distinct bodies,
    // data profiles and misprediction rates sharing one core's pipes).
    let config = CmpSmtConfig::new(1, SmtMode::Smt4);
    let mix: Vec<Kernel> =
        vec![kernels[0].clone(), kernels[1].clone(), kernels[2].clone(), kernels[0].clone()];
    let m = sim.run_heterogeneous(&mix, config);
    out.push(("heterogeneous/1-4".to_owned(), fingerprint_with(&m, &LEGACY_COUNTERS)));
    // More than 64 dense registers: the dependency masks span two words.
    let wide = wide_registers(&sim.uarch().isa);
    for config in configs {
        let m = sim.run(&wide, config);
        let label = format!("{}/{}", wide.name(), config.label());
        out.push((label, fingerprint_with(&m, &LEGACY_COUNTERS)));
    }
    // Wider chips: runs of 4 and 8 identical cores, RNG-free (compute, memory, wide)
    // and mispredicting (branchy), pin every core of a multi-core private run.
    let multi_core_runs = [
        (&kernels[0], CmpSmtConfig::new(4, SmtMode::Smt4)),
        (&kernels[0], CmpSmtConfig::new(8, SmtMode::Smt1)),
        (&kernels[1], CmpSmtConfig::new(4, SmtMode::Smt4)),
        (&kernels[1], CmpSmtConfig::new(8, SmtMode::Smt1)),
        (&wide, CmpSmtConfig::new(4, SmtMode::Smt4)),
        (&wide, CmpSmtConfig::new(8, SmtMode::Smt1)),
        (&kernels[2], CmpSmtConfig::new(4, SmtMode::Smt4)),
    ];
    for (kernel, config) in multi_core_runs {
        let m = sim.run(kernel, config);
        let label = format!("{}/{}", kernel.name(), config.label());
        out.push((label, fingerprint_with(&m, &LEGACY_COUNTERS)));
    }
    // Two cores running the same RNG-free mix of distinct kernels on their threads.
    let core_mix = [&kernels[0], &kernels[1], &kernels[0], &wide];
    let mix: Vec<Kernel> = core_mix.iter().chain(&core_mix).map(|k| (*k).clone()).collect();
    let m = sim.run_heterogeneous(&mix, CmpSmtConfig::new(2, SmtMode::Smt4));
    out.push(("heterogeneous_rngfree/2-4".to_owned(), fingerprint_with(&m, &LEGACY_COUNTERS)));
    out
}

/// Shared-uncore golden runs: the reference kernels plus the contention pair, hashed
/// over the *full* counter set (including the uncore counters).
fn golden_shared_runs() -> Vec<(String, u64)> {
    let sim = golden_shared_sim();
    let isa = &sim.uarch().isa;
    let kernels = reference_kernels(isa);
    let (contender_a, contender_b) = uncore_contention_pair(isa);
    let mut out = Vec::new();
    for kernel in &kernels {
        let m = sim.run(kernel, CmpSmtConfig::new(1, SmtMode::Smt4));
        let label = format!("shared/{}/1-4", kernel.name());
        out.push((label, fingerprint_with(&m, &CounterId::ALL)));
    }
    let m = sim.run(&contender_a, CmpSmtConfig::new(1, SmtMode::Smt1));
    out.push(("shared/contender/1-1".to_owned(), fingerprint_with(&m, &CounterId::ALL)));
    let m = sim.run_heterogeneous(&[contender_a, contender_b], CmpSmtConfig::new(2, SmtMode::Smt1));
    out.push(("shared/contention_pair/2-1".to_owned(), fingerprint_with(&m, &CounterId::ALL)));
    let m = sim.run(&wide_registers(isa), CmpSmtConfig::new(1, SmtMode::Smt4));
    out.push(("shared/fix_wide/1-4".to_owned(), fingerprint_with(&m, &CounterId::ALL)));
    // Identical cores contending for one shared L3 and memory port.
    let m = sim.run(&kernels[1], CmpSmtConfig::new(2, SmtMode::Smt2));
    out.push(("shared/fix_memory/2-2".to_owned(), fingerprint_with(&m, &CounterId::ALL)));
    out
}

const GOLDEN: [(&str, u64); 21] = [
    ("fix_compute/1-1", 0xc49715601ab61677),
    ("fix_compute/1-4", 0x7e3bd8a2c7dbfad9),
    ("fix_compute/2-2", 0x7a68d4aa210102ae),
    ("fix_memory/1-1", 0x9300859501889d14),
    ("fix_memory/1-4", 0xc1babfab1bb344e6),
    ("fix_memory/2-2", 0xd72109b67268b21f),
    ("fix_branchy/1-1", 0x615d4b9092408763),
    ("fix_branchy/1-4", 0xd457df3fdc4be690),
    ("fix_branchy/2-2", 0x0afb1539944ccc3a),
    ("heterogeneous/1-4", 0x6dcca0887ba54bba),
    ("fix_wide/1-1", 0xc1b5fd858215f591),
    ("fix_wide/1-4", 0xe4b364b18b7d396a),
    ("fix_wide/2-2", 0x24ac2fae16d7886e),
    ("fix_compute/4-4", 0x40012e05e0401d90),
    ("fix_compute/8-1", 0x330308e5aa183339),
    ("fix_memory/4-4", 0xd001471c90f0d2f4),
    ("fix_memory/8-1", 0x850e0345d9aa8d68),
    ("fix_wide/4-4", 0x4fc5622181787dcb),
    ("fix_wide/8-1", 0x8ec4c21583cfc3d6),
    ("fix_branchy/4-4", 0x6193b6ff5b32dab8),
    ("heterogeneous_rngfree/2-4", 0xc7b3fbc1c4a5ef82),
];

/// Shared-uncore golden hashes, recorded when the subsystem was introduced (full
/// counter set, same pinned options as the private table).  The `fix_wide` rows of
/// both tables were recorded later, on the simulator that rescanned the issue window
/// for pending writers, before the scan became a running mask.  The 4- and 8-core
/// rows, `heterogeneous_rngfree/2-4` and `shared/fix_memory/2-2` were recorded on the
/// simulator that stepped every core of a run, before identical RNG-free private
/// cores were simulated once and replayed.
const GOLDEN_SHARED: [(&str, u64); 7] = [
    ("shared/fix_compute/1-4", 0x25a565137b457c01),
    ("shared/fix_memory/1-4", 0x962529a68ef91426),
    ("shared/fix_branchy/1-4", 0xfde6a1763782cb10),
    ("shared/contender/1-1", 0xc99dcdb40670f264),
    ("shared/contention_pair/2-1", 0x2f6dc90ba7f12f47),
    ("shared/fix_wide/1-4", 0x17372e600244820e),
    ("shared/fix_memory/2-2", 0x72ea025b90d47109),
];

fn assert_matches_golden(actual: &[(String, u64)], expected: &[(&str, u64)], table: &str) {
    let expected: Vec<(String, u64)> =
        expected.iter().map(|(label, hash)| ((*label).to_owned(), *hash)).collect();
    if actual != expected.as_slice() {
        for (label, hash) in actual {
            eprintln!("    (\"{label}\", {hash:#018x}),");
        }
        panic!(
            "simulator measurements diverged from the {table} golden table; if the \
             change is intentional, replace the table with the values printed above"
        );
    }
}

#[test]
fn measurements_match_golden_hashes() {
    assert_matches_golden(&golden_runs(), &GOLDEN, "private-mode");
}

#[test]
fn shared_uncore_measurements_match_golden_hashes() {
    assert_matches_golden(&golden_shared_runs(), &GOLDEN_SHARED, "shared-mode");
}

/// The private-mode rows of one kernel on every hardware thread, re-measured through
/// family runs: the rows are grouped by kernel and SMT mode (in table order) and each
/// group is one `run_family` call, whose measurements must hash to the same goldens.
fn golden_family_runs() -> Vec<(String, u64)> {
    let sim = golden_sim();
    let isa = &sim.uarch().isa;
    let mut kernels = reference_kernels(isa);
    kernels.push(wide_registers(isa));
    let mut families: Vec<(&Kernel, Vec<CmpSmtConfig>)> = Vec::new();
    for (label, _) in GOLDEN.iter().filter(|(label, _)| !label.starts_with("heterogeneous")) {
        let (name, config) = label.split_once('/').expect("kernel/config label");
        let (cores, threads) = config.split_once('-').expect("cores-threads label");
        let config = CmpSmtConfig::new(
            cores.parse().expect("core count"),
            SmtMode::from_threads(threads.parse().expect("thread count")).expect("SMT mode"),
        );
        let kernel = kernels.iter().find(|k| k.name() == name).expect("golden kernel");
        match families.iter_mut().find(|(k, c)| k.name() == name && c[0].smt == config.smt) {
            Some((_, configs)) => configs.push(config),
            None => families.push((kernel, vec![config])),
        }
    }
    let mut out = Vec::new();
    for (kernel, configs) in families {
        for m in sim.run_family(kernel, &configs) {
            let label = format!("{}/{}", kernel.name(), m.config().label());
            out.push((label, fingerprint_with(&m, &LEGACY_COUNTERS)));
        }
    }
    out
}

#[test]
fn family_runs_match_golden_hashes() {
    let family = golden_family_runs();
    assert_eq!(family.len(), GOLDEN.len() - 2, "every row but the two heterogeneous ones");
    for (label, hash) in &family {
        let expected = GOLDEN.iter().find(|(l, _)| l == label).expect("golden row").1;
        assert_eq!(*hash, expected, "{label} diverged when measured in a family");
    }
}

#[test]
fn golden_runs_are_reproducible_within_a_process() {
    assert_eq!(golden_runs(), golden_runs());
    assert_eq!(golden_shared_runs(), golden_shared_runs());
}
