//! Throughput of the `ChipSim` per-cycle hot loop, in simulated cycles per second.
//!
//! Unlike `benches/simulator.rs` (which times whole platform runs of synthesized
//! micro-benchmarks), this target pins down the issue-loop cost itself: fixed
//! hand-built kernels (compute-bound, memory-bound, branchy — the same reference set
//! the golden-measurement test uses) on one core, at SMT1/2/4 on POWER7 with private
//! caches, and at SMT8 on the spec-only POWER8 backend with the shared uncore (the
//! configuration of the max-power search, where full memory-port queues hold issue
//! back).  One more row runs the compute kernel on 4 POWER7 cores at SMT4: identical
//! RNG-free private cores, so it times simulating one core and replaying its energy
//! log for the other three.  The reported throughput is simulated chip cycles per
//! wall-clock second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mp_sim::fixtures::{branchy, compute_bound, memory_bound};
use mp_sim::{ChipSim, Kernel, SimOptions, UncoreMode};
use mp_uarch::{power7, power8, CmpSmtConfig, MicroArchitecture, SmtMode};

/// One measured run simulates this many chip cycles (warm-up + window).
const WARMUP_CYCLES: u64 = 2_000;
const MEASURE_CYCLES: u64 = 10_000;

fn hot_loop_sim(uarch: MicroArchitecture, uncore_mode: UncoreMode) -> ChipSim {
    ChipSim::new(uarch).with_options(SimOptions {
        warmup_cycles: WARMUP_CYCLES,
        measure_cycles: MEASURE_CYCLES,
        sample_cycles: 1_000,
        noise_fraction: 0.0025,
        prefetch_enabled: true,
        seed: 0x5eed_0401,
        uncore_mode,
    })
}

fn bench_hot_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_hot_loop");
    group.sample_size(10);
    group.throughput(Throughput::Elements(WARMUP_CYCLES + MEASURE_CYCLES));
    let setups = [
        (
            "",
            hot_loop_sim(power7(), UncoreMode::Private),
            &[SmtMode::Smt1, SmtMode::Smt2, SmtMode::Smt4][..],
        ),
        ("power8_shared/", hot_loop_sim(power8(), UncoreMode::Shared), &[SmtMode::Smt8][..]),
    ];
    for (prefix, sim, modes) in &setups {
        let isa = &sim.uarch().isa;
        let kernels: [(&str, Kernel); 3] = [
            ("compute", compute_bound(isa)),
            ("memory", memory_bound(isa)),
            ("branchy", branchy(isa)),
        ];
        for (name, kernel) in &kernels {
            for smt in modes.iter().copied() {
                let config = CmpSmtConfig::new(1, smt);
                group.bench_with_input(
                    BenchmarkId::new(
                        format!("{prefix}{name}"),
                        format!("{}thread", smt.threads_per_core()),
                    ),
                    &config,
                    |b, config| b.iter(|| sim.run(kernel, *config)),
                );
            }
        }
    }
    let sim = hot_loop_sim(power7(), UncoreMode::Private);
    let kernel = compute_bound(&sim.uarch().isa);
    group.bench_with_input(
        BenchmarkId::new("4core/compute", "4thread"),
        &CmpSmtConfig::new(4, SmtMode::Smt4),
        |b, config| b.iter(|| sim.run(&kernel, *config)),
    );
    group.finish();
}

criterion_group!(benches, bench_hot_loop);
criterion_main!(benches);
