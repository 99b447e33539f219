//! Benches for the `mp_runtime` subsystem: cost-aware `par_map` against its serial
//! baseline at every worker count (the CI perf gate's primary targets), the warm
//! persistent-pool dispatch cost, and the memoized replay path of a session.
//!
//! Every `<group>/serial` entry is the plain `iter().map().collect()` loop; the
//! numeric entries run the same workload through the cost-aware executor at that
//! worker count.  `bench_gate` asserts the numeric medians never exceed serial beyond
//! tolerance — the "parallelism never loses" invariant.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use microprobe::platform::SimPlatform;
use microprobe::prelude::*;
use mp_power::SampleKind;
use mp_runtime::{
    par_map_with_workers_and_cost, scope_with_workers, CostHint, ExperimentPlan, ExperimentSession,
};
use mp_uarch::{CmpSmtConfig, SmtMode};

/// ~55 ns of integer mixing per item (64 rounds): small enough that parallel dispatch
/// can only lose — the scheduler must take the inline fallback.
fn mix64(x: &u64) -> u64 {
    let mut v = *x;
    for _ in 0..64 {
        v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13) ^ *x;
    }
    v
}

/// ~2 µs of integer mixing per item (2048 rounds): a batch of these clears the
/// inline threshold, so this exercises the real chunked pool dispatch.
fn mix2k(x: &u64) -> u64 {
    let mut v = *x;
    for _ in 0..2048 {
        v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13) ^ *x;
    }
    v
}

fn bench_par_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime/par_map");
    group.sample_size(10);

    // Tiny jobs: 512 × ~55 ns ≈ 28 µs of total work.  The honest per-item hint makes
    // the scheduler run these inline at every worker count (pool dispatch alone would
    // cost more than the whole batch).
    let items: Vec<u64> = (0..512).collect();
    group.bench_function(BenchmarkId::new("mix64", "serial"), |b| {
        b.iter(|| black_box(items.iter().map(mix64).collect::<Vec<u64>>()))
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("mix64", workers), &workers, |b, &w| {
            b.iter(|| par_map_with_workers_and_cost(w, CostHint::per_item_ns(55), &items, mix64))
        });
    }

    // Heavy jobs: 1024 × ~2 µs ≈ 2 ms of total work.  This clears the inline
    // threshold, so the numeric entries measure genuine chunked dispatch on the
    // persistent pool (~125 µs of work per chunk).
    let heavy_items: Vec<u64> = (0..1024).collect();
    group.bench_function(BenchmarkId::new("mix2k", "serial"), |b| {
        b.iter(|| black_box(heavy_items.iter().map(mix2k).collect::<Vec<u64>>()))
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("mix2k", workers), &workers, |b, &w| {
            b.iter(|| {
                par_map_with_workers_and_cost(w, CostHint::per_item_ns(2_000), &heavy_items, mix2k)
            })
        });
    }
    group.finish();
}

/// The warm pool-dispatch round trip: lease workers from the persistent pool, run one
/// empty job each, shut the scope down.  This is the fixed cost the inline threshold
/// is calibrated against (per-call `thread::spawn` used to put it at ~100 µs/worker).
fn bench_pool_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime/pool");
    group.sample_size(10);
    // Warm the pool so the bench measures reuse, not the one-time spawns.
    scope_with_workers(8, |sc| sc.spawn(|| {}));
    for workers in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("dispatch", workers), &workers, |b, &w| {
            b.iter(|| {
                scope_with_workers(w, |sc| {
                    for _ in 0..w {
                        sc.spawn(|| {});
                    }
                })
            })
        });
    }
    group.finish();
}

fn bench_session(c: &mut Criterion) {
    let arch = mp_uarch::power7();
    let computes = arch.isa.compute_instructions();
    let mut synth = Synthesizer::new(arch).with_name_prefix("bench-session");
    synth.add_pass(SkeletonPass::endless_loop(32));
    synth.add_pass(InstructionMixPass::uniform(computes));
    let bench = synth.synthesize().expect("benchmark synthesizes");

    let mut plan = ExperimentPlan::new();
    let configs = [CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(2, SmtMode::Smt2)];
    plan.sweep("bench-session", &bench, &configs, SampleKind::Random);

    let session = ExperimentSession::new(SimPlatform::power7_fast());
    // Warm the memo cache; the bench then measures the pure replay path
    // (content-hashing + cache lookup + sample relabelling, no simulation).
    let _ = session.run(&plan);

    let mut group = c.benchmark_group("runtime/session");
    group.sample_size(10);
    group.bench_function("memoized_replay", |b| b.iter(|| black_box(session.run(&plan))));
    group.finish();
}

criterion_group!(runtime_benches, bench_par_map, bench_pool_dispatch, bench_session);
criterion_main!(runtime_benches);
