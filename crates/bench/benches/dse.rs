//! Benches for the DSE search layer: serial vs parallel candidate scoring, and the
//! cold / parallel / memoized-replay paths of a session-backed stressmark search.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use microprobe::dse::ExhaustiveSearch;
use microprobe::platform::{Platform, SimPlatform};
use mp_runtime::{CostHint, ExperimentSession, ParallelEvaluator};
use mp_stressmark::{expert_dse_sequences, StressmarkSearch};
use mp_uarch::SmtMode;

/// Compute-bound scoring at 1/2/4/8 workers: the pure scheduling overhead/speedup of
/// driving `ExhaustiveSearch` through a `ParallelEvaluator`.
fn bench_par_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("dse/par_eval");
    group.sample_size(10);
    let points: Vec<u64> = (0..256).collect();
    let score = |x: &u64| {
        // A few rounds of integer mixing per candidate: enough work to observe
        // scheduling overhead without drowning it.
        let mut v = *x;
        for _ in 0..512 {
            v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13) ^ *x;
        }
        (v % 1024) as f64
    };
    group.bench_function(BenchmarkId::new("exhaustive", "serial"), |b| {
        b.iter(|| {
            let mut serial = score;
            ExhaustiveSearch::new().run(black_box(points.clone()), &mut serial)
        })
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("exhaustive", workers), &workers, |b, &w| {
            b.iter(|| {
                // ~1 µs per candidate (measured): 256 candidates ≈ 256 µs of total
                // work, under the inline threshold — the executor keeps the whole
                // batch on the caller, so parallelism cannot lose.
                let mut par = ParallelEvaluator::new(score)
                    .with_workers(w)
                    .with_cost_hint(CostHint::per_item_ns(1_000));
                ExhaustiveSearch::new().run(black_box(points.clone()), &mut par)
            })
        });
    }
    group.finish();
}

/// The measurement-bound stressmark search: a cold serial session, a cold parallel
/// session, and a warm session answering the whole search from the memo cache.
fn bench_stressmark_search(c: &mut Criterion) {
    let platform = SimPlatform::power7_fast();
    let arch = platform.uarch().clone();
    let mut candidates = expert_dse_sequences(&arch);
    candidates.truncate(8);

    let mut group = c.benchmark_group("dse/stressmark");
    group.sample_size(10);

    group.bench_function("cold_serial", |b| {
        b.iter(|| {
            let session = ExperimentSession::new(&platform).with_workers(1);
            let search = StressmarkSearch::with_session(&session)
                .with_loop_instructions(24)
                .with_smt_modes(vec![SmtMode::Smt1]);
            black_box(search.exhaustive(candidates.clone(), None))
        })
    });

    group.bench_function("cold_parallel", |b| {
        b.iter(|| {
            let session = ExperimentSession::new(&platform);
            let search = StressmarkSearch::with_session(&session)
                .with_loop_instructions(24)
                .with_smt_modes(vec![SmtMode::Smt1]);
            black_box(search.exhaustive(candidates.clone(), None))
        })
    });

    // Warm the shared session once; the bench then measures the replay path
    // (parallel synthesis + content-hashing + cache lookups, no simulation).
    let session = ExperimentSession::new(&platform);
    let search = StressmarkSearch::with_session(&session)
        .with_loop_instructions(24)
        .with_smt_modes(vec![SmtMode::Smt1]);
    let _ = search.exhaustive(candidates.clone(), None);
    group.bench_function("memoized_replay", |b| {
        b.iter(|| black_box(search.exhaustive(candidates.clone(), None)))
    });

    group.finish();
}

criterion_group!(dse_benches, bench_par_eval, bench_stressmark_search);
criterion_main!(dse_benches);
