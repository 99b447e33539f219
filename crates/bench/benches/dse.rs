//! Benches for the DSE search layer: the cold serial / cold parallel / memoized-replay
//! paths of a session-backed stressmark search.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use microprobe::platform::{Platform, SimPlatform};
use mp_runtime::ExperimentSession;
use mp_stressmark::{expert_dse_sequences, StressmarkSearch};
use mp_uarch::SmtMode;

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

criterion_group!(dse_benches, bench_stressmark_search);
criterion_main!(dse_benches);
