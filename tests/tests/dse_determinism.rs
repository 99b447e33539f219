//! Property tests: the stressmark search is deterministic under parallelism.
//!
//! [`StressmarkSearch`] scores every candidate through its [`ExperimentSession`], the
//! path `reproduce_all` runs.  For random candidate sets and GA seeds, a search on a
//! fresh session at every worker count in `1..=8` (the range the `MP_THREADS` override
//! takes in CI) returns a `SearchResult` — best point, score, evaluation/failure counts
//! and the full `history` trace — identical to the one-worker (serial) search.  Each
//! worker count gets its own session, so every search really simulates its candidates
//! instead of replaying the previous one from the memo.

use microprobe::dse::{GeneticSearch, SearchResult};
use microprobe::platform::{Platform, SimPlatform};
use mp_runtime::ExperimentSession;
use mp_stressmark::sets::expert_instructions;
use mp_stressmark::{expert_dse_sequences, SequenceCandidate, StressmarkSearch};
use mp_uarch::SmtMode;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs `search` on a fresh one-core SMT1 session for each worker count in `1..=8` and
/// returns the results in worker order.
fn at_every_worker_count(
    loop_instructions: usize,
    search: impl Fn(&StressmarkSearch<'_, &SimPlatform>) -> SearchResult<SequenceCandidate>,
) -> Vec<SearchResult<SequenceCandidate>> {
    let platform = SimPlatform::power7_fast();
    (1usize..=8)
        .map(|workers| {
            let session = ExperimentSession::new(&platform).with_workers(workers);
            let harness = StressmarkSearch::with_session(&session)
                .with_cores(1)
                .with_smt_modes(vec![SmtMode::Smt1])
                .with_loop_instructions(loop_instructions);
            search(&harness)
        })
        .collect()
}

/// Up to 8 expert DSE sequences drawn from a 12-wide window of the set, so duplicates
/// are likely and intended (they exercise the strict earliest-wins tie-breaking and
/// the in-batch dedup).
fn random_candidates(seed: u64, count: usize) -> Vec<SequenceCandidate> {
    let all = expert_dse_sequences(SimPlatform::power7_fast().uarch());
    let mut rng = SmallRng::seed_from_u64(seed);
    let start = rng.gen_range(0..all.len() - 12);
    (0..count).map(|_| all[start + rng.gen_range(0..12)].clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn exhaustive_search_is_identical_to_serial_for_workers_1_to_8(
        seed in 0u64..u64::MAX,
        count in 1usize..=8,
        loop_instructions in 24usize..=48,
    ) {
        let candidates = random_candidates(seed, count);
        for budget in [None, Some(count.div_ceil(2))] {
            let results = at_every_worker_count(loop_instructions, |search| {
                search.exhaustive(candidates.clone(), budget)
            });
            prop_assert!(results[0].evaluations == budget.unwrap_or(count));
            prop_assert!(results[0].failures == 0);
            for (workers, result) in (1usize..).zip(&results) {
                prop_assert!(
                    *result == results[0],
                    "exhaustive (budget {budget:?}) diverged at workers={workers}"
                );
            }
        }
    }

    #[test]
    fn genetic_search_is_identical_to_serial_for_workers_1_to_8(
        seed in 0u64..u64::MAX,
        population in 2usize..=4,
        generations in 1usize..=2,
        loop_instructions in 24usize..=48,
    ) {
        let pool = expert_instructions(SimPlatform::power7_fast().uarch());
        let ga = GeneticSearch::new(population, generations).with_seed(seed);
        let results = at_every_worker_count(loop_instructions, |search| search.genetic(&ga, &pool));
        prop_assert!(results[0].evaluations == ga.budget());
        for (workers, result) in (1usize..).zip(&results) {
            prop_assert!(*result == results[0], "GA diverged at workers={workers}");
        }
    }
}
