//! Property tests: the DSE search drivers are deterministic under parallelism.
//!
//! For random design spaces, [`ExhaustiveSearch`] and [`GeneticSearch`] driven by an
//! [`mp_runtime::ParallelEvaluator`] at every worker count in `1..=8` (the range the
//! `MP_THREADS` override takes in CI) return `SearchResult`s — best point, score,
//! evaluation/failure counts and the full `history` trace — identical to the serial
//! closure path.  A regression test pins down that one pathologically slow candidate
//! cannot strand the evaluations queued behind it.

use std::sync::{mpsc, Mutex};
use std::time::Duration;

use microprobe::dse::{ExhaustiveSearch, GeneticSearch, SearchResult, VecSpace};
use mp_runtime::ParallelEvaluator;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A pure scoring function with enough float work (square roots, divisions) that
/// "identical" genuinely means bit-identical arithmetic, not just equal ranks.
/// (The drivers' point type is `Vec<u32>`, so the evaluator signature takes `&Vec`.)
#[allow(clippy::ptr_arg)]
fn score(point: &Vec<u32>) -> f64 {
    point
        .iter()
        .enumerate()
        .map(|(i, &g)| (g as f64 + 0.25).sqrt() / (i as f64 + 1.5) - (g % 7) as f64)
        .sum()
}

/// A deterministic random candidate set; duplicates are likely and intended (they
/// exercise the strict earliest-wins tie-breaking).
fn random_points(seed: u64, count: usize) -> Vec<Vec<u32>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count).map(|_| (0..4).map(|_| rng.gen_range(0..10)).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn exhaustive_search_is_identical_to_serial_for_workers_1_to_8(
        seed in 0u64..u64::MAX,
        count in 1usize..=24,
        budgeted in 0u8..=1,
    ) {
        let points = random_points(seed, count);
        let search = if budgeted == 1 {
            ExhaustiveSearch::with_budget(count.div_ceil(2))
        } else {
            ExhaustiveSearch::new()
        };
        let serial: SearchResult<Vec<u32>> = search.run(points.clone(), &mut score);
        for workers in 1usize..=8 {
            let mut par = ParallelEvaluator::new(score).with_workers(workers);
            let parallel = search.run(points.clone(), &mut par);
            prop_assert!(parallel == serial, "exhaustive diverged at workers={workers}");
        }
    }

    #[test]
    fn genetic_search_is_identical_to_serial_for_workers_1_to_8(
        seed in 0u64..u64::MAX,
        population in 2usize..=8,
        generations in 1usize..=4,
    ) {
        let space = VecSpace::new(4, 9);
        let ga = GeneticSearch::new(population, generations).with_seed(seed);
        let serial = ga.run(&space, &mut score);
        prop_assert!(serial.evaluations == ga.budget());
        for workers in 1usize..=8 {
            let mut par = ParallelEvaluator::new(score).with_workers(workers);
            let parallel = ga.run(&space, &mut par);
            prop_assert!(parallel == serial, "GA diverged at workers={workers}");
        }
    }
}

/// Regression test for the scheduling the batch evaluators inherit from the
/// executor: one pathologically slow candidate must not strand the candidates queued
/// behind it.  Candidate 0 blocks until every other candidate has been scored — under
/// contiguous chunk scheduling its chunk-mates could never run and this would time
/// out; with per-item claiming the other worker drains them while candidate 0 waits.
#[test]
fn a_slow_candidate_does_not_strand_queued_evaluations() {
    let candidates: Vec<u32> = (0..8).collect();
    let (done_tx, done_rx) = mpsc::channel::<u32>();
    let done_rx = Mutex::new(done_rx);

    let mut evaluator = ParallelEvaluator::new(move |&candidate: &u32| {
        if candidate == 0 {
            // The slow candidate: wait (with a generous timeout) for the other 7.
            let rx = done_rx.lock().expect("receiver lock never poisoned");
            for _ in 0..7 {
                rx.recv_timeout(Duration::from_secs(30))
                    .expect("queued candidates must be evaluated while candidate 0 runs");
            }
        } else {
            done_tx.send(candidate).expect("receiver outlives the evaluations");
        }
        f64::from(candidate)
    })
    .with_workers(2);

    let result = ExhaustiveSearch::new().run(candidates, &mut evaluator);
    assert_eq!(result.best, 7);
    assert_eq!(result.evaluations, 8);
    assert_eq!(result.failures, 0);
}
