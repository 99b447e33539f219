//! Parallel batch evaluation for the DSE search drivers.
//!
//! The core search drivers ([`ExhaustiveSearch`](microprobe::dse::ExhaustiveSearch),
//! [`GeneticSearch`](microprobe::dse::GeneticSearch)) hand candidates to their evaluator
//! in batches.  A [`ParallelEvaluator`] scores such a batch on the
//! [`executor`](crate::executor): scores land by candidate index, so a search run with
//! any worker count — including the `MP_THREADS` override — returns a
//! [`SearchResult`](microprobe::dse::SearchResult) byte-identical to the serial closure
//! path.

use microprobe::dse::BatchEvaluator;

use crate::executor;
use crate::executor::CostHint;

/// A [`BatchEvaluator`] that maps a pure scoring function over each candidate batch in
/// parallel.
///
/// The scoring function must be `Fn` (not `FnMut`): candidates of a batch are scored
/// concurrently in whatever order the workers claim them, so per-call mutable state would
/// make scores scheduling-dependent.  Report a failed candidate with a non-finite score
/// (conventionally `f64::NEG_INFINITY`); the drivers count those in
/// [`SearchResult::failures`](microprobe::dse::SearchResult::failures).
///
/// The worker count defaults to [`executor::default_workers`] (the `MP_THREADS`
/// environment variable, else the host parallelism) and can be pinned per evaluator
/// with [`with_workers`](Self::with_workers).
pub struct ParallelEvaluator<F> {
    score: F,
    workers: Option<usize>,
    cost: CostHint,
}

impl<F> ParallelEvaluator<F> {
    /// Wraps a scoring function.
    pub fn new(score: F) -> Self {
        Self { score, workers: None, cost: CostHint::Unknown }
    }

    /// Overrides the executor worker count for this evaluator (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Declares the estimated per-candidate scoring cost, so batches too cheap to pay
    /// for spawning threads are scored inline on the caller.  Scheduling-only: search
    /// results are byte-identical for any hint.
    pub fn with_cost_hint(mut self, cost: CostHint) -> Self {
        self.cost = cost;
        self
    }

    /// The worker count batches are scored on.
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(executor::default_workers)
    }
}

impl<P, F> BatchEvaluator<P> for ParallelEvaluator<F>
where
    P: Sync,
    F: Fn(&P) -> f64 + Sync,
{
    fn evaluate_batch(&mut self, points: &[P]) -> Vec<f64> {
        executor::par_map_with_workers_and_cost(self.workers(), self.cost, points, &self.score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microprobe::dse::{ExhaustiveSearch, GeneticSearch, VecSpace};

    // The drivers' point type here is `Vec<u32>` (VecSpace), so evaluators take `&Vec`.
    #[allow(clippy::ptr_arg)]
    fn score(point: &Vec<u32>) -> f64 {
        // A little float work so identical results actually prove bit-determinism.
        point.iter().enumerate().map(|(i, &g)| (g as f64).sqrt() * (i as f64 + 1.0)).sum()
    }

    #[test]
    fn exhaustive_search_is_identical_for_any_worker_count() {
        let points: Vec<Vec<u32>> = (0..40u32).map(|i| vec![i, i * 7 % 13, i * 3 % 5]).collect();
        let serial = ExhaustiveSearch::new().run(points.clone(), &mut score);
        for workers in 1..=8 {
            let mut par = ParallelEvaluator::new(score).with_workers(workers);
            let result = ExhaustiveSearch::new().run(points.clone(), &mut par);
            assert_eq!(result, serial, "workers={workers}");
        }
    }

    #[test]
    fn genetic_search_is_identical_for_any_worker_count() {
        let space = VecSpace::new(4, 9);
        let ga = GeneticSearch::new(8, 4).with_seed(21);
        let serial = ga.run(&space, &mut score);
        for workers in 1..=8 {
            let mut par = ParallelEvaluator::new(score).with_workers(workers);
            let result = ga.run(&space, &mut par);
            assert_eq!(result, serial, "workers={workers}");
        }
    }

    #[test]
    fn cost_hints_never_change_search_results() {
        let points: Vec<Vec<u32>> = (0..48u32).map(|i| vec![i, i * 5 % 11, i * 2 % 7]).collect();
        let serial = ExhaustiveSearch::new().run(points.clone(), &mut score);
        let hints =
            [CostHint::Unknown, CostHint::per_item_ns(1), CostHint::per_item_ns(10_000_000)];
        for hint in hints {
            for workers in [1usize, 3, 8] {
                let mut par =
                    ParallelEvaluator::new(score).with_workers(workers).with_cost_hint(hint);
                let result = ExhaustiveSearch::new().run(points.clone(), &mut par);
                assert_eq!(result, serial, "workers={workers} hint={hint:?}");
            }
        }
    }

    #[test]
    fn failed_candidates_are_tallied_without_aborting_the_batch() {
        let points: Vec<u32> = (0..16).collect();
        let mut par = ParallelEvaluator::new(|x: &u32| {
            if x.is_multiple_of(4) {
                f64::NEG_INFINITY
            } else {
                f64::from(*x)
            }
        })
        .with_workers(4);
        let result = ExhaustiveSearch::new().run(points, &mut par);
        assert_eq!(result.best, 15);
        assert_eq!(result.failures, 4);
        assert_eq!(result.evaluations, 16);
    }
}
