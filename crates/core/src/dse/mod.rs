//! Integrated design space exploration (DSE) support.
//!
//! Dynamic micro-benchmark properties that cannot be ensured statically (e.g. "reach a
//! core IPC of 1.3 while only stressing the FXU", or "maximise chip power") are found by
//! searching a design space.  MicroProbe integrates the search with the generation
//! framework: a [`BatchEvaluator`] typically synthesizes candidate benchmarks and runs
//! them on a [`Platform`](crate::platform::Platform), and the search driver —
//! [`ExhaustiveSearch`], [`GeneticSearch`] or a user-defined loop — decides which
//! candidates to evaluate.
//!
//! The drivers hand candidates to the evaluator in **batches** (the whole enumeration, or
//! one GA generation's offspring), so an evaluator can turn a batch into one memoized
//! measurement plan — the stressmark search submits each batch to its
//! `ExperimentSession`.  Scoring closures are batch evaluators through a blanket impl
//! that scores the batch serially, in order.

mod exhaustive;
mod genetic;

pub use exhaustive::ExhaustiveSearch;
pub use genetic::{GeneticSearch, GenomeSpace, VecSpace};

/// Scores whole batches of candidate design points.
///
/// The search drivers call this with every candidate they need scored at once: the
/// (budget-truncated) enumeration for [`ExhaustiveSearch`], the initial population and
/// each generation's offspring for [`GeneticSearch`].  Implementations are free to
/// evaluate the batch in parallel — scores must be returned **in input order**, one per
/// point, so search results do not depend on how a batch is scheduled.
///
/// A non-finite score (`NaN` or ±∞) marks a candidate whose evaluation *failed* (e.g.
/// the benchmark build raised a pass error).  The drivers tally such candidates in
/// [`SearchResult::failures`] and clamp their score to `-∞` before any ranking, so a
/// failed candidate never outranks (or, via `NaN` comparisons, poisons) a working one.
pub trait BatchEvaluator<P> {
    /// Evaluates a batch, returning one score per point, in input order.
    fn evaluate_batch(&mut self, points: &[P]) -> Vec<f64>;
}

/// Every scoring closure scores batches serially, in order.
impl<P, F> BatchEvaluator<P> for F
where
    F: FnMut(&P) -> f64 + ?Sized,
{
    fn evaluate_batch(&mut self, points: &[P]) -> Vec<f64> {
        points.iter().map(self).collect()
    }
}

/// The outcome of a design space exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult<P> {
    /// The best point found.
    pub best: P,
    /// The score of the best point.
    pub best_score: f64,
    /// Total number of evaluations performed.
    pub evaluations: usize,
    /// Evaluations that failed (reported a non-finite score, the convention evaluators
    /// use for candidates that could not be built or measured).
    pub failures: usize,
    /// Best score after each evaluation (monotonically non-decreasing).
    pub history: Vec<f64>,
}

impl<P> SearchResult<P> {
    /// Returns `true` if the search improved on its first evaluation.
    pub fn improved(&self) -> bool {
        self.history.first().map(|first| self.best_score > *first).unwrap_or(false)
    }
}

/// Quarantines a batch's failed evaluations, shared by the drivers: every non-finite
/// score is counted in `failures` and clamped to `-∞`, so ranking (strict `>`
/// comparisons, the GA's sort) only ever sees comparable scores and a failed candidate
/// can never beat a working one.
pub(crate) fn sanitize_scores(scores: &mut [f64], failures: &mut usize) {
    for score in scores {
        if !score.is_finite() {
            *failures += 1;
            *score = f64::NEG_INFINITY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_batch_evaluators() {
        fn takes_batch<E: BatchEvaluator<i32>>(mut e: E) -> Vec<f64> {
            e.evaluate_batch(&[1, 2, 3])
        }
        let mut calls = 0;
        let scores = takes_batch(|x: &i32| {
            calls += 1;
            f64::from(*x) * 2.0
        });
        assert_eq!(scores, vec![2.0, 4.0, 6.0]);
        assert_eq!(calls, 3, "the blanket impl scores every point exactly once");
    }

    #[test]
    fn improved_reflects_history() {
        let r = SearchResult {
            best: 3,
            best_score: 9.0,
            evaluations: 3,
            failures: 0,
            history: vec![1.0, 4.0, 9.0],
        };
        assert!(r.improved());
        let flat = SearchResult {
            best: 0,
            best_score: 1.0,
            evaluations: 1,
            failures: 0,
            history: vec![1.0],
        };
        assert!(!flat.improved());
    }

    #[test]
    fn sanitize_scores_clamps_every_non_finite_flavour() {
        let mut scores = [2.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0];
        let mut failures = 0;
        sanitize_scores(&mut scores, &mut failures);
        assert_eq!(failures, 3);
        assert_eq!(
            scores,
            [2.0, f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY, -1.0],
            "NaN and +inf are failures too: they must never outrank a working candidate"
        );
    }
}
