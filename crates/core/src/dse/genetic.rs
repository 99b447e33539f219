//! Genetic algorithm search driver.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{sanitize_scores, BatchEvaluator, SearchResult};

/// The per-offspring mutation probability.
const MUTATION_RATE: f64 = 0.25;

/// Describes how candidate points are created and recombined by the genetic search.
pub trait GenomeSpace {
    /// The candidate point type.
    type Point: Clone;

    /// Draws a random point.
    fn random(&self, rng: &mut SmallRng) -> Self::Point;

    /// Mutates a point in place (small random perturbation).
    fn mutate(&self, point: &mut Self::Point, rng: &mut SmallRng);

    /// Combines two parents into an offspring.
    fn crossover(&self, a: &Self::Point, b: &Self::Point, rng: &mut SmallRng) -> Self::Point;
}

/// A small steady-state genetic algorithm, the search driver previous stressmark
/// generators rely on and one of the drivers MicroProbe integrates.
///
/// Each generation's offspring are bred first (all random draws happen up front, in
/// offspring order) and then scored as **one batch** through the [`BatchEvaluator`], so
/// a parallel or memoizing evaluator measures a whole population concurrently.  The
/// random stream, the selection pressure and the reported history are identical to a
/// serial breed-then-evaluate loop: searches stay deterministic given the seed, for any
/// evaluator backend.
#[derive(Debug, Clone)]
pub struct GeneticSearch {
    population: usize,
    generations: usize,
    elite: usize,
    seed: u64,
}

impl GeneticSearch {
    /// Creates a GA with the given population size and generation count.
    ///
    /// # Panics
    ///
    /// Panics if the population is smaller than 2 or there are no generations.
    pub fn new(population: usize, generations: usize) -> Self {
        assert!(population >= 2, "population must be at least 2");
        assert!(generations >= 1, "at least one generation is required");
        Self { population, generations, elite: 1, seed: 0xdead_beef }
    }

    /// Sets the random seed (searches are deterministic given the seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of evaluations the search will perform.
    pub fn budget(&self) -> usize {
        self.population + self.generations * (self.population - self.elite)
    }

    /// Runs the search.
    pub fn run<S, E>(&self, space: &S, evaluator: &mut E) -> SearchResult<S::Point>
    where
        S: GenomeSpace,
        E: BatchEvaluator<S::Point> + ?Sized,
    {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut history = Vec::new();
        let mut evaluations = 0usize;
        let mut failures = 0usize;

        // Initial population: breed first, then score the whole batch at once.
        let initial: Vec<S::Point> = (0..self.population).map(|_| space.random(&mut rng)).collect();
        let mut scores = evaluator.evaluate_batch(&initial);
        evaluations += initial.len();
        sanitize_scores(&mut scores, &mut failures);
        let mut scored: Vec<(S::Point, f64)> = initial.into_iter().zip(scores).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are comparable"));
        history.extend(std::iter::repeat_n(scored[0].1, self.population));

        for _ in 0..self.generations {
            // Breed every offspring of the generation up front: selection, crossover and
            // mutation only read the *parent* scores, so the random stream is the same
            // as in an interleaved breed-evaluate loop.
            let offspring: Vec<S::Point> = (self.elite..self.population)
                .map(|_| {
                    let a = self.tournament(&scored, &mut rng);
                    let b = self.tournament(&scored, &mut rng);
                    let mut child = space.crossover(&scored[a].0, &scored[b].0, &mut rng);
                    if rng.gen::<f64>() < MUTATION_RATE {
                        space.mutate(&mut child, &mut rng);
                    }
                    child
                })
                .collect();
            let mut scores = evaluator.evaluate_batch(&offspring);
            evaluations += offspring.len();
            sanitize_scores(&mut scores, &mut failures);

            let mut next: Vec<(S::Point, f64)> = scored.iter().take(self.elite).cloned().collect();
            for (child, score) in offspring.into_iter().zip(scores) {
                next.push((child, score));
                let best_so_far = next
                    .iter()
                    .map(|(_, s)| *s)
                    .fold(f64::NEG_INFINITY, f64::max)
                    .max(history.last().copied().unwrap_or(f64::NEG_INFINITY));
                history.push(best_so_far);
            }
            scored = next;
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are comparable"));
        }

        let (best, best_score) = scored.swap_remove(0);
        SearchResult { best, best_score, evaluations, failures, history }
    }

    /// Binary tournament selection: picks the better of two random individuals.
    fn tournament<P>(&self, scored: &[(P, f64)], rng: &mut SmallRng) -> usize {
        let a = rng.gen_range(0..scored.len());
        let b = rng.gen_range(0..scored.len());
        if scored[a].1 >= scored[b].1 {
            a
        } else {
            b
        }
    }
}

/// A ready-made genome space over fixed-length vectors of bounded integers — the shape
/// of most abstract workload models (instruction-mix fractions, dependency distances,
/// sequence positions).
#[derive(Debug, Clone)]
pub struct VecSpace {
    length: usize,
    max_value: u32,
}

impl VecSpace {
    /// Vectors of `length` genes, each in `0..=max_value`.
    ///
    /// # Panics
    ///
    /// Panics if the length is zero.
    pub fn new(length: usize, max_value: u32) -> Self {
        assert!(length > 0, "genome length must be positive");
        Self { length, max_value }
    }
}

impl GenomeSpace for VecSpace {
    type Point = Vec<u32>;

    fn random(&self, rng: &mut SmallRng) -> Vec<u32> {
        (0..self.length).map(|_| rng.gen_range(0..=self.max_value)).collect()
    }

    fn mutate(&self, point: &mut Vec<u32>, rng: &mut SmallRng) {
        let idx = rng.gen_range(0..point.len());
        point[idx] = rng.gen_range(0..=self.max_value);
    }

    fn crossover(&self, a: &Vec<u32>, b: &Vec<u32>, rng: &mut SmallRng) -> Vec<u32> {
        let cut = rng.gen_range(0..=a.len());
        a.iter().take(cut).chain(b.iter().skip(cut)).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ga_optimises_a_simple_function() {
        // Maximise the sum of genes: the optimum is all genes at max_value.
        let space = VecSpace::new(6, 9);
        let ga = GeneticSearch::new(12, 20).with_seed(3);
        let result = ga.run(&space, &mut |p: &Vec<u32>| p.iter().sum::<u32>() as f64);
        assert!(result.best_score >= 45.0, "GA should approach 54, got {}", result.best_score);
        assert!(result.improved());
        assert_eq!(result.evaluations, ga.budget());
        assert_eq!(result.failures, 0);
    }

    #[test]
    fn ga_is_deterministic_given_a_seed() {
        let space = VecSpace::new(4, 7);
        let run = || {
            GeneticSearch::new(8, 5)
                .with_seed(42)
                .run(&space, &mut |p: &Vec<u32>| p.iter().sum::<u32>() as f64)
        };
        let a = run();
        let b = run();
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn history_is_monotonic() {
        let space = VecSpace::new(3, 5);
        let result = GeneticSearch::new(6, 6)
            .with_seed(7)
            .run(&space, &mut |p: &Vec<u32>| p.iter().sum::<u32>() as f64);
        for pair in result.history.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
    }

    #[test]
    fn nan_scores_are_quarantined_instead_of_panicking_the_sort() {
        // Without sanitisation a NaN score would hit the `partial_cmp(...).expect(...)`
        // in the selection sort; quarantined as -inf it just loses every tournament.
        let space = VecSpace::new(3, 5);
        let result = GeneticSearch::new(6, 2).with_seed(13).run(&space, &mut |p: &Vec<u32>| {
            let sum = p.iter().sum::<u32>();
            if sum.is_multiple_of(3) {
                f64::NAN
            } else {
                f64::from(sum)
            }
        });
        assert!(result.failures > 0, "the seed draws at least one NaN-scored genome");
        assert!(!result.best_score.is_nan(), "a NaN must never surface as the best score");
    }

    #[test]
    fn batches_arrive_per_generation() {
        // The GA must submit one batch for the initial population and one per
        // generation's offspring — that is what a parallel evaluator fans out.
        struct CountingEvaluator(Vec<usize>);
        impl BatchEvaluator<Vec<u32>> for CountingEvaluator {
            fn evaluate_batch(&mut self, points: &[Vec<u32>]) -> Vec<f64> {
                self.0.push(points.len());
                points.iter().map(|p| p.iter().sum::<u32>() as f64).collect()
            }
        }
        let space = VecSpace::new(3, 5);
        let mut counting = CountingEvaluator(Vec::new());
        let ga = GeneticSearch::new(6, 3).with_seed(11);
        let result = ga.run(&space, &mut counting);
        assert_eq!(counting.0, vec![6, 5, 5, 5], "population batch, then offspring batches");
        assert_eq!(result.evaluations, ga.budget());
    }

    #[test]
    #[should_panic(expected = "population must be at least 2")]
    fn tiny_population_is_rejected() {
        let _ = GeneticSearch::new(1, 5);
    }
}
