//! Evaluation of candidate stressmark sequences on a measurement platform.
//!
//! Every measurement flows through a memoizing [`ExperimentSession`]: a candidate set is
//! turned into **one batch** of `(benchmark × SMT mode)` jobs, the unique jobs run in
//! parallel on the executor, and repeated candidates — within a set,
//! across [`evaluate_set`](StressmarkSearch::evaluate_set) /
//! [`exhaustive`](StressmarkSearch::exhaustive) calls, or between genetic generations —
//! are answered from the session cache instead of being re-simulated.

use std::collections::HashMap;

use microprobe::dse::BatchEvaluator;
use microprobe::dse::{ExhaustiveSearch, GeneticSearch, GenomeSpace, SearchResult};
use microprobe::ir::MicroBenchmark;
use microprobe::prelude::*;
use mp_isa::OpcodeId;
use mp_runtime::{executor, ExperimentSession};
use mp_uarch::{CmpSmtConfig, SmtMode};
use rand::rngs::SmallRng;
use rand::Rng;

/// A candidate: the 6-instruction sequence to replicate through the loop.
pub type SequenceCandidate = Vec<OpcodeId>;

/// The measured outcome of one candidate stressmark.
#[derive(Debug, Clone, PartialEq)]
pub struct StressmarkResult {
    /// Mnemonics of the candidate sequence, in order.
    pub sequence: Vec<String>,
    /// Maximum average chip power observed across the evaluated SMT modes.
    pub power: f64,
    /// Chip IPC at the most power-hungry SMT mode.
    pub ipc: f64,
    /// The SMT mode at which the maximum power was observed.
    pub best_mode: SmtMode,
}

/// Builds candidate benchmarks from sequences and measures them on a platform.
pub struct StressmarkSearch<'a, P: Platform> {
    session: &'a ExperimentSession<P>,
    loop_instructions: usize,
    cores: u32,
    smt_modes: Vec<SmtMode>,
}

impl<'a, P: Platform> StressmarkSearch<'a, P> {
    /// Creates a search harness on a shared [`ExperimentSession`] that evaluates
    /// candidates on all enabled cores of the session's platform, in every SMT mode the
    /// platform's machine description lists (the paper executes each set in all
    /// available SMT modes and reports the maximum — SMT1/2/4 on POWER7, up to SMT8 on
    /// a POWER8-like backend).  Candidate measurements are memoized in (and answered
    /// from) the session's cache, deduping against every other experiment the session
    /// has run.
    pub fn with_session(session: &'a ExperimentSession<P>) -> Self {
        let uarch = session.platform().uarch();
        let cores = uarch.max_cores;
        // The machine description says which SMT modes exist — a POWER8-like backend
        // searches SMT8 too, without the caller having to know.
        let smt_modes = uarch.smt_modes.clone();
        Self { session, loop_instructions: 384, cores, smt_modes }
    }

    /// The platform candidates are measured on.
    pub fn platform(&self) -> &P {
        self.session.platform()
    }

    /// Sets the number of enabled cores the candidates are evaluated on.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds the platform's core count.
    pub fn with_cores(mut self, cores: u32) -> Self {
        assert!(cores >= 1 && cores <= self.platform().uarch().max_cores);
        self.cores = cores;
        self
    }

    /// Sets the loop body length of the generated candidates (the paper uses 4096; the
    /// default here is smaller to keep simulated searches fast — the steady-state power
    /// of a replicated 6-instruction pattern does not depend on the loop length).
    pub fn with_loop_instructions(mut self, loop_instructions: usize) -> Self {
        assert!(loop_instructions >= super::sets::SEQUENCE_LENGTH);
        self.loop_instructions = loop_instructions;
        self
    }

    /// Restricts the evaluated SMT modes.
    ///
    /// # Panics
    ///
    /// Panics if `modes` is empty.
    pub fn with_smt_modes(mut self, modes: Vec<SmtMode>) -> Self {
        assert!(!modes.is_empty(), "at least one SMT mode is required");
        self.smt_modes = modes;
        self
    }

    /// Builds the micro-benchmark realising one candidate sequence.
    ///
    /// # Errors
    ///
    /// Returns the first pass failure.
    pub fn build(&self, sequence: &[OpcodeId]) -> Result<MicroBenchmark, PassError> {
        let arch = self.platform().uarch();
        let mut synth =
            Synthesizer::new(arch.clone()).with_seed(0x57e5).with_name_prefix("stressmark");
        synth.add_pass(SkeletonPass::endless_loop(self.loop_instructions));
        synth.add_pass(SequencePass::repeat(sequence.to_vec()));
        // Max-power rationale: maximise IPC and unit usage, avoid stalls — L1-resident
        // memory accesses and no artificial dependencies.
        synth.add_pass(MemoryPass::new(HitDistribution::l1_only()));
        synth.add_pass(InitRegistersPass::random());
        synth.add_pass(DependencyDistancePass::none());
        synth.synthesize()
    }

    /// Measures one candidate and returns its result.
    ///
    /// # Errors
    ///
    /// Returns the first pass failure.
    pub fn evaluate(&self, sequence: &[OpcodeId]) -> Result<StressmarkResult, PassError> {
        self.evaluate_each(std::slice::from_ref(&sequence.to_vec()))
            .pop()
            .expect("one candidate in, one result out")
    }

    /// Measures every candidate of a set and returns the results in input order.
    ///
    /// # Errors
    ///
    /// Returns the first pass failure (in input order).
    pub fn evaluate_set(
        &self,
        sequences: &[SequenceCandidate],
    ) -> Result<Vec<StressmarkResult>, PassError> {
        self.evaluate_each(sequences).into_iter().collect()
    }

    /// Measures every candidate of a set, returning one result **per candidate** so a
    /// failed build surfaces as that candidate's error instead of aborting the set.
    ///
    /// Candidate benchmarks are synthesized in parallel (duplicate sequences are built
    /// once), and all `candidate × SMT mode` measurements are submitted as one batch to
    /// the memoizing session: unique jobs run concurrently, repeats — within the set or
    /// against anything the session measured before — are answered from the cache.
    pub fn evaluate_each(
        &self,
        sequences: &[SequenceCandidate],
    ) -> Vec<Result<StressmarkResult, PassError>> {
        let _span = mp_telemetry::span("dse.evaluate_candidates");
        mp_telemetry::counter("dse.candidates", sequences.len() as u64);
        let arch = self.platform().uarch();

        // Build each distinct sequence once, in parallel (synthesis is deterministic).
        let mut first_occurrence: HashMap<&[OpcodeId], usize> = HashMap::new();
        let mut unique: Vec<&SequenceCandidate> = Vec::new();
        let slots: Vec<usize> = sequences
            .iter()
            .map(|sequence| {
                *first_occurrence.entry(sequence.as_slice()).or_insert_with(|| {
                    unique.push(sequence);
                    unique.len() - 1
                })
            })
            .collect();
        // Synthesizing one candidate takes ~100–300 µs, so sets of one or two
        // candidates are synthesized inline instead of paying for spawned threads.
        const SYNTH_COST_NS: u64 = 200_000;
        let built: Vec<Result<MicroBenchmark, PassError>> = executor::par_map_with_workers_and_cost(
            self.session.workers(),
            executor::CostHint::per_item_ns(SYNTH_COST_NS),
            &unique,
            |sequence| self.build(sequence),
        );

        // One measurement job per successfully-built unique candidate × SMT mode.
        let mut jobs: Vec<(&MicroBenchmark, CmpSmtConfig)> = Vec::new();
        for bench in built.iter().filter_map(|b| b.as_ref().ok()) {
            for &mode in &self.smt_modes {
                jobs.push((bench, CmpSmtConfig::new(self.cores, mode)));
            }
        }
        // Resilient measurement: one panicking job (a genuinely bad kernel, or an
        // `MP_FAULTS`-injected failure) fails only its own candidate, which flows into
        // the searchers' existing quarantine convention (−inf score) instead of
        // aborting the whole generation.
        let measured = self.session.measure_batch_resilient(&jobs);

        // Assemble per-unique-candidate results, then fan back out to input order.
        let mut measured = measured.into_iter();
        let results: Vec<Result<StressmarkResult, PassError>> = built
            .iter()
            .zip(&unique)
            .map(|(built, sequence)| match built {
                Err(error) => Err(error.clone()),
                Ok(_) => {
                    let mut best: Option<(f64, f64, SmtMode)> = None;
                    let mut failure: Option<PassError> = None;
                    for &mode in &self.smt_modes {
                        match measured.next().expect("one measurement per job") {
                            Ok(m) => {
                                let power = m.average_power();
                                if best.map(|(p, _, _)| power > p).unwrap_or(true) {
                                    best = Some((power, m.chip_ipc(), mode));
                                }
                            }
                            Err(error) => {
                                failure.get_or_insert_with(|| {
                                    PassError::new("measure", error.to_string())
                                });
                            }
                        }
                    }
                    if let Some(error) = failure {
                        // Any failed mode disqualifies the candidate: a partial
                        // best-over-modes could mis-rank it against fully-measured
                        // peers.
                        return Err(error);
                    }
                    let (power, ipc, best_mode) = best.expect("at least one SMT mode is evaluated");
                    Ok(StressmarkResult {
                        sequence: sequence
                            .iter()
                            .map(|op| arch.isa.def(*op).mnemonic().to_owned())
                            .collect(),
                        power,
                        ipc,
                        best_mode,
                    })
                }
            })
            .collect();
        slots.into_iter().map(|slot| results[slot].clone()).collect()
    }

    /// Runs an exhaustive DSE over a candidate set (optionally truncated to a budget)
    /// and returns the best sequence found together with the search trace.
    ///
    /// Every candidate of the set is measured as one memoized batch.  Candidates whose
    /// benchmark fails to build score `-∞` — they can never win the search — and are
    /// counted in [`SearchResult::failures`].
    ///
    /// # Panics
    ///
    /// Panics if `sequences` is empty.
    pub fn exhaustive(
        &self,
        sequences: Vec<SequenceCandidate>,
        budget: Option<usize>,
    ) -> SearchResult<SequenceCandidate> {
        let _span = mp_telemetry::span("dse.exhaustive");
        let search = match budget {
            Some(b) => ExhaustiveSearch::with_budget(b),
            None => ExhaustiveSearch::new(),
        };
        search.run(sequences, &mut PowerEvaluator { search: self })
    }

    /// Runs a genetic DSE over sequences drawn from `pool` and returns the best
    /// sequence found together with the search trace.
    ///
    /// Each generation's offspring are measured as one memoized batch, and sequences
    /// revisited across generations (or by earlier
    /// [`evaluate_set`](Self::evaluate_set)/[`exhaustive`](Self::exhaustive) calls on
    /// the same session) are answered from the cache.  Failed builds score `-∞` and are
    /// counted in [`SearchResult::failures`].
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty.
    pub fn genetic(
        &self,
        driver: &GeneticSearch,
        pool: &[OpcodeId],
    ) -> SearchResult<SequenceCandidate> {
        let _span = mp_telemetry::span("dse.genetic");
        let space = SequenceSpace::new(pool.to_vec());
        driver.run(&space, &mut PowerEvaluator { search: self })
    }
}

/// The [`BatchEvaluator`] behind [`StressmarkSearch::exhaustive`] and
/// [`StressmarkSearch::genetic`]: scores a candidate batch by maximum chip power, with
/// failed builds reported as `-∞` (tallied by the drivers in
/// [`SearchResult::failures`]).
struct PowerEvaluator<'s, 'a, P: Platform> {
    search: &'s StressmarkSearch<'a, P>,
}

impl<P: Platform> BatchEvaluator<SequenceCandidate> for PowerEvaluator<'_, '_, P> {
    fn evaluate_batch(&mut self, points: &[SequenceCandidate]) -> Vec<f64> {
        self.search
            .evaluate_each(points)
            .into_iter()
            .map(|result| match result {
                Ok(result) => result.power,
                Err(_) => f64::NEG_INFINITY,
            })
            .collect()
    }
}

/// The genome space of replicated-sequence stressmarks: fixed-length instruction
/// sequences drawn from a pool (typically the expert picks or the IPC×EPI heuristic
/// selection).
#[derive(Debug, Clone)]
pub struct SequenceSpace {
    pool: Vec<OpcodeId>,
}

impl SequenceSpace {
    /// Sequences of [`SEQUENCE_LENGTH`](super::sets::SEQUENCE_LENGTH) instructions from
    /// `pool`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn new(pool: Vec<OpcodeId>) -> Self {
        assert!(!pool.is_empty(), "the instruction pool must not be empty");
        Self { pool }
    }

    fn pick(&self, rng: &mut SmallRng) -> OpcodeId {
        self.pool[rng.gen_range(0..self.pool.len())]
    }
}

impl GenomeSpace for SequenceSpace {
    type Point = SequenceCandidate;

    fn random(&self, rng: &mut SmallRng) -> SequenceCandidate {
        (0..super::sets::SEQUENCE_LENGTH).map(|_| self.pick(rng)).collect()
    }

    fn mutate(&self, point: &mut SequenceCandidate, rng: &mut SmallRng) {
        let idx = rng.gen_range(0..point.len());
        point[idx] = self.pick(rng);
    }

    fn crossover(
        &self,
        a: &SequenceCandidate,
        b: &SequenceCandidate,
        rng: &mut SmallRng,
    ) -> SequenceCandidate {
        let cut = rng.gen_range(0..=a.len());
        a.iter().take(cut).chain(b.iter().skip(cut)).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets;
    use microprobe::platform::SimPlatform;

    fn session() -> ExperimentSession<SimPlatform> {
        ExperimentSession::new(SimPlatform::power7_fast())
    }

    fn search(session: &ExperimentSession<SimPlatform>) -> StressmarkSearch<'_, SimPlatform> {
        StressmarkSearch::with_session(session)
            .with_loop_instructions(48)
            .with_smt_modes(vec![SmtMode::Smt1])
    }

    #[test]
    fn default_smt_modes_come_from_the_machine_description() {
        let p7 = session();
        assert_eq!(StressmarkSearch::with_session(&p7).smt_modes, p7.platform().uarch().smt_modes);

        let p8 = ExperimentSession::new(SimPlatform::new(
            mp_sim::ChipSim::new(mp_uarch::power8()).with_options(mp_sim::SimOptions::fast()),
        ));
        let s8 = StressmarkSearch::with_session(&p8);
        assert_eq!(s8.smt_modes, p8.platform().uarch().smt_modes);
        assert!(s8.smt_modes.contains(&SmtMode::Smt8), "POWER8-like backends search SMT8");
    }

    #[test]
    fn candidate_benchmarks_replicate_the_sequence() {
        let session = session();
        let s = search(&session);
        let arch = s.platform().uarch();
        let seq = sets::expert_manual_set(arch)[0].clone();
        let bench = s.build(&seq).unwrap();
        assert_eq!(bench.kernel().len(), 48);
        for (i, inst) in bench.kernel().body().iter().enumerate() {
            assert_eq!(inst.opcode(), seq[i % seq.len()]);
        }
    }

    #[test]
    fn evaluation_reports_power_and_mode() {
        let session = session();
        let s = search(&session);
        let arch = s.platform().uarch();
        let seq = sets::expert_manual_set(arch)[0].clone();
        let result = s.evaluate(&seq).unwrap();
        assert!(result.power > s.platform().idle_power());
        assert!(result.ipc > 0.0);
        assert_eq!(result.sequence.len(), sets::SEQUENCE_LENGTH);
        assert_eq!(result.best_mode, SmtMode::Smt1);
    }

    #[test]
    fn evaluate_set_matches_per_candidate_evaluation() {
        let session = session();
        let s = search(&session);
        let arch = s.platform().uarch();
        let mut candidates = sets::expert_manual_set(arch);
        candidates.truncate(3);
        // A duplicate exercises the build/measurement dedup path.
        candidates.push(candidates[0].clone());
        let batch = s.evaluate_set(&candidates).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0], batch[3], "duplicate candidates get identical results");
        for (candidate, result) in candidates.iter().zip(&batch) {
            assert_eq!(*result, s.evaluate(candidate).unwrap());
        }
    }

    #[test]
    fn exhaustive_search_finds_at_least_as_good_a_candidate_as_the_first() {
        let session = session();
        let s = search(&session);
        let arch = s.platform().uarch();
        let candidates: Vec<_> = sets::expert_manual_set(arch);
        let first_power = s.evaluate(&candidates[0]).unwrap().power;
        let result = s.exhaustive(candidates, Some(5));
        assert!(result.best_score >= first_power - 1e-9);
        assert_eq!(result.evaluations, 5);
        assert_eq!(result.failures, 0);
    }

    #[test]
    fn genetic_search_stays_inside_the_pool_and_reports_no_failures() {
        let session = session();
        let s = search(&session);
        let arch = s.platform().uarch();
        let pool = sets::expert_instructions(arch);
        let driver = GeneticSearch::new(4, 2).with_seed(9);
        let result = s.genetic(&driver, &pool);
        assert_eq!(result.evaluations, driver.budget());
        assert_eq!(result.failures, 0);
        assert_eq!(result.best.len(), sets::SEQUENCE_LENGTH);
        assert!(result.best.iter().all(|op| pool.contains(op)));
        assert!(result.best_score > s.platform().idle_power());
    }

    #[test]
    fn searches_on_a_shared_session_reuse_its_measurements() {
        let session = session();
        let s = search(&session);
        let arch = s.platform().uarch();
        let candidates = sets::expert_manual_set(arch);

        let results = s.evaluate_set(&candidates).unwrap();
        let unique_runs = session.stats().misses;
        assert_eq!(unique_runs, candidates.len(), "one unique run per candidate and mode");

        // The exhaustive search over the same set is answered entirely from the cache.
        let best = s.exhaustive(candidates.clone(), None);
        assert_eq!(session.stats().misses, unique_runs, "no new platform runs");
        let max_power = results.iter().map(|r| r.power).fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(best.best_score, max_power);
    }
}
