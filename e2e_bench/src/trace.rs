//! The traced pass: the paper pipeline and the GA search composed from the public
//! functions of each layer, with every layer call timed from this file.
//!
//! `Experiments` hard-wires `SimPlatform`, so the traced paper pass re-composes
//! `Experiments::run_all` from the functions it calls, over a session whose platform is
//! a [`TimedPlatform`].  The composition must print byte-identical output to the
//! untraced pass; the caller checks both against the same pinned reference, which is
//! what proves the traced pass measured the same work.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use microprobe::bootstrap::{Bootstrap, BootstrapOptions};
use microprobe::dse::{BatchEvaluator, GeneticSearch, SearchResult};
use microprobe::ir::MicroBenchmark;
use microprobe::platform::{Platform, SimPlatform};
use microprobe::synth::PassError;
use mp_bench::experiments::{ModelStudy, StressmarkStudy, TaxonomyStudy};
use mp_bench::{measurement_plan, ExperimentScale, Experiments, MeasuredBenchmark, Table3};
use mp_isa::OpcodeId;
use mp_power::{BottomUpModel, PowerModel, SampleKind, TopDownModel, TrainingSet, WorkloadSample};
use mp_runtime::{
    executor, ExperimentPlan, ExperimentSession, SessionOptions, SessionStats, Store,
};
use mp_sim::Measurement;
use mp_stressmark::{
    expert_dse_sequences, expert_manual_set, microprobe_sequences, Figure9Report,
    SequenceCandidate, SequenceSpace, StressmarkResult, StressmarkSearch,
};
use mp_uarch::{CmpSmtConfig, MicroArchitecture, SmtMode};
use mp_workloads::{daxpy_kernels, extreme_cases, spec_proxies, TrainingOptions, TrainingSuite};

/// The quick scale's settings that `ExperimentScale` keeps private.  If they drift from
/// `mp_bench`, the traced output stops matching the reference and every traced pass
/// fails.
const SCALE: ExperimentScale = ExperimentScale::Quick;
const TRAINING_SCALE: f64 = 0.03;
const STRESSMARK_CORES: u32 = 4;
const BOOTSTRAP_INSTRUCTIONS: [&str; 26] = [
    "mulldo",
    "subf",
    "addic",
    "lxvw4x",
    "lvewx",
    "lbz",
    "xvnmsubmdp",
    "xvmaddadp",
    "xstsqrtdp",
    "add",
    "nor",
    "and",
    "ldux",
    "lwax",
    "lfsu",
    "lhaux",
    "lwaux",
    "lhau",
    "stxvw4x",
    "stxsdx",
    "stfd",
    "stfsux",
    "stfdux",
    "stfdu",
    "mullw",
    "lxvd2x",
];
/// `StressmarkSearch::evaluate_each`'s synthesis cost hint (scheduling only).
const SYNTH_COST_NS: u64 = 200_000;

/// One span recorded from this file.
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub tid: u64,
    /// Simulation spans carry their configuration and thread-cycle count.
    pub sim: Option<(CmpSmtConfig, u64)>,
}

/// Small per-thread ids for the trace file.
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

/// Everything one traced pass records: its spans, and per-name totals.
pub struct PassTrace {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    totals: Mutex<BTreeMap<&'static str, f64>>,
}

impl PassTrace {
    /// A pass whose span timestamps count from `epoch` (shared by the whole run).
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Mutex::new(Vec::new()), totals: Mutex::new(BTreeMap::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, name: &'static str, start_ns: u64, sim: Option<(CmpSmtConfig, u64)>) {
        let dur_ns = self.now_ns().saturating_sub(start_ns);
        let span = SpanRecord { name, start_ns, dur_ns, tid: thread_id(), sim };
        self.spans.lock().expect("span buffer is never poisoned").push(span);
        if sim.is_none() {
            self.add(name, dur_ns as f64 / 1e9);
        }
    }

    /// Adds `value` to the total named `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        *self.totals.lock().expect("totals are never poisoned").entry(name).or_default() += value;
    }

    /// Runs `f` as one span named `name`; its seconds add to the total of that name.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        self.record(name, start, None);
        out
    }

    /// Hands the recorded spans over (for the trace file written when the run ends).
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer is never poisoned"))
    }

    /// The pass's per-layer metrics, derived from exact counts over span time.  The
    /// executor's busy time comes from its own task spans, which the caller adds.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut m = self.totals.lock().expect("totals are never poisoned").clone();
        let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        let mut per_mode: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
        let (mut runs, mut cycles, mut sim_s) = (0.0, 0.0, 0.0);
        for span in self.spans.lock().expect("span buffer is never poisoned").iter() {
            if let Some((config, thread_cycles)) = span.sim {
                let secs = span.dur_ns as f64 / 1e9;
                runs += 1.0;
                cycles += thread_cycles as f64;
                sim_s += secs;
                let mode = per_mode.entry(config.smt.threads_per_core()).or_default();
                mode.0 += secs;
                mode.1 += thread_cycles as f64;
            }
        }
        m.insert("sim.runs", runs);
        m.insert("sim.thread_mcycles", cycles / 1e6);
        m.insert("sim.s", sim_s);
        m.insert("sim.ns_per_thread_cycle", ratio(sim_s * 1e9, cycles));
        for (threads, name) in [
            (1, "sim.ns_per_thread_cycle.smt1"),
            (2, "sim.ns_per_thread_cycle.smt2"),
            (4, "sim.ns_per_thread_cycle.smt4"),
            (8, "sim.ns_per_thread_cycle.smt8"),
        ] {
            let (secs, cycles) = per_mode.get(&threads).copied().unwrap_or_default();
            m.insert(name, ratio(secs * 1e9, cycles));
        }

        let benchmarks = get(&m, "synth.benchmarks");
        m.insert("synth.us_per_benchmark", ratio(get(&m, "synth.s") * 1e6, benchmarks));
        let submitted = get(&m, "session.submitted");
        m.insert("session.hit_ratio", ratio(get(&m, "session.hits"), submitted));
        m.insert("session.key_us_per_job", ratio(get(&m, "session.key_s") * 1e6, submitted));
        m.insert(
            "store.load_us_per_record",
            ratio(get(&m, "store.load_s") * 1e6, get(&m, "store.loaded")),
        );
        m.insert("dse.unique_ratio", ratio(get(&m, "dse.unique"), get(&m, "dse.submitted")));
        m
    }
}

/// A platform that records one span per simulation, with its configuration and its
/// thread-cycle count: (warm-up + measured cycles) × hardware threads.
pub struct TimedPlatform<'a> {
    inner: &'a SimPlatform,
    trace: &'a PassTrace,
}

impl TimedPlatform<'_> {
    fn thread_cycles(&self, config: CmpSmtConfig) -> u64 {
        let options = self.inner.sim().options();
        (options.warmup_cycles + options.measure_cycles) * u64::from(config.threads())
    }
}

impl Platform for TimedPlatform<'_> {
    fn uarch(&self) -> &MicroArchitecture {
        self.inner.uarch()
    }

    fn run(&self, bench: &MicroBenchmark, config: CmpSmtConfig) -> Measurement {
        let start = self.trace.now_ns();
        let measurement = self.inner.run(bench, config);
        self.trace.record("sim.run", start, Some((config, self.thread_cycles(config))));
        measurement
    }

    fn run_heterogeneous(&self, benches: &[MicroBenchmark], config: CmpSmtConfig) -> Measurement {
        let start = self.trace.now_ns();
        let measurement = self.inner.run_heterogeneous(benches, config);
        self.trace.record("sim.run", start, Some((config, self.thread_cycles(config))));
        measurement
    }

    fn idle_power(&self) -> f64 {
        self.inner.idle_power()
    }
}

/// A session over a [`TimedPlatform`], with every batch call timed and keyed from here.
struct Traced<'a> {
    tr: &'a PassTrace,
    session: ExperimentSession<TimedPlatform<'a>>,
    /// Every job key submitted, in order (the records a warm pass loads).
    keys: Mutex<Vec<u128>>,
}

impl<'a> Traced<'a> {
    fn new(
        tr: &'a PassTrace,
        platform: &'a SimPlatform,
        workers: usize,
        store: Option<&Path>,
    ) -> Self {
        let options =
            SessionOptions { workers: Some(workers), store_dir: store.map(PathBuf::from) };
        let session =
            ExperimentSession::with_options(TimedPlatform { inner: platform, trace: tr }, options);
        Self { tr, session, keys: Mutex::new(Vec::new()) }
    }

    fn arch(&self) -> &MicroArchitecture {
        self.session.platform().uarch()
    }

    /// Times `session.job_key` over the jobs of one batch.  The session computes the same
    /// keys again inside the batch; this copy is what the trace attributes to keying.
    fn key<'j>(&self, jobs: impl Iterator<Item = (&'j MicroBenchmark, CmpSmtConfig)>) {
        let keys: Vec<u128> = self.tr.time("session.key_s", || {
            jobs.map(|(bench, config)| self.session.job_key(bench, config)).collect()
        });
        self.keys.lock().expect("key list is never poisoned").extend(keys);
    }

    fn run(&self, plan: &ExperimentPlan) -> Vec<(WorkloadSample, SampleKind)> {
        self.key(plan.jobs().iter().map(|job| (&job.benchmark, job.config)));
        self.tr.time("executor.batch_wall_s", || self.session.run(plan))
    }

    fn measure_batch(&self, jobs: &[(&MicroBenchmark, CmpSmtConfig)]) -> Vec<Measurement> {
        self.key(jobs.iter().copied());
        self.tr.time("executor.batch_wall_s", || self.session.measure_batch(jobs))
    }

    /// Times synthesis of `count(&output)` benchmarks.
    fn synth<T>(&self, f: impl FnOnce() -> T, count: impl Fn(&T) -> usize) -> T {
        let out = self.tr.time("synth.s", f);
        self.tr.add("synth.benchmarks", count(&out) as f64);
        out
    }

    /// `StressmarkSearch::evaluate_each`, with synthesis and the session batch timed
    /// separately: unique sequences are built in parallel, every `candidate × SMT mode`
    /// job goes to the session as one batch, and results fan back out to input order.
    fn evaluate(
        &self,
        search: &StressmarkSearch<'_, TimedPlatform<'a>>,
        modes: &[SmtMode],
        cores: u32,
        sequences: &[SequenceCandidate],
    ) -> Vec<Result<StressmarkResult, PassError>> {
        let before = self.session.stats();
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
        let synth_ns = AtomicU64::new(0);
        let built: Vec<Result<MicroBenchmark, PassError>> =
            self.tr.time("executor.batch_wall_s", || {
                executor::par_map_with_workers_and_cost(
                    self.session.workers(),
                    executor::CostHint::per_item_ns(SYNTH_COST_NS),
                    &unique,
                    |sequence| {
                        let start = Instant::now();
                        let bench = search.build(sequence);
                        synth_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        bench
                    },
                )
            });
        self.tr.add("synth.s", synth_ns.into_inner() as f64 / 1e9);
        self.tr.add("synth.benchmarks", unique.len() as f64);

        let mut jobs: Vec<(&MicroBenchmark, CmpSmtConfig)> = Vec::new();
        for bench in built.iter().filter_map(|b| b.as_ref().ok()) {
            for &mode in modes {
                jobs.push((bench, CmpSmtConfig::new(cores, mode)));
            }
        }
        self.key(jobs.iter().copied());
        let measured =
            self.tr.time("executor.batch_wall_s", || self.session.measure_batch_resilient(&jobs));

        let arch = self.arch();
        let mut measured = measured.into_iter();
        let results: Vec<Result<StressmarkResult, PassError>> = built
            .iter()
            .zip(&unique)
            .map(|(built, sequence)| match built {
                Err(error) => Err(error.clone()),
                Ok(_) => {
                    let mut best: Option<(f64, f64, SmtMode)> = None;
                    let mut failure: Option<PassError> = None;
                    for &mode in modes {
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

        let after = self.session.stats();
        self.tr.add("dse.evaluations", sequences.len() as f64);
        self.tr.add("dse.submitted", (after.submitted - before.submitted) as f64);
        self.tr.add("dse.unique", (after.misses - before.misses) as f64);
        slots.into_iter().map(|slot| results[slot].clone()).collect()
    }

    /// Records the session's (and its store's) final counts.
    fn finish(&self) -> SessionStats {
        let stats = self.session.stats();
        self.tr.add("session.submitted", stats.submitted as f64);
        self.tr.add("session.unique", stats.misses as f64);
        self.tr.add("session.hits", stats.hits as f64);
        if let Some(store) = self.session.store() {
            let store = store.stats();
            self.tr.add("store.hits", store.hits as f64);
            self.tr.add("store.quarantined", store.quarantined as f64);
        }
        stats
    }
}

/// One traced `reproduce_all quick` pass over `platform` (optionally against the store
/// at `store`).  Returns the report, the pass's wall seconds and the distinct job keys
/// it submitted.  With a store, it then times loading every one of those records,
/// outside the pass's wall time.
pub fn paper_pass(
    tr: &PassTrace,
    experiments: &Experiments,
    platform: &SimPlatform,
    workers: usize,
    store: Option<&Path>,
) -> (String, f64, Vec<u128>) {
    let start = Instant::now();
    let traced = Traced::new(tr, platform, workers, store);
    let mut out = String::new();
    out.push_str(&tr.time("exp.table2_s", || table2(&traced)));
    out.push('\n');
    let model = tr.time("exp.model_study_s", || model_study(&traced, experiments));
    tr.time("exp.render_s", || {
        tr.time("model.eval_s", || {
            for figure in [
                experiments.fig5a(&model),
                experiments.fig5b(&model),
                experiments.fig6(&model),
                experiments.fig7(&model),
                experiments.fig8(&model),
            ] {
                out.push_str(&figure);
                out.push('\n');
            }
        })
    });
    let taxonomy = tr.time("exp.taxonomy_study_s", || taxonomy_study(&traced));
    tr.time("exp.render_s", || out.push_str(&experiments.table3(&taxonomy)));
    out.push('\n');
    let spec_max = model.spec.iter().map(|s| s.power).fold(f64::NEG_INFINITY, f64::max);
    let stressmark =
        tr.time("exp.stressmark_study_s", || stressmark_study(&traced, spec_max, &taxonomy));
    tr.time("exp.render_s", || out.push_str(&experiments.fig9(&stressmark)));
    out.push('\n');
    let _ = writeln!(out, "{}", traced.finish().summary_line());
    let wall = start.elapsed().as_secs_f64();

    let mut keys = traced.keys.into_inner().expect("key list is never poisoned");
    keys.sort_unstable();
    keys.dedup();
    if let Some(dir) = store {
        let reader = Store::open(dir, platform.uarch().spec_digest).expect("the store reopens");
        let loaded =
            tr.time("store.load_s", || keys.iter().filter(|k| reader.load(**k).is_some()).count());
        tr.add("store.loaded", loaded as f64);
    }
    (out, wall, keys)
}

/// `Experiments::table2`, with the suite generation timed as synthesis.
fn table2(traced: &Traced) -> String {
    let suite = traced.synth(
        || {
            TrainingSuite::generate(
                traced.arch(),
                TrainingOptions::reduced(TRAINING_SCALE, SCALE.loop_instructions()),
            )
            .expect("training suite generates")
        },
        |suite| suite.benchmarks().len(),
    );
    let mut out = String::new();
    let _ = writeln!(out, "# Table 2 — automatically generated training micro-benchmarks");
    let _ = writeln!(
        out,
        "{:<16} {:<22} {:>6} {:>14}",
        "name", "units stressed", "count", "paper count"
    );
    let mut total = 0;
    let mut paper_total = 0;
    for (name, units, count) in suite.table2_rows() {
        let family = suite
            .benchmarks()
            .iter()
            .find(|b| b.family.name() == name)
            .map(|b| b.family)
            .expect("family has at least one benchmark");
        let _ = writeln!(out, "{name:<16} {units:<22} {count:>6} {:>14}", family.paper_count());
        total += count;
        paper_total += family.paper_count();
    }
    let _ = writeln!(out, "{:<16} {:<22} {total:>6} {paper_total:>14}", "TOTAL", "");
    out
}

/// `Experiments::model_study`.
fn model_study(traced: &Traced, experiments: &Experiments) -> ModelStudy {
    let tr = traced.tr;
    let arch = traced.arch();
    let loop_len = SCALE.loop_instructions();
    let suite = traced.synth(
        || {
            TrainingSuite::generate(arch, TrainingOptions::reduced(TRAINING_SCALE, loop_len))
                .expect("training suite generation is infallible for the built-in families")
        },
        |suite| suite.benchmarks().len(),
    );
    let labelled = |random: bool, kind: SampleKind| -> Vec<MeasuredBenchmark> {
        suite
            .benchmarks()
            .iter()
            .filter(|tb| tb.family.is_random() == random)
            .map(|tb| {
                MeasuredBenchmark::new(tb.benchmark.name().to_owned(), tb.benchmark.clone(), kind)
            })
            .collect()
    };
    let micro = labelled(false, SampleKind::MicroArch);
    let random = labelled(true, SampleKind::Random);
    let all_configs = experiments.configs();

    let mut training = TrainingSet::new();
    training.extend(traced.run(&measurement_plan(&micro, &all_configs)));
    training.extend(traced.run(&measurement_plan(&random, &all_configs)));

    let spec_benchmarks: Vec<MeasuredBenchmark> = traced.synth(
        || {
            spec_proxies()
                .iter()
                .map(|proxy| {
                    let bench = proxy
                        .generate(arch, loop_len)
                        .expect("SPEC proxy profiles generate valid benchmarks");
                    MeasuredBenchmark::new(proxy.name, bench, SampleKind::Spec)
                })
                .collect()
        },
        Vec::len,
    );
    let spec: Vec<WorkloadSample> = traced
        .run(&measurement_plan(&spec_benchmarks, &all_configs))
        .into_iter()
        .map(|(s, _)| s)
        .collect();

    let extreme_benchmarks: Vec<MeasuredBenchmark> = traced.synth(
        || {
            extreme_cases(arch, loop_len)
                .expect("extreme cases generate")
                .into_iter()
                .map(|case| MeasuredBenchmark::new(case.name, case.benchmark, SampleKind::Extreme))
                .collect()
        },
        Vec::len,
    );
    let extreme: Vec<WorkloadSample> = traced
        .run(&measurement_plan(&extreme_benchmarks, &all_configs))
        .into_iter()
        .map(|(s, _)| s)
        .collect();

    let idle_power = traced.session.platform().idle_power();
    let (bu, models) = tr.time("model.train_s", || {
        let bu = BottomUpModel::train(&training, idle_power)
            .expect("the training set covers every methodology step");
        let td_micro = TopDownModel::train("TD_Micro", training.of_kind(SampleKind::MicroArch))
            .expect("micro-architecture samples exist");
        let td_random = TopDownModel::train("TD_Random", training.of_kind(SampleKind::Random))
            .expect("random samples exist");
        let td_spec = TopDownModel::train("TD_SPEC", spec.iter()).expect("SPEC samples exist");
        let models: Vec<Box<dyn PowerModel>> =
            vec![Box::new(td_micro), Box::new(td_random), Box::new(td_spec), Box::new(bu.clone())];
        (bu, models)
    });
    ModelStudy { training, spec, extreme, idle_power, bu, models }
}

/// `Experiments::taxonomy_study`, with `ExperimentSession::bootstrap` split into its
/// generation, batch and assembly steps so generation counts as synthesis.
fn taxonomy_study(traced: &Traced) -> TaxonomyStudy {
    let arch = traced.arch();
    let options = BootstrapOptions {
        loop_instructions: SCALE.loop_instructions().min(512),
        config: CmpSmtConfig::new(arch.max_cores, SmtMode::Smt1),
        include: Some(BOOTSTRAP_INSTRUCTIONS.iter().map(|s| (*s).to_owned()).collect()),
    };
    let driver = Bootstrap::new(traced.session.platform()).with_options(options);
    let jobs = traced.synth(
        || driver.jobs().expect("bootstrap generation is infallible for the built-in ISA"),
        |jobs| 2 * jobs.len(),
    );
    let flat: Vec<(&MicroBenchmark, CmpSmtConfig)> = jobs
        .iter()
        .flat_map(|job| [(&job.chained, job.config), (&job.independent, job.config)])
        .collect();
    let mut measured = traced.measure_batch(&flat).into_iter();
    let pairs: Vec<(Measurement, Measurement)> = jobs
        .iter()
        .map(|_| {
            (
                measured.next().expect("two measurements per job"),
                measured.next().expect("two measurements per job"),
            )
        })
        .collect();
    let (props, records) = driver.assemble(&jobs, &pairs);
    let table = Table3::from_bootstrap(arch, &records, 3);
    TaxonomyStudy { records, props, table }
}

/// `Experiments::stressmark_study`, with candidate sets evaluated by [`Traced::evaluate`].
fn stressmark_study(
    traced: &Traced,
    spec_max_power: f64,
    taxonomy: &TaxonomyStudy,
) -> StressmarkStudy {
    let tr = traced.tr;
    let arch = traced.arch();
    let budget = SCALE.stressmark_budget();
    let smt_modes = vec![SmtMode::Smt4];
    let cores = STRESSMARK_CORES;
    let loop_len = SCALE.loop_instructions().min(384);
    let search = StressmarkSearch::with_session(&traced.session)
        .with_cores(cores)
        .with_loop_instructions(loop_len)
        .with_smt_modes(smt_modes.clone());
    let evaluate_set = |candidates: &[SequenceCandidate]| -> Vec<StressmarkResult> {
        tr.time("dse.s", || traced.evaluate(&search, &smt_modes, cores, candidates))
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("stressmark sequences generate")
    };

    let mut report = Figure9Report::new(spec_max_power);
    let daxpy =
        traced.synth(|| daxpy_kernels(arch, loop_len).expect("DAXPY kernels generate"), Vec::len);
    let daxpy_jobs: Vec<(&MicroBenchmark, CmpSmtConfig)> = daxpy
        .iter()
        .flat_map(|bench| {
            smt_modes.iter().map(move |&mode| (bench, CmpSmtConfig::new(cores, mode)))
        })
        .collect();
    let daxpy_measured = traced.measure_batch(&daxpy_jobs);
    let daxpy_results: Vec<_> = daxpy
        .iter()
        .zip(daxpy_measured.chunks(smt_modes.len()))
        .map(|(bench, sweep)| {
            let mut best_power = 0.0f64;
            let mut best_ipc = 0.0;
            let mut best_mode = SmtMode::Smt1;
            for (&mode, m) in smt_modes.iter().zip(sweep) {
                if m.average_power() > best_power {
                    best_power = m.average_power();
                    best_ipc = m.chip_ipc();
                    best_mode = mode;
                }
            }
            StressmarkResult {
                sequence: vec![bench.name().to_owned()],
                power: best_power,
                ipc: best_ipc,
                best_mode,
            }
        })
        .collect();
    report.add_set("DAXPY", &daxpy_results);

    report.add_set("Expert manual", &evaluate_set(&expert_manual_set(arch)));

    let mut expert_candidates = expert_dse_sequences(arch);
    if let Some(budget) = budget {
        expert_candidates.truncate(budget);
    }
    let expert_results = evaluate_set(&expert_candidates);
    let max_dse = expert_results.iter().map(|r| r.power).fold(f64::NEG_INFINITY, f64::max);
    let min_dse = expert_results.iter().map(|r| r.power).fold(f64::INFINITY, f64::min);
    report.add_set("Expert DSE", &expert_results);

    let mut heuristic_candidates = microprobe_sequences(arch, &taxonomy.props);
    if heuristic_candidates.is_empty() {
        heuristic_candidates = expert_dse_sequences(arch);
    }
    if let Some(budget) = budget {
        heuristic_candidates.truncate(budget);
    }
    report.add_set("MicroProbe", &evaluate_set(&heuristic_candidates));

    StressmarkStudy { report, order_spread: max_dse / min_dse }
}

/// Scores GA batches through [`Traced::evaluate`], as `StressmarkSearch::genetic` does
/// through `evaluate_each`: failed candidates score `-inf`.
struct PowerScores<'t, 'a> {
    traced: &'t Traced<'a>,
    search: &'t StressmarkSearch<'t, TimedPlatform<'a>>,
    modes: Vec<SmtMode>,
    cores: u32,
}

impl BatchEvaluator<SequenceCandidate> for PowerScores<'_, '_> {
    fn evaluate_batch(&mut self, points: &[SequenceCandidate]) -> Vec<f64> {
        self.traced
            .evaluate(self.search, &self.modes, self.cores, points)
            .into_iter()
            .map(|result| result.map_or(f64::NEG_INFINITY, |r| r.power))
            .collect()
    }
}

/// One traced max-power GA search: `StressmarkSearch::genetic` composed from
/// `GeneticSearch::run`, `SequenceSpace` and [`Traced::evaluate`].  Returns the search
/// result, the session's counts and the pass's wall seconds.
pub fn ga_pass(
    tr: &PassTrace,
    platform: &SimPlatform,
    workers: usize,
    driver: &GeneticSearch,
    cores: u32,
    loop_instructions: usize,
) -> (SearchResult<SequenceCandidate>, SessionStats, f64) {
    let start = Instant::now();
    let traced = Traced::new(tr, platform, workers, None);
    let search = StressmarkSearch::with_session(&traced.session)
        .with_cores(cores)
        .with_loop_instructions(loop_instructions);
    let arch = traced.arch();
    let mut scores =
        PowerScores { traced: &traced, search: &search, modes: arch.smt_modes.clone(), cores };
    let space = SequenceSpace::new(mp_stressmark::sets::expert_instructions(arch));
    let result = tr.time("dse.s", || driver.run(&space, &mut scores));
    let stats = traced.finish();
    (result, stats, start.elapsed().as_secs_f64())
}

/// Times `Store::save` of the records `keys` name, read from the filled store at
/// `source`, into a fresh store at `dir`; returns microseconds per record.
pub fn store_save_us(source: &Path, dir: &Path, digest: u128, keys: &[u128]) -> f64 {
    let reader = Store::open(source, digest).expect("the filled store reopens");
    let records: Vec<(u128, Measurement)> =
        keys.iter().filter_map(|&k| reader.load(k).map(|m| (k, m))).collect();
    let writer = Store::open(dir, digest).expect("a scratch store opens");
    let start = Instant::now();
    for (key, measurement) in &records {
        writer.save(*key, measurement);
    }
    start.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64
}
