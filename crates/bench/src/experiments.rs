//! One function per table/figure of the paper's evaluation.
//!
//! The heavy artifacts (measured training set, measured SPEC proxies, bootstrap records)
//! are shared between figures through the [`ModelStudy`], [`TaxonomyStudy`] and
//! [`StressmarkStudy`] containers so that a `reproduce_all` run measures everything once.

use std::fmt::Write as _;

use microprobe::bootstrap::{BootstrapOptions, BootstrapRecord};
use microprobe::platform::{Platform, SimPlatform};
use mp_power::{
    paae, per_config_paae, BottomUpModel, PowerModel, SampleKind, TopDownModel, TrainingSet,
    WorkloadSample,
};
use mp_sim::{ChipSim, SimOptions};
use mp_stressmark::{
    expert_dse_sequences, expert_manual_set, microprobe_sequences, Figure9Report, StressmarkSearch,
};
use mp_uarch::{CmpSmtConfig, InstrPropsTable, SmtMode};
use mp_workloads::{daxpy_kernels, extreme_cases, spec_proxies, TrainingOptions, TrainingSuite};

use mp_runtime::ExperimentSession;

use crate::runner::{measurement_plan, MeasuredBenchmark};
use crate::table3::Table3;

/// How large an experiment run should be.
///
/// `Quick` is sized for smoke tests and CI, `Standard` for an interactive reproduction of
/// every figure's shape in a few minutes, `Full` for a paper-scale run (Table 2 counts,
/// 4 K loops, all 24 configurations, the complete 540-sequence DSE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Minutes-scale smoke run.
    Quick,
    /// Default: reproduces every figure's shape.
    Standard,
    /// Paper-scale run (slow).
    Full,
}

impl ExperimentScale {
    /// Parses a scale name, in any case: `quick`, `standard` (or `std`) or `full`.  No
    /// argument means `Standard`; any other name is an error.
    pub fn from_arg(arg: Option<&str>) -> Result<Self, String> {
        let Some(name) = arg else { return Ok(ExperimentScale::Standard) };
        match name.to_ascii_lowercase().as_str() {
            "quick" => Ok(ExperimentScale::Quick),
            "standard" | "std" => Ok(ExperimentScale::Standard),
            "full" => Ok(ExperimentScale::Full),
            _ => Err(format!("unknown scale `{name}`")),
        }
    }

    /// The scale named by the process's first argument.  An unknown name prints a usage
    /// line to stderr and exits with status 2, so a typo never runs the wrong scale.
    pub fn from_cli() -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::from_arg(args.next().as_deref()).unwrap_or_else(|error| {
            eprintln!("{error}\nusage: {program} [quick|standard|full]");
            std::process::exit(2)
        })
    }

    fn training_scale(self) -> f64 {
        match self {
            ExperimentScale::Quick => 0.03,
            ExperimentScale::Standard => 0.08,
            ExperimentScale::Full => 1.0,
        }
    }

    /// The loop body length of generated benchmarks at this scale.
    pub fn loop_instructions(self) -> usize {
        match self {
            ExperimentScale::Quick => 96,
            ExperimentScale::Standard => 192,
            ExperimentScale::Full => 4096,
        }
    }

    fn cores(self) -> Vec<u32> {
        match self {
            ExperimentScale::Quick => vec![1, 2, 4],
            ExperimentScale::Standard => vec![1, 2, 4, 6, 8],
            ExperimentScale::Full => (1..=8).collect(),
        }
    }

    /// The DSE candidate budget at this scale (`None` = exhaustive).
    pub fn stressmark_budget(self) -> Option<usize> {
        match self {
            ExperimentScale::Quick => Some(30),
            ExperimentScale::Standard => Some(120),
            ExperimentScale::Full => None,
        }
    }

    fn bootstrap_instructions(self) -> Option<Vec<String>> {
        match self {
            // The quick run restricts the taxonomy to the instructions the paper's
            // Table 3 actually shows (plus the Section 6 candidates).
            ExperimentScale::Quick => Some(
                [
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
                ]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            ),
            ExperimentScale::Standard | ExperimentScale::Full => None,
        }
    }

    /// The simulator options used at this scale (shorter runs for `Quick`/`Standard`).
    pub fn sim_options(self) -> SimOptions {
        match self {
            ExperimentScale::Quick => SimOptions {
                warmup_cycles: 1_500,
                measure_cycles: 4_000,
                sample_cycles: 500,
                ..SimOptions::default()
            },
            ExperimentScale::Standard => SimOptions::fast(),
            ExperimentScale::Full => SimOptions::default(),
        }
    }
}

/// The measured artifacts shared by the power-modeling figures (5a, 5b, 6, 7, 8).
pub struct ModelStudy {
    /// Labelled training samples (micro-architecture aware + random).
    pub training: TrainingSet,
    /// Measured SPEC proxy samples over all evaluated configurations.
    pub spec: Vec<WorkloadSample>,
    /// Measured extreme-case samples.
    pub extreme: Vec<WorkloadSample>,
    /// Measured idle (workload-independent) power.
    pub idle_power: f64,
    /// The bottom-up model.
    pub bu: BottomUpModel,
    /// All four models (TD_Micro, TD_Random, TD_SPEC, BU) for the comparison figures.
    pub models: Vec<Box<dyn PowerModel>>,
}

/// The artifacts of the instruction-taxonomy case study (Table 3).
pub struct TaxonomyStudy {
    /// Raw per-instruction bootstrap records.
    pub records: Vec<BootstrapRecord>,
    /// The bootstrapped property table (used by the stressmark heuristic).
    pub props: InstrPropsTable,
    /// The assembled taxonomy.
    pub table: Table3,
}

/// The artifacts of the max-power stressmark case study (Figure 9).
pub struct StressmarkStudy {
    /// The normalised Figure 9 report.
    pub report: Figure9Report,
    /// Power spread (max/min ratio) inside the Expert-DSE set: the paper's observation
    /// that instruction order alone changes power considerably.
    pub order_spread: f64,
}

/// The experiment driver.
///
/// All measurement flows through one memoizing [`ExperimentSession`], so a process that
/// regenerates several figures (e.g. `reproduce_all`) measures each unique
/// `(benchmark, configuration)` pair exactly once.
pub struct Experiments {
    session: ExperimentSession<SimPlatform>,
    scale: ExperimentScale,
}

impl Experiments {
    /// Creates a driver at the given scale, backed by the simulated POWER7 platform.
    pub fn new(scale: ExperimentScale) -> Self {
        Self::on_backend("power7", scale).expect("the power7 machine spec is embedded")
    }

    /// Creates a driver at the given scale on a named spec-loaded backend (any name
    /// from [`mp_uarch::backend_names`]); the whole pipeline — training, modeling,
    /// taxonomy, stressmark search — then runs against that machine description.
    ///
    /// The session reads `MP_THREADS` and `MP_STORE_DIR` from the environment
    /// ([`ExperimentSession::new`]).
    ///
    /// Returns `None` for an unknown backend name.
    pub fn on_backend(backend: &str, scale: ExperimentScale) -> Option<Self> {
        let uarch = mp_uarch::backend(backend)?;
        let sim = ChipSim::new(uarch).with_options(scale.sim_options());
        let session = ExperimentSession::new(SimPlatform::new(sim));
        Some(Self { session, scale })
    }

    /// The platform used for all measurements.
    pub fn platform(&self) -> &SimPlatform {
        self.session.platform()
    }

    /// The memoizing measurement session behind every experiment.
    pub fn session(&self) -> &ExperimentSession<SimPlatform> {
        &self.session
    }

    /// The CMP-SMT configurations evaluated at this scale: the scale's core counts
    /// (clamped to the backend's) crossed with every SMT mode the machine description
    /// lists — SMT1/2/4 on POWER7, up to SMT8 on a POWER8-like backend.
    pub fn configs(&self) -> Vec<CmpSmtConfig> {
        let uarch = self.platform().uarch();
        let mut configs = Vec::new();
        for cores in self.scale.cores() {
            if cores > uarch.max_cores {
                continue;
            }
            for &smt in &uarch.smt_modes {
                configs.push(CmpSmtConfig::new(cores, smt));
            }
        }
        configs
    }

    // ----------------------------------------------------------------- shared studies

    /// Generates the training suite that Table 2 summarises and the models train on.
    fn training_suite(&self) -> TrainingSuite {
        let _span = mp_telemetry::span("exp.training_suite");
        TrainingSuite::generate(
            self.platform().uarch(),
            TrainingOptions::reduced(self.scale.training_scale(), self.scale.loop_instructions()),
        )
        .expect("training suite generation is infallible for the built-in families")
    }

    /// Generates and measures everything the power-model figures need, and trains the
    /// four models.
    pub fn model_study(&self) -> ModelStudy {
        self.model_study_of(&self.training_suite())
    }

    /// [`Self::model_study`] over an already generated training suite.
    fn model_study_of(&self, suite: &TrainingSuite) -> ModelStudy {
        let _span = mp_telemetry::span("exp.model_study");
        let arch = self.platform().uarch().clone();
        let loop_len = self.scale.loop_instructions();

        // Micro-architecture aware benchmarks are only needed on the single-core
        // configurations (methodology steps 1 and 2); random benchmarks run everywhere.
        let micro: Vec<MeasuredBenchmark> = suite
            .benchmarks()
            .iter()
            .filter(|tb| !tb.family.is_random())
            .map(|tb| {
                MeasuredBenchmark::new(
                    tb.benchmark.name().to_owned(),
                    tb.benchmark.clone(),
                    SampleKind::MicroArch,
                )
            })
            .collect();
        let random: Vec<MeasuredBenchmark> = suite
            .benchmarks()
            .iter()
            .filter(|tb| tb.family.is_random())
            .map(|tb| {
                MeasuredBenchmark::new(
                    tb.benchmark.name().to_owned(),
                    tb.benchmark.clone(),
                    SampleKind::Random,
                )
            })
            .collect();

        // The bottom-up methodology only consumes the single-core micro-architecture
        // samples (steps 1 and 2), but the TD_Micro comparison model is trained on the
        // same inputs across all configurations, so the micro benchmarks are measured on
        // every evaluated configuration too (as in the paper's model comparison).
        let all_configs = self.configs();

        let mut training = TrainingSet::new();
        training.extend(self.session.run(&measurement_plan(&micro, &all_configs)));
        training.extend(self.session.run(&measurement_plan(&random, &all_configs)));

        // SPEC proxies and extreme cases over every evaluated configuration.
        let spec_benchmarks: Vec<MeasuredBenchmark> = spec_proxies()
            .iter()
            .map(|proxy| {
                let bench = proxy
                    .generate(&arch, loop_len)
                    .expect("SPEC proxy profiles generate valid benchmarks");
                MeasuredBenchmark::new(proxy.name, bench, SampleKind::Spec)
            })
            .collect();
        let spec: Vec<WorkloadSample> = self
            .session
            .run(&measurement_plan(&spec_benchmarks, &all_configs))
            .into_iter()
            .map(|(s, _)| s)
            .collect();

        let extreme_benchmarks: Vec<MeasuredBenchmark> = extreme_cases(&arch, loop_len)
            .expect("extreme cases generate")
            .into_iter()
            .map(|case| MeasuredBenchmark::new(case.name, case.benchmark, SampleKind::Extreme))
            .collect();
        let extreme: Vec<WorkloadSample> = self
            .session
            .run(&measurement_plan(&extreme_benchmarks, &all_configs))
            .into_iter()
            .map(|(s, _)| s)
            .collect();

        let idle_power = self.platform().idle_power();
        let bu = BottomUpModel::train(&training, idle_power)
            .expect("the training set covers every methodology step");

        let td_micro = TopDownModel::train("TD_Micro", training.of_kind(SampleKind::MicroArch))
            .expect("micro-architecture samples exist");
        let td_random = TopDownModel::train("TD_Random", training.of_kind(SampleKind::Random))
            .expect("random samples exist");
        let td_spec = TopDownModel::train("TD_SPEC", spec.iter()).expect("SPEC samples exist");

        let models: Vec<Box<dyn PowerModel>> =
            vec![Box::new(td_micro), Box::new(td_random), Box::new(td_spec), Box::new(bu.clone())];
        ModelStudy { training, spec, extreme, idle_power, bu, models }
    }

    /// Runs the per-instruction bootstrap (in parallel, through the session) and
    /// assembles the Table 3 taxonomy.
    pub fn taxonomy_study(&self) -> TaxonomyStudy {
        let _span = mp_telemetry::span("exp.taxonomy_study");
        let options = BootstrapOptions {
            loop_instructions: self.scale.loop_instructions().min(512),
            config: CmpSmtConfig::new(self.platform().uarch().max_cores, SmtMode::Smt1),
            include: self.scale.bootstrap_instructions(),
        };
        let (props, records) = self
            .session
            .bootstrap(options)
            .expect("bootstrap generation is infallible for the built-in ISA");
        let table = Table3::from_bootstrap(self.platform().uarch(), &records, 3);
        TaxonomyStudy { records, props, table }
    }

    /// Runs the max-power stressmark study.  `spec_max_power` is the normalisation
    /// baseline (the maximum power observed while running the SPEC proxies, from
    /// [`ModelStudy::spec`]); `props` is the bootstrapped table driving the IPC×EPI
    /// heuristic (from [`TaxonomyStudy::props`]).
    pub fn stressmark_study(
        &self,
        spec_max_power: f64,
        props: &InstrPropsTable,
    ) -> StressmarkStudy {
        let _span = mp_telemetry::span("exp.stressmark_study");
        let arch = self.platform().uarch();
        let budget = self.scale.stressmark_budget();
        let smt_modes = match self.scale {
            ExperimentScale::Quick => vec![SmtMode::Smt4],
            _ => arch.smt_modes.clone(),
        };
        // The stressmarks and the SPEC normalisation baseline must run on the same number
        // of cores, otherwise the comparison is meaningless.  The search shares the
        // driver's memoizing session, so its candidate measurements dedupe against every
        // other figure of the run.
        let cores = self.scale.cores().into_iter().max().unwrap_or(arch.max_cores);
        let search = StressmarkSearch::with_session(&self.session)
            .with_cores(cores)
            .with_loop_instructions(self.scale.loop_instructions().min(384))
            .with_smt_modes(smt_modes.clone());

        let mut report = Figure9Report::new(spec_max_power);

        // DAXPY baselines: one batch of kernel × SMT-mode jobs through the session.
        let daxpy = daxpy_kernels(arch, self.scale.loop_instructions().min(384))
            .expect("DAXPY kernels generate");
        let daxpy_jobs: Vec<(&microprobe::ir::MicroBenchmark, CmpSmtConfig)> = daxpy
            .iter()
            .flat_map(|bench| {
                smt_modes.iter().map(move |&mode| (bench, CmpSmtConfig::new(cores, mode)))
            })
            .collect();
        let daxpy_measured = self.session.measure_batch(&daxpy_jobs);
        // Pair measurements back structurally: the jobs were laid out kernel-major with
        // one entry per SMT mode, so chunking by the mode count recovers each kernel's
        // sweep regardless of how either list is built above.
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
                mp_stressmark::StressmarkResult {
                    sequence: vec![bench.name().to_owned()],
                    power: best_power,
                    ipc: best_ipc,
                    best_mode,
                }
            })
            .collect();
        report.add_set("DAXPY", &daxpy_results);

        // Expert manual set.
        let manual =
            search.evaluate_set(&expert_manual_set(arch)).expect("expert sequences generate");
        report.add_set("Expert manual", &manual);

        // Expert DSE set (budget-limited outside the full scale).
        let mut expert_candidates = expert_dse_sequences(arch);
        if let Some(budget) = budget {
            expert_candidates.truncate(budget);
        }
        let expert_results =
            search.evaluate_set(&expert_candidates).expect("expert DSE sequences generate");
        let max_dse = expert_results.iter().map(|r| r.power).fold(f64::NEG_INFINITY, f64::max);
        let min_dse = expert_results.iter().map(|r| r.power).fold(f64::INFINITY, f64::min);
        report.add_set("Expert DSE", &expert_results);

        // MicroProbe set: instructions selected by the IPC×EPI heuristic.
        let mut heuristic_candidates = microprobe_sequences(arch, props);
        if heuristic_candidates.is_empty() {
            heuristic_candidates = expert_dse_sequences(arch);
        }
        if let Some(budget) = budget {
            heuristic_candidates.truncate(budget);
        }
        let heuristic_results =
            search.evaluate_set(&heuristic_candidates).expect("heuristic sequences generate");
        report.add_set("MicroProbe", &heuristic_results);

        StressmarkStudy { report, order_spread: max_dse / min_dse }
    }

    // --------------------------------------------------------------------- the figures

    /// Table 2: the generated training suite summary.
    pub fn table2(&self) -> String {
        Self::table2_of(&self.training_suite())
    }

    /// [`Self::table2`] over an already generated training suite.
    fn table2_of(suite: &TrainingSuite) -> String {
        let _span = mp_telemetry::span("exp.table2");
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

    /// Figure 5a: per-SPEC-benchmark real vs predicted power with the component
    /// breakdown, on the 4-core SMT4 configuration.
    pub fn fig5a(&self, study: &ModelStudy) -> String {
        let config = CmpSmtConfig::new(
            4.min(self.scale.cores().iter().copied().max().unwrap_or(4)),
            SmtMode::Smt4,
        );
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Figure 5a — SPEC power breakdown, real vs predicted (CMP-SMT {})",
            config.label()
        );
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>9} {:>7} | {:>8} {:>8} {:>6} {:>6} {:>8}",
            "benchmark", "real", "predicted", "err%", "WI", "uncore", "CMP", "SMT", "dynamic"
        );
        for sample in study.spec.iter().filter(|s| s.config == config) {
            let breakdown = study.bu.decompose(sample);
            let predicted = breakdown.total();
            let err = 100.0 * (predicted - sample.power).abs() / sample.power;
            let _ = writeln!(
                out,
                "{:<12} {:>8.2} {:>9.2} {:>6.1}% | {:>8.2} {:>8.2} {:>6.2} {:>6.2} {:>8.2}",
                sample.name,
                sample.power,
                predicted,
                err,
                breakdown.workload_independent,
                breakdown.uncore,
                breakdown.cmp_effect,
                breakdown.smt_effect,
                breakdown.dynamic
            );
        }
        out
    }

    /// Figure 5b: PAAE of the bottom-up model per CMP-SMT configuration.
    pub fn fig5b(&self, study: &ModelStudy) -> String {
        let (per_config, mean) =
            per_config_paae(&study.bu, study.spec.iter()).expect("SPEC samples exist");
        let mut out = String::new();
        let _ = writeln!(out, "# Figure 5b — PAAE of the bottom-up model on the SPEC proxies");
        let _ = writeln!(out, "{:<8} {:>8}", "config", "PAAE%");
        for (config, value) in &per_config {
            let _ = writeln!(out, "{:<8} {:>7.2}%", config.label(), value);
        }
        let _ = writeln!(out, "{:<8} {:>7.2}%", "Mean", mean);
        out
    }

    /// Figure 6: PAAE of the four models per configuration.
    pub fn fig6(&self, study: &ModelStudy) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Figure 6 — PAAE of TD_Micro / TD_Random / TD_SPEC / BU on the SPEC proxies"
        );
        let _ = write!(out, "{:<8}", "config");
        for model in &study.models {
            let _ = write!(out, " {:>10}", model.name());
        }
        let _ = writeln!(out);
        for config in self.configs() {
            let samples: Vec<&WorkloadSample> =
                study.spec.iter().filter(|s| s.config == config).collect();
            if samples.is_empty() {
                continue;
            }
            let _ = write!(out, "{:<8}", config.label());
            for model in &study.models {
                let value = paae(model.as_ref(), samples.iter().copied()).expect("non-empty");
                let _ = write!(out, " {:>9.2}%", value);
            }
            let _ = writeln!(out);
        }
        let _ = write!(out, "{:<8}", "Mean");
        for model in &study.models {
            let value = paae(model.as_ref(), study.spec.iter()).expect("non-empty");
            let _ = write!(out, " {:>9.2}%", value);
        }
        let _ = writeln!(out);
        out
    }

    /// Figure 7: PAAE of the four models on the extreme-activity cases.
    pub fn fig7(&self, study: &ModelStudy) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Figure 7 — PAAE on the extreme activity cases");
        let _ = write!(out, "{:<14}", "case");
        for model in &study.models {
            let _ = write!(out, " {:>10}", model.name());
        }
        let _ = writeln!(out);
        let mut case_names: Vec<String> = study
            .extreme
            .iter()
            .map(|s| s.name.split('-').next().unwrap_or(&s.name).to_owned())
            .collect();
        case_names.sort();
        case_names.dedup();
        for case in &case_names {
            let samples: Vec<&WorkloadSample> =
                study.extreme.iter().filter(|s| s.name.starts_with(case.as_str())).collect();
            let _ = write!(out, "{:<14}", case);
            for model in &study.models {
                let value = paae(model.as_ref(), samples.iter().copied()).expect("non-empty");
                let _ = write!(out, " {:>9.2}%", value);
            }
            let _ = writeln!(out);
        }
        let _ = write!(out, "{:<14}", "Mean");
        for model in &study.models {
            let value = paae(model.as_ref(), study.extreme.iter()).expect("non-empty");
            let _ = write!(out, " {:>9.2}%", value);
        }
        let _ = writeln!(out);
        out
    }

    /// Figure 8: average per-component power breakdown of the SPEC proxies per
    /// configuration (percentages).
    pub fn fig8(&self, study: &ModelStudy) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Figure 8 — average SPEC power breakdown per configuration (%)");
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "config", "WI", "Uncore", "CMP", "SMT", "Dynamic"
        );
        for config in self.configs() {
            let samples: Vec<&WorkloadSample> =
                study.spec.iter().filter(|s| s.config == config).collect();
            if samples.is_empty() {
                continue;
            }
            let mut acc = [0.0f64; 5];
            for sample in &samples {
                let pct = study.bu.decompose(sample).percentages();
                for (a, p) in acc.iter_mut().zip(pct) {
                    *a += p;
                }
            }
            for a in &mut acc {
                *a /= samples.len() as f64;
            }
            let _ = writeln!(
                out,
                "{:<8} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
                config.label(),
                acc[0],
                acc[1],
                acc[2],
                acc[3],
                acc[4]
            );
        }
        out
    }

    /// Table 3: the EPI-based instruction taxonomy.
    pub fn table3(&self, study: &TaxonomyStudy) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Table 3 — EPI-based instruction taxonomy (8-core SMT1)");
        out.push_str(&study.table.to_table());
        let _ = writeln!(
            out,
            "max intra-category EPI spread: {:.0}%",
            study.table.max_category_spread() * 100.0
        );
        out
    }

    /// Figure 9: the max-power stressmark comparison.
    pub fn fig9(&self, study: &StressmarkStudy) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Figure 9 — max-power stressmarks, normalised to the SPEC maximum");
        out.push_str(&study.report.to_table());
        if let Some(best) = study.report.best() {
            let _ = writeln!(
                out,
                "best set: {} exceeds the SPEC maximum by {:.1}%",
                best.set,
                (best.max - 1.0) * 100.0
            );
        }
        let _ = writeln!(
            out,
            "instruction-order power spread within the Expert DSE set: {:.1}%",
            (study.order_spread - 1.0) * 100.0
        );
        out
    }

    /// Runs every experiment and concatenates the reports.
    pub fn run_all(&self) -> String {
        let _span = mp_telemetry::span("exp.run_all");
        let mut out = String::new();
        let suite = self.training_suite();
        out.push_str(&Self::table2_of(&suite));
        out.push('\n');
        let model_study = self.model_study_of(&suite);
        // At full scale the suite's kernels are large; free them before the other studies.
        drop(suite);
        out.push_str(&self.fig5a(&model_study));
        out.push('\n');
        out.push_str(&self.fig5b(&model_study));
        out.push('\n');
        out.push_str(&self.fig6(&model_study));
        out.push('\n');
        out.push_str(&self.fig7(&model_study));
        out.push('\n');
        out.push_str(&self.fig8(&model_study));
        out.push('\n');
        let taxonomy = self.taxonomy_study();
        out.push_str(&self.table3(&taxonomy));
        out.push('\n');
        let spec_max = model_study.spec.iter().map(|s| s.power).fold(f64::NEG_INFINITY, f64::max);
        let stressmark = self.stressmark_study(spec_max, &taxonomy.props);
        out.push_str(&self.fig9(&stressmark));
        out.push('\n');
        // Deliberately omits the worker count: run_all output must stay byte-identical
        // across MP_THREADS settings (the summary line is scheduling-independent).
        let _ = writeln!(out, "{}", self.session.stats().summary_line());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::ExperimentScale;

    #[test]
    fn scale_names_parse_and_unknown_names_are_rejected() {
        for (arg, scale) in [
            (None, ExperimentScale::Standard),
            (Some("quick"), ExperimentScale::Quick),
            (Some("QUICK"), ExperimentScale::Quick),
            (Some("standard"), ExperimentScale::Standard),
            (Some("std"), ExperimentScale::Standard),
            (Some("full"), ExperimentScale::Full),
        ] {
            assert_eq!(ExperimentScale::from_arg(arg), Ok(scale), "{arg:?}");
        }
        for arg in ["quik", "", "fast", "quick "] {
            assert_eq!(ExperimentScale::from_arg(Some(arg)), Err(format!("unknown scale `{arg}`")));
        }
    }
}
