//! End-to-end and per-layer benchmark of the paper pipeline.
//!
//! ```text
//! cargo run --release -q --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <paper_cold|paper_warm_store|maxpower_ga|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--holdout]
//! cargo run --release -q --manifest-path e2e_bench/Cargo.toml -- --pin
//! ```
//!
//! Run from the repository root: the benchmark's scratch files go to `.bench_out/`.
//! Each workload is a closed loop of back-to-back passes in this one process; the last
//! stdout line is a JSON object with the metrics.  `--trace 1` alternates untraced and
//! traced passes and reports per-layer metrics instead.  `--holdout` runs `maxpower_ga`
//! on the held-out GA seed only.  `--pin` rewrites the references under `refs/`.
//! `BENCH.md` describes the workloads and metrics.

mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use microprobe::dse::{GeneticSearch, SearchResult};
use microprobe::platform::{Platform, SimPlatform};
use mp_bench::{ExperimentScale, Experiments};
use mp_runtime::{ExperimentSession, SessionOptions, SessionStats, STORE_DIR_ENV, THREADS_ENV};
use mp_sim::{ChipSim, SimOptions, UncoreMode};
use mp_stressmark::{SequenceCandidate, StressmarkSearch};

use trace::PassTrace;

const WORKLOADS: [&str; 3] = ["paper_cold", "paper_warm_store", "maxpower_ga"];

/// The `reproduce_all quick` report both `paper_*` workloads must print.
const PAPER_REFERENCE: &str = include_str!("../refs/paper_quick.txt");
/// The pinned simulated work of one cold paper pass: `sims=<n> thread_cycles=<n>`.
const PAPER_WORK: &str = include_str!("../refs/paper_quick.work");
/// One line per pinned GA seed (see [`ga_line`]), ending in `thread_cycles=<n>`.
const GA_REFERENCE: &str = include_str!("../refs/maxpower_ga.txt");

/// Timed runs rotate through GA seeds `1..=GA_SEEDS`; [`HOLDOUT_GA_SEED`] is pinned too
/// but only runs under `--holdout`, so claims can be checked on a seed nobody tuned on.
const GA_SEEDS: u64 = 16;
const HOLDOUT_GA_SEED: u64 = 17;
/// The GA workload: 4 cores, 96-instruction loops, population 16 over 20 generations.
const GA_CORES: u32 = 4;
const GA_LOOP: usize = 96;
const GA_POPULATION: usize = 16;
const GA_GENERATIONS: usize = 20;

/// Extra processes that only set up, so `setup_s` is a median of several set-ups.
const SETUP_PROBES: usize = 14;
/// Scratch directory (stores, trace files), relative to the working directory.
const OUT_DIR: &str = ".bench_out";

const END_TO_END: [(&str, &str); 5] = [
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

const PER_LAYER: [(&str, &str); 44] = [
    ("spec.load_s", "s"),
    ("synth.benchmarks", "count"),
    ("synth.s", "s"),
    ("synth.us_per_benchmark", "us"),
    ("session.submitted", "count"),
    ("session.unique", "count"),
    ("session.hits", "count"),
    ("session.hit_ratio", "ratio"),
    ("session.key_s", "s"),
    ("session.key_us_per_job", "us"),
    ("store.hits", "count"),
    ("store.quarantined", "count"),
    ("store.load_s", "s"),
    ("store.load_us_per_record", "us"),
    ("store.save_us_per_record", "us"),
    ("executor.busy_s", "s"),
    ("executor.batch_wall_s", "s"),
    ("executor.idle_s", "s"),
    ("executor.utilization", "ratio"),
    ("sim.runs", "count"),
    ("sim.thread_mcycles", "Mcycles"),
    ("sim.s", "s"),
    ("sim.ns_per_thread_cycle", "ns"),
    ("sim.ns_per_thread_cycle.smt1", "ns"),
    ("sim.ns_per_thread_cycle.smt2", "ns"),
    ("sim.ns_per_thread_cycle.smt4", "ns"),
    ("sim.ns_per_thread_cycle.smt8", "ns"),
    ("sim.decode_s", "s"),
    ("sim.warmup_s", "s"),
    ("sim.cycle_loop_s", "s"),
    ("model.train_s", "s"),
    ("model.eval_s", "s"),
    ("dse.evaluations", "count"),
    ("dse.unique_ratio", "ratio"),
    ("dse.s", "s"),
    ("exp.table2_s", "s"),
    ("exp.model_study_s", "s"),
    ("exp.taxonomy_study_s", "s"),
    ("exp.stressmark_study_s", "s"),
    ("exp.render_s", "s"),
    ("trace_overhead_pct", "%"),
    ("run_s.traced", "s"),
    ("run_s.untraced", "s"),
    ("passes.traced", "count"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperCold,
    PaperWarmStore,
    MaxpowerGa,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_cold" => Some(Self::PaperCold),
            "paper_warm_store" => Some(Self::PaperWarmStore),
            "maxpower_ga" => Some(Self::MaxpowerGa),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::PaperCold => "paper_cold",
            Self::PaperWarmStore => "paper_warm_store",
            Self::MaxpowerGa => "maxpower_ga",
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    holdout: bool,
    pin: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        holdout: false,
        pin: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--holdout" => args.holdout = true,
            "--pin" => args.pin = true,
            "--setup-probe" => args.setup_probe = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let bad = || format!("bad value for {flag}: {value}");
                match flag.as_str() {
                    "--workload" => args.workload = value.clone(),
                    "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                    "--seconds" => {
                        args.seconds = value.parse().map_err(|_| bad())?;
                        if !args.seconds.is_finite() || args.seconds <= 0.0 {
                            return Err(bad());
                        }
                    }
                    _ => {
                        args.trace = match value.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(bad()),
                        }
                    }
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Environment variables that silently change what runs (a daemon client, injected
/// faults, telemetry, an existing store, executor tuning, bench snapshots).
fn refuse_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| {
            key == "MP_SERVICE_ADDR"
                || key == "MP_FAULTS"
                || key == STORE_DIR_ENV
                || key.starts_with("MP_TELEMETRY")
                || key.starts_with("MP_PAR_")
                || key.starts_with("MP_BENCH_")
        })
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to start: {} set in the environment changes what runs",
            set.join(", ")
        ))
    }
}

/// A scratch directory under [`OUT_DIR`], removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let path = Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("the scratch directory can be created");
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The pinned simulated work of a paper pass.
struct PaperWork {
    sims: u64,
    thread_cycles: u64,
}

fn field<'s>(line: &'s str, key: &str) -> Option<&'s str> {
    line.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

fn paper_work() -> PaperWork {
    let parse = |key| {
        field(PAPER_WORK, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("refs/paper_quick.work has no {key}"))
    };
    PaperWork { sims: parse("sims"), thread_cycles: parse("thread_cycles") }
}

/// The pinned reference line of a GA seed, split into the search part and its work.
fn ga_reference(seed: u64) -> Option<(&'static str, u64)> {
    let prefix = format!("seed={seed} ");
    let line = GA_REFERENCE.lines().find(|line| line.starts_with(&prefix))?;
    let (result, work) = line.rsplit_once(" thread_cycles=")?;
    Some((result, work.parse().ok()?))
}

/// FNV-1a over the bit patterns of a score history.
fn history_digest(history: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in history.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The pinned form of one GA search.
fn ga_line(
    seed: u64,
    result: &SearchResult<SequenceCandidate>,
    stats: SessionStats,
    platform: &SimPlatform,
) -> String {
    let isa = &platform.uarch().isa;
    let best: Vec<&str> = result.best.iter().map(|op| isa.def(*op).mnemonic()).collect();
    format!(
        "seed={seed} best={} score={:016x} history={:016x} evaluations={} failures={} \
         submitted={} unique={}",
        best.join(","),
        result.best_score.to_bits(),
        history_digest(&result.history),
        result.evaluations,
        result.failures,
        stats.submitted,
        stats.misses,
    )
}

fn ga_driver(seed: u64) -> GeneticSearch {
    GeneticSearch::new(GA_POPULATION, GA_GENERATIONS).with_seed(seed)
}

fn session_options(workers: usize) -> SessionOptions {
    SessionOptions { workers: Some(workers), store_dir: None }
}

/// What a workload's passes run on, built during set-up.
struct Bench {
    workload: Workload,
    workers: usize,
    seed: u64,
    holdout: bool,
    /// The machine every pass simulates: POWER7 for the paper, POWER8 for the GA.
    platform: SimPlatform,
    /// The driver traced paper passes render figures with.
    experiments: Option<Experiments>,
    /// `paper_warm_store`'s store (dropped last: removes the directory).
    store: Option<ScratchDir>,
}

impl Bench {
    /// Set-up: the first `mp_uarch::backend` call (spec parse and build), platform and
    /// session construction, and opening the store.
    fn setup(workload: Workload, workers: usize, seed: u64, holdout: bool) -> Self {
        let (platform, experiments, store) = match workload {
            Workload::PaperCold | Workload::PaperWarmStore => {
                let store = (workload == Workload::PaperWarmStore).then(|| {
                    let dir = ScratchDir::new("store");
                    std::env::set_var(STORE_DIR_ENV, dir.path());
                    dir
                });
                let experiments = Experiments::new(ExperimentScale::Quick);
                (experiments.platform().clone(), Some(experiments), store)
            }
            Workload::MaxpowerGa => {
                let uarch = mp_uarch::backend("power8").expect("power8 is embedded");
                let options = SimOptions {
                    uncore_mode: UncoreMode::Shared,
                    ..ExperimentScale::Quick.sim_options()
                };
                let platform = SimPlatform::new(ChipSim::new(uarch).with_options(options));
                drop(ExperimentSession::with_options(&platform, session_options(workers)));
                (platform, None, None)
            }
        };
        Self { workload, workers, seed, holdout, platform, experiments, store }
    }

    fn ga_seed(&self, pass: usize) -> u64 {
        if self.holdout {
            HOLDOUT_GA_SEED
        } else {
            1 + (self.seed.wrapping_add(pass as u64)) % GA_SEEDS
        }
    }

    /// One untraced pass; returns the simulated thread-cycles whose results it delivered.
    fn pass(&self, index: usize) -> Result<u64, String> {
        match self.workload {
            Workload::PaperCold | Workload::PaperWarmStore => {
                let experiments = Experiments::new(ExperimentScale::Quick);
                let report = experiments.run_all();
                check_paper(&report)?;
                let work = paper_work();
                if let Some(store) = experiments.session().store() {
                    let stats = store.stats();
                    if stats.quarantined > 0 {
                        return Err(format!("{} store records quarantined", stats.quarantined));
                    }
                    if stats.hits != work.sims {
                        return Err(format!(
                            "{} of {} jobs came from the store",
                            stats.hits, work.sims
                        ));
                    }
                }
                Ok(work.thread_cycles)
            }
            Workload::MaxpowerGa => {
                let seed = self.ga_seed(index);
                let session =
                    ExperimentSession::with_options(&self.platform, session_options(self.workers));
                let search = StressmarkSearch::with_session(&session)
                    .with_cores(GA_CORES)
                    .with_loop_instructions(GA_LOOP);
                let pool = mp_stressmark::sets::expert_instructions(self.platform.uarch());
                let result = search.genetic(&ga_driver(seed), &pool);
                check_ga(seed, &ga_line(seed, &result, session.stats(), &self.platform), None)
            }
        }
    }

    /// One traced pass on the same input as untraced pass `index`; returns its wall
    /// seconds.  `save_keys` receives the job keys of a paper pass.
    fn traced_pass(
        &self,
        index: usize,
        tr: &PassTrace,
        save_keys: &mut Vec<u128>,
    ) -> Result<f64, String> {
        match self.workload {
            Workload::PaperCold | Workload::PaperWarmStore => {
                let experiments = self.experiments.as_ref().expect("paper workloads keep a driver");
                let store = self.store.as_ref().map(ScratchDir::path);
                let (report, wall, keys) =
                    trace::paper_pass(tr, experiments, &self.platform, self.workers, store);
                check_paper(&report)?;
                *save_keys = keys;
                let m = tr.metrics();
                // A cold pass runs exactly the pinned simulations; a warm one runs none.
                let work = if store.is_some() {
                    PaperWork { sims: 0, thread_cycles: 0 }
                } else {
                    paper_work()
                };
                check_count(
                    "sim.thread_mcycles",
                    m["sim.thread_mcycles"] * 1e6,
                    work.thread_cycles as f64,
                )?;
                check_count("sim.runs", m["sim.runs"], work.sims as f64)?;
                check_count(
                    "store.quarantined",
                    m.get("store.quarantined").copied().unwrap_or(0.0),
                    0.0,
                )?;
                Ok(wall)
            }
            Workload::MaxpowerGa => {
                let seed = self.ga_seed(index);
                let (result, stats, wall) = trace::ga_pass(
                    tr,
                    &self.platform,
                    self.workers,
                    &ga_driver(seed),
                    GA_CORES,
                    GA_LOOP,
                );
                let cycles = tr.metrics()["sim.thread_mcycles"] * 1e6;
                check_ga(seed, &ga_line(seed, &result, stats, &self.platform), Some(cycles))?;
                Ok(wall)
            }
        }
    }
}

fn check_paper(report: &str) -> Result<(), String> {
    if report == PAPER_REFERENCE {
        return Ok(());
    }
    let line = report
        .lines()
        .zip(PAPER_REFERENCE.lines())
        .position(|(a, b)| a != b)
        .map_or_else(|| "length".to_owned(), |i| format!("line {}", i + 1));
    Err(format!("the report differs from refs/paper_quick.txt ({line})"))
}

/// Checks a GA result line (and, when traced, its simulated thread-cycles) against the
/// reference; returns the pinned thread-cycles.
fn check_ga(seed: u64, line: &str, traced_cycles: Option<f64>) -> Result<u64, String> {
    let (reference, cycles) =
        ga_reference(seed).ok_or_else(|| format!("no reference for GA seed {seed}"))?;
    if line != reference {
        return Err(format!("GA seed {seed}: got `{line}`, expected `{reference}`"));
    }
    if let Some(traced) = traced_cycles {
        check_count("sim.thread_mcycles", traced, cycles as f64)?;
    }
    Ok(cycles)
}

fn check_count(name: &str, got: f64, expected: f64) -> Result<(), String> {
    if (got - expected).abs() < 0.5 {
        Ok(())
    } else {
        Err(format!("{name}: got {got}, pinned {expected}"))
    }
}

/// Runs `f`, turning a panic (a `JobError` re-raised by the session included) into an
/// error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_owned());
        Err(format!("panic: {message}"))
    })
}

/// Process user+sys CPU seconds (`/proc/self/stat`, in USER_HZ = 100 ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // Fields 14 and 15 of the stat line; the slice starts at field 3.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, if there are enough.
fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = sorted.len().checked_sub(11)?;
    Some((100.0 * (index + 1) as f64 / sorted.len() as f64, sorted[index]))
}

fn print_result(attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

/// Median set-up seconds over this process and [`SETUP_PROBES`] fresh processes.
fn setup_seconds(own: f64, workload: Workload) -> f64 {
    let exe = std::env::current_exe().expect("the benchmark knows its executable");
    let mut samples = vec![own];
    for _ in 0..SETUP_PROBES {
        let output = Command::new(&exe)
            .args(["--setup-probe", "--workload", workload.name()])
            .env_remove(STORE_DIR_ENV)
            .output()
            .expect("a set-up probe starts");
        let value = String::from_utf8_lossy(&output.stdout).trim().parse::<f64>();
        match value {
            Ok(seconds) if output.status.success() => samples.push(seconds),
            _ => eprintln!("a set-up probe failed: {}", String::from_utf8_lossy(&output.stderr)),
        }
    }
    median(&samples)
}

/// Untraced run: back-to-back passes for `seconds`, end-to-end metrics.
/// Returns the number of failed passes.
fn run_untraced(bench: &Bench, seconds: f64, setup_s: f64) -> usize {
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut failed = 0;
    let cpu_start = cpu_seconds();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let pass_start = Instant::now();
        let outcome = guarded(|| bench.pass(walls.len()));
        let wall = pass_start.elapsed().as_secs_f64();
        match outcome {
            Ok(thread_cycles) => rates.push(thread_cycles as f64 / 1e6 / wall),
            Err(error) => {
                failed += 1;
                eprintln!("pass {} failed: {error}", walls.len());
            }
        }
        walls.push(wall);
    }
    let cpu_s = (cpu_seconds() - cpu_start) / walls.len() as f64;
    let values = [median(&walls), cpu_s, median(&rates), peak_rss_mb(), setup_s];
    let metrics: Vec<(&str, f64, &str)> =
        END_TO_END.iter().zip(values).map(|(&(name, unit), value)| (name, value, unit)).collect();
    let shown: Vec<String> = walls.iter().take(40).map(|w| format!("{w:.3}")).collect();
    println!("passes: {} (wall s: {})", walls.len(), shown.join(" "));
    for (name, value, unit) in &metrics {
        println!("{name:<18} {value:>12.6} {unit}");
    }
    if let Some((percentile, value)) = tail(&walls) {
        println!(
            "run_s p{percentile:.0}          {value:>12.6} s (10 of {} passes beyond it)",
            walls.len()
        );
    }
    if bench.workload == Workload::PaperWarmStore {
        println!(
            "sim_mcycles_per_s counts simulated work served from the store (no pass simulates)"
        );
    }
    println!(
        "error_rate         {:>12.6} ({failed} of {} passes failed)",
        failed as f64 / walls.len() as f64,
        walls.len()
    );
    print_result(walls.len(), failed, &metrics);
    failed
}

/// The spec layer alone: parse and build the workload's machine spec, median of 5.
fn spec_load_seconds(backend: &str) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let source = mp_uarch::spec::machine_spec_source(backend).expect("backend is embedded");
            let spec = mp_uarch::spec::parse_machine(source).expect("embedded spec parses");
            let isa_text = mp_isa::spec::isa_spec_source(&spec.isa_name).expect("ISA is embedded");
            let isa = mp_isa::spec::parse_isa(isa_text).expect("embedded ISA parses");
            let digest = mp_isa::spec::spec_digest(&[isa_text, source]);
            std::hint::black_box(spec.build(isa, digest).expect("embedded spec builds"));
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Traced run: pairs of (untraced, traced) passes on the same input for `seconds`;
/// per-layer metrics are medians over the traced passes.  Returns the number of failed
/// passes.
fn run_traced(bench: &Bench, seconds: f64) -> usize {
    let backend = if bench.workload == Workload::MaxpowerGa { "power8" } else { "power7" };
    let spec_load_s = spec_load_seconds(backend);
    let epoch = Instant::now();
    let mut spans = Vec::new();
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut overheads = Vec::new();
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut save_us = 0.0;
    mp_telemetry::set_enabled(false);
    while per_pass.is_empty() || epoch.elapsed().as_secs_f64() < seconds {
        let index = per_pass.len();
        let pass_start = Instant::now();
        let untraced = guarded(|| bench.pass(index));
        let untraced_wall = pass_start.elapsed().as_secs_f64();

        let tr = PassTrace::new(epoch);
        let mut keys = Vec::new();
        mp_telemetry::reset();
        mp_telemetry::set_enabled(true);
        let traced = guarded(|| bench.traced_pass(index, &tr, &mut keys));
        mp_telemetry::set_enabled(false);
        let telemetry = mp_telemetry::snapshot();
        attempted += 2;
        for (outcome, what) in
            [(untraced.map(|_| untraced_wall), "untraced"), (traced.clone(), "traced")]
        {
            if let Err(error) = outcome {
                failed += 1;
                eprintln!("{what} pass {index} failed: {error}");
            }
        }
        let Ok(traced_wall) = traced else {
            per_pass.push(BTreeMap::new());
            continue;
        };
        if let Some(store) = bench.store.as_ref().filter(|_| save_us == 0.0) {
            let scratch = ScratchDir::new("save");
            save_us = trace::store_save_us(
                store.path(),
                scratch.path(),
                bench.platform.uarch().spec_digest,
                &keys,
            );
        }
        let mut m = tr.metrics();
        for (span, name) in [
            ("executor.task", "executor.busy_s"),
            ("sim.decode", "sim.decode_s"),
            ("sim.warmup", "sim.warmup_s"),
            ("sim.cycle_loop", "sim.cycle_loop_s"),
        ] {
            let ns = telemetry.spans.get(span).map_or(0, |s| s.durations.sum);
            m.insert(name, ns as f64 / 1e9);
        }
        let capacity =
            m.get("executor.batch_wall_s").copied().unwrap_or(0.0) * bench.workers as f64;
        m.insert("executor.idle_s", capacity - m["executor.busy_s"]);
        m.insert(
            "executor.utilization",
            if capacity > 0.0 { m["executor.busy_s"] / capacity } else { 0.0 },
        );
        m.insert("spec.load_s", spec_load_s);
        m.insert("store.save_us_per_record", save_us);
        per_pass.push(m);
        overheads.push((traced_wall / untraced_wall - 1.0) * 100.0);
        untraced_walls.push(untraced_wall);
        traced_walls.push(traced_wall);
        spans.extend(tr.take_spans());
    }
    let traced: Vec<&BTreeMap<&'static str, f64>> =
        per_pass.iter().filter(|m| !m.is_empty()).collect();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = match name {
            "trace_overhead_pct" => median(&overheads),
            "run_s.traced" => median(&traced_walls),
            "run_s.untraced" => median(&untraced_walls),
            "passes.traced" => traced.len() as f64,
            _ => median(
                &traced.iter().map(|m| m.get(name).copied().unwrap_or(0.0)).collect::<Vec<_>>(),
            ),
        };
        metrics.push((name, value, unit));
    }
    for (name, value, unit) in &metrics {
        println!("{name:<30} {value:>14.6} {unit}");
    }
    let path =
        Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", bench.workload.name(), bench.seed));
    match write_trace(&path, &spans) {
        Ok(()) => println!("trace: {} spans in {}", spans.len(), path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
    print_result(attempted, failed, &metrics);
    failed
}

/// Writes spans in the Chrome trace-event format (open in Perfetto).
fn write_trace(path: &Path, spans: &[trace::SpanRecord]) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, span) in spans.iter().enumerate() {
        let args = span.sim.map_or_else(String::new, |(config, cycles)| {
            format!(
                ", \"args\": {{\"config\": \"{}\", \"thread_cycles\": {cycles}}}",
                config.label()
            )
        });
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}{args}}}{comma}",
            span.name,
            span.tid,
            span.start_ns as f64 / 1e3,
            span.dur_ns as f64 / 1e3,
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

/// `--workload all`: every workload in its own process, one after another.
fn run_all_workloads(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its executable");
    let mut ok = true;
    for name in WORKLOADS {
        let mut command = Command::new(&exe);
        command.args(["--workload", name, "--seed", &args.seed.to_string()]);
        command.args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]);
        if args.holdout {
            command.arg("--holdout");
        }
        println!("== {name}");
        let status = command.status().expect("a workload process starts");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--pin`: records the references from untraced passes, and checks that traced passes
/// print the same while counting their simulated work.
fn pin(workers: usize) -> Result<(), String> {
    let refs = Path::new(env!("CARGO_MANIFEST_DIR")).join("refs");
    let write = |name: &str, text: &str| {
        std::fs::write(refs.join(name), text).map_err(|e| format!("writing refs/{name}: {e}"))
    };
    let epoch = Instant::now();

    let report = Experiments::new(ExperimentScale::Quick).run_all();
    let bench = Bench::setup(Workload::PaperCold, workers, 1, false);
    let tr = PassTrace::new(epoch);
    let (traced, _, _) = trace::paper_pass(
        &tr,
        bench.experiments.as_ref().expect("paper driver"),
        &bench.platform,
        workers,
        None,
    );
    if traced != report {
        return Err("the traced paper pass prints a different report".to_owned());
    }
    let m = tr.metrics();
    write("paper_quick.txt", &report)?;
    write(
        "paper_quick.work",
        &format!("sims={} thread_cycles={}\n", m["sim.runs"], m["sim.thread_mcycles"] * 1e6),
    )?;

    let bench = Bench::setup(Workload::MaxpowerGa, workers, 1, false);
    let mut lines = String::new();
    for seed in 1..=HOLDOUT_GA_SEED {
        let session = ExperimentSession::with_options(&bench.platform, session_options(workers));
        let search = StressmarkSearch::with_session(&session)
            .with_cores(GA_CORES)
            .with_loop_instructions(GA_LOOP);
        let pool = mp_stressmark::sets::expert_instructions(bench.platform.uarch());
        let result = search.genetic(&ga_driver(seed), &pool);
        let line = ga_line(seed, &result, session.stats(), &bench.platform);

        let tr = PassTrace::new(epoch);
        let (traced, stats, _) =
            trace::ga_pass(&tr, &bench.platform, workers, &ga_driver(seed), GA_CORES, GA_LOOP);
        if ga_line(seed, &traced, stats, &bench.platform) != line {
            return Err(format!("the traced GA search differs for seed {seed}"));
        }
        let cycles = tr.metrics()["sim.thread_mcycles"] * 1e6;
        println!("{line} thread_cycles={cycles}");
        lines.push_str(&format!("{line} thread_cycles={cycles}\n"));
    }
    write("maxpower_ga.txt", &lines)
}

fn main() -> ExitCode {
    let main_start = Instant::now();
    let args = match parse_args().and_then(|args| refuse_environment().map(|()| args)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("e2e_bench: {error}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var(THREADS_ENV, workers.to_string());
    if args.pin {
        return match pin(workers) {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("e2e_bench: {error}");
                ExitCode::FAILURE
            }
        };
    }
    if args.workload == "all" {
        return run_all_workloads(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("e2e_bench: --workload must be one of {} or all", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    if args.holdout && workload != Workload::MaxpowerGa {
        eprintln!("e2e_bench: --holdout applies to maxpower_ga only");
        return ExitCode::from(2);
    }

    let bench = Bench::setup(workload, workers, args.seed, args.holdout);
    let own_setup = main_start.elapsed().as_secs_f64();
    if args.setup_probe {
        println!("{own_setup}");
        return ExitCode::SUCCESS;
    }
    println!("workload: {} seed: {} workers: {workers} (nproc)", workload.name(), args.seed);

    if workload == Workload::PaperWarmStore {
        // The untimed cold pass that fills the store.
        let fill = guarded(|| {
            let experiments = Experiments::new(ExperimentScale::Quick);
            check_paper(&experiments.run_all())?;
            let writes = experiments.session().store().map_or(0, |s| s.stats().writes);
            match writes == paper_work().sims {
                true => Ok(()),
                false => Err(format!("the fill pass wrote {writes} records")),
            }
        });
        if let Err(error) = fill {
            eprintln!("e2e_bench: the store fill pass failed: {error}");
            return ExitCode::FAILURE;
        }
    }

    let failed = if args.trace {
        run_traced(&bench, args.seconds)
    } else {
        run_untraced(&bench, args.seconds, setup_seconds(own_setup, workload))
    };
    drop(bench);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
