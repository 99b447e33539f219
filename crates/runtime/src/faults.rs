//! Deterministic fault injection for the measurement runtime.
//!
//! Nothing in a deterministic simulator exercises failure paths by accident, so this
//! module makes failure a *first-class, reproducible input*: a seeded [`FaultPlan`]
//! (from the `MP_FAULTS` environment variable, or [`set_plan`] in tests) injects
//!
//! * **IO errors** into the persistent [`store`](crate::store)'s read/write syscalls
//!   (exercising the retry/degradation path),
//! * **torn writes** into store records (a record becomes visible with its tail
//!   missing, as after a crash between `rename` and the data reaching the platter),
//! * **panics** into simulation jobs (exercising
//!   [`measure_batch_resilient`](crate::ExperimentSession::measure_batch_resilient)
//!   and the executor's poison-free recovery), and
//! * **delays** into executor tasks (exercising scheduling paths that only show up
//!   when workers finish out of order).
//!
//! Every decision is a pure function of `(seed, site, occurrence index)` — no OS
//! entropy, no clocks — so a failure observed in CI is replayed exactly by running the
//! same binary with the same `MP_FAULTS` value.  Store probes and job panics are drawn
//! serially on the submitting thread in a fixed job order, so the jobs they hit are the
//! same at any `MP_THREADS`; executor delays are drawn by whichever worker claims a
//! task, so only their *set* per site is fixed — and delays never change results.
//! Injected panics carry the seed, site and occurrence index in their message for
//! exactly this reason.
//!
//! The hot-path cost when disabled is one relaxed atomic load (the same tri-state
//! gate `mp-telemetry` uses).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use crate::poison;

/// Environment variable holding the fault plan, e.g.
/// `MP_FAULTS="seed=42,io=0.2,torn=0.1,panic=0.05,delay=0.25,delay_us=200"`.
pub const FAULTS_ENV: &str = "MP_FAULTS";

/// A seeded description of which faults to inject, at what rates.
///
/// Rates are probabilities in `[0, 1]` evaluated independently per occurrence of each
/// injection site; `seed` makes the whole sequence reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the decision stream.  Same seed, same spec, same `MP_THREADS` ⇒ same
    /// injected faults.
    pub seed: u64,
    /// Probability that a store IO operation (read or write) fails with an injected
    /// `std::io::Error`.
    pub io_error: f64,
    /// Probability that a store record write is torn: the record becomes visible with
    /// a deterministic prefix of its bytes only.
    pub torn_write: f64,
    /// Probability that a simulation job panics instead of measuring.
    pub job_panic: f64,
    /// Probability that an executor task is delayed by [`delay_us`](Self::delay_us)
    /// before running.
    pub task_delay: f64,
    /// Injected delay per delayed task, in microseconds.
    pub delay_us: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            io_error: 0.0,
            torn_write: 0.0,
            job_panic: 0.0,
            task_delay: 0.0,
            delay_us: 100,
        }
    }
}

impl FaultPlan {
    /// Parses an `MP_FAULTS` spec: a comma-separated `key=value` list with keys
    /// `seed`, `io`, `torn`, `panic`, `delay` (rates as fractions) and `delay_us`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry — unknown keys are errors so
    /// a typo can never silently disable the fault it meant to enable.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) =
                entry.split_once('=').ok_or_else(|| format!("`{entry}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let rate = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| format!("`{key}={v}` is not a rate in [0, 1]"))
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("`seed={value}` is not an unsigned integer"))?;
                }
                "io" => plan.io_error = rate(value)?,
                "torn" => plan.torn_write = rate(value)?,
                "panic" => plan.job_panic = rate(value)?,
                "delay" => plan.task_delay = rate(value)?,
                "delay_us" => {
                    plan.delay_us = value
                        .parse()
                        .map_err(|_| format!("`delay_us={value}` is not an unsigned integer"))?;
                }
                _ => return Err(format!("unknown fault key `{key}`")),
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects anything at all.
    pub fn injects_anything(&self) -> bool {
        self.io_error > 0.0
            || self.torn_write > 0.0
            || self.job_panic > 0.0
            || self.task_delay > 0.0
    }
}

/// Tri-state gate mirroring `mp_telemetry`: 0 = uninitialised, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// The active plan plus one occurrence counter per injection site.
struct Injector {
    plan: FaultPlan,
    occurrences: HashMap<&'static str, u64>,
}

static INJECTOR: Mutex<Option<Injector>> = Mutex::new(None);

/// Whether fault injection is active.  One relaxed atomic load when off.
#[inline]
pub fn active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let plan = env_plan();
    set_plan(plan);
    plan.is_some()
}

/// Parses [`FAULTS_ENV`] fresh (ignoring any [`set_plan`] override).  A malformed
/// value is a warning and no injection — but the warning names the error, so a typo'd
/// CI job fails its `MP_FAULTS`-sensitive assertions loudly rather than silently
/// testing nothing.
pub fn env_plan() -> Option<FaultPlan> {
    let spec = std::env::var(FAULTS_ENV).ok()?;
    if spec.trim().is_empty() {
        return None;
    }
    match FaultPlan::parse(&spec) {
        Ok(plan) => Some(plan),
        Err(error) => {
            eprintln!("mp-runtime: ignoring malformed {FAULTS_ENV}={spec:?}: {error}");
            None
        }
    }
}

/// Installs (or clears) the fault plan for this process, resetting every site's
/// occurrence counter.  Overrides `MP_FAULTS`; tests use this to run specific plans
/// and restore the ambient one afterwards (see [`plan`]).
pub fn set_plan(plan: Option<FaultPlan>) {
    let mut injector = poison::lock(&INJECTOR);
    *injector = plan.map(|plan| Injector { plan, occurrences: HashMap::new() });
    STATE.store(if injector.is_some() { 2 } else { 1 }, Ordering::Relaxed);
}

/// The currently active plan (initialised from the environment on first use).
pub fn plan() -> Option<FaultPlan> {
    active();
    poison::lock(&INJECTOR).as_ref().map(|injector| injector.plan)
}

/// SplitMix64 — the standard 64-bit finalizer; full avalanche, so consecutive
/// occurrence indices give independent-looking decisions.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// FNV-1a over a site name, folding it into the decision stream.
fn site_hash(site: &str) -> u64 {
    site.bytes().fold(0xcbf29ce484222325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// One deterministic decision: did occurrence `n` of `site` fire under `rate`?
/// Returns the raw hash too, so callers can derive secondary choices (e.g. the torn
/// truncation offset) from the same draw.
fn decide(seed: u64, site: &str, n: u64, rate: f64) -> (bool, u64) {
    let h = mix(seed ^ site_hash(site) ^ n.wrapping_mul(0x2545F4914F6CDD1D));
    // Top 53 bits → uniform in [0, 1) with full f64 precision.
    let uniform = (h >> 11) as f64 / (1u64 << 53) as f64;
    (uniform < rate, h)
}

/// Draws the next occurrence for `site` and applies `pick` to the plan while the
/// injector lock is held (kept private so the lock never guards caller code).
fn draw(site: &'static str, pick: impl Fn(&FaultPlan) -> f64) -> Option<(bool, u64)> {
    if !active() {
        return None;
    }
    let mut injector = poison::lock(&INJECTOR);
    let injector = injector.as_mut()?;
    let rate = pick(&injector.plan);
    if rate <= 0.0 {
        return None;
    }
    let n = injector.occurrences.entry(site).or_insert(0);
    let occurrence = *n;
    *n += 1;
    Some(decide(injector.plan.seed, site, occurrence, rate))
}

/// Injects a transient IO error for `site`, or `None` this occurrence.
pub fn io_error(site: &'static str) -> Option<std::io::Error> {
    match draw(site, |p| p.io_error) {
        Some((true, _)) => {
            mp_telemetry::counter("faults.io_error", 1);
            Some(std::io::Error::other(format!("injected IO error at {site}")))
        }
        _ => None,
    }
}

/// Returns the number of bytes of a `len`-byte record that survive a torn write at
/// `site`, or `None` when the write is whole.  The truncation offset is derived from
/// the decision hash, so it is reproducible and sweeps the record over occurrences.
pub fn torn_write(site: &'static str, len: usize) -> Option<usize> {
    match draw(site, |p| p.torn_write) {
        Some((true, hash)) if len > 0 => {
            mp_telemetry::counter("faults.torn_write", 1);
            Some((mix(hash) % len as u64) as usize)
        }
        _ => None,
    }
}

/// Draws whether this occurrence of `site` panics, returning the message to panic
/// with, which names the seed and the site to replay it from.  The caller raises it:
/// drawing apart from raising lets a caller draw on one thread in a fixed order, so
/// which job fails does not depend on how its workers are scheduled.
pub fn injected_panic(site: &'static str) -> Option<String> {
    match draw(site, |p| p.job_panic) {
        Some((true, _)) => {
            let seed = plan().map(|p| p.seed).unwrap_or(0);
            mp_telemetry::counter("faults.panic", 1);
            Some(format!("injected fault: panic at {site} (MP_FAULTS seed={seed})"))
        }
        _ => None,
    }
}

/// Sleeps the plan's delay at `site` if this occurrence is selected.  Delays reorder
/// scheduling only — they can never change results, which is exactly what the
/// determinism suites verify when run under a delay plan.
pub fn maybe_delay(site: &'static str) {
    if let Some((true, _)) = draw(site, |p| p.task_delay) {
        let delay_us = plan().map(|p| p.delay_us).unwrap_or(0);
        mp_telemetry::counter("faults.delay", 1);
        std::thread::sleep(std::time::Duration::from_micros(delay_us));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The injector is process-global: tests that install plans must not interleave
    /// with each other, nor with tests that measure through a session.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parses_a_full_spec() {
        let plan = FaultPlan::parse("seed=42, io=0.2,torn=0.1,panic=0.05,delay=0.25,delay_us=200")
            .expect("valid spec");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.io_error, 0.2);
        assert_eq!(plan.torn_write, 0.1);
        assert_eq!(plan.job_panic, 0.05);
        assert_eq!(plan.task_delay, 0.25);
        assert_eq!(plan.delay_us, 200);
        assert!(plan.injects_anything());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("io").is_err(), "missing value");
        assert!(FaultPlan::parse("io=2.0").is_err(), "rate beyond 1");
        assert!(FaultPlan::parse("io=-0.1").is_err(), "negative rate");
        assert!(FaultPlan::parse("seed=abc").is_err(), "non-integer seed");
        assert!(FaultPlan::parse("oi=0.5").is_err(), "unknown key");
        assert!(!FaultPlan::parse("seed=7").expect("seed alone is valid").injects_anything());
    }

    #[test]
    fn decisions_are_deterministic_per_seed_site_and_occurrence() {
        let sequence = |seed: u64| -> Vec<bool> {
            (0..64).map(|n| decide(seed, "store.write", n, 0.3).0).collect()
        };
        assert_eq!(sequence(7), sequence(7), "same seed, same stream");
        assert_ne!(sequence(7), sequence(8), "different seeds diverge");
        let fired = sequence(7).iter().filter(|&&f| f).count();
        assert!((5..=25).contains(&fired), "rate 0.3 over 64 draws fired {fired} times");
        // Sites are independent streams.
        let other: Vec<bool> = (0..64).map(|n| decide(7, "store.read", n, 0.3).0).collect();
        assert_ne!(sequence(7), other);
    }

    #[test]
    fn injected_faults_replay_after_a_plan_reset() {
        let _guard = serial();
        let ambient = plan();
        let run = || -> (Vec<bool>, Vec<Option<usize>>) {
            set_plan(Some(FaultPlan {
                seed: 99,
                io_error: 0.5,
                torn_write: 0.5,
                ..FaultPlan::default()
            }));
            let ios = (0..32).map(|_| io_error("test.io").is_some()).collect();
            let tears = (0..32).map(|_| torn_write("test.torn", 100)).collect();
            (ios, tears)
        };
        let first = run();
        let second = run();
        set_plan(ambient);
        assert_eq!(first, second, "resetting the plan replays the identical fault stream");
        assert!(first.0.iter().any(|&f| f) && first.0.iter().any(|&f| !f));
    }

    #[test]
    fn zero_rates_never_fire_and_disabled_is_silent() {
        let _guard = serial();
        let ambient = plan();
        set_plan(Some(FaultPlan { seed: 1, ..FaultPlan::default() }));
        for _ in 0..16 {
            assert!(io_error("test.zero").is_none());
            assert!(torn_write("test.zero", 10).is_none());
            assert!(injected_panic("test.zero").is_none());
            maybe_delay("test.zero");
        }
        set_plan(None);
        assert!(!active());
        assert!(io_error("test.off").is_none());
        set_plan(ambient);
    }

    #[test]
    fn injected_panic_names_its_seed_and_site() {
        let _guard = serial();
        let ambient = plan();
        set_plan(Some(FaultPlan { seed: 31337, job_panic: 1.0, ..FaultPlan::default() }));
        let message = injected_panic("test.panic").expect("rate 1.0 always panics");
        set_plan(ambient);
        assert!(message.contains("test.panic"), "{message}");
        assert!(message.contains("seed=31337"), "{message}");
    }
}
