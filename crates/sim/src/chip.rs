//! The chip-level simulator: cores + uncore + power sensor sampling.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mp_isa::spec::{fnv1a_128, FNV1A_128_OFFSET};
use mp_uarch::{CmpSmtConfig, MicroArchitecture};

use crate::core::CoreSim;
use crate::decoded::DecodedBody;
use crate::energy::{EnergyBreakdown, EnergyTables};
use crate::kernel::Kernel;
use crate::measurement::{Measurement, PowerTrace};
use crate::uncore::{UncoreMode, UncoreSim};

/// One configuration's power sensor in a family run.
struct Sensor {
    /// The sensor-noise stream, seeded per configuration exactly as a run of its own.
    rng: SmallRng,
    samples: Vec<f64>,
    window_start_energy: f64,
}

/// Options controlling a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Cycles simulated before the measurement window (caches and pipes warm up).
    pub warmup_cycles: u64,
    /// Cycles in the measurement window.
    pub measure_cycles: u64,
    /// Cycles aggregated into one power sensor sample (the "1 ms" of the paper's TPMD,
    /// scaled down to simulation time).
    pub sample_cycles: u64,
    /// Relative 1-sigma noise added to each power sample by the sensor.
    pub noise_fraction: f64,
    /// Whether the hardware next-line prefetcher is enabled.
    pub prefetch_enabled: bool,
    /// Seed for all pseudo-random behaviour (sensor noise, branch outcomes).
    pub seed: u64,
    /// Whether cores own private cache hierarchies (legacy) or share the chip-level
    /// L3 and memory port (see [`UncoreSim`](crate::uncore::UncoreSim)).
    pub uncore_mode: UncoreMode,
}

impl SimOptions {
    /// Fast options for the large experiment sweeps (shorter measurement window).
    pub fn fast() -> Self {
        Self { warmup_cycles: 2_000, measure_cycles: 6_000, ..Self::default() }
    }

    /// Checks that the options describe a runnable measurement.
    ///
    /// # Panics
    ///
    /// Panics if `measure_cycles` is zero (the average power of an empty window is
    /// 0/0) or `sample_cycles` is zero (the sensor's sample windows divide by it).
    pub fn validate(&self) {
        assert!(
            self.measure_cycles > 0,
            "SimOptions::measure_cycles must be positive: a zero-cycle measurement \
             window has no average power"
        );
        assert!(
            self.sample_cycles > 0,
            "SimOptions::sample_cycles must be positive: the power sensor aggregates \
             samples over sample_cycles-sized windows"
        );
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            warmup_cycles: 4_000,
            measure_cycles: 12_000,
            sample_cycles: 1_000,
            noise_fraction: 0.0025,
            prefetch_enabled: true,
            seed: 0x0b5e_55ed,
            uncore_mode: UncoreMode::Private,
        }
    }
}

/// The simulated CMP/SMT chip: the measurement platform of the reproduction.
///
/// # Examples
///
/// ```
/// use mp_sim::{ChipSim, Kernel};
/// use mp_uarch::{power7, CmpSmtConfig, SmtMode};
/// use mp_isa::{Instruction, Operand, RegRef};
///
/// let uarch = power7();
/// let (add, _) = uarch.isa.get("add").expect("add is defined");
/// let inst = Instruction::new(
///     &uarch.isa,
///     add,
///     vec![
///         Operand::Reg(RegRef::gpr(1)),
///         Operand::Reg(RegRef::gpr(2)),
///         Operand::Reg(RegRef::gpr(3)),
///     ],
///     None,
/// ).expect("valid operands");
/// let kernel = Kernel::new("adds", vec![inst; 64]);
///
/// let sim = ChipSim::new(uarch);
/// let m = sim.run(&kernel, CmpSmtConfig::new(1, SmtMode::Smt1));
/// assert!(m.average_power() > 0.0);
/// assert!(m.chip_ipc() > 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ChipSim {
    uarch: MicroArchitecture,
    options: SimOptions,
    /// `OpcodeId`-indexed property snapshot, built once here — the machine description
    /// is immutable after construction, and kernel pre-decoding reads it on every run.
    props: mp_uarch::OpcodePropsTable,
}

impl ChipSim {
    /// Creates a simulator for a machine description, taking the ground-truth energy
    /// parameters from the description's own spec, with default run options.
    pub fn new(uarch: MicroArchitecture) -> Self {
        let props = uarch.opcode_props();
        Self { uarch, options: SimOptions::default(), props }
    }

    /// Replaces the run options.
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// The machine description being simulated.
    pub fn uarch(&self) -> &MicroArchitecture {
        &self.uarch
    }

    /// The run options.
    pub fn options(&self) -> &SimOptions {
        &self.options
    }

    /// Runs `kernel` with one copy pinned to every hardware thread context of `config`,
    /// the deployment methodology of the paper (Section 3).
    pub fn run(&self, kernel: &Kernel, config: CmpSmtConfig) -> Measurement {
        self.run_family(kernel, &[config]).pop().expect("one configuration in, one measurement out")
    }

    /// Runs `kernel` on every hardware thread context of each configuration of a
    /// family that shares one SMT mode, returning one measurement per configuration in
    /// order.  Each measurement is bit-identical to [`run`](Self::run) on its own
    /// configuration.  With a private uncore the configurations share their core
    /// simulations: a core's trajectory does not depend on how many cores the chip has,
    /// so a sweep over core counts steps at most the largest configuration's cores (one
    /// core if the kernel never draws from the RNG), not the sum over the sweep.
    ///
    /// # Panics
    ///
    /// Panics if the configurations differ in SMT mode, or one exceeds the chip's core
    /// count.
    pub fn run_family(&self, kernel: &Kernel, configs: &[CmpSmtConfig]) -> Vec<Measurement> {
        let decoded = {
            let _span = mp_telemetry::span("sim.decode");
            [DecodedBody::decode(kernel, &self.uarch, &self.props)]
        };
        let threads = configs.iter().map(|c| c.threads() as usize).max().unwrap_or(0);
        self.run_bodies(&decoded, &vec![0; threads], configs)
    }

    /// Runs one (possibly different) kernel per hardware thread context.
    ///
    /// # Panics
    ///
    /// Panics if the number of kernels does not match `config.threads()`, or if the
    /// configuration exceeds the chip's core count.
    pub fn run_heterogeneous(&self, kernels: &[Kernel], config: CmpSmtConfig) -> Measurement {
        // Decode each *distinct* kernel once; each thread names its kernel's body.
        // Kernels are bucketed by a hash of their content encoding so a 32-thread
        // deployment does O(n) hash lookups instead of O(n²) deep `Kernel`
        // comparisons; equality inside a bucket guards against hash collisions.
        let decode_span = mp_telemetry::span("sim.decode");
        let mut seen: Vec<&Kernel> = Vec::new();
        let mut decoded: Vec<DecodedBody> = Vec::new();
        let mut by_hash: HashMap<u128, Vec<usize>> = HashMap::new();
        let mut content = Vec::new();
        let bodies: Vec<usize> = kernels
            .iter()
            .map(|kernel| {
                content.clear();
                kernel.encode_content(&mut content);
                let hash = fnv1a_128(FNV1A_128_OFFSET, &content);
                let bucket = by_hash.entry(hash).or_default();
                if let Some(&i) = bucket.iter().find(|&&i| seen[i] == kernel) {
                    return i;
                }
                bucket.push(seen.len());
                seen.push(kernel);
                decoded.push(DecodedBody::decode(kernel, &self.uarch, &self.props));
                seen.len() - 1
            })
            .collect();
        drop(decode_span);
        self.run_bodies(&decoded, &bodies, &[config])
            .pop()
            .expect("one configuration in, one measurement out")
    }

    /// The engine behind every run: measures a family of configurations that share one
    /// SMT mode, where hardware thread `t` of every configuration runs
    /// `decoded[bodies[t]]` and `bodies` covers the largest configuration.
    ///
    /// With a private uncore a core's whole trajectory depends only on its thread
    /// bodies, the SMT mode and, if one of its threads draws from the RNG, its seed
    /// `seed ^ k << 32` — not on how many cores the chip has.  So a core that draws is
    /// simulated once per index `k`, and every other core once per distinct set of
    /// bodies, shared by each index that runs it.  A shared uncore couples the cores:
    /// there every core is simulated, in one run per configuration.
    ///
    /// Each measured cycle, every configuration adds the energy logs of its cores
    /// `0..cores` in core order, then its static terms, then takes its sensor samples
    /// with its own noise RNG.  The logs are replayed core-major: core `k`'s log goes
    /// into the breakdown of every configuration with more than `k` cores, then core
    /// `k + 1`'s, which leaves each configuration's additions in the same order.  Per
    /// breakdown field that is exactly the sequence of additions of stepping each of
    /// its cores in a run of its own, so every measurement is bit-identical to one.
    fn run_bodies(
        &self,
        decoded: &[DecodedBody],
        bodies: &[usize],
        configs: &[CmpSmtConfig],
    ) -> Vec<Measurement> {
        self.options.validate();
        let Some(smt) = configs.first().map(|c| c.smt) else { return Vec::new() };
        let mut largest = 0;
        for config in configs {
            assert!(
                config.cores <= self.uarch.max_cores,
                "configuration {config} exceeds the chip's {} cores",
                self.uarch.max_cores
            );
            assert_eq!(config.smt, smt, "the configurations of a family share one SMT mode");
            largest = largest.max(config.threads() as usize);
        }
        assert_eq!(bodies.len(), largest, "one kernel per hardware thread context is required");
        let shared = self.options.uncore_mode == UncoreMode::Shared;
        if shared && configs.len() > 1 {
            return configs
                .iter()
                .flat_map(|&config| {
                    self.run_bodies(decoded, &bodies[..config.threads() as usize], &[config])
                })
                .collect();
        }

        // The simulated cores, and which of them stands for each core index.
        let tpc = smt.threads_per_core() as usize;
        let draws: Vec<bool> = decoded.iter().map(DecodedBody::draws_rng).collect();
        let mut distinct: Vec<(&[usize], Option<usize>)> = Vec::new();
        let mut cores: Vec<CoreSim> = Vec::new();
        let core_of: Vec<usize> = bodies
            .chunks(tpc)
            .enumerate()
            .map(|(k, threads)| {
                let seeded = shared || threads.iter().any(|&b| draws[b]);
                let identity = (threads, seeded.then_some(k));
                if let Some(slot) = distinct.iter().position(|other| *other == identity) {
                    return slot;
                }
                distinct.push(identity);
                cores.push(CoreSim::new(
                    &self.uarch,
                    threads.iter().map(|&b| &decoded[b]).collect(),
                    self.options.prefetch_enabled,
                    self.options.seed ^ (k as u64) << 32,
                    self.options.uncore_mode,
                ));
                cores.len() - 1
            })
            .collect();

        let mut uncore = UncoreSim::new(&self.uarch, self.options.uncore_mode);
        let tables = EnergyTables::new(&self.uarch.energy);
        // Warm-up: caches fill, pipes reach steady state; energy is discarded.
        let warmup_span = mp_telemetry::span("sim.warmup");
        for now in 0..self.options.warmup_cycles {
            for core in &mut cores {
                core.step(now, &tables, &mut uncore);
            }
        }
        drop(warmup_span);
        for core in &mut cores {
            core.reset_counters();
        }

        // Measurement window with power sensor sampling.  Telemetry only *reads*
        // clocks here — never the RNG or any simulated state — so an instrumented run
        // is bit-identical to an uninstrumented one.
        let telemetry = mp_telemetry::enabled();
        let cycle_span = mp_telemetry::span("sim.cycle_loop");
        let mut energy_accrual_ns = 0u64;
        // One lane per configuration, by decreasing core count: the configurations
        // that have core `k` are the first `with_core[k]` lanes.
        let mut lanes: Vec<usize> = (0..configs.len()).collect();
        lanes.sort_by_key(|&c| std::cmp::Reverse(configs[c].cores));
        let with_core: Vec<usize> = (0..core_of.len())
            .map(|k| lanes.iter().filter(|&&c| configs[c].cores as usize > k).count())
            .collect();
        let mut breakdowns = vec![EnergyBreakdown::default(); configs.len()];
        let mut sensors: Vec<Sensor> = lanes
            .iter()
            .map(|_| Sensor {
                rng: SmallRng::seed_from_u64(self.options.seed ^ 0x7e1e_5c0e),
                samples: Vec::new(),
                window_start_energy: 0.0,
            })
            .collect();
        let sample_cycles = self.options.sample_cycles;
        let start = self.options.warmup_cycles;
        let end = start + self.options.measure_cycles;
        for now in start..end {
            for core in &mut cores {
                core.step(now, &tables, &mut uncore);
            }
            let elapsed = now - start + 1;
            let window_cycles = if elapsed.is_multiple_of(sample_cycles) {
                Some(sample_cycles)
            } else {
                (now + 1 == end).then_some(elapsed % sample_cycles)
            };
            // Core-major: each core's log is read once, into every lane that has the
            // core, and the lanes' additions are independent.
            for (k, &core) in core_of.iter().enumerate() {
                cores[core].energy().add_to(&mut breakdowns[..with_core[k]]);
            }
            for ((&c, sensor), breakdown) in lanes.iter().zip(&mut sensors).zip(&mut breakdowns) {
                self.accrue_static(breakdown, configs[c]);
                if let Some(window_cycles) = window_cycles {
                    let accrual_start = telemetry.then(Instant::now);
                    let energy_now = breakdown.total();
                    let window_energy = energy_now - sensor.window_start_energy;
                    sensor.window_start_energy = energy_now;
                    let clean = window_energy / window_cycles as f64;
                    sensor.samples.push(self.add_noise(clean, &mut sensor.rng));
                    if let Some(t0) = accrual_start {
                        energy_accrual_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
        }
        drop(cycle_span);

        let finalize_span = mp_telemetry::span("sim.finalize");
        let cycles = self.options.measure_cycles;
        let mut measurements: Vec<(usize, Measurement)> = lanes
            .iter()
            .zip(sensors)
            .zip(&breakdowns)
            .map(|((&c, mut sensor), breakdown)| {
                let config = configs[c];
                let per_thread = core_of[..config.cores as usize]
                    .iter()
                    .flat_map(|&core| cores[core].counters(cycles))
                    .collect();
                let trace = PowerTrace::new(sensor.samples, sample_cycles);
                let avg_power = self.add_noise(breakdown.total() / cycles as f64, &mut sensor.rng);
                let m = Measurement::new(
                    config,
                    cycles,
                    per_thread,
                    avg_power,
                    trace,
                    breakdown.to_power(cycles),
                );
                (c, m)
            })
            .collect();
        measurements.sort_by_key(|&(c, _)| c);
        let measurements: Vec<Measurement> = measurements.into_iter().map(|(_, m)| m).collect();
        drop(finalize_span);

        if telemetry {
            let runs = configs.len() as u64;
            let threads: u64 = configs.iter().map(|c| u64::from(c.threads())).sum();
            let served_cores: u64 = configs.iter().map(|c| u64::from(c.cores)).sum();
            mp_telemetry::span_duration("sim.energy_accrual", energy_accrual_ns);
            mp_telemetry::counter("sim.measurements", runs);
            mp_telemetry::counter("sim.cycles", cycles * runs);
            mp_telemetry::counter("sim.warmup_cycles", self.options.warmup_cycles * runs);
            // Hardware-thread cycles of the measurement windows served to the
            // configurations, whether stepped or replayed: the work a run answers for,
            // not the work it does (see `sim.stepped_thread_cycles`).
            mp_telemetry::counter("sim.thread_cycles", cycles * threads);
            // Hardware-thread cycles actually stepped, warm-up included: divided by the
            // `sim.warmup` plus `sim.cycle_loop` span totals, the simulator's throughput.
            mp_telemetry::counter(
                "sim.stepped_thread_cycles",
                (self.options.warmup_cycles + cycles) * tpc as u64 * cores.len() as u64,
            );
            // Hardware-thread cycles (warm-up included) served by a core simulated for
            // another core index or another configuration, instead of stepping one.
            mp_telemetry::counter(
                "sim.replicated_thread_cycles",
                (self.options.warmup_cycles + cycles)
                    * tpc as u64
                    * (served_cores - cores.len() as u64),
            );
        }
        measurements
    }

    /// Measures the workload-independent power: the sensor reading with no activity on
    /// the chip (all cores clock-gated).
    pub fn measure_idle(&self) -> f64 {
        let mut rng = SmallRng::seed_from_u64(self.options.seed ^ 0x1d1e);
        self.add_noise(self.uarch.energy.idle_power, &mut rng)
    }

    /// Adds the static (non-instruction-driven) energy of one cycle.
    fn accrue_static(&self, breakdown: &mut EnergyBreakdown, config: CmpSmtConfig) {
        breakdown.idle += self.uarch.energy.idle_power;
        // With a private uncore the paper's constant uncore power applies; in shared
        // mode the uncore component is fully dynamic (accrued per L3 access, memory
        // transfer and bandwidth stall by `UncoreSim`/`CoreSim`).
        if self.options.uncore_mode == UncoreMode::Private {
            breakdown.uncore += self.uarch.energy.uncore_power;
        }
        breakdown.cmp += self.uarch.energy.per_core_power * f64::from(config.cores);
        if config.smt.smt_enabled() {
            breakdown.smt += self.uarch.energy.smt_power * f64::from(config.cores);
        }
    }

    /// Applies the sensor's relative measurement noise.
    fn add_noise(&self, value: f64, rng: &mut SmallRng) -> f64 {
        if self.options.noise_fraction <= 0.0 {
            return value;
        }
        // Sum of three uniforms approximates a Gaussian well enough for sensor noise.
        let u: f64 = (0..3).map(|_| rng.gen_range(-1.0..1.0)).sum::<f64>() / 3.0;
        value * (1.0 + u * self.options.noise_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_isa::{Instruction, Operand, RegRef};
    use mp_uarch::{power7, SmtMode};

    fn kernel_of(uarch: &MicroArchitecture, mnemonic: &str, n: usize) -> Kernel {
        let isa = &uarch.isa;
        let (id, _) = isa.get(mnemonic).unwrap();
        let insts: Vec<Instruction> = (0..n)
            .map(|i| {
                Instruction::new(
                    isa,
                    id,
                    vec![
                        Operand::Reg(RegRef::gpr((i % 8) as u16)),
                        Operand::Reg(RegRef::gpr(10)),
                        Operand::Reg(RegRef::gpr(11)),
                    ],
                    None,
                )
                .unwrap()
            })
            .collect();
        Kernel::new(mnemonic, insts)
    }

    fn fast_sim() -> ChipSim {
        ChipSim::new(power7()).with_options(SimOptions {
            warmup_cycles: 1000,
            measure_cycles: 3000,
            sample_cycles: 500,
            noise_fraction: 0.0,
            prefetch_enabled: true,
            seed: 1,
            uncore_mode: UncoreMode::Private,
        })
    }

    fn fast_shared_sim() -> ChipSim {
        let mut options = fast_sim().options().clone();
        options.uncore_mode = UncoreMode::Shared;
        ChipSim::new(power7()).with_options(options)
    }

    #[test]
    fn power_increases_with_core_count() {
        let sim = fast_sim();
        let uarch = power7();
        let k = kernel_of(&uarch, "add", 64);
        let p1 = sim.run(&k, CmpSmtConfig::new(1, SmtMode::Smt1)).average_power();
        let p4 = sim.run(&k, CmpSmtConfig::new(4, SmtMode::Smt1)).average_power();
        let p8 = sim.run(&k, CmpSmtConfig::new(8, SmtMode::Smt1)).average_power();
        assert!(p1 < p4 && p4 < p8, "power must grow with cores: {p1} {p4} {p8}");
    }

    #[test]
    fn smt_enable_adds_power_for_same_activity() {
        let sim = fast_sim();
        let uarch = power7();
        // A dependency-free FXU-bound kernel saturates 2 pipes regardless of SMT mode, so
        // core activity is the same; the SMT overhead must still show up.
        let k = kernel_of(&uarch, "subf", 64);
        let smt1 = sim.run(&k, CmpSmtConfig::new(2, SmtMode::Smt1));
        let smt2 = sim.run(&k, CmpSmtConfig::new(2, SmtMode::Smt2));
        assert!(smt2.ground_truth().smt > 0.0);
        assert!((smt1.ground_truth().smt - 0.0).abs() < 1e-12);
        assert!(smt2.average_power() > smt1.average_power());
    }

    #[test]
    fn idle_power_is_the_workload_independent_component() {
        let sim = fast_sim();
        let idle = sim.measure_idle();
        assert!((idle - power7().energy.idle_power).abs() < 1.0);
    }

    #[test]
    fn ground_truth_components_sum_to_average_power() {
        let sim = fast_sim();
        let uarch = power7();
        let k = kernel_of(&uarch, "add", 64);
        let m = sim.run(&k, CmpSmtConfig::new(2, SmtMode::Smt4));
        let gt = m.ground_truth();
        assert!((gt.total() - m.average_power()).abs() / m.average_power() < 0.01);
    }

    #[test]
    fn trace_samples_cover_the_window() {
        let sim = fast_sim();
        let uarch = power7();
        let k = kernel_of(&uarch, "add", 32);
        let m = sim.run(&k, CmpSmtConfig::new(1, SmtMode::Smt1));
        assert_eq!(m.trace().samples().len(), 6);
        assert!(m.trace().average() > 0.0);
        assert!(m.trace().max() >= m.trace().min());
    }

    #[test]
    fn per_thread_counters_match_configuration() {
        let sim = fast_sim();
        let uarch = power7();
        let k = kernel_of(&uarch, "add", 32);
        let m = sim.run(&k, CmpSmtConfig::new(3, SmtMode::Smt2));
        assert_eq!(m.per_thread().len(), 6);
        assert_eq!(m.per_core().len(), 3);
        for t in m.per_thread() {
            assert!(t.instr_completed > 0, "every thread must make progress");
        }
    }

    /// Builds a kernel of `n` copies of `mnemonic` with operands materialised from the
    /// definition's operand slots (registers rotated to avoid dependence chains).
    fn generic_kernel(uarch: &MicroArchitecture, mnemonic: &str, n: usize) -> Kernel {
        let insts: Vec<Instruction> =
            (0..n).map(|i| crate::fixtures::materialise(&uarch.isa, mnemonic, i, None)).collect();
        Kernel::new(mnemonic, insts)
    }

    #[test]
    fn higher_epi_instructions_draw_more_power_at_same_ipc() {
        let sim = fast_sim();
        let uarch = power7();
        // Both are VSU FMA-class ops with identical throughput; xvnmsubmdp has a more
        // complex datapath and must draw more power (the Table 3 observation).
        let cheap = generic_kernel(&uarch, "xstsqrtdp", 64);
        let costly = generic_kernel(&uarch, "xvnmsubmdp", 64);
        let config = CmpSmtConfig::new(8, SmtMode::Smt1);
        let m_cheap = sim.run(&cheap, config);
        let m_costly = sim.run(&costly, config);
        assert!((m_cheap.chip_ipc() - m_costly.chip_ipc()).abs() < 0.3);
        assert!(m_costly.average_power() > m_cheap.average_power());
    }

    #[test]
    #[should_panic(expected = "exceeds the chip")]
    fn too_many_cores_is_rejected() {
        let sim = fast_sim();
        let uarch = power7();
        let k = kernel_of(&uarch, "add", 8);
        let _ = sim.run(&k, CmpSmtConfig::new(9, SmtMode::Smt1));
    }

    #[test]
    #[should_panic(expected = "sample_cycles must be positive")]
    fn zero_sample_cycles_is_rejected() {
        let mut options = fast_sim().options().clone();
        options.sample_cycles = 0;
        let uarch = power7();
        let k = kernel_of(&uarch, "add", 8);
        let _ = ChipSim::new(power7())
            .with_options(options)
            .run(&k, CmpSmtConfig::new(1, SmtMode::Smt1));
    }

    #[test]
    #[should_panic(expected = "measure_cycles must be positive")]
    fn zero_measure_cycles_is_rejected() {
        let mut options = fast_sim().options().clone();
        options.measure_cycles = 0;
        let uarch = power7();
        let k = kernel_of(&uarch, "add", 8);
        let _ = ChipSim::new(power7())
            .with_options(options)
            .run(&k, CmpSmtConfig::new(1, SmtMode::Smt1));
    }

    #[test]
    fn shared_uncore_energy_is_dynamic_not_constant() {
        let sim = fast_shared_sim();
        let uarch = power7();
        // No memory activity at all: the shared-mode uncore component must be zero.
        let compute = kernel_of(&uarch, "subf", 64);
        let m = sim.run(&compute, CmpSmtConfig::new(1, SmtMode::Smt1));
        assert!(
            m.ground_truth().uncore.abs() < 1e-12,
            "uncore power without memory traffic: {}",
            m.ground_truth().uncore
        );
        // A kernel whose loads miss the private L1/L2 accrues uncore energy per event.
        let memory = crate::fixtures::uncore_contender(&uarch.isa, 0);
        let m = sim.run(&memory, CmpSmtConfig::new(1, SmtMode::Smt1));
        assert!(m.ground_truth().uncore > 0.0);
        let chip = m.chip_counters();
        assert!(chip.l3_accesses > 0, "L2 misses must reach the shared L3");
        assert!(chip.l3_accesses >= chip.l3_misses);
    }

    #[test]
    fn private_mode_reports_derived_uncore_counters() {
        let sim = fast_sim();
        let uarch = power7();
        let memory = crate::fixtures::uncore_contender(&uarch.isa, 0);
        let m = sim.run(&memory, CmpSmtConfig::new(1, SmtMode::Smt1));
        let chip = m.chip_counters();
        assert!(chip.l3_accesses > 0, "contender loads must miss the private L1/L2");
        assert_eq!(chip.l3_accesses, chip.l3_hits + chip.mem_accesses);
        assert_eq!(chip.l3_misses, chip.mem_accesses);
        assert_eq!(chip.bw_stalls, 0, "private hierarchies never stall on bandwidth");
    }

    #[test]
    fn only_rng_free_cores_run_in_lockstep() {
        let sim = fast_sim();
        let isa = &sim.uarch().isa;
        let config = CmpSmtConfig::new(2, SmtMode::Smt2);
        let per_core = |kernel: &Kernel| {
            let m = sim.run(kernel, config);
            let (a, b) = m.per_thread().split_at(2);
            (a.to_vec(), b.to_vec())
        };
        // Each core seeds its own branch stream, so mispredicting cores diverge...
        let (a, b) = per_core(&crate::fixtures::branchy(isa));
        assert_ne!(a, b, "cores drawing distinct misprediction streams must differ");
        // ...while cores that never draw from it are the same computation.
        let (a, b) = per_core(&crate::fixtures::compute_bound(isa));
        assert_eq!(a, b);
    }

    /// Asserts two measurements are equal bit for bit, field by field.
    fn assert_bit_identical(family: &Measurement, alone: &Measurement, label: &str) {
        assert_eq!(family.config(), alone.config(), "{label}: config");
        assert_eq!(family.cycles(), alone.cycles(), "{label}: cycles");
        assert_eq!(family.per_thread(), alone.per_thread(), "{label}: counters");
        assert_eq!(
            family.average_power().to_bits(),
            alone.average_power().to_bits(),
            "{label}: average power"
        );
        let bits = |m: &Measurement| -> Vec<u64> {
            let gt = m.ground_truth();
            let truth = [gt.idle, gt.uncore, gt.cmp, gt.smt, gt.dynamic_compute, gt.dynamic_memory];
            m.trace().samples().iter().chain(&truth).map(|v| v.to_bits()).collect()
        };
        assert_eq!(family.trace().cycles_per_sample(), alone.trace().cycles_per_sample());
        assert_eq!(bits(family), bits(alone), "{label}: samples and ground truth");
    }

    #[test]
    fn a_family_run_equals_one_run_per_configuration() {
        let mut options = fast_sim().options().clone();
        options.noise_fraction = 0.0025;
        let sim = ChipSim::new(power7()).with_options(options);
        let isa = &sim.uarch().isa;
        let kernels = [
            crate::fixtures::compute_bound(isa),
            crate::fixtures::memory_bound(isa),
            crate::fixtures::branchy(isa),
            crate::fixtures::wide_registers(isa),
        ];
        for kernel in &kernels {
            for smt in [SmtMode::Smt1, SmtMode::Smt2, SmtMode::Smt4] {
                // Out of order, so a configuration's cores are not the family's first.
                let configs: Vec<CmpSmtConfig> =
                    [3, 1, 8, 2, 4].iter().map(|&cores| CmpSmtConfig::new(cores, smt)).collect();
                let family = sim.run_family(kernel, &configs);
                assert_eq!(family.len(), configs.len());
                for (m, &config) in family.iter().zip(&configs) {
                    let label = format!("{}/{}", kernel.name(), config.label());
                    assert_bit_identical(m, &sim.run(kernel, config), &label);
                }
            }
        }

        // A shared uncore couples the cores: the family is one run per configuration.
        let mut options = sim.options().clone();
        options.uncore_mode = UncoreMode::Shared;
        let shared = ChipSim::new(power7()).with_options(options);
        let configs = [CmpSmtConfig::new(1, SmtMode::Smt2), CmpSmtConfig::new(4, SmtMode::Smt2)];
        let memory = &kernels[1];
        for (m, &config) in shared.run_family(memory, &configs).iter().zip(&configs) {
            assert_bit_identical(m, &shared.run(memory, config), &format!("shared/{config}"));
        }
    }

    #[test]
    #[should_panic(expected = "share one SMT mode")]
    fn a_family_shares_one_smt_mode() {
        let sim = fast_sim();
        let k = kernel_of(sim.uarch(), "add", 8);
        let _ = sim.run_family(
            &k,
            &[CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(1, SmtMode::Smt2)],
        );
    }

    #[test]
    fn deterministic_given_a_seed() {
        let uarch = power7();
        let k = kernel_of(&uarch, "add", 64);
        let config = CmpSmtConfig::new(2, SmtMode::Smt2);
        let a = fast_sim().run(&k, config);
        let b = fast_sim().run(&k, config);
        assert_eq!(a.chip_counters(), b.chip_counters());
        assert!((a.average_power() - b.average_power()).abs() < 1e-12);
    }
}
