//! Declarative machine (micro-architecture) specifications.
//!
//! The counterpart of [`mp_isa::spec`] for the machine side: `specs/<backend>.uarch`
//! describes everything a [`MicroArchitecture`] holds — pipeline widths, cache
//! hierarchy and shared-uncore geometry, SMT modes, floorplan, the latency/throughput
//! derivation rates, the (hidden) energy model parameters and the PMC mapping — in a
//! small line-oriented text format.  [`backend`] loads an embedded spec by name,
//! resolves its ISA through [`mp_isa::spec::load_isa`], derives the per-instruction
//! property table and stamps the result with a digest of both spec texts so
//! measurement memoization can tell backends apart.
//!
//! # File format
//!
//! One record per line; `#` starts a comment.  All records are mandatory except `pmc`
//! (which defaults missing counters to their generic names) and `iprop`:
//!
//! ```text
//! machine "POWER7"
//! isa power7
//! frequency-ghz 3
//! max-cores 8
//! smt 1 2 4
//! pipes dispatch=6 completion=6 fxu=2 lsu=2 vsu=2 dfu=1 bru=1
//! cache l1 capacity=32768 line=128 ways=8 latency=2
//! memory latency=220
//! uncore-l3 capacity=33554432 line=128 ways=8 latency=27
//! uncore-port cycles=2 queue=8
//! floorplan ifu=0.16 isu=0.18 ...
//! latency simple=1 simple-fp=2 medium=4 medium-fp=6 long=13 very-long=33 memory=2 control=1
//! throughput sync=30 prefetch=1.2 ... default=1
//! energy idle=100 uncore=40 ...
//! energy-unit-base fxu=0.5 lsu=0.65 vsu=0.9 dfu=1 bru=0.3
//! energy-unit-wake fxu=0.7 lsu=0.8 vsu=1.2 dfu=0.8 bru=0.3
//! energy-mem l1=0.6 l2=2.2 l3=5.5 mem=13
//! pmc cycles=PM_RUN_CYC
//! iprop dcbtst latency=2 rt=1.5     # optional per-mnemonic overrides
//! ```
//!
//! The `latency` and `throughput` records parameterize the rules that derive each
//! instruction's properties from its ISA attributes; `iprop` records override the derived
//! values for individual mnemonics (validated against the ISA, with line/column diagnostics
//! for unknown mnemonics).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use mp_isa::spec::{lex, spec_digest, SpecError, Tok};
use mp_isa::{InstrFlags, InstructionDef, Isa, IssueClass, LatencyClass, Unit};

use crate::cache::{CacheGeometry, MemLevel, MemoryHierarchy, UncoreGeometry};
use crate::config::SmtMode;
use crate::counters::CounterId;
use crate::energy::EnergyParams;
use crate::iprops::{InstrProps, InstrPropsTable};
use crate::power7::MicroArchitecture;
use crate::units::{CorePipes, FloorplanEntry};

/// The embedded POWER7 machine specification (`specs/power7.uarch`).
pub const POWER7_UARCH_SPEC: &str = include_str!("../../../specs/power7.uarch");

/// The embedded POWER8-like machine specification (`specs/power8.uarch`).
pub const POWER8_UARCH_SPEC: &str = include_str!("../../../specs/power8.uarch");

/// Embedded machine specification sources, by backend name.
const MACHINE_SOURCES: &[(&str, &str)] =
    &[("power7", POWER7_UARCH_SPEC), ("power8", POWER8_UARCH_SPEC)];

/// Latency derivation rates: cycles per latency class, with float/vector variants for
/// the short classes (the `latency` record).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRates {
    /// Simple integer operations.
    pub simple: u32,
    /// Simple float/vector operations.
    pub simple_fp: u32,
    /// Medium-latency integer operations (e.g. multiplies).
    pub medium: u32,
    /// Medium-latency float/vector operations.
    pub medium_fp: u32,
    /// Long operations (e.g. scalar divide).
    pub long: u32,
    /// Very long operations (e.g. decimal).
    pub very_long: u32,
    /// Memory operations (address generation + L1 pipeline; the hierarchy adds the
    /// per-level latency at simulation time).
    pub memory: u32,
    /// Control (branch) operations.
    pub control: u32,
}

impl LatencyRates {
    /// Derives the execution latency of an instruction from its latency class.
    pub fn derive(&self, def: &InstructionDef) -> u32 {
        let fpish = def.flags().intersects(InstrFlags::FLOAT | InstrFlags::VECTOR);
        match def.latency_class() {
            LatencyClass::Simple => {
                if fpish {
                    self.simple_fp
                } else {
                    self.simple
                }
            }
            LatencyClass::Medium => {
                if fpish {
                    self.medium_fp
                } else {
                    self.medium
                }
            }
            LatencyClass::Long => self.long,
            LatencyClass::VeryLong => self.very_long,
            LatencyClass::Memory => self.memory,
            LatencyClass::Control => self.control,
        }
    }
}

/// Reciprocal-throughput derivation rates (the `throughput` record).  The first rule
/// that matches wins, in this order: sync, prefetch, stores, loads, decimal, divide,
/// sqrt, integer multiply, dual-issue simple ops, privileged, default.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRates {
    /// Synchronisation instructions.
    pub sync: f64,
    /// Software prefetches.
    pub prefetch: f64,
    /// Float/vector stores.
    pub store_fp: f64,
    /// Fixed point stores.
    pub store: f64,
    /// Update-form/algebraic loads (cracked into two internal operations).
    pub load_cracked: f64,
    /// Plain loads.
    pub load: f64,
    /// Decimal operations.
    pub decimal: f64,
    /// Float/vector divides.
    pub divide_fp: f64,
    /// Integer divides.
    pub divide: f64,
    /// Square roots.
    pub sqrt: f64,
    /// Scalar integer multiplies.
    pub integer_multiply: f64,
    /// Simple operations issuable on both FXU and LSU pipes.
    pub fxu_or_lsu: f64,
    /// Privileged operations.
    pub privileged: f64,
    /// Everything else (one per pipe per cycle on POWER7).
    pub default_rate: f64,
}

impl ThroughputRates {
    /// Derives the reciprocal throughput (cycles per instruction per pipe).
    pub fn derive(&self, def: &InstructionDef) -> f64 {
        let flags = def.flags();
        let fpish = flags.intersects(InstrFlags::FLOAT | InstrFlags::VECTOR);
        if flags.contains(InstrFlags::SYNC) {
            return self.sync;
        }
        if def.is_prefetch() {
            return self.prefetch;
        }
        if def.is_store() {
            return if fpish { self.store_fp } else { self.store };
        }
        if def.is_load() {
            return if def.is_update_form() || flags.contains(InstrFlags::ALGEBRAIC) {
                self.load_cracked
            } else {
                self.load
            };
        }
        if def.is_decimal() {
            return self.decimal;
        }
        if flags.contains(InstrFlags::DIVIDE) {
            return if fpish { self.divide_fp } else { self.divide };
        }
        if flags.contains(InstrFlags::SQRT) {
            return self.sqrt;
        }
        if flags.contains(InstrFlags::MULTIPLY) && def.is_integer() && !def.is_vector() {
            return self.integer_multiply;
        }
        if def.issue_class() == IssueClass::FxuOrLsu {
            return self.fxu_or_lsu;
        }
        if def.is_privileged() {
            return self.privileged;
        }
        self.default_rate
    }
}

/// A per-mnemonic override of the derived instruction properties (an `iprop` record).
#[derive(Debug, Clone)]
pub struct IpropOverride {
    /// Mnemonic the override applies to (validated against the ISA at build time).
    pub mnemonic: String,
    /// Override for the latency in cycles.
    pub latency: Option<u32>,
    /// Override for the reciprocal throughput.
    pub recip_throughput: Option<f64>,
    /// Source location of the record, for build-time diagnostics.
    pub line: u32,
    /// Source column of the mnemonic token.
    pub column: u32,
}

impl PartialEq for IpropOverride {
    /// Source locations are metadata, not content: two specs that differ only in
    /// where an override sits are the same machine.
    fn eq(&self, other: &Self) -> bool {
        self.mnemonic == other.mnemonic
            && self.latency == other.latency
            && self.recip_throughput == other.recip_throughput
    }
}

/// A parsed machine specification: the literal content of a `.uarch` file.
///
/// This is the round-trippable intermediate form — [`emit_machine`] regenerates the
/// canonical text and [`MachineSpec::build`] resolves it (plus the named ISA) into a
/// [`MicroArchitecture`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Machine name (e.g. `"POWER7"`).
    pub name: String,
    /// Name of the ISA spec this machine implements (resolved via
    /// [`mp_isa::spec::load_isa`]).
    pub isa_name: String,
    /// Nominal core frequency in GHz.
    pub frequency_ghz: f64,
    /// Maximum number of cores.
    pub max_cores: u32,
    /// Supported SMT widths (threads per core).
    pub smt_modes: Vec<SmtMode>,
    /// Per-core execution resources.
    pub pipes: CorePipes,
    /// Private cache hierarchy and memory latency.
    pub hierarchy: MemoryHierarchy,
    /// Chip-level shared uncore.
    pub uncore: UncoreGeometry,
    /// Per-unit area floorplan.
    pub floorplan: Vec<FloorplanEntry>,
    /// Latency derivation rates.
    pub latency: LatencyRates,
    /// Throughput derivation rates.
    pub throughput: ThroughputRates,
    /// Ground-truth energy model parameters.
    pub energy: EnergyParams,
    /// PMC mapping: platform event name per counter.
    pub pmc_names: Vec<(CounterId, String)>,
    /// Per-mnemonic property overrides.
    pub iprop_overrides: Vec<IpropOverride>,
}

const UNIT_KEYS: &[(Unit, &str)] = &[
    (Unit::Ifu, "ifu"),
    (Unit::Isu, "isu"),
    (Unit::Fxu, "fxu"),
    (Unit::Lsu, "lsu"),
    (Unit::Vsu, "vsu"),
    (Unit::Dfu, "dfu"),
    (Unit::Bru, "bru"),
];

const COUNTER_KEYS: &[(CounterId, &str)] = &[
    (CounterId::Cycles, "cycles"),
    (CounterId::InstrCompleted, "instructions"),
    (CounterId::FxuOps, "fxu-ops"),
    (CounterId::LsuOps, "lsu-ops"),
    (CounterId::VsuOps, "vsu-ops"),
    (CounterId::DfuOps, "dfu-ops"),
    (CounterId::BruOps, "bru-ops"),
    (CounterId::Loads, "loads"),
    (CounterId::Stores, "stores"),
    (CounterId::Prefetches, "prefetches"),
    (CounterId::L1Hits, "l1-hits"),
    (CounterId::L2Hits, "l2-hits"),
    (CounterId::L3Hits, "l3-hits"),
    (CounterId::MemAccesses, "mem-accesses"),
    (CounterId::L3Accesses, "l3-accesses"),
    (CounterId::L3Misses, "l3-misses"),
    (CounterId::BwStalls, "bw-stalls"),
];

const MEM_KEYS: &[(MemLevel, &str)] =
    &[(MemLevel::L1, "l1"), (MemLevel::L2, "l2"), (MemLevel::L3, "l3"), (MemLevel::Mem, "mem")];

/// Fields of the `energy` record, in the order [`parse_machine`] unpacks them into the
/// scalar [`EnergyParams`] fields.
const ENERGY_KEYS: [&str; 11] = [
    "idle",
    "uncore",
    "uncore-l3",
    "uncore-mem",
    "uncore-stall",
    "per-core",
    "smt",
    "complexity",
    "switching",
    "prefetch",
    "flush",
];

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Key=value fields of one record, consumed by name with "missing/unknown/duplicate"
/// diagnostics anchored to the record head.
struct Fields<'a> {
    head: &'a Tok,
    entries: Vec<(String, Tok, bool)>,
}

impl<'a> Fields<'a> {
    fn new(head: &'a Tok, toks: &[Tok]) -> Result<Self, SpecError> {
        let mut entries = Vec::with_capacity(toks.len());
        for tok in toks {
            let (key, value) = tok.split_kv().ok_or_else(|| {
                SpecError::at(tok, format!("expected key=value, got `{}`", tok.text))
            })?;
            if entries.iter().any(|(k, _, _)| *k == key) {
                return Err(SpecError::at(tok, format!("duplicate field `{key}`")));
            }
            entries.push((key.to_owned(), value, false));
        }
        Ok(Self { head, entries })
    }

    fn take(&mut self, key: &str) -> Result<Tok, SpecError> {
        for (k, v, used) in &mut self.entries {
            if k == key {
                *used = true;
                return Ok(v.clone());
            }
        }
        Err(SpecError::at(self.head, format!("missing field `{key}`")))
    }

    fn take_opt(&mut self, key: &str) -> Option<Tok> {
        for (k, v, used) in &mut self.entries {
            if k == key {
                *used = true;
                return Some(v.clone());
            }
        }
        None
    }

    fn finish(self) -> Result<(), SpecError> {
        for (k, v, used) in &self.entries {
            if !used {
                return Err(SpecError::at(v, format!("unknown field `{k}`")));
            }
        }
        Ok(())
    }
}

fn take_u32(fields: &mut Fields<'_>, key: &str) -> Result<u32, SpecError> {
    fields.take(key)?.parse_int::<u32>(key)
}

fn take_f64(fields: &mut Fields<'_>, key: &str) -> Result<f64, SpecError> {
    fields.take(key)?.parse_f64(key)
}

fn take_latency(fields: &mut Fields<'_>, key: &str) -> Result<u32, SpecError> {
    let tok = fields.take(key)?;
    let v = tok.parse_int::<u32>(key)?;
    if v == 0 {
        return Err(SpecError::at(&tok, format!("latency `{key}` must be at least 1")));
    }
    Ok(v)
}

fn parse_cache_geometry(
    head: &Tok,
    level: MemLevel,
    fields: &mut Fields<'_>,
) -> Result<CacheGeometry, SpecError> {
    let capacity = fields.take("capacity")?.parse_int::<u64>("capacity")?;
    let line = fields.take("line")?.parse_int::<u64>("line")?;
    let ways = take_u32(fields, "ways")?;
    let latency = take_u32(fields, "latency")?;
    // CacheGeometry::new validates with panics; convert them to located diagnostics.
    std::panic::catch_unwind(|| CacheGeometry::new(level, capacity, line, ways, latency)).map_err(
        |panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("invalid cache geometry");
            SpecError::at(head, msg)
        },
    )
}

struct Partial {
    name: Option<String>,
    isa_name: Option<String>,
    frequency_ghz: Option<f64>,
    max_cores: Option<u32>,
    smt_modes: Option<Vec<SmtMode>>,
    pipes: Option<CorePipes>,
    l1: Option<CacheGeometry>,
    l2: Option<CacheGeometry>,
    l3: Option<CacheGeometry>,
    mem_latency: Option<u32>,
    uncore_l3: Option<CacheGeometry>,
    uncore_port: Option<(u32, u32)>,
    floorplan: Option<Vec<FloorplanEntry>>,
    latency: Option<LatencyRates>,
    throughput: Option<ThroughputRates>,
    energy: Option<[f64; ENERGY_KEYS.len()]>,
    unit_base: Option<[(Unit, f64); 5]>,
    unit_wake: Option<[(Unit, f64); 5]>,
    energy_mem: Option<[(MemLevel, f64); 4]>,
    pmc_names: Vec<(CounterId, String)>,
    iprop_overrides: Vec<IpropOverride>,
}

/// Parses a machine specification.
///
/// # Errors
///
/// Returns a [`SpecError`] with the line and column of the first problem: unknown
/// records or fields, malformed numbers, invalid SMT widths or cache geometries, zero
/// latencies, duplicate or missing records.
pub fn parse_machine(text: &str) -> Result<MachineSpec, SpecError> {
    let lines = lex(text)?;
    let mut p = Partial {
        name: None,
        isa_name: None,
        frequency_ghz: None,
        max_cores: None,
        smt_modes: None,
        pipes: None,
        l1: None,
        l2: None,
        l3: None,
        mem_latency: None,
        uncore_l3: None,
        uncore_port: None,
        floorplan: None,
        latency: None,
        throughput: None,
        energy: None,
        unit_base: None,
        unit_wake: None,
        energy_mem: None,
        pmc_names: Vec::new(),
        iprop_overrides: Vec::new(),
    };

    for line in &lines {
        let head = &line[0];
        let rest = &line[1..];
        match head.text.as_str() {
            "machine" => {
                let tok =
                    rest.first().ok_or_else(|| SpecError::at(head, "`machine` needs a name"))?;
                set_once(&mut p.name, tok.text.clone(), head)?;
            }
            "isa" => {
                let tok =
                    rest.first().ok_or_else(|| SpecError::at(head, "`isa` needs a spec name"))?;
                set_once(&mut p.isa_name, tok.text.clone(), head)?;
            }
            "frequency-ghz" => {
                let tok = rest
                    .first()
                    .ok_or_else(|| SpecError::at(head, "`frequency-ghz` needs a value"))?;
                set_once(&mut p.frequency_ghz, tok.parse_f64("frequency")?, head)?;
            }
            "max-cores" => {
                let tok =
                    rest.first().ok_or_else(|| SpecError::at(head, "`max-cores` needs a value"))?;
                let cores = tok.parse_int::<u32>("core count")?;
                if cores == 0 {
                    return Err(SpecError::at(tok, "a chip needs at least one core"));
                }
                set_once(&mut p.max_cores, cores, head)?;
            }
            "smt" => {
                if rest.is_empty() {
                    return Err(SpecError::at(head, "`smt` needs at least one width"));
                }
                let mut modes = Vec::with_capacity(rest.len());
                for tok in rest {
                    let threads = tok.parse_int::<u32>("SMT width")?;
                    let mode = SmtMode::from_threads(threads).ok_or_else(|| {
                        SpecError::at(tok, format!("unsupported SMT width `{threads}`"))
                    })?;
                    if modes.contains(&mode) {
                        return Err(SpecError::at(tok, format!("duplicate SMT width `{threads}`")));
                    }
                    modes.push(mode);
                }
                set_once(&mut p.smt_modes, modes, head)?;
            }
            "pipes" => {
                let mut f = Fields::new(head, rest)?;
                let pipes = CorePipes {
                    dispatch_width: take_u32(&mut f, "dispatch")?,
                    completion_width: take_u32(&mut f, "completion")?,
                    fxu: take_u32(&mut f, "fxu")?,
                    lsu: take_u32(&mut f, "lsu")?,
                    vsu: take_u32(&mut f, "vsu")?,
                    dfu: take_u32(&mut f, "dfu")?,
                    bru: take_u32(&mut f, "bru")?,
                };
                f.finish()?;
                set_once(&mut p.pipes, pipes, head)?;
            }
            "cache" => {
                let level_tok =
                    rest.first().ok_or_else(|| SpecError::at(head, "`cache` needs a level"))?;
                let mut f = Fields::new(head, &rest[1..])?;
                match level_tok.text.as_str() {
                    "l1" => {
                        let g = parse_cache_geometry(head, MemLevel::L1, &mut f)?;
                        f.finish()?;
                        set_once(&mut p.l1, g, head)?;
                    }
                    "l2" => {
                        let g = parse_cache_geometry(head, MemLevel::L2, &mut f)?;
                        f.finish()?;
                        set_once(&mut p.l2, g, head)?;
                    }
                    "l3" => {
                        let g = parse_cache_geometry(head, MemLevel::L3, &mut f)?;
                        f.finish()?;
                        set_once(&mut p.l3, g, head)?;
                    }
                    other => {
                        return Err(SpecError::at(
                            level_tok,
                            format!("unknown cache level `{other}`"),
                        ))
                    }
                }
            }
            "memory" => {
                let mut f = Fields::new(head, rest)?;
                let latency = take_u32(&mut f, "latency")?;
                f.finish()?;
                set_once(&mut p.mem_latency, latency, head)?;
            }
            "uncore-l3" => {
                let mut f = Fields::new(head, rest)?;
                let g = parse_cache_geometry(head, MemLevel::L3, &mut f)?;
                f.finish()?;
                set_once(&mut p.uncore_l3, g, head)?;
            }
            "uncore-port" => {
                let mut f = Fields::new(head, rest)?;
                let cycles = take_u32(&mut f, "cycles")?;
                let queue = take_u32(&mut f, "queue")?;
                f.finish()?;
                if cycles == 0 || queue == 0 {
                    return Err(SpecError::at(
                        head,
                        "memory port needs non-zero cycles and queue depth",
                    ));
                }
                set_once(&mut p.uncore_port, (cycles, queue), head)?;
            }
            "floorplan" => {
                let mut f = Fields::new(head, rest)?;
                let mut plan = Vec::with_capacity(UNIT_KEYS.len());
                for (unit, key) in UNIT_KEYS {
                    if let Some(tok) = f.take_opt(key) {
                        plan.push(FloorplanEntry {
                            unit: *unit,
                            core_area_fraction: tok.parse_f64(key)?,
                        });
                    }
                }
                f.finish()?;
                set_once(&mut p.floorplan, plan, head)?;
            }
            "latency" => {
                let mut f = Fields::new(head, rest)?;
                let rates = LatencyRates {
                    simple: take_latency(&mut f, "simple")?,
                    simple_fp: take_latency(&mut f, "simple-fp")?,
                    medium: take_latency(&mut f, "medium")?,
                    medium_fp: take_latency(&mut f, "medium-fp")?,
                    long: take_latency(&mut f, "long")?,
                    very_long: take_latency(&mut f, "very-long")?,
                    memory: take_latency(&mut f, "memory")?,
                    control: take_latency(&mut f, "control")?,
                };
                f.finish()?;
                set_once(&mut p.latency, rates, head)?;
            }
            "throughput" => {
                let mut f = Fields::new(head, rest)?;
                let rates = ThroughputRates {
                    sync: take_f64(&mut f, "sync")?,
                    prefetch: take_f64(&mut f, "prefetch")?,
                    store_fp: take_f64(&mut f, "store-fp")?,
                    store: take_f64(&mut f, "store")?,
                    load_cracked: take_f64(&mut f, "load-cracked")?,
                    load: take_f64(&mut f, "load")?,
                    decimal: take_f64(&mut f, "decimal")?,
                    divide_fp: take_f64(&mut f, "divide-fp")?,
                    divide: take_f64(&mut f, "divide")?,
                    sqrt: take_f64(&mut f, "sqrt")?,
                    integer_multiply: take_f64(&mut f, "integer-multiply")?,
                    fxu_or_lsu: take_f64(&mut f, "fxu-or-lsu")?,
                    privileged: take_f64(&mut f, "privileged")?,
                    default_rate: take_f64(&mut f, "default")?,
                };
                f.finish()?;
                set_once(&mut p.throughput, rates, head)?;
            }
            "energy" => {
                let mut f = Fields::new(head, rest)?;
                let mut values = [0.0; ENERGY_KEYS.len()];
                for (value, key) in values.iter_mut().zip(ENERGY_KEYS) {
                    *value = take_f64(&mut f, key)?;
                }
                f.finish()?;
                set_once(&mut p.energy, values, head)?;
            }
            "energy-unit-base" => {
                let arr = parse_unit_energies(head, rest)?;
                set_once(&mut p.unit_base, arr, head)?;
            }
            "energy-unit-wake" => {
                let arr = parse_unit_energies(head, rest)?;
                set_once(&mut p.unit_wake, arr, head)?;
            }
            "energy-mem" => {
                let mut f = Fields::new(head, rest)?;
                let mut arr = [(MemLevel::L1, 0.0); 4];
                for (i, (level, key)) in MEM_KEYS.iter().enumerate() {
                    arr[i] = (*level, take_f64(&mut f, key)?);
                }
                f.finish()?;
                set_once(&mut p.energy_mem, arr, head)?;
            }
            "pmc" => {
                let mut f = Fields::new(head, rest)?;
                for (counter, key) in COUNTER_KEYS {
                    if let Some(tok) = f.take_opt(key) {
                        if p.pmc_names.iter().any(|(c, _)| c == counter) {
                            return Err(SpecError::at(
                                &tok,
                                format!("duplicate pmc mapping for `{key}`"),
                            ));
                        }
                        p.pmc_names.push((*counter, tok.text.clone()));
                    }
                }
                f.finish()?;
            }
            "iprop" => {
                let mnemonic =
                    rest.first().ok_or_else(|| SpecError::at(head, "`iprop` needs a mnemonic"))?;
                let mut f = Fields::new(head, &rest[1..])?;
                let latency = match f.take_opt("latency") {
                    Some(tok) => {
                        let v = tok.parse_int::<u32>("latency")?;
                        if v == 0 {
                            return Err(SpecError::at(&tok, "latency must be at least 1"));
                        }
                        Some(v)
                    }
                    None => None,
                };
                let recip_throughput = match f.take_opt("rt") {
                    Some(tok) => {
                        let v = tok.parse_f64("reciprocal throughput")?;
                        if v <= 0.0 {
                            return Err(SpecError::at(
                                &tok,
                                "reciprocal throughput must be positive",
                            ));
                        }
                        Some(v)
                    }
                    None => None,
                };
                f.finish()?;
                if latency.is_none() && recip_throughput.is_none() {
                    return Err(SpecError::at(head, "`iprop` needs latency= and/or rt="));
                }
                p.iprop_overrides.push(IpropOverride {
                    mnemonic: mnemonic.text.clone(),
                    latency,
                    recip_throughput,
                    line: mnemonic.line,
                    column: mnemonic.column,
                });
            }
            other => return Err(SpecError::at(head, format!("unknown record `{other}`"))),
        }
    }

    let missing = |what: &str| SpecError::new(1, 1, format!("missing `{what}` record"));
    // The four energy records may come in any order, so the parameters are assembled
    // only once all of them are read.
    let [idle, uncore, l3, mem, stall, per_core, smt, complexity, switching, prefetch, flush] =
        p.energy.ok_or_else(|| missing("energy"))?;
    let energy = EnergyParams {
        idle_power: idle,
        uncore_power: uncore,
        uncore_l3_energy: l3,
        uncore_mem_energy: mem,
        uncore_stall_energy: stall,
        per_core_power: per_core,
        smt_power: smt,
        unit_base: p.unit_base.ok_or_else(|| missing("energy-unit-base"))?,
        unit_wake: p.unit_wake.ok_or_else(|| missing("energy-unit-wake"))?,
        complexity_scale: complexity,
        switching_scale: switching,
        mem_access_energy: p.energy_mem.ok_or_else(|| missing("energy-mem"))?,
        prefetch_energy: prefetch,
        flush_energy: flush,
    };
    let (port_cycles, queue_depth) = p.uncore_port.ok_or_else(|| missing("uncore-port"))?;
    Ok(MachineSpec {
        name: p.name.ok_or_else(|| missing("machine"))?,
        isa_name: p.isa_name.ok_or_else(|| missing("isa"))?,
        frequency_ghz: p.frequency_ghz.ok_or_else(|| missing("frequency-ghz"))?,
        max_cores: p.max_cores.ok_or_else(|| missing("max-cores"))?,
        smt_modes: p.smt_modes.ok_or_else(|| missing("smt"))?,
        pipes: p.pipes.ok_or_else(|| missing("pipes"))?,
        hierarchy: MemoryHierarchy {
            l1: p.l1.ok_or_else(|| missing("cache l1"))?,
            l2: p.l2.ok_or_else(|| missing("cache l2"))?,
            l3: p.l3.ok_or_else(|| missing("cache l3"))?,
            mem_latency_cycles: p.mem_latency.ok_or_else(|| missing("memory"))?,
        },
        uncore: UncoreGeometry {
            shared_l3: p.uncore_l3.ok_or_else(|| missing("uncore-l3"))?,
            mem_port_cycles: port_cycles,
            mem_queue_depth: queue_depth,
        },
        floorplan: p.floorplan.ok_or_else(|| missing("floorplan"))?,
        latency: p.latency.ok_or_else(|| missing("latency"))?,
        throughput: p.throughput.ok_or_else(|| missing("throughput"))?,
        energy,
        pmc_names: p.pmc_names,
        iprop_overrides: p.iprop_overrides,
    })
}

fn set_once<T>(slot: &mut Option<T>, value: T, head: &Tok) -> Result<(), SpecError> {
    if slot.is_some() {
        return Err(SpecError::at(head, format!("duplicate `{}` record", head.text)));
    }
    *slot = Some(value);
    Ok(())
}

fn parse_unit_energies(head: &Tok, rest: &[Tok]) -> Result<[(Unit, f64); 5], SpecError> {
    let mut f = Fields::new(head, rest)?;
    let mut arr = [(Unit::Fxu, 0.0); 5];
    for (i, (unit, key)) in [
        (Unit::Fxu, "fxu"),
        (Unit::Lsu, "lsu"),
        (Unit::Vsu, "vsu"),
        (Unit::Dfu, "dfu"),
        (Unit::Bru, "bru"),
    ]
    .iter()
    .enumerate()
    {
        arr[i] = (*unit, take_f64(&mut f, key)?);
    }
    f.finish()?;
    Ok(arr)
}

// ---------------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------------

fn unit_key(unit: Unit) -> &'static str {
    UNIT_KEYS.iter().find(|(u, _)| *u == unit).map(|(_, k)| *k).expect("unit has a key")
}

fn counter_key(id: CounterId) -> &'static str {
    COUNTER_KEYS.iter().find(|(c, _)| *c == id).map(|(_, k)| *k).expect("counter has a key")
}

/// Emits a [`MachineSpec`] in the canonical spec format (deterministic record order),
/// such that `parse(emit(spec)) == spec`.
pub fn emit_machine(spec: &MachineSpec) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ =
        writeln!(out, "# Machine specification; see EXPERIMENTS.md, \"Defining a new backend\".");
    let _ = writeln!(out, "machine \"{}\"", spec.name);
    let _ = writeln!(out, "isa {}", spec.isa_name);
    let _ = writeln!(out, "frequency-ghz {}", spec.frequency_ghz);
    let _ = writeln!(out, "max-cores {}", spec.max_cores);
    let smt: Vec<String> =
        spec.smt_modes.iter().map(|m| m.threads_per_core().to_string()).collect();
    let _ = writeln!(out, "smt {}", smt.join(" "));
    let pp = &spec.pipes;
    let _ = writeln!(
        out,
        "pipes dispatch={} completion={} fxu={} lsu={} vsu={} dfu={} bru={}",
        pp.dispatch_width, pp.completion_width, pp.fxu, pp.lsu, pp.vsu, pp.dfu, pp.bru
    );
    for (label, g) in
        [("l1", &spec.hierarchy.l1), ("l2", &spec.hierarchy.l2), ("l3", &spec.hierarchy.l3)]
    {
        let _ = writeln!(
            out,
            "cache {label} capacity={} line={} ways={} latency={}",
            g.capacity_bytes, g.line_bytes, g.ways, g.hit_latency_cycles
        );
    }
    let _ = writeln!(out, "memory latency={}", spec.hierarchy.mem_latency_cycles);
    let g = &spec.uncore.shared_l3;
    let _ = writeln!(
        out,
        "uncore-l3 capacity={} line={} ways={} latency={}",
        g.capacity_bytes, g.line_bytes, g.ways, g.hit_latency_cycles
    );
    let _ = writeln!(
        out,
        "uncore-port cycles={} queue={}",
        spec.uncore.mem_port_cycles, spec.uncore.mem_queue_depth
    );
    let plan: Vec<String> = spec
        .floorplan
        .iter()
        .map(|e| format!("{}={}", unit_key(e.unit), e.core_area_fraction))
        .collect();
    let _ = writeln!(out, "floorplan {}", plan.join(" "));
    let l = &spec.latency;
    let _ = writeln!(
        out,
        "latency simple={} simple-fp={} medium={} medium-fp={} long={} very-long={} \
         memory={} control={}",
        l.simple, l.simple_fp, l.medium, l.medium_fp, l.long, l.very_long, l.memory, l.control
    );
    let t = &spec.throughput;
    let _ = writeln!(
        out,
        "throughput sync={} prefetch={} store-fp={} store={} load-cracked={} load={} \
         decimal={} divide-fp={} divide={} sqrt={} integer-multiply={} fxu-or-lsu={} \
         privileged={} default={}",
        t.sync,
        t.prefetch,
        t.store_fp,
        t.store,
        t.load_cracked,
        t.load,
        t.decimal,
        t.divide_fp,
        t.divide,
        t.sqrt,
        t.integer_multiply,
        t.fxu_or_lsu,
        t.privileged,
        t.default_rate
    );
    let e = &spec.energy;
    let _ = writeln!(
        out,
        "energy idle={} uncore={} uncore-l3={} uncore-mem={} uncore-stall={} per-core={} \
         smt={} complexity={} switching={} prefetch={} flush={}",
        e.idle_power,
        e.uncore_power,
        e.uncore_l3_energy,
        e.uncore_mem_energy,
        e.uncore_stall_energy,
        e.per_core_power,
        e.smt_power,
        e.complexity_scale,
        e.switching_scale,
        e.prefetch_energy,
        e.flush_energy
    );
    let units = |arr: &[(Unit, f64); 5]| -> String {
        arr.iter().map(|(u, v)| format!("{}={v}", unit_key(*u))).collect::<Vec<_>>().join(" ")
    };
    let _ = writeln!(out, "energy-unit-base {}", units(&e.unit_base));
    let _ = writeln!(out, "energy-unit-wake {}", units(&e.unit_wake));
    let mem: Vec<String> = e
        .mem_access_energy
        .iter()
        .map(|(l, v)| {
            let key = MEM_KEYS.iter().find(|(ml, _)| ml == l).map(|(_, k)| *k).expect("mem key");
            format!("{key}={v}")
        })
        .collect();
    let _ = writeln!(out, "energy-mem {}", mem.join(" "));
    for (counter, name) in &spec.pmc_names {
        let _ = writeln!(out, "pmc {}={}", counter_key(*counter), name);
    }
    for o in &spec.iprop_overrides {
        let mut line = format!("iprop {}", o.mnemonic);
        if let Some(lat) = o.latency {
            let _ = write!(line, " latency={lat}");
        }
        if let Some(rt) = o.recip_throughput {
            let _ = write!(line, " rt={rt}");
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

// ---------------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------------

impl MachineSpec {
    /// Resolves the spec into a [`MicroArchitecture`] against an already-loaded ISA.
    ///
    /// `spec_digest` should fingerprint the spec texts (see [`backend`]); pass 0 for
    /// ad-hoc specs that never reach the measurement cache.
    ///
    /// # Errors
    ///
    /// Returns a located [`SpecError`] when an `iprop` override names a mnemonic the
    /// ISA does not define, and a position-less one when the ISA name mismatches.
    pub fn build(&self, isa: Isa, spec_digest: u128) -> Result<MicroArchitecture, SpecError> {
        let mut iprops = InstrPropsTable::new();
        for def in isa.instructions() {
            iprops.insert(InstrProps::new(
                def.mnemonic(),
                self.latency.derive(def),
                self.throughput.derive(def),
                def.units().to_vec(),
            ));
        }
        for o in &self.iprop_overrides {
            let props = iprops.get_mut(&o.mnemonic).ok_or_else(|| {
                SpecError::new(
                    o.line,
                    o.column,
                    format!("unknown mnemonic `{}` in iprop override", o.mnemonic),
                )
            })?;
            if let Some(lat) = o.latency {
                props.latency_cycles = lat;
            }
            if let Some(rt) = o.recip_throughput {
                props.recip_throughput = rt;
            }
        }
        let pmc_names = if self.pmc_names.is_empty() {
            CounterId::ALL.iter().map(|c| (*c, c.name().to_owned())).collect()
        } else {
            let mut names = self.pmc_names.clone();
            for id in CounterId::ALL {
                if !names.iter().any(|(c, _)| *c == id) {
                    names.push((id, id.name().to_owned()));
                }
            }
            names.sort_by_key(|(c, _)| CounterId::ALL.iter().position(|x| x == c));
            names
        };
        Ok(MicroArchitecture {
            name: self.name.clone(),
            isa,
            pipes: self.pipes.clone(),
            hierarchy: self.hierarchy.clone(),
            uncore: self.uncore.clone(),
            max_cores: self.max_cores,
            smt_modes: self.smt_modes.clone(),
            frequency_ghz: self.frequency_ghz,
            floorplan: self.floorplan.clone(),
            energy: self.energy.clone(),
            pmc_names,
            spec_digest,
            iprops,
        })
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The embedded machine-spec source for a named backend, if the workspace ships one.
pub fn machine_spec_source(name: &str) -> Option<&'static str> {
    MACHINE_SOURCES.iter().find(|(n, _)| *n == name).map(|(_, text)| *text)
}

/// Names of the backends shipped with the workspace.
pub fn backend_names() -> Vec<&'static str> {
    MACHINE_SOURCES.iter().map(|(n, _)| *n).collect()
}

/// Loads an embedded backend by name: parses its machine spec (once per process),
/// resolves its ISA and stamps the digest of both spec texts.
///
/// # Panics
///
/// Panics if the embedded spec fails to parse or build — shipped specs are covered by
/// the round-trip tests, so this only fires on a corrupted build.
pub fn backend(name: &str) -> Option<MicroArchitecture> {
    static CACHE: OnceLock<Mutex<HashMap<&'static str, MicroArchitecture>>> = OnceLock::new();
    let (key, source) = MACHINE_SOURCES.iter().find(|(n, _)| *n == name)?;
    let mut cache =
        CACHE.get_or_init(|| Mutex::new(HashMap::new())).lock().expect("cache never poisoned");
    if let Some(cached) = cache.get(key) {
        return Some(cached.clone());
    }
    let spec = parse_machine(source)
        .unwrap_or_else(|e| panic!("embedded machine spec `{name}` is invalid: {e}"));
    let isa_text = mp_isa::spec::isa_spec_source(&spec.isa_name)
        .unwrap_or_else(|| panic!("machine spec `{name}` names unknown ISA `{}`", spec.isa_name));
    let isa = mp_isa::spec::load_isa(&spec.isa_name).expect("isa source exists");
    let digest = spec_digest(&[isa_text, source]);
    let uarch = spec
        .build(isa, digest)
        .unwrap_or_else(|e| panic!("embedded machine spec `{name}` does not build: {e}"));
    cache.insert(key, uarch.clone());
    Some(uarch)
}

/// The POWER8-like second backend, loaded from `specs/power8.uarch`.
pub fn power8() -> MicroArchitecture {
    backend("power8").expect("power8 machine spec is embedded")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power7::power7;
    use mp_isa::power_isa::power_isa_v206b;

    #[test]
    fn power7_machine_spec_round_trips() {
        let spec = parse_machine(POWER7_UARCH_SPEC).expect("power7 uarch parses");
        let text = emit_machine(&spec);
        let reparsed = parse_machine(&text).expect("emitted spec parses");
        assert_eq!(reparsed, spec);
        assert_eq!(emit_machine(&reparsed), text);
    }

    #[test]
    fn power8_machine_spec_round_trips() {
        let spec = parse_machine(POWER8_UARCH_SPEC).expect("power8 uarch parses");
        let text = emit_machine(&spec);
        assert_eq!(parse_machine(&text).expect("emitted spec parses"), spec);
    }

    /// FNV-1a-128 of a canonical encoding of every field of a machine description
    /// except `spec_digest` (which the runtime's job-key test pins): the ISA as its
    /// canonical spec text, f64 values as bits and iprops in ISA order.
    fn description_fingerprint(m: &MicroArchitecture) -> u128 {
        use std::fmt::Write as _;
        let bits = f64::to_bits;
        let mut out = format!("machine {}\n{}", m.name, mp_isa::spec::emit_isa(&m.isa));
        let p = &m.pipes;
        let _ = writeln!(
            out,
            "pipes {} {} {} {} {} {} {}",
            p.dispatch_width, p.completion_width, p.fxu, p.lsu, p.vsu, p.dfu, p.bru
        );
        let h = &m.hierarchy;
        for g in [&h.l1, &h.l2, &h.l3, &m.uncore.shared_l3] {
            let _ = writeln!(
                out,
                "cache {} {} {} {} {}",
                g.level, g.capacity_bytes, g.line_bytes, g.ways, g.hit_latency_cycles
            );
        }
        let u = &m.uncore;
        let _ = writeln!(
            out,
            "memory {} port {} {}",
            h.mem_latency_cycles, u.mem_port_cycles, u.mem_queue_depth
        );
        let _ = writeln!(
            out,
            "cores {} smt {:?} ghz {:x}",
            m.max_cores,
            m.smt_modes,
            bits(m.frequency_ghz)
        );
        for entry in &m.floorplan {
            let _ =
                writeln!(out, "floorplan {:?} {:x}", entry.unit, bits(entry.core_area_fraction));
        }
        let e = &m.energy;
        out.push_str("energy");
        for v in [
            e.idle_power,
            e.uncore_power,
            e.uncore_l3_energy,
            e.uncore_mem_energy,
            e.uncore_stall_energy,
            e.per_core_power,
            e.smt_power,
            e.complexity_scale,
            e.switching_scale,
            e.prefetch_energy,
            e.flush_energy,
        ] {
            let _ = write!(out, " {:x}", bits(v));
        }
        for (unit, v) in e.unit_base.iter().chain(&e.unit_wake) {
            let _ = write!(out, " {unit:?}={:x}", bits(*v));
        }
        for (level, v) in &e.mem_access_energy {
            let _ = write!(out, " {level}={:x}", bits(*v));
        }
        out.push('\n');
        for (id, name) in &m.pmc_names {
            let _ = writeln!(out, "pmc {id:?} {name}");
        }
        let _ = writeln!(out, "iprops {}", m.iprops.len());
        for def in m.isa.instructions() {
            let p = m.props(def.mnemonic());
            let measured =
                [p.epi, p.avg_power, p.measured_ipc, p.measured_latency].map(|v| v.map(bits));
            let _ = writeln!(
                out,
                "iprop {} {} {:x} {:?} {measured:?}",
                p.mnemonic,
                p.latency_cycles,
                bits(p.recip_throughput),
                p.units
            );
        }
        mp_isa::spec::fnv1a_128(mp_isa::spec::FNV1A_128_OFFSET, out.as_bytes())
    }

    #[test]
    fn machine_description_fingerprints_are_pinned() {
        // Literal values: a change to a spec's records, or to the code that derives the
        // description from them (the latency and throughput rules, the pmc defaults),
        // shows up here even though the spec digest, which hashes only the texts, holds.
        const POWER7: u128 = 0x20ac_184a_38fd_e783_1c62_4fc2_502e_b10f;
        const POWER8: u128 = 0xbd72_72bc_ced2_8815_032c_00cc_0610_d361;
        assert_eq!(description_fingerprint(&power7()), POWER7, "spec-loaded POWER7");
        assert_eq!(description_fingerprint(&power8()), POWER8, "spec-loaded POWER8");
    }

    #[test]
    fn backends_have_distinct_digests() {
        let p7 = backend("power7").unwrap();
        let p8 = backend("power8").unwrap();
        assert_ne!(p7.spec_digest, 0);
        assert_ne!(p8.spec_digest, 0);
        assert_ne!(p7.spec_digest, p8.spec_digest);
    }

    #[test]
    fn power8_is_a_bigger_chip() {
        let p7 = power7();
        let p8 = power8();
        assert!(p8.max_cores > p7.max_cores);
        assert!(p8.smt_modes.contains(&SmtMode::Smt8));
        assert!(p8.hierarchy.l1.capacity_bytes > p7.hierarchy.l1.capacity_bytes);
        assert!(p8.uncore.shared_l3.capacity_bytes > p7.uncore.shared_l3.capacity_bytes);
        assert!(p8.pipes.dispatch_width > p7.pipes.dispatch_width);
        // Same ISA, so every instruction is simulable on both.
        assert_eq!(p8.isa, p7.isa);
        for def in p8.isa.instructions() {
            assert!(p8.iprops.get(def.mnemonic()).is_some());
        }
    }

    #[test]
    fn unknown_iprop_mnemonic_is_a_located_build_error() {
        let text = POWER7_UARCH_SPEC.to_owned() + "iprop nosuchinstr latency=3\n";
        let spec = parse_machine(&text).expect("parse succeeds; validation is at build");
        let isa = power_isa_v206b();
        let err = spec.build(isa, 0).unwrap_err();
        assert!(err.message.contains("unknown mnemonic `nosuchinstr`"));
        assert_eq!(err.line as usize, POWER7_UARCH_SPEC.lines().count() + 1);
        assert!(err.column > 1);
    }

    #[test]
    fn zero_latency_is_rejected_with_location() {
        let text = POWER7_UARCH_SPEC.replace("latency simple=1", "latency simple=0");
        let err = parse_machine(&text).unwrap_err();
        assert!(err.message.contains("must be at least 1"), "{}", err.message);
        assert!(err.line > 0 && err.column > 0);
    }

    #[test]
    fn iprop_overrides_apply() {
        let text = POWER7_UARCH_SPEC.to_owned() + "iprop add latency=7 rt=2.5\n";
        let spec = parse_machine(&text).unwrap();
        let uarch = spec.build(power_isa_v206b(), 0).unwrap();
        assert_eq!(uarch.props("add").latency_cycles, 7);
        assert!((uarch.props("add").recip_throughput - 2.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_record_is_located() {
        let err = parse_machine("machine \"X\"\nwidget a=1\n").unwrap_err();
        assert_eq!((err.line, err.column), (2, 1));
        assert!(err.message.contains("widget"));
    }
}
