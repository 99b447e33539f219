//! Declarative ISA specifications: a small line-oriented text format describing every
//! instruction of an ISA, plus the loader and emitter that make those files the single
//! source of truth for the machine descriptions.
//!
//! The paper's framework reads the ISA and micro-architecture definitions from plain
//! data files so that re-targeting the characterization is a data problem, not a code
//! problem.  This module provides that layer for the reproduction: `specs/power7.isa`
//! (generated once from the historical hand-coded table, now authoritative) is parsed
//! at first use and cached; a second backend is a second file, not a second crate.
//!
//! # File format
//!
//! One record per line; `#` starts a comment; blank lines are ignored.
//!
//! ```text
//! isa "PowerISA-2.06B"
//! inst add Xo 31/266 "Add" flags=INTEGER issue=FxuOrLsu
//! inst lwz D 32 "Load Word and Zero" flags=LOAD|INTEGER issue=Lsu lat=Memory w=32 \
//!      mem=4 ops=gpr.w,d16,gpr.r
//! ```
//!
//! (shown wrapped; real records are single lines).  An `inst` record carries the
//! mnemonic, encoding format, primary opcode (with `/xo` extended opcode when
//! non-zero), a quoted description, and `key=value` attribute fields: `flags` (names
//! from [`InstrFlags`] joined with `|`), `issue` (the [`IssueClass`]), `lat`
//! ([`LatencyClass`], default `Simple`), `w` (operand width in bits, default 64), `cx`
//! (complexity, default 1), `mem` (memory bytes, default 0), `ops` (comma-joined
//! operand tokens) and `stress` (extra stressed units beyond the issue class).
//!
//! Operand tokens: `gpr.r`/`fpr.w`/`xer.rw`/... (register file dot access mode),
//! `crf.w` (condition register field), `s16`/`u5` (signed/unsigned immediates),
//! `d16`/`d14` (displacements) and `t24`/`t14` (branch targets).
//!
//! Errors carry the 1-based line and column of the offending token, so a typo in a
//! spec file points at itself.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use crate::def::{Format, InstructionDef, IssueClass, LatencyClass, OperandWidth, Unit};
use crate::flags::InstrFlags;
use crate::isa::Isa;
use crate::operand::OperandKind;
use crate::register::{RegAccess, RegisterFile};

/// The embedded POWER7 ISA specification — the authoritative definition of the
/// PowerISA-2.06B subset (`specs/power7.isa` at the repository root).
pub const POWER7_ISA_SPEC: &str = include_str!("../../../specs/power7.isa");

/// Embedded ISA specification sources, by backend ISA name.
const ISA_SOURCES: &[(&str, &str)] = &[("power7", POWER7_ISA_SPEC)];

/// A diagnostic from parsing a specification file: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub column: u32,
    /// Human readable description of the problem.
    pub message: String,
}

impl SpecError {
    /// Creates an error pinned to a location.
    pub fn new(line: u32, column: u32, message: impl Into<String>) -> Self {
        Self { line, column, message: message.into() }
    }

    /// Creates an error pinned to a token.
    pub fn at(tok: &Tok, message: impl Into<String>) -> Self {
        Self::new(tok.line, tok.column, message)
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: {}", self.line, self.column, self.message)
    }
}

impl Error for SpecError {}

/// One token of a specification line: a bare word or a quoted string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token text; for quoted strings, the unescaped content.
    pub text: String,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub column: u32,
    /// Whether the token was a `"..."` string.
    pub quoted: bool,
}

impl Tok {
    /// Splits a `key=value` token; `None` if the token carries no `=`.
    ///
    /// The returned column points at the value part, for value-level diagnostics.
    pub fn split_kv(&self) -> Option<(&str, Tok)> {
        if self.quoted {
            return None;
        }
        let (key, value) = self.text.split_once('=')?;
        let value_col = self.column + key.len() as u32 + 1;
        Some((
            key,
            Tok { text: value.to_owned(), line: self.line, column: value_col, quoted: false },
        ))
    }

    /// Parses the token as an integer of type `T`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] pinned to this token when the text is not a valid
    /// number for `T`.
    pub fn parse_int<T: std::str::FromStr>(&self, what: &str) -> Result<T, SpecError> {
        self.text
            .parse::<T>()
            .map_err(|_| SpecError::at(self, format!("invalid {what} `{}`", self.text)))
    }

    /// Parses the token as an `f64`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] pinned to this token when the text is not a number.
    pub fn parse_f64(&self, what: &str) -> Result<f64, SpecError> {
        self.text
            .parse::<f64>()
            .map_err(|_| SpecError::at(self, format!("invalid {what} `{}`", self.text)))
    }
}

/// Tokenises a specification file into lines of tokens.
///
/// Comment (`# ...`) and blank lines are dropped; every returned line has at least one
/// token.
///
/// # Errors
///
/// Returns a [`SpecError`] for unterminated quoted strings.
pub fn lex(text: &str) -> Result<Vec<Vec<Tok>>, SpecError> {
    let mut lines = Vec::new();
    for (line_idx, raw) in text.lines().enumerate() {
        let line_no = line_idx as u32 + 1;
        let mut toks: Vec<Tok> = Vec::new();
        let mut chars = raw.char_indices().peekable();
        while let Some(&(start, c)) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
                continue;
            }
            if c == '#' {
                break;
            }
            let column = start as u32 + 1;
            if c == '"' {
                chars.next();
                let mut text = String::new();
                let mut closed = false;
                while let Some((_, c)) = chars.next() {
                    match c {
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\\' => match chars.next() {
                            Some((_, esc @ ('"' | '\\'))) => text.push(esc),
                            _ => {
                                return Err(SpecError::new(
                                    line_no,
                                    column,
                                    "invalid escape in quoted string (only \\\" and \\\\)",
                                ))
                            }
                        },
                        other => text.push(other),
                    }
                }
                if !closed {
                    return Err(SpecError::new(line_no, column, "unterminated quoted string"));
                }
                toks.push(Tok { text, line: line_no, column, quoted: true });
            } else {
                let mut text = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_whitespace() || c == '#' || c == '"' {
                        break;
                    }
                    text.push(c);
                    chars.next();
                }
                toks.push(Tok { text, line: line_no, column, quoted: false });
            }
        }
        if !toks.is_empty() {
            lines.push(toks);
        }
    }
    Ok(lines)
}

/// Interns a string, leaking it exactly once per distinct content.
///
/// Instruction definitions carry `&'static str` mnemonics and descriptions so that the
/// hand-written tables could be plain literals; spec-loaded ISAs obtain equivalent
/// statics here.  Repeated parses of the same spec (or of overlapping specs) reuse the
/// same leaked allocation, so the leak is bounded by the total distinct vocabulary.
pub fn intern(s: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("intern table never poisoned");
    match set.get(s) {
        Some(interned) => interned,
        None => {
            let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

// ---------------------------------------------------------------------------
// Name tables for the enums that appear in spec files.
// ---------------------------------------------------------------------------

const FORMATS: &[(Format, &str)] = &[
    (Format::D, "D"),
    (Format::Ds, "Ds"),
    (Format::X, "X"),
    (Format::Xo, "Xo"),
    (Format::A, "A"),
    (Format::M, "M"),
    (Format::Xx3, "Xx3"),
    (Format::Vx, "Vx"),
    (Format::B, "B"),
    (Format::I, "I"),
    (Format::Xl, "Xl"),
    (Format::Xfx, "Xfx"),
    (Format::Z, "Z"),
];

const ISSUES: &[(IssueClass, &str)] = &[
    (IssueClass::Fxu, "Fxu"),
    (IssueClass::Lsu, "Lsu"),
    (IssueClass::FxuOrLsu, "FxuOrLsu"),
    (IssueClass::Vsu, "Vsu"),
    (IssueClass::Dfu, "Dfu"),
    (IssueClass::Bru, "Bru"),
];

const LATENCIES: &[(LatencyClass, &str)] = &[
    (LatencyClass::Simple, "Simple"),
    (LatencyClass::Medium, "Medium"),
    (LatencyClass::Long, "Long"),
    (LatencyClass::VeryLong, "VeryLong"),
    (LatencyClass::Memory, "Memory"),
    (LatencyClass::Control, "Control"),
];

const UNITS: &[(Unit, &str)] = &[
    (Unit::Ifu, "Ifu"),
    (Unit::Isu, "Isu"),
    (Unit::Fxu, "Fxu"),
    (Unit::Lsu, "Lsu"),
    (Unit::Vsu, "Vsu"),
    (Unit::Dfu, "Dfu"),
    (Unit::Bru, "Bru"),
];

const REG_FILES: &[(RegisterFile, &str)] = &[
    (RegisterFile::Gpr, "gpr"),
    (RegisterFile::Fpr, "fpr"),
    (RegisterFile::Vsr, "vsr"),
    (RegisterFile::Vr, "vr"),
    (RegisterFile::Cr, "cr"),
    (RegisterFile::Xer, "xer"),
    (RegisterFile::Lr, "lr"),
    (RegisterFile::Ctr, "ctr"),
    (RegisterFile::Fpscr, "fpscr"),
    (RegisterFile::Spr, "spr"),
];

fn name_of<T: Copy + PartialEq>(table: &[(T, &'static str)], value: T) -> &'static str {
    table.iter().find(|(v, _)| *v == value).map(|(_, n)| *n).expect("value has a spec name")
}

fn value_of<T: Copy>(table: &[(T, &'static str)], tok: &Tok, what: &str) -> Result<T, SpecError> {
    table
        .iter()
        .find(|(_, n)| *n == tok.text)
        .map(|(v, _)| *v)
        .ok_or_else(|| SpecError::at(tok, format!("unknown {what} `{}`", tok.text)))
}

/// Spec name of a [`Unit`], shared with the machine-spec parser.
pub fn unit_name(unit: Unit) -> &'static str {
    name_of(UNITS, unit)
}

/// Parses a [`Unit`] spec name.
///
/// # Errors
///
/// Returns a [`SpecError`] pinned to the token for unknown unit names.
pub fn unit_value(tok: &Tok) -> Result<Unit, SpecError> {
    value_of(UNITS, tok, "unit")
}

fn access_name(access: RegAccess) -> &'static str {
    match access {
        RegAccess::Read => "r",
        RegAccess::Write => "w",
        RegAccess::ReadWrite => "rw",
    }
}

fn access_value(text: &str) -> Option<RegAccess> {
    match text {
        "r" => Some(RegAccess::Read),
        "w" => Some(RegAccess::Write),
        "rw" => Some(RegAccess::ReadWrite),
        _ => None,
    }
}

fn width_name(width: OperandWidth) -> &'static str {
    match width {
        OperandWidth::W8 => "8",
        OperandWidth::W16 => "16",
        OperandWidth::W32 => "32",
        OperandWidth::W64 => "64",
        OperandWidth::W128 => "128",
    }
}

fn width_value(tok: &Tok) -> Result<OperandWidth, SpecError> {
    match tok.text.as_str() {
        "8" => Ok(OperandWidth::W8),
        "16" => Ok(OperandWidth::W16),
        "32" => Ok(OperandWidth::W32),
        "64" => Ok(OperandWidth::W64),
        "128" => Ok(OperandWidth::W128),
        other => Err(SpecError::at(tok, format!("unknown operand width `{other}`"))),
    }
}

fn flags_name(flags: InstrFlags) -> String {
    InstrFlags::NAMES
        .iter()
        .filter(|(flag, _)| flags.contains(*flag))
        .map(|(_, name)| *name)
        .collect::<Vec<_>>()
        .join("|")
}

fn flags_value(tok: &Tok) -> Result<InstrFlags, SpecError> {
    let mut flags = InstrFlags::empty();
    for name in tok.text.split('|') {
        let flag = InstrFlags::NAMES
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(f, _)| *f)
            .ok_or_else(|| SpecError::at(tok, format!("unknown instruction flag `{name}`")))?;
        flags |= flag;
    }
    Ok(flags)
}

fn operand_token(kind: &OperandKind) -> String {
    match *kind {
        OperandKind::Reg { file, access } => {
            format!("{}.{}", name_of(REG_FILES, file), access_name(access))
        }
        OperandKind::CrField { access } => format!("crf.{}", access_name(access)),
        OperandKind::Imm { bits, signed } => {
            format!("{}{bits}", if signed { "s" } else { "u" })
        }
        OperandKind::Displacement { bits } => format!("d{bits}"),
        OperandKind::BranchTarget { bits } => format!("t{bits}"),
    }
}

fn operand_value(tok: &Tok, text: &str) -> Result<OperandKind, SpecError> {
    if let Some((file, access)) = text.split_once('.') {
        let access = access_value(access)
            .ok_or_else(|| SpecError::at(tok, format!("unknown access mode `{access}`")))?;
        if file == "crf" {
            return Ok(OperandKind::CrField { access });
        }
        let file = REG_FILES
            .iter()
            .find(|(_, n)| *n == file)
            .map(|(f, _)| *f)
            .ok_or_else(|| SpecError::at(tok, format!("unknown register file `{file}`")))?;
        return Ok(OperandKind::Reg { file, access });
    }
    let (head, bits) = text.split_at(1);
    let bits: u8 =
        bits.parse().map_err(|_| SpecError::at(tok, format!("invalid operand token `{text}`")))?;
    match head {
        "s" => Ok(OperandKind::Imm { bits, signed: true }),
        "u" => Ok(OperandKind::Imm { bits, signed: false }),
        "d" => Ok(OperandKind::Displacement { bits }),
        "t" => Ok(OperandKind::BranchTarget { bits }),
        _ => Err(SpecError::at(tok, format!("unknown operand token `{text}`"))),
    }
}

// ---------------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------------

fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

/// Emits an [`Isa`] in the canonical spec format.
///
/// The output is deterministic and minimal (defaulted attributes are omitted), so
/// `emit(parse(text)) == text` for canonically formatted files — the property the
/// round-trip tests pin.
///
/// # Panics
///
/// Panics if a definition's stressed-unit list does not start with its issue-class
/// units — the builder API cannot produce such a definition.
pub fn emit_isa(isa: &Isa) -> String {
    let mut out = String::new();
    out.push_str(
        "# Generated ISA specification; see EXPERIMENTS.md, \"Defining a new backend\".\n",
    );
    out.push_str(&format!("isa {}\n", quote(isa.name())));
    for def in isa.instructions() {
        out.push_str(&emit_inst(def));
        out.push('\n');
    }
    out
}

fn emit_inst(def: &InstructionDef) -> String {
    let mut line =
        format!("inst {} {} {}", def.mnemonic(), name_of(FORMATS, def.format()), def.opcode());
    if def.extended_opcode() != 0 {
        line.push_str(&format!("/{}", def.extended_opcode()));
    }
    line.push(' ');
    line.push_str(&quote(def.description()));
    if !def.flags().is_empty() {
        line.push_str(&format!(" flags={}", flags_name(def.flags())));
    }
    line.push_str(&format!(" issue={}", name_of(ISSUES, def.issue_class())));
    let issue_units = def.issue_class().units();
    assert!(
        def.units().starts_with(issue_units),
        "{}: stressed units must start with the issue-class units",
        def.mnemonic()
    );
    let extra: Vec<&str> = def.units()[issue_units.len()..].iter().map(|u| unit_name(*u)).collect();
    if !extra.is_empty() {
        line.push_str(&format!(" stress={}", extra.join(",")));
    }
    if def.latency_class() != LatencyClass::Simple {
        line.push_str(&format!(" lat={}", name_of(LATENCIES, def.latency_class())));
    }
    if def.operand_width() != OperandWidth::W64 {
        line.push_str(&format!(" w={}", width_name(def.operand_width())));
    }
    if def.complexity() != 1.0 {
        line.push_str(&format!(" cx={}", def.complexity()));
    }
    if def.mem_bytes() != 0 {
        line.push_str(&format!(" mem={}", def.mem_bytes()));
    }
    if !def.operands().is_empty() {
        let ops: Vec<String> = def.operands().iter().map(operand_token).collect();
        line.push_str(&format!(" ops={}", ops.join(",")));
    }
    line
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses an ISA specification.
///
/// # Errors
///
/// Returns a [`SpecError`] with the line and column of the first problem: lexical
/// errors, unknown record heads, missing or malformed attributes, duplicate mnemonics
/// and overlapping `(format, opcode, xo)` encodings.
pub fn parse_isa(text: &str) -> Result<Isa, SpecError> {
    let lines = lex(text)?;
    let mut name: Option<String> = None;
    let mut defs: Vec<InstructionDef> = Vec::new();
    // Encoding overlap detection.  The Power ISA deliberately aliases encodings across
    // mnemonics (OE-bit forms like `mulld`/`mulldo`, extended mnemonics like
    // `bc`/`bdnz`, preferred forms like `ori`/`nop`), so sharing format + opcode + xo
    // alone is legal; what is rejected is a full clone — two mnemonics whose encoding
    // *and* every semantic attribute coincide, which is always an authoring error.
    let mut encodings: HashMap<String, (String, u32)> = HashMap::new();

    for line in &lines {
        let head = &line[0];
        match head.text.as_str() {
            "isa" => {
                let tok =
                    line.get(1).ok_or_else(|| SpecError::at(head, "`isa` record needs a name"))?;
                if name.replace(tok.text.clone()).is_some() {
                    return Err(SpecError::at(head, "duplicate `isa` record"));
                }
            }
            "inst" => {
                let def = parse_inst(line)?;
                let key = encoding_key(&def);
                if let Some((other, other_line)) = encodings.get(&key) {
                    return Err(SpecError::at(
                        head,
                        format!(
                            "overlapping encoding: `{}` and `{}` (line {}) share {} {}/{} \
                             and are attribute-identical",
                            def.mnemonic(),
                            other,
                            other_line,
                            name_of(FORMATS, def.format()),
                            def.opcode(),
                            def.extended_opcode()
                        ),
                    ));
                }
                encodings.insert(key, (def.mnemonic().to_owned(), head.line));
                defs.push(def);
            }
            other => {
                return Err(SpecError::at(head, format!("unknown record `{other}`")));
            }
        }
    }

    let name = name.ok_or_else(|| SpecError::new(1, 1, "missing `isa` record"))?;
    Isa::new(name, defs).map_err(|e| SpecError::new(1, 1, e.to_string()))
}

/// Everything about a definition except its mnemonic and description — the identity
/// used by the overlapping-encoding check.
fn encoding_key(def: &InstructionDef) -> String {
    format!(
        "{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}",
        def.format(),
        def.opcode(),
        def.extended_opcode(),
        def.flags(),
        def.issue_class(),
        def.units(),
        def.latency_class(),
        def.operand_width(),
        def.complexity(),
        def.mem_bytes(),
        def.operands()
    )
}

fn parse_inst(line: &[Tok]) -> Result<InstructionDef, SpecError> {
    let head = &line[0];
    let mnemonic =
        line.get(1).ok_or_else(|| SpecError::at(head, "`inst` record needs a mnemonic"))?;
    let format_tok =
        line.get(2).ok_or_else(|| SpecError::at(head, "`inst` record needs a format"))?;
    let format = value_of(FORMATS, format_tok, "format")?;
    let opcode_tok =
        line.get(3).ok_or_else(|| SpecError::at(head, "`inst` record needs an opcode"))?;
    let (opcode, xo) = match opcode_tok.text.split_once('/') {
        Some((op, xo)) => {
            let op_tok = Tok { text: op.to_owned(), ..opcode_tok.clone() };
            let xo_tok = Tok {
                text: xo.to_owned(),
                column: opcode_tok.column + op.len() as u32 + 1,
                ..opcode_tok.clone()
            };
            (op_tok.parse_int::<u8>("opcode")?, xo_tok.parse_int::<u16>("extended opcode")?)
        }
        None => (opcode_tok.parse_int::<u8>("opcode")?, 0),
    };
    let desc = line
        .get(4)
        .filter(|t| t.quoted)
        .ok_or_else(|| SpecError::at(head, "`inst` record needs a quoted description"))?;

    let mut builder = InstructionDef::builder(intern(&mnemonic.text), format, opcode)
        .description(intern(&desc.text))
        .xo(xo);
    let mut issue: Option<IssueClass> = None;
    let mut stress: Vec<Unit> = Vec::new();
    let mut seen_keys: HashSet<String> = HashSet::new();

    for tok in &line[5..] {
        let (key, value) = tok
            .split_kv()
            .ok_or_else(|| SpecError::at(tok, format!("expected key=value, got `{}`", tok.text)))?;
        if !seen_keys.insert(key.to_owned()) {
            return Err(SpecError::at(tok, format!("duplicate attribute `{key}`")));
        }
        match key {
            "flags" => builder = builder.flags(flags_value(&value)?),
            "issue" => issue = Some(value_of(ISSUES, &value, "issue class")?),
            "stress" => {
                for unit in value.text.split(',') {
                    let unit_tok = Tok { text: unit.to_owned(), ..value.clone() };
                    stress.push(unit_value(&unit_tok)?);
                }
            }
            "lat" => builder = builder.latency(value_of(LATENCIES, &value, "latency class")?),
            "w" => builder = builder.width(width_value(&value)?),
            "cx" => {
                let cx = value.parse_f64("complexity")?;
                if cx <= 0.0 {
                    return Err(SpecError::at(&value, "complexity must be positive"));
                }
                builder = builder.complexity(cx);
            }
            "mem" => builder = builder.mem_bytes(value.parse_int::<u8>("memory byte count")?),
            "ops" => {
                for op in value.text.split(',') {
                    builder = builder.operand(operand_value(&value, op)?);
                }
            }
            other => {
                return Err(SpecError::at(tok, format!("unknown attribute `{other}`")));
            }
        }
    }

    let issue =
        issue.ok_or_else(|| SpecError::at(head, "`inst` record needs an issue= attribute"))?;
    builder = builder.issue(issue);
    for unit in stress {
        builder = builder.also_stresses(unit);
    }
    // The builder panics on inconsistent records (memory flags without mem=, no
    // stressed units); convert those into located diagnostics.
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| builder.build()));
    built.map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("inconsistent instruction definition");
        SpecError::at(head, msg)
    })
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The embedded spec source for a named ISA, if the workspace ships one.
pub fn isa_spec_source(name: &str) -> Option<&'static str> {
    ISA_SOURCES.iter().find(|(n, _)| *n == name).map(|(_, text)| *text)
}

/// Loads an embedded ISA specification by name, parsing it at most once per process.
///
/// # Panics
///
/// Panics if the embedded spec fails to parse — shipped specs are covered by the
/// round-trip tests, so this only fires on a corrupted build.
pub fn load_isa(name: &str) -> Option<Isa> {
    static CACHE: OnceLock<Mutex<HashMap<&'static str, Isa>>> = OnceLock::new();
    let (key, source) = ISA_SOURCES.iter().find(|(n, _)| *n == name)?;
    let mut cache =
        CACHE.get_or_init(|| Mutex::new(HashMap::new())).lock().expect("cache never poisoned");
    Some(
        cache
            .entry(key)
            .or_insert_with(|| {
                parse_isa(source)
                    .unwrap_or_else(|e| panic!("embedded ISA spec `{name}` is invalid: {e}"))
            })
            .clone(),
    )
}

/// The POWER7 ISA, loaded from the embedded `specs/power7.isa`.
pub fn power7_isa() -> Isa {
    load_isa("power7").expect("power7 ISA spec is embedded")
}

/// The FNV-1a-128 offset basis: the state [`fnv1a_128`] starts from.
pub const FNV1A_128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;

/// Folds `bytes` into a running 128-bit FNV-1a hash (start from [`FNV1A_128_OFFSET`]).
///
/// Deterministic across processes, platforms and toolchains (unlike `DefaultHasher`),
/// so its digests can key records that persist across runs.
pub fn fnv1a_128(mut hash: u128, bytes: &[u8]) -> u128 {
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    for &byte in bytes {
        hash ^= u128::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A 128-bit FNV-1a digest of spec text, used to fingerprint backend identities.
pub fn spec_digest(parts: &[&str]) -> u128 {
    parts.iter().fold(FNV1A_128_OFFSET, |hash, part| {
        // Separator so ("ab","c") and ("a","bc") differ.
        fnv1a_128(fnv1a_128(hash, part.as_bytes()), &[0x1f])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_isa_handcoded::power_isa_v206b_handcoded;

    #[test]
    fn lexer_tracks_lines_columns_and_strings() {
        let lines = lex("# comment\nisa \"A B\"\n  inst add # trailing\n").unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0][0].text, "isa");
        assert_eq!(lines[0][0].line, 2);
        assert_eq!(lines[0][1].text, "A B");
        assert!(lines[0][1].quoted);
        assert_eq!(lines[1][0].column, 3);
        assert_eq!(lines[1][0].line, 3);
    }

    #[test]
    fn lexer_rejects_unterminated_strings_with_location() {
        let err = lex("isa \"oops\n").unwrap_err();
        assert_eq!((err.line, err.column), (1, 5));
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn unknown_attribute_is_located() {
        let text = "isa \"t\"\ninst add Xo 31/266 \"Add\" issue=Fxu bogus=1\n";
        let err = parse_isa(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.column, 36);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn unknown_latency_class_is_located() {
        let text = "isa \"t\"\ninst add Xo 31 \"Add\" issue=Fxu lat=Sluggish\n";
        let err = parse_isa(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown latency class `Sluggish`"));
        // The column points at the value, not the key.
        assert_eq!(err.column, 36);
    }

    #[test]
    fn overlapping_encodings_are_rejected() {
        let text = "isa \"t\"\n\
                    inst add Xo 31/266 \"Add\" issue=Fxu\n\
                    inst add2 Xo 31/266 \"Add too\" issue=Fxu\n";
        let err = parse_isa(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("overlapping encoding"), "{}", err.message);
        assert!(err.message.contains("attribute-identical"));
        assert!(err.message.contains("add"));
    }

    #[test]
    fn memory_instruction_without_mem_bytes_is_a_located_error() {
        let text = "isa \"t\"\ninst lbad D 32 \"Load\" flags=LOAD issue=Lsu ops=gpr.w,d16,gpr.r\n";
        let err = parse_isa(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("mem_bytes"));
    }

    #[test]
    fn emitted_power7_reparses_identically() {
        let handcoded = power_isa_v206b_handcoded();
        let text = emit_isa(&handcoded);
        let parsed = parse_isa(&text).expect("emitted spec parses");
        assert_eq!(parsed.name(), handcoded.name());
        assert_eq!(parsed.len(), handcoded.len());
        for (a, b) in parsed.instructions().zip(handcoded.instructions()) {
            assert_eq!(a, b, "{} definitions diverge", b.mnemonic());
        }
        // And the canonical form is a fixed point.
        assert_eq!(emit_isa(&parsed), text);
    }

    #[test]
    fn embedded_power7_spec_matches_the_handcoded_table() {
        let loaded = power7_isa();
        let handcoded = power_isa_v206b_handcoded();
        assert_eq!(loaded.name(), handcoded.name());
        assert_eq!(loaded.len(), handcoded.len());
        for (a, b) in loaded.instructions().zip(handcoded.instructions()) {
            assert_eq!(a, b, "{} definitions diverge", b.mnemonic());
        }
    }

    #[test]
    fn digest_is_stable_and_separator_sensitive() {
        assert_eq!(spec_digest(&["a", "b"]), spec_digest(&["a", "b"]));
        assert_ne!(spec_digest(&["ab", "c"]), spec_digest(&["a", "bc"]));
        assert_ne!(spec_digest(&["a"]), spec_digest(&["b"]));
    }

    /// Regenerates `specs/power7.isa` from the hand-coded comparison table.
    ///
    /// Run explicitly after editing the table:
    /// `cargo test -p mp-isa -- --ignored regenerate_power7_isa_spec`
    #[test]
    #[ignore = "writes specs/power7.isa; run explicitly to regenerate"]
    fn regenerate_power7_isa_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/power7.isa");
        std::fs::write(path, emit_isa(&power_isa_v206b_handcoded())).expect("spec written");
    }
}
