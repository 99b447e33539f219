//! Crash-safe persistent measurement store: the disk tier of the experiment cache.
//!
//! An [`ExperimentSession`](crate::ExperimentSession) memoizes [`Measurement`]s in
//! memory; this module persists them so the cache survives restarts and is shared
//! across CI runs and figure binaries.  The store is content-addressed by the session's
//! 128-bit job key: each record lives at `<root>/<2-hex-shard>/<job-key-hex>.mmt`,
//! where the shard is the key's top byte (256-way fan-out keeps directories small).
//!
//! **Crash safety.**  Records are written to a unique temp file in the final shard
//! directory, `fsync`ed, then atomically renamed into place — a reader never observes a
//! half-written record under its final name.  Against the failure modes rename cannot
//! exclude (power loss before the data blocks hit the platter, bit rot, a stale store
//! from an older format or a different backend), every record carries a self-validating
//! header: magic + format version, the job key it claims to answer, the backend
//! `spec_digest` it was measured on, the payload length and an FNV-1a checksum of the
//! payload.  A record failing *any* check is moved to `<root>/quarantine/` (preserved
//! for post-mortems, out of the lookup path) and reported as a miss, so corruption
//! costs one recomputation — never a crash, never a wrong result.
//!
//! **Graceful degradation.**  Transient write failures are retried with a bounded,
//! deterministic backoff; if a write still fails the store downgrades itself to
//! in-memory-only operation for the rest of the process (one warning on stderr), so a
//! full disk or a read-only mount slows nothing down and corrupts nothing.
//!
//! All IO funnels through the [`faults`](crate::faults) hooks, so the
//! `MP_FAULTS`-driven suites can prove every one of these paths deterministically.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mp_sim::{EnergyBreakdown, Measurement, PowerTrace};
use mp_uarch::{CmpSmtConfig, CounterValues, SmtMode};

use crate::faults;

/// Environment variable naming the store root directory.  When set, every
/// [`ExperimentSession`](crate::ExperimentSession) opens the store as its second cache
/// tier automatically.
pub const STORE_DIR_ENV: &str = "MP_STORE_DIR";

/// Record magic: identifies the file type *and* the format version.  Bump the trailing
/// digit on any layout change — old records then fail the magic check, are quarantined
/// and transparently recomputed (no migration code, no misparse).
const MAGIC: &[u8; 8] = b"MPSTORE1";

/// Header: magic(8) + key(16) + digest(16) + payload_len(8) + checksum(8).
const HEADER_LEN: usize = 56;

/// Write retries before degrading (attempt delays: 1 ms, 2 ms, 4 ms — bounded and
/// deterministic, no jitter to keep failure schedules reproducible).
const WRITE_RETRIES: u32 = 3;

/// Hard cap on decoded vector lengths: no legitimate record exceeds it, and it bounds
/// the allocation a corrupt length field could otherwise request.
const MAX_VEC_LEN: u64 = 1 << 24;

/// FNV-1a over the payload bytes — cheap, dependency-free, and plenty to detect torn
/// tails and bit rot (this is an integrity check, not an adversarial MAC).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// Cumulative store statistics (all relaxed counters: they feed stderr summaries and
/// tests, never results).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads answered from disk.
    pub hits: u64,
    /// Loads that found no (valid) record.
    pub misses: u64,
    /// Records written.
    pub writes: u64,
    /// Records quarantined as torn/corrupt/stale.
    pub quarantined: u64,
    /// Write attempts retried after a transient failure.
    pub retries: u64,
}

/// A persistent, content-addressed measurement store.  See the module docs.
pub struct Store {
    root: PathBuf,
    digest: u128,
    /// Set once a write has exhausted its retries: the store stops writing (and says
    /// so once on stderr), turning persistent-IO trouble into a cache that is merely
    /// cold instead of a crashed experiment.
    degraded: AtomicBool,
    /// Uniquifies temp names within the process; combined with the PID for
    /// cross-process uniqueness.
    tmp_counter: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    quarantined: AtomicU64,
    retries: AtomicU64,
}

impl Store {
    /// Opens (creating if necessary) a store rooted at `root` for a backend whose
    /// machine spec digest is `digest`.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the root directory.
    pub fn open(root: impl Into<PathBuf>, digest: u128) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            digest,
            degraded: AtomicBool::new(false),
            tmp_counter: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        })
    }

    /// [`open`](Self::open) with the failure demoted to a stderr warning and `None` —
    /// what sessions use, so a bad store path degrades to in-memory-only operation
    /// instead of aborting an experiment.
    pub fn open_lenient(root: impl Into<PathBuf>, digest: u128) -> Option<Self> {
        let root = root.into();
        match Self::open(&root, digest) {
            Ok(store) => Some(store),
            Err(error) => {
                eprintln!(
                    "mp-runtime: cannot open measurement store at {}: {error}; running without \
                     a persistent store",
                    root.display()
                );
                None
            }
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether the store has degraded to in-memory-only operation.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }

    /// The stderr summary line experiment binaries print when a store is attached.
    /// (stderr, never stdout: a cold and a warm run must stay byte-identical on
    /// stdout — that is the crash-safety acceptance test.)
    pub fn summary_line(&self) -> String {
        let stats = self.stats();
        format!(
            "# Store[{}] — {} disk hits, {} misses, {} writes, {} quarantined, {} retries{}",
            self.root.display(),
            stats.hits,
            stats.misses,
            stats.writes,
            stats.quarantined,
            stats.retries,
            if self.is_degraded() { ", DEGRADED (in-memory only)" } else { "" }
        )
    }

    /// The record path of a job key: `<root>/<2-hex-shard>/<032x>.mmt`.
    fn record_path(&self, key: u128) -> PathBuf {
        self.root.join(format!("{:02x}", (key >> 120) as u8)).join(format!("{key:032x}.mmt"))
    }

    /// Loads the measurement for `key`, or `None` on a miss (including a quarantined
    /// torn/corrupt/stale record).  Never panics on malformed bytes.
    pub fn load(&self, key: u128) -> Option<Measurement> {
        let started = std::time::Instant::now();
        let result = self.load_inner(key);
        if mp_telemetry::enabled() {
            mp_telemetry::histogram("store.load_ns", started.elapsed().as_nanos() as u64);
            mp_telemetry::counter("store.hit", u64::from(result.is_some()));
            mp_telemetry::counter("store.miss", u64::from(result.is_none()));
        }
        match result.is_some() {
            true => self.hits.fetch_add(1, Ordering::Relaxed),
            false => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn load_inner(&self, key: u128) -> Option<Measurement> {
        let path = self.record_path(key);
        if let Some(error) = faults::io_error("store.read") {
            // An unreadable record is a miss, not a failure: the job recomputes.
            eprintln!("mp-runtime: store read of {} failed: {error}", path.display());
            return None;
        }
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(error) if error.kind() == io::ErrorKind::NotFound => return None,
            Err(error) => {
                eprintln!("mp-runtime: store read of {} failed: {error}", path.display());
                return None;
            }
        };
        match decode_record(&bytes, key, self.digest) {
            Ok(measurement) => Some(measurement),
            Err(reason) => {
                self.quarantine(&path, &reason);
                None
            }
        }
    }

    /// Moves a failed record out of the lookup path into `<root>/quarantine/`,
    /// preserving it for post-mortems.  Best-effort: if even the move fails the record
    /// is deleted, and if *that* fails the next load simply re-quarantines.
    fn quarantine(&self, path: &Path, reason: &str) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        mp_telemetry::counter("store.corrupt", 1);
        let quarantine_dir = self.root.join("quarantine");
        let moved = fs::create_dir_all(&quarantine_dir).and_then(|()| {
            let name = path.file_name().unwrap_or_else(|| std::ffi::OsStr::new("record.mmt"));
            fs::rename(path, quarantine_dir.join(name))
        });
        if moved.is_err() {
            let _ = fs::remove_file(path);
        }
        eprintln!(
            "mp-runtime: quarantined store record {} ({reason}); recomputing",
            path.display()
        );
    }

    /// Persists the measurement for `key`.  Failures degrade, never propagate: the
    /// memory tier keeps the session correct either way.
    pub fn save(&self, key: u128, measurement: &Measurement) {
        if self.degraded.load(Ordering::Relaxed) {
            return;
        }
        let started = std::time::Instant::now();
        let mut bytes = encode_record(key, self.digest, measurement);
        // An injected torn write models a crash after rename but before the payload's
        // tail reached the platter: the truncated record goes through the normal
        // atomic path and the *next load* must quarantine and recompute it.
        if let Some(keep) = faults::torn_write("store.write", bytes.len()) {
            bytes.truncate(keep);
        }
        for attempt in 0..=WRITE_RETRIES {
            let outcome = match faults::io_error("store.write") {
                Some(injected) => Err(injected),
                None => self.write_record(key, &bytes),
            };
            match outcome {
                Ok(()) => {
                    self.writes.fetch_add(1, Ordering::Relaxed);
                    if mp_telemetry::enabled() {
                        mp_telemetry::counter("store.write", 1);
                        mp_telemetry::histogram(
                            "store.write_ns",
                            started.elapsed().as_nanos() as u64,
                        );
                    }
                    return;
                }
                Err(error) if attempt < WRITE_RETRIES => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    mp_telemetry::counter("store.retry", 1);
                    eprintln!(
                        "mp-runtime: store write for key {key:032x} failed (attempt {}): {error}; \
                         retrying",
                        attempt + 1
                    );
                    // Bounded deterministic backoff: 1 ms, 2 ms, 4 ms.
                    std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
                }
                Err(error) => {
                    self.degraded.store(true, Ordering::Relaxed);
                    mp_telemetry::counter("store.degraded", 1);
                    eprintln!(
                        "mp-runtime: store write for key {key:032x} failed after {} attempts: \
                         {error}; degrading to in-memory-only operation",
                        WRITE_RETRIES + 1
                    );
                }
            }
        }
    }

    /// One atomic write attempt: temp file in the final shard directory (same
    /// filesystem, so the rename is atomic), write, `fsync`, rename.
    fn write_record(&self, key: u128, bytes: &[u8]) -> io::Result<()> {
        let path = self.record_path(key);
        let shard = path.parent().expect("record paths always have a shard parent");
        fs::create_dir_all(shard)?;
        let tmp = shard.join(format!(
            "{key:032x}.{}-{}.tmp",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            // Flush the data before the rename publishes the name: a record must never
            // be durable-by-name but empty-by-content.  (The directory entry itself is
            // not fsynced; losing the *name* in a crash just means a recompute.)
            file.sync_all()?;
            drop(file);
            fs::rename(&tmp, &path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }
}

// ---------------------------------------------------------------------------
// Record encoding.
// ---------------------------------------------------------------------------
//
// Fixed-width little-endian fields throughout; floats as IEEE-754 bit patterns
// (`to_bits`/`from_bits`), so encode → decode is the identity for every value
// including negative zero and the RNG-noise extremes.  The encoding is versioned by
// MAGIC, not self-describing: decode failures of any kind mean "quarantine and
// recompute", which is always available because the simulator is the source of truth.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// The counter fields of one [`CounterValues`], in record order.  Kept as an explicit
/// list so adding a PMC is a compile-visible format change (bump MAGIC alongside).
fn counter_fields(c: &CounterValues) -> [u64; 18] {
    [
        c.cycles,
        c.instr_completed,
        c.fxu_ops,
        c.lsu_ops,
        c.vsu_ops,
        c.dfu_ops,
        c.bru_ops,
        c.loads,
        c.stores,
        c.prefetches,
        c.l1_hits,
        c.l2_hits,
        c.l3_hits,
        c.mem_accesses,
        c.l3_accesses,
        c.l3_misses,
        c.bw_stalls,
        0, // reserved (keeps the stride stable for one future counter)
    ]
}

fn counters_from_fields(f: &[u64; 18]) -> CounterValues {
    CounterValues {
        cycles: f[0],
        instr_completed: f[1],
        fxu_ops: f[2],
        lsu_ops: f[3],
        vsu_ops: f[4],
        dfu_ops: f[5],
        bru_ops: f[6],
        loads: f[7],
        stores: f[8],
        prefetches: f[9],
        l1_hits: f[10],
        l2_hits: f[11],
        l3_hits: f[12],
        mem_accesses: f[13],
        l3_accesses: f[14],
        l3_misses: f[15],
        bw_stalls: f[16],
    }
}

fn encode_payload(m: &Measurement) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(64 + m.per_thread().len() * 18 * 8 + m.trace().samples().len() * 8);
    put_u32(&mut out, m.config().cores);
    put_u32(&mut out, m.config().smt.threads_per_core());
    put_u64(&mut out, m.cycles());
    put_u64(&mut out, m.per_thread().len() as u64);
    for counters in m.per_thread() {
        for field in counter_fields(counters) {
            put_u64(&mut out, field);
        }
    }
    put_f64(&mut out, m.average_power());
    put_u64(&mut out, m.trace().cycles_per_sample());
    put_u64(&mut out, m.trace().samples().len() as u64);
    for &sample in m.trace().samples() {
        put_f64(&mut out, sample);
    }
    let gt = m.ground_truth();
    for component in [gt.idle, gt.uncore, gt.cmp, gt.smt, gt.dynamic_compute, gt.dynamic_memory] {
        put_f64(&mut out, component);
    }
    out
}

/// A bounds-checked little-endian reader; every accessor returns `None` past the end,
/// so decoding truncated bytes can only ever yield a clean "corrupt" verdict.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn u128(&mut self) -> Option<u128> {
        self.take(16).map(|b| u128::from_le_bytes(b.try_into().expect("16-byte slice")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_payload(bytes: &[u8]) -> Option<Measurement> {
    let mut cur = Cursor { bytes, pos: 0 };
    let cores = cur.u32()?;
    let smt = SmtMode::from_threads(cur.u32()?)?;
    if cores == 0 {
        return None;
    }
    let config = CmpSmtConfig::new(cores, smt);
    let cycles = cur.u64()?;
    let thread_count = cur.u64()?;
    // `Measurement::new` asserts this invariant; check it here so a corrupt count is a
    // quarantine, not a panic.
    if thread_count != u64::from(config.threads()) || thread_count > MAX_VEC_LEN {
        return None;
    }
    let mut per_thread = Vec::with_capacity(thread_count as usize);
    for _ in 0..thread_count {
        let mut fields = [0u64; 18];
        for field in &mut fields {
            *field = cur.u64()?;
        }
        per_thread.push(counters_from_fields(&fields));
    }
    let avg_power = cur.f64()?;
    let cycles_per_sample = cur.u64()?;
    let sample_count = cur.u64()?;
    if sample_count > MAX_VEC_LEN {
        return None;
    }
    let mut samples = Vec::with_capacity(sample_count as usize);
    for _ in 0..sample_count {
        samples.push(cur.f64()?);
    }
    let ground_truth = EnergyBreakdown {
        idle: cur.f64()?,
        uncore: cur.f64()?,
        cmp: cur.f64()?,
        smt: cur.f64()?,
        dynamic_compute: cur.f64()?,
        dynamic_memory: cur.f64()?,
    };
    if !cur.exhausted() {
        return None;
    }
    Some(Measurement::new(
        config,
        cycles,
        per_thread,
        avg_power,
        PowerTrace::new(samples, cycles_per_sample),
        ground_truth,
    ))
}

/// Serialises one record: header (magic, key, digest, payload length, checksum) then
/// payload.
fn encode_record(key: u128, digest: u128, measurement: &Measurement) -> Vec<u8> {
    let payload = encode_payload(measurement);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    put_u64(&mut out, payload.len() as u64);
    put_u64(&mut out, fnv1a(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Validates and decodes one record.  `Err` carries the human-readable reason logged
/// with the quarantine.
fn decode_record(bytes: &[u8], key: u128, digest: u128) -> Result<Measurement, String> {
    let mut cur = Cursor { bytes, pos: 0 };
    match cur.take(MAGIC.len()) {
        Some(magic) if magic == MAGIC => {}
        Some(_) => return Err("bad magic / unknown format version".to_owned()),
        None => return Err("truncated header".to_owned()),
    }
    let record_key = cur.u128().ok_or("truncated header")?;
    if record_key != key {
        return Err(format!("key mismatch (record claims {record_key:032x})"));
    }
    let record_digest = cur.u128().ok_or("truncated header")?;
    if record_digest != digest {
        return Err("stale record: backend spec digest mismatch".to_owned());
    }
    let payload_len = cur.u64().ok_or("truncated header")?;
    let checksum = cur.u64().ok_or("truncated header")?;
    let payload = &bytes[HEADER_LEN..];
    if payload_len != payload.len() as u64 {
        return Err(format!(
            "payload length mismatch (header says {payload_len}, file has {})",
            payload.len()
        ));
    }
    if fnv1a(payload) != checksum {
        return Err("payload checksum mismatch".to_owned());
    }
    decode_payload(payload).ok_or_else(|| "payload does not decode".to_owned())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique, self-cleaning temp directory (no tempfile crate in this workspace).
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(label: &str) -> Self {
            static NONCE: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "mp-store-{label}-{}-{}",
                std::process::id(),
                NONCE.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&path).expect("temp dir creates");
            Self(path)
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_measurement(threads: u32) -> Measurement {
        let config = match threads {
            1 => CmpSmtConfig::new(1, SmtMode::Smt1),
            2 => CmpSmtConfig::new(1, SmtMode::Smt2),
            _ => CmpSmtConfig::new(2, SmtMode::Smt2),
        };
        let per_thread = (0..config.threads())
            .map(|i| CounterValues {
                cycles: 1000 + u64::from(i),
                instr_completed: 900 - u64::from(i),
                lsu_ops: 17,
                l1_hits: 12,
                bw_stalls: u64::from(i) * 3,
                ..Default::default()
            })
            .collect();
        Measurement::new(
            config,
            1000,
            per_thread,
            123.456,
            PowerTrace::new(vec![1.5, -0.0, 2.25, f64::MIN_POSITIVE], 250),
            EnergyBreakdown {
                idle: 40.0,
                uncore: 12.5,
                cmp: 3.25,
                smt: 0.5,
                dynamic_compute: 55.125,
                dynamic_memory: 9.75,
            },
        )
    }

    #[test]
    fn record_roundtrip_is_identity() {
        for threads in [1, 2, 4] {
            let m = sample_measurement(threads);
            let record = encode_record(7, 9, &m);
            assert_eq!(decode_record(&record, 7, 9).expect("round-trips"), m);
        }
    }

    #[test]
    fn every_truncation_of_a_record_is_rejected_not_panicked() {
        let m = sample_measurement(2);
        let record = encode_record(42, 1, &m);
        for len in 0..record.len() {
            assert!(
                decode_record(&record[..len], 42, 1).is_err(),
                "a {len}-byte prefix of a {}-byte record must fail validation",
                record.len()
            );
        }
    }

    #[test]
    fn header_mismatches_are_named() {
        let m = sample_measurement(1);
        let record = encode_record(5, 77, &m);
        assert!(decode_record(&record, 6, 77).expect_err("wrong key").contains("key mismatch"));
        assert!(decode_record(&record, 5, 78).expect_err("wrong digest").contains("stale"));
        let mut flipped = record.clone();
        *flipped.last_mut().expect("record is non-empty") ^= 0x01;
        assert!(decode_record(&flipped, 5, 77).expect_err("bit rot").contains("checksum"));
        let mut wrong_magic = record;
        wrong_magic[7] = b'9';
        assert!(decode_record(&wrong_magic, 5, 77).expect_err("future version").contains("magic"));
    }

    #[test]
    fn save_then_load_roundtrips_through_the_filesystem() {
        let dir = TempDir::new("roundtrip");
        // Another test's fault plan would inject IO errors into this store.
        let _faults = crate::faults::tests::serial();
        let store = Store::open(dir.path(), 11).expect("opens");
        let m = sample_measurement(4);
        store.save(0xfeed_beef, &m);
        assert_eq!(store.load(0xfeed_beef).expect("hit"), m);
        assert_eq!(store.load(0xdead_beef), None, "unknown key is a miss");
        let stats = store.stats();
        assert_eq!((stats.writes, stats.hits, stats.misses), (1, 1, 1));
        // The record landed in its 2-hex shard (top byte of the key).
        assert!(dir.path().join("00").join(format!("{:032x}.mmt", 0xfeed_beefu128)).exists());
    }

    #[test]
    fn corrupt_records_are_quarantined_and_reported_as_misses() {
        let dir = TempDir::new("quarantine");
        // Another test's fault plan would inject IO errors into this store.
        let _faults = crate::faults::tests::serial();
        let store = Store::open(dir.path(), 3).expect("opens");
        let m = sample_measurement(1);
        store.save(1, &m);
        let path = store.record_path(1);
        let mut bytes = fs::read(&path).expect("record exists");
        bytes.truncate(bytes.len() / 2);
        fs::write(&path, &bytes).expect("tear the record");
        assert_eq!(store.load(1), None, "torn record is a miss");
        assert!(!path.exists(), "torn record left the lookup path");
        assert!(
            dir.path().join("quarantine").join(format!("{:032x}.mmt", 1u128)).exists(),
            "torn record preserved in quarantine"
        );
        assert_eq!(store.stats().quarantined, 1);
        // Recompute-and-save heals the entry.
        store.save(1, &m);
        assert_eq!(store.load(1).expect("healed"), m);
    }

    #[test]
    fn stale_digest_records_are_evicted() {
        let dir = TempDir::new("digest");
        // Another test's fault plan would inject IO errors into this store.
        let _faults = crate::faults::tests::serial();
        let old = Store::open(dir.path(), 100).expect("opens");
        old.save(9, &sample_measurement(1));
        let new = Store::open(dir.path(), 200).expect("reopens with a new backend digest");
        assert_eq!(new.load(9), None, "a record from another spec digest never answers");
        assert_eq!(new.stats().quarantined, 1);
        assert!(!new.record_path(9).exists());
    }

    #[test]
    fn write_failures_degrade_without_propagating() {
        let dir = TempDir::new("degrade");
        let store = Store::open(dir.path(), 1).expect("opens");
        let _guard = crate::faults::tests::serial();
        let ambient = faults::plan();
        faults::set_plan(Some(faults::FaultPlan {
            seed: 5,
            io_error: 1.0,
            ..faults::FaultPlan::default()
        }));
        store.save(2, &sample_measurement(1));
        faults::set_plan(ambient);
        assert!(store.is_degraded(), "exhausted retries degrade the store");
        assert_eq!(store.stats().retries, WRITE_RETRIES as u64);
        assert_eq!(store.stats().writes, 0);
        // Degraded stores stop writing silently; loads still work (and miss).
        store.save(3, &sample_measurement(1));
        assert_eq!(store.stats().writes, 0);
        assert!(store.summary_line().contains("DEGRADED"));
    }

    #[test]
    fn injected_torn_writes_are_recovered_on_the_next_load() {
        let dir = TempDir::new("torn");
        let store = Store::open(dir.path(), 1).expect("opens");
        let m = sample_measurement(2);
        {
            let _guard = crate::faults::tests::serial();
            let ambient = faults::plan();
            faults::set_plan(Some(faults::FaultPlan {
                seed: 8,
                torn_write: 1.0,
                ..faults::FaultPlan::default()
            }));
            store.save(4, &m);
            faults::set_plan(ambient);
        }
        assert_eq!(store.stats().writes, 1, "the torn write itself succeeds");
        assert_eq!(store.load(4), None, "the torn record fails validation");
        assert_eq!(store.stats().quarantined, 1);
        store.save(4, &m);
        assert_eq!(store.load(4).expect("healed after recompute"), m);
    }
}
