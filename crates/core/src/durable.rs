//! Durable execution: crash-safe checkpoint/resume, deadline budgets, and
//! graceful degradation for the long-running workloads.
//!
//! The heavy entry points — Monte Carlo margining, design-grid sweeps, and
//! the differential oracle — are exactly the jobs that die to a kill/OOM/
//! reboot and restart from zero. This module gives them three production
//! disciplines, all riding on the deterministic chunking of
//! [`crate::parallel`]:
//!
//! 1. **Journaled checkpoints** ([`CheckpointStore`]): completed chunks are
//!    committed to a versioned, checksummed binary journal via
//!    write-temp → fsync → rename, so the file on disk is always either the
//!    previous journal or the new one — never a torn hybrid. Because every
//!    chunk's result is a pure function of `(seed, chunk_index)` (the
//!    per-chunk RNG streams of [`ssn_numeric::rng::Rng::from_seed_and_stream`]),
//!    a run killed at any chunk boundary and resumed is **bit-identical**
//!    to an uninterrupted run, at any thread count.
//! 2. **Deadline budgets** ([`RunBudget`]): a wall-clock budget checked at
//!    chunk boundaries and — through [`ssn_numeric::cancel`] — inside the
//!    RKF45 and MNA transient inner loops, so `--deadline=30s` yields a
//!    typed partial result instead of a hung or truncated run.
//! 3. **Declared degradation**: on overrun the workload wrappers step down
//!    a fixed ladder (shrink sample count → coarsen grid → closed-form
//!    only), and every downgrade is recorded as a [`DegradeEvent`] in the
//!    run report and as a telemetry counter. Nothing degrades silently.
//!
//! # Journal format (version 1)
//!
//! All integers little-endian; all checksums 64-bit FNV-1a ([`fnv1a64`]).
//!
//! ```text
//! magic    8 B   "SSNCKPT1"
//! version  4 B   u32, currently 1
//! header:
//!   kind_len u32, kind bytes      workload tag ("montecarlo", ...)
//!   seed        u64
//!   params_hash u64               digest of every run parameter
//!   n_items     u64
//!   chunk_size  u64
//!   elapsed_ns  u64               wall time accumulated by prior sessions
//!   n_records   u64
//!   header_checksum u64           over bytes [8, here)
//! records (n_records times):
//!   chunk_index u64
//!   payload_len u64, payload bytes
//!   record_checksum u64           over chunk_index bytes ++ payload
//! ```
//!
//! A journal that fails *any* structural check — magic, version, header or
//! record checksum, record bounds, trailing bytes — is rejected with a
//! typed [`SsnError::Checkpoint`] naming the failed check and offering a
//! fresh start. A checkpoint is never "mostly trusted".
//!
//! Floats are stored via [`f64::to_bits`] and restored via
//! [`f64::from_bits`], so resumed values round-trip bit-exactly (NaN
//! payloads included).

use crate::error::{CheckpointErrorKind, SsnError};
use crate::faults;
use crate::parallel::{try_run_chunked, ChunkError, ExecPolicy, ExecStats};
use crate::storage;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Journal magic: "SSNCKPT1".
const MAGIC: &[u8; 8] = b"SSNCKPT1";
/// Journal format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// 64-bit FNV-1a over `bytes` — the journal's checksum function. Not
/// cryptographic; it defends against torn writes and bit rot, not
/// adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a digest over a run's parameters, used as the journal's
/// `params_hash` so a checkpoint can never be resumed under different
/// settings. Floats contribute their exact bit patterns.
#[derive(Debug, Clone)]
pub struct ParamDigest {
    h: u64,
}

impl ParamDigest {
    /// Starts a digest tagged with the workload kind.
    pub fn new(kind: &str) -> Self {
        let mut d = Self {
            h: 0xcbf2_9ce4_8422_2325,
        };
        d.push_bytes(kind.as_bytes());
        d
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` parameter into the digest.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes());
        self
    }

    /// Folds an `f64` parameter into the digest, bit-exactly.
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.push_u64(v.to_bits())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

/// Identity of a durable run: everything that determines its results.
/// A checkpoint commits to all five fields; resume refuses any mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Workload tag (`"montecarlo"`, `"sweep-grid"`, `"validate"`, ...).
    pub kind: &'static str,
    /// The run's RNG seed (0 for non-randomized workloads).
    pub seed: u64,
    /// [`ParamDigest`] over every remaining parameter.
    pub params_hash: u64,
    /// Total work items.
    pub n_items: usize,
    /// Items per chunk (the checkpoint granularity).
    pub chunk_size: usize,
}

impl RunSpec {
    /// Number of chunks the items split into.
    pub fn n_chunks(&self) -> usize {
        self.n_items.div_ceil(self.chunk_size.max(1))
    }

    /// The item range of chunk `c` (same boundaries as [`crate::parallel`]).
    pub fn range(&self, c: usize) -> Range<usize> {
        let size = self.chunk_size.max(1);
        c * size..((c + 1) * size).min(self.n_items)
    }
}

// ---------------------------------------------------------------------------
// Run budget
// ---------------------------------------------------------------------------

/// A cooperative wall-clock budget for a run.
///
/// Checked (cheaply) at every chunk boundary by the durable runner, and —
/// when a real deadline is armed — polled inside the RKF45/MNA inner loops
/// via [`ssn_numeric::cancel`], so even a single long transient cannot
/// overshoot by more than one timestep's work.
#[derive(Debug, Clone)]
pub struct RunBudget {
    deadline: Option<Instant>,
    cancelled: Arc<AtomicBool>,
    /// Deterministic test budget: remaining `expired()` checks before the
    /// budget reports exhaustion. Wall-clock deadlines are inherently racy
    /// to test; this isn't.
    check_quota: Option<Arc<AtomicI64>>,
}

impl RunBudget {
    /// No budget: `expired()` is always false.
    pub fn unlimited() -> Self {
        Self {
            deadline: None,
            cancelled: Arc::new(AtomicBool::new(false)),
            check_quota: None,
        }
    }

    /// A wall-clock budget of `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        Self {
            deadline: Instant::now().checked_add(budget),
            cancelled: Arc::new(AtomicBool::new(false)),
            check_quota: None,
        }
    }

    /// A deterministic budget that expires after `checks` calls to
    /// [`RunBudget::expired`]. The durable runner performs exactly one
    /// check per scheduled chunk, so under [`ExecPolicy::serial`] this
    /// expires at an exact, reproducible chunk boundary — the tool the
    /// degradation tests are built on.
    pub fn expire_after_checks(checks: usize) -> Self {
        Self {
            deadline: None,
            cancelled: Arc::new(AtomicBool::new(false)),
            check_quota: Some(Arc::new(AtomicI64::new(
                i64::try_from(checks).unwrap_or(i64::MAX),
            ))),
        }
    }

    /// Cancels the run unconditionally (used by the simulated-crash path).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// `true` once the budget is exhausted. Each call consumes one unit of
    /// a [`RunBudget::expire_after_checks`] quota.
    pub fn expired(&self) -> bool {
        if self.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        if let Some(quota) = &self.check_quota {
            return quota.fetch_sub(1, Ordering::SeqCst) <= 0;
        }
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Arms the calling thread's kernel deadline for the lifetime of the
    /// returned guard; the run's workers take it over through
    /// [`crate::faults::RunScope`]. A no-op without a wall-clock deadline:
    /// the deterministic test quota must not leak into kernels, whose poll
    /// counts are not reproducible.
    pub fn arm_kernels(&self) -> Option<ssn_numeric::cancel::DeadlineGuard> {
        self.deadline
            .map(|d| ssn_numeric::cancel::arm(Some(d.saturating_duration_since(Instant::now()))))
    }

    /// Wall-clock time left before the deadline (zero once past it).
    /// `None` when the budget has no wall-clock deadline — unlimited and
    /// check-quota budgets both report `None`, since neither maps to a
    /// socket- or kernel-level timeout.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

impl Default for RunBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

/// Little-endian byte sink for chunk payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) -> &mut Self {
        self.put_u64(v as u64)
    }

    /// Appends an `f64` bit-exactly.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.put_u64(v.to_bits())
    }

    /// Appends a length-prefixed string.
    pub fn put_str(&mut self, s: &str) -> &mut Self {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// The accumulated bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

fn payload_err(detail: impl Into<String>) -> SsnError {
    SsnError::checkpoint("", CheckpointErrorKind::Corrupt, detail)
}

/// Little-endian byte source for chunk payloads; every read is
/// bounds-checked and a short payload is a typed corruption error, never a
/// panic or a silently wrong value.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reads from `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SsnError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(payload_err(format!(
                "payload truncated: wanted {n} byte(s) at offset {} of {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Reads a `u8`.
    pub fn take_u8(&mut self) -> Result<u8, SsnError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SsnError> {
        let b = self.take(8)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(b);
        Ok(u64::from_le_bytes(le))
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn take_usize(&mut self) -> Result<usize, SsnError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| payload_err("payload value exceeds usize range"))
    }

    /// Reads an `f64` bit-exactly.
    pub fn take_f64(&mut self) -> Result<f64, SsnError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed string.
    pub fn take_str(&mut self) -> Result<String, SsnError> {
        let len = self.take_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| payload_err("payload string not UTF-8"))
    }

    /// `true` once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Journal lock
// ---------------------------------------------------------------------------

/// An exclusive, crash-recoverable lock on a checkpoint journal.
///
/// Two processes resuming (and committing to) the same journal would race
/// each other's write-temp/rename commits and could interleave torn state;
/// the durable runner therefore takes `<journal>.lock` for the duration of
/// every checkpointed run. The guard holds an OS advisory lock on that file
/// ([`std::fs::File::try_lock`]) and records the holder's PID in it for
/// diagnostics:
///
/// * **Held by a live process** — acquisition fails with the typed
///   [`SsnError::Checkpoint`] `{kind: Locked}` naming the holder, never a
///   silent double-resume.
/// * **Left behind by a dead process** (`kill -9`, OOM, reboot) — the
///   kernel released the dead holder's lock, so the next acquirer simply
///   takes it, whatever the file holds. Liveness is the kernel's to know:
///   no PID is ever probed, so there is no window between "the holder is
///   dead" and "the lock is mine" for a contender to slip into.
///
/// Dropping the guard unlinks the lock file, then releases the lock; an
/// abnormal exit leaves an unlocked file for the next acquirer.
#[derive(Debug)]
pub struct JournalLock {
    lock_path: PathBuf,
    /// The locked handle; closing it releases the lock.
    _file: std::fs::File,
}

/// `<journal>.lock` — appended, not `with_extension`, so `run.ckpt` locks
/// as `run.ckpt.lock` and distinct journals never share a lock path.
fn lock_path_for(journal: &Path) -> PathBuf {
    let mut os = journal.as_os_str().to_os_string();
    os.push(".lock");
    PathBuf::from(os)
}

impl JournalLock {
    /// Acquires the exclusive lock for `journal`, taking over lock files
    /// left by dead processes.
    ///
    /// # Errors
    ///
    /// [`SsnError::Checkpoint`] with [`CheckpointErrorKind::Locked`] when a
    /// live process holds the lock, or [`CheckpointErrorKind::Io`] for
    /// filesystem failures.
    pub fn acquire(journal: &Path) -> Result<Self, SsnError> {
        let lock_path = lock_path_for(journal);
        let pid_line = format!("{}\n", std::process::id());
        let locked = storage::RetryPolicy::default()
            .run(|| storage::io().lock_file(&lock_path, pid_line.as_bytes()))
            .map_err(|e| io_err(&lock_path, "lock", &e))?;
        match locked {
            Some(file) => Ok(Self {
                lock_path,
                _file: file,
            }),
            None => {
                // The holder's PID, when it has landed, names it.
                let holder = storage::io()
                    .read(&lock_path)
                    .ok()
                    .and_then(|b| String::from_utf8(b).ok())
                    .and_then(|s| s.trim().parse::<u32>().ok());
                let detail = match holder {
                    Some(pid) => format!("held by live process {pid}"),
                    None => "held by another live process".to_string(),
                };
                Err(SsnError::checkpoint(
                    lock_path.display().to_string(),
                    CheckpointErrorKind::Locked,
                    detail,
                ))
            }
        }
    }

    /// The lock file's path (diagnostics and tests).
    pub fn path(&self) -> &Path {
        &self.lock_path
    }
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        // Unlink while still holding: a contender that opened this file
        // and wins its lock after the handle closes sees it is no longer
        // at the path, and starts over on a fresh one.
        std::fs::remove_file(&self.lock_path).ok();
    }
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

/// The journaled checkpoint store: committed chunk payloads plus the run
/// identity they belong to. See the module docs for the on-disk format.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    kind: String,
    seed: u64,
    params_hash: u64,
    n_items: u64,
    chunk_size: u64,
    prior_elapsed: Duration,
    records: BTreeMap<u64, Vec<u8>>,
}

fn io_err(path: &Path, op: &str, e: &std::io::Error) -> SsnError {
    SsnError::checkpoint(
        path.display().to_string(),
        CheckpointErrorKind::Io,
        format!("{op}: {e}"),
    )
}

/// The directory holding `path`, for post-rename directory fsync. A bare
/// relative filename has the empty parent, which cannot be opened — that
/// means the current directory.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

impl CheckpointStore {
    /// A fresh, empty store for `spec`; nothing touches disk until the
    /// first [`CheckpointStore::commit`].
    pub fn create(path: PathBuf, spec: &RunSpec) -> Self {
        Self {
            path,
            kind: spec.kind.to_string(),
            seed: spec.seed,
            params_hash: spec.params_hash,
            n_items: spec.n_items as u64,
            chunk_size: spec.chunk_size as u64,
            prior_elapsed: Duration::ZERO,
            records: BTreeMap::new(),
        }
    }

    /// Loads and fully validates a journal. Every structural defect —
    /// truncation, bad magic, unknown version, checksum mismatch, record
    /// bounds, trailing bytes — is a typed [`SsnError::Checkpoint`].
    pub fn load(path: &Path) -> Result<Self, SsnError> {
        let bytes = storage::RetryPolicy::default()
            .run(|| storage::io().read(path))
            .map_err(|e| io_err(path, "read", &e))?;
        let p = path.display().to_string();
        let corrupt =
            |detail: String| SsnError::checkpoint(&p, CheckpointErrorKind::Corrupt, detail);

        let mut r = ByteReader::new(&bytes);
        let magic = r
            .take(8)
            .map_err(|_| corrupt("shorter than the 8-byte magic".into()))?;
        if magic != MAGIC {
            return Err(corrupt(format!(
                "bad magic {magic:02x?}: not an SSN checkpoint journal"
            )));
        }
        let version = {
            let b = r
                .take(4)
                .map_err(|_| corrupt("truncated before the version field".into()))?;
            u32::from_le_bytes([b[0], b[1], b[2], b[3]])
        };
        if version != FORMAT_VERSION {
            return Err(SsnError::checkpoint(
                &p,
                CheckpointErrorKind::VersionMismatch,
                format!("journal format version {version}, this build reads {FORMAT_VERSION}"),
            ));
        }

        let wrap = |e: SsnError| match e {
            SsnError::Checkpoint { detail, .. } => corrupt(detail),
            other => other,
        };
        let kind = r.take_str().map_err(wrap)?;
        let seed = r.take_u64().map_err(wrap)?;
        let params_hash = r.take_u64().map_err(wrap)?;
        let n_items = r.take_u64().map_err(wrap)?;
        let chunk_size = r.take_u64().map_err(wrap)?;
        let elapsed_ns = r.take_u64().map_err(wrap)?;
        let n_records = r.take_u64().map_err(wrap)?;
        let header_end = r.pos;
        let stored_header_sum = r.take_u64().map_err(wrap)?;
        let computed = fnv1a64(&bytes[8..header_end]);
        if stored_header_sum != computed {
            return Err(corrupt(format!(
                "header checksum mismatch (stored {stored_header_sum:016x}, computed {computed:016x})"
            )));
        }

        let mut records = BTreeMap::new();
        for i in 0..n_records {
            let chunk = r
                .take_u64()
                .map_err(|_| corrupt(format!("truncated in record {i}")))?;
            let len = r
                .take_usize()
                .map_err(|_| corrupt(format!("truncated in record {i}")))?;
            let payload = r
                .take(len)
                .map_err(|_| corrupt(format!("record {i} payload truncated")))?;
            let stored_sum = r
                .take_u64()
                .map_err(|_| corrupt(format!("record {i} missing its checksum")))?;
            let mut sum_input = chunk.to_le_bytes().to_vec();
            sum_input.extend_from_slice(payload);
            let computed = fnv1a64(&sum_input);
            if stored_sum != computed {
                return Err(corrupt(format!(
                    "record {i} (chunk {chunk}) checksum mismatch"
                )));
            }
            if records.insert(chunk, payload.to_vec()).is_some() {
                return Err(corrupt(format!("chunk {chunk} recorded twice")));
            }
        }
        if !r.is_empty() {
            return Err(corrupt(format!(
                "{} trailing byte(s) after the last record",
                bytes.len() - r.pos
            )));
        }

        Ok(Self {
            path: path.to_path_buf(),
            kind,
            seed,
            params_hash,
            n_items,
            chunk_size,
            prior_elapsed: Duration::from_nanos(elapsed_ns),
            records,
        })
    }

    /// Refuses a journal whose identity does not match this run, field by
    /// field — a checkpoint from different parameters must never be
    /// resumed into a wrong-but-plausible result.
    pub fn verify_spec(&self, spec: &RunSpec) -> Result<(), SsnError> {
        let mismatch = |field: &str, found: String, want: String| {
            SsnError::checkpoint(
                self.path.display().to_string(),
                CheckpointErrorKind::SpecMismatch,
                format!("{field}: journal has {found}, this run wants {want}"),
            )
        };
        if self.kind != spec.kind {
            return Err(mismatch("kind", self.kind.clone(), spec.kind.to_string()));
        }
        if self.seed != spec.seed {
            return Err(mismatch(
                "seed",
                self.seed.to_string(),
                spec.seed.to_string(),
            ));
        }
        if self.params_hash != spec.params_hash {
            return Err(mismatch(
                "params_hash",
                format!("{:016x}", self.params_hash),
                format!("{:016x}", spec.params_hash),
            ));
        }
        if self.n_items != spec.n_items as u64 {
            return Err(mismatch(
                "n_items",
                self.n_items.to_string(),
                spec.n_items.to_string(),
            ));
        }
        if self.chunk_size != spec.chunk_size as u64 {
            return Err(mismatch(
                "chunk_size",
                self.chunk_size.to_string(),
                spec.chunk_size.to_string(),
            ));
        }
        let n_chunks = spec.n_chunks() as u64;
        if let Some((&chunk, _)) = self.records.iter().next_back() {
            if chunk >= n_chunks {
                return Err(SsnError::checkpoint(
                    self.path.display().to_string(),
                    CheckpointErrorKind::Corrupt,
                    format!("record for chunk {chunk} but the run has only {n_chunks} chunk(s)"),
                ));
            }
        }
        Ok(())
    }

    /// Adds (or replaces) chunk `c`'s payload in memory; call
    /// [`CheckpointStore::commit`] to persist.
    pub fn record(&mut self, c: usize, payload: Vec<u8>) {
        self.records.insert(c as u64, payload);
    }

    /// Committed chunk payloads, keyed by chunk index.
    pub fn records(&self) -> &BTreeMap<u64, Vec<u8>> {
        &self.records
    }

    /// Wall time accumulated by the sessions that wrote this journal.
    pub fn prior_elapsed(&self) -> Duration {
        self.prior_elapsed
    }

    fn serialize(&self, elapsed: Duration) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(&self.kind)
            .put_u64(self.seed)
            .put_u64(self.params_hash)
            .put_u64(self.n_items)
            .put_u64(self.chunk_size)
            .put_u64(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX))
            .put_u64(self.records.len() as u64);
        let header = w.into_vec();

        let mut bytes = Vec::with_capacity(header.len() + 64);
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&header);
        let header_sum = fnv1a64(&bytes[8..]);
        bytes.extend_from_slice(&header_sum.to_le_bytes());

        for (&chunk, payload) in &self.records {
            bytes.extend_from_slice(&chunk.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            bytes.extend_from_slice(payload);
            let mut sum_input = chunk.to_le_bytes().to_vec();
            sum_input.extend_from_slice(payload);
            bytes.extend_from_slice(&fnv1a64(&sum_input).to_le_bytes());
        }
        bytes
    }

    /// Atomically persists the journal: write `<path>.ckpt-tmp`, fsync,
    /// rename over `path`, then fsync the parent directory so the rename
    /// itself is durable (without it, a power cut after the rename can
    /// still lose the committed file on journaling filesystems). A crash
    /// at any point leaves either the previous journal or the new one —
    /// never a hybrid. `elapsed` is the run's total wall time so far
    /// (prior sessions plus this one). Transient I/O faults are retried
    /// with backoff; the whole sequence restarts from a fresh temp write,
    /// so a torn or unsynced attempt is never renamed into place.
    pub fn commit(&self, elapsed: Duration) -> Result<(), SsnError> {
        self.commit_io(elapsed)
            .map_err(|e| io_err(&self.path, "commit", &e))
    }

    /// [`CheckpointStore::commit`]'s I/O with the raw `io::Error` kept, so
    /// the durable runner can classify the failure (a simulated power cut
    /// vs. a disk fault worth degrading over).
    fn commit_io(&self, elapsed: Duration) -> std::io::Result<()> {
        let bytes = self.serialize(elapsed);
        let tmp = self.path.with_extension("ckpt-tmp");
        let dir = parent_dir(&self.path);
        storage::RetryPolicy::default().run(|| {
            storage::io().write_file(&tmp, &bytes)?;
            storage::io().rename(&tmp, &self.path)?;
            storage::io().fsync_dir(dir)
        })
    }

    /// Fault-injection support: deliberately writes only the first half of
    /// the serialized journal *directly* to the final path — the on-disk
    /// image a kill inside a non-atomic write would leave. Exists so tests
    /// and the CI gate can prove [`CheckpointStore::load`] rejects torn
    /// journals instead of trusting them.
    pub fn commit_torn(&self, elapsed: Duration) -> Result<(), SsnError> {
        let bytes = self.serialize(elapsed);
        let half = &bytes[..bytes.len() / 2];
        std::fs::write(&self.path, half).map_err(|e| io_err(&self.path, "torn write", &e))
    }
}

// ---------------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------------

/// The fixed degradation ladder, in the order workloads apply it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeStep {
    /// Monte Carlo: deliver the samples completed before the deadline.
    ShrinkSamples,
    /// Design sweep: deliver the grid points completed before the deadline.
    CoarsenGrid,
    /// Differential oracle: stop cross-validating against the MNA
    /// simulator; remaining scenarios get closed-form evaluation only.
    ClosedFormOnly,
    /// Persistent storage failure (ENOSPC, exhausted retries): the run
    /// continued to a full-fidelity *result* but stopped journaling, so a
    /// kill after this point restarts from the last good commit instead
    /// of resuming. The only ladder step that degrades durability rather
    /// than result fidelity.
    Uncheckpointed,
}

impl DegradeStep {
    /// Short kebab-case tag used in reports and telemetry.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::ShrinkSamples => "shrink-samples",
            Self::CoarsenGrid => "coarsen-grid",
            Self::ClosedFormOnly => "closed-form-only",
            Self::Uncheckpointed => "checkpoint-disabled",
        }
    }
}

/// One recorded fidelity downgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeEvent {
    /// Which ladder step fired.
    pub step: DegradeStep,
    /// Work items the run planned at full fidelity.
    pub planned: usize,
    /// Work items actually delivered at full fidelity.
    pub delivered: usize,
}

impl std::fmt::Display for DegradeEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            DegradeStep::Uncheckpointed => write!(
                f,
                "{}: journaling stopped after {} of {} chunk commits; \
                 results are complete but the run is not resumable",
                self.step.tag(),
                self.delivered,
                self.planned
            ),
            _ => write!(
                f,
                "{}: {} -> {} of planned items at full fidelity",
                self.step.tag(),
                self.planned,
                self.delivered
            ),
        }
    }
}

/// Durability facts about a completed run, carried alongside its primary
/// result and rendered into the run report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Durability {
    /// Chunks restored from the checkpoint instead of recomputed.
    pub resumed_chunks: usize,
    /// Whether the run's budget expired before all chunks completed.
    pub deadline_hit: bool,
    /// Every fidelity downgrade, in the order it was applied.
    pub degradation: Vec<DegradeEvent>,
}

impl Durability {
    /// Records a downgrade in the report and the telemetry stream.
    pub fn note_degrade(&mut self, step: DegradeStep, planned: usize, delivered: usize) {
        self.degradation.push(DegradeEvent {
            step,
            planned,
            delivered,
        });
        if ssn_telemetry::enabled() {
            ssn_telemetry::add(ssn_telemetry::names::DURABLE_DEGRADED, 1);
        }
    }

    /// `true` when anything about the run was less than a fresh,
    /// full-fidelity execution.
    pub fn is_degraded(&self) -> bool {
        !self.degradation.is_empty()
    }

    /// `true` when the *results* were degraded (fewer samples, coarser
    /// grid, skipped cross-validation). [`DegradeStep::Uncheckpointed`]
    /// does not count: a storage-degraded run still delivered every item
    /// at full fidelity, it just cannot be resumed — callers deciding
    /// whether to trust or publish a result should use this, not
    /// [`Durability::is_degraded`].
    pub fn is_fidelity_degraded(&self) -> bool {
        self.degradation
            .iter()
            .any(|e| e.step != DegradeStep::Uncheckpointed)
    }
}

// ---------------------------------------------------------------------------
// The durable runner
// ---------------------------------------------------------------------------

/// Durability knobs shared by all durable entry points.
#[derive(Debug, Clone, Default)]
pub struct DurableOptions {
    /// Journal path. `None` disables checkpointing (the budget still
    /// applies).
    pub checkpoint: Option<PathBuf>,
    /// Resume from an existing journal at `checkpoint` (validated against
    /// this run's [`RunSpec`]); without this flag an existing journal is
    /// overwritten by the first commit.
    pub resume: bool,
    /// The run's wall-clock budget.
    pub budget: RunBudget,
}

impl DurableOptions {
    /// No checkpoint, no budget: the run reads and writes no journal and
    /// never expires.
    pub fn none() -> Self {
        Self::default()
    }
}

/// What happened to one chunk of a durable run.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkOutcome<T> {
    /// Evaluated this session, or restored from the checkpoint.
    Done(T),
    /// Failed (panic or typed error); carries the failure text.
    Failed(String),
    /// Skipped cooperatively because the run budget expired.
    DeadlineSkipped,
}

/// A durable run after the one collect step every workload shares:
/// per-chunk results in chunk order, engine statistics, and the run's
/// durability facts. Each workload adds only its own degradation-ladder
/// step.
#[derive(Debug)]
pub struct DurableRun<T> {
    /// One outcome per chunk, in chunk order.
    pub chunks: Vec<ChunkOutcome<T>>,
    /// Engine statistics, with [`ExecStats::failed_chunks`],
    /// [`ExecStats::checkpointed_chunks`] and [`ExecStats::elapsed_wall`]
    /// filled in.
    pub stats: ExecStats,
    /// Restored chunks, whether the budget expired, and a
    /// [`DegradeStep::Uncheckpointed`] event when persistent storage
    /// failure stopped journaling mid-run.
    pub durability: Durability,
}

impl<T> DurableRun<T> {
    /// The run, when at least one chunk finished. Otherwise its typed
    /// failure: [`SsnError::DeadlineExhausted`] when the budget skipped
    /// every chunk and none failed, else [`SsnError::AllChunksFailed`]
    /// naming the first failed chunk's cause.
    pub fn delivered(self, planned_items: usize) -> Result<Self, SsnError> {
        if self.done().next().is_some() {
            return Ok(self);
        }
        if self.durability.deadline_hit && self.stats.failed_chunks == 0 {
            return Err(SsnError::DeadlineExhausted {
                completed_items: 0,
                planned_items,
            });
        }
        let first_cause = self.chunks.into_iter().find_map(|o| match o {
            ChunkOutcome::Failed(cause) => Some(cause),
            _ => None,
        });
        Err(SsnError::AllChunksFailed {
            failed: self.stats.failed_chunks,
            total: self.stats.chunks,
            first_cause: first_cause.unwrap_or_default(),
        })
    }

    /// The finished chunks — evaluated or restored — with their indices,
    /// in chunk order.
    pub fn done(&self) -> impl Iterator<Item = (usize, &T)> + Clone {
        self.chunks.iter().enumerate().filter_map(|(c, o)| match o {
            ChunkOutcome::Done(v) => Some((c, v)),
            _ => None,
        })
    }
}

/// Runs `spec`'s chunks with checkpoint/resume and a deadline budget: the
/// one runner behind every chunked workload. With
/// [`DurableOptions::none`] it reads and writes no journal and never
/// expires.
///
/// `eval(chunk, range)` computes one chunk (it must be a pure function of
/// `(spec.seed, chunk)` for the resume invariant to hold);
/// `encode(chunk, &result)`/`decode(chunk, reader)` give the chunk result a
/// bit-exact byte round-trip for the journal. `encode` runs only when a
/// journal will take the payload.
///
/// Contract:
/// * every completed chunk is committed atomically before the run moves on,
///   so a kill at any chunk boundary loses at most in-flight work;
/// * resumed chunks are *restored, never recomputed*, and the combined
///   result is bit-identical to an uninterrupted run at any thread count;
/// * when the budget expires, unstarted chunks come back
///   [`ChunkOutcome::DeadlineSkipped`] and in-flight kernels stop at their
///   next poll — the caller applies its degradation ladder to the gap;
/// * a simulated crash (the armed fault plan's `crash_after_commits`) returns
///   [`SsnError::Interrupted`] after the configured number of commits.
pub fn run_chunked_durable<T, Enc, Dec, F>(
    spec: &RunSpec,
    policy: &ExecPolicy,
    opts: &DurableOptions,
    encode: Enc,
    decode: Dec,
    eval: F,
) -> Result<DurableRun<T>, SsnError>
where
    T: Send,
    Enc: Fn(usize, &T) -> Vec<u8> + Sync,
    Dec: Fn(usize, &mut ByteReader<'_>) -> Result<T, SsnError>,
    F: Fn(usize, Range<usize>) -> Result<T, SsnError> + Sync,
{
    let _span = ssn_telemetry::span("durable.run");
    let started = Instant::now();
    let n_chunks = spec.n_chunks();

    // Take the journal's exclusive lock for the whole run: two processes
    // must never resume (or interleave commits into) the same journal. The
    // guard's drop removes the lock file; a hard kill leaves it behind for
    // the next acquirer's stale-PID recovery. A *persistent storage
    // failure* here (ENOSPC writing the lock file) degrades the run to
    // un-checkpointed instead of aborting — running lock-less is safe
    // because a run that could not take the lock writes no journal either.
    // A lock held by a live process stays a typed refusal, and a simulated
    // power cut stays fatal (a dead process cannot degrade-and-continue).
    let mut early_degrade = false;
    let _journal_lock: Option<JournalLock> = match &opts.checkpoint {
        Some(path) => match JournalLock::acquire(path) {
            Ok(lock) => Some(lock),
            Err(SsnError::Checkpoint {
                kind: CheckpointErrorKind::Io,
                ..
            }) if !storage::simulated_death() => {
                early_degrade = true;
                None
            }
            Err(e) => return Err(e),
        },
        None => None,
    };

    // Clean up an orphaned temp file left by a session that died between
    // writing `<path>.ckpt-tmp` and renaming it into place. Safe because
    // we hold the journal lock: nobody else is mid-commit.
    if _journal_lock.is_some() {
        if let Some(path) = &opts.checkpoint {
            let tmp = path.with_extension("ckpt-tmp");
            if tmp.exists() {
                let _ = storage::io().remove_file(&tmp);
            }
        }
    }

    // Load or create the journal, restoring completed chunks. Structural
    // damage (corrupt, version or spec mismatch) stays a typed rejection —
    // the operator chooses between fresh start and investigation. A
    // persistent *read* failure degrades instead: the chunks are pure, so
    // recomputing them is bit-identical to resuming.
    let mut resumed: BTreeMap<usize, T> = BTreeMap::new();
    let store: Option<CheckpointStore> = match &opts.checkpoint {
        Some(_) if early_degrade => None,
        Some(path) => {
            if opts.resume && path.exists() {
                match CheckpointStore::load(path) {
                    Ok(s) => {
                        s.verify_spec(spec)?;
                        for (&c, payload) in s.records() {
                            let mut r = ByteReader::new(payload);
                            let value = decode(c as usize, &mut r)
                                .map_err(|e| rewrap_payload_err(path, c, e))?;
                            if !r.is_empty() {
                                return Err(SsnError::checkpoint(
                                    path.display().to_string(),
                                    CheckpointErrorKind::Corrupt,
                                    format!("chunk {c} payload has trailing bytes"),
                                ));
                            }
                            resumed.insert(c as usize, value);
                        }
                        Some(s)
                    }
                    Err(SsnError::Checkpoint {
                        kind: CheckpointErrorKind::Io,
                        ..
                    }) if !storage::simulated_death() => {
                        early_degrade = true;
                        None
                    }
                    Err(e) => return Err(e),
                }
            } else {
                Some(CheckpointStore::create(path.clone(), spec))
            }
        }
        None => None,
    };
    if early_degrade && ssn_telemetry::enabled() {
        ssn_telemetry::add(ssn_telemetry::names::STORAGE_DEGRADED, 1);
    }
    let prior_elapsed = store
        .as_ref()
        .map_or(Duration::ZERO, CheckpointStore::prior_elapsed);
    let resumed_count = resumed.len();
    // Restored chunks pass through the engine in their own slots, so its
    // results come back in chunk order; only runs that resumed lock this.
    let resumed = Mutex::new(resumed);

    let crash = faults::checkpoint_crash_plan();
    let crashed = AtomicBool::new(false);
    let deadline_hit = AtomicBool::new(false);
    // Cleared when journaling stops: from then on, as in a run without a
    // journal, a finished chunk is neither encoded nor locked for.
    let journaling = AtomicBool::new(store.is_some());
    struct StoreCell {
        store: Option<CheckpointStore>,
        commits: usize,
        commit_error: Option<SsnError>,
        /// Commits that reached disk before persistent storage failure
        /// stopped journaling.
        degraded_after: Option<usize>,
    }
    let cell = Mutex::new(StoreCell {
        store,
        commits: 0,
        commit_error: None,
        degraded_after: early_degrade.then_some(0),
    });

    // Kernel-level cooperative cancellation for the duration of the run.
    let _kernel_guard = opts.budget.arm_kernels();

    let (results, engine_stats) =
        try_run_chunked(n_chunks, 1, policy, |c, _| -> Result<Option<T>, SsnError> {
            if resumed_count > 0 {
                let restored = resumed.lock().unwrap_or_else(|e| e.into_inner()).remove(&c);
                if restored.is_some() {
                    return Ok(restored);
                }
            }
            if crashed.load(Ordering::SeqCst) {
                // The simulated kill already fired: the process is "dead", no
                // further chunks run.
                return Ok(None);
            }
            if opts.budget.expired() {
                deadline_hit.store(true, Ordering::SeqCst);
                return Ok(None);
            }
            let value = match eval(c, spec.range(c)) {
                Err(e) if e.is_cancelled() => {
                    deadline_hit.store(true, Ordering::SeqCst);
                    return Ok(None);
                }
                other => other?,
            };
            if !journaling.load(Ordering::SeqCst) {
                return Ok(Some(value));
            }
            let payload = encode(c, &value);
            let mut guard = cell.lock().unwrap_or_else(|e| e.into_inner());
            if crashed.load(Ordering::SeqCst) {
                return Ok(Some(value));
            }
            let elapsed = prior_elapsed + started.elapsed();
            let commits_after = guard.commits + 1;
            let tear = crash.is_some_and(|(after, torn)| commits_after == after && torn);
            let die = crash.is_some_and(|(after, _)| commits_after >= after);
            let Some(st) = guard.store.as_mut() else {
                // Another worker's commit just shed the journal.
                return Ok(Some(value));
            };
            st.record(c, payload);
            enum CommitFailure {
                Torn(SsnError),
                Io(std::io::Error),
            }
            let committed = if tear {
                st.commit_torn(elapsed).map_err(CommitFailure::Torn)
            } else {
                st.commit_io(elapsed).map_err(CommitFailure::Io)
            };
            match committed {
                Ok(()) => {
                    guard.commits = commits_after;
                    if ssn_telemetry::enabled() {
                        ssn_telemetry::add(ssn_telemetry::names::DURABLE_COMMITS, 1);
                    }
                    if die {
                        crashed.store(true, Ordering::SeqCst);
                        opts.budget.cancel();
                    }
                    Ok(Some(value))
                }
                // The simulated power cut fired mid-commit: the process is
                // dead, exactly like a crash-plan kill.
                Err(CommitFailure::Io(e))
                    if storage::injected_fault(&e) == Some(storage::InjectedFaultKind::Killed) =>
                {
                    crashed.store(true, Ordering::SeqCst);
                    opts.budget.cancel();
                    Ok(None)
                }
                Err(CommitFailure::Torn(e)) => {
                    guard.commit_error.get_or_insert(e);
                    crashed.store(true, Ordering::SeqCst);
                    opts.budget.cancel();
                    Ok(None)
                }
                // Persistent storage failure (ENOSPC, exhausted retries):
                // declare the degradation, stop journaling, and let the
                // computation finish — a lost checkpoint must never cost the
                // run its result.
                Err(CommitFailure::Io(_)) => {
                    guard.degraded_after = Some(guard.commits);
                    guard.store = None;
                    journaling.store(false, Ordering::SeqCst);
                    if ssn_telemetry::enabled() {
                        ssn_telemetry::add(ssn_telemetry::names::STORAGE_DEGRADED, 1);
                    }
                    Ok(Some(value))
                }
            }
        });

    let cell = cell.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(e) = cell.commit_error {
        return Err(e);
    }
    if crashed.load(Ordering::SeqCst) {
        return Err(SsnError::Interrupted {
            committed_chunks: resumed_count + cell.commits,
            total_chunks: n_chunks,
        });
    }

    let chunks: Vec<ChunkOutcome<T>> = results
        .into_iter()
        .enumerate()
        .map(|(c, result)| match result {
            Ok(Ok(Some(v))) => ChunkOutcome::Done(v),
            Ok(Ok(None)) => ChunkOutcome::DeadlineSkipped,
            Ok(Err(e)) => ChunkOutcome::Failed(e.to_string()),
            // Name the chunk's items, not its one-item slot in the engine.
            Err(panicked) => ChunkOutcome::Failed(
                ChunkError {
                    range: spec.range(c),
                    ..panicked
                }
                .to_string(),
            ),
        })
        .collect();

    let skipped = chunks
        .iter()
        .filter(|o| matches!(o, ChunkOutcome::DeadlineSkipped))
        .count();
    let mut stats = engine_stats;
    // Deadline-skipped chunks were never evaluated; counting them as items
    // would overstate the throughput line on a partial run.
    stats.items = chunks
        .iter()
        .enumerate()
        .filter(|(_, o)| !matches!(o, ChunkOutcome::DeadlineSkipped))
        .map(|(c, _)| spec.range(c).len())
        .sum();
    stats.chunks = n_chunks;
    stats.checkpointed_chunks = resumed_count;
    stats.elapsed_wall = prior_elapsed + stats.wall;
    stats.failed_chunks = chunks
        .iter()
        .filter(|o| matches!(o, ChunkOutcome::Failed(_)))
        .count();

    let mut durability = Durability {
        resumed_chunks: resumed_count,
        deadline_hit: deadline_hit.load(Ordering::SeqCst),
        degradation: Vec::new(),
    };
    if let Some(committed) = cell.degraded_after {
        durability.note_degrade(DegradeStep::Uncheckpointed, n_chunks, committed);
    }
    if ssn_telemetry::enabled() {
        ssn_telemetry::add(
            ssn_telemetry::names::DURABLE_RESUMED_CHUNKS,
            resumed_count as u64,
        );
        ssn_telemetry::add(
            ssn_telemetry::names::DURABLE_DEADLINE_SKIPPED,
            skipped as u64,
        );
    }

    Ok(DurableRun {
        chunks,
        stats,
        durability,
    })
}

fn rewrap_payload_err(path: &Path, chunk: u64, e: SsnError) -> SsnError {
    match e {
        SsnError::Checkpoint { kind, detail, .. } => SsnError::checkpoint(
            path.display().to_string(),
            kind,
            format!("chunk {chunk}: {detail}"),
        ),
        other => SsnError::checkpoint(
            path.display().to_string(),
            CheckpointErrorKind::Corrupt,
            format!("chunk {chunk}: {other}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "ssn-durable-unit-{}-{}-{}.ckpt",
            std::process::id(),
            tag,
            n
        ))
    }

    fn toy_spec(path_tag: u64) -> RunSpec {
        RunSpec {
            kind: "toy",
            seed: 11,
            params_hash: ParamDigest::new("toy").push_u64(path_tag).finish(),
            n_items: 100,
            chunk_size: 16,
        }
    }

    fn toy_eval(spec: &RunSpec) -> impl Fn(usize, Range<usize>) -> Result<Vec<f64>, SsnError> + '_ {
        move |c, range| {
            let mut rng = ssn_numeric::rng::Rng::from_seed_and_stream(spec.seed, c as u64);
            Ok(range.map(|i| rng.normal() + i as f64).collect())
        }
    }

    fn encode_chunk(_: usize, v: &Vec<f64>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(v.len());
        for &x in v {
            w.put_f64(x);
        }
        w.into_vec()
    }

    fn decode_chunk(_: usize, r: &mut ByteReader<'_>) -> Result<Vec<f64>, SsnError> {
        let n = r.take_usize()?;
        (0..n).map(|_| r.take_f64()).collect()
    }

    fn collect(run: DurableRun<Vec<f64>>) -> Vec<f64> {
        run.chunks
            .into_iter()
            .flat_map(|o| match o {
                ChunkOutcome::Done(v) => v,
                other => panic!("unexpected outcome {other:?}"),
            })
            .collect()
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_is_order_sensitive_and_bit_exact() {
        let a = ParamDigest::new("x").push_f64(1.0).push_f64(2.0).finish();
        let b = ParamDigest::new("x").push_f64(2.0).push_f64(1.0).finish();
        assert_ne!(a, b);
        let nz = ParamDigest::new("x").push_f64(-0.0).finish();
        let pz = ParamDigest::new("x").push_f64(0.0).finish();
        assert_ne!(nz, pz, "digest must see the sign bit");
        assert_ne!(
            ParamDigest::new("x").finish(),
            ParamDigest::new("y").finish()
        );
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let mut w = ByteWriter::new();
        w.put_u8(7)
            .put_u64(u64::MAX)
            .put_f64(f64::NAN)
            .put_f64(-0.0)
            .put_str("kind");
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_str().unwrap(), "kind");
        assert!(r.is_empty());
        assert!(r.take_u8().is_err(), "reads past the end must fail typed");
    }

    #[test]
    fn store_round_trips_through_disk() {
        let path = temp_path("roundtrip");
        let spec = toy_spec(1);
        let mut store = CheckpointStore::create(path.clone(), &spec);
        store.record(0, vec![1, 2, 3]);
        store.record(4, vec![0xff; 40]);
        store.commit(Duration::from_millis(250)).unwrap();

        let loaded = CheckpointStore::load(&path).unwrap();
        loaded.verify_spec(&spec).unwrap();
        assert_eq!(loaded.records().len(), 2);
        assert_eq!(loaded.records()[&0], vec![1, 2, 3]);
        assert_eq!(loaded.records()[&4], vec![0xff; 40]);
        assert_eq!(loaded.prior_elapsed(), Duration::from_millis(250));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spec_mismatches_are_refused_field_by_field() {
        let path = temp_path("mismatch");
        let spec = toy_spec(2);
        let mut store = CheckpointStore::create(path.clone(), &spec);
        store.record(0, vec![9]);
        store.commit(Duration::ZERO).unwrap();
        let loaded = CheckpointStore::load(&path).unwrap();

        for wrong in [
            RunSpec { seed: 12, ..spec },
            RunSpec {
                params_hash: spec.params_hash ^ 1,
                ..spec
            },
            RunSpec {
                n_items: 101,
                ..spec
            },
            RunSpec {
                chunk_size: 8,
                ..spec
            },
            RunSpec {
                kind: "other",
                ..spec
            },
        ] {
            let err = loaded.verify_spec(&wrong).unwrap_err();
            match err {
                SsnError::Checkpoint { kind, .. } => {
                    assert_eq!(kind, CheckpointErrorKind::SpecMismatch)
                }
                other => panic!("expected spec mismatch, got {other}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_an_io_error() {
        let path = temp_path("missing");
        match CheckpointStore::load(&path).unwrap_err() {
            SsnError::Checkpoint { kind, .. } => assert_eq!(kind, CheckpointErrorKind::Io),
            other => panic!("expected io checkpoint error, got {other}"),
        }
    }

    #[test]
    fn durable_run_without_options_matches_plain_evaluation() {
        let spec = toy_spec(3);
        let run = run_chunked_durable(
            &spec,
            &ExecPolicy::serial(),
            &DurableOptions::none(),
            encode_chunk,
            decode_chunk,
            toy_eval(&spec),
        )
        .unwrap();
        assert_eq!(run.durability.resumed_chunks, 0);
        assert!(!run.durability.deadline_hit);
        assert_eq!(run.stats.checkpointed_chunks, 0);
        assert_eq!(run.stats.items, 100);
        assert_eq!(run.stats.elapsed_wall, run.stats.wall, "one session");
        let all = collect(run);
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn payloads_are_encoded_only_for_a_journal() {
        let spec = toy_spec(9);
        let path = temp_path("encode-count");
        for (opts, want) in [
            (DurableOptions::none(), 0),
            (
                DurableOptions {
                    checkpoint: Some(path.clone()),
                    ..DurableOptions::none()
                },
                spec.n_chunks(),
            ),
        ] {
            let encodes = AtomicUsize::new(0);
            let run = run_chunked_durable(
                &spec,
                &ExecPolicy::with_threads(2),
                &opts,
                |c, v| {
                    encodes.fetch_add(1, Ordering::Relaxed);
                    encode_chunk(c, v)
                },
                decode_chunk,
                toy_eval(&spec),
            )
            .unwrap();
            assert_eq!(collect(run).len(), 100);
            assert_eq!(encodes.into_inner(), want, "{:?}", opts.checkpoint);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_restores_instead_of_recomputing() {
        let path = temp_path("resume");
        let spec = toy_spec(4);

        // Uninterrupted golden.
        let golden = collect(
            run_chunked_durable(
                &spec,
                &ExecPolicy::serial(),
                &DurableOptions::none(),
                encode_chunk,
                decode_chunk,
                toy_eval(&spec),
            )
            .unwrap(),
        );

        // Session 1: evaluate only the first 3 chunks, then "die" (here:
        // pre-commit 3 chunks by hand through the store API).
        let mut store = CheckpointStore::create(path.clone(), &spec);
        for c in 0..3 {
            let v = toy_eval(&spec)(c, spec.range(c)).unwrap();
            store.record(c, encode_chunk(c, &v));
        }
        store.commit(Duration::from_millis(10)).unwrap();

        // Session 2: resume. The three restored chunks must not be
        // recomputed (poison the evaluator for them to prove it).
        let opts = DurableOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            budget: RunBudget::unlimited(),
        };
        let evals = AtomicUsize::new(0);
        let run = run_chunked_durable(
            &spec,
            &ExecPolicy::with_threads(4),
            &opts,
            encode_chunk,
            decode_chunk,
            |c, range| {
                assert!(c >= 3, "chunk {c} must come from the checkpoint");
                evals.fetch_add(1, Ordering::Relaxed);
                toy_eval(&spec)(c, range)
            },
        )
        .unwrap();
        assert_eq!(run.durability.resumed_chunks, 3);
        assert_eq!(run.stats.checkpointed_chunks, 3);
        assert_eq!(evals.load(Ordering::Relaxed), spec.n_chunks() - 3);
        assert!(run.stats.elapsed_wall >= Duration::from_millis(10));
        let resumed = collect(run);
        assert_eq!(
            resumed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            golden.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "resume must be bit-identical to the uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_deadline_skips_everything_without_hanging() {
        let spec = toy_spec(6);
        let opts = DurableOptions {
            checkpoint: None,
            resume: false,
            budget: RunBudget::with_deadline(Duration::ZERO),
        };
        let run = run_chunked_durable(
            &spec,
            &ExecPolicy::with_threads(2),
            &opts,
            encode_chunk,
            decode_chunk,
            |_, range| Ok(range.map(|i| i as f64).collect()),
        )
        .unwrap();
        assert!(run.durability.deadline_hit);
        assert!(run
            .chunks
            .iter()
            .all(|o| matches!(o, ChunkOutcome::DeadlineSkipped)));
    }

    #[test]
    fn check_quota_budget_skips_deterministically() {
        let spec = toy_spec(5);
        let opts = DurableOptions {
            checkpoint: None,
            resume: false,
            budget: RunBudget::expire_after_checks(2),
        };
        let run = run_chunked_durable(
            &spec,
            &ExecPolicy::serial(),
            &opts,
            encode_chunk,
            decode_chunk,
            toy_eval(&spec),
        )
        .unwrap();
        assert!(run.durability.deadline_hit);
        let done = run
            .chunks
            .iter()
            .filter(|o| matches!(o, ChunkOutcome::Done(_)))
            .count();
        let skipped = run
            .chunks
            .iter()
            .filter(|o| matches!(o, ChunkOutcome::DeadlineSkipped))
            .count();
        assert_eq!(done, 2, "exactly the budgeted chunks complete");
        assert_eq!(done + skipped, spec.n_chunks());
    }

    #[test]
    fn failed_chunks_are_isolated_not_fatal() {
        let spec = toy_spec(7);
        let run = run_chunked_durable(
            &spec,
            &ExecPolicy::serial(),
            &DurableOptions::none(),
            encode_chunk,
            decode_chunk,
            |c, range| {
                if c == 2 {
                    return Err(SsnError::scenario("chunk 2 refuses"));
                }
                toy_eval(&spec)(c, range)
            },
        )
        .unwrap();
        assert_eq!(run.stats.failed_chunks, 1);
        assert!(matches!(&run.chunks[2], ChunkOutcome::Failed(m) if m.contains("refuses")));
        assert!(matches!(&run.chunks[0], ChunkOutcome::Done(_)));
    }

    #[test]
    fn journal_lock_excludes_second_acquirer_and_releases_on_drop() {
        let journal = temp_path("lock-exclusive");
        let lock = JournalLock::acquire(&journal).unwrap();
        assert!(lock.path().exists());
        // A second acquirer (same live PID) must be refused, typed.
        match JournalLock::acquire(&journal).unwrap_err() {
            SsnError::Checkpoint { kind, detail, .. } => {
                assert_eq!(kind, CheckpointErrorKind::Locked);
                assert!(detail.contains(&std::process::id().to_string()), "{detail}");
            }
            other => panic!("expected Locked, got {other}"),
        }
        let lock_path = lock.path().to_path_buf();
        drop(lock);
        assert!(!lock_path.exists(), "drop must remove the lock file");
        // Released: re-acquisition succeeds.
        drop(JournalLock::acquire(&journal).unwrap());
    }

    #[test]
    fn journal_lock_recovers_stale_and_garbage_locks() {
        let journal = temp_path("lock-stale");
        let lock_path = lock_path_for(&journal);
        // A dead PID: 32-bit PIDs cap below this on Linux, and the kernel
        // never hands out pid 0 to a user process either way.
        std::fs::write(&lock_path, "4194999999\n").unwrap();
        let lock = JournalLock::acquire(&journal).expect("stale lock must be recovered");
        drop(lock);
        // Unreadable contents (torn write of the lock itself): also stale.
        std::fs::write(&lock_path, b"\xff\xfenot a pid").unwrap();
        drop(JournalLock::acquire(&journal).expect("garbage lock must be recovered"));
        // A live PID in an unlocked file (the dead holder's PID reused by
        // another process): the kernel's lock, not the PID, decides.
        std::fs::write(&lock_path, format!("{}\n", std::process::id())).unwrap();
        drop(JournalLock::acquire(&journal).expect("an unlocked file is free"));
        assert!(!lock_path.exists());
    }

    #[test]
    fn durable_runner_holds_the_lock_and_releases_after() {
        let path = temp_path("runner-lock");
        let spec = toy_spec(8);
        let opts = DurableOptions {
            checkpoint: Some(path.clone()),
            resume: false,
            budget: RunBudget::unlimited(),
        };
        // While a lock is held, the runner must refuse to start.
        let held = JournalLock::acquire(&path).unwrap();
        let err = run_chunked_durable(
            &spec,
            &ExecPolicy::serial(),
            &opts,
            encode_chunk,
            decode_chunk,
            toy_eval(&spec),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SsnError::Checkpoint {
                    kind: CheckpointErrorKind::Locked,
                    ..
                }
            ),
            "{err}"
        );
        drop(held);
        // Lock free: the run completes and leaves no lock file behind.
        let run = run_chunked_durable(
            &spec,
            &ExecPolicy::serial(),
            &opts,
            encode_chunk,
            decode_chunk,
            toy_eval(&spec),
        )
        .unwrap();
        assert_eq!(collect(run).len(), 100);
        assert!(!lock_path_for(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_remaining_reports_only_wall_deadlines() {
        assert_eq!(RunBudget::unlimited().remaining(), None);
        assert_eq!(RunBudget::expire_after_checks(3).remaining(), None);
        let b = RunBudget::with_deadline(Duration::from_secs(3600));
        let left = b.remaining().expect("deadline budget reports remaining");
        assert!(left <= Duration::from_secs(3600));
        assert!(left > Duration::from_secs(3000));
        let spent = RunBudget::with_deadline(Duration::ZERO);
        assert_eq!(spent.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn degrade_events_render_and_tag() {
        let mut d = Durability::default();
        assert!(!d.is_degraded());
        d.note_degrade(DegradeStep::ShrinkSamples, 2000, 1500);
        assert!(d.is_degraded());
        let text = d.degradation[0].to_string();
        assert!(text.contains("shrink-samples"), "{text}");
        assert!(text.contains("2000"), "{text}");
        assert!(text.contains("1500"), "{text}");
        assert_eq!(DegradeStep::CoarsenGrid.tag(), "coarsen-grid");
        assert_eq!(DegradeStep::ClosedFormOnly.tag(), "closed-form-only");
    }
}
