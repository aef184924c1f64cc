//! The storage fault layer: every durable-path I/O primitive behind one
//! trait, with deterministic fault injection and a typed retry policy.
//!
//! The durability story (journaled checkpoints, the optimizer's `.lv<k>`
//! journal family, `JournalLock`, the server's content-addressed result
//! cache and job spool) proves kill→resume bit-identity — but a disk that
//! *errors* is a different failure class from a process that dies. ENOSPC,
//! EIO, and failed fsync must land in the same typed-error-or-declared-
//! degradation contract the solver and network layers already obey, never
//! an untyped abort mid-run.
//!
//! # The pieces
//!
//! * [`CkptIo`] — the trait abstracting every primitive a durable path
//!   performs: whole-file create/write/fsync, advisory-locked lock files,
//!   rename, parent-directory fsync, read, remove, mkdir.
//! * [`RealIo`] — the `std::fs` implementation. The only place in the
//!   durable paths that touches the filesystem directly.
//! * [`DiskFaultPlan`] — a deterministic seeded injector, armed
//!   programmatically ([`with_disk_faults`]) or via the `SSN_DISK_FAULTS`
//!   environment variable (`seed=..,enospc=..,eio=..,fsync=..,torn=..`,
//!   mirroring `SSN_NET_FAULTS`). Every decision hashes
//!   `(seed, fault-site, operation-index)` with FNV-1a — same seed, same
//!   operation order → same faults, at any thread count of the *storage*
//!   call sequence.
//! * [`RetryPolicy`] — bounded retry with backoff for transient faults
//!   (flaky EIO, failed fsync, interrupted syscalls). Persistent faults
//!   (ENOSPC, permission, a dead process) are not retried: they go
//!   straight to the caller's degradation ladder.
//!
//! # The crash-consistency sweep
//!
//! [`DiskFaultPlan::kill_at`] simulates a power cut at one exact operation
//! index: the operation applies a *partial* effect (a torn write, a
//! skipped rename) and every later operation fails — the process is
//! "dead". `tests/storage_faults.rs` sweeps that kill point across every
//! operation index of a checkpointed run and proves the headline
//! invariant: restart yields a bit-identical resume or a typed
//! clean-slate rerun — never a panic, never silently-corrupt accepted
//! output.
//!
//! When disarmed (the default, and whenever `SSN_DISK_FAULTS` is unset)
//! every primitive is a direct `std::fs` call; fault-off runs are
//! byte-identical to a build without this layer.

use std::fs::File;
use std::io;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// The trait and the real implementation
// ---------------------------------------------------------------------------

/// Every I/O primitive a durable path performs, behind one seam.
///
/// The primitives are *whole operations*, not POSIX calls: `write_file`
/// is create + write-all + fsync because that is the unit the atomic
/// commit discipline reasons about (and the unit a fault tears).
pub trait CkptIo: Send + Sync {
    /// Creates (or truncates) `path`, writes `bytes`, and fsyncs the file.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Takes an exclusive advisory lock on the file at `path` without
    /// blocking, creating the file if needed, then replaces its contents
    /// with `bytes` and fsyncs — the lock-acquisition primitive. The lock
    /// lives as long as the returned handle, and the kernel drops it when
    /// the process dies. `Ok(None)` when another handle holds it. If
    /// writing `bytes` fails, the file is removed before the lock goes.
    fn lock_file(&self, path: &Path, bytes: &[u8]) -> io::Result<Option<File>>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Fsyncs the directory itself, making a preceding rename durable.
    /// A no-op `Ok` on platforms where directories cannot be opened.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
}

/// The `std::fs` implementation of [`CkptIo`].
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl CkptIo for RealIo {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn lock_file(&self, path: &Path, bytes: &[u8]) -> io::Result<Option<File>> {
        // A holder unlinks the file before it lets go of the lock, so a
        // lock won on a file that is no longer at `path` is worth nothing:
        // open `path` afresh. Each such miss means another handle released
        // or took the lock meanwhile; after a few, call the lock held.
        for _ in 0..8 {
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?;
            match f.try_lock() {
                Ok(()) => {}
                Err(std::fs::TryLockError::WouldBlock) => return Ok(None),
                Err(std::fs::TryLockError::Error(e)) => return Err(e),
            }
            if !is_file_at(&f, path)? {
                continue;
            }
            let written = f.set_len(0).and_then(|()| f.write_all(bytes));
            if let Err(e) = written.and_then(|()| f.sync_all()) {
                let _ = std::fs::remove_file(path);
                return Err(e);
            }
            return Ok(Some(f));
        }
        Ok(None)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// Whether `path` still names the open file `f`.
fn is_file_at(f: &File, path: &Path) -> io::Result<bool> {
    let now = match std::fs::metadata(path) {
        Ok(m) => m,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt as _;
        let held = f.metadata()?;
        Ok((held.dev(), held.ino()) == (now.dev(), now.ino()))
    }
    #[cfg(not(unix))]
    {
        let _ = (f, now);
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// The fault plan
// ---------------------------------------------------------------------------

/// What class of storage fault was injected (carried inside the
/// `io::Error` so the retry policy can classify without string matching).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFaultKind {
    /// The disk is full — persistent; not retried.
    Enospc,
    /// A flaky-media read/write error — transient; retried.
    Eio,
    /// The fsync itself failed (data reached the page cache but its
    /// durability is unknown) — transient; retried, and a retried
    /// `write_file` rewrites from scratch so the retry is safe.
    FsyncFailed,
    /// The write was torn partway — transient for the same reason.
    TornWrite,
    /// The simulated power cut of [`DiskFaultPlan::kill_at`] — the
    /// process is "dead"; persistent, never retried.
    Killed,
}

impl InjectedFaultKind {
    fn tag(self) -> &'static str {
        match self {
            Self::Enospc => "enospc",
            Self::Eio => "eio",
            Self::FsyncFailed => "fsync-failed",
            Self::TornWrite => "torn-write",
            Self::Killed => "killed",
        }
    }
}

/// The payload of an injected `io::Error`; retrievable via
/// [`injected_fault`].
#[derive(Debug)]
struct InjectedFault {
    kind: InjectedFaultKind,
    op: u64,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected disk fault: {} (op {})",
            self.kind.tag(),
            self.op
        )
    }
}

impl std::error::Error for InjectedFault {}

fn injected(kind: InjectedFaultKind, op: u64) -> io::Error {
    let io_kind = match kind {
        InjectedFaultKind::Enospc => io::ErrorKind::StorageFull,
        _ => io::ErrorKind::Other,
    };
    io::Error::new(io_kind, InjectedFault { kind, op })
}

/// The [`InjectedFaultKind`] inside `e`, when `e` came from the injector.
pub fn injected_fault(e: &io::Error) -> Option<InjectedFaultKind> {
    e.get_ref()
        .and_then(|r| r.downcast_ref::<InjectedFault>())
        .map(|f| f.kind)
}

/// Deterministic storage fault schedule (all probabilities default 0).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiskFaultPlan {
    /// Seed for every per-operation decision.
    pub seed: u64,
    /// Probability a write-class operation fails with ENOSPC (persistent:
    /// never retried, goes straight to the degradation ladder).
    pub enospc: f64,
    /// Probability an operation fails with a flaky-media EIO (transient:
    /// retried with backoff; a retry re-decides at a fresh op index).
    pub eio: f64,
    /// Probability an fsync fails after the data was written (transient).
    pub fsync: f64,
    /// Probability a write is torn partway — half the bytes land, then
    /// the operation errors (transient; the retry rewrites from scratch).
    pub torn: f64,
    /// Hard power-cut at exactly this operation index: the operation
    /// applies a *partial* effect, and every later operation fails — the
    /// crash-consistency sweep's knob. Not expressible via the env
    /// grammar's probabilities; `kill_at=<k>` arms it.
    pub kill_at: Option<u64>,
}

impl DiskFaultPlan {
    /// Parses the `SSN_DISK_FAULTS` grammar:
    /// `seed=<u64>,enospc=<p>,eio=<p>,fsync=<p>,torn=<p>,kill_at=<u64>`
    /// (all fields optional, any order). `None` for malformed text — a
    /// production binary logs and ignores a bad env var rather than crash.
    pub fn parse(text: &str) -> Option<Self> {
        let mut plan = Self::default();
        for field in text.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (key, value) = field.split_once('=')?;
            match key.trim() {
                "seed" => plan.seed = value.trim().parse().ok()?,
                "enospc" => plan.enospc = parse_prob(value)?,
                "eio" => plan.eio = parse_prob(value)?,
                "fsync" => plan.fsync = parse_prob(value)?,
                "torn" => plan.torn = parse_prob(value)?,
                "kill_at" => plan.kill_at = Some(value.trim().parse().ok()?),
                _ => return None,
            }
        }
        Some(plan)
    }

    /// `true` when the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.enospc > 0.0
            || self.eio > 0.0
            || self.fsync > 0.0
            || self.torn > 0.0
            || self.kill_at.is_some()
    }

    fn decide(&self, site: u64, op: u64, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        bytes[8..16].copy_from_slice(&site.to_le_bytes());
        bytes[16..].copy_from_slice(&op.to_le_bytes());
        let h = crate::durable::fnv1a64(&bytes);
        // Upper 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < prob
    }
}

fn parse_prob(s: &str) -> Option<f64> {
    let p: f64 = s.trim().parse().ok()?;
    (0.0..=1.0).contains(&p).then_some(p)
}

// Distinct decision streams per fault site at the same op index.
const SITE_ENOSPC: u64 = 0x5344_4953_4b5f_6e6f;
const SITE_EIO: u64 = 0x5344_4953_4b5f_6569;
const SITE_FSYNC: u64 = 0x5344_4953_4b5f_6673;
const SITE_TORN: u64 = 0x5344_4953_4b5f_746f;

// ---------------------------------------------------------------------------
// Global arming (mirrors `ssn_server::netfaults`)
// ---------------------------------------------------------------------------

static ARMED: AtomicBool = AtomicBool::new(false);
static KILLED: AtomicBool = AtomicBool::new(false);
static OPS: AtomicU64 = AtomicU64::new(0);
static PLAN: Mutex<DiskFaultPlan> = Mutex::new(DiskFaultPlan {
    seed: 0,
    enospc: 0.0,
    eio: 0.0,
    fsync: 0.0,
    torn: 0.0,
    kill_at: None,
});

/// Arms `plan` process-wide until [`disarm`]; resets the operation
/// counter and the simulated-death latch.
pub fn arm(plan: DiskFaultPlan) {
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = plan;
    OPS.store(0, Ordering::SeqCst);
    KILLED.store(false, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms all storage faults; primitives return to direct `std::fs`.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    KILLED.store(false, Ordering::SeqCst);
}

/// Arms from `SSN_DISK_FAULTS` if set and well-formed; returns the armed
/// plan so binaries can log what is being attacked.
pub fn arm_from_env() -> Option<DiskFaultPlan> {
    let text = std::env::var("SSN_DISK_FAULTS").ok()?;
    let plan = DiskFaultPlan::parse(&text)?;
    arm(plan);
    Some(plan)
}

/// Operations performed since the plan was armed (the sweep uses this to
/// size its kill schedule).
pub fn ops_performed() -> u64 {
    OPS.load(Ordering::SeqCst)
}

/// `true` once [`DiskFaultPlan::kill_at`] has fired: the simulated
/// process is dead and nothing may degrade-and-continue past it — the
/// durable runner distinguishes "the disk failed" (degrade) from "the
/// power went out" (typed interrupt) through this.
pub fn simulated_death() -> bool {
    KILLED.load(Ordering::SeqCst)
}

fn armed_plan() -> Option<DiskFaultPlan> {
    if !ARMED.load(Ordering::SeqCst) {
        return None;
    }
    Some(*PLAN.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Serializes fault-armed sections across test threads: the op counter
/// and plan are process-global, so two concurrently armed tests would
/// perturb each other's schedules.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with `plan` armed, then disarms — the test entry point.
/// Activations are serialized process-wide; a panicking body still
/// disarms before the panic resumes.
pub fn with_disk_faults<R>(plan: DiskFaultPlan, f: impl FnOnce() -> R) -> R {
    let _serialized = gate();
    arm(plan);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    disarm();
    match result {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

// ---------------------------------------------------------------------------
// The injecting implementation
// ---------------------------------------------------------------------------

/// [`CkptIo`] that consults the armed [`DiskFaultPlan`] before delegating
/// to [`RealIo`]. One operation = one index in the fault schedule.
#[derive(Debug, Default, Clone, Copy)]
pub struct FaultIo;

impl FaultIo {
    /// Claims the next operation index; `Err` when the simulated power
    /// cut already happened (every op after the kill fails).
    fn next_op(&self) -> io::Result<(DiskFaultPlan, u64)> {
        let plan = armed_plan().unwrap_or_default();
        if KILLED.load(Ordering::SeqCst) {
            return Err(injected(
                InjectedFaultKind::Killed,
                OPS.load(Ordering::SeqCst),
            ));
        }
        let op = OPS.fetch_add(1, Ordering::SeqCst);
        Ok((plan, op))
    }

    fn kill_fires(&self, plan: &DiskFaultPlan, op: u64) -> bool {
        if plan.kill_at == Some(op) {
            KILLED.store(true, Ordering::SeqCst);
            return true;
        }
        false
    }
}

fn count_injected(kind: InjectedFaultKind) {
    if ssn_telemetry::enabled() {
        let _ = kind;
        ssn_telemetry::add(ssn_telemetry::names::STORAGE_FAULTS, 1);
    }
}

impl CkptIo for FaultIo {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let (plan, op) = self.next_op()?;
        if self.kill_fires(&plan, op) {
            // Power cut mid-write: half the bytes land, nothing is synced.
            let _ = RealIo.write_file(path, &bytes[..bytes.len() / 2]);
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_ENOSPC, op, plan.enospc) {
            count_injected(InjectedFaultKind::Enospc);
            return Err(injected(InjectedFaultKind::Enospc, op));
        }
        if plan.decide(SITE_TORN, op, plan.torn) {
            let _ = RealIo.write_file(path, &bytes[..bytes.len() / 2]);
            count_injected(InjectedFaultKind::TornWrite);
            return Err(injected(InjectedFaultKind::TornWrite, op));
        }
        if plan.decide(SITE_EIO, op, plan.eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        RealIo.write_file(path, bytes)?;
        if plan.decide(SITE_FSYNC, op, plan.fsync) {
            count_injected(InjectedFaultKind::FsyncFailed);
            return Err(injected(InjectedFaultKind::FsyncFailed, op));
        }
        Ok(())
    }

    fn lock_file(&self, path: &Path, bytes: &[u8]) -> io::Result<Option<File>> {
        let (plan, op) = self.next_op()?;
        if self.kill_fires(&plan, op) {
            // Power cut while taking a lock: the file exists, the PID
            // never lands, and the lock dies with the process.
            let _ = std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(path);
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_ENOSPC, op, plan.enospc) {
            count_injected(InjectedFaultKind::Enospc);
            return Err(injected(InjectedFaultKind::Enospc, op));
        }
        if plan.decide(SITE_EIO, op, plan.eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        let Some(lock) = RealIo.lock_file(path, bytes)? else {
            return Ok(None);
        };
        if plan.decide(SITE_FSYNC, op, plan.fsync) {
            // Unlink while still holding, as a releasing holder does.
            let _ = std::fs::remove_file(path);
            drop(lock);
            count_injected(InjectedFaultKind::FsyncFailed);
            return Err(injected(InjectedFaultKind::FsyncFailed, op));
        }
        Ok(Some(lock))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (plan, op) = self.next_op()?;
        if self.kill_fires(&plan, op) {
            // Power cut before the rename: the temp file stays orphaned.
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_EIO, op, plan.eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        RealIo.rename(from, to)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        let (plan, op) = self.next_op()?;
        if self.kill_fires(&plan, op) {
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_FSYNC, op, plan.fsync) {
            count_injected(InjectedFaultKind::FsyncFailed);
            return Err(injected(InjectedFaultKind::FsyncFailed, op));
        }
        RealIo.fsync_dir(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let (plan, op) = self.next_op()?;
        if self.kill_fires(&plan, op) {
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_EIO, op, plan.eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        RealIo.read(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let (plan, op) = self.next_op()?;
        if self.kill_fires(&plan, op) {
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_EIO, op, plan.eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        RealIo.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let (plan, op) = self.next_op()?;
        if self.kill_fires(&plan, op) {
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_ENOSPC, op, plan.enospc) {
            count_injected(InjectedFaultKind::Enospc);
            return Err(injected(InjectedFaultKind::Enospc, op));
        }
        if plan.decide(SITE_EIO, op, plan.eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        RealIo.create_dir_all(path)
    }
}

static REAL: RealIo = RealIo;
static FAULTY: FaultIo = FaultIo;

/// The active [`CkptIo`]: [`RealIo`] when disarmed (one relaxed atomic
/// load of overhead), the injector while a plan is armed.
pub fn io() -> &'static dyn CkptIo {
    if ARMED.load(Ordering::Relaxed) {
        &FAULTY
    } else {
        &REAL
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// `true` for faults worth retrying: interrupted/timed-out syscalls and
/// the injected transient classes (EIO, failed fsync, torn write). ENOSPC,
/// permission problems, missing files, and a simulated power cut are
/// persistent — retrying cannot help, the degradation ladder can.
pub fn is_transient(e: &io::Error) -> bool {
    if let Some(kind) = injected_fault(e) {
        return matches!(
            kind,
            InjectedFaultKind::Eio | InjectedFaultKind::FsyncFailed | InjectedFaultKind::TornWrite
        );
    }
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => true,
        io::ErrorKind::StorageFull
        | io::ErrorKind::PermissionDenied
        | io::ErrorKind::NotFound
        | io::ErrorKind::AlreadyExists
        | io::ErrorKind::Unsupported => false,
        // Real-media EIO surfaces as an uncategorized kind; one bounded
        // retry round is cheap and may clear a genuinely flaky sector.
        _ => true,
    }
}

/// Bounded retry-with-backoff for transient storage faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 = no retry.
    pub attempts: u32,
    /// Sleep before retry `n` is `base_backoff * 2^(n-1)`.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base_backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// No retries: every fault surfaces on the first attempt.
    pub fn none() -> Self {
        Self {
            attempts: 1,
            base_backoff: Duration::ZERO,
        }
    }

    /// Runs `f`, retrying transient failures up to the attempt budget
    /// with doubling backoff. Persistent failures (see [`is_transient`])
    /// return immediately. Each retry is counted in the
    /// `storage.retries` telemetry counter.
    pub fn run<T>(&self, mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let attempts = self.attempts.max(1);
        let mut backoff = self.base_backoff;
        let mut attempt = 1;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if attempt < attempts && is_transient(&e) => {
                    if ssn_telemetry::enabled() {
                        ssn_telemetry::add(ssn_telemetry::names::STORAGE_RETRIES, 1);
                    }
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "ssn-storage-unit-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ))
    }

    #[test]
    fn parses_the_env_grammar() {
        let p = DiskFaultPlan::parse("seed=9,enospc=0.25,eio=0.5,fsync=1,torn=0.1").unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(p.enospc, 0.25);
        assert_eq!(p.eio, 0.5);
        assert_eq!(p.fsync, 1.0);
        assert_eq!(p.torn, 0.1);
        assert_eq!(p.kill_at, None);
        assert!(p.is_active());
        let p = DiskFaultPlan::parse("kill_at=7").unwrap();
        assert_eq!(p.kill_at, Some(7));
        assert_eq!(
            DiskFaultPlan::parse("").unwrap(),
            DiskFaultPlan::default(),
            "empty text is the inert plan"
        );
        assert!(!DiskFaultPlan::default().is_active());
        assert!(DiskFaultPlan::parse("enospc=2").is_none());
        assert!(DiskFaultPlan::parse("zebra=1").is_none());
        assert!(DiskFaultPlan::parse("eio").is_none());
    }

    #[test]
    fn decisions_are_deterministic_and_probability_shaped() {
        let p = DiskFaultPlan {
            seed: 3,
            eio: 0.5,
            ..DiskFaultPlan::default()
        };
        let fired: Vec<bool> = (0..1000).map(|op| p.decide(SITE_EIO, op, p.eio)).collect();
        let again: Vec<bool> = (0..1000).map(|op| p.decide(SITE_EIO, op, p.eio)).collect();
        assert_eq!(fired, again);
        let count = fired.iter().filter(|&&b| b).count();
        assert!((300..700).contains(&count), "got {count} of 1000 at p=0.5");
        // Sites are independent streams at the same op index.
        let other: Vec<bool> = (0..1000).map(|op| p.decide(SITE_TORN, op, 0.5)).collect();
        assert_ne!(fired, other);
    }

    #[test]
    fn disarmed_layer_is_the_real_filesystem() {
        disarm();
        let path = temp_path("real");
        io().write_file(&path, b"plain").unwrap();
        assert_eq!(io().read(&path).unwrap(), b"plain");
        io().remove_file(&path).unwrap();
        assert!(io().read(&path).is_err());
    }

    #[test]
    fn enospc_schedule_fails_writes_typed_and_leaves_no_file() {
        let path = temp_path("enospc");
        with_disk_faults(
            DiskFaultPlan {
                enospc: 1.0,
                ..DiskFaultPlan::default()
            },
            || {
                let e = io().write_file(&path, b"doomed").unwrap_err();
                assert_eq!(e.kind(), io::ErrorKind::StorageFull);
                assert_eq!(injected_fault(&e), Some(InjectedFaultKind::Enospc));
                assert!(!is_transient(&e), "ENOSPC must not be retried");
                assert!(!path.exists(), "a failed allocation writes nothing");
            },
        );
    }

    #[test]
    fn torn_write_leaves_half_the_bytes_and_is_transient() {
        let path = temp_path("torn");
        with_disk_faults(
            DiskFaultPlan {
                torn: 1.0,
                ..DiskFaultPlan::default()
            },
            || {
                let e = io().write_file(&path, &[7u8; 64]).unwrap_err();
                assert_eq!(injected_fault(&e), Some(InjectedFaultKind::TornWrite));
                assert!(is_transient(&e));
                let on_disk = std::fs::read(&path).unwrap();
                assert_eq!(on_disk.len(), 32, "exactly half the bytes landed");
            },
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kill_at_applies_partial_effect_then_everything_fails() {
        let a = temp_path("kill-a");
        let b = temp_path("kill-b");
        with_disk_faults(
            DiskFaultPlan {
                kill_at: Some(1),
                ..DiskFaultPlan::default()
            },
            || {
                io().write_file(&a, &[1u8; 10]).unwrap(); // op 0 survives
                let e = io().write_file(&b, &[2u8; 10]).unwrap_err(); // op 1 dies
                assert_eq!(injected_fault(&e), Some(InjectedFaultKind::Killed));
                assert_eq!(std::fs::read(&b).unwrap().len(), 5, "torn at the cut");
                // The process is dead: every later operation fails too.
                let e = io().read(&a).unwrap_err();
                assert_eq!(injected_fault(&e), Some(InjectedFaultKind::Killed));
                assert!(!is_transient(&e), "death is not retryable");
            },
        );
        // Disarmed again: the world is readable.
        assert_eq!(io().read(&a).unwrap(), vec![1u8; 10]);
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn retry_policy_clears_transient_faults_and_respects_persistent_ones() {
        let flaky_left = AtomicUsize::new(2);
        let policy = RetryPolicy {
            attempts: 3,
            base_backoff: Duration::ZERO,
        };
        let out = policy.run(|| {
            if flaky_left.fetch_sub(1, Ordering::SeqCst) > 0 {
                Err(injected(InjectedFaultKind::Eio, 0))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42, "two transient failures, third try wins");

        let tries = AtomicUsize::new(0);
        let out: io::Result<()> = policy.run(|| {
            tries.fetch_add(1, Ordering::SeqCst);
            Err(injected(InjectedFaultKind::Enospc, 0))
        });
        assert!(out.is_err());
        assert_eq!(
            tries.load(Ordering::SeqCst),
            1,
            "persistent faults are not retried"
        );

        let tries = AtomicUsize::new(0);
        let out: io::Result<()> = policy.run(|| {
            tries.fetch_add(1, Ordering::SeqCst);
            Err(injected(InjectedFaultKind::Eio, 0))
        });
        assert!(out.is_err());
        assert_eq!(
            tries.load(Ordering::SeqCst),
            3,
            "transient faults exhaust the attempt budget"
        );
    }

    #[test]
    fn op_counter_counts_only_while_armed() {
        let path = temp_path("ops");
        with_disk_faults(DiskFaultPlan::default(), || {
            assert_eq!(ops_performed(), 0);
            io().write_file(&path, b"x").unwrap();
            io().read(&path).unwrap();
            io().remove_file(&path).unwrap();
            assert_eq!(ops_performed(), 3);
        });
    }
}
