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
//! * [`FaultIo`] — the deterministic seeded injector: the disk sites of
//!   the run's [`FaultPlan`] (armed by `faults::with_faults`, or by
//!   `SSN_FAULTS=seed=..,disk.enospc=..,disk.eio=..,disk.fsync=..,disk.torn=..`).
//!   Every decision hashes `(seed, fault-site, operation-index)` with the
//!   FNV-1a draw the network sites share — same seed, same operation order
//!   → same faults, at any thread count of the *storage* call sequence.
//! * [`RetryPolicy`] — bounded retry with backoff for transient faults
//!   (flaky EIO, failed fsync, interrupted syscalls). Persistent faults
//!   (ENOSPC, permission, a dead process) are not retried: they go
//!   straight to the caller's degradation ladder.
//!
//! # The crash-consistency sweep
//!
//! [`FaultPlan::disk_kill_at`] simulates a power cut at one exact operation
//! index: the operation applies a *partial* effect (a torn write, a
//! skipped rename) and every later operation fails — the process is
//! "dead". `tests/storage_faults.rs` sweeps that kill point across every
//! operation index of a checkpointed run and proves the headline
//! invariant: restart yields a bit-identical resume or a typed
//! clean-slate rerun — never a panic, never silently-corrupt accepted
//! output.
//!
//! On a thread with no plan armed (the default, and whenever `SSN_FAULTS`
//! is unset) every primitive is a direct `std::fs` call; fault-off runs
//! are byte-identical to a build without this layer.

use std::fs::File;
use std::io;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

use crate::faults::{self, Armed, FaultPlan};

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
    /// The simulated power cut of [`FaultPlan::disk_kill_at`] — the
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

// Distinct decision streams per fault site at the same op index.
const SITE_ENOSPC: u64 = 0x5344_4953_4b5f_6e6f;
const SITE_EIO: u64 = 0x5344_4953_4b5f_6569;
const SITE_FSYNC: u64 = 0x5344_4953_4b5f_6673;
const SITE_TORN: u64 = 0x5344_4953_4b5f_746f;

/// Storage operations performed under the plan armed on this thread (the
/// sweep uses this to size its kill schedule); 0 with no plan armed.
pub fn ops_performed() -> u64 {
    faults::with_armed(|armed| armed.map_or(0, Armed::disk_ops))
}

/// `true` once [`FaultPlan::disk_kill_at`] has fired: the simulated
/// process is dead and nothing may degrade-and-continue past it — the
/// durable runner distinguishes "the disk failed" (degrade) from "the
/// power went out" (typed interrupt) through this.
pub fn simulated_death() -> bool {
    faults::with_armed(|armed| armed.is_some_and(Armed::disk_killed))
}

// ---------------------------------------------------------------------------
// The injecting implementation
// ---------------------------------------------------------------------------

/// [`CkptIo`] that consults the armed [`FaultPlan`] before delegating
/// to [`RealIo`]. One operation = one index in the fault schedule.
#[derive(Debug, Default, Clone, Copy)]
pub struct FaultIo;

impl FaultIo {
    /// Claims the next operation index of the armed schedule, and whether
    /// the power cut fires at it; `Err` when the cut already happened
    /// (every op after the kill fails).
    fn next_op(&self) -> io::Result<(FaultPlan, u64, bool)> {
        faults::with_armed(|armed| match armed {
            None => Ok((FaultPlan::default(), 0, false)),
            Some(a) => a
                .claim_disk_op()
                .map_err(|ops| injected(InjectedFaultKind::Killed, ops)),
        })
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
        let (plan, op, kill) = self.next_op()?;
        if kill {
            // Power cut mid-write: half the bytes land, nothing is synced.
            let _ = RealIo.write_file(path, &bytes[..bytes.len() / 2]);
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_ENOSPC, op, plan.disk_enospc) {
            count_injected(InjectedFaultKind::Enospc);
            return Err(injected(InjectedFaultKind::Enospc, op));
        }
        if plan.decide(SITE_TORN, op, plan.disk_torn) {
            let _ = RealIo.write_file(path, &bytes[..bytes.len() / 2]);
            count_injected(InjectedFaultKind::TornWrite);
            return Err(injected(InjectedFaultKind::TornWrite, op));
        }
        if plan.decide(SITE_EIO, op, plan.disk_eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        RealIo.write_file(path, bytes)?;
        if plan.decide(SITE_FSYNC, op, plan.disk_fsync) {
            count_injected(InjectedFaultKind::FsyncFailed);
            return Err(injected(InjectedFaultKind::FsyncFailed, op));
        }
        Ok(())
    }

    fn lock_file(&self, path: &Path, bytes: &[u8]) -> io::Result<Option<File>> {
        let (plan, op, kill) = self.next_op()?;
        if kill {
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
        if plan.decide(SITE_ENOSPC, op, plan.disk_enospc) {
            count_injected(InjectedFaultKind::Enospc);
            return Err(injected(InjectedFaultKind::Enospc, op));
        }
        if plan.decide(SITE_EIO, op, plan.disk_eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        let Some(lock) = RealIo.lock_file(path, bytes)? else {
            return Ok(None);
        };
        if plan.decide(SITE_FSYNC, op, plan.disk_fsync) {
            // Unlink while still holding, as a releasing holder does.
            let _ = std::fs::remove_file(path);
            drop(lock);
            count_injected(InjectedFaultKind::FsyncFailed);
            return Err(injected(InjectedFaultKind::FsyncFailed, op));
        }
        Ok(Some(lock))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (plan, op, kill) = self.next_op()?;
        if kill {
            // Power cut before the rename: the temp file stays orphaned.
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_EIO, op, plan.disk_eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        RealIo.rename(from, to)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        let (plan, op, kill) = self.next_op()?;
        if kill {
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_FSYNC, op, plan.disk_fsync) {
            count_injected(InjectedFaultKind::FsyncFailed);
            return Err(injected(InjectedFaultKind::FsyncFailed, op));
        }
        RealIo.fsync_dir(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let (plan, op, kill) = self.next_op()?;
        if kill {
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_EIO, op, plan.disk_eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        RealIo.read(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let (plan, op, kill) = self.next_op()?;
        if kill {
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_EIO, op, plan.disk_eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        RealIo.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let (plan, op, kill) = self.next_op()?;
        if kill {
            count_injected(InjectedFaultKind::Killed);
            return Err(injected(InjectedFaultKind::Killed, op));
        }
        if plan.decide(SITE_ENOSPC, op, plan.disk_enospc) {
            count_injected(InjectedFaultKind::Enospc);
            return Err(injected(InjectedFaultKind::Enospc, op));
        }
        if plan.decide(SITE_EIO, op, plan.disk_eio) {
            count_injected(InjectedFaultKind::Eio);
            return Err(injected(InjectedFaultKind::Eio, op));
        }
        RealIo.create_dir_all(path)
    }
}

/// The active [`CkptIo`]: [`RealIo`] on a thread with no plan armed, the
/// injector under one (so an inert plan still counts operations).
pub fn io() -> &'static dyn CkptIo {
    if faults::with_armed(|armed| armed.is_some()) {
        &FaultIo
    } else {
        &RealIo
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
    use crate::faults::with_faults;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn disarmed_layer_is_the_real_filesystem() {
        let path = temp_path("real");
        io().write_file(&path, b"plain").unwrap();
        assert_eq!(io().read(&path).unwrap(), b"plain");
        io().remove_file(&path).unwrap();
        assert!(io().read(&path).is_err());
    }

    #[test]
    fn enospc_schedule_fails_writes_typed_and_leaves_no_file() {
        let path = temp_path("enospc");
        with_faults(
            FaultPlan {
                disk_enospc: 1.0,
                ..FaultPlan::default()
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
        with_faults(
            FaultPlan {
                disk_torn: 1.0,
                ..FaultPlan::default()
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
        with_faults(
            FaultPlan {
                disk_kill_at: Some(1),
                ..FaultPlan::default()
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
        with_faults(FaultPlan::default(), || {
            assert_eq!(ops_performed(), 0);
            io().write_file(&path, b"x").unwrap();
            io().read(&path).unwrap();
            io().remove_file(&path).unwrap();
            assert_eq!(ops_performed(), 3);
        });
    }
}
