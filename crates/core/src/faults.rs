//! Deterministic fault injection, scoped to one run.
//!
//! One [`FaultPlan`] describes every fault the workspace can inject:
//!
//! * **Compute** — NaN model outputs, worker panics inside a parallel
//!   chunk (caught by the `catch_unwind` isolation in
//!   [`crate::parallel::try_run_chunked`]), and force-disabled rungs of the
//!   `ssn_numeric::solve` fallback ladder;
//! * **Durable runs** — a simulated crash after a number of checkpoint
//!   commits, optionally tearing the last one;
//! * **Disk** — ENOSPC, EIO, failed fsync, torn writes, and a power cut at
//!   one operation index, injected by [`crate::storage`];
//! * **Network** — torn request bodies, disconnects before the response,
//!   and handler panics, injected by `ssn-server` ([`torn_body`],
//!   [`disconnect_before_write`], [`maybe_panic_handler`]).
//!
//! Every decision is a pure function of the plan's seed, the site, and an
//! index, never of the thread or the clock, so an injected fault pattern is
//! bit-identical at any `--threads` setting. Compute sites draw from
//! [`Rng::from_seed_and_stream`] keyed by the item or chunk; disk and net
//! sites share one FNV-1a draw keyed by the storage operation or the
//! connection serial.
//!
//! # Scope
//!
//! A plan is armed for one run, not for the process. [`with_faults`] arms
//! it on the calling thread for the duration of its body, and `ssn` arms
//! `SSN_FAULTS` ([`FaultPlan::parse`]) the same way around one command. A
//! run's own threads see the plan because the thread that spawns them
//! hands over its [`RunScope`]: `try_run_chunked` to its workers, and
//! `ssn-server` to its connection threads and job workers. The scope also
//! carries the `ssn_numeric::cancel` kernel deadline. Any other thread —
//! another test, another run — sees neither. The armed plan's mutable
//! state (the storage operation counter, the power-cut latch, and the
//! `panic_once` record) belongs to that one arming.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, PoisonError};
use std::time::Instant;

use ssn_numeric::cancel::{self, DeadlineGuard};
use ssn_numeric::rng::Rng;

/// What to inject, and how often. Every probability defaults to 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every injection decision (different sites derive different
    /// streams from it).
    pub seed: u64,
    /// Probability that a model output is replaced by NaN, per item.
    pub nan_probability: f64,
    /// Probability that a worker panics, per chunk.
    pub panic_probability: f64,
    /// When true, each chunk panics at most once — a retried chunk
    /// succeeds, which is how the retry budget is tested.
    pub panic_once: bool,
    /// Rungs of the solver fallback ladder to force-fail, as a
    /// `ssn_numeric::solve::rung` bitmask.
    pub disable_solver_rungs: u8,
    /// Simulated process death for durable runs: after this many checkpoint
    /// commits the run stops scheduling work, stops committing, and returns
    /// `SsnError::Interrupted` — the library-level equivalent of `kill -9`
    /// at a chunk boundary.
    pub crash_after_commits: Option<usize>,
    /// When the simulated crash fires, also tear the last commit: the final
    /// journal on disk is cut mid-record, as if the process died inside the
    /// write. Resume must detect this as corruption, never trust it.
    pub torn_crash: bool,
    /// Probability a write-class storage operation fails with ENOSPC
    /// (persistent: never retried, goes straight to the degradation ladder).
    pub disk_enospc: f64,
    /// Probability a storage operation fails with a flaky-media EIO
    /// (transient: retried with backoff; a retry re-decides at a fresh
    /// operation index).
    pub disk_eio: f64,
    /// Probability an fsync fails after the data was written (transient).
    pub disk_fsync: f64,
    /// Probability a write is torn partway — half the bytes land, then the
    /// operation errors (transient; the retry rewrites from scratch).
    pub disk_torn: f64,
    /// Hard power cut at exactly this storage operation index: the
    /// operation applies a *partial* effect, and every later operation
    /// fails — the crash-consistency sweep's knob.
    pub disk_kill_at: Option<u64>,
    /// Probability a request body read is torn mid-transfer, per connection.
    pub net_torn: f64,
    /// Probability the connection drops before the response is written.
    pub net_disconnect: f64,
    /// Probability a request handler panics mid-computation.
    pub net_panic: f64,
}

impl FaultPlan {
    /// Parses the `SSN_FAULTS` grammar, every field optional and in any
    /// order, `P` a probability in [0, 1]:
    ///
    /// ```text
    /// seed=S[,disk.enospc=P][,disk.eio=P][,disk.fsync=P][,disk.torn=P][,disk.kill_at=K]
    ///       [,net.torn=P][,net.disconnect=P][,net.panic=P][,crash.after_commits=N]
    /// ```
    ///
    /// # Errors
    ///
    /// A message naming the field that is malformed: an unknown key, a
    /// value that does not parse or is out of range, or a field with no `=`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for field in text.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("field {field:?} has no '='"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => plan.seed = number(key, value)?,
                "disk.enospc" => plan.disk_enospc = probability(key, value)?,
                "disk.eio" => plan.disk_eio = probability(key, value)?,
                "disk.fsync" => plan.disk_fsync = probability(key, value)?,
                "disk.torn" => plan.disk_torn = probability(key, value)?,
                "disk.kill_at" => plan.disk_kill_at = Some(number(key, value)?),
                "net.torn" => plan.net_torn = probability(key, value)?,
                "net.disconnect" => plan.net_disconnect = probability(key, value)?,
                "net.panic" => plan.net_panic = probability(key, value)?,
                "crash.after_commits" => plan.crash_after_commits = Some(number(key, value)?),
                _ => return Err(format!("unknown key {key:?}")),
            }
        }
        Ok(plan)
    }

    /// The draw the disk and net sites share: FNV-1a over
    /// `(seed, site, index)`, whose upper 53 bits are a uniform in [0, 1)
    /// that fires under `probability`.
    pub(crate) fn decide(&self, site: u64, index: u64, probability: f64) -> bool {
        if probability <= 0.0 {
            return false;
        }
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        bytes[8..16].copy_from_slice(&site.to_le_bytes());
        bytes[16..].copy_from_slice(&index.to_le_bytes());
        let u = (crate::durable::fnv1a64(&bytes) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < probability
    }
}

fn number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{key}={value:?} is not a whole number"))
}

fn probability(key: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
        _ => Err(format!("{key}={value:?} is not a probability in [0, 1]")),
    }
}

// Distinct stream keys per compute site, so "NaN at item 7" and "panic in
// chunk 7" are independent decisions.
const SITE_NAN: u64 = 0x5153_4e5f_4e61_4e00;
const SITE_PANIC: u64 = 0x5153_4e5f_7061_6e00;
// Net sites, keyed by connection serial.
const SITE_NET_TORN: u64 = 0;
const SITE_NET_DISCONNECT: u64 = 1;
const SITE_NET_PANIC: u64 = 2;

/// A plan armed for one run, with the state its sites share across the
/// run's threads.
#[derive(Debug)]
pub(crate) struct Armed {
    plan: FaultPlan,
    /// Storage operations claimed so far: the disk schedule's index.
    ops: AtomicU64,
    /// Set once the `disk_kill_at` power cut has fired.
    killed: AtomicBool,
    /// Chunks whose `panic_once` panic has fired.
    fired_chunks: Mutex<HashSet<usize>>,
}

impl Armed {
    /// Claims the next storage operation index of this run's disk
    /// schedule, as `(plan, op, power cut fires at op)`; `Err(ops)` once
    /// the cut has happened (every later operation fails).
    pub(crate) fn claim_disk_op(&self) -> Result<(FaultPlan, u64, bool), u64> {
        if self.killed.load(Ordering::SeqCst) {
            return Err(self.ops.load(Ordering::SeqCst));
        }
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        let kill = self.plan.disk_kill_at == Some(op);
        if kill {
            self.killed.store(true, Ordering::SeqCst);
        }
        Ok((self.plan, op, kill))
    }

    /// Storage operations claimed so far in this run.
    pub(crate) fn disk_ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// `true` once the `disk_kill_at` power cut has fired.
    pub(crate) fn disk_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }
}

thread_local! {
    static ARMED: RefCell<Option<Arc<Armed>>> = const { RefCell::new(None) };
}

/// Runs `f` on the plan armed on this thread, if any.
pub(crate) fn with_armed<R>(f: impl FnOnce(Option<&Armed>) -> R) -> R {
    ARMED.with_borrow(|armed| f(armed.as_deref()))
}

/// The fault plan and kernel deadline in force on one thread, captured so
/// the threads a run spawns can enter them.
#[derive(Debug, Clone)]
pub struct RunScope {
    armed: Option<Arc<Armed>>,
    deadline: Option<Instant>,
}

impl RunScope {
    /// Captures the calling thread's plan and kernel deadline.
    pub fn capture() -> Self {
        Self {
            armed: ARMED.with_borrow(Clone::clone),
            deadline: cancel::deadline(),
        }
    }

    /// Installs the captured plan and deadline on the calling thread until
    /// the returned guard drops.
    pub fn enter(&self) -> ScopeGuard {
        ScopeGuard {
            prev: ARMED.replace(self.armed.clone()),
            _deadline: cancel::arm_at(self.deadline),
        }
    }
}

/// Restores the thread's previous plan and deadline when dropped.
#[must_use = "the scope ends when the guard drops"]
#[derive(Debug)]
pub struct ScopeGuard {
    prev: Option<Arc<Armed>>,
    _deadline: DeadlineGuard,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        ARMED.set(self.prev.take());
    }
}

/// Runs `f` with `plan` armed on this thread (and on the threads its runs
/// hand their [`RunScope`] to), then disarms — also when `f` panics.
///
/// Injected panics are expected and caught, so the first call installs a
/// panic hook that stays silent for them (their messages start with
/// `injected`); every other panic goes to the previous hook.
pub fn with_faults<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    static QUIET_HOOK: Once = Once::new();
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !message.is_some_and(|m| m.starts_with("injected")) {
                previous(info);
            }
        }));
    });
    let scope = RunScope {
        armed: Some(Arc::new(Armed {
            plan,
            ops: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            fired_chunks: Mutex::new(HashSet::new()),
        })),
        deadline: cancel::deadline(),
    };
    let _armed = scope.enter();
    f()
}

/// The NaN fault site of one chunk, read from the armed plan once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NanSite {
    seed: u64,
    probability: f64,
}

impl NanSite {
    /// `value`, or NaN when the plan poisons model output `item` (the
    /// global item index, e.g. the Monte Carlo sample number).
    #[inline]
    pub(crate) fn corrupt(self, item: usize, value: f64) -> f64 {
        if self.probability <= 0.0 {
            return value;
        }
        let mut rng = Rng::from_seed_and_stream(self.seed ^ SITE_NAN, item as u64);
        if rng.uniform() < self.probability {
            f64::NAN
        } else {
            value
        }
    }
}

/// Fault site: the NaN site for one chunk's model outputs (inert when no
/// plan is armed). Read once per chunk, applied per item.
pub(crate) fn nan_site() -> NanSite {
    with_armed(|armed| NanSite {
        seed: armed.map_or(0, |a| a.plan.seed),
        probability: armed.map_or(0.0, |a| a.plan.nan_probability),
    })
}

/// Fault site: panics according to the armed plan. Call at the top of a
/// parallel chunk evaluation; `chunk` keys the decision deterministically.
pub(crate) fn maybe_panic_chunk(chunk: usize) {
    let fire = with_armed(|armed| {
        armed.is_some_and(|a| {
            let p = a.plan.panic_probability;
            p > 0.0
                && Rng::from_seed_and_stream(a.plan.seed ^ SITE_PANIC, chunk as u64).uniform() < p
                // `insert` returns false when the chunk already fired;
                // under `panic_once` that second attempt succeeds.
                && (!a.plan.panic_once
                    || a.fired_chunks
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(chunk))
        })
    });
    if fire {
        panic!("injected fault: worker panic in chunk {chunk}");
    }
}

/// Fault site: the solver-ladder rungs the armed plan disables (0 when
/// disarmed).
pub(crate) fn solver_disabled_rungs() -> u8 {
    with_armed(|armed| armed.map_or(0, |a| a.plan.disable_solver_rungs))
}

/// Fault site: the armed crash plan for durable runs, as
/// `(crash_after_commits, torn)`. `None` when disarmed or no crash is
/// configured.
pub(crate) fn checkpoint_crash_plan() -> Option<(usize, bool)> {
    with_armed(|armed| {
        armed.and_then(|a| {
            a.plan
                .crash_after_commits
                .map(|after| (after, a.plan.torn_crash))
        })
    })
}

fn net_fires(site: u64, conn: u64, field: fn(&FaultPlan) -> f64) -> bool {
    with_armed(|armed| armed.is_some_and(|a| a.plan.decide(site, conn, field(&a.plan))))
}

/// Net fault site: should connection `conn`'s request body be torn?
pub fn torn_body(conn: u64) -> bool {
    net_fires(SITE_NET_TORN, conn, |p| p.net_torn)
}

/// Net fault site: should connection `conn` be dropped before its
/// response is written?
pub fn disconnect_before_write(conn: u64) -> bool {
    net_fires(SITE_NET_DISCONNECT, conn, |p| p.net_disconnect)
}

/// Net fault site: panics iff the plan injects a handler panic for
/// connection `conn`. Call *inside* the handler's `catch_unwind` boundary.
pub fn maybe_panic_handler(conn: u64) {
    if net_fires(SITE_NET_PANIC, conn, |p| p.net_panic) {
        panic!("injected handler panic (connection {conn})");
    }
}

/// A way to damage a checkpoint journal on disk, for exercising the
/// corruption-detection paths (`tests/durability.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalCorruption {
    /// Keep only the first `keep` bytes — a torn or interrupted write.
    Truncate {
        /// Bytes to keep from the start of the file.
        keep: usize,
    },
    /// XOR the byte at `offset` (modulo file length) with `mask` — silent
    /// media or transfer corruption that only a checksum can catch.
    BitFlip {
        /// Byte offset to damage (wrapped modulo the file length).
        offset: usize,
        /// Non-zero XOR mask applied to that byte.
        mask: u8,
    },
    /// Overwrite the format-version field with a version this build does
    /// not understand — a journal left behind by a different release.
    StaleVersion,
}

/// Applies `how` to the journal at `path` in place.
///
/// Test-only tooling: unlike the other fault sites this takes effect
/// immediately and needs no armed plan — corruption on disk is not a
/// runtime decision.
pub fn corrupt_checkpoint(path: &std::path::Path, how: JournalCorruption) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    match how {
        JournalCorruption::Truncate { keep } => bytes.truncate(keep),
        JournalCorruption::BitFlip { offset, mask } => {
            if !bytes.is_empty() {
                let i = offset % bytes.len();
                bytes[i] ^= if mask == 0 { 0x01 } else { mask };
            }
        }
        JournalCorruption::StaleVersion => {
            // The version field is the u32 directly after the 8-byte magic
            // (see `ssn_core::durable` format docs).
            if bytes.len() >= 12 {
                bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
            }
        }
    }
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hooks_are_transparent() {
        assert_eq!(nan_site().corrupt(7, 1.25).to_bits(), 1.25f64.to_bits());
        maybe_panic_chunk(3); // must not panic
        assert_eq!(solver_disabled_rungs(), 0);
        assert_eq!(checkpoint_crash_plan(), None);
        assert!(!torn_body(0));
        assert!(!disconnect_before_write(0));
        maybe_panic_handler(0); // must not panic
    }

    #[test]
    fn nan_injection_is_deterministic_per_item() {
        let plan = FaultPlan {
            seed: 42,
            nan_probability: 0.5,
            ..FaultPlan::default()
        };
        let pattern = |plan| {
            with_faults(plan, || {
                let site = nan_site();
                (0..64)
                    .map(|i| site.corrupt(i, 1.0).is_nan())
                    .collect::<Vec<bool>>()
            })
        };
        let a = pattern(plan);
        assert_eq!(a, pattern(plan));
        assert!(a.iter().any(|x| *x));
        assert!(a.iter().any(|x| !*x));
        // Different seeds give different patterns.
        assert_ne!(a, pattern(FaultPlan { seed: 43, ..plan }));
    }

    #[test]
    fn panic_once_lets_the_second_attempt_through() {
        let plan = FaultPlan {
            seed: 7,
            panic_probability: 1.0,
            panic_once: true,
            ..FaultPlan::default()
        };
        with_faults(plan, || {
            let first = std::panic::catch_unwind(|| maybe_panic_chunk(5));
            assert!(first.is_err());
            let second = std::panic::catch_unwind(|| maybe_panic_chunk(5));
            assert!(second.is_ok());
        });
    }

    #[test]
    fn crash_plan_is_exposed_only_while_armed() {
        assert_eq!(checkpoint_crash_plan(), None);
        let plan = FaultPlan {
            crash_after_commits: Some(3),
            torn_crash: true,
            ..FaultPlan::default()
        };
        with_faults(plan, || {
            assert_eq!(checkpoint_crash_plan(), Some((3, true)));
        });
        assert_eq!(checkpoint_crash_plan(), None);
        with_faults(FaultPlan::default(), || {
            assert_eq!(checkpoint_crash_plan(), None);
        });
    }

    #[test]
    fn disarm_survives_a_panicking_body() {
        let plan = FaultPlan {
            seed: 1,
            disable_solver_rungs: 0b10,
            ..FaultPlan::default()
        };
        let res = std::panic::catch_unwind(|| {
            with_faults(plan, || {
                assert_eq!(solver_disabled_rungs(), 0b10);
                panic!("body dies");
            })
        });
        assert!(res.is_err());
        assert_eq!(solver_disabled_rungs(), 0);
    }

    #[test]
    fn a_plan_reaches_another_thread_only_through_its_scope() {
        let plan = FaultPlan {
            disable_solver_rungs: 0b10,
            ..FaultPlan::default()
        };
        with_faults(plan, || {
            let _deadline = cancel::arm(Some(std::time::Duration::ZERO));
            let scope = RunScope::capture();
            std::thread::scope(|s| {
                let bystander = s.spawn(|| (solver_disabled_rungs(), cancel::deadline_exceeded()));
                assert_eq!(bystander.join().unwrap(), (0, false));
                let worker = s.spawn(|| {
                    let _in = scope.enter();
                    (solver_disabled_rungs(), cancel::deadline_exceeded())
                });
                assert_eq!(worker.join().unwrap(), (0b10, true));
            });
        });
    }

    #[test]
    fn parses_the_env_grammar() {
        let p = FaultPlan::parse(
            "seed=7, disk.enospc=0.25,disk.eio=0.5,disk.fsync=1,disk.torn=0.1,disk.kill_at=9,\
             net.torn=0.2,net.disconnect=0.3,net.panic=0.05,crash.after_commits=2",
        )
        .unwrap();
        let want = FaultPlan {
            seed: 7,
            disk_enospc: 0.25,
            disk_eio: 0.5,
            disk_fsync: 1.0,
            disk_torn: 0.1,
            disk_kill_at: Some(9),
            net_torn: 0.2,
            net_disconnect: 0.3,
            net_panic: 0.05,
            crash_after_commits: Some(2),
            ..FaultPlan::default()
        };
        assert_eq!(p, want);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn malformed_plans_name_the_offending_field() {
        for (text, names) in [
            ("seed=1,zebra=1", "zebra"),
            ("disk.enospc=2", "disk.enospc"),
            ("seed=1,disk.eio", "disk.eio"),
        ] {
            let err = FaultPlan::parse(text).expect_err(text);
            assert!(err.contains(names), "{text}: {err}");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_probability_shaped() {
        let p = FaultPlan {
            seed: 3,
            ..FaultPlan::default()
        };
        let fired: Vec<bool> = (0..1000).map(|i| p.decide(0, i, 0.5)).collect();
        let again: Vec<bool> = (0..1000).map(|i| p.decide(0, i, 0.5)).collect();
        assert_eq!(fired, again, "same seed and order fire identically");
        let count = fired.iter().filter(|&&b| b).count();
        assert!((300..700).contains(&count), "got {count} of 1000 at p=0.5");
        assert!(!p.decide(0, 3, 0.0), "zero probability never fires");
        assert!(p.decide(0, 3, 1.0), "unit probability always fires");
        // Sites are independent streams at the same index.
        let other: Vec<bool> = (0..1000).map(|i| p.decide(1, i, 0.5)).collect();
        assert_ne!(fired, other);
    }
}
