//! The parallel scenario-evaluation engine.
//!
//! Monte Carlo margining, design-space exploration and model-vs-simulator
//! sweeps all evaluate many independent scenarios — embarrassingly parallel
//! work that previously ran on one core. This module fans those
//! evaluations out over [`std::thread::scope`] workers pulling from a
//! chunked work queue, with two hard guarantees:
//!
//! 1. **Determinism**: results are a function of the problem alone, never
//!    of the thread count. Work is split into *fixed-size* chunks whose
//!    boundaries do not depend on `threads`, each chunk's result lands in
//!    its own slot, and the engine returns chunks in index order. Randomized
//!    consumers additionally seed one RNG stream per chunk
//!    ([`ssn_numeric::rng::Rng::from_seed_and_stream`]), so a chunk draws
//!    identical variates no matter which worker executes it — `--threads 8`
//!    is bit-identical to `--threads 1`.
//! 2. **No new dependencies**: plain scoped threads and atomics; no work-
//!    stealing runtime.
//!
//! Every run returns [`ExecStats`] (wall time, throughput, worker
//! utilization) so speedups are measured, not assumed.
//!
//! # Examples
//!
//! ```
//! use ssn_core::parallel::{try_run_chunked, ExecPolicy};
//!
//! // Square 1000 numbers in chunks of 128 on all available cores.
//! let (chunks, stats) = try_run_chunked(1000, 128, &ExecPolicy::auto(), |_, range| {
//!     range.map(|i| i * i).collect::<Vec<_>>()
//! });
//! let squares: Vec<usize> = chunks.into_iter().flat_map(Result::unwrap).collect();
//! assert_eq!(squares.len(), 1000);
//! assert_eq!(squares[999], 999 * 999);
//! assert_eq!(stats.items, 1000);
//! ```
//!
//! Workloads do not call the engine directly: they run on
//! [`crate::durable::run_chunked_durable`], which adds checkpoints, a
//! budget and the shared collect step on top of it.

use crate::faults::RunScope;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a parallel run may use the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    threads: usize,
    chunk_retries: usize,
}

impl ExecPolicy {
    /// One worker: the exact serial evaluation order, no threads spawned.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            chunk_retries: 0,
        }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            chunk_retries: 0,
        }
    }

    /// Exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            chunk_retries: 0,
        }
    }

    /// Allows each panicked chunk to be re-evaluated up to `retries` extra
    /// times before it is recorded as failed. The default is 0 — a chunk
    /// gets exactly one attempt, the engine's historical behavior.
    pub fn with_chunk_retries(mut self, retries: usize) -> Self {
        self.chunk_retries = retries;
        self
    }

    /// The worker count this policy resolves to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Extra attempts allowed per panicked chunk.
    pub fn chunk_retries(&self) -> usize {
        self.chunk_retries
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::auto()
    }
}

/// Telemetry of one parallel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// End-to-end wall time of the run.
    pub wall: Duration,
    /// Total in-chunk compute time summed over all workers.
    pub busy: Duration,
    /// Workers the run was allowed to use.
    pub threads: usize,
    /// Scenario evaluations performed.
    pub items: usize,
    /// Work-queue chunks the items were split into.
    pub chunks: usize,
    /// Chunks that failed: panicked past their retry budget, or (on the
    /// durable runner) returned an error.
    pub failed_chunks: usize,
    /// Chunks that panicked at least once but were re-attempted under
    /// [`ExecPolicy::with_chunk_retries`] (whether or not they eventually
    /// succeeded).
    pub retried_chunks: usize,
    /// Time the workers spent *off* compute — claiming chunks from the
    /// queue, writing result slots, loop bookkeeping — summed over all
    /// workers. `busy + sched_wait` is each worker's in-loop time, so a
    /// large `sched_wait` means the chunks are too fine for the queue.
    pub sched_wait: Duration,
    /// Chunks restored from a checkpoint journal instead of being
    /// evaluated (0 for a run without a journal).
    pub checkpointed_chunks: usize,
    /// Wall time accumulated across *all* sessions of the run: prior
    /// (checkpointed) sessions' wall plus this session's `wall`. Equal to
    /// `wall` unless the run resumed a journal that a prior session wrote.
    pub elapsed_wall: Duration,
}

impl ExecStats {
    /// Evaluations per wall-clock second; 0.0 when the wall time is too
    /// short to resolve (an `inf eval/s` rate is a measurement artifact,
    /// not a throughput).
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.items as f64 / secs
    }

    /// Fraction of the workers' allotted wall time spent computing
    /// (1.0 = every worker busy the whole run). A serial run reports its
    /// true compute fraction of wall time — unclamped, so a busy-time
    /// accounting bug shows up as `> 1.0` instead of hiding at 100%.
    pub fn utilization(&self) -> f64 {
        let budget = self.wall.as_secs_f64() * self.threads as f64;
        if budget <= 0.0 {
            return 0.0;
        }
        let busy = self.busy.as_secs_f64();
        // Busy time is measured strictly inside the wall window, so it can
        // only exceed the budget through clock granularity — allow a small
        // relative + absolute tolerance before declaring the books cooked.
        debug_assert!(
            busy <= budget * 1.05 + 1e-3,
            "busy {busy:.6} s exceeds wall x threads budget {budget:.6} s"
        );
        busy / budget
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} evaluations in {:.3} s on {} thread{} ({:.0} eval/s, {:.0}% utilization)",
            self.items,
            self.wall.as_secs_f64(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.items_per_sec(),
            self.utilization() * 100.0
        )?;
        if self.failed_chunks > 0 {
            write!(f, ", {} failed chunk(s)", self.failed_chunks)?;
        }
        if self.retried_chunks > 0 {
            write!(f, ", {} retried chunk(s)", self.retried_chunks)?;
        }
        // Durable-run fields render only when the run resumed a journal,
        // so a fresh run's line describes just its own session.
        if self.checkpointed_chunks > 0 {
            write!(f, ", {} checkpointed chunk(s)", self.checkpointed_chunks)?;
        }
        if self.elapsed_wall > self.wall {
            write!(
                f,
                ", {:.3} s elapsed across sessions",
                self.elapsed_wall.as_secs_f64()
            )?;
        }
        Ok(())
    }
}

/// One chunk's failure: the worker evaluating it panicked (past any retry
/// budget). The remaining chunks are unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkError {
    /// Index of the failed chunk.
    pub chunk: usize,
    /// The item range the chunk covered.
    pub range: Range<usize>,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chunk {} (items {}..{}) failed: {}",
            self.chunk, self.range.start, self.range.end, self.message
        )
    }
}

impl std::error::Error for ChunkError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// The chunk index ranges `[i * chunk_size, min((i+1) * chunk_size, n))`.
fn chunk_ranges(n_items: usize, chunk_size: usize) -> Vec<Range<usize>> {
    let chunk_size = chunk_size.max(1);
    (0..n_items.div_ceil(chunk_size))
        .map(|c| c * chunk_size..((c + 1) * chunk_size).min(n_items))
        .collect()
}

/// Evaluates `n_items` work items split into fixed `chunk_size` chunks,
/// fanning chunks out over `policy.threads()` scoped workers.
///
/// `eval` receives `(chunk_index, item_range)` and returns the chunk's
/// result; the engine returns all chunk results **in chunk order** together
/// with run telemetry. Chunk boundaries depend only on `n_items` and
/// `chunk_size`, so the returned vector is identical for every thread
/// count; randomized evaluators should seed per `chunk_index` to extend
/// that guarantee to their variates.
///
/// With one thread (or one chunk) everything runs inline on the calling
/// thread — the exact serial path, no spawns.
///
/// Each chunk evaluation runs under [`std::panic::catch_unwind`]: a chunk
/// that panics yields `Err(`[`ChunkError`]`)` in its slot while every other
/// chunk completes normally. [`ExecStats::failed_chunks`] counts the
/// failures and [`ExecStats::retried_chunks`] the chunks that consumed
/// retry budget ([`ExecPolicy::with_chunk_retries`]).
pub fn try_run_chunked<T, F>(
    n_items: usize,
    chunk_size: usize,
    policy: &ExecPolicy,
    eval: F,
) -> (Vec<Result<T, ChunkError>>, ExecStats)
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(n_items, chunk_size);
    let n_chunks = ranges.len();
    let workers = policy.threads().min(n_chunks.max(1));
    let started = Instant::now();
    let retried = AtomicUsize::new(0);

    let attempt = |c: usize, r: Range<usize>| -> Result<T, ChunkError> {
        let mut tries = 0usize;
        loop {
            match std::panic::catch_unwind(AssertUnwindSafe(|| eval(c, r.clone()))) {
                Ok(v) => {
                    if tries > 0 {
                        retried.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(v);
                }
                Err(payload) => {
                    if tries < policy.chunk_retries() {
                        tries += 1;
                        continue;
                    }
                    if tries > 0 {
                        retried.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(ChunkError {
                        chunk: c,
                        range: r,
                        message: panic_message(payload),
                    });
                }
            }
        }
    };

    let (results, busy, sched_wait) = if workers <= 1 {
        // The inline path measures per-chunk compute exactly like a
        // worker would, so `busy` means the same thing at every thread
        // count and the loop overhead lands in `sched_wait`, not `busy`.
        let t0 = Instant::now();
        let mut busy = Duration::ZERO;
        let results: Vec<Result<T, ChunkError>> = ranges
            .iter()
            .enumerate()
            .map(|(c, r)| {
                let c0 = Instant::now();
                let out = attempt(c, r.clone());
                busy += c0.elapsed();
                out
            })
            .collect();
        (results, busy, t0.elapsed().saturating_sub(busy))
    } else {
        let slots: Mutex<Vec<Option<Result<T, ChunkError>>>> =
            Mutex::new((0..n_chunks).map(|_| None).collect());
        let cursor = AtomicUsize::new(0);
        let busy_ns = AtomicU64::new(0);
        let wait_ns = AtomicU64::new(0);
        // Workers run under the caller's fault plan and kernel deadline.
        let run = RunScope::capture();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _run = run.enter();
                    let loop_start = Instant::now();
                    let mut compute = Duration::ZERO;
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let t0 = Instant::now();
                        let out = attempt(c, ranges[c].clone());
                        compute += t0.elapsed();
                        slots.lock().expect("no poisoned workers")[c] = Some(out);
                    }
                    busy_ns.fetch_add(compute.as_nanos() as u64, Ordering::Relaxed);
                    wait_ns.fetch_add(
                        loop_start.elapsed().saturating_sub(compute).as_nanos() as u64,
                        Ordering::Relaxed,
                    );
                    // Merge this worker's telemetry before the scope joins
                    // so it lands inside the caller's session.
                    ssn_telemetry::flush_thread();
                });
            }
        });
        let results: Vec<Result<T, ChunkError>> = slots
            .into_inner()
            .expect("scope joined all workers")
            .into_iter()
            .map(|slot| slot.expect("every chunk was claimed exactly once"))
            .collect();
        (
            results,
            Duration::from_nanos(busy_ns.load(Ordering::Relaxed)),
            Duration::from_nanos(wait_ns.load(Ordering::Relaxed)),
        )
    };

    let wall = started.elapsed();
    let stats = ExecStats {
        wall,
        busy,
        threads: workers.max(1),
        items: n_items,
        chunks: n_chunks,
        failed_chunks: results.iter().filter(|r| r.is_err()).count(),
        retried_chunks: retried.load(Ordering::Relaxed),
        sched_wait,
        checkpointed_chunks: 0,
        elapsed_wall: wall,
    };
    if ssn_telemetry::enabled() {
        // Scheduling overhead has no scope of its own to time — record the
        // already-measured wait under the caller's span stack, and expose
        // the compute/wait split as counters for the JSON sink.
        ssn_telemetry::record("parallel.sched_wait", stats.sched_wait, n_chunks as u64);
        ssn_telemetry::add("parallel.chunks", n_chunks as u64);
        ssn_telemetry::add("parallel.compute_ns", stats.busy.as_nanos() as u64);
        ssn_telemetry::add("parallel.sched_wait_ns", stats.sched_wait.as_nanos() as u64);
    }
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_resolve_to_positive_threads() {
        assert_eq!(ExecPolicy::serial().threads(), 1);
        assert_eq!(ExecPolicy::with_threads(0).threads(), 1);
        assert_eq!(ExecPolicy::with_threads(6).threads(), 6);
        assert!(ExecPolicy::auto().threads() >= 1);
        assert_eq!(ExecPolicy::default(), ExecPolicy::auto());
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(3, 100), vec![0..3]);
        assert!(chunk_ranges(0, 4).is_empty());
        // chunk_size 0 is clamped, not a panic.
        assert_eq!(chunk_ranges(2, 0), vec![0..1, 1..2]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let eval = |c: usize, range: Range<usize>| -> Vec<u64> {
            // A chunk-seeded computation, like the Monte Carlo engine.
            let mut rng = ssn_numeric::rng::Rng::from_seed_and_stream(99, c as u64);
            range.map(|i| rng.next_u64() ^ i as u64).collect()
        };
        let (serial, s_stats) = try_run_chunked(1000, 64, &ExecPolicy::serial(), eval);
        for threads in [2, 4, 8] {
            let (par, p_stats) =
                try_run_chunked(1000, 64, &ExecPolicy::with_threads(threads), eval);
            assert_eq!(serial, par, "thread count {threads} changed results");
            assert_eq!(p_stats.items, s_stats.items);
            assert_eq!(p_stats.chunks, s_stats.chunks);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let (results, stats) =
            try_run_chunked(0, 16, &ExecPolicy::auto(), |_, r| r.collect::<Vec<_>>());
        assert!(results.is_empty());
        assert_eq!(stats.items, 0);
        assert_eq!(stats.chunks, 0);
    }

    #[test]
    fn stats_report_sane_telemetry() {
        let (_, stats) = try_run_chunked(256, 16, &ExecPolicy::with_threads(2), |_, range| {
            range.map(|i| (i as f64).sqrt()).sum::<f64>()
        });
        assert!(stats.items_per_sec() > 0.0);
        assert!((0.0..=1.0).contains(&stats.utilization()));
        let text = stats.to_string();
        assert!(text.contains("256 evaluations"), "{text}");
        assert!(text.contains("eval/s"), "{text}");
        // Serial display uses the singular form.
        let (_, serial) = try_run_chunked(4, 2, &ExecPolicy::serial(), |_, _| ());
        assert!(serial.to_string().contains("1 thread ("), "{serial}");
    }

    fn synthetic_stats(wall: Duration, busy: Duration, threads: usize) -> ExecStats {
        ExecStats {
            wall,
            busy,
            threads,
            items: 100,
            chunks: 10,
            failed_chunks: 0,
            retried_chunks: 0,
            sched_wait: Duration::ZERO,
            checkpointed_chunks: 0,
            elapsed_wall: wall,
        }
    }

    #[test]
    fn durable_fields_render_only_when_set() {
        let mut stats = synthetic_stats(Duration::from_millis(100), Duration::from_millis(50), 1);
        let baseline = stats.to_string();
        assert!(!baseline.contains("checkpointed"), "{baseline}");
        assert!(!baseline.contains("elapsed across sessions"), "{baseline}");
        stats.checkpointed_chunks = 4;
        stats.elapsed_wall = Duration::from_millis(350);
        let text = stats.to_string();
        assert!(text.contains("4 checkpointed chunk(s)"), "{text}");
        assert!(text.contains("0.350 s elapsed across sessions"), "{text}");
        assert!(text.starts_with(&baseline), "{text} vs {baseline}");
    }

    #[test]
    fn zero_wall_rate_is_zero_not_infinite() {
        // Regression: sub-tick runs used to report `inf eval/s`.
        let stats = synthetic_stats(Duration::ZERO, Duration::ZERO, 1);
        assert_eq!(stats.items_per_sec(), 0.0);
        assert_eq!(stats.utilization(), 0.0);
        let text = stats.to_string();
        assert!(!text.contains("inf"), "{text}");
        assert!(text.contains("0 eval/s"), "{text}");
    }

    #[test]
    fn utilization_is_unclamped() {
        // Regression: `.min(1.0)` used to hide busy-time accounting errors.
        // A clock-granularity overshoot within the debug-assert tolerance
        // must be reported as-is, not silently clamped to 100%.
        let over = synthetic_stats(Duration::from_millis(100), Duration::from_millis(101), 1);
        assert!(
            over.utilization() > 1.0,
            "clamp is back: {}",
            over.utilization()
        );
        let half = synthetic_stats(Duration::from_millis(100), Duration::from_millis(40), 1);
        assert!((half.utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn serial_run_reports_true_compute_fraction() {
        // Real run: ~2 ms of compute per chunk dominates the loop, so the
        // compute fraction is high but honest (never above budget).
        let (_, stats) = try_run_chunked(4, 1, &ExecPolicy::serial(), |_, _| {
            std::thread::sleep(Duration::from_millis(2))
        });
        let u = stats.utilization();
        assert!(u > 0.5, "compute fraction implausibly low: {u}");
        assert!(u <= 1.0 + 1e-3, "busy exceeded wall on a serial run: {u}");
        assert!(stats.busy <= stats.wall + Duration::from_millis(1));
        assert!(stats.sched_wait < stats.wall);
    }

    #[test]
    fn telemetry_captures_chunk_scheduling() {
        for threads in [1usize, 3] {
            let session = ssn_telemetry::Session::start();
            let (_, stats) = {
                let _root = ssn_telemetry::span("test.run");
                try_run_chunked(64, 4, &ExecPolicy::with_threads(threads), |_, range| {
                    range.map(|i| (i as f64).sqrt()).sum::<f64>()
                })
            };
            let report = session.finish();
            assert_eq!(report.counter("parallel.chunks"), Some(16));
            assert_eq!(
                report.counter("parallel.compute_ns"),
                Some(stats.busy.as_nanos() as u64)
            );
            assert_eq!(
                report.counter("parallel.sched_wait_ns"),
                Some(stats.sched_wait.as_nanos() as u64)
            );
            let wait = report
                .span("test.run.parallel.sched_wait")
                .expect("sched_wait span under the caller's stack");
            assert_eq!(wait.count, 16);
            assert_eq!(wait.total, stats.sched_wait);
        }
    }

    #[test]
    fn worker_count_never_exceeds_chunk_count() {
        let (_, stats) = try_run_chunked(3, 1, &ExecPolicy::with_threads(16), |c, _| c);
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.chunks, 3);
    }

    /// Silences the default panic hook for the duration of a closure so
    /// intentionally-panicking tests don't spam stderr.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn poisoned_chunk_is_isolated_and_the_rest_complete() {
        quiet_panics(|| {
            for threads in [1, 4] {
                let (results, stats) =
                    try_run_chunked(100, 10, &ExecPolicy::with_threads(threads), |c, range| {
                        if c == 3 {
                            panic!("chunk 3 poisoned");
                        }
                        range.sum::<usize>()
                    });
                assert_eq!(results.len(), 10);
                assert_eq!(stats.failed_chunks, 1);
                assert_eq!(stats.retried_chunks, 0);
                for (c, r) in results.iter().enumerate() {
                    if c == 3 {
                        let e = r.as_ref().unwrap_err();
                        assert_eq!(e.chunk, 3);
                        assert_eq!(e.range, 30..40);
                        assert!(e.message.contains("poisoned"), "{e}");
                        assert!(e.to_string().contains("chunk 3"));
                    } else {
                        assert_eq!(*r.as_ref().unwrap(), (c * 10..c * 10 + 10).sum());
                    }
                }
            }
        });
    }

    #[test]
    fn retry_budget_rescues_transient_panics() {
        use std::sync::atomic::AtomicBool;
        quiet_panics(|| {
            let fired = AtomicBool::new(false);
            let policy = ExecPolicy::serial().with_chunk_retries(1);
            let (results, stats) = try_run_chunked(40, 10, &policy, |c, range| {
                if c == 2 && !fired.swap(true, Ordering::SeqCst) {
                    panic!("transient");
                }
                range.len()
            });
            assert!(results.iter().all(|r| r.is_ok()));
            assert_eq!(stats.failed_chunks, 0);
            assert_eq!(stats.retried_chunks, 1);
        });
    }

    #[test]
    fn persistent_panics_exhaust_the_retry_budget() {
        quiet_panics(|| {
            let policy = ExecPolicy::with_threads(2).with_chunk_retries(2);
            let (results, stats) = try_run_chunked(40, 10, &policy, |c, _| {
                if c == 1 {
                    panic!("always");
                }
                c
            });
            assert_eq!(stats.failed_chunks, 1);
            assert_eq!(stats.retried_chunks, 1);
            assert!(results[1].is_err());
        });
    }

    #[test]
    fn failed_chunks_show_up_in_telemetry_text() {
        quiet_panics(|| {
            let (_, stats) = try_run_chunked(20, 10, &ExecPolicy::serial(), |c, _| {
                if c == 0 {
                    panic!("no");
                }
                c
            });
            let text = stats.to_string();
            assert!(text.contains("1 failed chunk(s)"), "{text}");
        });
    }
}
