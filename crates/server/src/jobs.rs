//! The bounded durable-job queue: admission control, crash-safe
//! execution, and cooperative drain.
//!
//! Large requests don't run on the connection thread — they become *jobs*:
//! queued (bounded, load-shedding when full), executed by worker threads
//! under the durable engine with a checkpoint journal in the spool
//! directory, and published to the content-addressed result cache on
//! completion.
//!
//! Crash-safety contract: the journal path is derived from the job's
//! canonical digest (`job-<digest>.ckpt`), so after `kill -9` a restarted
//! server that receives the *same* request resumes the *same* journal —
//! the checkpoint layer validates the run spec, the journal lock recovers
//! the dead process's lock file, and the finished body is byte-identical
//! to an uninterrupted run (the CI gate proves this end to end).
//!
//! Drain contract: `drain()` stops dispatch, cancels the running jobs'
//! budgets (they checkpoint at the next chunk boundary and report
//! `Interrupted`), and waits for workers to go idle within the deadline.
//! Queued-but-unstarted jobs stay `Queued` in the ledger; they simply
//! never start — a client that resubmits after restart gets a fresh
//! admission.

use crate::api::{ApiError, ApiRequest};
use crate::cache::ResultCache;
use ssn_core::durable::{DurableOptions, RunBudget};
use ssn_core::faults::RunScope;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The publicly visible state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is computing it right now.
    Running,
    /// Finished; the result is in the cache under the job digest.
    Done,
    /// Failed with a typed error (the journal was discarded).
    Failed(ApiError),
    /// Stopped mid-run by drain or a simulated crash; the checkpoint
    /// journal survives and a resubmission resumes it.
    Interrupted,
}

impl JobStatus {
    /// Short status tag for response bodies.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed(_) => "failed",
            Self::Interrupted => "interrupted",
        }
    }
}

/// What `submit` decided.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// Admitted to the queue (or requeued after interrupt/failure).
    Accepted,
    /// The same digest is already queued/running/done — nothing new to do.
    Duplicate(JobStatus),
    /// Rejected: the queue is at capacity (load shed, 503).
    Shed,
    /// Rejected: the server is draining and admits no new work.
    Draining,
    /// Rejected: the spool disk is in declared degraded mode (journals
    /// cannot be written), so durable jobs are shed (503 + `Retry-After`)
    /// until a probe write lands again.
    DiskDegraded,
}

#[derive(Debug)]
struct JobEntry {
    request: ApiRequest,
    status: JobStatus,
    /// The running job's budget; `drain` cancels it through this handle.
    budget: Option<RunBudget>,
}

#[derive(Debug, Default)]
struct QueueState {
    pending: VecDeque<u64>,
    jobs: HashMap<u64, JobEntry>,
    /// Worker threads currently alive (for drain accounting).
    live_workers: usize,
}

#[derive(Debug)]
struct QueueShared {
    state: Mutex<QueueState>,
    cond: Condvar,
    capacity: usize,
    spool: PathBuf,
    cache: Arc<ResultCache>,
    draining: AtomicBool,
    shed: AtomicU64,
    completed: AtomicU64,
    interrupted: AtomicU64,
    resumed_chunks: AtomicU64,
    /// Raised when a worker's run lost its journaling to persistent
    /// storage failure; lowered when a probe write to the spool lands.
    disk_degraded: AtomicBool,
}

/// Handle to the queue (cheaply cloneable).
#[derive(Debug, Clone)]
pub struct JobQueue {
    shared: Arc<QueueShared>,
}

impl JobQueue {
    /// Starts `workers` worker threads over a queue of at most `capacity`
    /// pending jobs, spooling journals and results into `spool`. The
    /// workers run under the fault plan armed on the calling thread, if any.
    ///
    /// # Errors
    ///
    /// I/O errors creating the spool directory.
    pub fn start(
        capacity: usize,
        workers: usize,
        spool: PathBuf,
        cache: Arc<ResultCache>,
    ) -> std::io::Result<Self> {
        ssn_core::storage::io().create_dir_all(&spool)?;
        let shared = Arc::new(QueueShared {
            state: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            capacity: capacity.max(1),
            spool,
            cache,
            draining: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            interrupted: AtomicU64::new(0),
            resumed_chunks: AtomicU64::new(0),
            disk_degraded: AtomicBool::new(false),
        });
        {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.live_workers = workers.max(1);
        }
        let run = RunScope::capture();
        for i in 0..workers.max(1) {
            let shared = Arc::clone(&shared);
            let run = run.clone();
            std::thread::Builder::new()
                .name(format!("ssn-job-worker-{i}"))
                .spawn(move || {
                    let _run = run.enter();
                    worker_loop(&shared);
                })?;
        }
        Ok(Self { shared })
    }

    /// The journal path a job with `digest` checkpoints to.
    pub fn journal_path(&self, digest: u64) -> PathBuf {
        self.shared.spool.join(format!("job-{digest:016x}.ckpt"))
    }

    /// Admission control: admits `request` under its canonical digest,
    /// dedupes against in-flight jobs and the result cache, sheds at
    /// capacity, and refuses everything while draining.
    pub fn submit(&self, request: &ApiRequest) -> SubmitOutcome {
        let digest = request.digest();
        if self.shared.draining.load(Ordering::SeqCst) {
            return SubmitOutcome::Draining;
        }
        if self.shared.cache.contains(digest) {
            return SubmitOutcome::Duplicate(JobStatus::Done);
        }
        // Known-degraded spool: probe once per submission (half-open
        // circuit). A landed probe clears the flag and admits; a failed
        // one sheds the durable job rather than admit work whose journal
        // cannot be written.
        if self.shared.disk_degraded.load(Ordering::SeqCst) {
            if spool_probe_writable(&self.shared.spool) {
                self.shared.disk_degraded.store(false, Ordering::SeqCst);
            } else {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                if ssn_telemetry::enabled() {
                    ssn_telemetry::add(ssn_telemetry::names::SERVE_SHED, 1);
                }
                return SubmitOutcome::DiskDegraded;
            }
        }
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = st.jobs.get(&digest) {
            match entry.status {
                // Interrupted or failed jobs requeue: interrupted ones
                // resume their journal, failed ones start fresh.
                JobStatus::Interrupted | JobStatus::Failed(_) => {}
                ref s => return SubmitOutcome::Duplicate(s.clone()),
            }
        }
        if st.pending.len() >= self.shared.capacity {
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            if ssn_telemetry::enabled() {
                ssn_telemetry::add(ssn_telemetry::names::SERVE_SHED, 1);
            }
            return SubmitOutcome::Shed;
        }
        st.jobs.insert(
            digest,
            JobEntry {
                request: request.clone(),
                status: JobStatus::Queued,
                budget: None,
            },
        );
        st.pending.push_back(digest);
        if ssn_telemetry::enabled() {
            ssn_telemetry::gauge(
                ssn_telemetry::names::SERVE_QUEUE_DEPTH,
                st.pending.len() as f64,
            );
        }
        drop(st);
        self.shared.cond.notify_all();
        SubmitOutcome::Accepted
    }

    /// The job's current status: the ledger first, then the result cache
    /// (a restarted server has an empty ledger but keeps spooled results).
    pub fn status(&self, digest: u64) -> Option<JobStatus> {
        let st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = st.jobs.get(&digest) {
            return Some(entry.status.clone());
        }
        drop(st);
        self.shared
            .cache
            .contains(digest)
            .then_some(JobStatus::Done)
    }

    /// Pending (not yet running) job count.
    pub fn depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pending
            .len()
    }

    /// Jobs rejected by admission control since start.
    pub fn shed_count(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Whether the spool is in declared degraded mode (journals cannot be
    /// written; durable submissions are shed). The `/metrics`
    /// `disk_degraded` gauge combines this with the result cache's flag.
    pub fn disk_degraded(&self) -> bool {
        self.shared.disk_degraded.load(Ordering::SeqCst)
    }

    /// `(completed, interrupted, resumed_chunks)` counters since start.
    pub fn run_counters(&self) -> (u64, u64, u64) {
        (
            self.shared.completed.load(Ordering::Relaxed),
            self.shared.interrupted.load(Ordering::Relaxed),
            self.shared.resumed_chunks.load(Ordering::Relaxed),
        )
    }

    /// Stops dispatch, cancels running jobs (they checkpoint and report
    /// `Interrupted`), and waits for every worker to exit. Returns `true`
    /// when all workers finished within `deadline` — the graceful-drain
    /// success criterion.
    pub fn drain(&self, deadline: Duration) -> bool {
        self.shared.draining.store(true, Ordering::SeqCst);
        let start = Instant::now();
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        for entry in st.jobs.values() {
            if entry.status == JobStatus::Running {
                if let Some(budget) = &entry.budget {
                    budget.cancel();
                }
            }
        }
        self.shared.cond.notify_all();
        while st.live_workers > 0 {
            let left = deadline.saturating_sub(start.elapsed());
            if left.is_zero() {
                return false;
            }
            let (next, timeout) = self
                .shared
                .cond
                .wait_timeout(st, left)
                .unwrap_or_else(|e| e.into_inner());
            st = next;
            if timeout.timed_out() && st.live_workers > 0 {
                return false;
            }
        }
        true
    }

    /// `true` once [`JobQueue::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }
}

/// Single-journal workloads checkpoint to the job's base path; multi-level
/// searches (`/v1/optimize`) journal one `<base>.lv<k>` file per refinement
/// level. Resume and cleanup must treat the whole family as the job's
/// durable state: a crash mid-search leaves only `.lv*` siblings, and a
/// finished or failed job must not leave stale level journals to poison a
/// later digest collision.
fn journal_family(journal: &std::path::Path) -> Vec<PathBuf> {
    let mut family = vec![journal.to_path_buf()];
    let (Some(dir), Some(name)) = (journal.parent(), journal.file_name()) else {
        return family;
    };
    let prefix = format!("{}.lv", name.to_string_lossy());
    let Ok(entries) = std::fs::read_dir(dir) else {
        return family;
    };
    for entry in entries.flatten() {
        let file = entry.file_name();
        if let Some(rest) = file.to_string_lossy().strip_prefix(&prefix) {
            if !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()) {
                family.push(dir.join(file));
            }
        }
    }
    family
}

fn journal_family_exists(journal: &std::path::Path) -> bool {
    journal_family(journal).iter().any(|p| p.exists())
}

fn remove_journal_family(journal: &std::path::Path) {
    for p in journal_family(journal) {
        let _ = ssn_core::storage::io().remove_file(&p);
    }
}

/// One small write-then-delete through the fault layer: can the spool
/// take a journal right now?
fn spool_probe_writable(spool: &std::path::Path) -> bool {
    let probe = spool.join(format!(".probe-{}", std::process::id()));
    let ok = ssn_core::storage::io().write_file(&probe, b"probe").is_ok();
    let _ = ssn_core::storage::io().remove_file(&probe);
    ok
}

fn worker_loop(shared: &Arc<QueueShared>) {
    loop {
        // Claim the next job, or exit when draining with nothing running.
        let claimed = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(digest) = st.pending.pop_front() {
                    if shared.draining.load(Ordering::SeqCst) {
                        // Leave it Queued in the ledger; drain admits no
                        // new work onto workers.
                        st.pending.push_front(digest);
                        break None;
                    }
                    let budget = RunBudget::unlimited();
                    if let Some(entry) = st.jobs.get_mut(&digest) {
                        entry.status = JobStatus::Running;
                        entry.budget = Some(budget.clone());
                        break Some((digest, entry.request.clone(), budget));
                    }
                    continue; // ledger entry vanished; skip stale digest
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                st = shared.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some((digest, request, budget)) = claimed else {
            break;
        };

        let journal = shared.spool.join(format!("job-{digest:016x}.ckpt"));
        let resume = journal_family_exists(&journal);
        let durable = DurableOptions {
            checkpoint: Some(journal.clone()),
            resume,
            budget: budget.clone(),
        };
        let outcome = request.run_durable(&durable);

        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        let status = match outcome {
            Ok((bytes, durability)) => {
                if durability.deadline_hit || durability.is_fidelity_degraded() {
                    // Cancelled mid-run (drain): the partial result is
                    // never published — only full-fidelity bytes may
                    // enter the content-addressed cache.
                    shared.interrupted.fetch_add(1, Ordering::Relaxed);
                    JobStatus::Interrupted
                } else {
                    // A storage-only degrade (checkpointing lost to a
                    // full or flaky spool) still delivered full-fidelity
                    // bytes: publish them, but raise the degraded flag so
                    // admission sheds durable work until the disk probes
                    // healthy again.
                    if durability.is_degraded() {
                        shared.disk_degraded.store(true, Ordering::SeqCst);
                    }
                    shared
                        .resumed_chunks
                        .fetch_add(durability.resumed_chunks as u64, Ordering::Relaxed);
                    shared.cache.put(digest, bytes);
                    remove_journal_family(&journal);
                    shared.completed.fetch_add(1, Ordering::Relaxed);
                    JobStatus::Done
                }
            }
            Err(e)
                if e.kind == "interrupted"
                    || e.kind == "journal-locked"
                    || e.kind == "deadline-exhausted" =>
            {
                // Simulated crash or a lock held elsewhere: the journal is
                // intact, a resubmission resumes it.
                shared.interrupted.fetch_add(1, Ordering::Relaxed);
                JobStatus::Interrupted
            }
            Err(e) => {
                // A deterministic failure would fail again on resume; a
                // corrupt journal must not poison the next attempt.
                remove_journal_family(&journal);
                JobStatus::Failed(e)
            }
        };
        if let Some(entry) = st.jobs.get_mut(&digest) {
            entry.status = status;
            entry.budget = None;
        }
        drop(st);
        shared.cond.notify_all();
    }

    let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    st.live_workers = st.live_workers.saturating_sub(1);
    drop(st);
    shared.cond.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Endpoint;

    fn tmp_spool(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ssn-jobs-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn mc_request(samples: &str, seed: &str) -> ApiRequest {
        ApiRequest::parse(
            Endpoint::MonteCarlo,
            vec![
                ("samples".to_string(), samples.to_string()),
                ("seed".to_string(), seed.to_string()),
            ],
        )
        .unwrap()
    }

    fn wait_done(q: &JobQueue, digest: u64, timeout: Duration) -> JobStatus {
        let start = Instant::now();
        loop {
            match q.status(digest) {
                Some(JobStatus::Done) => return JobStatus::Done,
                Some(JobStatus::Failed(e)) => return JobStatus::Failed(e),
                Some(s) if start.elapsed() > timeout => return s,
                None => return JobStatus::Failed(ApiError::bad("job vanished")),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    #[test]
    fn submits_run_and_publish_to_the_cache() {
        let spool = tmp_spool("run");
        let cache = Arc::new(ResultCache::new(Some(spool.clone())).unwrap());
        let q = JobQueue::start(4, 1, spool.clone(), Arc::clone(&cache)).unwrap();
        let req = mc_request("600", "3");
        let digest = req.digest();
        assert_eq!(q.submit(&req), SubmitOutcome::Accepted);
        // Duplicate submission while queued/running dedupes.
        assert!(matches!(q.submit(&req), SubmitOutcome::Duplicate(_)));
        assert_eq!(
            wait_done(&q, digest, Duration::from_secs(60)),
            JobStatus::Done
        );
        let bytes = cache.get(digest).expect("result published");
        assert!(std::str::from_utf8(&bytes).unwrap().contains("\"mean\":"));
        assert!(
            !q.journal_path(digest).exists(),
            "journal removed on success"
        );
        // Submitting the finished job again reports Done via the cache.
        assert_eq!(q.submit(&req), SubmitOutcome::Duplicate(JobStatus::Done));
        assert!(q.drain(Duration::from_secs(10)));
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn capacity_sheds_and_drain_refuses_new_work() {
        let spool = tmp_spool("shed");
        let cache = Arc::new(ResultCache::new(None).unwrap());
        // Zero workers is clamped to one; use a tiny capacity and distinct
        // seeds so each submission is a distinct digest.
        let q = JobQueue::start(2, 1, spool.clone(), cache).unwrap();
        let mut outcomes = Vec::new();
        for seed in 0..20 {
            outcomes.push(q.submit(&mc_request("4096", &seed.to_string())));
        }
        assert!(
            outcomes.iter().any(|o| *o == SubmitOutcome::Shed),
            "a burst beyond capacity must shed: {outcomes:?}"
        );
        assert!(q.shed_count() > 0);
        assert!(
            q.drain(Duration::from_secs(60)),
            "drain finishes despite backlog"
        );
        assert_eq!(q.submit(&mc_request("4096", "99")), SubmitOutcome::Draining);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn drain_interrupts_a_running_job_and_resubmission_resumes_it() {
        let spool = tmp_spool("resume");
        let cache = Arc::new(ResultCache::new(Some(spool.clone())).unwrap());
        let q = JobQueue::start(4, 1, spool.clone(), Arc::clone(&cache)).unwrap();
        // Big enough to have many chunks (256 samples each).
        let req = mc_request("20000", "11");
        let digest = req.digest();
        assert_eq!(q.submit(&req), SubmitOutcome::Accepted);
        // Let it start, then drain mid-run.
        let start = Instant::now();
        while q.status(digest) != Some(JobStatus::Running)
            && start.elapsed() < Duration::from_secs(30)
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(q.drain(Duration::from_secs(60)), "drain must finish");
        let interrupted = q.status(digest);
        // Either the cancel landed mid-run (Interrupted, journal kept) or
        // the job happened to finish first (Done). Both are legal; only
        // the interrupted path exercises resume.
        if interrupted == Some(JobStatus::Interrupted) {
            // A cancel that lands before the first chunk commits leaves no
            // journal (nothing to resume); one that lands later must leave
            // the journal intact for resume.
            let had_journal = q.journal_path(digest).exists();
            // A second queue over the same spool (the restarted server)
            // resumes the journal — or recomputes from scratch — and
            // finishes the job either way.
            let q2 = JobQueue::start(4, 1, spool.clone(), Arc::clone(&cache)).unwrap();
            assert_eq!(q2.submit(&req), SubmitOutcome::Accepted);
            assert_eq!(
                wait_done(&q2, digest, Duration::from_secs(120)),
                JobStatus::Done
            );
            if had_journal {
                let (_, _, resumed) = q2.run_counters();
                assert!(resumed > 0, "resume restored committed chunks");
            }
            assert!(q2.drain(Duration::from_secs(10)));
        }
        // Whichever path ran, the published bytes equal a fresh
        // uninterrupted run of the same request.
        let bytes = if interrupted == Some(JobStatus::Done) {
            cache.get(digest).unwrap()
        } else {
            cache.get(digest).expect("resumed job published its result")
        };
        let fresh = req.run_sync().unwrap();
        assert_eq!(
            bytes.as_slice(),
            fresh.as_slice(),
            "resumed result is byte-identical to an uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&spool);
    }
}
