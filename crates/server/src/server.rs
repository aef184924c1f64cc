//! The hardened HTTP server: accept loop, admission control, request
//! deadlines, panic isolation, and graceful drain.
//!
//! Robustness invariants (each pinned by a test or the CI smoke gate):
//!
//! * **No panic escapes.** Handlers run under `catch_unwind`; an injected
//!   or real panic becomes a typed 500 and a `serve.panics` count, and the
//!   worker keeps serving.
//! * **No unbounded waits.** Socket reads/writes carry timeouts derived
//!   from the per-request [`RunBudget`] (slow-loris and stalled-writer
//!   defense); job execution is bounded by the queue's drain machinery.
//! * **No unbounded memory.** Request size, header count, connection
//!   count, and queue depth are all hard-capped; overload answers `503` +
//!   `Retry-After` rather than queueing without bound.
//! * **Deterministic bytes.** Result bodies never contain wall-clock or
//!   resume-history data; cache hits are byte-identical to the miss that
//!   filled them, and a killed-and-resumed job renders the same bytes as
//!   an uninterrupted one.

use crate::api::{self, ApiError, ApiRequest, Endpoint};
use crate::cache::ResultCache;
use crate::http::{self, HttpError, Request};
use crate::jobs::{JobQueue, JobStatus, SubmitOutcome};
use ssn_core::durable::RunBudget;
use ssn_core::faults::{self, RunScope};
use ssn_telemetry::json::Obj;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server tunables. `Default` is suitable for tests; the CLI overrides
/// address, spool, and drain deadline from flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` = loopback, ephemeral port).
    pub addr: String,
    /// Spool directory for checkpoint journals and cached results.
    /// `None` = a per-process temp dir (results then die with the host).
    pub spool: Option<PathBuf>,
    /// Maximum pending jobs before admission control sheds.
    pub queue_capacity: usize,
    /// Durable-job worker threads.
    pub job_workers: usize,
    /// Maximum concurrent connections before new ones are shed.
    pub max_connections: usize,
    /// Per-I/O socket timeout (also capped by the request budget).
    pub io_timeout: Duration,
    /// Wall-clock budget for one synchronous request, parse to response.
    pub request_deadline: Duration,
    /// Requests with more work items than this become durable jobs.
    pub sync_max_items: usize,
    /// `validate` is far more expensive per item (an MNA transient each);
    /// its own, much lower, sync ceiling.
    pub sync_max_validate: usize,
    /// How long a drain may take before the server gives up waiting.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            spool: None,
            queue_capacity: 32,
            job_workers: 1,
            max_connections: 64,
            io_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(30),
            sync_max_items: 2048,
            sync_max_validate: 4,
            drain_deadline: Duration::from_secs(30),
        }
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen address failed (in use, no permission, bad
    /// address). The CLI maps this to its dedicated exit code.
    Bind {
        /// The address that failed to bind.
        addr: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The spool directory could not be created.
    Spool(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            Self::Spool(e) => write!(f, "cannot prepare spool directory: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Monotonic service counters, exposed at `/metrics`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted and parsed into a request.
    pub requests: AtomicU64,
    /// Connections shed at the concurrency cap.
    pub shed_connections: AtomicU64,
    /// Typed 4xx responses (malformed input).
    pub http_4xx: AtomicU64,
    /// 5xx responses (including caught panics).
    pub http_5xx: AtomicU64,
    /// Handler panics caught and converted to 500s.
    pub panics: AtomicU64,
}

#[derive(Debug)]
struct Shared {
    cfg: ServerConfig,
    metrics: Metrics,
    cache: Arc<ResultCache>,
    queue: JobQueue,
    draining: AtomicBool,
    drain_requested: Mutex<bool>,
    drain_cond: Condvar,
    active: AtomicUsize,
    conn_serial: AtomicU64,
    addr: SocketAddr,
    /// The fault plan and deadline of the thread that started the server,
    /// entered by every connection thread.
    run: RunScope,
}

/// What a completed drain looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Every connection and worker finished inside the deadline.
    pub clean: bool,
    /// Jobs checkpointed and left resumable (`Interrupted`).
    pub interrupted_jobs: u64,
    /// Jobs completed over the server's lifetime.
    pub completed_jobs: u64,
}

/// A running server instance.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. Connection threads and job workers run
    /// under the fault plan armed on the calling thread, if any.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] / [`ServeError::Spool`].
    pub fn start(cfg: ServerConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|source| ServeError::Bind {
            addr: cfg.addr.clone(),
            source,
        })?;
        let addr = listener.local_addr().map_err(|source| ServeError::Bind {
            addr: cfg.addr.clone(),
            source,
        })?;
        let spool = cfg.spool.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("ssn-spool-{}", std::process::id()))
        });
        let cache = Arc::new(ResultCache::new(Some(spool.clone())).map_err(ServeError::Spool)?);
        let queue = JobQueue::start(
            cfg.queue_capacity,
            cfg.job_workers,
            spool,
            Arc::clone(&cache),
        )
        .map_err(ServeError::Spool)?;

        let shared = Arc::new(Shared {
            cfg,
            metrics: Metrics::default(),
            cache,
            queue,
            draining: AtomicBool::new(false),
            drain_requested: Mutex::new(false),
            drain_cond: Condvar::new(),
            active: AtomicUsize::new(0),
            conn_serial: AtomicU64::new(0),
            addr,
            run: RunScope::capture(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("ssn-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(ServeError::Spool)?;
        Ok(Self {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Signals the server to drain (also triggered by
    /// `POST /v1/admin/drain`). Idempotent; returns immediately.
    pub fn request_drain(&self) {
        signal_drain(&self.shared);
    }

    /// Blocks until a drain is requested, then performs it: stop
    /// accepting, wait for in-flight connections, cancel-and-checkpoint
    /// running jobs, all within the configured drain deadline.
    pub fn wait_until_drained(mut self) -> DrainReport {
        {
            let mut requested = self
                .shared
                .drain_requested
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            while !*requested {
                requested = self
                    .shared
                    .drain_cond
                    .wait(requested)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        let deadline = self.shared.cfg.drain_deadline;
        let start = Instant::now();
        self.shared.draining.store(true, Ordering::SeqCst);
        // Nudge the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Wait out in-flight connections (they carry their own deadlines).
        let mut conns_done = false;
        while start.elapsed() < deadline {
            if self.shared.active.load(Ordering::SeqCst) == 0 {
                conns_done = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let queue_done = self
            .shared
            .queue
            .drain(deadline.saturating_sub(start.elapsed()));
        let (completed, interrupted, _) = self.shared.queue.run_counters();
        DrainReport {
            clean: conns_done && queue_done,
            interrupted_jobs: interrupted,
            completed_jobs: completed,
        }
    }

    /// Convenience: request a drain and wait it out (test entry point).
    pub fn drain(self) -> DrainReport {
        self.request_drain();
        self.wait_until_drained()
    }
}

fn signal_drain(shared: &Shared) {
    let mut requested = shared
        .drain_requested
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    *requested = true;
    shared.drain_cond.notify_all();
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let serial = shared.conn_serial.fetch_add(1, Ordering::SeqCst);
        // Admission control at the connection level: past the cap we
        // answer 503 + Retry-After on the accept thread and move on —
        // bounded latency for the rejection itself.
        if shared.active.load(Ordering::SeqCst) >= shared.cfg.max_connections {
            shared
                .metrics
                .shed_connections
                .fetch_add(1, Ordering::Relaxed);
            if ssn_telemetry::enabled() {
                ssn_telemetry::add(ssn_telemetry::names::SERVE_SHED, 1);
            }
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
            let body = ApiError {
                status: 503,
                kind: "overloaded",
                detail: "connection limit reached; retry shortly".into(),
            }
            .body();
            let _ = http::write_response(&mut stream, 503, &[("retry-after", "1".into())], &body);
            continue;
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name(format!("ssn-conn-{serial}"))
            .spawn(move || {
                let _run = conn_shared.run.enter();
                handle_connection(stream, serial, &conn_shared);
                conn_shared.active.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn handle_connection(stream: TcpStream, serial: u64, shared: &Arc<Shared>) {
    // The whole request lives under one budget; every socket wait is
    // capped by the tighter of the per-I/O timeout and what's left of it.
    let budget = RunBudget::with_deadline(shared.cfg.request_deadline);
    let _ = stream.set_read_timeout(Some(http::io_deadline(
        shared.cfg.io_timeout,
        budget.remaining(),
    )));
    let _ = stream.set_write_timeout(Some(http::io_deadline(
        shared.cfg.io_timeout,
        budget.remaining(),
    )));

    let mut reader = BufReader::new(stream);
    let parsed = http::parse_request(&mut reader);
    let mut stream = reader.into_inner();

    let request = match parsed {
        Ok(mut r) => {
            if faults::torn_body(serial) && !r.body.is_empty() {
                // Injected transport fault: pretend the peer hung up
                // mid-body. Must surface exactly like a real torn body.
                r.body.truncate(r.body.len() / 2);
                respond_http_error(
                    &mut stream,
                    shared,
                    &HttpError::TornBody {
                        wanted: r.body.len() * 2,
                        got: r.body.len(),
                    },
                );
                return;
            }
            r
        }
        Err(e) => {
            respond_http_error(&mut stream, shared, &e);
            return;
        }
    };
    shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
    if ssn_telemetry::enabled() {
        ssn_telemetry::add(ssn_telemetry::names::SERVE_REQUESTS, 1);
    }

    // Handlers are panic-isolated: an injected (or real) panic becomes a
    // typed 500 and the server keeps serving.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        faults::maybe_panic_handler(serial);
        route(&request, shared, &budget)
    }));
    let (status, headers, body) = match outcome {
        Ok(resp) => resp,
        Err(_) => {
            shared.metrics.panics.fetch_add(1, Ordering::Relaxed);
            if ssn_telemetry::enabled() {
                ssn_telemetry::add(ssn_telemetry::names::SERVE_PANICS, 1);
            }
            let e = ApiError {
                status: 500,
                kind: "panic",
                detail: "handler panicked; the fault was isolated to this request".into(),
            };
            (e.status, Vec::new(), e.body())
        }
    };
    track_status(shared, status);
    if faults::disconnect_before_write(serial) {
        // Injected mid-response disconnect: drop without writing. The
        // client sees a closed socket; the server must carry on.
        return;
    }
    let _ = http::write_response(
        &mut stream,
        status,
        &headers
            .iter()
            .map(|(n, v)| (*n, v.clone()))
            .collect::<Vec<_>>(),
        &body,
    );
}

fn track_status(shared: &Shared, status: u16) {
    if (400..500).contains(&status) {
        shared.metrics.http_4xx.fetch_add(1, Ordering::Relaxed);
    } else if status >= 500 {
        shared.metrics.http_5xx.fetch_add(1, Ordering::Relaxed);
    }
}

fn respond_http_error(stream: &mut TcpStream, shared: &Shared, e: &HttpError) {
    let Some(status) = e.status() else {
        return; // peer gone; nothing to say
    };
    track_status(shared, status);
    let body = ApiError {
        status,
        kind: "malformed-request",
        detail: format!("{} ({})", e, e.kind()),
    }
    .body();
    let _ = http::write_response(stream, status, &[], &body);
}

type Response = (u16, Vec<(&'static str, String)>, Vec<u8>);

fn route(request: &Request, shared: &Arc<Shared>, budget: &RunBudget) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let body = Obj::new()
                .str("status", "ok")
                .bool("draining", shared.draining.load(Ordering::SeqCst))
                .finish()
                .into_bytes();
            (200, Vec::new(), body)
        }
        ("GET", "/metrics") => (200, Vec::new(), metrics_body(shared)),
        ("POST", "/v1/admin/drain") => {
            signal_drain(shared);
            let body = Obj::new().str("status", "draining").finish().into_bytes();
            (200, Vec::new(), body)
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            job_status_response(shared, &path["/v1/jobs/".len()..])
        }
        (method, path) => match Endpoint::from_path(path) {
            None => {
                let e = ApiError {
                    status: 404,
                    kind: "not-found",
                    detail: format!("no such path {path:?}"),
                };
                (e.status, Vec::new(), e.body())
            }
            Some(_) if method != "GET" && method != "POST" => {
                let e = ApiError {
                    status: 405,
                    kind: "method-not-allowed",
                    detail: format!("{method} not supported; use GET or POST"),
                };
                (e.status, vec![("allow", "GET, POST".to_string())], e.body())
            }
            Some(endpoint) => endpoint_response(endpoint, request, shared, budget),
        },
    }
}

fn endpoint_response(
    endpoint: Endpoint,
    request: &Request,
    shared: &Arc<Shared>,
    budget: &RunBudget,
) -> Response {
    // Parameters come from the query string (GET) or the urlencoded body
    // (POST); both present is ambiguous and rejected.
    let raw = if request.body.is_empty() {
        request.query.clone()
    } else if request.query.is_empty() {
        match std::str::from_utf8(&request.body) {
            Ok(s) => s.to_owned(),
            Err(_) => {
                let e = ApiError::bad("request body must be UTF-8 form data");
                return (e.status, Vec::new(), e.body());
            }
        }
    } else {
        let e = ApiError::bad("provide parameters in the query string or the body, not both");
        return (e.status, Vec::new(), e.body());
    };
    let pairs = match http::parse_params(&raw) {
        Ok(p) => p,
        Err(he) => {
            let e = ApiError::bad(format!("malformed parameters: {he}"));
            return (e.status, Vec::new(), e.body());
        }
    };
    let api_request = match ApiRequest::parse(endpoint, pairs) {
        Ok(r) => r,
        Err(e) => return (e.status, Vec::new(), e.body()),
    };
    let digest = api_request.digest();
    let hex = api::digest_hex(digest);

    // Content-addressed cache: a hit returns the exact bytes the original
    // computation produced.
    if let Some(bytes) = shared.cache.get(digest) {
        if ssn_telemetry::enabled() {
            ssn_telemetry::add(ssn_telemetry::names::SERVE_CACHE_HITS, 1);
        }
        return (
            200,
            vec![("x-ssn-digest", hex), ("x-ssn-cache", "hit".into())],
            bytes.as_ref().clone(),
        );
    }
    if ssn_telemetry::enabled() {
        ssn_telemetry::add(ssn_telemetry::names::SERVE_CACHE_MISSES, 1);
    }

    let sync_limit = match endpoint {
        Endpoint::Validate => shared.cfg.sync_max_validate,
        _ => shared.cfg.sync_max_items,
    };
    if api_request.work_items() > sync_limit {
        return submit_job(shared, &api_request, &hex);
    }

    // Small request: compute on this connection thread under the request
    // budget. The budget's remaining time also caps socket writes later.
    let _ = budget;
    match api_request.run_sync() {
        Ok(bytes) => {
            shared.cache.put(digest, bytes.clone());
            (
                200,
                vec![("x-ssn-digest", hex), ("x-ssn-cache", "miss".into())],
                bytes,
            )
        }
        Err(e) => (e.status, Vec::new(), e.body()),
    }
}

fn submit_job(shared: &Arc<Shared>, api_request: &ApiRequest, hex: &str) -> Response {
    let poll = format!("/v1/jobs/{hex}");
    match shared.queue.submit(api_request) {
        SubmitOutcome::Accepted => {
            let body = Obj::new()
                .str("status", "queued")
                .str("job", hex)
                .str("poll", &poll)
                .finish()
                .into_bytes();
            (
                202,
                vec![("x-ssn-digest", hex.to_string()), ("location", poll)],
                body,
            )
        }
        SubmitOutcome::Duplicate(status) => {
            let body = Obj::new()
                .str("status", status.tag())
                .str("job", hex)
                .str("poll", &poll)
                .finish()
                .into_bytes();
            (
                202,
                vec![("x-ssn-digest", hex.to_string()), ("location", poll)],
                body,
            )
        }
        SubmitOutcome::Shed => {
            let e = ApiError {
                status: 503,
                kind: "overloaded",
                detail: "job queue full; retry shortly".into(),
            };
            (503, vec![("retry-after", "1".into())], e.body())
        }
        SubmitOutcome::Draining => {
            let e = ApiError {
                status: 503,
                kind: "draining",
                detail: "server is draining and admits no new work".into(),
            };
            (503, vec![("retry-after", "5".into())], e.body())
        }
        SubmitOutcome::DiskDegraded => {
            let e = ApiError {
                status: 503,
                kind: "disk-degraded",
                detail: "spool disk cannot take job journals; retry shortly".into(),
            };
            (503, vec![("retry-after", "5".into())], e.body())
        }
    }
}

fn job_status_response(shared: &Shared, hex: &str) -> Response {
    let Some(digest) = api::parse_digest_hex(hex) else {
        let e = ApiError::bad(format!("malformed job id {hex:?} (want 16 hex digits)"));
        return (e.status, Vec::new(), e.body());
    };
    match shared.queue.status(digest) {
        Some(JobStatus::Done) => match shared.cache.get(digest) {
            Some(bytes) => (
                200,
                vec![
                    ("x-ssn-digest", hex.to_string()),
                    ("x-ssn-cache", "hit".into()),
                ],
                bytes.as_ref().clone(),
            ),
            None => {
                let e = ApiError {
                    status: 500,
                    kind: "internal",
                    detail: "job done but result missing from cache".into(),
                };
                (e.status, Vec::new(), e.body())
            }
        },
        Some(JobStatus::Failed(e)) => {
            let body = Obj::new()
                .str("status", "failed")
                .raw(
                    "error",
                    &Obj::new()
                        .str("kind", e.kind)
                        .u64("status", u64::from(e.status))
                        .str("detail", &e.detail)
                        .finish(),
                )
                .finish()
                .into_bytes();
            (500, Vec::new(), body)
        }
        Some(status) => {
            let body = Obj::new()
                .str("status", status.tag())
                .str("job", hex)
                .finish()
                .into_bytes();
            (202, Vec::new(), body)
        }
        None => {
            let e = ApiError {
                status: 404,
                kind: "unknown-job",
                detail: format!(
                    "no job {hex}; after a restart, resubmit the original request to resume it"
                ),
            };
            (e.status, Vec::new(), e.body())
        }
    }
}

fn metrics_body(shared: &Shared) -> Vec<u8> {
    let m = &shared.metrics;
    let (hits, misses) = shared.cache.stats();
    let (completed, interrupted, resumed) = shared.queue.run_counters();
    Obj::new()
        .u64("requests", m.requests.load(Ordering::Relaxed))
        .u64(
            "shed_connections",
            m.shed_connections.load(Ordering::Relaxed),
        )
        .u64("shed_jobs", shared.queue.shed_count())
        .u64("http_4xx", m.http_4xx.load(Ordering::Relaxed))
        .u64("http_5xx", m.http_5xx.load(Ordering::Relaxed))
        .u64("panics_caught", m.panics.load(Ordering::Relaxed))
        .u64("queue_depth", shared.queue.depth() as u64)
        .u64("cache_hits", hits)
        .u64("cache_misses", misses)
        .u64("jobs_completed", completed)
        .u64("jobs_interrupted", interrupted)
        .u64("chunks_resumed", resumed)
        .u64(
            "disk_degraded",
            u64::from(shared.queue.disk_degraded() || shared.cache.disk_degraded()),
        )
        .bool("draining", shared.draining.load(Ordering::SeqCst))
        .finish()
        .into_bytes()
}
