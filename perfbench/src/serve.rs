//! `serve_mixed`: an open loop at three fixed offered rates against an
//! in-process [`Server`], mixing cache hits, sync misses on all six
//! endpoints and a few durable Monte Carlo jobs polled until done.

use crate::host::IoCounters;
use crate::inputs;
use crate::mc::{journal_io, replay_commits};
use crate::report::{note_tail, Ctx, Engine, Outcome, SetupTimer, SETUP_SHARE};
use crate::stats::{median, ms, nearest_rank, sorted};
use crate::trace::{ratio, Telemetry, Tracer};
use ssn_core::durable::{CheckpointStore, DurableOptions, RunBudget};
use ssn_core::montecarlo::{mc_run_spec, run_monte_carlo_with, MC_CHUNK};
use ssn_core::parallel::ExecPolicy;
use ssn_numeric::rng::Rng;
use ssn_server::cache::ResultCache;
use ssn_server::{client, http, ApiRequest, Endpoint, Server, ServerConfig};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered rates (requests per second) of the three steps; the middle one
/// is nominal.
const RATES: [f64; 3] = [50.0, 100.0, 200.0];
const NOMINAL: usize = 1;
/// Each step's share of a round; the rest of a round is the gaps after
/// each step's window, in which a step's stragglers finish before the next
/// rate starts. The nominal step gets 900 requests in a 30-second run, so
/// p95 is the highest percentile with at least ten requests beyond it.
const STEP_SHARE: [f64; 3] = [0.3, 0.3, 0.3];
/// A pass is a series of rounds of about this length, each offering every
/// rate in turn, so each step's requests span the whole pass: the host's
/// speed drifts over seconds, and a step run in one stretch would catch one
/// speed while the other steps caught another.
const ROUND_S: f64 = 5.0;
/// The latency limit on a step's p95 (also stated in `BENCHMARK.json`).
pub const LATENCY_LIMIT_MS: f64 = 50.0;
const TAIL_P: f64 = 0.95;
/// Of every block of this many scheduled requests, jobs aside, one is a
/// miss at a seeded place and the rest repeat pool entries, each entry as
/// often as the others. The counts are exact, so every seed puts the p50
/// among the hits and the p95 in the middle of the `/v1/optimize` misses
/// (see [`miss_target`]), rather than on the edge between classes, where
/// the share of each class would move it.
const MISS_EVERY: usize = 5;
/// A durable job is submitted every this many seconds of a step: a few
/// jobs, whose journal commits rarely share the disk with a miss's cache
/// write.
const JOB_EVERY_S: f64 = 2.0;
/// Job samples lie above the server's 2048-item sync limit.
const JOB_SAMPLES: (usize, usize) = (4096, 12288);
const POLL: Duration = Duration::from_millis(4);
const CLIENTS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(10);
const SALT: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Job,
    /// A status poll for the job event at this index.
    Poll(usize),
}

#[derive(Debug, Clone)]
struct Event {
    due: Instant,
    target: String,
    kind: Kind,
    step: usize,
    /// The round whose window of this step the request belongs to.
    round: usize,
}

/// What one request saw.
#[derive(Debug, Clone)]
struct Sent {
    event: usize,
    late: Duration,
    latency: Duration,
    status: u16,
    body: Vec<u8>,
}

fn num(rng: &mut Rng, lo: f64, hi: f64) -> String {
    format!("{:e}", rng.uniform_in(lo, hi))
}

fn scenario_params(rng: &mut Rng) -> String {
    let process = ["p018", "p025", "p035"][rng.usize_in(0, 2)];
    format!(
        "process={process}&drivers={}&rise-time={}",
        rng.usize_in(1, 32),
        num(rng, 0.3e-9, 1.0e-9)
    )
}

/// A sync request to `endpoint` (0 to 5, `/v1/optimize` last), with seeded
/// parameters; continuous values make every generated request distinct.
/// `/v1/optimize` runs a fixed 1536-point grid on process `k % 3`: a
/// compute-bound class of a few milliseconds.
fn sync_target(rng: &mut Rng, endpoint: usize, k: usize) -> String {
    let sc = scenario_params(rng);
    match endpoint {
        0 => format!("/v1/estimate?{sc}"),
        1 => format!("/v1/budget?{sc}&budget={}", num(rng, 0.2, 0.6)),
        2 => format!(
            "/v1/montecarlo?{sc}&samples={}&seed={}",
            rng.usize_in(256, 2048),
            rng.next_u64() >> 16
        ),
        3 => format!("/v1/sweep?{sc}&max-drivers={}", rng.usize_in(4, 16)),
        4 => format!(
            "/v1/validate?corpus={}&seed={}",
            rng.usize_in(1, 4),
            rng.next_u64() >> 16
        ),
        _ => format!(
            "/v1/optimize?process={}&drivers=8&rise-time={}&max-drivers=16&l-points=8&c-points=4&tr-points=3",
            ["p018", "p025", "p035"][k % 3],
            num(rng, 0.485e-9, 0.515e-9)
        ),
    }
}

/// Miss `k`: of every ten, one goes to each of the five cheap endpoints and
/// five to `/v1/optimize`, which then holds the misses' upper half, so the
/// p95 (the misses' 75th percentile) follows the server's work rather than
/// the host's disk and scheduler.
fn miss_target(rng: &mut Rng, k: usize) -> String {
    sync_target(rng, (k % 10).min(5), k)
}

/// A durable Monte Carlo job in size stratum `k` of `n`.
fn job_target(rng: &mut Rng, k: usize, n: usize) -> String {
    let (lo, hi) = (JOB_SAMPLES.0 as f64, JOB_SAMPLES.1 as f64);
    let samples = lo + (hi - lo) * (k as f64 + rng.uniform()) / n as f64;
    format!(
        "/v1/montecarlo?{}&samples={}&seed={}",
        scenario_params(rng),
        samples as usize,
        rng.next_u64() >> 16
    )
}

/// The repeated requests: two per endpoint.
fn pool(seed: u64) -> Vec<String> {
    let mut rng = inputs::rng(seed, SALT, 0);
    (0..12)
        .map(|k| sync_target(&mut rng, k % 6, k / 6))
        .collect()
}

/// Generates one step's requests in order, across its windows.
struct StepGen {
    rng: Rng,
    /// Requests generated so far, and those of them that were not jobs.
    made: usize,
    plain: usize,
    misses: usize,
    hits: usize,
    job_period: usize,
    /// Size stratum of each of the step's jobs.
    strata: Vec<usize>,
    /// Where the miss falls in the current block of [`MISS_EVERY`].
    miss_at: usize,
    /// The seeded order of the current pass of hits through the pool.
    order: Vec<usize>,
}

impl StepGen {
    fn new(mut rng: Rng, rate: f64, total: usize) -> Self {
        let job_period = (rate * JOB_EVERY_S).round().max(1.0) as usize;
        let jobs = (0..total)
            .filter(|i| i % job_period == job_period / 2)
            .count();
        let strata = inputs::permutation(&mut rng, jobs);
        Self {
            rng,
            made: 0,
            plain: 0,
            misses: 0,
            hits: 0,
            job_period,
            strata,
            miss_at: 0,
            order: Vec::new(),
        }
    }

    fn next(&mut self, pool: &[String]) -> (Kind, String) {
        let i = self.made;
        self.made += 1;
        if i % self.job_period == self.job_period / 2 {
            let k = self.strata[i / self.job_period];
            return (Kind::Job, job_target(&mut self.rng, k, self.strata.len()));
        }
        let j = self.plain;
        self.plain += 1;
        if j.is_multiple_of(MISS_EVERY) {
            self.miss_at = self.rng.usize_in(0, MISS_EVERY - 1);
        }
        if j % MISS_EVERY == self.miss_at {
            self.misses += 1;
            return (Kind::Miss, miss_target(&mut self.rng, self.misses));
        }
        let h = self.hits % pool.len();
        self.hits += 1;
        if h == 0 {
            self.order = inputs::permutation(&mut self.rng, pool.len());
        }
        (Kind::Hit, pool[self.order[h]].clone())
    }
}

/// The scheduled requests of one pass of `secs` seconds: rounds of
/// [`ROUND_S`], each offering every step's rate for its share of the round.
/// `pass` keeps the traced pass's misses and jobs distinct from the
/// untraced pass's.
fn schedule(seed: u64, pass: u64, pool: &[String], secs: f64, start: Instant) -> Vec<Event> {
    let rounds = (secs / ROUND_S).round().max(1.0) as usize;
    let round_s = secs / rounds as f64;
    let gap_s = round_s * (1.0 - STEP_SHARE.iter().sum::<f64>()) / RATES.len() as f64;
    let per_window: Vec<usize> = RATES
        .iter()
        .zip(STEP_SHARE)
        .map(|(rate, share)| (rate * share * round_s).round() as usize)
        .collect();
    let mut gens: Vec<StepGen> = RATES
        .iter()
        .enumerate()
        .map(|(step, &rate)| {
            let rng = inputs::rng(seed, SALT, 1 + pass * 8 + step as u64);
            StepGen::new(rng, rate, per_window[step] * rounds)
        })
        .collect();
    let mut events = Vec::new();
    let mut window = 0.0;
    for round in 0..rounds {
        for (step, gen) in gens.iter_mut().enumerate() {
            for i in 0..per_window[step] {
                let (kind, target) = gen.next(pool);
                events.push(Event {
                    due: start + Duration::from_secs_f64(window + i as f64 / RATES[step]),
                    target,
                    kind,
                    step,
                    round,
                });
            }
            window += STEP_SHARE[step] * round_s + gap_s;
        }
    }
    events
}

struct Plan {
    events: Vec<Event>,
    heap: BinaryHeap<Reverse<(Instant, usize)>>,
    jobs_open: usize,
}

/// Sends every scheduled request from [`CLIENTS`] threads, each request at
/// its due time or as soon as a client is free, and polls each accepted
/// job until its result arrives.
fn run_load(addr: SocketAddr, events: Vec<Event>, tracer: &mut Tracer) -> (Vec<Event>, Vec<Sent>) {
    let heap = events
        .iter()
        .enumerate()
        .map(|(i, e)| Reverse((e.due, i)))
        .collect();
    let jobs_open = events.iter().filter(|e| e.kind == Kind::Job).count();
    let plan = Arc::new(Mutex::new(Plan {
        events,
        heap,
        jobs_open,
    }));
    let results: Vec<(Vec<Sent>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let plan = Arc::clone(&plan);
                let client_tracer = tracer.fork();
                scope.spawn(move || client_loop(addr, &plan, client_tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    let mut sent = Vec::new();
    for (s, t) in results {
        sent.extend(s);
        tracer.absorb(t);
    }
    let plan = Arc::try_unwrap(plan)
        .map_err(|_| ())
        .expect("clients joined")
        .into_inner()
        .expect("no client panicked holding the plan");
    (plan.events, sent)
}

fn client_loop(addr: SocketAddr, plan: &Mutex<Plan>, mut tracer: Tracer) -> (Vec<Sent>, Tracer) {
    let mut sent = Vec::new();
    loop {
        let next = {
            let mut p = plan.lock().expect("no client panicked holding the plan");
            match p.heap.pop() {
                Some(Reverse((due, i))) => {
                    Some((due, i, p.events[i].target.clone(), p.events[i].kind))
                }
                None if p.jobs_open == 0 => return (sent, tracer),
                None => None,
            }
        };
        let Some((due, i, target, kind)) = next else {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        // Yield, rather than sleep, until the due time: a virtual CPU that
        // halts while idle can take milliseconds to wake, which would time
        // the host's scheduler rather than the server, while a yielding
        // client keeps its CPU awake and gives way to the server's threads.
        while Instant::now() < due {
            std::thread::yield_now();
        }
        let start = Instant::now();
        let response = tracer.call("client.get", i as u64, || {
            client::get(addr, &target, TIMEOUT)
        });
        let done = Instant::now();
        let (status, body) = response.map_or((0, Vec::new()), |r| (r.status, r.body));
        let follow = match (kind, status) {
            (Kind::Job, 202) => Some(i),
            (Kind::Poll(job), 202) => Some(job),
            _ => None,
        };
        {
            let mut p = plan.lock().expect("no client panicked holding the plan");
            match (kind, follow) {
                (_, Some(job)) => {
                    let poll = Event {
                        due: done + POLL,
                        target: format!("/v1/jobs/{}", job_id(&p.events[job].target)),
                        kind: Kind::Poll(job),
                        ..p.events[job].clone()
                    };
                    p.events.push(poll);
                    let k = p.events.len() - 1;
                    p.heap.push(Reverse((done + POLL, k)));
                }
                (Kind::Job | Kind::Poll(_), None) => p.jobs_open -= 1,
                _ => {}
            }
        }
        sent.push(Sent {
            event: i,
            late: start.saturating_duration_since(due),
            latency: done.saturating_duration_since(due),
            status,
            body,
        });
    }
}

/// The job id the server derives from a request: its canonical digest.
fn job_id(target: &str) -> String {
    parse_target(target)
        .map(|r| ssn_server::api::digest_hex(r.digest()))
        .unwrap_or_default()
}

fn parse_target(target: &str) -> Result<ApiRequest, String> {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let endpoint = Endpoint::from_path(path).ok_or_else(|| format!("no endpoint {path}"))?;
    let pairs = http::parse_params(query).map_err(|e| e.to_string())?;
    ApiRequest::parse(endpoint, pairs).map_err(|e| e.detail)
}

/// Counters read from `/metrics`.
fn metrics(addr: SocketAddr) -> BTreeMap<String, u64> {
    let body = client::get(addr, "/metrics", TIMEOUT)
        .map(|r| r.text())
        .unwrap_or_default();
    body.trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((k.trim_matches('"').to_owned(), v.parse().ok()?))
        })
        .collect()
}

fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>, key: &str) -> u64 {
    after
        .get(key)
        .copied()
        .unwrap_or(0)
        .saturating_sub(before.get(key).copied().unwrap_or(0))
}

/// One pass over the schedule, with its per-step results.
struct Pass {
    events: Vec<Event>,
    sent: Vec<Sent>,
    before: BTreeMap<String, u64>,
    after: BTreeMap<String, u64>,
}

impl Pass {
    /// Scheduled (non-poll) requests with what they saw.
    fn ops(&self) -> impl Iterator<Item = (&Event, &Sent)> {
        self.sent
            .iter()
            .map(|s| (&self.events[s.event], s))
            .filter(|(e, _)| !matches!(e.kind, Kind::Poll(_)))
    }

    /// Latency from job submission's due time to its 200 result, per job
    /// event index.
    fn job_done(&self) -> BTreeMap<usize, Duration> {
        self.sent
            .iter()
            .filter_map(|s| match self.events[s.event].kind {
                Kind::Poll(job) if s.status == 200 => Some((
                    job,
                    (self.events[s.event].due + s.latency)
                        .saturating_duration_since(self.events[job].due),
                )),
                _ => None,
            })
            .collect()
    }
}

/// The scheduled requests of one pass, due from `origin` on.
struct Schedule {
    events: Vec<Event>,
    origin: Instant,
}

impl Schedule {
    fn new(ctx: &Ctx, pass: u64, pool: &[String], secs: f64) -> Self {
        let origin = Instant::now();
        Self {
            events: schedule(ctx.seed, pass, pool, secs, origin),
            origin,
        }
    }
}

/// Runs a schedule from 20 ms from now.
fn run_pass(addr: SocketAddr, mut plan: Schedule, tracer: &mut Tracer) -> Pass {
    let before = metrics(addr);
    let start = Instant::now() + Duration::from_millis(20);
    for e in &mut plan.events {
        e.due = start + e.due.saturating_duration_since(plan.origin);
    }
    let (events, sent) = run_load(addr, plan.events, tracer);
    let after = metrics(addr);
    Pass {
        events,
        sent,
        before,
        after,
    }
}

pub fn serve_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-up generates the first pass's whole schedule (the serving
    // workload's corpus), then starts the server and waits for its first
    // /healthz 200.
    let first_secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let spool = ctx.scratch.join("spool");
    let (started, mut timer) = SetupTimer::start(
        ctx.started,
        || {
            let pool = pool(ctx.seed);
            let plan = Schedule::new(ctx, 0, &pool, first_secs);
            let server = Server::start(ServerConfig {
                spool: Some(spool.clone()),
                ..ServerConfig::default()
            })
            .map_err(|e| e.to_string())?;
            for _ in 0..1000 {
                if client::get(server.addr(), "/healthz", TIMEOUT).is_ok_and(|r| r.status == 200) {
                    return Ok((server, pool, plan));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err("server never answered /healthz".to_owned())
        },
        |earlier: Result<(Server, Vec<String>, Schedule), String>| {
            if let Ok((server, _, _)) = earlier {
                server.drain();
            }
        },
    );
    let (server, pool, plan) = started?;
    let addr = server.addr();
    let mut out = Outcome::default();

    // Fill the cache with the pool before timing; these bodies are the
    // reference every later hit must equal.
    let mut bodies: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for target in &pool {
        match client::get(addr, target, TIMEOUT) {
            Ok(r) if r.status == 200 => {
                bodies.insert(target.clone(), r.body);
            }
            other => return Err(format!("warming {target}: {:?}", other.map(|r| r.status))),
        }
    }

    let mut untraced = Tracer::new(ctx.started, false);
    if ctx.trace {
        let base = run_pass(addr, plan, &mut untraced);
        tally_pass(&mut out, &base, &mut bodies);
        // The traced pass runs inside a telemetry session, as the program
        // records its own spans and counters when one is open.
        let mut tracer = Tracer::new(ctx.started, true);
        let traced = Telemetry::record(Some(&mut Telemetry::default()), || {
            run_pass(addr, Schedule::new(ctx, 1, &pool, first_secs), &mut tracer)
        });
        tally_pass(&mut out, &traced, &mut bodies);
        let checked = check_bodies(&mut out, &bodies, &mut tracer);
        replay_layers(
            ctx,
            &mut out,
            &base,
            &traced,
            &checked,
            &bodies,
            &mut tracer,
        );
        tracer.write("serve_mixed", ctx.seed);
    } else {
        // Further set-ups are timed on either side of the pass, not during
        // it, where they would load the server.
        let sample = SETUP_SHARE * ctx.seconds / 2.0;
        timer.sample(sample);
        let pass = run_pass(addr, plan, &mut untraced);
        timer.sample(sample);
        tally_pass(&mut out, &pass, &mut bodies);
        serve_e2e(&mut out, &pass, timer.median());
        check_bodies(&mut out, &bodies, &mut untraced);
    }
    if !server.drain().clean {
        out.notes.push("server drain was not clean".into());
    }
    Ok(out)
}

/// Adds a pass's scheduled requests to the op totals and checks that
/// every 200 body equals the first body seen for its request.
fn tally_pass(out: &mut Outcome, pass: &Pass, bodies: &mut BTreeMap<String, Vec<u8>>) {
    let done = pass.job_done();
    for (e, s) in pass.ops() {
        out.attempted += 1;
        let ok = (200..300).contains(&s.status);
        if !ok {
            out.failed += 1;
            eprintln!("perfbench: serve_mixed {} -> status {}", e.target, s.status);
        }
        if s.status == 200 {
            let first = bodies
                .entry(e.target.clone())
                .or_insert_with(|| s.body.clone());
            if *first != s.body {
                out.mismatch(format!(
                    "serve_mixed {}: body differs between responses",
                    e.target
                ));
            }
        }
    }
    for s in &pass.sent {
        if let Kind::Poll(job) = pass.events[s.event].kind {
            if s.status == 200 {
                let target = &pass.events[job].target;
                let first = bodies
                    .entry(target.clone())
                    .or_insert_with(|| s.body.clone());
                if *first != s.body {
                    out.mismatch(format!("serve_mixed job {target}: result differs"));
                }
            }
        }
    }
    let jobs = pass.events.iter().filter(|e| e.kind == Kind::Job).count();
    if done.len() != jobs {
        out.failed += (jobs - done.len().min(jobs)) as u64;
        out.mismatch(format!(
            "serve_mixed: {} of {jobs} jobs never finished",
            jobs - done.len().min(jobs)
        ));
    }
    out.count("requests", pass.ops().count() as u64);
    out.count("jobs_done", done.len() as u64);
    out.count("cache_hits", delta(&pass.after, &pass.before, "cache_hits"));
    out.count(
        "cache_misses",
        delta(&pass.after, &pass.before, "cache_misses"),
    );
}

/// Per-step latency summary.
struct Step {
    ops: usize,
    ok: usize,
    /// Summed over the step's windows: from the first request's due time
    /// to the last response.
    span: Duration,
    p50: f64,
    tail: f64,
    passes: bool,
}

fn steps(pass: &Pass) -> Vec<Step> {
    (0..RATES.len())
        .map(|step| {
            let ops: Vec<(&Event, &Sent)> = pass.ops().filter(|(e, _)| e.step == step).collect();
            let ok = ops
                .iter()
                .filter(|(_, s)| (200..300).contains(&s.status))
                .count();
            let lat = sorted(ops.iter().map(|(_, s)| ms(s.latency)));
            // Failed or refused requests miss any latency limit.
            let limit_lat = sorted(ops.iter().map(|(_, s)| {
                if (200..300).contains(&s.status) {
                    ms(s.latency)
                } else {
                    f64::INFINITY
                }
            }));
            let tail = nearest_rank(&lat, TAIL_P).0;
            // Per window: the span from its first due time to its last
            // response, and the lateness of its last quarter, in due order.
            // A growing backlog shows as those requests going out later
            // than the latency limit.
            let mut span = Duration::ZERO;
            let mut late = Vec::new();
            let rounds = ops.iter().map(|(e, _)| e.round + 1).max().unwrap_or(0);
            for round in 0..rounds {
                let mut window: Vec<&(&Event, &Sent)> =
                    ops.iter().filter(|(e, _)| e.round == round).collect();
                window.sort_by_key(|(_, s)| s.event);
                let first = window.iter().map(|(e, _)| e.due).min();
                let last = window.iter().map(|(e, s)| e.due + s.latency).max();
                if let (Some(a), Some(b)) = (first, last) {
                    span += b.saturating_duration_since(a);
                }
                late.extend(
                    window[window.len() * 3 / 4..]
                        .iter()
                        .map(|(_, s)| ms(s.late)),
                );
            }
            let backlog = nearest_rank(&sorted(late), 0.9).0 > LATENCY_LIMIT_MS;
            Step {
                ops: ops.len(),
                ok,
                span,
                p50: median(&lat),
                tail,
                passes: nearest_rank(&limit_lat, TAIL_P).0 <= LATENCY_LIMIT_MS && !backlog,
            }
        })
        .collect()
}

/// `max_ok_rps`: the 2xx rate achieved at the highest offered rate whose
/// tail stays within [`LATENCY_LIMIT_MS`] with no growing backlog (0 when
/// none does).
fn max_ok_rps(steps: &[Step]) -> f64 {
    steps.iter().rposition(|s| s.passes).map_or(0.0, |i| {
        ratio(steps[i].ok as f64, steps[i].span.as_secs_f64())
    })
}

/// `job_done_p50_ms`: median time from a durable job's due time to its
/// 200 result.
fn job_done_p50_ms(pass: &Pass) -> (f64, usize) {
    let done: Vec<f64> = pass.job_done().values().map(|d| ms(*d)).collect();
    (median(&done), done.len())
}

fn serve_e2e(out: &mut Outcome, pass: &Pass, setup_s: f64) {
    let steps = steps(pass);
    for (s, rate) in steps.iter().zip(RATES) {
        out.notes.push(format!(
            "step {rate} req/s: {} requests, {} ok, p50 {:.3} ms, p95 {:.3} ms, {}",
            s.ops,
            s.ok,
            s.p50,
            s.tail,
            if s.passes {
                "within the limit"
            } else {
                "over the limit"
            }
        ));
    }
    let ok: usize = steps.iter().map(|s| s.ok).sum();
    let span: Duration = steps.iter().map(|s| s.span).sum();
    let lat = sorted(
        pass.ops()
            .filter(|(e, _)| e.step == NOMINAL)
            .map(|(_, s)| ms(s.latency)),
    );
    let (tail, beyond) = nearest_rank(&lat, TAIL_P);
    out.e2e.insert("setup_s", setup_s);
    out.e2e
        .insert("items_per_s", ratio(ok as f64, span.as_secs_f64()));
    out.e2e.insert("op_p50_ms", median(&lat));
    out.e2e.insert("op_tail_ms", tail);
    out.e2e.insert("peak_rss_mb", crate::host::peak_rss_mb());
    note_tail(out, TAIL_P, lat.len(), beyond);
    let (done, jobs) = job_done_p50_ms(pass);
    out.notes.push(format!(
        "max_ok_rps {:.3} 1/s; job_done_p50_ms {done:.3} ms over {jobs} jobs",
        max_ok_rps(&steps)
    ));
    let late = sorted(pass.ops().map(|(_, s)| ms(s.late)));
    out.late_ms_p99 = nearest_rank(&late, 0.99).0;
}

/// Recomputes every distinct 200 body in-process with
/// `ApiRequest::run_sync` and compares bytes. Returns each request with
/// its compute time, for the traced run's `api.compute_ms_p50`.
fn check_bodies(
    out: &mut Outcome,
    bodies: &BTreeMap<String, Vec<u8>>,
    tracer: &mut Tracer,
) -> Vec<(String, ApiRequest, Duration)> {
    let mut checked = Vec::new();
    for (i, (target, body)) in bodies.iter().enumerate() {
        let request = match parse_target(target) {
            Ok(r) => r,
            Err(e) => {
                out.mismatch(format!("serve_mixed {target}: does not parse: {e}"));
                continue;
            }
        };
        let t = Instant::now();
        let expected = tracer.call("api.ApiRequest::run_sync", i as u64, || request.run_sync());
        let took = t.elapsed();
        match expected {
            Ok(bytes) if bytes == *body => checked.push((target.clone(), request, took)),
            Ok(_) => out.mismatch(format!("serve_mixed {target}: body differs from run_sync")),
            Err(e) => out.mismatch(format!(
                "serve_mixed {target}: run_sync failed: {}",
                e.detail
            )),
        }
    }
    checked
}

/// The traced run's per-layer metrics: the benchmark replays each layer's
/// public call on the traced pass's own inputs and times it.
fn replay_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    base: &Pass,
    traced: &Pass,
    checked: &[(String, ApiRequest, Duration)],
    bodies: &BTreeMap<String, Vec<u8>>,
    tracer: &mut Tracer,
) {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let ops: Vec<(&Event, &Sent)> = traced.ops().collect();

    // http: parse each request as the client framed it, write each response.
    let mut parse = Vec::new();
    let mut write = Vec::new();
    for (i, (e, s)) in ops.iter().enumerate() {
        let raw = format!(
            "GET {} HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
            e.target
        );
        let t = Instant::now();
        let parsed = tracer.call("http.parse_request", i as u64, || {
            http::parse_request(&mut Cursor::new(raw.as_bytes()))
        });
        parse.push(us(t.elapsed()));
        if parsed.is_err() {
            out.mismatch(format!("serve_mixed {}: request does not parse", e.target));
        }
        let mut sink = Vec::with_capacity(s.body.len() + 256);
        let headers = [("x-ssn-cache", String::from("hit"))];
        let t = Instant::now();
        let _ = tracer.call("http.write_response", i as u64, || {
            http::write_response(&mut sink, s.status.max(200), &headers, &s.body)
        });
        write.push(us(t.elapsed()));
    }
    out.layers.insert("http.parse_us", mean(&parse));
    out.layers.insert("http.write_us", mean(&write));

    // api: parse + digest each request; compute each distinct miss.
    let mut api = Vec::new();
    for (i, (e, _)) in ops.iter().enumerate() {
        let t = Instant::now();
        let d = tracer.call("api.ApiRequest::parse", i as u64, || {
            parse_target(&e.target).map(|r| r.digest())
        });
        api.push(us(t.elapsed()));
        if d.is_err() {
            out.mismatch(format!("serve_mixed {}: api parse failed", e.target));
        }
    }
    out.layers.insert("api.parse_us", mean(&api));
    let misses: Vec<&str> = ops
        .iter()
        .filter(|(e, _)| e.kind == Kind::Miss)
        .map(|(e, _)| e.target.as_str())
        .collect();
    let compute = sorted(
        checked
            .iter()
            .filter(|(t, _, _)| misses.contains(&t.as_str()))
            .map(|(_, _, d)| ms(*d)),
    );
    out.layers.insert("api.compute_ms_p50", median(&compute));

    // cache: put every checked body into a fresh spooled cache, then get
    // each hit.
    let dir = ctx.scratch.join("replay-cache");
    match ResultCache::new(Some(dir)) {
        Ok(cache) => {
            let mut puts = Vec::new();
            for (i, (target, request, _)) in checked.iter().enumerate() {
                let body = bodies.get(target).cloned().unwrap_or_default();
                let t = Instant::now();
                tracer.call("cache.ResultCache::put", i as u64, || {
                    cache.put(request.digest(), body)
                });
                puts.push(ms(t.elapsed()));
            }
            let mut gets = Vec::new();
            for (i, (e, _)) in ops
                .iter()
                .enumerate()
                .filter(|(_, (e, _))| e.kind == Kind::Hit)
            {
                let digest = parse_target(&e.target).map(|r| r.digest()).unwrap_or(0);
                let t = Instant::now();
                let hit = tracer.call("cache.ResultCache::get", i as u64, || cache.get(digest));
                gets.push(us(t.elapsed()));
                if hit.is_none() {
                    out.mismatch(format!("serve_mixed {}: replayed cache missed", e.target));
                }
            }
            out.layers.insert("cache.put_ms", mean(&puts));
            out.layers.insert("cache.get_us", mean(&gets));
        }
        Err(e) => out.mismatch(format!("replay cache: {e}")),
    }
    let hits = delta(&traced.after, &traced.before, "cache_hits") as f64;
    let lookups = hits + delta(&traced.after, &traced.before, "cache_misses") as f64;
    out.layers.insert("cache.hit_ratio", ratio(hits, lookups));

    // jobs: run each job request durably into a scratch journal as the job
    // worker does, and replay its journal's commits; then stop a second
    // run at half its chunks, load the stopped journal and resume it.
    let done = traced.job_done();
    let plain: BTreeMap<&str, Duration> =
        checked.iter().map(|(t, _, d)| (t.as_str(), *d)).collect();
    let mut runs = Vec::new();
    let mut waits = Vec::new();
    let mut loads = Vec::new();
    let mut commits = Vec::new();
    let mut io = IoCounters::default();
    let (mut samples, mut chunks) = (0u64, 0u64);
    let (mut resumed, mut stopped) = (0u64, 0u64);
    let (mut durable_time, mut plain_time) = (Duration::ZERO, Duration::ZERO);
    for (&job, &done_after) in &done {
        let target = traced.events[job].target.as_str();
        let Ok(request) = parse_target(target) else {
            continue;
        };
        let ApiRequest::MonteCarlo {
            sc,
            samples: n,
            seed,
            var,
            ..
        } = &request
        else {
            continue;
        };
        let journal = ctx.scratch.join(format!("replay-job-{job}.ckpt"));
        let durable = |resume: bool, budget: RunBudget| DurableOptions {
            checkpoint: Some(journal.clone()),
            resume,
            budget,
        };
        let io0 = IoCounters::read();
        let t = Instant::now();
        let ran = tracer.call("api.ApiRequest::run_durable", job as u64, || {
            request.run_durable(&durable(false, RunBudget::unlimited()))
        });
        let took = t.elapsed();
        io.add(journal_io(IoCounters::read().since(io0)));
        if ran.is_err() {
            out.mismatch(format!("serve_mixed job {job}: replay failed"));
            continue;
        }
        runs.push(ms(took));
        waits.push(ms(done_after.saturating_sub(took)));
        if let Some(&p) = plain.get(target) {
            durable_time += took;
            plain_time += p;
        }
        samples += *n as u64;
        let job_chunks = n.div_ceil(MC_CHUNK);
        chunks += job_chunks as u64;
        if let Ok(scenario) = sc.build() {
            let spec = mc_run_spec(&scenario, var, *n, *seed);
            match replay_commits(tracer, job as u64, &journal, &ctx.scratch, &spec) {
                Ok(times) => commits.extend(times),
                Err(e) => out.mismatch(format!("serve_mixed job {job}: replay: {e}")),
            }
        }
        let _ = std::fs::remove_file(&journal);

        let stop = job_chunks / 2;
        let _ = request.run_durable(&durable(false, RunBudget::expire_after_checks(stop)));
        let t = Instant::now();
        let loaded = tracer.call("durable.CheckpointStore::load", job as u64, || {
            CheckpointStore::load(&journal)
        });
        loads.push(ms(t.elapsed()));
        let again = request.run_durable(&durable(true, RunBudget::unlimited()));
        match (loaded, again) {
            (Ok(_), Ok((body, d))) if Some(&body) == bodies.get(target) => {
                resumed += d.resumed_chunks as u64;
                stopped += stop as u64;
            }
            _ => out.mismatch(format!("serve_mixed job {job}: resumed replay differs")),
        }
        let _ = std::fs::remove_file(&journal);
    }
    out.layers.insert(
        "durable.resumed_frac",
        ratio(resumed as f64, stopped as f64),
    );
    out.layers.insert(
        "durable.overhead_x",
        ratio(durable_time.as_secs_f64(), plain_time.as_secs_f64()),
    );
    out.layers.insert("jobs.run_ms_p50", median(&runs));
    out.layers.insert("jobs.wait_ms_p50", median(&waits));
    out.layers.insert("durable.load_ms", mean(&loads));
    let commits = sorted(commits);
    out.layers
        .insert("durable.commit_ms_p50", nearest_rank(&commits, 0.5).0);
    out.layers
        .insert("durable.commit_ms_p90", nearest_rank(&commits, 0.9).0);
    out.layers.insert(
        "durable.write_bytes_per_sample",
        ratio(io.write_bytes as f64, samples as f64),
    );
    out.layers.insert(
        "durable.write_calls_per_chunk",
        ratio(io.write_calls as f64, chunks as f64),
    );

    // The small sync Monte Carlo misses, replayed on the engine the server
    // uses, for the sampler and scheduler layers.
    let mut mc = Telemetry::default();
    let mut engine = Engine::default();
    let (mut mc_samples, mut mc_wall) = (0u64, Duration::ZERO);
    let mut mc_ops = 0usize;
    Telemetry::record(Some(&mut mc), || {
        for (i, (target, request, _)) in checked.iter().enumerate() {
            if !misses.contains(&target.as_str()) {
                continue;
            }
            if let ApiRequest::MonteCarlo {
                sc,
                samples: n,
                seed,
                var,
                ..
            } = request
            {
                let Ok(scenario) = sc.build() else { continue };
                let t = Instant::now();
                let r = tracer.call("montecarlo.run_monte_carlo_with", i as u64, || {
                    run_monte_carlo_with(&scenario, var, *n, *seed, &ExecPolicy::auto())
                });
                mc_wall += t.elapsed();
                if let Ok((_, stats)) = r {
                    engine.add(&stats);
                    mc_samples += *n as u64;
                    mc_ops += 1;
                }
            }
        }
    });
    let ns = |d: Duration| d.as_secs_f64() * 1e9;
    out.layers.insert(
        "montecarlo.perturb_ns_per_sample",
        ratio(ns(mc.total("mc.perturb")), mc_samples as f64),
    );
    out.layers.insert(
        "montecarlo.collect_ns_per_sample",
        ratio(ns(mc_wall.saturating_sub(engine.wall)), mc_samples as f64),
    );
    out.layers.insert(
        "lcmodel.slab_ns_per_sample",
        ratio(ns(mc.total("model.lc.vn_max_slab")), mc_samples as f64),
    );
    engine.report(out, mc_ops);

    let requests = delta(&traced.after, &traced.before, "requests") as f64;
    let shed = (delta(&traced.after, &traced.before, "shed_connections")
        + delta(&traced.after, &traced.before, "shed_jobs")) as f64;
    out.layers.insert("server.shed_frac", ratio(shed, requests));
    let late = sorted(traced.ops().map(|(_, s)| ms(s.late)));
    out.layers
        .insert("loadgen.late_ms_p99", nearest_rank(&late, 0.99).0);
    out.late_ms_p99 = nearest_rank(&late, 0.99).0;
    // serve_mixed's own end-to-end figures, from the untraced pass.
    out.layers.insert("max_ok_rps", max_ok_rps(&steps(base)));
    out.layers
        .insert("job_done_p50_ms", job_done_p50_ms(base).0);
    let total = |p: &Pass| p.ops().map(|(_, s)| s.latency.as_secs_f64()).sum::<f64>();
    out.layers.insert(
        "telemetry.overhead_frac",
        ratio(total(traced), total(base)) - 1.0,
    );
}
