//! `mc_yield` and `mc_checkpoint`: Monte Carlo yield jobs, plain and
//! through the checkpoint → deadline → resume flow.

use crate::host::IoCounters;
use crate::inputs::{self, log_stratum, permutation};
use crate::report::{
    closed_loop, op_wall, run_passes, Ctx, Engine, OpRec, Outcome, SetupTimer, Until,
};
use crate::stats::{ms, nearest_rank, sorted};
use crate::trace::{ratio, Telemetry, Tracer};
use ssn_core::durable::{CheckpointStore, DurableOptions, RunBudget};
use ssn_core::montecarlo::{
    mc_run_spec, run_monte_carlo_durable, run_monte_carlo_with, run_monte_carlo_with_path, McPath,
    McResult, VariationSpec, MC_CHUNK,
};
use ssn_core::parallel::ExecPolicy;
use ssn_core::scenario::SsnScenario;
use ssn_devices::Asdm;
use ssn_units::Volts;
use std::path::Path;
use std::time::{Duration, Instant};

/// Jobs per `mc_yield` cycle: three processes × {LC, L-only} × two, over
/// twelve log-spaced size strata.
const YIELD_CYCLE: usize = 12;
/// `mc_yield` job sizes span 64 k to 1 M samples.
const YIELD_SAMPLES: (f64, f64) = (65_536.0, 1_048_576.0);
/// `mc_checkpoint` cycle: `(chunks, jobs)` per size class, 40 jobs of 50
/// to 800 chunks. Each reported percentile falls inside one size class
/// rather than between two, so it does not jump with the jitter: the p50
/// op is a 50-chunk job and the p90 op a 200-chunk one.
const CKPT_CYCLE: [(f64, usize); 5] = [(800.0, 1), (362.0, 1), (200.0, 4), (110.0, 6), (50.0, 28)];
/// Tail percentiles, and the ops a run needs to hold ten beyond them: the
/// highest of p90, p95 and p99 that a run of about `--seconds` supports.
const YIELD_TAIL: (f64, usize) = (0.95, 200);
const CKPT_TAIL: (f64, usize) = (0.90, 100);

const YIELD_SALT: u64 = 1;
const CKPT_SALT: u64 = 2;

/// One Monte Carlo job.
#[derive(Debug, Clone)]
struct McJob {
    nominal: SsnScenario,
    l_only: bool,
    samples: usize,
    seed: u64,
    /// `mc_checkpoint`: chunks the first session commits before its
    /// budget stops it.
    stop_chunks: usize,
    /// `mc_yield`: checked against the serial scalar reference.
    check: bool,
}

/// A nominal with a seeded process, driver count and package: LC, or
/// L-only (C = 0) when `l_only`.
fn nominal(
    fits: &[(Asdm, Volts)],
    rng: &mut ssn_numeric::rng::Rng,
    process: usize,
    n: usize,
    l_only: bool,
) -> Result<SsnScenario, String> {
    let l = rng.uniform_in(2e-9, 10e-9);
    let c = rng.uniform_in(0.5e-12, 4e-12);
    let tr = rng.uniform_in(0.3e-9, 1.0e-9);
    inputs::scenario(fits[process], n, l, if l_only { 0.0 } else { c }, tr)
}

/// Generates cycle `cycle` of a workload's jobs from the seed.
type CycleFn = fn(&[(Asdm, Volts)], u64, u64) -> Result<Vec<McJob>, String>;

fn yield_cycle(fits: &[(Asdm, Volts)], seed: u64, cycle: u64) -> Result<Vec<McJob>, String> {
    let mut rng = inputs::rng(seed, YIELD_SALT, cycle);
    let sizes = permutation(&mut rng, YIELD_CYCLE);
    let drivers = permutation(&mut rng, YIELD_CYCLE);
    let check = rng.usize_in(0, YIELD_CYCLE - 1);
    (0..YIELD_CYCLE)
        .map(|j| {
            let samples = log_stratum(
                &mut rng,
                sizes[j],
                YIELD_CYCLE,
                YIELD_SAMPLES.0,
                YIELD_SAMPLES.1,
            )
            .round() as usize;
            let n = 1 + ((drivers[j] as f64 + rng.uniform()) * 32.0 / YIELD_CYCLE as f64) as usize;
            let l_only = (j / 3) % 2 == 1;
            Ok(McJob {
                nominal: nominal(fits, &mut rng, j % 3, n.min(32), l_only)?,
                l_only,
                samples,
                seed: rng.next_u64(),
                stop_chunks: 0,
                check: j == check,
            })
        })
        .collect()
}

fn ckpt_cycle(fits: &[(Asdm, Volts)], seed: u64, cycle: u64) -> Result<Vec<McJob>, String> {
    let mut rng = inputs::rng(seed, CKPT_SALT, cycle);
    let mut jobs = Vec::new();
    for &(chunks, count) in &CKPT_CYCLE {
        for _ in 0..count {
            let chunks = (chunks * rng.uniform_in(0.95, 1.05))
                .round()
                .clamp(50.0, 800.0) as usize;
            let stop =
                ((chunks as f64 * rng.uniform_in(0.2, 0.8)).round() as usize).clamp(1, chunks - 1);
            let process = rng.usize_in(0, 2);
            let n = rng.usize_in(1, 32);
            let l_only = rng.uniform() < 0.5;
            jobs.push(McJob {
                nominal: nominal(fits, &mut rng, process, n, l_only)?,
                l_only,
                samples: chunks * MC_CHUNK,
                seed: rng.next_u64(),
                stop_chunks: stop,
                check: true,
            });
        }
    }
    let order = permutation(&mut rng, jobs.len());
    Ok(order.into_iter().map(|i| jobs[i].clone()).collect())
}

/// Set-up shared by both workloads: the three ASDM fits and the first
/// cycle of jobs.
fn setup<'a>(ctx: &'a Ctx, cycle: CycleFn) -> Result<(Vec<(Asdm, Volts)>, SetupTimer<'a>), String> {
    let (fits, timer) = SetupTimer::start(
        ctx.started,
        move || {
            let fits = inputs::fit_processes()?;
            cycle(&fits, ctx.seed, 0)?;
            Ok::<_, String>(fits)
        },
        drop,
    );
    Ok((fits?, timer))
}

/// Per-pass tallies behind the per-layer metrics and exact counts.
#[derive(Debug, Default)]
struct Tally {
    samples: u64,
    evaluated: u64,
    lc_evaluated: u64,
    l_evaluated: u64,
    chunks: u64,
    io: IoCounters,
    engine: Engine,
    resumed: u64,
    stopped_at: u64,
    plain: Duration,
    loads: Vec<f64>,
    commits: Vec<f64>,
    telemetry: Telemetry,
}

impl Tally {
    /// Tallies a job whose samples go through the sampler `runs` times
    /// inside a traced pass.
    fn job(&mut self, job: &McJob, runs: u64) {
        let n = job.samples as u64;
        self.samples += n;
        self.chunks += job.samples.div_ceil(MC_CHUNK) as u64;
        self.evaluated += runs * n;
        if job.l_only {
            self.l_evaluated += runs * n;
        } else {
            self.lc_evaluated += runs * n;
        }
    }
}

/// FNV-1a over a result's sample bits, so a result can be dropped before
/// its reference is computed and peak memory holds one of them at a time.
fn digest(r: &McResult) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in r.samples().iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    (r.len(), h)
}

/// `mc_yield`: plain Monte Carlo yield jobs (`run_monte_carlo_with`).
pub fn mc_yield(ctx: &Ctx) -> Result<Outcome, String> {
    let (fits, mut timer) = setup(ctx, yield_cycle)?;
    let policy = ExecPolicy::with_threads(2);
    let spec = VariationSpec::typical();
    let out = Outcome::default();

    let mut pass = |until: Until,
                    tracer: &mut Tracer,
                    out: &mut Outcome,
                    tally: &mut Tally,
                    between: &mut dyn FnMut(Duration)| {
        let mut telemetry = Telemetry::default();
        let traced = tracer.is_enabled();
        let run = Telemetry::record(traced.then_some(&mut telemetry), || {
            closed_loop(
                until,
                true,
                |c| yield_cycle(&fits, ctx.seed, c).expect("cycle 0 generated at set-up"),
                |job, id| {
                    let io0 = IoCounters::read();
                    tracer.begin("montecarlo.run_monte_carlo_with", id);
                    let t = Instant::now();
                    let r =
                        run_monte_carlo_with(&job.nominal, &spec, job.samples, job.seed, &policy);
                    let wall = t.elapsed();
                    tracer.end();
                    let io = IoCounters::read().since(io0);
                    tally.io.add(io);
                    tally.job(job, 1);
                    let ok = match r {
                        Ok((res, stats)) => {
                            tally.engine.add(&stats);
                            let mut ok = res.len() == job.samples && stats.failed_chunks == 0;
                            // The scalar reference is slow under a telemetry
                            // session; the untraced pass checks the same jobs.
                            if ok && job.check && !tracer.is_enabled() {
                                let got = digest(&res);
                                drop(res);
                                let reference = run_monte_carlo_with_path(
                                    &job.nominal,
                                    &spec,
                                    job.samples,
                                    job.seed,
                                    &ExecPolicy::serial(),
                                    McPath::Scalar,
                                );
                                ok = reference.is_ok_and(|(r, _)| digest(&r) == got);
                            }
                            if !ok {
                                out.mismatch(format!(
                                    "mc_yield op {id}: differs from the scalar reference"
                                ));
                            }
                            ok
                        }
                        Err(e) => {
                            eprintln!("perfbench: mc_yield op {id} failed: {e}");
                            false
                        }
                    };
                    OpRec {
                        wall,
                        items: job.samples as u64,
                        ok,
                        counts: mc_counts(job, io, 0),
                        ..OpRec::default()
                    }
                },
                between,
            )
        });
        tally.telemetry = telemetry;
        run
    };

    Ok(run_passes(
        ctx, "mc_yield", YIELD_TAIL, &mut timer, out, &mut pass, finish,
    ))
}

/// `mc_checkpoint`: each job runs durably into a fresh journal, a check
/// budget stops it at a seeded fraction of its chunks, and a resumed run
/// completes it.
pub fn mc_checkpoint(ctx: &Ctx) -> Result<Outcome, String> {
    let (fits, mut timer) = setup(ctx, ckpt_cycle)?;
    // One thread: commits are serialized behind the journal's lock and a
    // chunk computes in a few percent of a commit's time, so a second
    // thread would add only lock hand-offs, and a second allocator arena
    // whose share of the journal buffers, and so the peak memory, varies
    // from run to run.
    let policy = ExecPolicy::with_threads(1);
    let spec = VariationSpec::typical();
    let out = Outcome::default();

    let mut pass = |until: Until,
                    tracer: &mut Tracer,
                    out: &mut Outcome,
                    tally: &mut Tally,
                    between: &mut dyn FnMut(Duration)| {
        let traced = tracer.is_enabled();
        let mut telemetry = Telemetry::default();
        // No warm-up cycle: a cycle is seconds of fsync-bound commits, and
        // a cold first op is lost in it.
        let run = Telemetry::record(traced.then_some(&mut telemetry), || {
            closed_loop(
                until,
                false,
                |c| ckpt_cycle(&fits, ctx.seed, c).expect("cycle 0 generated at set-up"),
                |job, id| {
                    let journal = ctx.scratch.join(format!("mc-{id}.ckpt"));
                    let stopped = ctx.scratch.join(format!("mc-{id}.stopped"));
                    let durable = |resume: bool, budget: RunBudget| DurableOptions {
                        checkpoint: Some(journal.clone()),
                        resume,
                        budget,
                    };
                    // The durable sessions and the plain reference each sample
                    // every chunk once.
                    tally.job(job, 2);

                    let mut io = IoCounters::default();
                    let io0 = IoCounters::read();
                    tracer.begin("montecarlo.run_monte_carlo_durable.stopped", id);
                    let t = Instant::now();
                    // Each result is reduced to its digest and dropped
                    // before the next session runs, so peak memory holds
                    // one result at a time.
                    let first = run_monte_carlo_durable(
                        &job.nominal,
                        &spec,
                        job.samples,
                        job.seed,
                        &policy,
                        &durable(false, RunBudget::expire_after_checks(job.stop_chunks)),
                    )
                    .map(|(r, s, d)| (r.len(), s, d));
                    let mut wall = t.elapsed();
                    tracer.end();
                    io.add(journal_io(IoCounters::read().since(io0)));
                    if traced {
                        let _ = std::fs::copy(&journal, &stopped);
                    }

                    let io0 = IoCounters::read();
                    tracer.begin("montecarlo.run_monte_carlo_durable.resumed", id);
                    let t = Instant::now();
                    let second = run_monte_carlo_durable(
                        &job.nominal,
                        &spec,
                        job.samples,
                        job.seed,
                        &policy,
                        &durable(true, RunBudget::unlimited()),
                    )
                    .map(|(r, s, d)| (digest(&r), s, d));
                    wall += t.elapsed();
                    tracer.end();
                    io.add(journal_io(IoCounters::read().since(io0)));
                    tally.io.add(io);
                    let mut resumed = 0;

                    tracer.begin("montecarlo.run_monte_carlo_with.plain", id);
                    let t = Instant::now();
                    let plain =
                        run_monte_carlo_with(&job.nominal, &spec, job.samples, job.seed, &policy)
                            .map(|(r, _)| digest(&r));
                    tally.plain += t.elapsed();
                    tracer.end();

                    let ok = match (first, second, plain) {
                        (Ok((len1, s1, d1)), Ok((got, s2, d2)), Ok(reference)) => {
                            tally.engine.add(&s1);
                            tally.engine.add(&s2);
                            resumed = d2.resumed_chunks as u64;
                            tally.resumed += resumed;
                            tally.stopped_at += job.stop_chunks as u64;
                            let ok = d1.deadline_hit
                                && len1 == job.stop_chunks * MC_CHUNK
                                && d2.resumed_chunks == job.stop_chunks
                                && !d2.is_degraded()
                                && got == reference;
                            if !ok {
                                out.mismatch(format!(
                                "mc_checkpoint op {id}: resumed result differs from the uninterrupted run"
                            ));
                            }
                            ok
                        }
                        (a, b, c) => {
                            eprintln!(
                                "perfbench: mc_checkpoint op {id} failed: {:?} {:?} {:?}",
                                a.err(),
                                b.err(),
                                c.err()
                            );
                            false
                        }
                    };
                    if traced && ok {
                        let spec_id = mc_run_spec(&job.nominal, &spec, job.samples, job.seed);
                        let t = Instant::now();
                        let loaded = tracer.call("durable.CheckpointStore::load", id, || {
                            CheckpointStore::load(&stopped)
                        });
                        tally.loads.push(ms(t.elapsed()));
                        if loaded.is_err() {
                            out.mismatch(format!(
                                "mc_checkpoint op {id}: stopped journal does not load"
                            ));
                        }
                        match replay_commits(tracer, id, &journal, &ctx.scratch, &spec_id) {
                            Ok(times) => tally.commits.extend(times),
                            Err(e) => out.mismatch(format!("mc_checkpoint op {id}: replay: {e}")),
                        }
                    }
                    for p in [&journal, &stopped] {
                        let _ = std::fs::remove_file(p);
                    }
                    OpRec {
                        wall,
                        items: job.samples as u64,
                        ok,
                        counts: mc_counts(job, io, resumed),
                        ..OpRec::default()
                    }
                },
                between,
            )
        });
        tally.telemetry = telemetry;
        run
    };

    Ok(run_passes(
        ctx,
        "mc_checkpoint",
        CKPT_TAIL,
        &mut timer,
        out,
        &mut pass,
        finish,
    ))
}

/// Replays a completed journal's record sequence, in chunk order, through
/// a fresh [`CheckpointStore`]: one `record` + `commit` per chunk, each
/// commit timed. Returns the commit times in milliseconds.
pub fn replay_commits(
    tracer: &mut Tracer,
    op: u64,
    journal: &Path,
    scratch: &Path,
    spec: &ssn_core::durable::RunSpec,
) -> Result<Vec<f64>, String> {
    let done = CheckpointStore::load(journal).map_err(|e| e.to_string())?;
    let replay = scratch.join(format!("replay-{op}.ckpt"));
    let mut store = CheckpointStore::create(replay.clone(), spec);
    let mut times = Vec::with_capacity(done.records().len());
    for (&c, payload) in done.records() {
        store.record(c as usize, payload.clone());
        let t = Instant::now();
        let r = tracer.call("durable.CheckpointStore::commit", op, || {
            store.commit(Duration::ZERO)
        });
        times.push(ms(t.elapsed()));
        r.map_err(|e| e.to_string())?;
    }
    let _ = std::fs::remove_file(&replay);
    Ok(times)
}

/// Reports a Monte Carlo pass: the write-growth note always, the layers in
/// a traced run.
fn finish(out: &mut Outcome, tally: &Tally, ops: &[OpRec], base: Option<&[OpRec]>) {
    note_write_growth(out, ops);
    if base.is_some() {
        mc_layers(out, tally, ops);
        if !tally.commits.is_empty() {
            durable_layers(out, tally, ops);
        }
    }
}

/// The write counters of one durable session, less the journal lock
/// file's process-id line: the one write whose size depends on the process
/// rather than on the job, so the counts repeat exactly across runs.
pub fn journal_io(mut session: IoCounters) -> IoCounters {
    let pid_line = format!("{}\n", std::process::id()).len() as u64;
    session.write_bytes = session.write_bytes.saturating_sub(pid_line);
    session
}

/// Notes journal bytes written per sample by job size: the quadratic
/// commit shows as growth with chunk count.
fn note_write_growth(out: &mut Outcome, ops: &[OpRec]) {
    let get = |o: &OpRec, name: &str| {
        o.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    let mut bins = Vec::new();
    for (lo, hi) in [(50, 100), (100, 300), (300, usize::MAX)] {
        let (mut bytes, mut samples) = (0u64, 0u64);
        for o in ops {
            let n = get(o, "samples");
            if (lo..hi).contains(&(n as usize / MC_CHUNK)) {
                bytes += get(o, "write_bytes");
                samples += n;
            }
        }
        let label = if hi == usize::MAX {
            format!("{lo}+ chunks")
        } else {
            format!("{lo}-{hi} chunks")
        };
        bins.push(format!(
            "{label} {:.1} B",
            ratio(bytes as f64, samples as f64)
        ));
    }
    out.notes.push(format!(
        "write bytes per sample by job size: {}",
        bins.join(", ")
    ));
}

fn mc_counts(job: &McJob, io: IoCounters, resumed: u64) -> Vec<(&'static str, u64)> {
    vec![
        ("samples", job.samples as u64),
        ("write_bytes", io.write_bytes),
        ("write_calls", io.write_calls),
        ("resumed_chunks", resumed),
    ]
}

fn mc_layers(out: &mut Outcome, tally: &Tally, ops: &[OpRec]) {
    let telemetry = &tally.telemetry;
    let ns = |d: Duration| d.as_secs_f64() * 1e9;
    let samples = tally.samples as f64;
    out.layers.insert(
        "montecarlo.perturb_ns_per_sample",
        ratio(ns(telemetry.total("mc.perturb")), tally.evaluated as f64),
    );
    out.layers.insert(
        "montecarlo.collect_ns_per_sample",
        ratio(ns(op_wall(ops).saturating_sub(tally.engine.wall)), samples),
    );
    out.layers.insert(
        "lcmodel.slab_ns_per_sample",
        ratio(
            ns(telemetry.total("model.lc.vn_max_slab")),
            tally.lc_evaluated as f64,
        ),
    );
    out.layers.insert(
        "lmodel.slab_ns_per_sample",
        ratio(
            ns(telemetry.total("model.l.vn_max_slab")),
            tally.l_evaluated as f64,
        ),
    );
    tally.engine.report(out, ops.len());
    out.layers.insert(
        "durable.write_bytes_per_sample",
        ratio(tally.io.write_bytes as f64, samples),
    );
    out.layers.insert(
        "durable.write_calls_per_chunk",
        ratio(tally.io.write_calls as f64, tally.chunks as f64),
    );
}

fn durable_layers(out: &mut Outcome, tally: &Tally, ops: &[OpRec]) {
    let commits = sorted(tally.commits.iter().copied());
    out.layers
        .insert("durable.commit_ms_p50", nearest_rank(&commits, 0.5).0);
    out.layers
        .insert("durable.commit_ms_p90", nearest_rank(&commits, 0.9).0);
    out.layers.insert(
        "durable.load_ms",
        ratio(tally.loads.iter().sum(), tally.loads.len() as f64),
    );
    out.layers.insert(
        "durable.resumed_frac",
        ratio(tally.resumed as f64, tally.stopped_at as f64),
    );
    out.layers.insert(
        "durable.overhead_x",
        ratio(op_wall(ops).as_secs_f64(), tally.plain.as_secs_f64()),
    );
}
