//! What a run produces — end-to-end metrics, per-layer metrics, exact
//! counts and notes — and the pieces every workload shares: the run
//! context, repeated set-up timing and the closed-loop runner.

use crate::host;
use crate::stats::{median, ms, nearest_rank, sorted};
use crate::trace::{ratio, Tracer};
use ssn_core::parallel::ExecStats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics, in the order `BENCHMARK.json` lists them: the ones
/// every workload has.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, in the order `BENCHMARK.json`
/// lists them. A workload that does not exercise a layer reports 0 for
/// its metrics: the layer did no work. The last two are `serve_mixed`'s
/// own end-to-end figures, taken from the traced run's untraced pass.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("montecarlo.perturb_ns_per_sample", "ns"),
    ("montecarlo.collect_ns_per_sample", "ns"),
    ("lcmodel.slab_ns_per_sample", "ns"),
    ("lmodel.slab_ns_per_sample", "ns"),
    ("parallel.utilization", "ratio"),
    ("parallel.sched_wait_frac", "ratio"),
    ("parallel.chunks_per_op", "count"),
    ("durable.commit_ms_p50", "ms"),
    ("durable.commit_ms_p90", "ms"),
    ("durable.write_bytes_per_sample", "B"),
    ("durable.write_calls_per_chunk", "count"),
    ("durable.load_ms", "ms"),
    ("durable.resumed_frac", "ratio"),
    ("durable.overhead_x", "x"),
    ("oracle.scenario_us", "us"),
    ("spice.tran_us", "us"),
    ("spice.steps_per_tran", "count"),
    ("spice.newton_per_step", "count"),
    ("spice.factor_hit_ratio", "ratio"),
    ("bridge.measure_ms", "ms"),
    ("optimize.search_ms", "ms"),
    ("optimize.eval_frac", "ratio"),
    ("optimize.front_members", "count"),
    ("optimize.refine_self_frac", "ratio"),
    ("optimize.refine_self_frac_capped", "ratio"),
    ("optimize.refine_self_frac_unconstrained", "ratio"),
    ("http.parse_us", "us"),
    ("http.write_us", "us"),
    ("api.parse_us", "us"),
    ("api.compute_ms_p50", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_us", "us"),
    ("cache.put_ms", "ms"),
    ("jobs.run_ms_p50", "ms"),
    ("jobs.wait_ms_p50", "ms"),
    ("server.shed_frac", "ratio"),
    ("loadgen.late_ms_p99", "ms"),
    ("telemetry.overhead_frac", "ratio"),
    ("max_ok_rps", "1/s"),
    ("job_done_p50_ms", "ms"),
];

/// A run sets up this many times before its first op.
pub const SETUP_REPEATS: usize = 25;
/// Share of a run's op time spent timing further set-ups, spread through
/// the run: the host's speed switches between two levels every second or
/// so, and set-ups timed in one burst at the start caught only one of them.
pub const SETUP_SHARE: f64 = 0.025;

/// Settings of one run.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory for journals and the spool, removed at exit.
    pub scratch: PathBuf,
    /// Process start, the origin of the first set-up's timing.
    pub started: Instant,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused or produced a wrong output.
    pub failed: u64,
    /// Output checks that failed (ops and set-up alike).
    pub mismatches: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Exact counts that must repeat across runs of one seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Human-readable facts about the run (percentiles used, op counts).
    pub notes: Vec<String>,
    /// `loadgen.late_ms_p99`, recorded with the host facts of every run.
    pub late_ms_p99: f64,
}

impl Outcome {
    /// Records a failed output check.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            eprintln!("perfbench: wrong output: {what}");
        }
        self.mismatches.push(what);
    }

    /// `true` when every op succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    /// Adds `delta` to count `name`.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counts.entry(name).or_insert(0) += delta;
    }
}

/// Times a workload's set-up: first from process start, then again and
/// again through the run. `setup_s` is the median of all the timings.
pub struct SetupTimer<'a> {
    /// One more set-up; returns its time in seconds.
    again: Box<dyn FnMut() -> f64 + 'a>,
    times: Vec<f64>,
}

impl<'a> SetupTimer<'a> {
    /// Runs `setup` once, timed from process start, and [`SETUP_REPEATS`]
    /// − 1 times more; returns the first result. Later results go to
    /// `discard`, outside the timed region.
    pub fn start<T: 'a>(
        started: Instant,
        mut setup: impl FnMut() -> T + 'a,
        mut discard: impl FnMut(T) + 'a,
    ) -> (T, Self) {
        let first = setup();
        let mut timer = Self {
            times: vec![started.elapsed().as_secs_f64()],
            again: Box::new(move || {
                let t = Instant::now();
                let out = setup();
                let took = t.elapsed().as_secs_f64();
                discard(out);
                took
            }),
        };
        for _ in 1..SETUP_REPEATS {
            let took = (timer.again)();
            timer.times.push(took);
        }
        (first, timer)
    }

    /// Times set-ups until they have taken `secs` seconds, and at least one.
    pub fn sample(&mut self, secs: f64) {
        let mut spent = 0.0;
        while spent < secs || spent == 0.0 {
            let took = (self.again)();
            self.times.push(took);
            spent += took;
        }
    }

    /// The median set-up time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// One closed-loop op as the end-to-end metrics see it.
#[derive(Debug, Clone, Default)]
pub struct OpRec {
    /// The timed cycle the op belongs to, from 0.
    pub cycle: usize,
    /// Op wall time (checks excluded).
    pub wall: Duration,
    /// Items the op completed.
    pub items: u64,
    /// Succeeded with a correct output.
    pub ok: bool,
    /// Exact counts of the work the op did.
    pub counts: Vec<(&'static str, u64)>,
}

/// When a closed-loop pass stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// At the cycle boundary nearest this much op wall time, once at
    /// least `min_ops` ops ran (what the workload's tail percentile needs
    /// to have ten ops beyond it).
    Seconds { secs: f64, min_ops: usize },
    /// After exactly this many cycles.
    Cycles(usize),
}

/// Drives a closed loop with one caller over whole cycles of ops. With
/// `warmup`, a timed pass first runs cycle 0 untimed so allocator and
/// page-cache state settle; timed cycles are numbered from 1, and a pass
/// of a given cycle count repeats cycles `1..=n` of an earlier timed pass.
///
/// Each cycle holds the same mix of op sizes (the seed jitters and orders
/// them), and a pass always ends on a cycle boundary, so two runs with
/// different seeds execute the same mix. A timed pass stops once less
/// than half a cycle of its time is left, which keeps the cycle count
/// steady from run to run. `between` gets each timed cycle's op wall time
/// once the cycle ends. Returns the timed ops, the cycle count and the
/// warm-up ops.
pub fn closed_loop<J>(
    until: Until,
    warmup: bool,
    mut cycle: impl FnMut(u64) -> Vec<J>,
    mut op: impl FnMut(&J, u64) -> OpRec,
    between: &mut dyn FnMut(Duration),
) -> (Vec<OpRec>, usize, Vec<OpRec>) {
    let mut warm = Vec::new();
    if warmup && matches!(until, Until::Seconds { .. }) {
        for (i, job) in cycle(0).iter().enumerate() {
            warm.push(op(job, u64::MAX - i as u64));
        }
    }
    let mut ops = Vec::new();
    let mut measured = Duration::ZERO;
    let mut cycles = 0usize;
    loop {
        let done = match until {
            Until::Seconds { secs, min_ops } => {
                let per_cycle = measured.as_secs_f64() / cycles.max(1) as f64;
                ops.len() >= min_ops.max(1) && measured.as_secs_f64() + per_cycle / 2.0 >= secs
            }
            Until::Cycles(n) => cycles >= n,
        };
        if done {
            return (ops, cycles, warm);
        }
        let before = measured;
        for job in cycle(cycles as u64 + 1) {
            let rec = OpRec {
                cycle: cycles,
                ..op(&job, ops.len() as u64)
            };
            measured += rec.wall;
            ops.push(rec);
        }
        between(measured - before);
        cycles += 1;
    }
}

/// The tallies of a closed-loop workload's passes.
pub type PassOut = (Vec<OpRec>, usize, Vec<OpRec>);

/// The pass of a closed-loop workload: runs [`closed_loop`] until `Until`,
/// handing it the `between` hook.
pub type Pass<'p, T> =
    dyn FnMut(Until, &mut Tracer, &mut Outcome, &mut T, &mut dyn FnMut(Duration)) -> PassOut + 'p;

/// Runs a closed-loop workload. The end-to-end run is one untraced pass of
/// `ctx.seconds`, with further set-ups timed after each cycle. The traced
/// run makes an untraced pass of half that, then repeats the same cycles
/// under tracing, and the two passes' wall times give the tracing
/// overhead. `finish` gets the tally and ops of the pass that produces the
/// report, plus the untraced pass's ops in a traced run.
pub fn run_passes<T: Default>(
    ctx: &Ctx,
    workload: &str,
    (tail_p, min_ops): (f64, usize),
    setup: &mut SetupTimer,
    mut out: Outcome,
    pass: &mut Pass<T>,
    finish: impl FnOnce(&mut Outcome, &T, &[OpRec], Option<&[OpRec]>),
) -> Outcome {
    let mut untraced = Tracer::new(ctx.started, false);
    let mut tally = T::default();
    if !ctx.trace {
        let until = Until::Seconds {
            secs: ctx.seconds,
            min_ops,
        };
        let mut between = |wall: Duration| setup.sample(SETUP_SHARE * wall.as_secs_f64());
        let (ops, _, warmup) = pass(until, &mut untraced, &mut out, &mut tally, &mut between);
        count_ops(&mut out, &warmup);
        closed_loop_e2e(&mut out, &ops, tail_p, setup.median());
        count_first_cycle(&mut out, &ops);
        finish(&mut out, &tally, &ops, None);
        return out;
    }
    let until = Until::Seconds {
        secs: ctx.seconds / 2.0,
        min_ops: 1,
    };
    let (base, cycles, warmup) = pass(until, &mut untraced, &mut out, &mut tally, &mut |_| {});
    count_ops(&mut out, &warmup);
    count_ops(&mut out, &base);
    let mut tracer = Tracer::new(ctx.started, true);
    let mut tally = T::default();
    let (ops, _, _) = pass(
        Until::Cycles(cycles),
        &mut tracer,
        &mut out,
        &mut tally,
        &mut |_| {},
    );
    count_ops(&mut out, &ops);
    count_first_cycle(&mut out, &ops);
    out.layers.insert(
        "telemetry.overhead_frac",
        ratio(op_wall(&ops).as_secs_f64(), op_wall(&base).as_secs_f64()) - 1.0,
    );
    finish(&mut out, &tally, &ops, Some(&base));
    tracer.write(workload, ctx.seed);
    out
}

/// Adds the exact counts of the first timed cycle's ops: a fixed set of
/// ops for a given seed, however many cycles a run fits in.
pub fn count_first_cycle(out: &mut Outcome, ops: &[OpRec]) {
    for (name, v) in ops.iter().filter(|o| o.cycle == 0).flat_map(|o| &o.counts) {
        out.count(name, *v);
    }
}

/// Adds a pass's ops to the attempted and failed totals.
pub fn count_ops(out: &mut Outcome, ops: &[OpRec]) {
    out.attempted += ops.len() as u64;
    out.failed += ops.iter().filter(|o| !o.ok).count() as u64;
}

/// Total wall time of `ops`.
pub fn op_wall(ops: &[OpRec]) -> Duration {
    ops.iter().map(|o| o.wall).sum()
}

/// The end-to-end metrics of a closed loop (and its op totals), over every
/// timed op. `tail_p` is the workload's declared tail percentile.
pub fn closed_loop_e2e(out: &mut Outcome, ops: &[OpRec], tail_p: f64, setup_s: f64) {
    count_ops(out, ops);
    let ok: u64 = ops.iter().filter(|o| o.ok).map(|o| o.items).sum();
    let lat = sorted(ops.iter().map(|o| ms(o.wall)));
    let (tail, beyond) = nearest_rank(&lat, tail_p);
    out.e2e.insert("setup_s", setup_s);
    out.e2e
        .insert("items_per_s", ratio(ok as f64, op_wall(ops).as_secs_f64()));
    out.e2e.insert("op_p50_ms", median(&lat));
    out.e2e.insert("op_tail_ms", tail);
    out.e2e.insert("peak_rss_mb", host::peak_rss_mb());
    note_tail(out, tail_p, lat.len(), beyond);
}

/// Records which tail percentile a workload uses and whether enough ops
/// lie beyond it.
pub fn note_tail(out: &mut Outcome, tail_p: f64, n: usize, beyond: usize) {
    let pct = (tail_p * 100.0).round();
    out.notes.push(format!(
        "op_tail_ms is p{pct} over {n} ops ({beyond} beyond it{})",
        if beyond >= 10 { "" } else { "; fewer than ten" }
    ));
}

/// Engine statistics summed over a pass, for the `parallel.*` metrics.
#[derive(Debug, Default)]
pub struct Engine {
    busy: Duration,
    budget: Duration,
    sched_wait: Duration,
    chunks: usize,
    /// Summed engine wall time.
    pub wall: Duration,
}

impl Engine {
    /// Adds one engine run.
    pub fn add(&mut self, s: &ExecStats) {
        self.busy += s.busy;
        self.budget += s.wall * s.threads as u32;
        self.sched_wait += s.sched_wait;
        self.chunks += s.chunks;
        self.wall += s.wall;
    }

    /// Records the `parallel.*` metrics over `ops` ops.
    pub fn report(&self, out: &mut Outcome, ops: usize) {
        out.layers.insert(
            "parallel.utilization",
            ratio(self.busy.as_secs_f64(), self.budget.as_secs_f64()),
        );
        out.layers.insert(
            "parallel.sched_wait_frac",
            ratio(
                self.sched_wait.as_secs_f64(),
                (self.busy + self.sched_wait).as_secs_f64(),
            ),
        );
        out.layers.insert(
            "parallel.chunks_per_op",
            ratio(self.chunks as f64, ops as f64),
        );
    }
}
