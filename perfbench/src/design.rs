//! `design_validate`: one op is a design task — a differential oracle run
//! on a seeded corpus slice, a Pareto search over a seeded `(N, L, C, tr)`
//! space (capped and unconstrained in turn), and MNA confirmation of the
//! front's noise-minimal points.

use crate::inputs::{self, permutation};
use crate::report::{closed_loop, run_passes, Ctx, Engine, OpRec, Outcome, SetupTimer, Until};
use crate::trace::{ratio, Telemetry, Tracer};
use ssn_core::optimize::{
    confirm_front, enumerate, search, DesignSpace, ObjectiveSet, OptimizeOptions,
};
use ssn_core::oracle::{run_differential, OracleOptions, TolerancePolicy};
use ssn_core::parallel::ExecPolicy;
use ssn_core::scenario::SsnScenario;
use ssn_devices::MosModel;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tasks per cycle: capped and unconstrained searches alternate over
/// eight strata of corpus size and design-space size.
const CYCLE: usize = 8;
/// Oracle corpus slices hold 200 to 375 scenarios (slot `j` holds
/// `CORPUS + 25 j`).
const CORPUS: usize = 200;
/// Tail percentile, and the tasks a run needs to hold ten beyond it.
const TAIL_P: f64 = 0.95;
const MIN_OPS: usize = 200;
const SALT: u64 = 3;

/// The golden oracle summary the repository's CI gate pins, and the
/// benchmark's copy of it for checkouts without `results/`.
const GOLDEN: &str = "results/diff1_oracle_summary.csv";
const GOLDEN_COPY: &str = "perfbench/golden/diff1_oracle_summary.csv";

/// One design task.
struct Task {
    corpus: usize,
    corpus_seed: u64,
    template: SsnScenario,
    model: Arc<dyn MosModel>,
    space: DesignSpace,
    opts: OptimizeOptions,
    confirm: usize,
    /// Checked against exhaustive enumeration.
    check: bool,
}

/// A cycle of design tasks. Slot `j` of every cycle has the same sizes —
/// corpus, design-space axes, cap and confirmation count — so every seed
/// runs the same amount of work; the seed picks the corpus, jitters the
/// template by a few percent and orders the slots.
fn cycle(seed: u64, c: u64) -> Result<Vec<Task>, String> {
    let fits = inputs::fit_processes()?;
    let processes = inputs::processes();
    let mut rng = inputs::rng(seed, SALT, c);
    let check = rng.usize_in(0, CYCLE - 1);
    permutation(&mut rng, CYCLE)
        .into_iter()
        .map(|j| {
            let p = j % 3;
            let mut jitter = |x: f64| x * rng.uniform_in(0.97, 1.03);
            let template =
                inputs::scenario(fits[p], 8, jitter(5e-9), jitter(1e-12), jitter(0.5e-9))?;
            let space = DesignSpace::around(
                &template,
                16 + 6 * j,
                8 + j,
                3 + (j / 2) % 2,
                3 + (j / 4) % 2,
                4.0,
            )
            .map_err(|e| format!("design space: {e}"))?;
            let capped = j % 2 == 0;
            Ok(Task {
                corpus: CORPUS + 25 * j,
                corpus_seed: rng.next_u64() | 1,
                template,
                model: Arc::new(processes[p].output_driver()),
                space,
                opts: OptimizeOptions {
                    objectives: ObjectiveSet::NoiseCostSpeed,
                    max_noise_frac: capped.then_some(0.2),
                },
                confirm: 2 + j % 3,
                check: j == check,
            })
        })
        .collect()
}

/// The set-up check: the 500-scenario seed-1 oracle summary must be
/// byte-equal to the golden file the CI gate pins.
fn golden_check(out: &mut Outcome, policy: &ExecPolicy) {
    let path = if Path::new(GOLDEN).exists() {
        GOLDEN
    } else {
        GOLDEN_COPY
    };
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    let opts = OracleOptions {
        corpus: 500,
        seed: 1,
        exec: *policy,
        ..OracleOptions::default()
    };
    match run_differential(&opts) {
        Ok(report) if report.summary_csv() == golden => {}
        Ok(_) => out.mismatch(format!("oracle summary differs from {path}")),
        Err(e) => out.mismatch(format!("golden oracle run failed: {e}")),
    }
}

/// Telemetry split by step, so capped and unconstrained searches can be
/// told apart.
#[derive(Default)]
struct Tally {
    oracle: Telemetry,
    capped: Telemetry,
    unconstrained: Telemetry,
    confirm: Telemetry,
    search_capped: Duration,
    search_unconstrained: Duration,
    searches: u64,
    confirm_time: Duration,
    confirmed: u64,
    total_points: u64,
    evaluated: u64,
    front: u64,
    engine: Engine,
}

pub fn design_validate(ctx: &Ctx) -> Result<Outcome, String> {
    // Two threads, like `mc_yield`: in runs made side by side on the
    // tuning host, one thread spread the p50 by 28 % between runs and two
    // threads by 13 %. A lone thread most likely stays on whichever
    // virtual CPU it starts on, and so takes that CPU's share of the host.
    let policy = ExecPolicy::with_threads(2);
    let (first, mut timer) = SetupTimer::start(ctx.started, || cycle(ctx.seed, 0).map(drop), drop);
    first?;
    let mut out = Outcome::default();
    golden_check(&mut out, &policy);

    let mut pass = |until: Until,
                    tracer: &mut Tracer,
                    out: &mut Outcome,
                    tally: &mut Tally,
                    between: &mut dyn FnMut(Duration)| {
        let traced = tracer.is_enabled();
        closed_loop(
            until,
            true,
            |c| cycle(ctx.seed, c).expect("cycle 0 generated at set-up"),
            |task, id| {
                let capped = task.opts.max_noise_frac.is_some();
                let spice =
                    |t: &Tally, name: &str| t.oracle.counter(name) + t.confirm.counter(name);
                let spice0 = (
                    spice(tally, "spice.tran.steps"),
                    spice(tally, "spice.tran.newton_iters"),
                );
                tracer.begin("design.task", id);
                let t = Instant::now();
                let oracle_opts = OracleOptions {
                    corpus: task.corpus,
                    seed: task.corpus_seed,
                    policy: TolerancePolicy::paper(),
                    exec: policy,
                    max_repros: 0,
                };
                let report = Telemetry::record(traced.then_some(&mut tally.oracle), || {
                    tracer.call("oracle.run_differential", id, || {
                        run_differential(&oracle_opts)
                    })
                });
                let acc = if capped {
                    &mut tally.capped
                } else {
                    &mut tally.unconstrained
                };
                let ts = Instant::now();
                let searched = Telemetry::record(traced.then_some(acc), || {
                    tracer.call("optimize.search", id, || {
                        search(&task.template, &task.space, &task.opts, &policy)
                    })
                });
                let search_time = ts.elapsed();
                let tc = Instant::now();
                let confirmed = searched.as_ref().ok().map(|(o, _)| {
                    Telemetry::record(traced.then_some(&mut tally.confirm), || {
                        tracer.call("optimize.confirm_front", id, || {
                            confirm_front(
                                &task.template,
                                &o.front,
                                task.confirm,
                                task.model.clone(),
                            )
                        })
                    })
                });
                let confirm_time = tc.elapsed();
                let wall = t.elapsed();
                tracer.end();

                let mut ok = true;
                let mut counts = Vec::new();
                if traced {
                    counts.push(("spice_steps", spice(tally, "spice.tran.steps") - spice0.0));
                    counts.push((
                        "spice_newton_iters",
                        spice(tally, "spice.tran.newton_iters") - spice0.1,
                    ));
                }
                match &report {
                    Ok(r) => {
                        counts.push(("oracle_scenarios", r.scenarios as u64));
                        tally.engine.add(&r.stats);
                        if r.violations > 0 || r.failed_chunks > 0 || r.scenarios != task.corpus {
                            out.mismatch(format!(
                                "design_validate op {id}: oracle slice (seed {}, {} scenarios) has {} violation(s)",
                                task.corpus_seed, task.corpus, r.violations
                            ));
                            ok = false;
                        }
                    }
                    Err(e) => {
                        eprintln!("perfbench: design_validate op {id}: oracle failed: {e}");
                        ok = false;
                    }
                }
                match (&searched, &confirmed) {
                    (Ok((o, stats)), Some(Ok(conf))) => {
                        tally.searches += 1;
                        tally.engine.add(stats);
                        if capped {
                            tally.search_capped += search_time;
                        } else {
                            tally.search_unconstrained += search_time;
                        }
                        tally.total_points += o.total_points as u64;
                        tally.evaluated += o.evaluated as u64;
                        tally.front += o.front.len() as u64;
                        tally.confirm_time += confirm_time;
                        tally.confirmed += conf.len() as u64;
                        counts.extend([
                            ("opt_evaluated", o.evaluated as u64),
                            (
                                "opt_pruned",
                                (o.pruned_infeasible + o.pruned_dominated) as u64,
                            ),
                            ("opt_front_members", o.front.len() as u64),
                            ("confirmed_points", conf.len() as u64),
                        ]);
                        if conf.len() != task.confirm.min(o.front.len())
                            || conf.iter().any(|c| !c.simulated.value().is_finite())
                        {
                            out.mismatch(format!(
                                "design_validate op {id}: confirmation incomplete"
                            ));
                            ok = false;
                        }
                        if task.check && !traced {
                            let same = enumerate(&task.template, &task.space, &task.opts, &policy)
                                .is_ok_and(|(e, _)| e.front.same_front(&o.front));
                            if !same {
                                out.mismatch(format!(
                                    "design_validate op {id}: search front differs from enumeration"
                                ));
                                ok = false;
                            }
                        }
                    }
                    (Err(e), _) => {
                        eprintln!("perfbench: design_validate op {id}: search failed: {e}");
                        ok = false;
                    }
                    (_, c) => {
                        eprintln!(
                            "perfbench: design_validate op {id}: confirmation failed: {:?}",
                            c.as_ref().and_then(|r| r.as_ref().err())
                        );
                        ok = false;
                    }
                }
                OpRec {
                    wall,
                    items: 1,
                    ok,
                    counts,
                    ..OpRec::default()
                }
            },
            between,
        )
    };

    let finish = |out: &mut Outcome, tally: &Tally, ops: &[OpRec], base: Option<&[OpRec]>| {
        if base.is_some() {
            layers(out, tally, ops);
        }
    };
    Ok(run_passes(
        ctx,
        "design_validate",
        (TAIL_P, MIN_OPS),
        &mut timer,
        out,
        &mut pass,
        finish,
    ))
}

fn layers(out: &mut Outcome, t: &Tally, ops: &[OpRec]) {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let o = &t.oracle;
    out.layers.insert(
        "oracle.scenario_us",
        ratio(
            us(o.total("oracle.scenario")),
            o.count("oracle.scenario") as f64,
        ),
    );
    // Both the oracle's linear transients and the confirmation's MOSFET
    // driver-bank transients run through `spice.tran`.
    let spice = [&t.oracle, &t.confirm];
    let span = |name: &str| spice.iter().map(|a| a.total(name)).sum::<Duration>();
    let count = |name: &str| spice.iter().map(|a| a.count(name)).sum::<u64>() as f64;
    let counter = |name: &str| spice.iter().map(|a| a.counter(name)).sum::<u64>() as f64;
    let trans = count("spice.tran");
    out.layers
        .insert("spice.tran_us", ratio(us(span("spice.tran")), trans));
    out.layers.insert(
        "spice.steps_per_tran",
        ratio(counter("spice.tran.steps"), trans),
    );
    out.layers.insert(
        "spice.newton_per_step",
        ratio(
            counter("spice.tran.newton_iters"),
            counter("spice.tran.steps"),
        ),
    );
    let hits = counter("spice.linsolve.factor_hits");
    out.layers.insert(
        "spice.factor_hit_ratio",
        ratio(hits, hits + counter("spice.linsolve.factor_misses")),
    );
    out.layers.insert(
        "bridge.measure_ms",
        ratio(ms(t.confirm_time), t.confirmed as f64),
    );
    let searched = t.search_capped + t.search_unconstrained;
    out.layers
        .insert("optimize.search_ms", ratio(ms(searched), t.searches as f64));
    out.layers.insert(
        "optimize.eval_frac",
        ratio(t.evaluated as f64, t.total_points as f64),
    );
    out.layers.insert(
        "optimize.front_members",
        ratio(t.front as f64, t.searches as f64),
    );
    let refine = |acc: &Telemetry| acc.self_time("opt.refine").as_secs_f64();
    out.layers.insert(
        "optimize.refine_self_frac",
        ratio(
            refine(&t.capped) + refine(&t.unconstrained),
            searched.as_secs_f64(),
        ),
    );
    out.layers.insert(
        "optimize.refine_self_frac_capped",
        ratio(refine(&t.capped), t.search_capped.as_secs_f64()),
    );
    out.layers.insert(
        "optimize.refine_self_frac_unconstrained",
        ratio(
            refine(&t.unconstrained),
            t.search_unconstrained.as_secs_f64(),
        ),
    );
    t.engine.report(out, ops.len());
}
