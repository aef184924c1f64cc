//! Enumeration-differential suite for `ssn_core::optimize`.
//!
//! The optimizer's contract is *exactness*: on any valid grid its Pareto
//! front must be **bit-identical** to the front computed by exhaustively
//! evaluating every point. This suite pins that contract four ways:
//!
//! 1. a seeded corpus (`ssn_numeric::check`) of random templates, axes,
//!    objective sets, and noise caps, differenced against
//!    `optimize::enumerate` — a failing case is greedily minimized (axis
//!    values dropped one at a time while the disagreement persists) and
//!    printed as a replayable repro with exact bit patterns;
//! 2. an independent reference front assembled from `(C, tr)`-slab sweeps
//!    of the PR-3 `design::sweep_design_grid` engine, so the optimizer is
//!    also differenced against code it does not share an evaluation loop
//!    with (the two paths must agree bit-for-bit because both reduce to
//!    pure field-set scenario derivation);
//! 3. the PR-3 inverse-design helpers `max_simultaneous_drivers` and
//!    `required_rise_time` as 1-D special cases of the optimizer;
//! 4. one large grid (12 288 points, a front of over a thousand members),
//!    far past the corpus's at most four `N` and `L` values, under an
//!    unconstrained and two capped option sets.

use std::cell::Cell;

use ssn_lab::core::design::{self, sweep_design_grid};
use ssn_lab::core::optimize::{
    enumerate, package_cost, search, speed_figure, DesignPoint, DesignSpace, ObjectiveSet,
    OptimizeOptions, ParetoFront,
};
use ssn_lab::core::parallel::ExecPolicy;
use ssn_lab::core::scenario::SsnScenario;
use ssn_lab::core::{lcmodel, SsnError};
use ssn_lab::devices::process::Process;
use ssn_lab::devices::Asdm;
use ssn_lab::numeric::check::{forall, Gen};
use ssn_lab::units::{Farads, Henrys, Seconds, Siemens, Volts};

/// A physically sensible random ASDM (mirrors `tests/properties.rs`).
fn gen_asdm(g: &mut Gen) -> Asdm {
    let k = g.f64_in(1e-3, 20e-3);
    let sigma = g.f64_in(1.0, 1.6);
    let v0 = g.f64_in(0.3, 0.9);
    Asdm::new(Siemens::new(k), sigma, Volts::new(v0))
}

/// A template scenario; its own `L`/`C`/`tr` are irrelevant to the search
/// (every grid point overrides them) but must be valid.
fn gen_template(g: &mut Gen) -> SsnScenario {
    SsnScenario::from_asdm(gen_asdm(g), Volts::new(1.8))
        .build()
        .expect("generator yields valid templates")
}

/// A strictly increasing f64 axis of 1..=`max_len` random values.
fn gen_axis_f64(g: &mut Gen, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let len = g.usize_in(1, max_len);
    let mut vals: Vec<f64> = (0..len).map(|_| g.f64_in(lo, hi)).collect();
    vals.sort_by(f64::total_cmp);
    vals.dedup();
    vals
}

/// A random valid design space with small, brute-forceable axes.
fn gen_space(g: &mut Gen, max_axis: usize) -> DesignSpace {
    let n_len = g.usize_in(1, max_axis);
    let mut drivers: Vec<usize> = (0..n_len).map(|_| g.usize_in(1, 24)).collect();
    drivers.sort_unstable();
    drivers.dedup();
    let space = DesignSpace {
        drivers,
        inductances: gen_axis_f64(g, max_axis, 1e-9, 10e-9)
            .into_iter()
            .map(Henrys::new)
            .collect(),
        capacitances: gen_axis_f64(g, 3, 0.05e-12, 4e-12)
            .into_iter()
            .map(Farads::new)
            .collect(),
        rise_times: gen_axis_f64(g, 3, 0.2e-9, 2e-9)
            .into_iter()
            .map(Seconds::new)
            .collect(),
    };
    space.validate().expect("generator yields valid spaces");
    space
}

/// Random search options: any objective set, caps tight enough to make
/// whole corpora infeasible (pruning must still never change the front).
fn gen_options(g: &mut Gen) -> OptimizeOptions {
    let objectives = match g.usize_in(0, 2) {
        0 => ObjectiveSet::NoiseCostSpeed,
        1 => ObjectiveSet::NoiseCost,
        _ => ObjectiveSet::NoiseSpeed,
    };
    let max_noise_frac = if g.usize_in(0, 1) == 1 {
        Some(g.f64_in(0.02, 0.3))
    } else {
        None
    };
    OptimizeOptions {
        objectives,
        max_noise_frac,
    }
}

/// `true` when search and enumeration disagree on this input (either on
/// the front itself, or by erroring on one side only).
fn disagrees(template: &SsnScenario, space: &DesignSpace, opts: &OptimizeOptions) -> bool {
    let policy = ExecPolicy::serial();
    match (
        search(template, space, opts, &policy),
        enumerate(template, space, opts, &policy),
    ) {
        (Ok((s, _)), Ok((e, _))) => !s.front.same_front(&e.front),
        (Err(_), Err(_)) => false,
        _ => true,
    }
}

/// Greedy 1-value-at-a-time shrink: repeatedly drop any single axis value
/// that keeps the disagreement alive, until no single drop does.
fn shrink(template: &SsnScenario, mut space: DesignSpace, opts: &OptimizeOptions) -> DesignSpace {
    loop {
        let mut reduced = false;
        'axes: for axis in 0..4usize {
            let len = match axis {
                0 => space.drivers.len(),
                1 => space.inductances.len(),
                2 => space.capacitances.len(),
                _ => space.rise_times.len(),
            };
            if len <= 1 {
                continue;
            }
            for i in 0..len {
                let mut cand = space.clone();
                match axis {
                    0 => {
                        cand.drivers.remove(i);
                    }
                    1 => {
                        cand.inductances.remove(i);
                    }
                    2 => {
                        cand.capacitances.remove(i);
                    }
                    _ => {
                        cand.rise_times.remove(i);
                    }
                }
                if disagrees(template, &cand, opts) {
                    space = cand;
                    reduced = true;
                    break 'axes;
                }
            }
        }
        if !reduced {
            return space;
        }
    }
}

/// Formats an f64 axis with exact bit patterns so a repro can be replayed
/// without any parsing loss.
fn axis_bits(vals: impl IntoIterator<Item = f64>) -> String {
    vals.into_iter()
        .map(|v| format!("{v:e} ({:#018x})", v.to_bits()))
        .collect::<Vec<_>>()
        .join(", ")
}

/// A fully replayable description of a failing (minimized) case.
fn repro(template: &SsnScenario, space: &DesignSpace, opts: &OptimizeOptions) -> String {
    let asdm = template.asdm();
    format!(
        "minimized repro:\n  asdm: k = {}, sigma = {}, v0 = {}\n  vdd = {}\n  \
         objectives = {}, max_noise_frac = {:?}\n  drivers = {:?}\n  \
         inductances = [{}]\n  capacitances = [{}]\n  rise_times = [{}]",
        axis_bits([asdm.k().value()]),
        axis_bits([asdm.sigma()]),
        axis_bits([asdm.v0().value()]),
        axis_bits([template.vdd().value()]),
        opts.objectives.name(),
        opts.max_noise_frac.map(|f| axis_bits([f])),
        space.drivers,
        axis_bits(space.inductances.iter().map(|v| v.value())),
        axis_bits(space.capacitances.iter().map(|v| v.value())),
        axis_bits(space.rise_times.iter().map(|v| v.value())),
    )
}

/// Satellite 1, part 1: on a 220-case seeded corpus the optimizer front
/// equals the exhaustive front **exactly** — any mismatch is minimized
/// and printed as a replayable repro. Also pins `evaluated <= total` per
/// case and that the corpus as a whole exercises real pruning.
#[test]
fn search_front_equals_enumeration_front_on_seeded_corpus() {
    let pruned_total = Cell::new(0usize);
    let capped_cases = Cell::new(0usize);
    forall("optimize front equals enumeration front", 220, |g| {
        let template = gen_template(g);
        let space = gen_space(g, 4);
        let opts = gen_options(g);
        let total = space.total_points();
        let policy = ExecPolicy::serial();

        let (s, _) = search(&template, &space, &opts, &policy)
            .map_err(|e| format!("search failed on a valid space: {e}"))?;
        let (e, _) = enumerate(&template, &space, &opts, &policy)
            .map_err(|e| format!("enumeration failed on a valid space: {e}"))?;

        if e.evaluated != total {
            return Err(format!(
                "enumeration must visit everything: {} of {total}",
                e.evaluated
            ));
        }
        if s.evaluated > total {
            return Err(format!(
                "search evaluated {} points of a {total}-point grid",
                s.evaluated
            ));
        }
        pruned_total.set(pruned_total.get() + s.pruned_infeasible + s.pruned_dominated);
        if opts.max_noise_frac.is_some() {
            capped_cases.set(capped_cases.get() + 1);
        }
        if s.front.same_front(&e.front) {
            return Ok(());
        }
        let min = shrink(&template, space, &opts);
        Err(format!(
            "search front ({} members) != enumeration front ({} members)\n{}",
            s.front.len(),
            e.front.len(),
            repro(&template, &min, &opts),
        ))
    });
    assert!(
        capped_cases.get() >= 50,
        "corpus must include a healthy capped share, got {}",
        capped_cases.get()
    );
    assert!(
        pruned_total.get() > 0,
        "a 220-case corpus with tight caps must exercise the pruning paths"
    );
}

/// Builds the reference front the long way round: one PR-3
/// `sweep_design_grid` call per `(C, tr)` slab, objectives computed here
/// in the test, every point inserted into a fresh [`ParetoFront`].
fn reference_front_via_sweep(
    template: &SsnScenario,
    space: &DesignSpace,
    opts: &OptimizeOptions,
) -> Result<ParetoFront, SsnError> {
    let policy = ExecPolicy::serial();
    let cap = opts.max_noise_frac.map(|f| f * template.vdd().value());
    let mut front = ParetoFront::new(opts.objectives);
    for (c_idx, &c) in space.capacitances.iter().enumerate() {
        for (tr_idx, &tr) in space.rise_times.iter().enumerate() {
            let slab = template
                .with_package(template.inductance(), c)?
                .with_rise_time(tr)?;
            let (points, stats) =
                sweep_design_grid(&slab, &space.drivers, &space.inductances, &policy)?;
            assert_eq!(stats.failed_chunks, 0, "reference sweep must be clean");
            assert_eq!(points.len(), space.drivers.len() * space.inductances.len());
            for (i, gp) in points.iter().enumerate() {
                if cap.is_some_and(|cap| gp.vn_lc.value() > cap) {
                    continue;
                }
                front.insert(DesignPoint {
                    n_idx: i / space.inductances.len(),
                    l_idx: i % space.inductances.len(),
                    c_idx,
                    tr_idx,
                    n_drivers: gp.n_drivers,
                    inductance: gp.inductance,
                    capacitance: c,
                    rise_time: tr,
                    vn_l_only: gp.vn_l_only,
                    vn_lc: gp.vn_lc,
                    case: gp.case,
                    cost: package_cost(gp.inductance, c),
                    speed: speed_figure(gp.n_drivers, tr),
                    level: 0,
                });
            }
        }
    }
    front.seal();
    Ok(front)
}

/// Satellite 1, part 2: the optimizer front also equals a front assembled
/// from independent `sweep_design_grid` slab sweeps — a code path the
/// optimizer shares no evaluation loop with. Both must agree bit-for-bit
/// because each reduces to the same pure scenario field-set derivation.
#[test]
fn search_front_equals_slab_wise_design_sweep_front() {
    forall("optimize front equals slab-wise sweep front", 64, |g| {
        let template = gen_template(g);
        let space = gen_space(g, 3);
        let opts = gen_options(g);
        let reference = reference_front_via_sweep(&template, &space, &opts)
            .map_err(|e| format!("reference sweep failed: {e}"))?;
        let (s, _) = search(&template, &space, &opts, &ExecPolicy::serial())
            .map_err(|e| format!("search failed: {e}"))?;
        if s.front.same_front(&reference) {
            Ok(())
        } else {
            let min = shrink(&template, space, &opts);
            Err(format!(
                "search front ({} members) != slab-sweep front ({} members)\n{}",
                s.front.len(),
                reference.len(),
                repro(&template, &min, &opts),
            ))
        }
    });
}

/// A fixed, deterministic template used by the targeted regressions.
fn fixed_template() -> SsnScenario {
    let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
    SsnScenario::from_asdm(asdm, Volts::new(1.8))
        .inductance(Henrys::new(5e-9))
        .capacitance(Farads::new(1e-12))
        .rise_time(Seconds::new(0.5e-9))
        .build()
        .expect("fixed template is valid")
}

/// A tight cap on a dense single-slab grid must prune aggressively — and
/// exactly: front identical, strictly fewer evaluations than brute force.
#[test]
fn tight_cap_prunes_a_dense_slab_without_changing_the_front() {
    let template = fixed_template();
    let space = DesignSpace {
        drivers: (1..=16).collect(),
        inductances: (0..16)
            .map(|i| Henrys::new(1e-9 * (1.0 + 0.6 * i as f64)))
            .collect(),
        capacitances: vec![template.capacitance()],
        rise_times: vec![template.rise_time()],
    };
    let opts = OptimizeOptions {
        objectives: ObjectiveSet::NoiseCostSpeed,
        max_noise_frac: Some(0.12),
    };
    let total = space.total_points();
    let policy = ExecPolicy::serial();
    let (s, _) = search(&template, &space, &opts, &policy).expect("search");
    let (e, _) = enumerate(&template, &space, &opts, &policy).expect("enumerate");
    assert!(
        s.front.same_front(&e.front),
        "capped fronts differ: {} vs {} members",
        s.front.len(),
        e.front.len()
    );
    assert!(
        s.pruned_infeasible > 0,
        "a 12% cap on a 16x16 slab must prove some points infeasible unevaluated"
    );
    assert!(
        s.evaluated < total,
        "pruning must save evaluations: {} of {total}",
        s.evaluated
    );
}

/// Satellite 3a: with every axis but `N` pinned to the template and the
/// cap set to the budget, the optimizer front is exactly the feasible
/// prefix `1..=max_simultaneous_drivers` — the PR-3 helper is a 1-D
/// special case of the search.
#[test]
fn one_axis_search_reproduces_max_simultaneous_drivers() {
    let template = fixed_template();
    let frac = 0.25;
    // Bitwise the same product the optimizer computes from the fraction.
    let budget = Volts::new(frac * template.vdd().value());
    let nmax = design::max_simultaneous_drivers(&template, budget).expect("max drivers");
    assert!(
        (1..64).contains(&nmax),
        "regression setup needs an interior answer, got {nmax}"
    );

    let space = DesignSpace {
        drivers: (1..=64).collect(),
        inductances: vec![template.inductance()],
        capacitances: vec![template.capacitance()],
        rise_times: vec![template.rise_time()],
    };
    let opts = OptimizeOptions {
        objectives: ObjectiveSet::NoiseCostSpeed,
        max_noise_frac: Some(frac),
    };
    let (out, _) = search(&template, &space, &opts, &ExecPolicy::serial()).expect("search");
    let front_nmax = out
        .front
        .members()
        .iter()
        .map(|p| p.n_drivers)
        .max()
        .expect("non-empty front");
    assert_eq!(
        front_nmax, nmax,
        "the noisiest feasible front member must sit exactly at max_simultaneous_drivers"
    );
    // Noise rises and the speed figure improves with N, so every feasible
    // driver count is mutually non-dominated: the front is the full prefix.
    assert_eq!(
        out.front.len(),
        nmax,
        "every feasible driver count 1..=nmax must survive to the front"
    );
}

/// Satellite 3b: with every axis but `tr` pinned, the minimum feasible
/// rise time on a grid bracketing `required_rise_time`'s answer is the
/// first grid value at or above it — the slow-branch guarantee seen
/// through the optimizer's cap.
#[test]
fn one_axis_search_reproduces_required_rise_time() {
    let template = fixed_template().with_drivers(8).expect("8 drivers");
    let frac = 1.0 / 6.0;
    let budget = Volts::new(frac * template.vdd().value());
    let tr_star = design::required_rise_time(&template, budget).expect("required rise time");
    assert!(
        tr_star.value() > 1e-12,
        "regression setup needs a true root, not the search floor"
    );

    // Bracket the answer: one grid value below, two at/above.
    let grid_tr: Vec<Seconds> = [0.9, 1.1, 1.3]
        .iter()
        .map(|m| Seconds::new(m * tr_star.value()))
        .collect();
    // Setup validity: the below-root value must actually violate the
    // budget (required_rise_time's guarantee only covers tr >= tr_star).
    let vn_below = lcmodel::vn_max(&template.with_rise_time(grid_tr[0]).expect("scenario")).0;
    assert!(
        vn_below > budget,
        "test setup: 0.9 * tr_star must violate the budget ({vn_below} <= {budget})"
    );

    let space = DesignSpace {
        drivers: vec![template.n_drivers()],
        inductances: vec![template.inductance()],
        capacitances: vec![template.capacitance()],
        rise_times: grid_tr.clone(),
    };
    let opts = OptimizeOptions {
        objectives: ObjectiveSet::NoiseCostSpeed,
        max_noise_frac: Some(frac),
    };
    let (out, _) = search(&template, &space, &opts, &ExecPolicy::serial()).expect("search");
    assert!(!out.front.is_empty(), "tr >= tr_star must stay feasible");
    assert!(
        out.front.members().iter().all(|p| p.tr_idx >= 1),
        "no front member may undercut required_rise_time"
    );
    let min_tr = out
        .front
        .members()
        .iter()
        .map(|p| p.rise_time.value())
        .fold(f64::INFINITY, f64::min);
    assert_eq!(
        min_tr.to_bits(),
        grid_tr[1].value().to_bits(),
        "the fastest feasible edge must be the first grid value at or above tr_star"
    );
}

/// The large-grid case: the p018 template on a 48 x 16 x 4 x 4 grid, whose
/// unconstrained front has over a thousand members, while no corpus case
/// has more than four `N` or `L` values. Under every option set the search
/// front is the enumeration front, enumeration visits every point, and the
/// capped search prunes real work.
#[test]
fn search_front_equals_enumeration_front_on_a_large_grid() {
    let template = SsnScenario::builder(&Process::p018())
        .rise_time(Seconds::from_nanos(0.5))
        .build()
        .expect("p018 template is valid");
    let space = DesignSpace::around(&template, 48, 16, 4, 4, 4.0).expect("valid space");
    let total = space.total_points();
    assert_eq!(total, 12_288);
    let policy = ExecPolicy::with_threads(2);
    for (name, objectives, max_noise_frac) in [
        ("3-obj, unconstrained", ObjectiveSet::NoiseCostSpeed, None),
        (
            "3-obj, cap 0.12*Vdd",
            ObjectiveSet::NoiseCostSpeed,
            Some(0.12),
        ),
        ("noise+cost, cap 0.12", ObjectiveSet::NoiseCost, Some(0.12)),
    ] {
        let opts = OptimizeOptions {
            objectives,
            max_noise_frac,
        };
        let (s, _) = search(&template, &space, &opts, &policy).expect("search");
        let (e, _) = enumerate(&template, &space, &opts, &policy).expect("enumerate");
        assert!(
            s.front.same_front(&e.front),
            "{name}: search front ({}) != enumeration front ({})",
            s.front.len(),
            e.front.len(),
        );
        assert_eq!(
            e.evaluated, total,
            "{name}: enumeration must visit everything"
        );
        if max_noise_frac.is_none() {
            assert!(
                s.front.len() > 1000,
                "{name}: the case needs a large front, got {}",
                s.front.len()
            );
        } else {
            assert!(
                s.evaluated < total,
                "{name}: capped search must evaluate fewer points than enumeration ({} of {total})",
                s.evaluated,
            );
        }
    }
}
