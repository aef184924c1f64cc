//! SSN-aware design utilities (the executable form of paper Section 3's
//! design implications).
//!
//! The paper observes that for a fixed process the *only* lever over the
//! maximum SSN is the circuit-oriented figure `Z = N * L * s`, and that its
//! three factors trade off exactly one-for-one. These helpers answer the
//! questions a pad-ring designer actually asks: *how many drivers may
//! switch together under a noise budget? how slow must the input slew be?
//! how should switching be staggered?*

use crate::durable::{
    run_chunked_durable, ByteReader, ByteWriter, DegradeStep, Durability, DurableOptions,
    ParamDigest, RunSpec,
};
use crate::error::SsnError;
use crate::faults;
use crate::lcmodel;
use crate::lcmodel::MaxSsnCase;
use crate::parallel::{ExecPolicy, ExecStats};
use crate::scenario::SsnScenario;
use ssn_numeric::optimize::golden_section;
use ssn_numeric::roots::RootOptions;
use ssn_numeric::solve::{solve_bracketed, SolveOptions, SolveReport};
use ssn_units::{Henrys, Seconds, Volts};

/// Hard cap on driver counts considered by the search helpers.
const MAX_DRIVERS: usize = 65_536;

/// Rejects a noise budget that is not a positive finite voltage.
fn validate_budget(budget: Volts) -> Result<(), SsnError> {
    if !(budget.value() > 0.0) || !budget.value().is_finite() {
        return Err(SsnError::invalid(
            "noise budget",
            budget.value(),
            "must be a positive finite voltage",
        ));
    }
    Ok(())
}

/// The largest number of simultaneously switching drivers whose maximum SSN
/// (full LC model) stays within `budget`, holding everything else in
/// `template` fixed.
///
/// Returns 0 when even a single driver violates the budget.
///
/// # Errors
///
/// Returns [`SsnError::InvalidInput`] when the budget is not a positive
/// finite voltage.
///
/// # Examples
///
/// ```
/// use ssn_core::{design, scenario::SsnScenario};
/// use ssn_devices::Asdm;
/// use ssn_units::{Siemens, Volts};
///
/// # fn main() -> Result<(), ssn_core::SsnError> {
/// let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
/// let template = SsnScenario::from_asdm(asdm, Volts::new(1.8)).build()?;
/// let n = design::max_simultaneous_drivers(&template, Volts::new(0.45))?;
/// assert!(n >= 1);
/// # Ok(())
/// # }
/// ```
pub fn max_simultaneous_drivers(template: &SsnScenario, budget: Volts) -> Result<usize, SsnError> {
    validate_budget(budget)?;
    let _span = ssn_telemetry::span("design.max_drivers");
    let fits = |n: usize| -> bool {
        match template.with_drivers(n) {
            Ok(s) => lcmodel::vn_max(&s).0 <= budget,
            Err(_) => false,
        }
    };
    if !fits(1) {
        return Ok(0);
    }
    // Exponential probe then binary search (vn_max grows monotonically
    // with N).
    let mut lo = 1usize;
    let mut hi = 2usize;
    while hi <= MAX_DRIVERS && fits(hi) {
        lo = hi;
        hi *= 2;
    }
    if hi > MAX_DRIVERS {
        return Ok(lo);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// The fastest input rise time keeping the maximum SSN (full LC model)
/// within `budget`, holding everything else fixed.
///
/// With a parasitic `C` the *in-window* maximum is not monotone in `t_r`:
/// an ultrafast edge closes its conduction window before the ground node
/// has charged, so the windowed bounce looks deceptively small even though
/// post-window ringing would be violent. This helper therefore works on
/// the physically meaningful **slow branch**: it locates the worst-case
/// rise time first and then searches toward slower edges, so the returned
/// `t_r` guarantees the budget for *every* rise time at or above it.
///
/// Returns 1 ps (the search floor) when no rise time in
/// `[1 ps, 1 us]` ever violates the budget.
///
/// # Errors
///
/// * [`SsnError::InvalidInput`] when the budget is not a positive finite
///   voltage.
/// * [`SsnError::InvalidScenario`] when the budget is unreachable even at
///   a 1 us rise time.
pub fn required_rise_time(template: &SsnScenario, budget: Volts) -> Result<Seconds, SsnError> {
    required_rise_time_with_report(template, budget).map(|(tr, _)| tr)
}

/// [`required_rise_time`] plus the [`SolveReport`] describing which rung of
/// the `ssn_numeric::solve` fallback ladder produced the root (and how many
/// bracket expansions it needed). A clean run reports `brent` after one
/// rung; a degraded-but-successful run is visible here rather than silent.
///
/// When the budget is so loose that no rise time in range violates it, no
/// root solve happens and the report shows zero rungs tried.
///
/// # Errors
///
/// Same contract as [`required_rise_time`].
pub fn required_rise_time_with_report(
    template: &SsnScenario,
    budget: Volts,
) -> Result<(Seconds, SolveReport), SsnError> {
    validate_budget(budget)?;
    let _span = ssn_telemetry::span("design.rise_time");
    let vn = |tr: f64| -> f64 {
        template
            .with_rise_time(Seconds::new(tr))
            .map(|s| lcmodel::vn_max(&s).0.value())
            .unwrap_or(f64::INFINITY)
    };
    let (t_fast, t_slow) = (1e-12f64, 1e-6f64);
    if vn(t_slow) > budget.value() {
        return Err(SsnError::scenario(format!(
            "budget {budget} unreachable: even tr = 1 us gives {:.3} V",
            vn(t_slow)
        )));
    }
    // Locate the worst-case rise time on a log axis (vn is unimodal in tr:
    // rising while the window limits charging, falling once slew relief
    // dominates).
    let log_peak = {
        let _peak_span = ssn_telemetry::span("design.peak_search");
        golden_section(
            |lg| -vn(10f64.powf(lg)),
            t_fast.log10(),
            t_slow.log10(),
            1e-6,
        )
        .map_err(SsnError::from)?
    };
    let tr_peak = 10f64.powf(log_peak);
    if vn(tr_peak) <= budget.value() {
        // No rise time in range ever violates the budget.
        return Ok((
            Seconds::new(t_fast),
            SolveReport {
                method: "none needed",
                rungs_tried: 0,
                expansions: 0,
            },
        ));
    }
    // The fallback ladder: the first rung is `brent` over the same bracket
    // with the same tolerances as before, so a clean run is bit-identical
    // to the old direct call; a failing rung degrades to bisection.
    let opts = SolveOptions {
        domain: (tr_peak, t_slow),
        disabled_rungs: faults::solver_disabled_rungs(),
        ..SolveOptions::with_root(RootOptions {
            x_tol: 1e-16,
            f_tol: 1e-9,
            max_iter: 200,
        })
    };
    let (root, report) = solve_bracketed(|tr| vn(tr) - budget.value(), tr_peak, t_slow, opts)
        .map_err(SsnError::from)?;
    Ok((Seconds::new(root), report))
}

/// A switching-skew plan: split the bank into groups fired `group_delay`
/// apart so each group's SSN stays within budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaggerPlan {
    /// Number of groups.
    pub groups: usize,
    /// Drivers per group (the last group may be smaller).
    pub group_size: usize,
    /// Recommended delay between group firings: one rise time plus three
    /// L-only time constants, so each transient settles before the next
    /// group switches.
    pub group_delay: Seconds,
    /// Predicted per-group maximum SSN.
    pub vn_max_per_group: Volts,
}

/// Plans the minimal staggering of `template.n_drivers()` drivers so that
/// each group's SSN stays within `budget` (the paper's "reducing N in
/// practice means making the drivers not switch simultaneously").
///
/// # Errors
///
/// Returns [`SsnError::InvalidScenario`] when the budget is not positive or
/// even one driver alone violates it (staggering cannot help then — slow
/// the edge instead, see [`required_rise_time`]).
pub fn stagger_plan(template: &SsnScenario, budget: Volts) -> Result<StaggerPlan, SsnError> {
    let _span = ssn_telemetry::span("design.stagger");
    let per_group_max = max_simultaneous_drivers(template, budget)?;
    if per_group_max == 0 {
        return Err(SsnError::scenario(
            "budget unreachable even for a single driver; reduce slew instead",
        ));
    }
    let total = template.n_drivers();
    let groups = total.div_ceil(per_group_max);
    let group_size = total.div_ceil(groups);
    let sized = template.with_drivers(group_size)?;
    let tau = crate::lmodel::time_constant(&sized);
    Ok(StaggerPlan {
        groups,
        group_size,
        group_delay: template.rise_time() + tau * 3.0,
        vn_max_per_group: lcmodel::vn_max(&sized).0,
    })
}

/// One evaluated point of a design-space grid sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Driver count at this point.
    pub n_drivers: usize,
    /// Ground-path inductance at this point.
    pub inductance: Henrys,
    /// L-only maximum SSN (paper Eqn. 7).
    pub vn_l_only: Volts,
    /// Full LC maximum SSN (paper Table 1).
    pub vn_lc: Volts,
    /// The Table-1 case that produced `vn_lc`.
    pub case: MaxSsnCase,
}

/// Grid points per work-queue chunk; fixed so chunk boundaries (and hence
/// evaluation grouping) never depend on the thread count.
const GRID_CHUNK: usize = 64;

/// Sweeps the `drivers` × `inductances` design grid around `template` on
/// the parallel engine, returning one [`GridPoint`] per `(N, L)` pair in
/// row-major order (`drivers` outer, `inductances` inner) plus run
/// telemetry.
///
/// The evaluation is deterministic: point order and values are identical
/// for every `policy.threads()`.
///
/// Worker panics are isolated per chunk: a poisoned chunk drops only its
/// own points (each [`GridPoint`] names its `(N, L)` pair, so the survivors
/// stay attributable) and is counted in [`ExecStats::failed_chunks`]. The
/// row-major order of the surviving points is preserved.
///
/// # Errors
///
/// * [`SsnError::InvalidInput`] when the grid is empty or any entry is
///   invalid (`N == 0`, non-positive or non-finite `L`) — the grid is
///   validated up front, before any evaluation.
/// * [`SsnError::AllChunksFailed`] when every chunk failed.
pub fn sweep_design_grid(
    template: &SsnScenario,
    drivers: &[usize],
    inductances: &[Henrys],
    policy: &ExecPolicy,
) -> Result<(Vec<GridPoint>, ExecStats), SsnError> {
    sweep_design_grid_durable(
        template,
        drivers,
        inductances,
        policy,
        &DurableOptions::none(),
    )
    .map(|(points, stats, _)| (points, stats))
}

fn validate_grid(drivers: &[usize], inductances: &[Henrys]) -> Result<(), SsnError> {
    if drivers.is_empty() {
        return Err(SsnError::invalid(
            "drivers grid",
            0.0,
            "design grid must be non-empty",
        ));
    }
    if inductances.is_empty() {
        return Err(SsnError::invalid(
            "inductance grid",
            0.0,
            "design grid must be non-empty",
        ));
    }
    if drivers.contains(&0) {
        return Err(SsnError::invalid(
            "drivers grid",
            0.0,
            "every grid point needs at least one driver",
        ));
    }
    if let Some(l) = inductances
        .iter()
        .find(|l| !(l.value() > 0.0) || !l.value().is_finite())
    {
        return Err(SsnError::invalid(
            "inductance grid",
            l.value(),
            "every grid inductance must be positive and finite",
        ));
    }
    Ok(())
}

/// Evaluates one grid chunk in row-major order: a pure function of the
/// grid and the chunk index, so a restored chunk equals a recomputed one.
fn grid_chunk(
    template: &SsnScenario,
    drivers: &[usize],
    inductances: &[Henrys],
    c: usize,
    range: std::ops::Range<usize>,
) -> Result<Vec<GridPoint>, SsnError> {
    faults::maybe_panic_chunk(c);
    ssn_telemetry::add("grid.points", range.len() as u64);
    // Row-major order means `n` is constant across `inductances.len()`
    // consecutive points, so the `with_drivers` rebuild is hoisted behind
    // a one-slot cache. `with_drivers` is deterministic, so reusing its
    // result is bit-identical to recomputing it per point — pinned by the
    // thread-count-invariance test below (chunk boundaries land mid-row).
    let mut sized: Option<(usize, SsnScenario)> = None;
    let mut points = Vec::with_capacity(range.len());
    for i in range {
        let _point_span = ssn_telemetry::span("grid.point");
        let n = drivers[i / inductances.len()];
        let l = inductances[i % inductances.len()];
        let base = match sized.take() {
            Some((cached_n, s)) if cached_n == n => s,
            _ => template.with_drivers(n)?,
        };
        let s = base.with_package(l, template.capacitance())?;
        sized = Some((n, base));
        let (vn_lc, case) = lcmodel::vn_max(&s);
        points.push(GridPoint {
            n_drivers: n,
            inductance: l,
            vn_l_only: crate::lmodel::vn_max(&s),
            vn_lc,
            case,
        });
    }
    Ok(points)
}

/// [`sweep_design_grid`] with durable execution: checkpoint/resume and a
/// run budget (see [`crate::durable`]).
///
/// **Degradation contract:** when the budget expires mid-sweep, the
/// ladder's second step fires — *coarsen grid*: the completed points are
/// returned (row-major order preserved, every point still naming its
/// `(N, L)` pair) and the downgrade is recorded in the returned
/// [`Durability`] and the telemetry stream.
///
/// # Errors
///
/// Everything [`sweep_design_grid`] returns, plus
/// [`SsnError::Checkpoint`], [`SsnError::Interrupted`], and
/// [`SsnError::DeadlineExhausted`] (see [`crate::durable`]).
pub fn sweep_design_grid_durable(
    template: &SsnScenario,
    drivers: &[usize],
    inductances: &[Henrys],
    policy: &ExecPolicy,
    durable: &DurableOptions,
) -> Result<(Vec<GridPoint>, ExecStats, Durability), SsnError> {
    validate_grid(drivers, inductances)?;
    let n_points = drivers.len() * inductances.len();
    let _run_span = ssn_telemetry::span("grid.run");

    let mut d = ParamDigest::new("sweep-grid");
    let a = template.asdm();
    d.push_f64(a.k().value())
        .push_f64(a.sigma())
        .push_f64(a.v0().value())
        .push_f64(template.vdd().value())
        .push_f64(template.capacitance().value())
        .push_f64(template.rise_time().value())
        .push_u64(drivers.len() as u64);
    for &n in drivers {
        d.push_u64(n as u64);
    }
    d.push_u64(inductances.len() as u64);
    for l in inductances {
        d.push_f64(l.value());
    }
    let run_spec = RunSpec {
        kind: "sweep-grid",
        seed: 0,
        params_hash: d.finish(),
        n_items: n_points,
        chunk_size: GRID_CHUNK,
    };

    let run = run_chunked_durable(
        &run_spec,
        policy,
        durable,
        |_, points: &Vec<GridPoint>| {
            let mut w = ByteWriter::new();
            w.put_usize(points.len());
            for p in points {
                w.put_usize(p.n_drivers)
                    .put_f64(p.inductance.value())
                    .put_f64(p.vn_l_only.value())
                    .put_f64(p.vn_lc.value())
                    .put_u8(p.case.code());
            }
            w.into_vec()
        },
        |_, r: &mut ByteReader<'_>| {
            let n = r.take_usize()?;
            (0..n)
                .map(|_| {
                    Ok(GridPoint {
                        n_drivers: r.take_usize()?,
                        inductance: Henrys::new(r.take_f64()?),
                        vn_l_only: Volts::new(r.take_f64()?),
                        vn_lc: Volts::new(r.take_f64()?),
                        case: MaxSsnCase::from_code(r.take_u8()?).ok_or_else(|| {
                            SsnError::checkpoint(
                                "",
                                crate::error::CheckpointErrorKind::Corrupt,
                                "unknown Table-1 case code",
                            )
                        })?,
                    })
                })
                .collect()
        },
        |c, range| grid_chunk(template, drivers, inductances, c, range),
    )?
    .delivered(n_points)?;

    let points: Vec<GridPoint> = run.done().flat_map(|(_, ps)| ps.iter().copied()).collect();
    let mut durability = run.durability;
    if durability.deadline_hit && points.len() < n_points {
        durability.note_degrade(DegradeStep::CoarsenGrid, n_points, points.len());
    }
    Ok((points, run.stats, durability))
}

impl std::fmt::Display for StaggerPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} groups of <= {} drivers, {} apart (per-group Vn_max {})",
            self.groups, self.group_size, self.group_delay, self.vn_max_per_group
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssn_devices::Asdm;
    use ssn_units::{Farads, Henrys, Siemens};

    fn template(n: usize) -> SsnScenario {
        let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
        SsnScenario::from_asdm(asdm, Volts::new(1.8))
            .drivers(n)
            .inductance(Henrys::from_nanos(5.0))
            .capacitance(Farads::from_picos(1.0))
            .rise_time(Seconds::from_nanos(0.5))
            .build()
            .unwrap()
    }

    #[test]
    fn driver_budget_is_tight() {
        let t = template(8);
        let budget = Volts::new(0.5);
        let n = max_simultaneous_drivers(&t, budget).unwrap();
        assert!(n >= 1);
        let at_n = lcmodel::vn_max(&t.with_drivers(n).unwrap()).0;
        let at_n1 = lcmodel::vn_max(&t.with_drivers(n + 1).unwrap()).0;
        assert!(at_n <= budget, "{at_n} > {budget} at N = {n}");
        assert!(at_n1 > budget, "{at_n1} <= {budget} at N = {}", n + 1);
    }

    #[test]
    fn driver_budget_zero_when_unreachable() {
        let t = template(8);
        assert_eq!(max_simultaneous_drivers(&t, Volts::new(1e-6)).unwrap(), 0);
        assert!(max_simultaneous_drivers(&t, Volts::ZERO).is_err());
    }

    #[test]
    fn rise_time_budget_is_tight() {
        let t = template(8);
        let budget = Volts::new(0.4);
        let tr = required_rise_time(&t, budget).unwrap();
        let at = lcmodel::vn_max(&t.with_rise_time(tr).unwrap()).0;
        assert!((at.value() - 0.4).abs() < 1e-6, "vn at solved tr = {at}");
        // Faster violates.
        let faster = lcmodel::vn_max(&t.with_rise_time(tr * 0.8).unwrap()).0;
        assert!(faster > budget);
        assert!(required_rise_time(&t, Volts::ZERO).is_err());
    }

    #[test]
    fn rise_time_report_names_the_clean_rung() {
        let t = template(8);
        let budget = Volts::new(0.4);
        let (tr, report) = required_rise_time_with_report(&t, budget).unwrap();
        assert_eq!(report.method, "brent");
        assert!(report.is_clean(), "clean run degraded: {report}");
        assert_eq!(tr, required_rise_time(&t, budget).unwrap());
    }

    #[test]
    fn non_finite_budgets_are_invalid_inputs() {
        let t = template(8);
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let err = max_simultaneous_drivers(&t, Volts::new(bad)).unwrap_err();
            assert!(
                matches!(err, SsnError::InvalidInput { field, .. } if field == "noise budget"),
                "unexpected error for budget {bad}: {err}"
            );
            assert!(required_rise_time(&t, Volts::new(bad)).is_err());
        }
    }

    #[test]
    fn rise_time_trivial_when_budget_loose() {
        // With C = 0 the supremum over all rise times is (Vdd - V0)/sigma
        // = 0.96 V, so a 1.0 V budget is never violated.
        let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
        let t = SsnScenario::from_asdm(asdm, Volts::new(1.8))
            .drivers(1)
            .inductance(Henrys::from_nanos(5.0))
            .capacitance(Farads::ZERO)
            .rise_time(Seconds::from_nanos(0.5))
            .build()
            .unwrap();
        let tr = required_rise_time(&t, Volts::new(1.0)).unwrap();
        assert!(tr.value() <= 1e-12 * 1.01);
    }

    #[test]
    fn stagger_covers_all_drivers() {
        let t = template(16);
        let plan = stagger_plan(&t, Volts::new(0.45)).unwrap();
        assert!(plan.groups * plan.group_size >= 16);
        assert!(plan.vn_max_per_group <= Volts::new(0.45));
        assert!(plan.group_delay > t.rise_time());
        let text = plan.to_string();
        assert!(text.contains("groups"));
    }

    #[test]
    fn stagger_single_group_when_budget_loose() {
        let t = template(4);
        let plan = stagger_plan(&t, Volts::new(1.5)).unwrap();
        assert_eq!(plan.groups, 1);
        assert_eq!(plan.group_size, 4);
    }

    #[test]
    fn stagger_unreachable_budget_errors() {
        let t = template(8);
        assert!(stagger_plan(&t, Volts::new(1e-9)).is_err());
    }

    #[test]
    fn grid_sweep_covers_the_grid_row_major() {
        let t = template(8);
        let ns = [1usize, 4, 16];
        let ls: Vec<Henrys> = [2.5, 5.0].iter().map(|&l| Henrys::from_nanos(l)).collect();
        let (points, stats) = sweep_design_grid(&t, &ns, &ls, &ExecPolicy::serial()).unwrap();
        assert_eq!(points.len(), 6);
        assert_eq!(stats.items, 6);
        // Row-major: drivers outer, inductances inner.
        assert_eq!(points[0].n_drivers, 1);
        assert_eq!(points[1].n_drivers, 1);
        assert_eq!(points[1].inductance, Henrys::from_nanos(5.0));
        assert_eq!(points[5].n_drivers, 16);
        // Values match a direct evaluation.
        for p in &points {
            let s = t
                .with_drivers(p.n_drivers)
                .unwrap()
                .with_package(p.inductance, t.capacitance())
                .unwrap();
            assert_eq!(p.vn_lc, lcmodel::vn_max(&s).0);
            assert_eq!(p.case, lcmodel::vn_max(&s).1);
            assert_eq!(p.vn_l_only, crate::lmodel::vn_max(&s));
        }
    }

    #[test]
    fn grid_sweep_is_thread_count_invariant() {
        let t = template(8);
        let ns: Vec<usize> = (1..=40).collect();
        let ls: Vec<Henrys> = (1..=10).map(|l| Henrys::from_nanos(l as f64)).collect();
        let (serial, _) = sweep_design_grid(&t, &ns, &ls, &ExecPolicy::serial()).unwrap();
        // GRID_CHUNK (64) is not a multiple of the row length (10), so
        // chunk starts land mid-row and the per-chunk `with_drivers`
        // cache starts cold at misaligned points — exactly the hoist this
        // test pins as bit-identical across thread counts.
        for threads in [2, 4, 8] {
            let (par, _) =
                sweep_design_grid(&t, &ns, &ls, &ExecPolicy::with_threads(threads)).unwrap();
            assert_eq!(serial, par, "thread count {threads} changed the grid");
        }
    }

    #[test]
    fn grid_sweep_rejects_empty_and_invalid_grids() {
        let t = template(8);
        assert!(
            sweep_design_grid(&t, &[], &[Henrys::from_nanos(5.0)], &ExecPolicy::serial()).is_err()
        );
        assert!(sweep_design_grid(&t, &[1], &[], &ExecPolicy::serial()).is_err());
        // An invalid point inside the grid surfaces as an error, not a skip.
        assert!(
            sweep_design_grid(&t, &[0], &[Henrys::from_nanos(5.0)], &ExecPolicy::serial()).is_err()
        );
    }
}
