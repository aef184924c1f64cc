//! Inverse design over the `(N, L, C, tr)` space: a durable coarse-to-fine
//! grid search emitting a Pareto front of (noise, cost, speed).
//!
//! The paper's closed forms answer point questions ("how much bounce for
//! this bank?"); this module turns them around ("which banks are worth
//! building?"). Every grid point scores three objectives, all minimized:
//!
//! * **noise** — the LC Table-1 maximum SSN `Vn_lc` (volts);
//! * **cost** — a package-cost figure [`package_cost`]: low-inductance
//!   packages (finer pitch, more ground pins) and on-package decap both
//!   cost money, so `cost = L_REF/L + C/C_REF`;
//! * **speed** — the per-driver switching time [`speed_figure`]
//!   `tr / N` (seconds): faster edges and wider banks are both "fast".
//!
//! [`search`] runs a coarse-to-fine refinement over the `(N, L)` axes
//! (exhaustive over `(C, tr)` slabs) that is **exact**: its [`ParetoFront`]
//! is identical to the one exhaustive enumeration produces, while skipping
//! the evaluation of points it can prove off the front. The proof leans on
//! the model monotonicity pinned by `tests/properties.rs` — `Vn_max` is
//! nondecreasing in `N` and in `L` — so an evaluated coarse-lattice corner
//! lower-bounds the noise of every finer point above-and-right of it in
//! its `(C, tr)` slab. A point is skipped only when that bound already
//! proves it infeasible (over the `max_noise_frac` cap) or strictly
//! dominated by a feasible evaluated point. The bound carries a small
//! slack ([`BOUND_SLACK_REL`]) so few-ULP float wobble in the monotonicity
//! cannot evict a true front member; `tests/optimize_differential.rs`
//! enforces the exactness contract against brute-force enumeration on a
//! seeded corpus.
//!
//! Determinism contract: the search result — front membership, canonical
//! order, and every evaluation/prune count — is a pure function of the
//! template, space, and options. Refinement levels are evaluated on the
//! chunked parallel engine (fixed chunk size, skip decisions frozen at
//! level boundaries), so the outcome is bit-identical at any thread count
//! and across kill→resume of the per-level checkpoint journals
//! (`<path>.lv0`, `<path>.lv1`, …).

use crate::durable::{
    fnv1a64, run_chunked_durable, ByteReader, ByteWriter, DegradeStep, Durability, DurableOptions,
    ParamDigest, RunSpec,
};
use crate::error::SsnError;
use crate::lcmodel::{self, MaxSsnCase};
use crate::lmodel;
use crate::parallel::{try_run_chunked, ExecPolicy, ExecStats};
use crate::scenario::SsnScenario;
use ssn_units::{Farads, Henrys, Seconds, Volts};
use std::path::PathBuf;
use std::time::Duration;

/// Reference inductance of the package-cost figure: a 10 nH path (a cheap
/// wire-bond pin) costs 1.0 cost unit; halving `L` doubles that term.
pub const L_COST_REF: f64 = 10e-9;

/// Reference capacitance of the package-cost figure: 10 pF of on-package
/// decap costs 1.0 cost unit, linearly.
pub const C_COST_REF: f64 = 10e-12;

/// Relative slack subtracted from every monotonicity-derived noise lower
/// bound. The closed forms are analytically monotone in `N` and `L`; the
/// slack keeps the refinement conservative against few-ULP float wobble so
/// the exactness contract cannot be lost to rounding.
pub const BOUND_SLACK_REL: f64 = 1e-9;

/// Absolute counterpart of [`BOUND_SLACK_REL`] (volts).
pub const BOUND_SLACK_ABS: f64 = 1e-15;

/// Grid points per work-queue chunk; fixed so chunk boundaries (and hence
/// the checkpoint journal layout) never depend on the thread count.
const OPT_CHUNK: usize = 64;

/// The package-cost objective: `L_REF/L + C/C_REF`, minimized. A worse
/// (larger) inductance is cheaper; more decap is dearer.
pub fn package_cost(l: Henrys, c: Farads) -> f64 {
    L_COST_REF / l.value() + c.value() / C_COST_REF
}

/// The speed objective: per-driver switching time `tr / N` in seconds,
/// minimized — faster edges and wider simultaneous banks both improve it.
pub fn speed_figure(n_drivers: usize, tr: Seconds) -> f64 {
    tr.value() / n_drivers as f64
}

/// Which objectives participate in Pareto dominance. Noise always does;
/// dropping an axis answers narrower inverse questions (and prunes more).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveSet {
    /// noise + cost + speed (the default).
    NoiseCostSpeed,
    /// noise + cost.
    NoiseCost,
    /// noise + speed.
    NoiseSpeed,
}

impl ObjectiveSet {
    /// Parses the CLI/server spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "noise-cost-speed" => Some(Self::NoiseCostSpeed),
            "noise-cost" => Some(Self::NoiseCost),
            "noise-speed" => Some(Self::NoiseSpeed),
            _ => None,
        }
    }

    /// The canonical spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::NoiseCostSpeed => "noise-cost-speed",
            Self::NoiseCost => "noise-cost",
            Self::NoiseSpeed => "noise-speed",
        }
    }

    /// Stable code for digests.
    pub fn code(self) -> u8 {
        match self {
            Self::NoiseCostSpeed => 0,
            Self::NoiseCost => 1,
            Self::NoiseSpeed => 2,
        }
    }

    fn uses_cost(self) -> bool {
        !matches!(self, Self::NoiseSpeed)
    }

    fn uses_speed(self) -> bool {
        !matches!(self, Self::NoiseCost)
    }
}

/// The four grid axes of a search. `drivers` and `inductances` must be
/// strictly increasing (the refinement's noise bounds lean on model
/// monotonicity along those axes); `capacitances` and `rise_times` must be
/// strictly increasing too, purely so a point's provenance indices are
/// unambiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Driver-count axis (strictly increasing, no zeros).
    pub drivers: Vec<usize>,
    /// Ground-path inductance axis (strictly increasing, positive).
    pub inductances: Vec<Henrys>,
    /// Ground-path capacitance axis (strictly increasing, non-negative).
    pub capacitances: Vec<Farads>,
    /// Input rise-time axis (strictly increasing, positive).
    pub rise_times: Vec<Seconds>,
}

impl DesignSpace {
    /// Total number of grid points.
    pub fn total_points(&self) -> usize {
        self.drivers.len()
            * self.inductances.len()
            * self.capacitances.len()
            * self.rise_times.len()
    }

    /// Builds the default CLI/server space around a template: drivers
    /// `1..=max_drivers`, and geometric `L`/`C`/`tr` axes of `l_points` /
    /// `c_points` / `tr_points` values covering
    /// `[x / sqrt(span), x * sqrt(span)]` around the template's value
    /// (a single-point axis is the template value exactly).
    ///
    /// # Errors
    ///
    /// [`SsnError::InvalidInput`] for a zero driver count or axis size, a
    /// non-finite or `<= 1` span, or a multi-point `C` axis around a zero
    /// template capacitance (nothing to span geometrically).
    pub fn around(
        template: &SsnScenario,
        max_drivers: usize,
        l_points: usize,
        c_points: usize,
        tr_points: usize,
        span: f64,
    ) -> Result<Self, SsnError> {
        if max_drivers == 0 {
            return Err(SsnError::invalid(
                "max drivers",
                0.0,
                "the drivers axis needs at least one driver",
            ));
        }
        if !(span > 1.0) || !span.is_finite() {
            return Err(SsnError::invalid(
                "span",
                span,
                "the geometric axis span must be finite and > 1",
            ));
        }
        if c_points > 1 && template.capacitance().value() == 0.0 {
            return Err(SsnError::invalid(
                "capacitance points",
                c_points as f64,
                "a multi-point C axis needs a positive template capacitance",
            ));
        }
        let space = Self {
            drivers: (1..=max_drivers).collect(),
            inductances: geometric_axis(template.inductance().value(), l_points, span)?
                .into_iter()
                .map(Henrys::new)
                .collect(),
            capacitances: geometric_axis(template.capacitance().value(), c_points, span)?
                .into_iter()
                .map(Farads::new)
                .collect(),
            rise_times: geometric_axis(template.rise_time().value(), tr_points, span)?
                .into_iter()
                .map(Seconds::new)
                .collect(),
        };
        space.validate()?;
        Ok(space)
    }

    /// Validates every axis (see the type-level invariants).
    ///
    /// # Errors
    ///
    /// [`SsnError::InvalidInput`] naming the offending axis.
    pub fn validate(&self) -> Result<(), SsnError> {
        let axes: [(&str, usize); 4] = [
            ("drivers axis", self.drivers.len()),
            ("inductance axis", self.inductances.len()),
            ("capacitance axis", self.capacitances.len()),
            ("rise-time axis", self.rise_times.len()),
        ];
        for (name, len) in axes {
            if len == 0 {
                return Err(SsnError::invalid(
                    name,
                    0.0,
                    "design axis must be non-empty",
                ));
            }
        }
        if self.drivers.contains(&0) {
            return Err(SsnError::invalid(
                "drivers axis",
                0.0,
                "every grid point needs at least one driver",
            ));
        }
        if self.drivers.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SsnError::invalid(
                "drivers axis",
                self.drivers.len() as f64,
                "axis must be strictly increasing",
            ));
        }
        check_axis_values(
            "inductance axis",
            self.inductances.iter().map(|v| v.value()),
            false,
        )?;
        check_axis_values(
            "capacitance axis",
            self.capacitances.iter().map(|v| v.value()),
            true,
        )?;
        check_axis_values(
            "rise-time axis",
            self.rise_times.iter().map(|v| v.value()),
            false,
        )?;
        Ok(())
    }

    fn dims(&self) -> [usize; 4] {
        [
            self.drivers.len(),
            self.inductances.len(),
            self.capacitances.len(),
            self.rise_times.len(),
        ]
    }

    /// Flat row-major index of `(n_idx, l_idx, c_idx, tr_idx)`.
    fn flat(&self, n: usize, l: usize, c: usize, t: usize) -> usize {
        ((n * self.inductances.len() + l) * self.capacitances.len() + c) * self.rise_times.len() + t
    }

    /// Inverse of [`DesignSpace::flat`].
    fn unflat(&self, i: usize) -> (usize, usize, usize, usize) {
        let dt = self.rise_times.len();
        let dc = self.capacitances.len();
        let dl = self.inductances.len();
        let t = i % dt;
        let c = (i / dt) % dc;
        let l = (i / (dt * dc)) % dl;
        let n = i / (dt * dc * dl);
        (n, l, c, t)
    }

    fn digest_into(&self, d: &mut ParamDigest) {
        d.push_u64(self.drivers.len() as u64);
        for &n in &self.drivers {
            d.push_u64(n as u64);
        }
        d.push_u64(self.inductances.len() as u64);
        for l in &self.inductances {
            d.push_f64(l.value());
        }
        d.push_u64(self.capacitances.len() as u64);
        for c in &self.capacitances {
            d.push_f64(c.value());
        }
        d.push_u64(self.rise_times.len() as u64);
        for t in &self.rise_times {
            d.push_f64(t.value());
        }
    }
}

fn check_axis_values(
    name: &'static str,
    values: impl Iterator<Item = f64>,
    allow_zero: bool,
) -> Result<(), SsnError> {
    let mut prev: Option<f64> = None;
    for v in values {
        let ok = v.is_finite() && if allow_zero { v >= 0.0 } else { v > 0.0 };
        if !ok {
            return Err(SsnError::invalid(
                name,
                v,
                if allow_zero {
                    "axis values must be non-negative and finite"
                } else {
                    "axis values must be positive and finite"
                },
            ));
        }
        if let Some(p) = prev {
            if !(v > p) {
                return Err(SsnError::invalid(
                    name,
                    v,
                    "axis must be strictly increasing",
                ));
            }
        }
        prev = Some(v);
    }
    Ok(())
}

/// `points` geometric values covering `[center/sqrt(span), center*sqrt(span)]`
/// (one point: the center itself; a zero center is only valid single-point).
fn geometric_axis(center: f64, points: usize, span: f64) -> Result<Vec<f64>, SsnError> {
    if points == 0 {
        return Err(SsnError::invalid(
            "axis points",
            0.0,
            "design axis must be non-empty",
        ));
    }
    if points == 1 {
        return Ok(vec![center]);
    }
    let half = span.sqrt();
    Ok((0..points)
        .map(|i| {
            let frac = i as f64 / (points - 1) as f64; // 0..=1
            center / half * half.powf(2.0 * frac)
        })
        .collect())
}

/// Search options beyond the grid itself.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOptions {
    /// Which objectives participate in dominance.
    pub objectives: ObjectiveSet,
    /// Feasibility cap: keep only points with `Vn_lc <= frac * Vdd`.
    /// `None` admits every point.
    pub max_noise_frac: Option<f64>,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        Self {
            objectives: ObjectiveSet::NoiseCostSpeed,
            max_noise_frac: None,
        }
    }
}

impl OptimizeOptions {
    fn cap(&self, template: &SsnScenario) -> Option<f64> {
        self.max_noise_frac.map(|f| f * template.vdd().value())
    }

    fn validate(&self) -> Result<(), SsnError> {
        if let Some(f) = self.max_noise_frac {
            if !(f > 0.0) || !f.is_finite() {
                return Err(SsnError::invalid(
                    "max noise frac",
                    f,
                    "the noise cap must be a positive finite fraction of Vdd",
                ));
            }
        }
        Ok(())
    }
}

/// One evaluated design point with full provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Index into [`DesignSpace::drivers`].
    pub n_idx: usize,
    /// Index into [`DesignSpace::inductances`].
    pub l_idx: usize,
    /// Index into [`DesignSpace::capacitances`].
    pub c_idx: usize,
    /// Index into [`DesignSpace::rise_times`].
    pub tr_idx: usize,
    /// Driver count at this point.
    pub n_drivers: usize,
    /// Ground-path inductance at this point.
    pub inductance: Henrys,
    /// Ground-path capacitance at this point.
    pub capacitance: Farads,
    /// Input rise time at this point.
    pub rise_time: Seconds,
    /// L-only maximum SSN (paper Eqn. 7), for provenance.
    pub vn_l_only: Volts,
    /// The noise objective: full LC maximum SSN (paper Table 1).
    pub vn_lc: Volts,
    /// The Table-1 case that produced `vn_lc`.
    pub case: MaxSsnCase,
    /// The cost objective ([`package_cost`]).
    pub cost: f64,
    /// The speed objective ([`speed_figure`]).
    pub speed: f64,
    /// Refinement level that evaluated this point (0 = coarsest lattice;
    /// exhaustive enumeration reports 0 for every point).
    pub level: u32,
}

impl DesignPoint {
    /// Equality on everything except the refinement-level provenance —
    /// the comparison the enumeration-differential harness uses (the
    /// search and brute force legitimately evaluate a point at different
    /// levels). Objective values compare bit-exactly.
    pub fn same_point(&self, other: &Self) -> bool {
        self.n_idx == other.n_idx
            && self.l_idx == other.l_idx
            && self.c_idx == other.c_idx
            && self.tr_idx == other.tr_idx
            && self.n_drivers == other.n_drivers
            && self.inductance.value().to_bits() == other.inductance.value().to_bits()
            && self.capacitance.value().to_bits() == other.capacitance.value().to_bits()
            && self.rise_time.value().to_bits() == other.rise_time.value().to_bits()
            && self.vn_l_only.value().to_bits() == other.vn_l_only.value().to_bits()
            && self.vn_lc.value().to_bits() == other.vn_lc.value().to_bits()
            && self.case == other.case
            && self.cost.to_bits() == other.cost.to_bits()
            && self.speed.to_bits() == other.speed.to_bits()
    }
}

/// `true` when `a` Pareto-dominates `b` under `objectives`: no worse on
/// every included objective, strictly better on at least one.
pub fn dominates(a: &DesignPoint, b: &DesignPoint, objectives: ObjectiveSet) -> bool {
    let mut strict = false;
    let pairs = [
        (true, a.vn_lc.value(), b.vn_lc.value()),
        (objectives.uses_cost(), a.cost, b.cost),
        (objectives.uses_speed(), a.speed, b.speed),
    ];
    for (included, va, vb) in pairs {
        if !included {
            continue;
        }
        if va > vb {
            return false;
        }
        if va < vb {
            strict = true;
        }
    }
    strict
}

/// The pinned canonical total order of front members: ascending noise,
/// then cost, then speed (all via `f64::total_cmp`), then the axis
/// indices `(n, l, c, tr)`. Two distinct grid points never tie (the index
/// tuple is unique), so the order — and therefore every rendered front —
/// is deterministic byte for byte.
pub fn canonical_order(a: &DesignPoint, b: &DesignPoint) -> std::cmp::Ordering {
    a.vn_lc
        .value()
        .total_cmp(&b.vn_lc.value())
        .then_with(|| a.cost.total_cmp(&b.cost))
        .then_with(|| a.speed.total_cmp(&b.speed))
        .then_with(|| a.n_idx.cmp(&b.n_idx))
        .then_with(|| a.l_idx.cmp(&b.l_idx))
        .then_with(|| a.c_idx.cmp(&b.c_idx))
        .then_with(|| a.tr_idx.cmp(&b.tr_idx))
}

/// The set of mutually non-dominated feasible points, kept in the
/// canonical order (see [`canonical_order`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFront {
    objectives: ObjectiveSet,
    members: Vec<DesignPoint>,
}

impl ParetoFront {
    /// An empty front under `objectives`.
    pub fn new(objectives: ObjectiveSet) -> Self {
        Self {
            objectives,
            members: Vec::new(),
        }
    }

    /// The dominance objectives this front was built under.
    pub fn objectives(&self) -> ObjectiveSet {
        self.objectives
    }

    /// The members in canonical order.
    pub fn members(&self) -> &[DesignPoint] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the front has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Offers `p` to the front: rejected if dominated by a member,
    /// otherwise inserted (evicting members it dominates). The final
    /// membership is independent of insertion order; [`ParetoFront::seal`]
    /// restores the canonical order after a batch of inserts.
    pub fn insert(&mut self, p: DesignPoint) -> bool {
        if self
            .members
            .iter()
            .any(|q| dominates(q, &p, self.objectives))
        {
            return false;
        }
        self.members.retain(|q| !dominates(&p, q, self.objectives));
        self.members.push(p);
        true
    }

    /// Sorts the members into the canonical order.
    pub fn seal(&mut self) {
        self.members.sort_unstable_by(canonical_order);
    }

    /// The noise-minimal member (the canonical first element once sealed).
    pub fn min_noise(&self) -> Option<Volts> {
        self.members
            .iter()
            .map(|p| p.vn_lc.value())
            .min_by(f64::total_cmp)
            .map(Volts::new)
    }

    /// Membership equality modulo each point's refinement-level
    /// provenance — the enumeration-differential comparison. Both fronts
    /// must be sealed.
    pub fn same_front(&self, other: &Self) -> bool {
        self.objectives == other.objectives
            && self.members.len() == other.members.len()
            && self
                .members
                .iter()
                .zip(&other.members)
                .all(|(a, b)| a.same_point(b))
    }
}

/// What a search (or enumeration) produced, beyond the front itself.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOutcome {
    /// The Pareto front, sealed into canonical order.
    pub front: ParetoFront,
    /// Grid size `|N| * |L| * |C| * |tr|`.
    pub total_points: usize,
    /// Points actually run through the models.
    pub evaluated: usize,
    /// Points skipped because their noise lower bound already exceeded
    /// the feasibility cap.
    pub pruned_infeasible: usize,
    /// Points skipped because a feasible evaluated point provably
    /// dominates them through their noise lower bound.
    pub pruned_dominated: usize,
    /// Points evaluated and then discarded as over the cap.
    pub over_cap: usize,
    /// Refinement levels executed (enumeration reports 1).
    pub levels: u32,
}

/// One evaluated chunk entry of a refinement level (journal payload).
struct EvalOut {
    flat: usize,
    vn_l_only: f64,
    vn_lc: f64,
    case: MaxSsnCase,
}

/// Evaluates the survivors slice `range` of one chunk. Shared by the
/// search and the enumeration reference — both must produce identical
/// results for the resume and exactness invariants to hold.
fn eval_chunk(
    template: &SsnScenario,
    space: &DesignSpace,
    survivors: &[usize],
    chunk: usize,
    range: std::ops::Range<usize>,
) -> Result<Vec<EvalOut>, SsnError> {
    crate::faults::maybe_panic_chunk(chunk);
    ssn_telemetry::add("opt.points", range.len() as u64);
    // Survivors are in ascending flat (row-major) order, so `n` is
    // constant across long stretches; hoist the `with_drivers` rebuild
    // behind a one-slot cache exactly like the grid sweep does.
    let mut sized: Option<(usize, SsnScenario)> = None;
    let mut out = Vec::with_capacity(range.len());
    for i in range {
        let flat = survivors[i];
        let (ni, li, ci, ti) = space.unflat(flat);
        let n = space.drivers[ni];
        let base = match sized.take() {
            Some((cached_n, s)) if cached_n == n => s,
            _ => template.with_drivers(n)?,
        };
        let s = base
            .with_package(space.inductances[li], space.capacitances[ci])?
            .with_rise_time(space.rise_times[ti])?;
        sized = Some((n, base));
        let (vn_lc, case) = lcmodel::vn_max(&s);
        out.push(EvalOut {
            flat,
            vn_l_only: lmodel::vn_max(&s).value(),
            vn_lc: vn_lc.value(),
            case,
        });
    }
    Ok(out)
}

fn encode_chunk(_: usize, points: &Vec<EvalOut>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(points.len());
    for p in points {
        w.put_usize(p.flat)
            .put_f64(p.vn_l_only)
            .put_f64(p.vn_lc)
            .put_u8(p.case.code());
    }
    w.into_vec()
}

fn decode_chunk(_: usize, r: &mut ByteReader<'_>) -> Result<Vec<EvalOut>, SsnError> {
    let n = r.take_usize()?;
    (0..n)
        .map(|_| {
            Ok(EvalOut {
                flat: r.take_usize()?,
                vn_l_only: r.take_f64()?,
                vn_lc: r.take_f64()?,
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
}

fn make_point(space: &DesignSpace, e: &EvalOut, level: u32) -> DesignPoint {
    let (ni, li, ci, ti) = space.unflat(e.flat);
    DesignPoint {
        n_idx: ni,
        l_idx: li,
        c_idx: ci,
        tr_idx: ti,
        n_drivers: space.drivers[ni],
        inductance: space.inductances[li],
        capacitance: space.capacitances[ci],
        rise_time: space.rise_times[ti],
        vn_l_only: Volts::new(e.vn_l_only),
        vn_lc: Volts::new(e.vn_lc),
        case: e.case,
        cost: package_cost(space.inductances[li], space.capacitances[ci]),
        speed: speed_figure(space.drivers[ni], space.rise_times[ti]),
        level,
    }
}

fn merge_stats(total: &mut ExecStats, level: &ExecStats) {
    total.wall += level.wall;
    total.busy += level.busy;
    total.threads = total.threads.max(level.threads);
    total.items += level.items;
    total.chunks += level.chunks;
    total.failed_chunks += level.failed_chunks;
    total.retried_chunks += level.retried_chunks;
    total.sched_wait += level.sched_wait;
    total.checkpointed_chunks += level.checkpointed_chunks;
    total.elapsed_wall += level.elapsed_wall;
}

fn zero_stats(policy: &ExecPolicy) -> ExecStats {
    ExecStats {
        wall: Duration::ZERO,
        busy: Duration::ZERO,
        threads: policy.threads(),
        items: 0,
        chunks: 0,
        failed_chunks: 0,
        retried_chunks: 0,
        sched_wait: Duration::ZERO,
        checkpointed_chunks: 0,
        elapsed_wall: Duration::ZERO,
    }
}

/// The params digest shared by every level of a search (the per-level
/// digest appends the level number and its survivor list).
fn base_digest(template: &SsnScenario, space: &DesignSpace, opts: &OptimizeOptions) -> ParamDigest {
    let mut d = ParamDigest::new("optimize");
    let a = template.asdm();
    d.push_f64(a.k().value())
        .push_f64(a.sigma())
        .push_f64(a.v0().value())
        .push_f64(template.vdd().value())
        .push_u64(u64::from(opts.objectives.code()));
    match opts.max_noise_frac {
        Some(f) => d.push_u64(1).push_f64(f),
        None => d.push_u64(0),
    };
    space.digest_into(&mut d);
    d
}

/// Coarse-to-fine Pareto search (see the module docs for the policy and
/// its exactness argument). Deterministic at any `policy.threads()`.
///
/// # Errors
///
/// * [`SsnError::InvalidInput`] for an invalid space or options — checked
///   up front, before any evaluation.
/// * [`SsnError::AllChunksFailed`] when every chunk of a level failed.
pub fn search(
    template: &SsnScenario,
    space: &DesignSpace,
    opts: &OptimizeOptions,
    policy: &ExecPolicy,
) -> Result<(OptimizeOutcome, ExecStats), SsnError> {
    let (outcome, stats, _durability) =
        search_durable(template, space, opts, policy, &DurableOptions::none())?;
    Ok((outcome, stats))
}

/// [`search`] with durable execution: per-level checkpoint journals
/// (`<path>.lv<k>`) and a shared run budget.
///
/// **Degradation contract:** when the budget expires mid-search, the
/// *coarsen grid* ladder step fires — refinement stops at the current
/// level, the front over the points evaluated so far is returned (still
/// internally non-dominated and canonically ordered, but no longer
/// guaranteed equal to the exhaustive front), and the downgrade is
/// recorded in the returned [`Durability`] and the telemetry stream.
///
/// # Errors
///
/// Everything [`search`] returns, plus [`SsnError::Checkpoint`],
/// [`SsnError::Interrupted`], and [`SsnError::DeadlineExhausted`] (see
/// [`crate::durable`]).
pub fn search_durable(
    template: &SsnScenario,
    space: &DesignSpace,
    opts: &OptimizeOptions,
    policy: &ExecPolicy,
    durable: &DurableOptions,
) -> Result<(OptimizeOutcome, ExecStats, Durability), SsnError> {
    space.validate()?;
    opts.validate()?;
    let total_points = space.total_points();
    let cap = opts.cap(template);
    let [dn, dl, _dc, _dt] = space.dims();

    // Coarse-to-fine over (N, L) only: those are the axes with the pinned
    // monotone structure, and keeping every (C, tr) slab present from
    // level 0 guarantees every finer point has a same-slab evaluated (or
    // bounded) corner to lower-bound its noise.
    let max_nl = dn.max(dl);
    let m_max: u32 = if max_nl <= 1 {
        0
    } else {
        (usize::BITS - 1) - ((max_nl - 1).leading_zeros())
    };

    // Per-point noise bound: noise for evaluated points, the inherited
    // conservative lower bound for pruned ones, NAN for unvisited.
    let mut bounds = vec![f64::NAN; total_points];
    let mut front = ParetoFront::new(opts.objectives);
    let mut table = DominanceTable::new(space, opts.objectives);
    let mut stats = zero_stats(policy);
    let mut durability = Durability::default();
    let mut evaluated = 0usize;
    let mut pruned_infeasible = 0usize;
    let mut pruned_dominated = 0usize;
    let mut over_cap = 0usize;
    let mut levels_run = 0u32;
    let mut deadline_stop = false;
    // Chunks the finished levels' journals hold, and chunks they planned:
    // an injected crash counts commits per level journal, so its error
    // adds these to name the whole journal family.
    let mut family_committed = 0usize;
    let mut family_chunks = 0usize;

    for m in (0..=m_max).rev() {
        let level: u32 = m_max - m;
        let stride = 1usize << m;
        let _level_span = ssn_telemetry::span("opt.refine");

        // Candidate selection and skip decisions are serial and use only
        // state frozen at the previous level boundary, so the survivor
        // list (and with it the level's RunSpec) is deterministic.
        let mut survivors: Vec<usize> = Vec::new();
        for ni in (0..dn).step_by(stride) {
            for li in (0..dl).step_by(stride) {
                let new_at_level = m == m_max || ni % (stride * 2) != 0 || li % (stride * 2) != 0;
                if !new_at_level {
                    continue;
                }
                let corner = if m < m_max {
                    let parent = stride * 2;
                    Some((ni - ni % parent, li - li % parent))
                } else {
                    None
                };
                for ci in 0..space.capacitances.len() {
                    for ti in 0..space.rise_times.len() {
                        let flat = space.flat(ni, li, ci, ti);
                        let lb = corner.map(|(cn, cl)| {
                            let b = bounds[space.flat(cn, cl, ci, ti)];
                            debug_assert!(!b.is_nan(), "corner must be visited");
                            b * (1.0 - BOUND_SLACK_REL) - BOUND_SLACK_ABS
                        });
                        if let Some(lb) = lb {
                            if cap.is_some_and(|cap| lb > cap) {
                                pruned_infeasible += 1;
                                bounds[flat] = lb;
                                continue;
                            }
                            if table.dominated(table.cell((ni, li, ci, ti)), lb) {
                                pruned_dominated += 1;
                                bounds[flat] = lb;
                                continue;
                            }
                        }
                        survivors.push(flat);
                    }
                }
            }
        }
        ssn_telemetry::add("opt.level.candidates", survivors.len() as u64);
        if survivors.is_empty() {
            continue;
        }

        let mut d = base_digest(template, space, opts);
        d.push_u64(u64::from(level));
        d.push_u64(survivors.len() as u64);
        let mut sd = ByteWriter::new();
        for &s in &survivors {
            sd.put_usize(s);
        }
        d.push_u64(fnv1a64(&sd.into_vec()));
        let spec = RunSpec {
            kind: "optimize",
            seed: 0,
            params_hash: d.finish(),
            n_items: survivors.len(),
            chunk_size: OPT_CHUNK,
        };
        let level_durable = DurableOptions {
            checkpoint: durable
                .checkpoint
                .as_ref()
                .map(|p| level_journal_path(p, level)),
            resume: durable.resume,
            budget: durable.budget.clone(),
        };
        let run = run_chunked_durable(
            &spec,
            policy,
            &level_durable,
            encode_chunk,
            decode_chunk,
            |c, range| eval_chunk(template, space, &survivors, c, range),
        )
        .map_err(|e| match e {
            SsnError::Interrupted {
                committed_chunks,
                total_chunks,
            } => SsnError::Interrupted {
                committed_chunks: family_committed + committed_chunks,
                total_chunks: family_chunks + total_chunks,
            },
            e => e,
        })?;
        family_committed += run.done().count();
        family_chunks += spec.n_chunks();
        // A level fails only when it evaluated nothing and some chunk
        // failed; a level the budget skipped whole ends the search below.
        let run = if run.stats.failed_chunks > 0 {
            run.delivered(spec.n_items)?
        } else {
            run
        };
        levels_run = level + 1;
        merge_stats(&mut stats, &run.stats);
        durability.resumed_chunks += run.durability.resumed_chunks;
        durability.deadline_hit |= run.durability.deadline_hit;
        durability
            .degradation
            .extend_from_slice(&run.durability.degradation);

        let mut level_evaluated = 0usize;
        let feasible = |e: &&EvalOut| !cap.is_some_and(|cap| e.vn_lc > cap);
        for e in run.done().flat_map(|(_, points)| points) {
            bounds[e.flat] = e.vn_lc;
            level_evaluated += 1;
            if !feasible(&e) {
                over_cap += 1;
            }
        }
        let done = run.done().flat_map(|(_, points)| points);
        table.merge(&mut front, space, level, done.filter(feasible));
        evaluated += level_evaluated;
        ssn_telemetry::add("opt.evaluated", level_evaluated as u64);
        // A failed chunk leaves its corner bounds unvisited; descendants
        // of those corners simply evaluate unconditionally (NaN bounds are
        // never produced for pruning because a pruned point inherits a
        // numeric bound and an evaluated one stores its noise). To keep
        // the invariant "every stride-2s corner is visited", backfill a
        // conservative zero bound for the lost points.
        if run.stats.failed_chunks > 0 {
            for i in bounds.iter_mut() {
                // Only the lost points of *this* level are NaN among the
                // lattice; zero is a sound (vacuous) lower bound.
                if i.is_nan() {
                    *i = 0.0;
                }
            }
        }
        if run.durability.deadline_hit {
            deadline_stop = true;
            break;
        }
    }

    if evaluated == 0 {
        if deadline_stop {
            return Err(SsnError::DeadlineExhausted {
                completed_items: 0,
                planned_items: total_points,
            });
        }
        // An empty, never-degraded search means an empty space upstream —
        // unreachable past validation — or every level pruned to nothing,
        // impossible because level 0 has no bounds and always evaluates.
        return Err(SsnError::AllChunksFailed {
            failed: 0,
            total: 0,
            first_cause: "search evaluated no points".into(),
        });
    }
    if deadline_stop {
        durability.note_degrade(DegradeStep::CoarsenGrid, total_points, evaluated);
    }

    {
        let _front_span = ssn_telemetry::span("opt.front");
        front.seal();
        ssn_telemetry::add("opt.front.members", front.len() as u64);
        ssn_telemetry::add("opt.pruned.infeasible", pruned_infeasible as u64);
        ssn_telemetry::add("opt.pruned.dominated", pruned_dominated as u64);
    }

    Ok((
        OptimizeOutcome {
            front,
            total_points,
            evaluated,
            pruned_infeasible,
            pruned_dominated,
            over_cap,
            levels: levels_run,
        },
        stats,
        durability,
    ))
}

/// The journal path of refinement level `level` under base path `p`.
pub fn level_journal_path(p: &std::path::Path, level: u32) -> PathBuf {
    PathBuf::from(format!("{}.lv{level}", p.display()))
}

/// Constant-time dominance queries against every feasible point a search
/// has evaluated (DESIGN.md §14.1). Cost depends only on `(L, C)` and speed
/// only on `(N, tr)`, so each grid point sits in a cell `(cost rank, speed
/// rank)` over the grid's distinct cost and speed values; an objective left
/// out of the [`ObjectiveSet`] collapses to a single rank. Once sealed, a
/// cell holds the minimum noise over every added point at or below it in
/// both ranks, so a dominance test is three lookups making the same
/// `<`/`<=` comparisons [`dominates`] makes.
struct DominanceTable {
    /// Cost rank of each `(l, c)` pair, indexed `l * |C| + c`.
    cost_rank: Vec<usize>,
    /// Speed rank of each `(n, tr)` pair, indexed `n * |tr| + tr`.
    speed_rank: Vec<usize>,
    c_len: usize,
    tr_len: usize,
    /// Distinct speed ranks: the row length of `min_noise`.
    speeds: usize,
    /// Minimum noise per cell, one row per cost rank; NaN while empty
    /// (`f64::min` skips NaN, and every comparison with it is false).
    min_noise: Vec<f64>,
}

impl DominanceTable {
    fn new(space: &DesignSpace, objectives: ObjectiveSet) -> Self {
        let cost: Vec<f64> = space
            .inductances
            .iter()
            .flat_map(|&l| space.capacitances.iter().map(move |&c| package_cost(l, c)))
            .collect();
        let speed: Vec<f64> = space
            .drivers
            .iter()
            .flat_map(|&n| space.rise_times.iter().map(move |&t| speed_figure(n, t)))
            .collect();
        let (cost_rank, costs) = ranks(&cost, objectives.uses_cost());
        let (speed_rank, speeds) = ranks(&speed, objectives.uses_speed());
        Self {
            cost_rank,
            speed_rank,
            c_len: space.capacitances.len(),
            tr_len: space.rise_times.len(),
            speeds,
            min_noise: vec![f64::NAN; costs * speeds],
        }
    }

    /// The cell of grid point `(n_idx, l_idx, c_idx, tr_idx)`.
    fn cell(&self, (n, l, c, t): (usize, usize, usize, usize)) -> usize {
        self.cost_rank[l * self.c_len + c] * self.speeds + self.speed_rank[n * self.tr_len + t]
    }

    /// `true` when an added point dominates a point in `cell` whose noise
    /// is `x`, or only known to be `>= x`: strictly lower noise at no worse
    /// cost and speed, or no worse noise at strictly lower cost or speed.
    /// Exact only after [`DominanceTable::seal`].
    fn dominated(&self, cell: usize, x: f64) -> bool {
        let p = &self.min_noise;
        let w = self.speeds;
        p[cell] < x
            || (cell >= w && p[cell - w] <= x)
            || (!cell.is_multiple_of(w) && p[cell - 1] <= x)
    }

    /// 2-D prefix minimum over both ranks, in place.
    fn seal(&mut self) {
        let w = self.speeds;
        for i in 0..self.min_noise.len() {
            let mut v = self.min_noise[i];
            if i >= w {
                v = v.min(self.min_noise[i - w]);
            }
            if !i.is_multiple_of(w) {
                v = v.min(self.min_noise[i - 1]);
            }
            self.min_noise[i] = v;
        }
    }

    /// Merges a batch of feasible evaluated points into `front`: adds them
    /// to the table and seals it, drops the members it now dominates, and
    /// admits the batch points it does not. `batch` is walked twice rather
    /// than collected, so a level never holds a second copy of its results.
    fn merge<'a>(
        &mut self,
        front: &mut ParetoFront,
        space: &DesignSpace,
        level: u32,
        batch: impl Iterator<Item = &'a EvalOut> + Clone,
    ) {
        for e in batch.clone() {
            let cell = self.cell(space.unflat(e.flat));
            self.min_noise[cell] = self.min_noise[cell].min(e.vn_lc);
        }
        self.seal();
        front.members.retain(|q| {
            let cell = self.cell((q.n_idx, q.l_idx, q.c_idx, q.tr_idx));
            !self.dominated(cell, q.vn_lc.value())
        });
        for e in batch {
            if !self.dominated(self.cell(space.unflat(e.flat)), e.vn_lc) {
                front.members.push(make_point(space, e, level));
            }
        }
    }
}

/// Each value's rank among the distinct `values` (equal values share one),
/// and the number of ranks; everything is rank 0 when the axis is unused.
fn ranks(values: &[f64], used: bool) -> (Vec<usize>, usize) {
    if !used {
        return (vec![0; values.len()], 1);
    }
    let mut distinct = values.to_vec();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    let rank = values
        .iter()
        .map(|v| distinct.partition_point(|d| d < v))
        .collect();
    (rank, distinct.len())
}

/// Exhaustive enumeration reference: evaluates **every** grid point on the
/// chunked engine and builds the front by pure dominance filtering with
/// [`ParetoFront::insert`], independent of the dominance table [`search`]
/// uses. This is the ground truth the differential suite
/// (`tests/optimize_differential.rs`) holds [`search`] to.
///
/// # Errors
///
/// As [`search`].
pub fn enumerate(
    template: &SsnScenario,
    space: &DesignSpace,
    opts: &OptimizeOptions,
    policy: &ExecPolicy,
) -> Result<(OptimizeOutcome, ExecStats), SsnError> {
    space.validate()?;
    opts.validate()?;
    let total_points = space.total_points();
    let cap = opts.cap(template);
    let survivors: Vec<usize> = (0..total_points).collect();
    let _run_span = ssn_telemetry::span("opt.enumerate");
    let (chunks, mut stats) = try_run_chunked(total_points, OPT_CHUNK, policy, |c, range| {
        eval_chunk(template, space, &survivors, c, range)
    });
    let total_chunks = chunks.len();
    let mut front = ParetoFront::new(opts.objectives);
    let mut evaluated = 0usize;
    let mut over_cap = 0usize;
    let mut failed = 0usize;
    let mut first_cause: Option<String> = None;
    for chunk in chunks {
        match chunk {
            Ok(Ok(points)) => {
                for e in &points {
                    evaluated += 1;
                    if cap.is_some_and(|cap| e.vn_lc > cap) {
                        over_cap += 1;
                    } else {
                        front.insert(make_point(space, e, 0));
                    }
                }
            }
            Ok(Err(e)) => {
                failed += 1;
                first_cause.get_or_insert_with(|| e.to_string());
            }
            Err(e) => {
                failed += 1;
                first_cause.get_or_insert_with(|| e.to_string());
            }
        }
    }
    stats.failed_chunks = failed;
    if evaluated == 0 {
        return Err(SsnError::AllChunksFailed {
            failed,
            total: total_chunks,
            first_cause: first_cause.unwrap_or_else(|| "unknown".into()),
        });
    }
    front.seal();
    Ok((
        OptimizeOutcome {
            front,
            total_points,
            evaluated,
            pruned_infeasible: 0,
            pruned_dominated: 0,
            over_cap,
            levels: 1,
        },
        stats,
    ))
}

/// One MNA confirmation of a front point: the closed-form estimate against
/// the synthesized driver-bank transient (which runs on the PR-8
/// `SolverWorkspace` tier).
#[derive(Debug, Clone)]
pub struct Confirmation {
    /// The confirmed point.
    pub point: DesignPoint,
    /// The simulated maximum SSN.
    pub simulated: Volts,
    /// `(vn_lc - simulated) / simulated`.
    pub rel_err: f64,
}

/// Runs MNA confirmation transients for the first `k` members of a sealed
/// front (the noise-minimal ones, by the canonical order), using `model`
/// as the driver device.
///
/// # Errors
///
/// [`SsnError::Simulation`] from the underlying transient.
pub fn confirm_front(
    template: &SsnScenario,
    front: &ParetoFront,
    k: usize,
    model: std::sync::Arc<dyn ssn_devices::MosModel>,
) -> Result<Vec<Confirmation>, SsnError> {
    let _span = ssn_telemetry::span("opt.confirm");
    front
        .members()
        .iter()
        .take(k)
        .map(|p| {
            let s = template
                .with_drivers(p.n_drivers)?
                .with_package(p.inductance, p.capacitance)?
                .with_rise_time(p.rise_time)?;
            let cfg = crate::bridge::DriverBankConfig::from_scenario(&s, model.clone());
            let m = crate::bridge::measure(&cfg)?;
            let sim = m.vn_max.value();
            Ok(Confirmation {
                point: *p,
                simulated: m.vn_max,
                rel_err: (p.vn_lc.value() - sim) / sim.max(1e-12),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssn_devices::Asdm;
    use ssn_numeric::check::forall;
    use ssn_units::Siemens;

    fn template() -> SsnScenario {
        let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
        SsnScenario::from_asdm(asdm, Volts::new(1.8))
            .drivers(8)
            .inductance(Henrys::from_nanos(5.0))
            .capacitance(Farads::from_picos(1.0))
            .rise_time(Seconds::from_nanos(0.5))
            .build()
            .unwrap()
    }

    fn small_space() -> DesignSpace {
        DesignSpace {
            drivers: (1..=12).collect(),
            inductances: (1..=6)
                .map(|i| Henrys::from_nanos(i as f64 * 1.5))
                .collect(),
            capacitances: vec![Farads::from_picos(0.5), Farads::from_picos(2.0)],
            rise_times: vec![Seconds::from_nanos(0.3), Seconds::from_nanos(0.8)],
        }
    }

    #[test]
    fn search_front_equals_enumeration_front() {
        let t = template();
        let space = small_space();
        for opts in [
            OptimizeOptions::default(),
            OptimizeOptions {
                objectives: ObjectiveSet::NoiseCost,
                max_noise_frac: Some(0.25),
            },
            OptimizeOptions {
                objectives: ObjectiveSet::NoiseSpeed,
                max_noise_frac: Some(0.15),
            },
        ] {
            let (s, _) = search(&t, &space, &opts, &ExecPolicy::serial()).unwrap();
            let (e, _) = enumerate(&t, &space, &opts, &ExecPolicy::serial()).unwrap();
            assert!(
                s.front.same_front(&e.front),
                "search front ({} members) != enumeration front ({} members) under {:?}",
                s.front.len(),
                e.front.len(),
                opts
            );
            assert!(s.evaluated <= e.evaluated);
            assert_eq!(e.evaluated, space.total_points());
        }
    }

    #[test]
    fn tight_cap_prunes_without_losing_exactness() {
        let t = template();
        let space = DesignSpace {
            drivers: (1..=24).collect(),
            inductances: (1..=16).map(|i| Henrys::from_nanos(i as f64)).collect(),
            capacitances: vec![Farads::from_picos(1.0)],
            rise_times: vec![Seconds::from_nanos(0.5)],
        };
        let opts = OptimizeOptions {
            objectives: ObjectiveSet::NoiseCostSpeed,
            max_noise_frac: Some(0.12),
        };
        let (s, _) = search(&t, &space, &opts, &ExecPolicy::serial()).unwrap();
        let (e, _) = enumerate(&t, &space, &opts, &ExecPolicy::serial()).unwrap();
        assert!(s.front.same_front(&e.front));
        assert!(
            s.pruned_infeasible > 0,
            "a 12% cap on a 24x16 grid must prune something (evaluated {}/{})",
            s.evaluated,
            s.total_points
        );
        assert!(s.evaluated < s.total_points);
    }

    #[test]
    fn front_is_mutually_non_dominated_and_canonically_ordered() {
        let t = template();
        let space = small_space();
        let (s, _) = search(
            &t,
            &space,
            &OptimizeOptions::default(),
            &ExecPolicy::serial(),
        )
        .unwrap();
        let members = s.front.members();
        for (i, a) in members.iter().enumerate() {
            for (j, b) in members.iter().enumerate() {
                if i != j {
                    assert!(
                        !dominates(a, b, s.front.objectives()),
                        "front member {i} dominates member {j}"
                    );
                }
            }
        }
        for w in members.windows(2) {
            assert_eq!(
                canonical_order(&w[0], &w[1]),
                std::cmp::Ordering::Less,
                "members must be strictly canonically ordered"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_front() {
        let t = template();
        let space = small_space();
        let opts = OptimizeOptions {
            objectives: ObjectiveSet::NoiseCostSpeed,
            max_noise_frac: Some(0.3),
        };
        let (base, _) = search(&t, &space, &opts, &ExecPolicy::with_threads(1)).unwrap();
        for threads in [2, 4, 8] {
            let (s, _) = search(&t, &space, &opts, &ExecPolicy::with_threads(threads)).unwrap();
            assert_eq!(base, s, "outcome differs at {threads} threads");
        }
    }

    /// A grid whose objectives tie: `L_REF/L + C/C_REF` is 2 at both
    /// (5 nH, 0) and (10 nH, 10 pF), and `tr/N` is 0.25 ns at (1, 0.25 ns),
    /// (2, 0.5 ns) and (4, 1 ns). Every quotient is exact in binary.
    fn tie_space() -> DesignSpace {
        DesignSpace {
            drivers: vec![1, 2, 3, 4, 6, 8],
            inductances: [2.5e-9, 5e-9, 10e-9].map(Henrys::new).to_vec(),
            capacitances: [0.0, 10e-12, 20e-12].map(Farads::new).to_vec(),
            rise_times: [0.25e-9, 0.5e-9, 1e-9].map(Seconds::new).to_vec(),
        }
    }

    /// The front scan the dominance table replaced: `true` when a member
    /// dominates a point whose noise is only known to be `>= lb`.
    fn front_scan_dominates(front: &ParetoFront, lb: f64, cost: f64, speed: f64) -> bool {
        let obj = front.objectives;
        front.members.iter().any(|q| {
            let qn = q.vn_lc.value();
            qn <= lb
                && (!obj.uses_cost() || q.cost <= cost)
                && (!obj.uses_speed() || q.speed <= speed)
                && (qn < lb
                    || (obj.uses_cost() && q.cost < cost)
                    || (obj.uses_speed() && q.speed < speed))
        })
    }

    /// The dominance table against the pairwise dominance it replaced, on
    /// point clouds where tied objectives are the rule.
    #[test]
    fn dominance_table_matches_pairwise_dominance_on_tie_heavy_clouds() {
        let space = tie_space();
        let table = DominanceTable::new(&space, ObjectiveSet::NoiseCostSpeed);
        let distinct = |ranks: &[usize]| ranks.iter().max().map_or(0, |r| r + 1);
        assert_eq!(distinct(&table.cost_rank), 6, "9 (L, C) pairs, 6 costs");
        assert_eq!(
            distinct(&table.speed_rank),
            10,
            "18 (N, tr) pairs, 10 speeds"
        );

        let total = space.total_points();
        forall("dominance table equals pairwise dominance", 10, |g| {
            // Few noise values and a 162-point grid: equal coordinates and
            // identical vectors are the common case, not the corner case.
            let levels: Vec<f64> = (0..g.usize_in(1, 8)).map(|_| g.f64_in(0.01, 0.2)).collect();
            let cloud: Vec<EvalOut> = (0..g.usize_in(1, 2000))
                .map(|_| EvalOut {
                    flat: g.usize_in(0, total - 1),
                    vn_l_only: 0.0,
                    vn_lc: levels[g.usize_in(0, levels.len() - 1)],
                    case: MaxSsnCase::LOnly,
                })
                .collect();
            let points: Vec<DesignPoint> = cloud.iter().map(|e| make_point(&space, e, 0)).collect();
            for objectives in [
                ObjectiveSet::NoiseCostSpeed,
                ObjectiveSet::NoiseCost,
                ObjectiveSet::NoiseSpeed,
            ] {
                let mut table = DominanceTable::new(&space, objectives);
                table.merge(&mut ParetoFront::new(objectives), &space, 0, cloud.iter());

                // (a) The table's verdict on each point is "some other
                // cloud point dominates it".
                for (i, p) in points.iter().enumerate() {
                    let scan = points
                        .iter()
                        .enumerate()
                        .any(|(j, q)| j != i && dominates(q, p, objectives));
                    let cell = table.cell((p.n_idx, p.l_idx, p.c_idx, p.tr_idx));
                    if table.dominated(cell, p.vn_lc.value()) != scan {
                        return Err(format!(
                            "{objectives:?}: point {i} of {}: table says {}, scan says {scan}",
                            points.len(),
                            !scan
                        ));
                    }
                }

                // (b) On bound probes it is the old front scan.
                let mut inserted = ParetoFront::new(objectives);
                for p in &points {
                    inserted.insert(*p);
                }
                for _ in 0..500 {
                    let (n, l, c, t) = space.unflat(g.usize_in(0, total - 1));
                    let lb = if g.usize_in(0, 1) == 0 {
                        levels[g.usize_in(0, levels.len() - 1)]
                    } else {
                        g.f64_in(0.0, 0.21)
                    };
                    let cost = package_cost(space.inductances[l], space.capacitances[c]);
                    let speed = speed_figure(space.drivers[n], space.rise_times[t]);
                    let want = front_scan_dominates(&inserted, lb, cost, speed);
                    if table.dominated(table.cell((n, l, c, t)), lb) != want {
                        return Err(format!(
                            "{objectives:?}: probe (lb {lb}, cost {cost}, speed {speed}): \
                             table disagrees with the front scan ({want})"
                        ));
                    }
                }

                // (c) Merging random batches seals to the point-by-point
                // front.
                let mut batched = ParetoFront::new(objectives);
                let mut table = DominanceTable::new(&space, objectives);
                let (mut start, mut level) = (0, 0);
                while start < cloud.len() {
                    let end = (start + g.usize_in(1, 400)).min(cloud.len());
                    table.merge(&mut batched, &space, level, cloud[start..end].iter());
                    (start, level) = (end, level + 1);
                }
                batched.seal();
                inserted.seal();
                if !batched.same_front(&inserted) {
                    return Err(format!(
                        "{objectives:?}: batched front has {} members, inserted front {}",
                        batched.len(),
                        inserted.len()
                    ));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn geometric_axis_shapes() {
        let one = geometric_axis(5e-9, 1, 4.0).unwrap();
        assert_eq!(one, vec![5e-9]);
        let axis = geometric_axis(5e-9, 5, 4.0).unwrap();
        assert_eq!(axis.len(), 5);
        assert!((axis[0] - 2.5e-9).abs() < 1e-18);
        assert!((axis[4] - 10e-9).abs() < 1e-18);
        assert!((axis[2] - 5e-9).abs() < 1e-18);
        assert!(axis.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn invalid_spaces_are_rejected_up_front() {
        let t = template();
        let mut space = small_space();
        space.drivers = vec![4, 4];
        let e = search(
            &t,
            &space,
            &OptimizeOptions::default(),
            &ExecPolicy::serial(),
        )
        .unwrap_err();
        assert!(matches!(e, SsnError::InvalidInput { .. }), "{e}");
        let mut space = small_space();
        space.inductances = vec![Henrys::new(-1e-9)];
        assert!(search(
            &t,
            &space,
            &OptimizeOptions::default(),
            &ExecPolicy::serial()
        )
        .is_err());
        let bad = OptimizeOptions {
            objectives: ObjectiveSet::NoiseCostSpeed,
            max_noise_frac: Some(0.0),
        };
        assert!(search(&t, &small_space(), &bad, &ExecPolicy::serial()).is_err());
    }

    /// An injected crash counts commits per level journal, but its error
    /// names the whole journal family: the committed count it reports is
    /// the count a resume restores, also when the crash lands past level 0.
    #[test]
    fn a_crash_reports_the_journal_family_a_resume_restores() {
        use crate::durable::RunBudget;
        use crate::faults::{with_faults, FaultPlan};
        let t = template();
        let space = DesignSpace {
            drivers: (1..=12).collect(),
            inductances: (1..=8)
                .map(|i| Henrys::from_nanos(i as f64 * 1.5))
                .collect(),
            capacitances: vec![Farads::from_picos(0.5), Farads::from_picos(2.0)],
            rise_times: vec![Seconds::from_nanos(0.3), Seconds::from_nanos(0.8)],
        };
        let opts = OptimizeOptions::default();
        let policy = ExecPolicy::with_threads(2);
        let base = std::env::temp_dir().join(format!("ssn-opt-family-{}", std::process::id()));
        let durable = |resume| DurableOptions {
            checkpoint: Some(base.clone()),
            resume,
            budget: RunBudget::unlimited(),
        };
        let mut past_level_0 = false;
        for after in 1..=3 {
            let plan = FaultPlan {
                crash_after_commits: Some(after),
                ..FaultPlan::default()
            };
            let err = with_faults(plan, || {
                search_durable(&t, &space, &opts, &policy, &durable(false))
            })
            .unwrap_err();
            let SsnError::Interrupted {
                committed_chunks,
                total_chunks,
            } = err
            else {
                panic!("crash after {after}: want Interrupted, got {err}");
            };
            assert!(committed_chunks <= total_chunks, "{err}");
            past_level_0 |= committed_chunks > after;
            let (_, _, resumed) = search_durable(&t, &space, &opts, &policy, &durable(true))
                .expect("the resume completes");
            assert_eq!(
                resumed.resumed_chunks, committed_chunks,
                "crash after {after}: {err}"
            );
            for level in 0..8 {
                std::fs::remove_file(level_journal_path(&base, level)).ok();
            }
        }
        assert!(past_level_0, "no crash landed past level 0");
    }

    #[test]
    fn objective_set_round_trips() {
        for o in [
            ObjectiveSet::NoiseCostSpeed,
            ObjectiveSet::NoiseCost,
            ObjectiveSet::NoiseSpeed,
        ] {
            assert_eq!(ObjectiveSet::parse(o.name()), Some(o));
        }
        assert_eq!(ObjectiveSet::parse("speed-only"), None);
    }
}
