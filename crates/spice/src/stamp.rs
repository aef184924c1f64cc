//! MNA system layout and element stamping.
//!
//! Unknown ordering: node voltages for every non-ground node (node `i` maps
//! to unknown `i - 1`), followed by one branch current per voltage source
//! and per inductor. The node equations are written as
//! `sum of currents leaving the node = injections`, i.e. `A x = z` where
//! conductance-like terms go to `A` and companion/independent currents to
//! `z`.

use crate::netlist::{Circuit, ElementKind, NodeId};
use crate::tran::IntegrationMethod;
use ssn_devices::{MosModel, MosPolarity};
use ssn_numeric::matrix::DenseMatrix;
use ssn_numeric::sparse::CsrMatrix;

/// Matrix storage the stamper can write into: dense for small systems,
/// CSR (with a precomputed pattern from [`sparsity_pattern`]) for large
/// ones. Both must accumulate (`+=`) on repeated stamps at one position.
pub(crate) trait StampMatrix {
    /// Zeroes every stored coefficient, keeping the structure.
    fn reset(&mut self);
    /// `self[i][j] += v`.
    fn add(&mut self, i: usize, j: usize, v: f64);
}

impl StampMatrix for DenseMatrix {
    fn reset(&mut self) {
        self.fill_zero();
    }
    fn add(&mut self, i: usize, j: usize, v: f64) {
        DenseMatrix::add(self, i, j, v);
    }
}

impl StampMatrix for CsrMatrix {
    fn reset(&mut self) {
        self.fill_zero();
    }
    fn add(&mut self, i: usize, j: usize, v: f64) {
        CsrMatrix::add(self, i, j, v);
    }
}

/// A matrix that discards every stamp: assembling into it computes only
/// the right-hand side, for a system whose factored `A` is already cached.
pub(crate) struct RhsOnly;

impl StampMatrix for RhsOnly {
    fn reset(&mut self) {}
    fn add(&mut self, _i: usize, _j: usize, _v: f64) {}
}

/// Conductance tied from every node to ground so that floating nodes never
/// make the MNA matrix singular.
pub(crate) const GMIN_FLOOR: f64 = 1e-12;

/// Static description of the unknown vector for one circuit.
#[derive(Debug, Clone)]
pub(crate) struct SystemLayout {
    /// Total nodes including ground.
    pub n_nodes: usize,
    /// Branch-current unknown index (within the branch block), indexed by
    /// element; `Some` for voltage sources and inductors.
    pub branch_of: Vec<Option<usize>>,
    /// Capacitor state slot, indexed by element; `Some` for capacitors.
    pub cap_of: Vec<Option<usize>>,
    /// Number of branch unknowns.
    pub n_branches: usize,
    /// Number of capacitors.
    pub n_caps: usize,
}

impl SystemLayout {
    pub(crate) fn new(circuit: &Circuit) -> Self {
        let n_elements = circuit.elements().len();
        let mut branch_of = vec![None; n_elements];
        let mut cap_of = vec![None; n_elements];
        let mut n_branches = 0;
        let mut n_caps = 0;
        for (i, el) in circuit.elements().iter().enumerate() {
            match el.kind() {
                ElementKind::VSource { .. } | ElementKind::Inductor { .. } => {
                    branch_of[i] = Some(n_branches);
                    n_branches += 1;
                }
                ElementKind::Capacitor { .. } => {
                    cap_of[i] = Some(n_caps);
                    n_caps += 1;
                }
                _ => {}
            }
        }
        Self {
            n_nodes: circuit.node_count(),
            branch_of,
            cap_of,
            n_branches,
            n_caps,
        }
    }

    /// Size of the unknown vector.
    pub(crate) fn dim(&self) -> usize {
        self.n_nodes - 1 + self.n_branches
    }

    /// Unknown index of a node (`None` for ground).
    pub(crate) fn node_index(&self, n: NodeId) -> Option<usize> {
        (!n.is_ground()).then(|| n.0 - 1)
    }

    /// Unknown index of the branch current of element `elem_idx`.
    pub(crate) fn branch_index(&self, elem_idx: usize) -> Option<usize> {
        self.branch_of
            .get(elem_idx)
            .copied()
            .flatten()
            .map(|b| self.n_nodes - 1 + b)
    }

    /// Voltage of node `n` in the unknown vector `x` (0 for ground).
    pub(crate) fn voltage(&self, x: &[f64], n: NodeId) -> f64 {
        match self.node_index(n) {
            Some(i) => x[i],
            None => 0.0,
        }
    }
}

/// Per-capacitor dynamic state carried between accepted timesteps.
#[derive(Debug, Clone, Default)]
pub(crate) struct CapState {
    /// Capacitor voltage `v(a) - v(b)` at the previous accepted time.
    pub v: f64,
    /// Capacitor current at the previous accepted time (needed by the
    /// trapezoidal companion model).
    pub i: f64,
}

/// What kind of solve the assembly is for.
#[derive(Debug)]
pub(crate) enum AnalysisMode<'a> {
    /// DC operating point: capacitors open, inductors short, extra `gmin`
    /// from every node to ground, sources at their `t = 0` value scaled by
    /// `source_scale`.
    Dc { gmin: f64, source_scale: f64 },
    /// One transient timestep ending at `t`, of size `dt`, integrating with
    /// `method`, starting from `prev`.
    Tran {
        t: f64,
        dt: f64,
        method: IntegrationMethod,
        prev: &'a PrevState,
    },
}

/// The accepted solution at the previous timestep.
#[derive(Debug, Clone)]
pub(crate) struct PrevState {
    /// Full unknown vector.
    pub x: Vec<f64>,
    /// Capacitor states (indexed by the layout's capacitor slots).
    pub caps: Vec<CapState>,
}

/// Every matrix position any analysis mode can stamp for this circuit,
/// as `(row, col)` pairs (duplicates are fine — [`CsrMatrix::from_pattern`]
/// merges them). The union over DC and transient stamping keeps one CSR
/// pattern valid for the whole analysis; positions a given mode leaves
/// unstamped simply hold explicit zeros.
pub(crate) fn sparsity_pattern(circuit: &Circuit, layout: &SystemLayout) -> Vec<(usize, usize)> {
    let mut pat = Vec::new();
    // gmin floor touches every node diagonal.
    for n in 0..layout.n_nodes - 1 {
        pat.push((n, n));
    }
    let conductance = |pat: &mut Vec<(usize, usize)>, na: NodeId, nb: NodeId| {
        let (i, j) = (layout.node_index(na), layout.node_index(nb));
        if let Some(i) = i {
            pat.push((i, i));
            if let Some(j) = j {
                pat.push((i, j));
                pat.push((j, i));
            }
        }
        if let Some(j) = j {
            pat.push((j, j));
        }
    };
    for (idx, el) in circuit.elements().iter().enumerate() {
        match el.kind() {
            ElementKind::Resistor { a: na, b: nb, .. } => conductance(&mut pat, *na, *nb),
            ElementKind::Capacitor { a: na, b: nb, .. } => conductance(&mut pat, *na, *nb),
            ElementKind::Inductor { a: na, b: nb, .. } => {
                let bi = layout.branch_index(idx).expect("inductor has a branch");
                for n in [*na, *nb] {
                    if let Some(i) = layout.node_index(n) {
                        pat.push((i, bi));
                        pat.push((bi, i));
                    }
                }
                // Tran stamps -L/dt here; DC pins the degenerate all-ground
                // case. The full diagonal is in the CSR pattern anyway.
                pat.push((bi, bi));
            }
            ElementKind::VSource { pos, neg, .. } => {
                let bi = layout.branch_index(idx).expect("vsource has a branch");
                for n in [*pos, *neg] {
                    if let Some(i) = layout.node_index(n) {
                        pat.push((i, bi));
                        pat.push((bi, i));
                    }
                }
            }
            ElementKind::ISource { .. } => {}
            ElementKind::Vccs {
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                ..
            } => {
                for out in [*out_p, *out_n] {
                    if let Some(i) = layout.node_index(out) {
                        for ctrl in [*ctrl_p, *ctrl_n] {
                            if let Some(c) = layout.node_index(ctrl) {
                                pat.push((i, c));
                            }
                        }
                    }
                }
            }
            ElementKind::Diode { a: na, k: nk, .. } => conductance(&mut pat, *na, *nk),
            ElementKind::Mosfet { d, g, s, b, .. } => {
                for row in [*d, *s] {
                    if let Some(i) = layout.node_index(row) {
                        for col in [*d, *g, *s, *b] {
                            if let Some(j) = layout.node_index(col) {
                                pat.push((i, j));
                            }
                        }
                    }
                }
            }
        }
    }
    pat
}

/// Assembles the linearized MNA system at iterate `x` into `(a, z)`.
pub(crate) fn assemble<S: StampMatrix>(
    circuit: &Circuit,
    layout: &SystemLayout,
    x: &[f64],
    mode: &AnalysisMode<'_>,
    a: &mut S,
    z: &mut [f64],
) {
    a.reset();
    z.fill(0.0);

    // gmin floor (plus DC homotopy gmin) on every non-ground node.
    let gmin = GMIN_FLOOR
        + match mode {
            AnalysisMode::Dc { gmin, .. } => *gmin,
            AnalysisMode::Tran { .. } => 0.0,
        };
    for n in 0..layout.n_nodes - 1 {
        a.add(n, n, gmin);
    }

    let stamp_conductance = |a: &mut S, na: NodeId, nb: NodeId, g: f64| {
        if let Some(i) = layout.node_index(na) {
            a.add(i, i, g);
            if let Some(j) = layout.node_index(nb) {
                a.add(i, j, -g);
            }
        }
        if let Some(j) = layout.node_index(nb) {
            a.add(j, j, g);
            if let Some(i) = layout.node_index(na) {
                a.add(j, i, -g);
            }
        }
    };

    for (idx, el) in circuit.elements().iter().enumerate() {
        match el.kind() {
            ElementKind::Resistor { a: na, b: nb, ohms } => {
                stamp_conductance(a, *na, *nb, 1.0 / ohms);
            }
            ElementKind::Capacitor {
                a: na,
                b: nb,
                farads,
                ..
            } => {
                if let (
                    AnalysisMode::Tran {
                        dt, method, prev, ..
                    },
                    Some(slot),
                ) = (mode, layout.cap_of[idx])
                {
                    let state = &prev.caps[slot];
                    let (geq, ieq) = match method {
                        IntegrationMethod::BackwardEuler => {
                            let geq = farads / dt;
                            (geq, geq * state.v)
                        }
                        IntegrationMethod::Trapezoidal => {
                            let geq = 2.0 * farads / dt;
                            (geq, geq * state.v + state.i)
                        }
                    };
                    stamp_conductance(a, *na, *nb, geq);
                    if let Some(i) = layout.node_index(*na) {
                        z[i] += ieq;
                    }
                    if let Some(j) = layout.node_index(*nb) {
                        z[j] -= ieq;
                    }
                }
                // DC: open circuit, nothing to stamp.
            }
            ElementKind::Inductor {
                a: na,
                b: nb,
                henrys,
                ..
            } => {
                let bi = layout.branch_index(idx).expect("inductor has a branch");
                // KCL: branch current leaves node a, enters node b.
                if let Some(i) = layout.node_index(*na) {
                    a.add(i, bi, 1.0);
                }
                if let Some(j) = layout.node_index(*nb) {
                    a.add(j, bi, -1.0);
                }
                // Branch equation.
                match mode {
                    AnalysisMode::Dc { .. } => {
                        // Ideal short: v_a - v_b = 0.
                        if let Some(i) = layout.node_index(*na) {
                            a.add(bi, i, 1.0);
                        }
                        if let Some(j) = layout.node_index(*nb) {
                            a.add(bi, j, -1.0);
                        }
                        // Degenerate all-ground case: pin the current to 0.
                        if layout.node_index(*na).is_none() && layout.node_index(*nb).is_none() {
                            a.add(bi, bi, 1.0);
                        }
                    }
                    AnalysisMode::Tran {
                        dt, method, prev, ..
                    } => {
                        let i_prev = prev.x[bi];
                        let v_prev = layout.voltage(&prev.x, *na) - layout.voltage(&prev.x, *nb);
                        let coeff = match method {
                            IntegrationMethod::BackwardEuler => henrys / dt,
                            IntegrationMethod::Trapezoidal => 2.0 * henrys / dt,
                        };
                        // (v_a - v_b) - coeff * i = rhs
                        if let Some(i) = layout.node_index(*na) {
                            a.add(bi, i, 1.0);
                        }
                        if let Some(j) = layout.node_index(*nb) {
                            a.add(bi, j, -1.0);
                        }
                        a.add(bi, bi, -coeff);
                        z[bi] = match method {
                            IntegrationMethod::BackwardEuler => -coeff * i_prev,
                            IntegrationMethod::Trapezoidal => -coeff * i_prev - v_prev,
                        };
                    }
                }
            }
            ElementKind::VSource { pos, neg, wave } => {
                let bi = layout.branch_index(idx).expect("vsource has a branch");
                if let Some(i) = layout.node_index(*pos) {
                    a.add(i, bi, 1.0);
                }
                if let Some(j) = layout.node_index(*neg) {
                    a.add(j, bi, -1.0);
                }
                if let Some(i) = layout.node_index(*pos) {
                    a.add(bi, i, 1.0);
                }
                if let Some(j) = layout.node_index(*neg) {
                    a.add(bi, j, -1.0);
                }
                z[bi] = match mode {
                    AnalysisMode::Dc { source_scale, .. } => wave.value_at(0.0) * source_scale,
                    AnalysisMode::Tran { t, .. } => wave.value_at(*t),
                };
            }
            ElementKind::ISource { pos, neg, wave } => {
                let value = match mode {
                    AnalysisMode::Dc { source_scale, .. } => wave.value_at(0.0) * source_scale,
                    AnalysisMode::Tran { t, .. } => wave.value_at(*t),
                };
                // Current flows pos -> (through source) -> neg: it leaves
                // the pos node and is injected into the neg node.
                if let Some(i) = layout.node_index(*pos) {
                    z[i] -= value;
                }
                if let Some(j) = layout.node_index(*neg) {
                    z[j] += value;
                }
            }
            ElementKind::Vccs {
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                gm,
            } => {
                for (node, sign) in [(out_p, 1.0), (out_n, -1.0)] {
                    if let Some(i) = layout.node_index(*node) {
                        if let Some(cp) = layout.node_index(*ctrl_p) {
                            a.add(i, cp, sign * gm);
                        }
                        if let Some(cn) = layout.node_index(*ctrl_n) {
                            a.add(i, cn, -sign * gm);
                        }
                    }
                }
            }
            ElementKind::Diode {
                a: na,
                k: nk,
                model,
            } => {
                let va = layout.voltage(x, *na);
                let vk = layout.voltage(x, *nk);
                let (i0, g) = model.iv(va - vk);
                // Linearize: i = g * (va - vk) + ieq.
                let ieq = i0 - g * (va - vk);
                stamp_conductance(a, *na, *nk, g);
                if let Some(i) = layout.node_index(*na) {
                    z[i] -= ieq;
                }
                if let Some(j) = layout.node_index(*nk) {
                    z[j] += ieq;
                }
            }
            ElementKind::Mosfet {
                polarity,
                d,
                g,
                s,
                b,
                model,
            } => {
                let vd = layout.voltage(x, *d);
                let vg = layout.voltage(x, *g);
                let vs = layout.voltage(x, *s);
                let vb = layout.voltage(x, *b);
                let lin = mos_linearize(model.as_ref(), *polarity, vd, vg, vs, vb);
                // ieq so that i_into_d = sum(g_k v_k) + ieq at the iterate.
                let ieq = lin.i - lin.g_d * vd - lin.g_g * vg - lin.g_s * vs - lin.g_b * vb;
                let stamps = [(*d, lin.g_d), (*g, lin.g_g), (*s, lin.g_s), (*b, lin.g_b)];
                if let Some(i) = layout.node_index(*d) {
                    for (node, gval) in stamps {
                        if let Some(j) = layout.node_index(node) {
                            a.add(i, j, gval);
                        }
                    }
                    z[i] -= ieq;
                }
                if let Some(i) = layout.node_index(*s) {
                    for (node, gval) in stamps {
                        if let Some(j) = layout.node_index(node) {
                            a.add(i, j, -gval);
                        }
                    }
                    z[i] += ieq;
                }
            }
        }
    }
}

/// Linearized MOSFET terminal behaviour: the current flowing *into the
/// drain terminal* (and out of the source terminal) plus its derivatives
/// with respect to the four terminal voltages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MosLinearization {
    pub i: f64,
    pub g_d: f64,
    pub g_g: f64,
    pub g_s: f64,
    pub g_b: f64,
}

/// Evaluates `model` at absolute terminal voltages, handling polarity and
/// drain/source reversal so the model only ever sees the normalized NMOS
/// convention with non-negative `v_ds`.
pub(crate) fn mos_linearize<M: MosModel + ?Sized>(
    model: &M,
    polarity: MosPolarity,
    vd: f64,
    vg: f64,
    vs: f64,
    vb: f64,
) -> MosLinearization {
    match polarity {
        MosPolarity::Nmos => {
            if vd >= vs {
                let e = model.ids(vg - vs, vd - vs, vb - vs);
                MosLinearization {
                    i: e.id,
                    g_g: e.gm,
                    g_d: e.gds,
                    g_b: e.gmbs,
                    g_s: -(e.gm + e.gds + e.gmbs),
                }
            } else {
                // Channel reversal: the physical source is the drain pin.
                let e = model.ids(vg - vd, vs - vd, vb - vd);
                MosLinearization {
                    i: -e.id,
                    g_g: -e.gm,
                    g_s: -e.gds,
                    g_b: -e.gmbs,
                    g_d: e.gm + e.gds + e.gmbs,
                }
            }
        }
        MosPolarity::Pmos => {
            if vs >= vd {
                // Normal PMOS: source is the higher-potential pin.
                let e = model.ids(vs - vg, vs - vd, vs - vb);
                MosLinearization {
                    i: -e.id,
                    g_g: e.gm,
                    g_d: e.gds,
                    g_b: e.gmbs,
                    g_s: -(e.gm + e.gds + e.gmbs),
                }
            } else {
                let e = model.ids(vd - vg, vd - vs, vd - vb);
                MosLinearization {
                    i: e.id,
                    g_g: -e.gm,
                    g_s: -e.gds,
                    g_b: -e.gmbs,
                    g_d: e.gm + e.gds + e.gmbs,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWave;
    use ssn_devices::AlphaPower;

    #[test]
    fn layout_assigns_branches_and_caps() {
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", SourceWave::Dc(1.0)).unwrap();
        c.resistor("r1", "a", "b", 1e3).unwrap();
        c.capacitor("c1", "b", "0", 1e-12).unwrap();
        c.inductor("l1", "b", "c", 1e-9).unwrap();
        let layout = SystemLayout::new(&c);
        assert_eq!(layout.n_nodes, 4);
        assert_eq!(layout.n_branches, 2);
        assert_eq!(layout.n_caps, 1);
        assert_eq!(layout.dim(), 5);
        assert_eq!(layout.branch_index(0), Some(3)); // vsource
        assert_eq!(layout.branch_index(3), Some(4)); // inductor
        assert_eq!(layout.branch_index(1), None);
        let a = c.find_node("a").unwrap();
        assert_eq!(layout.node_index(a), Some(0));
        assert_eq!(layout.node_index(crate::netlist::GROUND), None);
    }

    /// Finite-difference validation of the four-quadrant MOS linearization.
    #[test]
    fn mos_linearization_matches_finite_difference() {
        let model = AlphaPower::builder().build();
        let h = 1e-7;
        let biases = [
            // (vd, vg, vs, vb) covering all four cases.
            (1.8, 1.8, 0.2, 0.0), // nmos normal
            (0.1, 1.8, 1.5, 0.0), // nmos reversed
            (0.2, 0.0, 1.8, 1.8), // pmos normal (when polarity = Pmos)
            (1.8, 0.0, 0.3, 1.8), // pmos reversed
        ];
        for &pol in &[MosPolarity::Nmos, MosPolarity::Pmos] {
            for &(vd, vg, vs, vb) in &biases {
                let base = mos_linearize(&model, pol, vd, vg, vs, vb);
                let fd = |dvd: f64, dvg: f64, dvs: f64, dvb: f64| {
                    let p = mos_linearize(&model, pol, vd + dvd, vg + dvg, vs + dvs, vb + dvb).i;
                    let m = mos_linearize(&model, pol, vd - dvd, vg - dvg, vs - dvs, vb - dvb).i;
                    (p - m) / (2.0 * h)
                };
                let checks = [
                    (base.g_d, fd(h, 0.0, 0.0, 0.0), "g_d"),
                    (base.g_g, fd(0.0, h, 0.0, 0.0), "g_g"),
                    (base.g_s, fd(0.0, 0.0, h, 0.0), "g_s"),
                    (base.g_b, fd(0.0, 0.0, 0.0, h), "g_b"),
                ];
                for (analytic, numeric, label) in checks {
                    assert!(
                        (analytic - numeric).abs() < 1e-4,
                        "{pol:?} {label} at ({vd},{vg},{vs},{vb}): {analytic} vs {numeric}"
                    );
                }
            }
        }
    }

    #[test]
    fn mos_current_antisymmetric_under_reversal() {
        // Swapping drain and source negates the terminal current.
        let model = AlphaPower::builder().build();
        let a = mos_linearize(&model, MosPolarity::Nmos, 1.0, 1.8, 0.2, 0.0);
        let b = mos_linearize(&model, MosPolarity::Nmos, 0.2, 1.8, 1.0, 0.0);
        assert!((a.i + b.i).abs() < 1e-12);
    }

    #[test]
    fn pmos_conducts_with_low_gate() {
        let model = AlphaPower::builder().build();
        // PMOS source at 1.8 (vs), drain at 0.9, gate at 0: strongly on.
        let on = mos_linearize(&model, MosPolarity::Pmos, 0.9, 0.0, 1.8, 1.8);
        assert!(
            on.i < -1e-3,
            "PMOS drain current should be negative (into channel from source)"
        );
        // Gate at 1.8: off.
        let off = mos_linearize(&model, MosPolarity::Pmos, 0.9, 1.8, 1.8, 1.8);
        assert_eq!(off.i, 0.0);
    }

    /// One of every element kind; the sparse pattern must cover every
    /// position the dense stamper writes, in both analysis modes, with
    /// bit-identical coefficients.
    #[test]
    fn sparse_assembly_matches_dense_in_both_modes() {
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", SourceWave::Dc(1.8)).unwrap();
        c.resistor("r1", "vdd", "mid", 2e3).unwrap();
        c.capacitor("c1", "mid", "0", 3e-12).unwrap();
        c.inductor("l1", "mid", "out", 5e-9).unwrap();
        c.isource("i1", "out", "0", SourceWave::Dc(1e-4)).unwrap();
        c.vccs("g1", "out", "0", "mid", "0", 2e-3).unwrap();
        c.diode("d1", "out", "0", ssn_devices::Diode::new(1e-14, 1.5))
            .unwrap();
        c.mosfet(
            "m1",
            MosPolarity::Nmos,
            "vdd",
            "mid",
            "0",
            "0",
            std::sync::Arc::new(AlphaPower::builder().build()),
        )
        .unwrap();
        let layout = SystemLayout::new(&c);
        let dim = layout.dim();
        let mut x = vec![0.0; dim];
        // A non-trivial iterate so the nonlinear stamps are exercised.
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = 0.1 * (i as f64 + 1.0);
        }
        let prev = PrevState {
            x: x.clone(),
            caps: vec![CapState { v: 0.7, i: 1e-5 }; layout.n_caps],
        };
        let modes = [
            AnalysisMode::Dc {
                gmin: 1e-9,
                source_scale: 0.7,
            },
            AnalysisMode::Tran {
                t: 1e-9,
                dt: 1e-12,
                method: IntegrationMethod::Trapezoidal,
                prev: &prev,
            },
        ];
        let pattern = sparsity_pattern(&c, &layout);
        let mut sparse = CsrMatrix::from_pattern(dim, &pattern).unwrap();
        for mode in &modes {
            let mut dense = DenseMatrix::zeros(dim, dim);
            let mut z_dense = vec![0.0; dim];
            let mut z_sparse = vec![0.0; dim];
            assemble(&c, &layout, &x, mode, &mut dense, &mut z_dense);
            assemble(&c, &layout, &x, mode, &mut sparse, &mut z_sparse);
            assert_eq!(z_dense, z_sparse, "rhs differs in {mode:?}");
            let densified = sparse.to_dense();
            for i in 0..dim {
                for j in 0..dim {
                    assert_eq!(
                        dense[(i, j)],
                        densified[(i, j)],
                        "A[{i}][{j}] differs in {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn dc_assembly_of_divider_solves_correctly() {
        // v1 = 2 V across r1 + r2 (1k each): middle node = 1 V.
        let mut c = Circuit::new();
        c.vsource("v1", "in", "0", SourceWave::Dc(2.0)).unwrap();
        c.resistor("r1", "in", "mid", 1e3).unwrap();
        c.resistor("r2", "mid", "0", 1e3).unwrap();
        let layout = SystemLayout::new(&c);
        let mut a = DenseMatrix::zeros(layout.dim(), layout.dim());
        let mut z = vec![0.0; layout.dim()];
        let x = vec![0.0; layout.dim()];
        assemble(
            &c,
            &layout,
            &x,
            &AnalysisMode::Dc {
                gmin: 0.0,
                source_scale: 1.0,
            },
            &mut a,
            &mut z,
        );
        let sol = ssn_numeric::lu::solve(&a, &z).unwrap();
        let mid = layout.node_index(c.find_node("mid").unwrap()).unwrap();
        assert!((sol[mid] - 1.0).abs() < 1e-6);
        // Source branch current = -1 mA (current flows out of + terminal
        // through the circuit, so through the source it is negative by the
        // associated reference direction).
        let bi = layout.branch_index(0).unwrap();
        assert!((sol[bi] + 1e-3).abs() < 1e-6, "i = {}", sol[bi]);
    }
}
