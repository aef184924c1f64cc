//! DC operating point via Newton–Raphson with gmin and source stepping.

use crate::error::SpiceError;
use crate::linsolve::{SolverWorkspace, SPARSE_DIM_THRESHOLD};
use crate::netlist::Circuit;
use crate::solution::DcSolution;
use crate::stamp::{AnalysisMode, SystemLayout};

/// Options for [`dc_operating_point`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcOptions {
    /// Relative convergence tolerance.
    pub reltol: f64,
    /// Absolute node-voltage tolerance (V).
    pub vntol: f64,
    /// Absolute branch-current tolerance (A).
    pub abstol: f64,
    /// Newton iteration budget per homotopy stage.
    pub max_newton: usize,
    /// Per-iteration voltage step clamp (V).
    pub v_step_limit: f64,
    /// Systems with at least this many unknowns use the sparse/GMRES
    /// ladder instead of dense LU. `usize::MAX` forces dense everywhere;
    /// a small value forces the sparse tier (useful in tests).
    pub sparse_dim_threshold: usize,
}

impl Default for DcOptions {
    fn default() -> Self {
        Self {
            reltol: 1e-6,
            vntol: 1e-9,
            abstol: 1e-12,
            max_newton: 100,
            v_step_limit: 1.0,
            sparse_dim_threshold: SPARSE_DIM_THRESHOLD,
        }
    }
}

/// Runs one Newton solve for a fixed analysis mode, iterating `x` in
/// place from the starting point it holds, using the analysis-scoped
/// solver state in `ws`.
///
/// Returns the number of iterations used; on an error `x` holds the last
/// iterate.
pub(crate) fn newton_solve(
    circuit: &Circuit,
    layout: &SystemLayout,
    mode: &AnalysisMode<'_>,
    x: &mut [f64],
    opts: &DcOptions,
    ws: &mut SolverWorkspace,
) -> Result<usize, SpiceError> {
    // The solution buffer is the workspace's: taken for this solve and
    // handed back on every exit, so no iteration allocates.
    let mut x_new = std::mem::take(&mut ws.x_new);
    let result = newton_iterate(circuit, layout, mode, x, &mut x_new, opts, ws);
    ws.x_new = x_new;
    result
}

fn newton_iterate(
    circuit: &Circuit,
    layout: &SystemLayout,
    mode: &AnalysisMode<'_>,
    x: &mut [f64],
    x_new: &mut [f64],
    opts: &DcOptions,
    ws: &mut SolverWorkspace,
) -> Result<usize, SpiceError> {
    let n = layout.dim();
    let n_node_unknowns = layout.n_nodes - 1;
    // The voltage step clamp grows whenever it engages on consecutive
    // iterations, so legitimate large linear solutions (e.g. a current
    // source into a gmin-only node) stay reachable while nonlinear devices
    // still get damped through their region changes.
    let mut step_limit = opts.v_step_limit;

    // For a linear circuit the assembled system does not depend on the
    // iterate, so every iteration of the naive loop solves the identical
    // system and lands on the identical `x_new`: solve once up front and
    // replay it through the damping iterations (bit-identical, and the
    // damping/convergence bookkeeping below stays untouched).
    let hoisted = ws.is_linear_circuit();
    if hoisted {
        ws.solve(circuit, layout, x, mode, x_new)?;
    }

    for iter in 1..=opts.max_newton {
        if !hoisted {
            ws.solve(circuit, layout, x, mode, x_new)?;
        }

        // Raw Newton step, then damping on the voltage block.
        let mut max_v_step = 0.0f64;
        for i in 0..n_node_unknowns {
            max_v_step = max_v_step.max((x_new[i] - x[i]).abs());
        }
        let damp = if max_v_step > step_limit {
            let d = step_limit / max_v_step;
            step_limit *= 2.0;
            d
        } else {
            step_limit = opts.v_step_limit;
            1.0
        };

        let mut converged = damp == 1.0;
        for i in 0..n {
            let delta = x_new[i] - x[i];
            let tol = if i < n_node_unknowns {
                opts.vntol + opts.reltol * x[i].abs().max(x_new[i].abs())
            } else {
                opts.abstol + opts.reltol * x[i].abs().max(x_new[i].abs())
            };
            if delta.abs() > tol {
                converged = false;
            }
            x[i] += damp * delta;
        }
        if converged {
            return Ok(iter);
        }
    }
    Err(SpiceError::NewtonDiverged {
        time: None,
        iterations: opts.max_newton,
    })
}

/// Computes the DC operating point: capacitors open, inductors shorted,
/// nonlinear devices iterated to convergence.
///
/// Convergence is rescued with two homotopies: gmin stepping (a conductance
/// from every node to ground swept from 1 mS down to nothing) and, failing
/// that, source stepping (all sources ramped from zero).
///
/// # Errors
///
/// * [`SpiceError::NewtonDiverged`] when every homotopy fails,
/// * [`SpiceError::Numeric`] for singular MNA systems (e.g. a floating
///   subcircuit without even a gmin path — prevented internally by the gmin
///   floor, so this indicates a malformed circuit).
///
/// # Examples
///
/// ```
/// use ssn_spice::{Circuit, SourceWave, dc_operating_point, DcOptions};
///
/// # fn main() -> Result<(), ssn_spice::SpiceError> {
/// let mut c = Circuit::new();
/// c.vsource("v1", "in", "0", SourceWave::Dc(2.0))?;
/// c.resistor("r1", "in", "out", 1e3)?;
/// c.resistor("r2", "out", "0", 3e3)?;
/// let op = dc_operating_point(&c, DcOptions::default())?;
/// assert!((op.voltage("out")? - 1.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point(circuit: &Circuit, opts: DcOptions) -> Result<DcSolution, SpiceError> {
    let layout = SystemLayout::new(circuit);
    let mut ws = SolverWorkspace::new(circuit, &layout, opts.sparse_dim_threshold, true)?;
    let solved = |layout: SystemLayout, x: Vec<f64>| DcSolution {
        circuit: circuit.clone(),
        layout,
        x,
    };
    // Every attempt starts from the all-zero vector.
    let mut x = vec![0.0; layout.dim()];

    // Plain Newton first.
    let plain = AnalysisMode::Dc {
        gmin: 0.0,
        source_scale: 1.0,
    };
    if newton_solve(circuit, &layout, &plain, &mut x, &opts, &mut ws).is_ok() {
        return Ok(solved(layout, x));
    }

    // gmin stepping.
    x.fill(0.0);
    let mut ok = true;
    for exp in 3..=12 {
        let gmin = 10f64.powi(-exp);
        let stage = AnalysisMode::Dc {
            gmin,
            source_scale: 1.0,
        };
        if newton_solve(circuit, &layout, &stage, &mut x, &opts, &mut ws).is_err() {
            ok = false;
            break;
        }
    }
    if ok && newton_solve(circuit, &layout, &plain, &mut x, &opts, &mut ws).is_ok() {
        return Ok(solved(layout, x));
    }

    // Source stepping.
    x.fill(0.0);
    for k in 1..=10 {
        let scale = f64::from(k) / 10.0;
        let stage = AnalysisMode::Dc {
            gmin: 0.0,
            source_scale: scale,
        };
        newton_solve(circuit, &layout, &stage, &mut x, &opts, &mut ws)?;
    }
    Ok(solved(layout, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWave;
    use ssn_devices::{AlphaPower, Level1, MosPolarity};
    use std::sync::Arc;

    #[test]
    fn resistor_ladder() {
        let mut c = Circuit::new();
        c.vsource("v1", "n1", "0", SourceWave::Dc(3.0)).unwrap();
        c.resistor("r1", "n1", "n2", 1e3).unwrap();
        c.resistor("r2", "n2", "n3", 1e3).unwrap();
        c.resistor("r3", "n3", "0", 1e3).unwrap();
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        assert!((op.voltage("n2").unwrap() - 2.0).abs() < 1e-6);
        assert!((op.voltage("n3").unwrap() - 1.0).abs() < 1e-6);
        assert!((op.branch_current("v1").unwrap() + 1e-3).abs() < 1e-6);
        assert!(op.voltage("nope").is_err());
        assert!(op.branch_current("r1").is_err());
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", SourceWave::Dc(1.0)).unwrap();
        c.resistor("r1", "a", "b", 1e3).unwrap();
        c.inductor("l1", "b", "c", 1e-9).unwrap();
        c.resistor("r2", "c", "0", 1e3).unwrap();
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        assert!((op.voltage("b").unwrap() - op.voltage("c").unwrap()).abs() < 1e-9);
        assert!((op.branch_current("l1").unwrap() - 0.5e-3).abs() < 1e-8);
    }

    #[test]
    fn capacitor_is_dc_open() {
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", SourceWave::Dc(1.0)).unwrap();
        c.resistor("r1", "a", "b", 1e3).unwrap();
        c.capacitor("c1", "b", "0", 1e-9).unwrap();
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        // No DC path to ground except gmin: node b floats to the source.
        assert!((op.voltage("b").unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nmos_inverter_transfer_points() {
        // Resistive-load inverter: vdd -- r(10k) -- out -- nmos -- gnd.
        let model = Arc::new(Level1::new(2e-3, 0.5));
        let build = |vin: f64| {
            let mut c = Circuit::new();
            c.vsource("vdd", "vdd", "0", SourceWave::Dc(1.8)).unwrap();
            c.vsource("vin", "g", "0", SourceWave::Dc(vin)).unwrap();
            c.resistor("rl", "vdd", "out", 10e3).unwrap();
            c.mosfet("m1", MosPolarity::Nmos, "out", "g", "0", "0", model.clone())
                .unwrap();
            c
        };
        // Input low: output high.
        let hi = dc_operating_point(&build(0.0), DcOptions::default()).unwrap();
        assert!((hi.voltage("out").unwrap() - 1.8).abs() < 1e-3);
        // Input high: output pulled low (strong device vs 10k load).
        let lo = dc_operating_point(&build(1.8), DcOptions::default()).unwrap();
        assert!(lo.voltage("out").unwrap() < 0.1);
    }

    #[test]
    fn cmos_inverter_rails() {
        let n = Arc::new(AlphaPower::builder().build());
        let p = Arc::new(AlphaPower::builder().build()); // symmetric stand-in
        let build = |vin: f64| {
            let mut c = Circuit::new();
            c.vsource("vdd", "vdd", "0", SourceWave::Dc(1.8)).unwrap();
            c.vsource("vin", "g", "0", SourceWave::Dc(vin)).unwrap();
            c.mosfet("mp", MosPolarity::Pmos, "out", "g", "vdd", "vdd", p.clone())
                .unwrap();
            c.mosfet("mn", MosPolarity::Nmos, "out", "g", "0", "0", n.clone())
                .unwrap();
            c
        };
        let hi = dc_operating_point(&build(0.0), DcOptions::default()).unwrap();
        assert!(
            (hi.voltage("out").unwrap() - 1.8).abs() < 1e-2,
            "out = {}",
            hi.voltage("out").unwrap()
        );
        let lo = dc_operating_point(&build(1.8), DcOptions::default()).unwrap();
        assert!(lo.voltage("out").unwrap() < 1e-2);
    }

    #[test]
    fn diode_rectifier_drop() {
        use ssn_devices::Diode;
        // 1 V source through 1k into a diode: I = (1 - Vd)/1k and
        // Vd = forward_voltage(I) must agree self-consistently.
        let mut c = Circuit::new();
        c.vsource("v1", "in", "0", SourceWave::Dc(1.0)).unwrap();
        c.resistor("r1", "in", "d", 1e3).unwrap();
        let model = Diode::new(1e-14, 1.0);
        c.diode("d1", "d", "0", model).unwrap();
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        let vd = op.voltage("d").unwrap();
        assert!(vd > 0.4 && vd < 0.8, "diode drop {vd}");
        let i = (1.0 - vd) / 1e3;
        assert!(
            (model.forward_voltage(i) - vd).abs() < 1e-6,
            "inconsistent op: vd = {vd}, i = {i}"
        );
        // Reverse direction: blocks, node follows the source through R
        // (only the saturation current flows).
        let mut c = Circuit::new();
        c.vsource("v1", "in", "0", SourceWave::Dc(1.0)).unwrap();
        c.resistor("r1", "in", "d", 1e3).unwrap();
        c.diode("d2", "0", "d", model).unwrap(); // flipped
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        assert!((op.voltage("d").unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vccs_injects_current() {
        let mut c = Circuit::new();
        c.vsource("vc", "ctl", "0", SourceWave::Dc(1.0)).unwrap();
        c.vccs("g1", "out", "0", "ctl", "0", 1e-3).unwrap();
        c.resistor("rl", "out", "0", 1e3).unwrap();
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        // 1 mA leaves "out" through the VCCS, so the resistor pulls the node
        // to -1 V.
        assert!((op.voltage("out").unwrap() + 1.0).abs() < 1e-6);
    }

    #[test]
    fn isource_polarity() {
        let mut c = Circuit::new();
        c.isource("i1", "0", "out", SourceWave::Dc(1e-3)).unwrap();
        c.resistor("rl", "out", "0", 1e3).unwrap();
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        // Current injected INTO "out": +1 V.
        assert!((op.voltage("out").unwrap() - 1.0).abs() < 1e-6);
    }
}
