//! Transient analysis with adaptive timestep control.

use crate::dc::{dc_operating_point, newton_solve, DcOptions};
use crate::error::SpiceError;
use crate::linsolve::SolverWorkspace;
use crate::netlist::{Circuit, ElementKind};
use crate::solution::TranResult;
use crate::stamp::{AnalysisMode, CapState, PrevState, SystemLayout};

/// Companion-model integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// First-order, L-stable; heavily damped but never rings.
    BackwardEuler,
    /// Second-order, A-stable; the default, as in SPICE.
    #[default]
    Trapezoidal,
}

/// Options for [`transient`].
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// Stop time (the analysis always starts at `t = 0`).
    pub t_stop: f64,
    /// Initial step size (`0` = `t_stop / 1000`).
    pub dt_init: f64,
    /// Minimum step before declaring failure (`0` = `t_stop * 1e-12`).
    pub dt_min: f64,
    /// Maximum step (`0` = `t_stop / 50`).
    pub dt_max: f64,
    /// Integration method.
    pub method: IntegrationMethod,
    /// Start from the circuit's initial conditions instead of a DC
    /// operating point (SPICE `UIC`).
    pub use_ic: bool,
    /// Newton options used inside every timestep.
    pub newton: DcOptions,
    /// Relative local-truncation tolerance for the step controller.
    pub lte_rel: f64,
    /// Absolute local-truncation tolerance (V or A).
    pub lte_abs: f64,
    /// Reuse matrix factorizations across Newton iterations and timesteps
    /// when the circuit is linear (bit-identical results; disable only to
    /// benchmark the factor-per-step path).
    pub reuse_factor: bool,
}

impl TranOptions {
    /// Sensible defaults for a window of `t_stop` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` is not positive and finite.
    pub fn to(t_stop: f64) -> Self {
        assert!(
            t_stop.is_finite() && t_stop > 0.0,
            "t_stop must be positive"
        );
        Self {
            t_stop,
            dt_init: 0.0,
            dt_min: 0.0,
            dt_max: 0.0,
            method: IntegrationMethod::Trapezoidal,
            use_ic: false,
            newton: DcOptions {
                max_newton: 50,
                ..DcOptions::default()
            },
            lte_rel: 0.01,
            lte_abs: 1e-4,
            reuse_factor: true,
        }
    }

    /// Builder-style: start from initial conditions (`UIC`).
    pub fn with_ic(mut self) -> Self {
        self.use_ic = true;
        self
    }

    /// Builder-style: select the integration method.
    pub fn with_method(mut self, method: IntegrationMethod) -> Self {
        self.method = method;
        self
    }

    /// Builder-style: cap the maximum timestep.
    pub fn with_dt_max(mut self, dt_max: f64) -> Self {
        self.dt_max = dt_max;
        self
    }

    fn resolved(&self) -> (f64, f64, f64) {
        let dt_max = if self.dt_max > 0.0 {
            self.dt_max
        } else {
            self.t_stop / 50.0
        };
        let dt_init = if self.dt_init > 0.0 {
            self.dt_init.min(dt_max)
        } else {
            (self.t_stop / 1000.0).min(dt_max)
        };
        let dt_min = if self.dt_min > 0.0 {
            self.dt_min
        } else {
            self.t_stop * 1e-12
        };
        (dt_init, dt_min, dt_max)
    }
}

/// Builds the initial state (unknown vector + capacitor states).
fn initial_state(
    circuit: &Circuit,
    layout: &SystemLayout,
    opts: &TranOptions,
) -> Result<PrevState, SpiceError> {
    if opts.use_ic {
        let mut x = vec![0.0; layout.dim()];
        let mut pinned = vec![false; layout.dim()];
        for (&node, &v) in circuit.initial_voltages() {
            if let Some(i) = layout.node_index(node) {
                x[i] = v;
                pinned[i] = true;
            }
        }
        // A grounded capacitor with an explicit IC pins its free terminal
        // unless the user already set that node.
        for el in circuit.elements() {
            if let ElementKind::Capacitor {
                a, b, ic: Some(v0), ..
            } = el.kind()
            {
                match (layout.node_index(*a), layout.node_index(*b)) {
                    (Some(i), None) if !pinned[i] => x[i] = *v0,
                    (None, Some(j)) if !pinned[j] => x[j] = -*v0,
                    _ => {}
                }
            }
        }
        let mut caps = vec![CapState::default(); layout.n_caps];
        for (idx, el) in circuit.elements().iter().enumerate() {
            match (el.kind(), layout.cap_of[idx]) {
                (ElementKind::Capacitor { a, b, ic, .. }, Some(slot)) => {
                    caps[slot].v =
                        ic.unwrap_or_else(|| layout.voltage(&x, *a) - layout.voltage(&x, *b));
                    caps[slot].i = 0.0;
                }
                (ElementKind::Inductor { ic, .. }, _) => {
                    if let (Some(i0), Some(bi)) = (ic, layout.branch_index(idx)) {
                        x[bi] = *i0;
                    }
                }
                _ => {}
            }
        }
        Ok(PrevState { x, caps })
    } else {
        let op = dc_operating_point(circuit, opts.newton)?;
        let x = op.x;
        let mut caps = vec![CapState::default(); layout.n_caps];
        for (el, &slot) in circuit.elements().iter().zip(&layout.cap_of) {
            if let (ElementKind::Capacitor { a, b, .. }, Some(slot)) = (el.kind(), slot) {
                caps[slot].v = layout.voltage(&x, *a) - layout.voltage(&x, *b);
                caps[slot].i = 0.0;
            }
        }
        Ok(PrevState { x, caps })
    }
}

/// Updates capacitor companion states after an accepted step.
fn update_cap_states(
    circuit: &Circuit,
    layout: &SystemLayout,
    x_new: &[f64],
    dt: f64,
    method: IntegrationMethod,
    caps: &mut [CapState],
) {
    for (el, &slot) in circuit.elements().iter().zip(&layout.cap_of) {
        if let (ElementKind::Capacitor { a, b, farads, .. }, Some(slot)) = (el.kind(), slot) {
            let v_new = layout.voltage(x_new, *a) - layout.voltage(x_new, *b);
            let state = &mut caps[slot];
            state.i = match method {
                IntegrationMethod::BackwardEuler => farads * (v_new - state.v) / dt,
                IntegrationMethod::Trapezoidal => 2.0 * farads * (v_new - state.v) / dt - state.i,
            };
            state.v = v_new;
        }
    }
}

/// Collects and sorts source breakpoints in `(0, t_stop]`.
fn breakpoints(circuit: &Circuit, t_stop: f64) -> Vec<f64> {
    let mut bps: Vec<f64> = Vec::new();
    for el in circuit.elements() {
        let wave = match el.kind() {
            ElementKind::VSource { wave, .. } | ElementKind::ISource { wave, .. } => wave,
            _ => continue,
        };
        bps.extend(
            wave.breakpoints(t_stop)
                .into_iter()
                .filter(|&t| t > 0.0 && t <= t_stop),
        );
    }
    bps.push(t_stop);
    bps.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    bps.dedup_by(|a, b| (*a - *b).abs() < t_stop * 1e-12);
    bps
}

/// Runs a transient analysis of `circuit` over `[0, opts.t_stop]`.
///
/// # Errors
///
/// * [`SpiceError::NewtonDiverged`] when a timestep cannot be converged
///   even at the minimum step size,
/// * [`SpiceError::TimestepUnderflow`] when the error controller drives the
///   step below `dt_min`,
/// * errors from the initial DC operating point when `use_ic` is off.
pub fn transient(circuit: &Circuit, opts: TranOptions) -> Result<TranResult, SpiceError> {
    let _span = ssn_telemetry::span("spice.tran");
    let layout = SystemLayout::new(circuit);
    let (dt_init, dt_min, dt_max) = opts.resolved();
    let bps = breakpoints(circuit, opts.t_stop);
    let mut ws = SolverWorkspace::new(
        circuit,
        &layout,
        opts.newton.sparse_dim_threshold,
        opts.reuse_factor,
    )?;

    let mut prev = initial_state(circuit, &layout, &opts)?;
    let mut times = vec![0.0];
    // Row-major: one row of `layout.dim()` unknowns per accepted time.
    let mut states = prev.x.clone();
    // Newton's iterate and the state at t - 2 (for the LTE predictor).
    // An accepted step rotates them through `prev.x`, so no step
    // allocates.
    let mut x_iter = vec![0.0; layout.dim()];
    let mut x_hist = vec![0.0; layout.dim()];

    let mut t = 0.0f64;
    let mut dt = dt_init;
    let mut bp_cursor = 0usize;
    // Force a damped first-order step right after t = 0 and after every
    // breakpoint corner.
    let mut post_discontinuity = true;
    // The last step's dt, while `x_hist` holds the state before it.
    let mut hist_dt: Option<f64> = None;
    let mut total_newton = 0usize;
    let mut rejected = 0usize;

    while t < opts.t_stop * (1.0 - 1e-12) {
        if ssn_numeric::cancel::deadline_exceeded() {
            return Err(SpiceError::Cancelled { time: t });
        }
        // Align to the next breakpoint.
        while bp_cursor < bps.len() && bps[bp_cursor] <= t * (1.0 + 1e-12) {
            bp_cursor += 1;
        }
        let next_bp = bps.get(bp_cursor).copied().unwrap_or(opts.t_stop);
        let mut landed_on_bp = false;
        let mut dt_eff = dt.min(dt_max);
        if t + dt_eff >= next_bp * (1.0 - 1e-12) {
            dt_eff = next_bp - t;
            landed_on_bp = true;
        }
        if dt_eff < dt_min {
            // A breakpoint collision can legitimately produce a tiny final
            // sliver; only fail when the controller itself shrank dt.
            if !landed_on_bp {
                return Err(SpiceError::TimestepUnderflow {
                    time: t,
                    dt: dt_eff,
                });
            }
        }

        let method = if post_discontinuity {
            IntegrationMethod::BackwardEuler
        } else {
            opts.method
        };
        let t_new = t + dt_eff;
        let mode = AnalysisMode::Tran {
            t: t_new,
            dt: dt_eff,
            method,
            prev: &prev,
        };
        x_iter.copy_from_slice(&prev.x);
        match newton_solve(circuit, &layout, &mode, &mut x_iter, &opts.newton, &mut ws) {
            Ok(iters) => {
                total_newton += iters;
                let (x_new, x_old) = (&x_iter, &x_hist);
                // Local-truncation estimate via the linear predictor.
                if !post_discontinuity {
                    if let Some(dt_old) = hist_dt {
                        let ratio = dt_eff / dt_old;
                        let mut err = 0.0f64;
                        let mut scale = 0.0f64;
                        for i in 0..layout.n_nodes - 1 {
                            let pred = prev.x[i] + (prev.x[i] - x_old[i]) * ratio;
                            err = err.max((x_new[i] - pred).abs());
                            scale = scale.max(x_new[i].abs());
                        }
                        let tol = opts.lte_abs + opts.lte_rel * scale;
                        if err > 4.0 * tol && dt_eff > dt_min * 4.0 {
                            // Reject and retry with a smaller step.
                            rejected += 1;
                            dt = (dt_eff * 0.5).max(dt_min);
                            continue;
                        }
                        // Grow or shrink the next step towards the target.
                        let factor = if err > 0.0 {
                            (0.9 * (tol / err).sqrt()).clamp(0.3, 2.0)
                        } else {
                            2.0
                        };
                        dt = (dt_eff * factor).clamp(dt_min, dt_max);
                    } else {
                        dt = (dt_eff * 1.5).clamp(dt_min, dt_max);
                    }
                } else {
                    dt = (dt_eff * 1.2).clamp(dt_min, dt_max);
                }
                // Newton-effort feedback.
                if iters > opts.newton.max_newton / 2 {
                    dt = (dt * 0.5).max(dt_min);
                }

                update_cap_states(circuit, &layout, &x_iter, dt_eff, method, &mut prev.caps);
                // x_hist <- prev.x <- x_iter; the stale x_hist becomes the
                // next iterate buffer.
                std::mem::swap(&mut x_hist, &mut prev.x);
                std::mem::swap(&mut prev.x, &mut x_iter);
                hist_dt = Some(dt_eff);
                t = t_new;
                times.push(t);
                states.extend_from_slice(&prev.x);
                post_discontinuity = landed_on_bp && t < opts.t_stop * (1.0 - 1e-12);
                if post_discontinuity {
                    hist_dt = None;
                    dt = (dt_eff.min(dt_init)).max(dt_min);
                }
            }
            Err(_) if dt_eff > dt_min * 2.0 => {
                rejected += 1;
                dt = (dt_eff * 0.25).max(dt_min);
            }
            Err(e) => return Err(e),
        }
    }

    ssn_telemetry::add("spice.tran.steps", times.len() as u64);
    ssn_telemetry::add("spice.tran.newton_iters", total_newton as u64);
    ssn_telemetry::add("spice.tran.rejected_steps", rejected as u64);
    Ok(TranResult {
        circuit: circuit.clone(),
        layout,
        times,
        states,
        newton_iterations: total_newton,
        rejected_steps: rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWave;
    use ssn_devices::{AlphaPower, MosPolarity};
    use std::sync::Arc;

    #[test]
    fn rc_step_response_matches_analytic() {
        // 1k / 1n: tau = 1 us. Step at t = 0 via DC source + use_ic at 0.
        let mut c = Circuit::new();
        c.vsource("vin", "in", "0", SourceWave::Dc(1.0)).unwrap();
        c.resistor("r1", "in", "out", 1e3).unwrap();
        c.capacitor_with_ic("c1", "out", "0", 1e-9, 0.0).unwrap();
        let res = transient(&c, TranOptions::to(5e-6).with_ic()).unwrap();
        let out = res.voltage("out").unwrap();
        for frac in [0.5, 1.0, 2.0, 4.0] {
            let t = frac * 1e-6;
            let exact = 1.0 - (-t / 1e-6_f64).exp();
            assert!(
                (out.sample(t) - exact).abs() < 5e-3,
                "t = {t}: {} vs {exact}",
                out.sample(t)
            );
        }
    }

    #[test]
    fn rc_from_dc_operating_point_is_flat() {
        // Starting from the DC op, nothing should move.
        let mut c = Circuit::new();
        c.vsource("vin", "in", "0", SourceWave::Dc(1.0)).unwrap();
        c.resistor("r1", "in", "out", 1e3).unwrap();
        c.capacitor("c1", "out", "0", 1e-9).unwrap();
        let res = transient(&c, TranOptions::to(1e-6)).unwrap();
        let out = res.voltage("out").unwrap();
        assert!(out.values().iter().all(|v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn rl_current_ramp() {
        // V across L: i = V t / L.
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", SourceWave::Dc(1.0)).unwrap();
        c.inductor("l1", "a", "b", 1e-6).unwrap();
        c.resistor("r1", "b", "0", 1e-3).unwrap(); // nearly a short
        let res = transient(&c, TranOptions::to(1e-6).with_ic()).unwrap();
        let i = res.branch_current("l1").unwrap();
        let expect = 1.0 * 0.5e-6 / 1e-6;
        assert!(
            (i.sample(0.5e-6) - expect).abs() / expect < 0.02,
            "i = {}",
            i.sample(0.5e-6)
        );
    }

    #[test]
    fn series_rlc_underdamped_ringing() {
        // L = 1 uH, C = 1 nF, R = 10: underdamped (Q ~ 3.2).
        // Step response peak overshoot = 1 + exp(-pi zeta / sqrt(1-zeta^2)).
        let mut c = Circuit::new();
        c.vsource("v1", "in", "0", SourceWave::Dc(1.0)).unwrap();
        c.resistor("r1", "in", "n1", 10.0).unwrap();
        c.inductor("l1", "n1", "n2", 1e-6).unwrap();
        c.capacitor_with_ic("c1", "n2", "0", 1e-9, 0.0).unwrap();
        let opts = TranOptions {
            lte_rel: 0.002,
            ..TranOptions::to(8e-6).with_ic()
        };
        let res = transient(&c, opts).unwrap();
        let out = res.voltage("n2").unwrap();
        let zeta = 10.0 / 2.0 * (1e-9f64 / 1e-6).sqrt(); // R/2 sqrt(C/L)
        let overshoot = 1.0 + (-std::f64::consts::PI * zeta / (1.0 - zeta * zeta).sqrt()).exp();
        let peak = out.peak();
        assert!(
            (peak.value - overshoot).abs() < 0.03,
            "peak {} vs {overshoot}",
            peak.value
        );
        // Peak time = pi / omega_d.
        let w0 = 1.0 / (1e-6f64 * 1e-9).sqrt();
        let wd = w0 * (1.0 - zeta * zeta).sqrt();
        let tp = std::f64::consts::PI / wd;
        assert!(
            (peak.time - tp).abs() / tp < 0.05,
            "tp {} vs {tp}",
            peak.time
        );
    }

    #[test]
    fn pwl_ramp_breakpoints_are_honoured() {
        let mut c = Circuit::new();
        c.vsource("vin", "in", "0", SourceWave::ramp(0.0, 1.8, 1e-9, 0.5e-9))
            .unwrap();
        c.resistor("r1", "in", "out", 100.0).unwrap();
        c.capacitor_with_ic("c1", "out", "0", 1e-13, 0.0).unwrap();
        let res = transient(&c, TranOptions::to(3e-9).with_ic()).unwrap();
        // Breakpoint times should be sampled exactly.
        assert!(res.times().iter().any(|&t| (t - 1e-9).abs() < 1e-21));
        assert!(res.times().iter().any(|&t| (t - 1.5e-9).abs() < 1e-21));
        let inw = res.voltage("in").unwrap();
        assert!((inw.sample(1.25e-9) - 0.9).abs() < 1e-6);
        assert!((inw.sample(3e-9) - 1.8).abs() < 1e-9);
    }

    #[test]
    fn cmos_inverter_switches_dynamically() {
        let n = Arc::new(AlphaPower::builder().build());
        let p = Arc::new(AlphaPower::builder().build());
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", SourceWave::Dc(1.8)).unwrap();
        c.vsource("vin", "g", "0", SourceWave::ramp(0.0, 1.8, 0.2e-9, 0.2e-9))
            .unwrap();
        c.mosfet("mp", MosPolarity::Pmos, "out", "g", "vdd", "vdd", p)
            .unwrap();
        c.mosfet("mn", MosPolarity::Nmos, "out", "g", "0", "0", n)
            .unwrap();
        c.capacitor("cl", "out", "0", 50e-15).unwrap();
        let res = transient(&c, TranOptions::to(2e-9)).unwrap();
        let out = res.voltage("out").unwrap();
        // Starts at vdd, ends at 0.
        assert!((out.sample(0.0) - 1.8).abs() < 1e-2);
        assert!(out.sample(2e-9) < 0.02, "final {}", out.sample(2e-9));
        // The NMOS sank the load charge.
        let imn = res.mosfet_current("mn").unwrap();
        assert!(imn.peak().value > 1e-3);
    }

    #[test]
    fn trapezoidal_and_backward_euler_agree() {
        let build = || {
            let mut c = Circuit::new();
            c.vsource("vin", "in", "0", SourceWave::ramp(0.0, 1.0, 0.0, 1e-7))
                .unwrap();
            c.resistor("r1", "in", "out", 1e3).unwrap();
            c.capacitor_with_ic("c1", "out", "0", 1e-11, 0.0).unwrap();
            c
        };
        let tight = |method| TranOptions {
            lte_rel: 0.001,
            lte_abs: 1e-5,
            ..TranOptions::to(1e-6).with_ic().with_method(method)
        };
        let a = transient(&build(), tight(IntegrationMethod::Trapezoidal)).unwrap();
        let b = transient(&build(), tight(IntegrationMethod::BackwardEuler)).unwrap();
        let wa = a.voltage("out").unwrap();
        let wb = b.voltage("out").unwrap();
        let err = wa.max_abs_error(&wb).unwrap();
        assert!(err < 2e-2, "methods disagree by {err}");
    }

    #[test]
    fn probe_errors() {
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", SourceWave::Dc(1.0)).unwrap();
        c.resistor("r1", "a", "0", 1e3).unwrap();
        let res = transient(&c, TranOptions::to(1e-9).with_ic()).unwrap();
        assert!(res.voltage("zz").is_err());
        assert!(res.branch_current("r1").is_err());
        assert!(res.mosfet_current("v1").is_err());
        assert!(!res.is_empty());
        assert!(res.len() >= 2);
        assert!(res.newton_iterations() > 0);
        let _ = res.rejected_steps();
        assert!((res.final_voltage("a").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "t_stop must be positive")]
    fn options_validate_t_stop() {
        let _ = TranOptions::to(0.0);
    }

    #[test]
    fn periodic_pulse_corners_are_all_sampled() {
        let mut c = Circuit::new();
        c.vsource(
            "vin",
            "in",
            "0",
            SourceWave::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-9,
                rise: 0.2e-9,
                fall: 0.2e-9,
                width: 1e-9,
                period: 3e-9,
            },
        )
        .unwrap();
        c.resistor("r1", "in", "0", 1e3).unwrap();
        let res = transient(&c, TranOptions::to(7e-9).with_ic()).unwrap();
        // Every pulse corner in the window must be an exact sample.
        for corner in [1e-9, 1.2e-9, 2.2e-9, 2.4e-9, 4e-9, 4.2e-9, 5.2e-9, 5.4e-9] {
            assert!(
                res.times().iter().any(|&t| (t - corner).abs() < 1e-20),
                "corner {corner:e} missed"
            );
        }
        // And the resistive node follows the source exactly at a corner.
        let vin = res.voltage("in").unwrap();
        assert!((vin.sample(2.2e-9) - 1.0).abs() < 1e-9);
        assert!((vin.sample(2.4e-9)).abs() < 1e-9);
    }

    #[test]
    fn dt_max_is_honoured() {
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", SourceWave::Dc(1.0)).unwrap();
        c.resistor("r1", "a", "0", 1e3).unwrap();
        let res = transient(&c, TranOptions::to(1e-6).with_ic().with_dt_max(1e-8)).unwrap();
        let worst = res
            .times()
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0f64, f64::max);
        assert!(worst <= 1e-8 * 1.001, "step {worst:e} exceeded dt_max");
        assert!(res.len() >= 100);
    }

    #[test]
    fn rejected_steps_are_counted_on_stiff_transitions() {
        // A sharp pulse into an RC with a long window forces the LTE
        // controller to reject at least occasionally while re-expanding
        // between edges.
        let mut c = Circuit::new();
        c.vsource(
            "vin",
            "in",
            "0",
            SourceWave::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 10e-9,
                rise: 1e-12,
                fall: 1e-12,
                width: 10e-9,
                period: 0.0,
            },
        )
        .unwrap();
        c.resistor("r1", "in", "out", 100.0).unwrap();
        c.capacitor_with_ic("c1", "out", "0", 1e-12, 0.0).unwrap();
        let res = transient(&c, TranOptions::to(100e-9).with_ic()).unwrap();
        let out = res.voltage("out").unwrap();
        // The pulse got through and settled back.
        assert!(out.peak().value > 0.99);
        assert!(out.sample(100e-9).abs() < 1e-3);
    }
}
