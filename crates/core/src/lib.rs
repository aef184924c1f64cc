// The `!(a > b)` validation idiom below deliberately treats NaN as a
// failure; the negated form is kept on purpose.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

//! Closed-form simultaneous switching noise (SSN) estimation with
//! application-specific device modeling.
//!
//! This crate implements the contribution of *Ding & Mazumder, "Accurate
//! Estimating Simultaneous Switching Noises by Using Application Specific
//! Device Modeling", DATE 2002*:
//!
//! * [`scenario`] — the [`SsnScenario`] bundle: an
//!   ASDM-modelled driver bank behind a package ground path,
//! * [`lmodel`] — the inductance-only SSN model (paper Section 3,
//!   Eqns. 6–10) including the `Z = N L s` circuit-oriented figure,
//! * [`lcmodel`] — the full LC model (Section 4, Table 1): damping
//!   classification, waveforms per region, the four-case maximum-SSN
//!   formulas and the critical capacitance,
//! * [`baselines`] — reimplementations of the prior models the paper
//!   compares against (Vemuru '96, Song '99, Senthinathan–Prince '91),
//! * [`bridge`] — generation and measurement of the equivalent
//!   driver-bank netlist in [`ssn_spice`] (the HSPICE substitute),
//! * [`design`] — the design-space utilities implied by Section 3
//!   (noise-budget sizing, slew targets, switching-skew scheduling),
//! * [`parallel`] — the deterministic chunked thread-pool engine behind
//!   Monte Carlo margining and design-space sweeps, with per-chunk panic
//!   isolation,
//! * [`oracle`] — the corpus-scale differential oracle harness
//!   cross-validating the closed forms against an MNA transient of the
//!   same linearized circuit, with minimized reproducers on disagreement,
//! * [`grids`] — grid-scale validation sweeps: synthesized power-grid
//!   circuits with 1000+ unknowns exercising the sparse/GMRES solver
//!   tier, with a sparse-vs-dense differential on the smaller meshes,
//! * [`durable`] — crash-safe checkpoint/resume (journaled, checksummed,
//!   atomic commits), deadline-budgeted execution ([`durable::RunBudget`]),
//!   and the declared degradation ladder for overruns,
//! * [`optimize`] — inverse design: a durable coarse-to-fine Pareto
//!   search over the `(N, L, C, tr)` space whose front is provably
//!   identical to exhaustive enumeration while evaluating fewer points,
//! * [`faults`] — deterministic fault injection (NaN model outputs, worker
//!   panics, forced solver failures, crashes, disk and network faults),
//!   armed for one run at a time and inert otherwise.
//!
//! # Examples
//!
//! Estimate the ground bounce of eight drivers behind a PGA package:
//!
//! ```
//! use ssn_core::scenario::SsnScenario;
//! use ssn_core::{lmodel, lcmodel};
//! use ssn_devices::process::Process;
//! use ssn_units::Seconds;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let process = Process::p018();
//! let scenario = SsnScenario::builder(&process)
//!     .drivers(8)
//!     .rise_time(Seconds::from_nanos(0.5))
//!     .build()?;
//! let quick = lmodel::vn_max(&scenario);          // L-only estimate
//! let (full, case) = lcmodel::vn_max(&scenario);  // LC Table-1 estimate
//! assert!(quick.value() > 0.3 && quick.value() < 1.2);
//! assert!((quick.value() - full.value()).abs() / quick.value() < 0.2);
//! println!("Vmax = {full} ({case})");
//! # Ok(())
//! # }
//! ```

pub mod baselines;
pub mod bridge;
pub mod design;
pub mod durable;
pub mod error;
pub mod faults;
pub mod grids;
pub mod lcmodel;
pub mod lmodel;
pub mod montecarlo;
pub mod optimize;
pub mod oracle;
pub mod parallel;
pub mod report;
pub mod scenario;
pub mod storage;

/// Structured tracing and metrics for the estimation pipeline.
///
/// A re-export of the zero-dependency `ssn-telemetry` crate (it lives
/// below `ssn-numeric` in the dependency graph so the solver ladder and
/// ODE integrator can be instrumented too). Recording is off until a
/// [`telemetry::Session`] starts, and never affects estimation results —
/// the determinism tests pin `--telemetry` on/off bit-identity at every
/// thread count.
pub mod telemetry {
    pub use ssn_telemetry::*;
}

pub use error::SsnError;
pub use lcmodel::{Damping, MaxSsnCase};
pub use scenario::SsnScenario;
