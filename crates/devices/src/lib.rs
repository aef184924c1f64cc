#![warn(missing_docs)]

//! MOSFET compact models and model fitting for SSN analysis.
//!
//! This crate provides the device layer of the SSN suite:
//!
//! * [`model`] — the [`MosModel`] evaluation trait shared by
//!   all compact models (current + analytic conductances),
//! * [`level1`] — the classic Shichman–Hodges square-law model,
//! * [`alpha_power`] — the Sakurai–Newton alpha-power law model, used as the
//!   *golden* short-channel device standing in for the paper's BSIM3 deck,
//! * [`asdm`] — the paper's **application-specific device model**: a linear
//!   two-variable law `I_d = K (V_g - sigma * V_s - V_0)` valid in the SSN
//!   operating region,
//! * [`fit`] — fitting ASDM and alpha-power parameters to sampled I–V data,
//! * [`process`] — a synthetic process library (0.18/0.25/0.35 um) with
//!   package parasitics, replacing the proprietary TSMC decks.
//!
//! # Examples
//!
//! Fit an ASDM to the golden 0.18 um device and evaluate it:
//!
//! ```
//! use ssn_devices::process::Process;
//! use ssn_devices::fit::{fit_asdm, sample_ssn_region, SsnRegionSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let process = Process::p018();
//! let driver = process.output_driver();
//! let samples = sample_ssn_region(&driver, &SsnRegionSpec::for_process(&process));
//! let asdm = fit_asdm(&samples)?;
//! assert!(asdm.sigma() > 1.0);          // paper: sigma > 1 in real processes
//! assert!(asdm.v0().value() > process.vth0().value()); // V0 is NOT the threshold
//! # Ok(())
//! # }
//! ```

pub mod alpha_power;
pub mod asdm;
pub mod diode;
pub mod fit;
pub mod level1;
pub mod model;
pub mod process;
pub mod thermal;

pub use alpha_power::AlphaPower;
pub use asdm::Asdm;
pub use diode::Diode;
pub use level1::Level1;
pub use model::{DrainCurrent, MosModel, MosPolarity};
pub use process::Process;
