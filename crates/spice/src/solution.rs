//! Analysis results and probes.

use crate::error::SpiceError;
use crate::netlist::{Circuit, ElementKind};
use crate::stamp::{mos_linearize, SystemLayout};
use ssn_waveform::Waveform;

/// The solution of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcSolution {
    pub(crate) circuit: Circuit,
    pub(crate) layout: SystemLayout,
    pub(crate) x: Vec<f64>,
}

impl DcSolution {
    /// The DC voltage of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] for an unknown node name.
    pub fn voltage(&self, node: &str) -> Result<f64, SpiceError> {
        let id = self
            .circuit
            .find_node(node)
            .ok_or_else(|| SpiceError::UnknownProbe { name: node.into() })?;
        Ok(self.layout.voltage(&self.x, id))
    }

    /// The DC branch current of a voltage source or inductor.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] when `element` does not name a
    /// voltage source or inductor.
    pub fn branch_current(&self, element: &str) -> Result<f64, SpiceError> {
        let idx = element_index(&self.circuit, element)?;
        let bi = self
            .layout
            .branch_index(idx)
            .ok_or_else(|| SpiceError::UnknownProbe {
                name: element.into(),
            })?;
        Ok(self.x[bi])
    }
}

/// The sampled trajectory of a transient analysis.
///
/// The unknown vectors are stored row-major in one flat vector: row `k`
/// holds the node voltages and branch currents at `times()[k]`.
#[derive(Debug, Clone)]
pub struct TranResult {
    pub(crate) circuit: Circuit,
    pub(crate) layout: SystemLayout,
    pub(crate) times: Vec<f64>,
    pub(crate) states: Vec<f64>,
    pub(crate) newton_iterations: usize,
    pub(crate) rejected_steps: usize,
}

impl TranResult {
    /// Number of accepted timepoints.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no timepoints were stored (cannot happen for a
    /// successful analysis).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Total Newton iterations spent (performance metric).
    pub fn newton_iterations(&self) -> usize {
        self.newton_iterations
    }

    /// Steps rejected by the error controller (performance metric).
    pub fn rejected_steps(&self) -> usize {
        self.rejected_steps
    }

    /// The accepted sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The unknown vector at accepted time `k`.
    fn state(&self, k: usize) -> &[f64] {
        let dim = self.layout.dim();
        &self.states[k * dim..(k + 1) * dim]
    }

    /// The unknown vectors, one per accepted time.
    fn rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.len()).map(|k| self.state(k))
    }

    /// The voltage waveform of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] for an unknown node name.
    pub fn voltage(&self, node: &str) -> Result<Waveform, SpiceError> {
        let id = self
            .circuit
            .find_node(node)
            .ok_or_else(|| SpiceError::UnknownProbe { name: node.into() })?;
        let v: Vec<f64> = self.rows().map(|x| self.layout.voltage(x, id)).collect();
        Ok(Waveform::new(self.times.clone(), v)?)
    }

    /// The branch-current waveform of a voltage source or inductor
    /// (positive current flows into the `+`/`a` terminal and out of the
    /// other).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] when `element` does not name a
    /// voltage source or inductor.
    pub fn branch_current(&self, element: &str) -> Result<Waveform, SpiceError> {
        let idx = element_index(&self.circuit, element)?;
        let bi = self
            .layout
            .branch_index(idx)
            .ok_or_else(|| SpiceError::UnknownProbe {
                name: element.into(),
            })?;
        let v: Vec<f64> = self.rows().map(|x| x[bi]).collect();
        Ok(Waveform::new(self.times.clone(), v)?)
    }

    /// The drain-terminal current waveform of a MOSFET, re-evaluated from
    /// the stored node voltages.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] when `element` does not name a
    /// MOSFET.
    pub fn mosfet_current(&self, element: &str) -> Result<Waveform, SpiceError> {
        let idx = element_index(&self.circuit, element)?;
        let ElementKind::Mosfet {
            polarity,
            d,
            g,
            s,
            b,
            model,
        } = self.circuit.elements()[idx].kind().clone()
        else {
            return Err(SpiceError::UnknownProbe {
                name: element.into(),
            });
        };
        let v: Vec<f64> = self
            .rows()
            .map(|x| {
                let vd = self.layout.voltage(x, d);
                let vg = self.layout.voltage(x, g);
                let vs = self.layout.voltage(x, s);
                let vb = self.layout.voltage(x, b);
                mos_linearize(model.as_ref(), polarity, vd, vg, vs, vb).i
            })
            .collect();
        Ok(Waveform::new(self.times.clone(), v)?)
    }

    /// The final state's voltage of `node` (convenience for settling
    /// checks).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] for an unknown node name.
    pub fn final_voltage(&self, node: &str) -> Result<f64, SpiceError> {
        let id = self
            .circuit
            .find_node(node)
            .ok_or_else(|| SpiceError::UnknownProbe { name: node.into() })?;
        let last = self.len().checked_sub(1).expect("non-empty trajectory");
        Ok(self.layout.voltage(self.state(last), id))
    }
}

fn element_index(circuit: &Circuit, name: &str) -> Result<usize, SpiceError> {
    circuit
        .elements()
        .iter()
        .position(|e| e.name() == name)
        .or_else(|| {
            // SPICE tradition: element names are case-insensitive.
            circuit
                .elements()
                .iter()
                .position(|e| e.name().eq_ignore_ascii_case(name))
        })
        .ok_or_else(|| SpiceError::UnknownProbe { name: name.into() })
}
