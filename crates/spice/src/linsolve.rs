//! The per-analysis linear-solver tier: dense LU for small systems, the
//! CSR + GMRES ladder for large ones, and factor reuse for linear circuits.
//!
//! A [`SolverWorkspace`] is created once per analysis (one `transient` or
//! `dc_operating_point` call) and owns the system matrix, the right-hand
//! side, Newton's solution buffer and the factorization storage. On the
//! dense tier a Newton iteration, and so an accepted time step, allocates
//! nothing: every factorization goes into recycled storage
//! ([`LuFactor::refactor`]) and every solve into a caller buffer.
//! `tests/transient_allocs.rs` holds that contract.
//!
//! Two independent optimizations live here, both provably bit-identical
//! to the naive factor-per-iteration path:
//!
//! * **Linear-circuit hoisting** (used by `newton_solve`): when the
//!   circuit has no diodes or MOSFETs, `A` and `z` do not depend on the
//!   iterate, so every Newton iteration of the original code assembled
//!   and factored the *same* matrix and produced the *same* `x_new`.
//!   Solving once and reusing `x_new` across the damping iterations
//!   reproduces those numbers exactly.
//! * **Cross-step factor caching**: within one transient, steps that
//!   share the companion-model key (`dt` bits + integration method)
//!   assemble bit-identical matrices, so the LU (or ILU) factors are
//!   bit-identical too and can be reused. The adaptive controller settles
//!   onto `dt_max` for long stretches, which is where the cache pays. A
//!   dense hit does not even re-stamp `A`: it assembles only the
//!   right-hand side.
//!
//! Above [`SPARSE_DIM_THRESHOLD`] unknowns the workspace switches from
//! dense LU to CSR storage with the `gmres+ilu0 → gmres+jacobi →
//! dense-lu` ladder from [`ssn_numeric::gmres`], mirroring the
//! `newton → brent → bisect` root-finder ladder. That tier allocates in
//! GMRES itself.

use crate::error::SpiceError;
use crate::netlist::Circuit;
use crate::stamp::{assemble, sparsity_pattern, AnalysisMode, RhsOnly, SystemLayout};
use crate::tran::IntegrationMethod;
use ssn_numeric::gmres::{gmres, solve_sparse, GmresOptions, LinearSolveReport, Preconditioner};
use ssn_numeric::lu::LuFactor;
use ssn_numeric::matrix::DenseMatrix;
use ssn_numeric::sparse::{CsrMatrix, Ilu0};

/// Systems with at least this many unknowns use the sparse/GMRES tier;
/// smaller ones stay on dense LU, whose constant factors win there.
pub(crate) const SPARSE_DIM_THRESHOLD: usize = 64;

/// Bounded factor cache: big enough for the handful of distinct `dt`
/// values an adaptive transient revisits (plus the DC homotopy stages),
/// small enough that the linear scan is free.
const FACTOR_CACHE_CAP: usize = 8;

/// Cache key under which an assembled matrix is reproducible: everything
/// `A` depends on besides the circuit itself (for linear circuits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactorKey {
    /// DC: `A` depends only on the homotopy gmin.
    Dc { gmin: u64 },
    /// Transient: `A` depends on the step size and companion method.
    Tran { dt: u64, method: IntegrationMethod },
}

fn key_of(mode: &AnalysisMode<'_>) -> FactorKey {
    match mode {
        AnalysisMode::Dc { gmin, .. } => FactorKey::Dc {
            gmin: gmin.to_bits(),
        },
        AnalysisMode::Tran { dt, method, .. } => FactorKey::Tran {
            dt: dt.to_bits(),
            method: *method,
        },
    }
}

/// System-matrix storage, chosen once per analysis by dimension.
enum Storage {
    Dense(DenseMatrix),
    Sparse(CsrMatrix),
}

/// Reusable solver state for one analysis of one circuit.
pub(crate) struct SolverWorkspace {
    storage: Storage,
    z: Vec<f64>,
    /// Newton's solution buffer (see `dc::newton_solve`).
    pub(crate) x_new: Vec<f64>,
    /// No diodes/MOSFETs: the assembled system is iterate-independent.
    linear: bool,
    /// Factor caching enabled (disable to benchmark the old path).
    reuse: bool,
    /// Cached dense factors, first in first out: once full, the slot at
    /// `dense_oldest` is the next to go.
    dense_cache: Vec<(FactorKey, LuFactor)>,
    dense_oldest: usize,
    /// Every dense factorization lands here first, so a singular matrix
    /// leaves the cache as it was. A cached miss then trades places with
    /// the evicted slot, whose storage becomes the next spare.
    spare: LuFactor,
    ilu_cache: Vec<(FactorKey, Preconditioner)>,
    gmres_opts: GmresOptions,
    /// Convergence report of the most recent sparse solve.
    pub last_report: Option<LinearSolveReport>,
    // Telemetry accumulators, flushed on drop.
    dense_solves: u64,
    sparse_solves: u64,
    factor_hits: u64,
    factor_misses: u64,
    ladder_fallbacks: u64,
}

impl SolverWorkspace {
    /// Builds the workspace for `circuit`, picking dense or sparse storage
    /// by comparing the system dimension against `sparse_threshold`.
    pub(crate) fn new(
        circuit: &Circuit,
        layout: &SystemLayout,
        sparse_threshold: usize,
        reuse: bool,
    ) -> Result<Self, SpiceError> {
        let dim = layout.dim();
        let storage = if dim >= sparse_threshold.max(1) {
            let pattern = sparsity_pattern(circuit, layout);
            Storage::Sparse(CsrMatrix::from_pattern(dim, &pattern)?)
        } else {
            Storage::Dense(DenseMatrix::zeros(dim, dim))
        };
        Ok(Self {
            storage,
            z: vec![0.0; dim],
            x_new: vec![0.0; dim],
            linear: circuit.is_linear(),
            reuse,
            dense_cache: Vec::with_capacity(FACTOR_CACHE_CAP),
            dense_oldest: 0,
            spare: LuFactor::new(&DenseMatrix::zeros(0, 0))?,
            ilu_cache: Vec::new(),
            gmres_opts: GmresOptions::default(),
            last_report: None,
            dense_solves: 0,
            sparse_solves: 0,
            factor_hits: 0,
            factor_misses: 0,
            ladder_fallbacks: 0,
        })
    }

    /// True when the sparse/GMRES tier is active.
    #[cfg(test)]
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self.storage, Storage::Sparse(_))
    }

    /// True when the circuit's MNA system is iterate-independent.
    pub(crate) fn is_linear_circuit(&self) -> bool {
        self.linear
    }

    /// Assembles the system at iterate `x` for `mode` and solves it into
    /// `out`.
    pub(crate) fn solve(
        &mut self,
        circuit: &Circuit,
        layout: &SystemLayout,
        x: &[f64],
        mode: &AnalysisMode<'_>,
        out: &mut [f64],
    ) -> Result<(), SpiceError> {
        let cacheable = self.reuse && self.linear;
        match &mut self.storage {
            Storage::Dense(a) => {
                self.dense_solves += 1;
                let key = key_of(mode);
                let hit = if cacheable {
                    self.dense_cache.iter().position(|(k, _)| *k == key)
                } else {
                    None
                };
                let lu = if let Some(pos) = hit {
                    self.factor_hits += 1;
                    assemble(circuit, layout, x, mode, &mut RhsOnly, &mut self.z);
                    &self.dense_cache[pos].1
                } else {
                    assemble(circuit, layout, x, mode, a, &mut self.z);
                    self.spare.refactor(a)?;
                    if cacheable {
                        self.factor_misses += 1;
                        let pos = self.cache_spare(key);
                        &self.dense_cache[pos].1
                    } else {
                        &self.spare
                    }
                };
                out.copy_from_slice(&self.z);
                lu.solve_in_place(out)?;
                Ok(())
            }
            Storage::Sparse(csr) => {
                self.sparse_solves += 1;
                assemble(circuit, layout, x, mode, csr, &mut self.z);
                if cacheable {
                    let key = key_of(mode);
                    let cached = match self.ilu_cache.iter().position(|(k, _)| *k == key) {
                        Some(pos) => {
                            self.factor_hits += 1;
                            Some(pos)
                        }
                        None => match Ilu0::new(csr) {
                            Ok(ilu) => {
                                self.factor_misses += 1;
                                if self.ilu_cache.len() >= FACTOR_CACHE_CAP {
                                    self.ilu_cache.remove(0);
                                }
                                self.ilu_cache.push((key, Preconditioner::Ilu(ilu)));
                                Some(self.ilu_cache.len() - 1)
                            }
                            // ILU breakdown: skip straight to the ladder,
                            // which retries Jacobi and then densifies.
                            Err(_) => None,
                        },
                    };
                    if let Some(pos) = cached {
                        let (sol, report) =
                            gmres(&*csr, &self.z, &self.ilu_cache[pos].1, &self.gmres_opts)?;
                        if report.converged {
                            self.last_report = Some(report);
                            out.copy_from_slice(&sol);
                            return Ok(());
                        }
                        // A stale preconditioner cannot make GMRES converge
                        // to a *wrong* answer, only slowly — but evict it
                        // and fall through to the full ladder anyway.
                        self.ilu_cache.retain(|(k, _)| *k != key);
                    }
                }
                let (sol, report) = solve_sparse(&*csr, &self.z, &self.gmres_opts)?;
                if !report.is_clean() {
                    self.ladder_fallbacks += 1;
                }
                self.last_report = Some(report);
                out.copy_from_slice(&sol);
                Ok(())
            }
        }
    }

    /// Moves the freshly factored spare into the dense cache under `key`
    /// and returns its slot. While the cache fills, the slot gets a copy;
    /// once it is full, the oldest slot's storage becomes the spare.
    fn cache_spare(&mut self, key: FactorKey) -> usize {
        if self.dense_cache.len() < FACTOR_CACHE_CAP {
            self.dense_cache.push((key, self.spare.clone()));
            return self.dense_cache.len() - 1;
        }
        let pos = self.dense_oldest;
        self.dense_oldest = (pos + 1) % FACTOR_CACHE_CAP;
        let slot = &mut self.dense_cache[pos];
        slot.0 = key;
        std::mem::swap(&mut slot.1, &mut self.spare);
        pos
    }
}

impl Drop for SolverWorkspace {
    fn drop(&mut self) {
        for (name, value) in [
            ("spice.linsolve.dense_solves", self.dense_solves),
            ("spice.linsolve.sparse_solves", self.sparse_solves),
            ("spice.linsolve.factor_hits", self.factor_hits),
            ("spice.linsolve.factor_misses", self.factor_misses),
            ("spice.linsolve.ladder_fallbacks", self.ladder_fallbacks),
        ] {
            if value > 0 {
                ssn_telemetry::add(name, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWave;
    use crate::stamp::{CapState, PrevState};
    use crate::tran::{transient, TranOptions};

    /// A vsource-driven RC ladder with `n` sections (dim = n + 2).
    fn rc_ladder(n: usize) -> Circuit {
        let mut c = Circuit::new();
        c.vsource("vin", "n0", "0", SourceWave::ramp(0.0, 1.0, 1e-9, 1e-9))
            .unwrap();
        for i in 0..n {
            c.resistor(
                &format!("r{i}"),
                &format!("n{i}"),
                &format!("n{}", i + 1),
                100.0,
            )
            .unwrap();
            c.capacitor(&format!("c{i}"), &format!("n{}", i + 1), "0", 1e-12)
                .unwrap();
        }
        c
    }

    #[test]
    fn workspace_picks_tier_by_threshold() {
        let c = rc_ladder(10);
        let layout = SystemLayout::new(&c);
        let dense = SolverWorkspace::new(&c, &layout, usize::MAX, true).unwrap();
        assert!(!dense.is_sparse());
        let sparse = SolverWorkspace::new(&c, &layout, 1, true).unwrap();
        assert!(sparse.is_sparse());
        assert!(sparse.is_linear_circuit());
    }

    #[test]
    fn sparse_tier_transient_matches_dense_tier() {
        let c = rc_ladder(30);
        let mut opts = TranOptions::to(10e-9);
        opts.newton.sparse_dim_threshold = usize::MAX;
        let dense = transient(&c, opts.clone()).unwrap();
        opts.newton.sparse_dim_threshold = 1;
        let sparse = transient(&c, opts).unwrap();
        let wd = dense.voltage("n30").unwrap();
        let ws = sparse.voltage("n30").unwrap();
        let err = wd.max_abs_error(&ws).unwrap();
        assert!(err < 1e-6, "sparse and dense tiers disagree by {err}");
    }

    /// The dense cache keeps first-in-first-out order while its storage
    /// rotates: over a key sequence that overflows it many times, hits and
    /// misses follow a plain FIFO model, and every solve has the bits of
    /// an uncached workspace. A singular system between two solves leaves
    /// the cache as it was.
    #[test]
    fn dense_factor_ring_is_fifo_and_bit_identical_to_uncached_solves() {
        let mut c = rc_ladder(3);
        // At DC the inductor shorts the source: a singular system.
        c.inductor("l0", "n0", "0", 1e-9).unwrap();
        let layout = SystemLayout::new(&c);
        let dim = layout.dim();
        let mut cached = SolverWorkspace::new(&c, &layout, usize::MAX, true).unwrap();
        let mut fresh = SolverWorkspace::new(&c, &layout, usize::MAX, false).unwrap();
        let prev = PrevState {
            x: (0..dim).map(|i| 0.1 * (i as f64 + 1.0)).collect(),
            caps: vec![CapState { v: 0.3, i: 1e-4 }; layout.n_caps],
        };
        let dc = AnalysisMode::Dc {
            gmin: 0.0,
            source_scale: 1.0,
        };
        let (mut out_cached, mut out_fresh) = (vec![0.0; dim], vec![0.0; dim]);
        let mut fifo = std::collections::VecDeque::new();
        let mut expected_hits = 0;
        let mut lcg = 7u64;
        for step in 0..200 {
            if step % 50 == 25 {
                assert!(cached
                    .solve(&c, &layout, &prev.x, &dc, &mut out_cached)
                    .is_err());
            }
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (lcg >> 33) % 11;
            let mode = AnalysisMode::Tran {
                t: 1e-9,
                dt: 1e-12 * (k + 1) as f64,
                method: IntegrationMethod::Trapezoidal,
                prev: &prev,
            };
            if fifo.contains(&k) {
                expected_hits += 1;
            } else {
                fifo.push_back(k);
                if fifo.len() > FACTOR_CACHE_CAP {
                    fifo.pop_front();
                }
            }
            cached
                .solve(&c, &layout, &prev.x, &mode, &mut out_cached)
                .unwrap();
            fresh
                .solve(&c, &layout, &prev.x, &mode, &mut out_fresh)
                .unwrap();
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&out_cached),
                bits(&out_fresh),
                "step {step}, dt key {k}"
            );
        }
        assert_eq!(cached.factor_hits, expected_hits);
        assert_eq!(cached.factor_misses, 200 - expected_hits);
        assert!(
            expected_hits > 50 && expected_hits < 150,
            "{expected_hits} hits"
        );
    }

    /// The satellite-2 contract: factor reuse must not change a single
    /// bit of the trajectory relative to the factor-per-iteration path.
    #[test]
    fn factor_reuse_is_bit_identical_on_linear_circuits() {
        let mut c = rc_ladder(8);
        // An inductor too, so branch equations hit the cache path.
        c.inductor("l0", "n8", "tail", 1e-9).unwrap();
        c.resistor("rt", "tail", "0", 50.0).unwrap();
        let mut opts = TranOptions::to(10e-9);
        opts.reuse_factor = true;
        let reused = transient(&c, opts.clone()).unwrap();
        opts.reuse_factor = false;
        let fresh = transient(&c, opts).unwrap();
        assert_eq!(reused.times, fresh.times, "timestep trajectories differ");
        assert_eq!(reused.states, fresh.states, "solution vectors differ");
        assert_eq!(reused.newton_iterations, fresh.newton_iterations);
        assert_eq!(reused.rejected_steps, fresh.rejected_steps);
    }
}
