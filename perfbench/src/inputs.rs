//! Seeded input generation shared by the workloads. The program under
//! test only ever sees the values generated here.

use ssn_core::scenario::SsnScenario;
use ssn_devices::process::Process;
use ssn_devices::Asdm;
use ssn_numeric::rng::Rng;
use ssn_units::{Farads, Henrys, Seconds, Volts};

/// The three library processes every workload draws from.
pub fn processes() -> [Process; 3] {
    [Process::p018(), Process::p025(), Process::p035()]
}

/// Each library process's ASDM fit and supply — the set-up cost of every
/// workload that builds scenarios.
pub fn fit_processes() -> Result<Vec<(Asdm, Volts)>, String> {
    processes()
        .iter()
        .map(|p| {
            SsnScenario::builder(p)
                .build()
                .map(|s| (*s.asdm(), p.vdd()))
                .map_err(|e| format!("fitting {}: {e}", p.name()))
        })
        .collect()
}

/// The generator for cycle or op `stream` of a workload. `salt` keeps the
/// workloads' streams apart under one seed.
pub fn rng(seed: u64, salt: u64, stream: u64) -> Rng {
    Rng::from_seed_and_stream(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15), stream)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.usize_in(0, i));
    }
    p
}

/// A value near the middle of stratum `k` of `n` equal strata of
/// `[lo, hi]` on a log scale, jittered by a tenth of the stratum's width
/// so seeds differ while every seed's strata weigh the same.
pub fn log_stratum(rng: &mut Rng, k: usize, n: usize, lo: f64, hi: f64) -> f64 {
    let t = (k as f64 + rng.uniform_in(0.45, 0.55)) / n as f64;
    lo * (hi / lo).powf(t)
}

/// A nominal driver-bank scenario: `n` drivers of fitted process `fit`
/// behind `l` and `c` (zero for the L-only model), with rise time `tr`.
pub fn scenario(
    fit: (Asdm, Volts),
    n: usize,
    l: f64,
    c: f64,
    tr: f64,
) -> Result<SsnScenario, String> {
    SsnScenario::from_asdm(fit.0, fit.1)
        .drivers(n)
        .inductance(Henrys::new(l))
        .capacitance(Farads::new(c))
        .rise_time(Seconds::new(tr))
        .build()
        .map_err(|e| format!("scenario N={n} L={l:e} C={c:e} tr={tr:e}: {e}"))
}
