//! Differential oracle harness: the closed-form SSN models against the MNA
//! simulator at corpus scale.
//!
//! The paper's central claim (Sections 3–4, Table 1, Fig. 3–4) is that the
//! ASDM closed forms track HSPICE within a few percent. This module turns
//! that one-off comparison into a permanent accuracy contract: a seeded,
//! stratified scenario corpus is pushed through three oracles —
//!
//! 1. the L-only closed form ([`crate::lmodel`]),
//! 2. the LC closed form ([`crate::lcmodel`]),
//! 3. a synthesized `ssn-spice` transient of the *same linearized circuit*
//!    ([`ssn_spice::synth`]),
//!
//! and `Vn_max`, the peak time, and the waveform RMS error are compared
//! under a declarative per-case [`TolerancePolicy`]. Because oracle 3
//! integrates exactly the ODE the closed forms solve, budgets are tight
//! (integration + sampling error only); the *device-model* gap is measured
//! separately by [`crate::bridge`] against the nonlinear golden device.
//!
//! On a budget violation the harness emits a minimized reproducer: a
//! deterministic shrink ([`ssn_numeric::shrink`]) walks the failing
//! scenario toward the paper-nominal anchor while the violation persists,
//! and the result is serialized as a self-contained repro file (scenario
//! dump + observed/expected numbers + replayable SPICE deck).
//!
//! The sweep runs on the durable runner
//! ([`crate::durable::run_chunked_durable`]): scenario `i` draws from RNG
//! stream `(seed, i)`, chunks are panic-isolated, and the report is
//! bit-identical for every thread count.

use crate::durable::{
    run_chunked_durable, ByteReader, ByteWriter, ChunkOutcome, DegradeStep, Durability,
    DurableOptions, ParamDigest, RunSpec,
};
use crate::error::{CheckpointErrorKind, SsnError};
use crate::faults;
use crate::lcmodel::{self, MaxSsnCase};
use crate::lmodel;
use crate::parallel::{ExecPolicy, ExecStats};
use crate::scenario::{Rail, ScenarioConfig, SsnScenario};
use ssn_numeric::rng::Rng;
use ssn_numeric::shrink;
use ssn_spice::synth::{
    ssn_equivalent_circuit, ssn_tran_directive, ssn_tran_options, SsnSynthParams, SSN_BOUNCE_NODE,
};
use ssn_spice::{transient, writer};
use ssn_units::Seconds;
use std::fmt;
use std::ops::Range;

/// Scenarios per work-queue chunk. Smaller than the Monte Carlo chunk
/// because each item runs a transient, not a closed form.
pub const ORACLE_CHUNK: usize = 32;

/// Bisection steps per coordinate in the shrinking loop.
const SHRINK_STEPS: usize = 16;
/// Coordinate-descent passes in the shrinking loop.
const SHRINK_PASSES: usize = 2;
/// Relative closeness (of the model's own value surface) within which two
/// peak *times* are considered equivalent — the plateau forgiveness that
/// keeps flat-topped waveforms from reporting meaningless time deltas.
const PEAK_PLATEAU_REL: f64 = 5e-3;

/// The paper's nominal operating point — the anchor every counterexample
/// shrinks toward (K = 7.5 mS, sigma = 1.25, V0 = 0.6 V, N = 8, L = 5 nH,
/// C = 1 pF, Vdd = 1.8 V, tr = 0.5 ns).
pub fn reference_config() -> ScenarioConfig {
    ScenarioConfig {
        k: 7.5e-3,
        sigma: 1.25,
        v0: 0.6,
        n_drivers: 8,
        inductance: 5e-9,
        capacitance: 1e-12,
        vdd: 1.8,
        rise_time: 0.5e-9,
        rail: Rail::Ground,
    }
}

/// A log-uniform draw over `[lo, hi]` (decade coverage).
fn log_uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    (rng.uniform_in(lo.ln(), hi.ln())).exp()
}

/// The deterministic corpus scenario at `index` for `seed`.
///
/// Each scenario draws from its own RNG stream `(seed, index)`, so any
/// slice of the corpus can be regenerated independently — the parallel
/// runner and the tests share this single definition.
///
/// Stratification is *constructive*, not rejection-based: the index cycles
/// through nine slots — two each targeting the four Table-1 damping cases
/// (over-damped, critically damped, under-damped fast, under-damped slow)
/// plus one adversarial slot cycling near-boundary regimes (`zeta ≈ 1`
/// from both sides, `C = 0` exactly, and the case-3a/3b peak-time
/// boundary). The damping case is dialed in through `C` relative to the
/// critical capacitance `C_m = (N K sigma)^2 L / 4` and, for the
/// under-damped slots, through `t_r` relative to the ring period, so every
/// slot lands in its target regime by construction; a 10k corpus carries
/// well over 500 scenarios of each Table-1 case.
pub fn corpus_scenario(seed: u64, index: usize) -> ScenarioConfig {
    let mut rng = Rng::from_seed_and_stream(seed, index as u64);
    // Fixed draw order and count — part of the determinism contract.
    let k = log_uniform(&mut rng, 1e-3, 20e-3);
    let sigma = rng.uniform_in(1.0, 1.6);
    let v0 = rng.uniform_in(0.3, 0.9);
    let n_drivers = rng.usize_in(1, 64);
    let inductance = log_uniform(&mut rng, 0.5e-9, 20e-9);
    let u = rng.uniform();
    let m = rng.uniform();
    let tr_free = log_uniform(&mut rng, 0.05e-9, 5e-9);

    let vdd = 1.8;
    let nks = n_drivers as f64 * k * sigma;
    let c_m = nks * nks * inductance / 4.0;
    // tr that places the first ring peak at `margin` conduction windows:
    // pi/omega = window / margin with window = tr (1 - v0/vdd).
    let tr_for_ring = |c: f64, margin: f64| {
        let omega0 = 1.0 / (inductance * c).sqrt();
        let alpha = nks / (2.0 * c);
        let omega = (omega0 * omega0 - alpha * alpha).sqrt();
        margin * std::f64::consts::PI / (omega * (1.0 - v0 / vdd))
    };

    let (capacitance, rise_time) = match index % 9 {
        // Case 1: over-damped, C strictly below C_m.
        0 | 1 => (c_m * (0.05 + 0.85 * u), tr_free),
        // Case 2: critically damped. alpha and omega0 both reduce to
        // 2/(N K sigma L) algebraically at C = C_m, so the classifier's
        // 1e-9 knife edge is met to f64 round-off.
        2 | 3 => (c_m, tr_free),
        // Case 3a: under-damped, fast input — ring peak inside the window.
        4 | 5 => {
            let zeta = 0.15 + 0.6 * u;
            let c = c_m / (zeta * zeta);
            (c, tr_for_ring(c, 1.15 + 2.85 * m))
        }
        // Case 3b: under-damped, slow input — ramp ends before the peak.
        6 | 7 => {
            let zeta = 0.15 + 0.6 * u;
            let c = c_m / (zeta * zeta);
            (c, tr_for_ring(c, 0.25 + 0.65 * m))
        }
        // Adversarial slot: near-boundary regimes.
        _ => match (index / 9) % 4 {
            // zeta -> 1 from the over-damped side (delta in 1e-8..1e-3,
            // still outside the classifier's 1e-9 critical band).
            0 => (c_m * (1.0 - 10f64.powf(-8.0 + 5.0 * u)), tr_free),
            // zeta -> 1 from the under-damped side.
            1 => (c_m * (1.0 + 10f64.powf(-8.0 + 5.0 * u)), tr_free),
            // C = 0 exactly: the L-only degenerate.
            2 => (0.0, tr_free),
            // The 3a/3b boundary: peak time straddles the window end.
            _ => {
                let zeta = 0.2 + 0.5 * u;
                let c = c_m / (zeta * zeta);
                (c, tr_for_ring(c, 0.98 + 0.04 * m))
            }
        },
    };

    ScenarioConfig {
        k,
        sigma,
        v0,
        n_drivers,
        inductance,
        capacitance,
        vdd,
        rise_time,
        rail: Rail::Ground,
    }
}

/// The whole corpus prefix `[0, n)` — convenience for tests and tooling;
/// the parallel runner regenerates the same scenarios chunk-locally.
pub fn generate_corpus(seed: u64, n: usize) -> Vec<ScenarioConfig> {
    (0..n).map(|i| corpus_scenario(seed, i)).collect()
}

/// Which differential metric a budget (or violation) refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMetric {
    /// Relative `Vn_max` error, LC closed form vs MNA.
    VnMax,
    /// Peak-time disagreement as a fraction of `t_r` (plateau-forgiven).
    PeakTime,
    /// Time-weighted waveform RMS error over `[0, t_r]`, as a fraction of
    /// the closed-form `Vn_max`.
    WaveformRms,
    /// Relative `Vn_max` error, L-only closed form vs MNA.
    LOnlyVnMax,
}

impl OracleMetric {
    /// The stable machine-readable name used in repro files and CSVs.
    pub fn slug(self) -> &'static str {
        match self {
            Self::VnMax => "vn_max",
            Self::PeakTime => "peak_time",
            Self::WaveformRms => "waveform_rms",
            Self::LOnlyVnMax => "l_only_vn_max",
        }
    }

    /// Parses a [`OracleMetric::slug`]; `None` for unknown names.
    pub fn from_slug(slug: &str) -> Option<Self> {
        match slug {
            "vn_max" => Some(Self::VnMax),
            "peak_time" => Some(Self::PeakTime),
            "waveform_rms" => Some(Self::WaveformRms),
            "l_only_vn_max" => Some(Self::LOnlyVnMax),
            _ => None,
        }
    }
}

impl fmt::Display for OracleMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Error budget for one Table-1 case. All budgets are relative fractions;
/// a `None` L-only budget makes that comparison advisory (recorded but
/// never gating — the L-only model deliberately ignores `C`, so holding it
/// to the MNA waveform only makes sense where `C` barely matters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseBudget {
    /// Budget on the LC-vs-MNA `Vn_max` relative error.
    pub vn_rel: f64,
    /// Budget on the peak-time disagreement (fraction of `t_r`).
    pub peak_time_frac: f64,
    /// Budget on the waveform RMS error (fraction of `Vn_max`).
    pub rms_frac: f64,
    /// Optional budget on the L-only-vs-MNA `Vn_max` relative error.
    pub l_only_rel: Option<f64>,
}

impl CaseBudget {
    fn scaled(self, factor: f64) -> Self {
        Self {
            vn_rel: self.vn_rel * factor,
            peak_time_frac: self.peak_time_frac * factor,
            rms_frac: self.rms_frac * factor,
            l_only_rel: self.l_only_rel.map(|b| b * factor),
        }
    }
}

/// Per-case error budgets for the differential comparison.
///
/// The [`TolerancePolicy::paper`] defaults mirror the paper's reported
/// accuracy (a few percent against HSPICE) tightened to what the *linear*
/// oracle circuit actually allows: the MNA transient solves the same ODE
/// as the closed forms, so 1–2% covers integration and peak-sampling
/// error with margin. The L-only comparison is gated only in the `C = 0`
/// degenerate, where the idealization is exact; everywhere else it is
/// advisory — in deep over-damped scenarios the LC peak can be orders of
/// magnitude below the L-only estimate (a 1.8k-scenario calibration sweep
/// observed L-only relative errors up to ~1e2 there), which is exactly the
/// regime the paper's LC model exists to fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TolerancePolicy {
    /// Case 1 (over-damped) budgets.
    pub overdamped: CaseBudget,
    /// Case 2 (critically damped) budgets.
    pub critically_damped: CaseBudget,
    /// Case 3a (under-damped, fast input) budgets.
    pub underdamped_fast: CaseBudget,
    /// Case 3b (under-damped, slow input) budgets.
    pub underdamped_slow: CaseBudget,
    /// Degenerate `C = 0` budgets (the L-only and LC forms coincide).
    pub l_only: CaseBudget,
}

impl TolerancePolicy {
    /// The default paper-accuracy policy (see the type docs).
    pub fn paper() -> Self {
        let core = CaseBudget {
            vn_rel: 0.01,
            peak_time_frac: 0.02,
            rms_frac: 0.015,
            l_only_rel: None,
        };
        Self {
            overdamped: core,
            critically_damped: core,
            underdamped_fast: core,
            underdamped_slow: core,
            l_only: CaseBudget {
                l_only_rel: Some(0.01),
                ..core
            },
        }
    }

    /// Every budget multiplied by `factor` — the lever CI and tests use to
    /// tighten (`< 1`, forcing violations on demand) or loosen (`> 1`).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            overdamped: self.overdamped.scaled(factor),
            critically_damped: self.critically_damped.scaled(factor),
            underdamped_fast: self.underdamped_fast.scaled(factor),
            underdamped_slow: self.underdamped_slow.scaled(factor),
            l_only: self.l_only.scaled(factor),
        }
    }

    /// The budget applying to `case`.
    pub fn budget(&self, case: MaxSsnCase) -> CaseBudget {
        match case {
            MaxSsnCase::Overdamped => self.overdamped,
            MaxSsnCase::CriticallyDamped => self.critically_damped,
            MaxSsnCase::UnderdampedFastInput => self.underdamped_fast,
            MaxSsnCase::UnderdampedSlowInput => self.underdamped_slow,
            MaxSsnCase::LOnly => self.l_only,
        }
    }

    /// Checks every budget is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`SsnError::InvalidInput`] for a non-positive or non-finite
    /// budget.
    pub fn validate(&self) -> Result<(), SsnError> {
        for b in [
            self.overdamped,
            self.critically_damped,
            self.underdamped_fast,
            self.underdamped_slow,
            self.l_only,
        ] {
            for v in [
                b.vn_rel,
                b.peak_time_frac,
                b.rms_frac,
                b.l_only_rel.unwrap_or(1.0),
            ] {
                if !(v > 0.0) || !v.is_finite() {
                    return Err(SsnError::invalid(
                        "tolerance budget",
                        v,
                        "must be positive and finite",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The measured differential metrics of one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleMetrics {
    /// The Table-1 case the LC model selected.
    pub case: MaxSsnCase,
    /// LC closed-form `Vn_max` (V).
    pub model_vn_max: f64,
    /// MNA simulated `Vn_max` (V).
    pub mna_vn_max: f64,
    /// L-only closed-form `Vn_max` (V).
    pub l_only_vn_max: f64,
    /// Relative `Vn_max` error, LC vs MNA.
    pub vn_rel: f64,
    /// Plateau-forgiven peak-time disagreement (fraction of `t_r`).
    pub peak_time_frac: f64,
    /// Waveform RMS error (fraction of `Vn_max`).
    pub rms_frac: f64,
    /// Relative `Vn_max` error, L-only vs MNA.
    pub l_only_rel: f64,
}

/// One metric exceeding its budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// Which metric violated.
    pub metric: OracleMetric,
    /// The observed value.
    pub observed: f64,
    /// The budget it exceeded.
    pub budget: f64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {:.3e} exceeds budget {:.3e}",
            self.metric, self.observed, self.budget
        )
    }
}

/// One evaluated corpus scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioOutcome {
    /// Corpus index (also the RNG stream).
    pub index: usize,
    /// The scenario parameters.
    pub config: ScenarioConfig,
    /// The measured metrics.
    pub metrics: OracleMetrics,
    /// The first over-budget metric, if any.
    pub violation: Option<Violation>,
}

fn synth_params(s: &SsnScenario) -> SsnSynthParams {
    SsnSynthParams {
        bank_gm: s.n_drivers() as f64 * s.asdm().k().value(),
        sigma: s.asdm().sigma(),
        v0: s.asdm().v0().value(),
        vdd: s.vdd().value(),
        inductance: s.inductance().value(),
        capacitance: s.capacitance().value(),
        rise_time: s.rise_time().value(),
    }
}

/// Runs one scenario through all three oracles and checks it against
/// `policy`.
///
/// # Errors
///
/// Returns [`SsnError::InvalidInput`] for a config that fails validation
/// and [`SsnError::Simulation`] when the MNA transient fails.
pub fn evaluate_scenario(
    config: &ScenarioConfig,
    policy: &TolerancePolicy,
) -> Result<(OracleMetrics, Option<Violation>), SsnError> {
    let s = config.validate()?;
    let _span = ssn_telemetry::span("oracle.scenario");

    // Oracles 1 and 2: the closed forms.
    let (lc_vmax, case) = lcmodel::vn_max(&s);
    let l_only_vmax = lmodel::vn_max(&s);
    let tr = s.rise_time().value();
    let model_peak_time = match case {
        MaxSsnCase::UnderdampedFastInput => lcmodel::first_peak_time(&s)
            .map(|t| t.value())
            .unwrap_or(tr),
        _ => tr,
    };

    // Oracle 3: the synthesized linearized MNA transient.
    let params = synth_params(&s);
    let circuit = ssn_equivalent_circuit(&params)?;
    let result = transient(&circuit, ssn_tran_options(&params))?;
    let vn = result.voltage(SSN_BOUNCE_NODE)?;
    let sim_peak = vn.peak();

    let scale = lc_vmax.value().abs().max(1e-30);
    let vn_rel = (sim_peak.value - lc_vmax.value()).abs() / scale;
    let l_only_rel = (l_only_vmax.value() - sim_peak.value).abs() / scale;

    // Peak time, with plateau forgiveness: measure the time error through
    // the model's own value surface. Where the waveform is flat near its
    // maximum (over-damped saturation), argmax position is numerically
    // meaningless, but the model value at the simulated peak time exposes
    // any *material* disagreement.
    let raw_peak_frac = (sim_peak.time - model_peak_time).abs() / tr;
    let model_at_sim_peak = lcmodel::vn_at(&s, Seconds::new(sim_peak.time)).value();
    let peak_time_frac = if (lc_vmax.value() - model_at_sim_peak).abs() <= PEAK_PLATEAU_REL * scale
    {
        0.0
    } else {
        raw_peak_frac
    };

    // Time-weighted RMS of (MNA - LC model) over the simulated grid, by
    // the trapezoid rule: each interval adds the squared difference at
    // both ends, so a sample's difference is evaluated once and carried
    // into the next interval.
    let times = vn.times();
    let values = vn.values();
    let diff = |j: usize| values[j] - lcmodel::vn_at(&s, Seconds::new(times[j])).value();
    let mut num = 0.0;
    let mut den = 0.0;
    if times.len() > 1 {
        let mut d_prev = diff(0);
        for i in 1..times.len() {
            let dt = times[i] - times[i - 1];
            let d = diff(i);
            for d in [d_prev, d] {
                num += 0.5 * dt * d * d;
                den += 0.5 * dt;
            }
            d_prev = d;
        }
    }
    let rms_frac = if den > 0.0 {
        (num / den).sqrt() / scale
    } else {
        0.0
    };

    let metrics = OracleMetrics {
        case,
        model_vn_max: lc_vmax.value(),
        mna_vn_max: sim_peak.value,
        l_only_vn_max: l_only_vmax.value(),
        vn_rel,
        peak_time_frac,
        rms_frac,
        l_only_rel,
    };
    if !metrics.mna_vn_max.is_finite() {
        return Err(SsnError::invalid(
            "simulated vn_max",
            metrics.mna_vn_max,
            "oracle transient must produce a finite peak",
        ));
    }

    let b = policy.budget(case);
    let checks = [
        (OracleMetric::VnMax, vn_rel, Some(b.vn_rel)),
        (
            OracleMetric::PeakTime,
            peak_time_frac,
            Some(b.peak_time_frac),
        ),
        (OracleMetric::WaveformRms, rms_frac, Some(b.rms_frac)),
        (OracleMetric::LOnlyVnMax, l_only_rel, b.l_only_rel),
    ];
    let violation = checks.iter().find_map(|&(metric, observed, budget)| {
        budget.and_then(|budget| {
            (observed > budget).then_some(Violation {
                metric,
                observed,
                budget,
            })
        })
    });
    Ok((metrics, violation))
}

/// Options for [`run_differential`].
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// Corpus size.
    pub corpus: usize,
    /// Corpus seed.
    pub seed: u64,
    /// The tolerance policy to gate against.
    pub policy: TolerancePolicy,
    /// Execution policy (thread count never changes the report).
    pub exec: ExecPolicy,
    /// Maximum number of violations to minimize into repro files.
    pub max_repros: usize,
}

impl Default for OracleOptions {
    fn default() -> Self {
        Self {
            corpus: 500,
            seed: 1,
            policy: TolerancePolicy::paper(),
            exec: ExecPolicy::auto(),
            max_repros: 8,
        }
    }
}

/// Per-case aggregation of a differential run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseSummary {
    /// The Table-1 case.
    pub case: MaxSsnCase,
    /// Scenarios that classified into this case.
    pub count: usize,
    /// Scenarios of this case with a budget violation.
    pub violations: usize,
    /// Worst observed LC-vs-MNA `Vn_max` relative error.
    pub max_vn_rel: f64,
    /// Worst observed peak-time fraction.
    pub max_peak_time_frac: f64,
    /// Worst observed RMS fraction.
    pub max_rms_frac: f64,
    /// Worst observed L-only-vs-MNA relative error (advisory for cases
    /// with no L-only budget).
    pub max_l_only_rel: f64,
}

/// A minimized reproducer for one violation.
#[derive(Debug, Clone)]
pub struct ReproCase {
    /// Corpus index of the original failing scenario.
    pub index: usize,
    /// The original failing scenario.
    pub original: ScenarioConfig,
    /// The shrunken scenario (closest-to-nominal still-failing point).
    pub minimized: ScenarioConfig,
    /// The minimized scenario's own violation.
    pub violation: Violation,
    /// The minimized scenario's metrics.
    pub metrics: OracleMetrics,
    /// The self-contained repro file text (see [`format_repro`]).
    pub file_text: String,
}

/// A closed-form-only estimate recorded for a scenario the differential
/// run skipped under deadline pressure — the last rung of the degradation
/// ladder ([`DegradeStep::ClosedFormOnly`]). The MNA oracle never ran for
/// these, so they carry no differential metrics and never enter
/// [`OracleReport::summary_csv`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedFormFallback {
    /// Corpus index of the skipped scenario.
    pub index: usize,
    /// The Table-1 case the LC closed form selected.
    pub case: MaxSsnCase,
    /// LC closed-form `Vn_max` (V).
    pub vn_max: f64,
    /// L-only closed-form `Vn_max` (V).
    pub l_only_vn_max: f64,
}

/// The result of a corpus-scale differential run.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Scenarios evaluated (excludes scenarios in failed chunks).
    pub scenarios: usize,
    /// Chunks dropped by panic isolation.
    pub failed_chunks: usize,
    /// Total budget violations across the evaluated corpus.
    pub violations: usize,
    /// Per-case aggregation, in fixed Table-1 order.
    pub cases: Vec<CaseSummary>,
    /// Minimized reproducers (at most `max_repros`, in corpus order).
    pub repros: Vec<ReproCase>,
    /// Closed-form-only estimates for deadline-skipped scenarios (empty
    /// for complete runs; only [`run_differential_durable`] populates it).
    pub fallbacks: Vec<ClosedFormFallback>,
    /// Parallel-engine statistics (wall time, utilization, ...).
    pub stats: ExecStats,
}

/// The fixed case order used by reports and CSVs.
pub const CASE_ORDER: [MaxSsnCase; 5] = [
    MaxSsnCase::Overdamped,
    MaxSsnCase::CriticallyDamped,
    MaxSsnCase::UnderdampedFastInput,
    MaxSsnCase::UnderdampedSlowInput,
    MaxSsnCase::LOnly,
];

/// A short, stable slug for a case (CSV column value).
pub fn case_slug(case: MaxSsnCase) -> &'static str {
    match case {
        MaxSsnCase::Overdamped => "overdamped",
        MaxSsnCase::CriticallyDamped => "critical",
        MaxSsnCase::UnderdampedFastInput => "underdamped_fast",
        MaxSsnCase::UnderdampedSlowInput => "underdamped_slow",
        MaxSsnCase::LOnly => "l_only",
    }
}

impl OracleReport {
    /// The deterministic per-case summary as CSV. Bit-identical across
    /// thread counts for a given `(corpus, seed, policy)` — the drift
    /// check in CI pins this text against a golden file.
    pub fn summary_csv(&self) -> String {
        let mut out = String::from(
            "case,count,violations,max_vn_rel,max_peak_time_frac,max_rms_frac,max_l_only_rel\n",
        );
        for c in &self.cases {
            out.push_str(&format!(
                "{},{},{},{:.6e},{:.6e},{:.6e},{:.6e}\n",
                case_slug(c.case),
                c.count,
                c.violations,
                c.max_vn_rel,
                c.max_peak_time_frac,
                c.max_rms_frac,
                c.max_l_only_rel,
            ));
        }
        out
    }
}

/// Runs the corpus-scale differential comparison.
///
/// **Determinism contract:** scenario `i` draws from RNG stream
/// `(seed, i)` and every aggregation is order-independent, so the report
/// (including the repro files) is bit-identical for every
/// `opts.exec.threads()`.
///
/// **Degradation contract:** chunks are panic-isolated; a failing chunk is
/// counted in `failed_chunks` and its scenarios are excluded.
///
/// # Errors
///
/// * [`SsnError::InvalidInput`] when `corpus == 0` or the policy is
///   malformed.
/// * [`SsnError::AllChunksFailed`] when not a single chunk survived.
pub fn run_differential(opts: &OracleOptions) -> Result<OracleReport, SsnError> {
    run_differential_durable(opts, &DurableOptions::none()).map(|(report, _)| report)
}

/// One corpus chunk: scenarios `range`, each drawing from RNG stream
/// `(seed, index)`.
fn oracle_chunk(
    seed: u64,
    policy: &TolerancePolicy,
    c: usize,
    range: Range<usize>,
) -> Result<Vec<ScenarioOutcome>, SsnError> {
    faults::maybe_panic_chunk(c);
    ssn_telemetry::add("oracle.scenarios", range.len() as u64);
    range
        .map(|i| {
            let config = corpus_scenario(seed, i);
            evaluate_scenario(&config, policy).map(|(metrics, violation)| ScenarioOutcome {
                index: i,
                config,
                metrics,
                violation,
            })
        })
        .collect()
}

/// Aggregates evaluated outcomes into the final [`OracleReport`] (per-case
/// summaries, violation count, minimized repros).
fn build_report(
    outcomes: Vec<ScenarioOutcome>,
    stats: ExecStats,
    policy: &TolerancePolicy,
    max_repros: usize,
    fallbacks: Vec<ClosedFormFallback>,
) -> Result<OracleReport, SsnError> {
    let cases = CASE_ORDER
        .iter()
        .map(|&case| {
            let mut s = CaseSummary {
                case,
                count: 0,
                violations: 0,
                max_vn_rel: 0.0,
                max_peak_time_frac: 0.0,
                max_rms_frac: 0.0,
                max_l_only_rel: 0.0,
            };
            for o in outcomes.iter().filter(|o| o.metrics.case == case) {
                s.count += 1;
                s.violations += usize::from(o.violation.is_some());
                s.max_vn_rel = s.max_vn_rel.max(o.metrics.vn_rel);
                s.max_peak_time_frac = s.max_peak_time_frac.max(o.metrics.peak_time_frac);
                s.max_rms_frac = s.max_rms_frac.max(o.metrics.rms_frac);
                s.max_l_only_rel = s.max_l_only_rel.max(o.metrics.l_only_rel);
            }
            s
        })
        .collect();

    let violations = outcomes.iter().filter(|o| o.violation.is_some()).count();
    let repros = outcomes
        .iter()
        .filter(|o| o.violation.is_some())
        .take(max_repros)
        .map(|o| minimize_violation(o, policy))
        .collect::<Result<Vec<ReproCase>, SsnError>>()?;

    Ok(OracleReport {
        scenarios: outcomes.len(),
        failed_chunks: stats.failed_chunks,
        violations,
        cases,
        repros,
        fallbacks,
        stats,
    })
}

/// The durable run spec for a differential corpus: the digest covers every
/// input that changes a scenario outcome (the whole tolerance policy);
/// seed, corpus size, and chunk size live in the header fields themselves.
fn oracle_run_spec(opts: &OracleOptions) -> RunSpec {
    let mut d = ParamDigest::new("validate");
    for b in [
        opts.policy.overdamped,
        opts.policy.critically_damped,
        opts.policy.underdamped_fast,
        opts.policy.underdamped_slow,
        opts.policy.l_only,
    ] {
        d.push_f64(b.vn_rel)
            .push_f64(b.peak_time_frac)
            .push_f64(b.rms_frac)
            .push_u64(u64::from(b.l_only_rel.is_some()))
            .push_f64(b.l_only_rel.unwrap_or(0.0));
    }
    RunSpec {
        kind: "validate",
        seed: opts.seed,
        params_hash: d.finish(),
        n_items: opts.corpus,
        chunk_size: ORACLE_CHUNK,
    }
}

fn encode_outcome(w: &mut ByteWriter, o: &ScenarioOutcome) {
    w.put_usize(o.index);
    w.put_f64(o.config.k)
        .put_f64(o.config.sigma)
        .put_f64(o.config.v0)
        .put_usize(o.config.n_drivers)
        .put_f64(o.config.inductance)
        .put_f64(o.config.capacitance)
        .put_f64(o.config.vdd)
        .put_f64(o.config.rise_time);
    let m = &o.metrics;
    w.put_u8(m.case.code())
        .put_f64(m.model_vn_max)
        .put_f64(m.mna_vn_max)
        .put_f64(m.l_only_vn_max)
        .put_f64(m.vn_rel)
        .put_f64(m.peak_time_frac)
        .put_f64(m.rms_frac)
        .put_f64(m.l_only_rel);
    match o.violation {
        None => {
            w.put_u8(0);
        }
        Some(v) => {
            w.put_u8(1)
                .put_str(v.metric.slug())
                .put_f64(v.observed)
                .put_f64(v.budget);
        }
    }
}

fn decode_outcome(r: &mut ByteReader<'_>) -> Result<ScenarioOutcome, SsnError> {
    let corrupt = |what: &str| SsnError::checkpoint("", CheckpointErrorKind::Corrupt, what);
    let index = r.take_usize()?;
    let config = ScenarioConfig {
        k: r.take_f64()?,
        sigma: r.take_f64()?,
        v0: r.take_f64()?,
        n_drivers: r.take_usize()?,
        inductance: r.take_f64()?,
        capacitance: r.take_f64()?,
        vdd: r.take_f64()?,
        rise_time: r.take_f64()?,
        rail: Rail::Ground,
    };
    let case =
        MaxSsnCase::from_code(r.take_u8()?).ok_or_else(|| corrupt("unknown Table-1 case code"))?;
    let metrics = OracleMetrics {
        case,
        model_vn_max: r.take_f64()?,
        mna_vn_max: r.take_f64()?,
        l_only_vn_max: r.take_f64()?,
        vn_rel: r.take_f64()?,
        peak_time_frac: r.take_f64()?,
        rms_frac: r.take_f64()?,
        l_only_rel: r.take_f64()?,
    };
    let violation = match r.take_u8()? {
        0 => None,
        1 => {
            let slug = r.take_str()?;
            let metric = OracleMetric::from_slug(&slug)
                .ok_or_else(|| corrupt("unknown oracle metric slug"))?;
            Some(Violation {
                metric,
                observed: r.take_f64()?,
                budget: r.take_f64()?,
            })
        }
        _ => return Err(corrupt("violation flag must be 0 or 1")),
    };
    Ok(ScenarioOutcome {
        index,
        config,
        metrics,
        violation,
    })
}

/// [`run_differential`] with durability: checkpoint/resume and a
/// cooperative run budget.
///
/// Chunk payloads carry the full [`ScenarioOutcome`]s, so a resumed run
/// rebuilds the report — including minimized repros — without re-running a
/// single MNA transient for restored chunks, and the report is
/// bit-identical to an uninterrupted run at any thread count.
///
/// Under deadline pressure, skipped scenarios degrade to *closed-form
/// only* ([`DegradeStep::ClosedFormOnly`]): their LC and L-only estimates
/// are still computed (no transient needed) and recorded in
/// [`OracleReport::fallbacks`], while [`OracleReport::summary_csv`] keeps
/// covering exactly the fully-evaluated scenarios.
///
/// # Errors
///
/// Everything [`run_differential`] returns, plus
/// [`SsnError::Checkpoint`] for an unusable journal,
/// [`SsnError::Interrupted`] for an injected crash, and
/// [`SsnError::DeadlineExhausted`] when the budget expired before any
/// scenario completed.
pub fn run_differential_durable(
    opts: &OracleOptions,
    durable: &DurableOptions,
) -> Result<(OracleReport, Durability), SsnError> {
    if opts.corpus == 0 {
        return Err(SsnError::invalid(
            "corpus",
            0.0,
            "need at least one scenario",
        ));
    }
    opts.policy.validate()?;
    let _run_span = ssn_telemetry::span("oracle.run");

    let spec = oracle_run_spec(opts);
    let run = run_chunked_durable(
        &spec,
        &opts.exec,
        durable,
        |_, outcomes: &Vec<ScenarioOutcome>| {
            let mut w = ByteWriter::new();
            w.put_usize(outcomes.len());
            for o in outcomes {
                encode_outcome(&mut w, o);
            }
            w.into_vec()
        },
        |_, r: &mut ByteReader<'_>| {
            let n = r.take_usize()?;
            (0..n).map(|_| decode_outcome(r)).collect()
        },
        |c, range| oracle_chunk(opts.seed, &opts.policy, c, range),
    )?
    .delivered(opts.corpus)?;

    let _collect_span = ssn_telemetry::span("oracle.collect");
    let mut outcomes: Vec<ScenarioOutcome> = Vec::with_capacity(opts.corpus);
    let mut fallbacks: Vec<ClosedFormFallback> = Vec::new();
    for (c, outcome) in run.chunks.into_iter().enumerate() {
        match outcome {
            ChunkOutcome::Done(os) => outcomes.extend(os),
            ChunkOutcome::Failed(_) => {}
            ChunkOutcome::DeadlineSkipped => {
                // Last ladder rung: no transient, closed forms only.
                for i in spec.range(c) {
                    let s = corpus_scenario(opts.seed, i).validate()?;
                    let (vn, case) = lcmodel::vn_max(&s);
                    fallbacks.push(ClosedFormFallback {
                        index: i,
                        case,
                        vn_max: vn.value(),
                        l_only_vn_max: lmodel::vn_max(&s).value(),
                    });
                }
            }
        }
    }
    let mut durability = run.durability;
    if !fallbacks.is_empty() {
        durability.note_degrade(DegradeStep::ClosedFormOnly, opts.corpus, outcomes.len());
    }

    let report = build_report(
        outcomes,
        run.stats,
        &opts.policy,
        opts.max_repros,
        fallbacks,
    )?;
    Ok((report, durability))
}

fn config_to_vec(c: &ScenarioConfig) -> [f64; 8] {
    [
        c.k,
        c.sigma,
        c.v0,
        c.n_drivers as f64,
        c.inductance,
        c.capacitance,
        c.vdd,
        c.rise_time,
    ]
}

fn config_from_vec(v: &[f64]) -> ScenarioConfig {
    ScenarioConfig {
        k: v[0],
        sigma: v[1],
        v0: v[2],
        n_drivers: v[3].round().max(1.0) as usize,
        inductance: v[4],
        capacitance: v[5],
        vdd: v[6],
        rise_time: v[7],
        rail: Rail::Ground,
    }
}

/// Shrinks a failing outcome toward the paper-nominal anchor and builds
/// its repro file.
fn minimize_violation(
    outcome: &ScenarioOutcome,
    policy: &TolerancePolicy,
) -> Result<ReproCase, SsnError> {
    let _span = ssn_telemetry::span("oracle.shrink");
    let reference = reference_config();
    let fails = |v: &[f64]| {
        let cfg = config_from_vec(v);
        matches!(evaluate_scenario(&cfg, policy), Ok((_, Some(_))))
    };
    let shrunk = shrink::shrink_vector(
        &config_to_vec(&outcome.config),
        &config_to_vec(&reference),
        SHRINK_STEPS,
        SHRINK_PASSES,
        fails,
    );
    let minimized = config_from_vec(&shrunk);
    // The shrinker's invariant guarantees the minimized point still fails;
    // fall back to the original on the (unreachable) alternative.
    let (metrics, violation) = match (evaluate_scenario(&minimized, policy), outcome.violation) {
        (Ok((m, Some(v))), _) => (m, v),
        (_, Some(v)) => (outcome.metrics, v),
        (_, None) => {
            return Err(SsnError::invalid(
                "repro source",
                outcome.index as f64,
                "minimization requires a failing outcome",
            ))
        }
    };
    let file_text = format_repro(
        outcome.index,
        &outcome.config,
        &minimized,
        &metrics,
        &violation,
    )?;
    Ok(ReproCase {
        index: outcome.index,
        original: outcome.config,
        minimized,
        violation,
        metrics,
        file_text,
    })
}

fn write_scenario_section(out: &mut String, c: &ScenarioConfig) {
    out.push_str(&format!("k = {:e}\n", c.k));
    out.push_str(&format!("sigma = {:e}\n", c.sigma));
    out.push_str(&format!("v0 = {:e}\n", c.v0));
    out.push_str(&format!("n_drivers = {}\n", c.n_drivers));
    out.push_str(&format!("inductance = {:e}\n", c.inductance));
    out.push_str(&format!("capacitance = {:e}\n", c.capacitance));
    out.push_str(&format!("vdd = {:e}\n", c.vdd));
    out.push_str(&format!("rise_time = {:e}\n", c.rise_time));
}

/// Serializes a self-contained repro file: the minimized scenario (exact
/// round-trip float text), the observed violation, the original scenario
/// it was shrunk from, and a replayable SPICE deck of the synthesized
/// oracle circuit.
///
/// The `[scenario]` section is the authoritative replay input
/// ([`parse_repro`] / `ssn validate --replay`); the `[netlist]` section is
/// a standalone deck for `ssn simulate`.
///
/// # Errors
///
/// Returns [`SsnError::Simulation`] when the minimized scenario cannot be
/// synthesized into a deck (cannot happen for a validated scenario).
pub fn format_repro(
    index: usize,
    original: &ScenarioConfig,
    minimized: &ScenarioConfig,
    metrics: &OracleMetrics,
    violation: &Violation,
) -> Result<String, SsnError> {
    let s = minimized.validate()?;
    let params = synth_params(&s);
    let deck = writer::write_deck(
        &ssn_equivalent_circuit(&params)?,
        "ssn differential-oracle repro (linearized SSN circuit)",
        Some(ssn_tran_directive(&params)),
    )?;
    let mut out = String::new();
    out.push_str("# ssn differential-oracle repro v1\n");
    out.push_str("# replay: ssn validate --replay <this-file>\n");
    out.push_str("# (the [netlist] deck also runs standalone: ssn simulate <deck> --probe ng)\n");
    out.push_str("\n[scenario]\n");
    write_scenario_section(&mut out, minimized);
    out.push_str("\n[observed]\n");
    out.push_str(&format!("case = {}\n", case_slug(metrics.case)));
    out.push_str(&format!("metric = {}\n", violation.metric.slug()));
    out.push_str(&format!("observed = {:e}\n", violation.observed));
    out.push_str(&format!("budget = {:e}\n", violation.budget));
    out.push_str(&format!(
        "closed_form_vn_max = {:e}\n",
        metrics.model_vn_max
    ));
    out.push_str(&format!("simulated_vn_max = {:e}\n", metrics.mna_vn_max));
    out.push_str(&format!("l_only_vn_max = {:e}\n", metrics.l_only_vn_max));
    out.push_str("\n[original]\n");
    out.push_str(&format!("index = {index}\n"));
    write_scenario_section(&mut out, original);
    out.push_str("\n[netlist]\n");
    out.push_str(&deck);
    Ok(out)
}

/// The violation recorded in a repro file's `[observed]` section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordedViolation {
    /// The recorded metric.
    pub metric: OracleMetric,
    /// The recorded observed value.
    pub observed: f64,
    /// The recorded budget.
    pub budget: f64,
}

/// A parsed repro file.
#[derive(Debug, Clone)]
pub struct ReproFile {
    /// The minimized scenario (the replay input).
    pub scenario: ScenarioConfig,
    /// The recorded violation, when the `[observed]` section is complete.
    pub recorded: Option<RecordedViolation>,
}

/// Parses a repro file produced by [`format_repro`].
///
/// Only the `[scenario]` and `[observed]` sections are interpreted;
/// comments, `[original]`, and the `[netlist]` deck are ignored.
///
/// # Errors
///
/// Returns [`SsnError::InvalidScenario`] for malformed key/value lines,
/// unparseable numbers, or a missing scenario field.
pub fn parse_repro(text: &str) -> Result<ReproFile, SsnError> {
    let mut section = String::new();
    let mut scenario: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    let mut metric: Option<OracleMetric> = None;
    let mut observed: Option<f64> = None;
    let mut budget: Option<f64> = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.to_owned();
            if section == "netlist" {
                break; // the deck is free-form; never parsed here
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(SsnError::scenario(format!(
                "repro: expected `key = value`, got {line:?}"
            )));
        };
        let (key, value) = (key.trim(), value.trim());
        match section.as_str() {
            "scenario" => {
                let v: f64 = value.parse().map_err(|_| {
                    SsnError::scenario(format!("repro: cannot parse {key} value {value:?}"))
                })?;
                scenario.insert(key.to_owned(), v);
            }
            "observed" => match key {
                "metric" => {
                    metric = Some(OracleMetric::from_slug(value).ok_or_else(|| {
                        SsnError::scenario(format!("repro: unknown metric {value:?}"))
                    })?);
                }
                "observed" | "budget" => {
                    let v: f64 = value.parse().map_err(|_| {
                        SsnError::scenario(format!("repro: cannot parse {key} value {value:?}"))
                    })?;
                    if key == "observed" {
                        observed = Some(v);
                    } else {
                        budget = Some(v);
                    }
                }
                _ => {} // informational (case, closed_form_vn_max, ...)
            },
            _ => {} // [original] and anything unknown: informational
        }
    }
    let get = |key: &str| {
        scenario
            .get(key)
            .copied()
            .ok_or_else(|| SsnError::scenario(format!("repro: missing scenario field {key:?}")))
    };
    let config = ScenarioConfig {
        k: get("k")?,
        sigma: get("sigma")?,
        v0: get("v0")?,
        n_drivers: get("n_drivers")?.round().max(0.0) as usize,
        inductance: get("inductance")?,
        capacitance: get("capacitance")?,
        vdd: get("vdd")?,
        rise_time: get("rise_time")?,
        rail: Rail::Ground,
    };
    let recorded = match (metric, observed, budget) {
        (Some(metric), Some(observed), Some(budget)) => Some(RecordedViolation {
            metric,
            observed,
            budget,
        }),
        _ => None,
    };
    Ok(ReproFile {
        scenario: config,
        recorded,
    })
}

/// Re-runs a repro file's scenario through the oracles under `policy`.
///
/// # Errors
///
/// Propagates [`parse_repro`] and [`evaluate_scenario`] failures.
pub fn replay_repro(
    text: &str,
    policy: &TolerancePolicy,
) -> Result<(ReproFile, OracleMetrics, Option<Violation>), SsnError> {
    let file = parse_repro(text)?;
    let (metrics, violation) = evaluate_scenario(&file.scenario, policy)?;
    Ok((file, metrics, violation))
}

/// Convenience serial entry point: evaluates `range` of the `(seed)`
/// corpus and returns the outcomes (tests and tooling; the full runner is
/// [`run_differential`]).
///
/// # Errors
///
/// Propagates the first [`evaluate_scenario`] failure.
pub fn evaluate_range(
    seed: u64,
    range: Range<usize>,
    policy: &TolerancePolicy,
) -> Result<Vec<ScenarioOutcome>, SsnError> {
    range
        .map(|i| {
            let config = corpus_scenario(seed, i);
            evaluate_scenario(&config, policy).map(|(metrics, violation)| ScenarioOutcome {
                index: i,
                config,
                metrics,
                violation,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_valid() {
        for i in 0..64 {
            let a = corpus_scenario(7, i);
            let b = corpus_scenario(7, i);
            assert_eq!(a, b, "index {i} must be reproducible");
            a.validate()
                .unwrap_or_else(|e| panic!("index {i} invalid: {e} ({a:?})"));
        }
        // Different seeds decorrelate.
        assert_ne!(corpus_scenario(7, 0), corpus_scenario(8, 0));
    }

    #[test]
    fn corpus_slots_hit_their_target_cases() {
        // Slots 0..8 map onto over/critical/fast/slow by construction.
        let expect = [
            MaxSsnCase::Overdamped,
            MaxSsnCase::Overdamped,
            MaxSsnCase::CriticallyDamped,
            MaxSsnCase::CriticallyDamped,
            MaxSsnCase::UnderdampedFastInput,
            MaxSsnCase::UnderdampedFastInput,
            MaxSsnCase::UnderdampedSlowInput,
            MaxSsnCase::UnderdampedSlowInput,
        ];
        for base in [0usize, 9, 18, 90] {
            for (slot, want) in expect.iter().enumerate() {
                let s = corpus_scenario(3, base + slot).validate().unwrap();
                let (_, case) = lcmodel::vn_max(&s);
                assert_eq!(case, *want, "slot {slot} at base {base}");
            }
        }
        // Adversarial sub-slot 2 is the exact C = 0 degenerate.
        let s = corpus_scenario(3, 2 * 9 + 8).validate().unwrap();
        assert_eq!(s.capacitance().value(), 0.0);
        assert_eq!(lcmodel::vn_max(&s).1, MaxSsnCase::LOnly);
    }

    #[test]
    fn reference_scenario_passes_the_paper_policy() {
        let (metrics, violation) =
            evaluate_scenario(&reference_config(), &TolerancePolicy::paper()).unwrap();
        assert!(violation.is_none(), "{metrics:?}");
        assert!(metrics.vn_rel < 0.005, "vn_rel = {}", metrics.vn_rel);
        assert!(metrics.rms_frac < 0.01, "rms = {}", metrics.rms_frac);
    }

    #[test]
    fn scaled_policy_forces_violations() {
        let tight = TolerancePolicy::paper().scaled(1e-6);
        let (_, violation) = evaluate_scenario(&reference_config(), &tight).unwrap();
        let v = violation.expect("a 1e-6-scaled budget must be violated");
        assert!(v.observed > v.budget);
        // And the display/slug machinery holds together.
        assert!(v.to_string().contains(v.metric.slug()));
        assert_eq!(OracleMetric::from_slug(v.metric.slug()), Some(v.metric));
        assert_eq!(OracleMetric::from_slug("nope"), None);
    }

    #[test]
    fn policy_validation_rejects_bad_budgets() {
        let mut p = TolerancePolicy::paper();
        p.overdamped.vn_rel = 0.0;
        assert!(p.validate().is_err());
        let mut p = TolerancePolicy::paper();
        p.l_only.l_only_rel = Some(f64::NAN);
        assert!(p.validate().is_err());
        assert!(TolerancePolicy::paper().validate().is_ok());
    }

    #[test]
    fn repro_text_round_trips_the_minimized_scenario() {
        let cfg = reference_config();
        let (metrics, _) = evaluate_scenario(&cfg, &TolerancePolicy::paper()).unwrap();
        let violation = Violation {
            metric: OracleMetric::WaveformRms,
            observed: 0.5,
            budget: 0.015,
        };
        let text = format_repro(42, &cfg, &cfg, &metrics, &violation).unwrap();
        assert!(text.contains("[netlist]"));
        assert!(text.contains(".tran"));
        let file = parse_repro(&text).unwrap();
        assert_eq!(file.scenario, cfg, "exact float round trip");
        let rec = file.recorded.expect("observed section parsed");
        assert_eq!(rec.metric, OracleMetric::WaveformRms);
        assert_eq!(rec.observed, 0.5);
        assert_eq!(rec.budget, 0.015);
    }

    #[test]
    fn repro_parser_rejects_malformed_input() {
        assert!(parse_repro("[scenario]\nnot a kv line\n").is_err());
        assert!(parse_repro("[scenario]\nk = banana\n").is_err());
        // Missing fields.
        assert!(parse_repro("[scenario]\nk = 1e-3\n").is_err());
        // Unknown metric.
        let cfg = reference_config();
        let mut text = String::from("[scenario]\n");
        super::write_scenario_section(&mut text, &cfg);
        text.push_str("[observed]\nmetric = bogus\n");
        assert!(parse_repro(&text).is_err());
        // Without [observed], recorded is None but the scenario parses.
        let mut text = String::from("[scenario]\n");
        super::write_scenario_section(&mut text, &cfg);
        let file = parse_repro(&text).unwrap();
        assert!(file.recorded.is_none());
        assert_eq!(file.scenario, cfg);
    }

    #[test]
    fn summary_csv_shape_is_stable() {
        let report = run_differential(&OracleOptions {
            corpus: 18,
            exec: ExecPolicy::serial(),
            ..OracleOptions::default()
        })
        .unwrap();
        let csv = report.summary_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 6, "header + 5 cases:\n{csv}");
        assert!(lines[0].starts_with("case,count,violations"));
        for (line, case) in lines[1..].iter().zip(CASE_ORDER) {
            assert!(line.starts_with(case_slug(case)), "{line}");
        }
        assert_eq!(report.scenarios, 18);
    }
}
