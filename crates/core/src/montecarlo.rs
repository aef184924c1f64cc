//! Monte Carlo SSN analysis under process and package variation.
//!
//! The paper's formulas are deterministic; a pad-ring designer additionally
//! needs to know how much margin to hold against die-to-die variation of
//! the fitted device (`K`, `sigma`, `V_0`) and of the package parasitics
//! (`L`, `C`). This module samples those parameters from independent
//! Gaussians and pushes each sample through the full Table-1 model.
//!
//! Sampling is chunked for the parallel engine (see [`crate::parallel`]):
//! samples are drawn in fixed blocks of [`MC_CHUNK`], each block from its
//! own RNG stream derived from `(seed, chunk_index)`. The thread count
//! therefore **never** changes the result — `run_monte_carlo_with` on 8
//! workers returns a bit-identical [`McResult`] to the serial run, which
//! the workspace determinism tests pin down.
//!
//! # The batched SoA hot path
//!
//! Chunks are evaluated by one of two paths (see [`McPath`]):
//!
//! * **Batched** (default): the chunk's draws are scattered into
//!   structure-of-arrays parameter slabs ([`perturb_batch`]) and evaluated
//!   by the slab kernels ([`crate::lcmodel::vn_max_slab`] /
//!   [`crate::lmodel::vn_max_slab`]) — no per-sample scenario rebuild.
//! * **Scalar**: the original one-scenario-at-a-time reference path,
//!   retained so the equivalence suite (`tests/soa_equivalence.rs`) can
//!   prove the batched path bit-identical forever.
//!
//! Both paths consume the chunk's RNG stream in the exact same per-sample
//! interleaved order (`K`, `sigma`, `V_0`, `L`, `C` — [`perturb_one`]) and
//! produce bit-identical chunk payloads, so checkpoints written by either
//! path resume on the other (`tests/durability.rs` pins the cross-path
//! resume).
//!
//! # The stream contract
//!
//! A sample's value is fixed by the chunk→stream mapping, the per-sample
//! draw order, and the normal sampler ([`ssn_numeric::rng::Rng::normal`]).
//! [`MC_STREAM_VERSION`] names that triple; [`mc_run_spec`] digests it, so
//! a journal written under another version is refused as a spec mismatch
//! instead of resuming into a result that mixes two streams.

use crate::durable::{
    run_chunked_durable, ByteWriter, DegradeStep, Durability, DurableOptions, ParamDigest, RunSpec,
};
use crate::error::{CheckpointErrorKind, SsnError};
use crate::faults;
use crate::lcmodel;
use crate::lmodel;
use crate::parallel::{ExecPolicy, ExecStats};
use crate::scenario::{Rail, SsnScenario};
use ssn_numeric::rng::Rng;
use ssn_numeric::stats;
use ssn_units::{Farads, Henrys, Siemens, Volts};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Samples per work-queue chunk (and per RNG stream). Fixed — independent
/// of the thread count — because chunk boundaries define which stream a
/// sample draws from.
pub const MC_CHUNK: usize = 256;

/// Version of the Monte Carlo stream contract (see the module docs).
/// Version 1 drew normals by Box–Muller; version 2 by the ziggurat. Any
/// change that moves a sample's value bumps it.
pub const MC_STREAM_VERSION: u64 = 2;

/// Which evaluation path executes a Monte Carlo chunk.
///
/// Both paths are bit-identical by contract: same RNG stream consumption,
/// same clamps, same floating-point operation sequence per sample. The
/// scalar path is retained purely as the differential reference — the
/// `soa_equivalence` suite compares the two, and `mc_run_spec`
/// deliberately does *not* digest the path, so a checkpoint written by one
/// resumes on the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McPath {
    /// Batched SoA hot path: perturb parameter slabs in place, evaluate
    /// `vn_max` over contiguous arrays. The default.
    #[default]
    Batched,
    /// One-scenario-at-a-time reference path (the pre-SoA implementation).
    Scalar,
}

impl std::fmt::Display for McPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Batched => write!(f, "batched"),
            Self::Scalar => write!(f, "scalar"),
        }
    }
}

/// Standard deviations of the varied parameters. Fractional sigmas apply
/// multiplicatively (`x * (1 + sigma * z)`), absolute sigmas additively.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    /// Fractional sigma of the ASDM transconductance `K`.
    pub k_frac: f64,
    /// Absolute sigma of the ASDM source-sensitivity `sigma`.
    pub sigma_abs: f64,
    /// Absolute sigma of the displacement voltage `V_0` (volts).
    pub v0_abs: f64,
    /// Fractional sigma of the package inductance.
    pub l_frac: f64,
    /// Fractional sigma of the package capacitance.
    pub c_frac: f64,
}

impl VariationSpec {
    /// A representative corner: 8% on `K`, 0.03 on `sigma`, 20 mV on
    /// `V_0`, 10% on `L`, 15% on `C`.
    pub fn typical() -> Self {
        Self {
            k_frac: 0.08,
            sigma_abs: 0.03,
            v0_abs: 0.02,
            l_frac: 0.10,
            c_frac: 0.15,
        }
    }

    /// No variation at all (degenerate, for testing).
    pub fn frozen() -> Self {
        Self {
            k_frac: 0.0,
            sigma_abs: 0.0,
            v0_abs: 0.0,
            l_frac: 0.0,
            c_frac: 0.0,
        }
    }

    /// Checks every sigma is finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`SsnError::InvalidInput`] naming the offending field.
    pub fn validate(&self) -> Result<(), SsnError> {
        let fields = [
            ("K variation", self.k_frac),
            ("sigma variation", self.sigma_abs),
            ("V0 variation", self.v0_abs),
            ("L variation", self.l_frac),
            ("C variation", self.c_frac),
        ];
        for (name, value) in fields {
            if !(value >= 0.0) || !value.is_finite() {
                return Err(SsnError::invalid(
                    name,
                    value,
                    "must be non-negative and finite",
                ));
            }
        }
        Ok(())
    }
}

/// A fixed-width histogram of the sampled maximum SSN.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Left edge of the first bin (the sample minimum).
    pub lo: Volts,
    /// Right edge of the last bin (the sample maximum).
    pub hi: Volts,
    /// Per-bin sample counts.
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Width of one bin (volts); zero when all samples coincide.
    pub fn bin_width(&self) -> Volts {
        Volts::new((self.hi.value() - self.lo.value()) / self.counts.len() as f64)
    }
}

/// The sampled distribution of the maximum SSN voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct McResult {
    samples: Vec<f64>,
}

impl McResult {
    /// Number of Monte Carlo samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were drawn (cannot happen via
    /// [`run_monte_carlo`]).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw sorted samples (volts).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Sample mean (volts).
    ///
    /// Reduced in the pinned left-to-right order of
    /// [`ssn_numeric::stats::sum_ordered`] — never by a reassociating fast
    /// sum — so the value is bit-stable across evaluation paths and
    /// accumulation-scheme changes.
    pub fn mean(&self) -> Volts {
        Volts::new(stats::sum_ordered(&self.samples) / self.samples.len() as f64)
    }

    /// Sample standard deviation (volts), accumulated in the same pinned
    /// order as [`McResult::mean`]
    /// ([`ssn_numeric::stats::moments_ordered`]).
    ///
    /// An `McResult` is never empty by construction; the NaN arm mirrors
    /// what [`McResult::mean`] yields for that impossible input.
    pub fn std_dev(&self) -> Volts {
        Volts::new(
            stats::moments_ordered(&self.samples)
                .map(|(_, sd)| sd)
                .unwrap_or(f64::NAN),
        )
    }

    /// The `q`-quantile (0..=1) by linear interpolation of the sorted
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Volts {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let w = pos - lo as f64;
        Volts::new(self.samples[lo] * (1.0 - w) + self.samples[hi] * w)
    }

    /// Fraction of samples whose maximum SSN stays within `budget`.
    pub fn yield_within(&self, budget: Volts) -> f64 {
        let ok = self
            .samples
            .iter()
            .filter(|&&v| v <= budget.value())
            .count();
        ok as f64 / self.samples.len() as f64
    }

    /// Bins the samples into a `bins`-bin histogram spanning the sample
    /// range. Degenerate distributions (all samples equal) collapse into
    /// the first bin.
    ///
    /// # Panics
    ///
    /// Panics when `bins == 0`.
    pub fn histogram(&self, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        let lo = self.samples[0];
        let hi = self.samples[self.samples.len() - 1];
        let mut counts = vec![0usize; bins];
        let width = (hi - lo) / bins as f64;
        for &v in &self.samples {
            let bin = if width > 0.0 {
                (((v - lo) / width) as usize).min(bins - 1)
            } else {
                0
            };
            counts[bin] += 1;
        }
        Histogram {
            lo: Volts::new(lo),
            hi: Volts::new(hi),
            counts,
        }
    }
}

/// One perturbed parameter draw: the five varied quantities of a single
/// Monte Carlo sample, already clamped to the model domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbedParams {
    /// ASDM transconductance `K` (siemens), clamped to `>= 1e-6`.
    pub k: f64,
    /// ASDM source-sensitivity `sigma`, clamped to `>= 1`.
    pub sigma: f64,
    /// Displacement voltage `V_0` (volts), clamped to `[1e-3, 0.95 V_dd]`.
    pub v0: f64,
    /// Package inductance `L` (henrys), clamped to `>= 1e-12`.
    pub l: f64,
    /// Package capacitance `C` (farads), clamped to `>= 0`.
    pub c: f64,
}

/// Draws the five varied parameters of one sample from `rng`.
///
/// Out-of-domain draws (non-positive `K`/`L`, `sigma < 1`, `V_0` outside
/// `(0, V_dd)`) are clamped to the domain edge rather than redrawn, so the
/// sample count is exact and tails remain honest. The five variates are
/// always drawn in the same order (`K`, `sigma`, `V_0`, `L`, `C`) — part
/// of the determinism contract, and the *only* way either evaluation path
/// touches the stream: [`perturb_batch`] is a loop over this function, so
/// the batched path cannot drift from the scalar one (the property suite
/// pins the clamps and the draw-for-draw agreement).
pub fn perturb_one(nominal: &SsnScenario, spec: &VariationSpec, rng: &mut Rng) -> PerturbedParams {
    let a0 = nominal.asdm();
    let vdd = nominal.vdd().value();
    PerturbedParams {
        k: (a0.k().value() * (1.0 + spec.k_frac * rng.normal())).max(1e-6),
        sigma: (a0.sigma() + spec.sigma_abs * rng.normal()).max(1.0),
        v0: (a0.v0().value() + spec.v0_abs * rng.normal()).clamp(1e-3, vdd * 0.95),
        l: (nominal.inductance().value() * (1.0 + spec.l_frac * rng.normal())).max(1e-12),
        c: (nominal.capacitance().value() * (1.0 + spec.c_frac * rng.normal())).max(0.0),
    }
}

/// Structure-of-arrays slabs of perturbed parameters for one chunk: the
/// batched counterpart of a sequence of [`PerturbedParams`].
///
/// Layout is columnar — one contiguous array per parameter — so the slab
/// kernels stream each column linearly. Sample `i` of the batch is
/// `(k[i], sigma[i], v0[i], l[i], c[i])`, in draw order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct McBatch {
    k: Vec<f64>,
    sigma: Vec<f64>,
    v0: Vec<f64>,
    l: Vec<f64>,
    c: Vec<f64>,
}

impl McBatch {
    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.k.len()
    }

    /// `true` when the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.k.is_empty()
    }

    /// The `K` column (siemens).
    pub fn k(&self) -> &[f64] {
        &self.k
    }

    /// The `sigma` column.
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// The `V_0` column (volts).
    pub fn v0(&self) -> &[f64] {
        &self.v0
    }

    /// The `L` column (henrys).
    pub fn l(&self) -> &[f64] {
        &self.l
    }

    /// The `C` column (farads).
    pub fn c(&self) -> &[f64] {
        &self.c
    }
}

/// Fills a structure-of-arrays batch with `n` perturbed draws from `rng`.
///
/// Consumes the stream in the exact per-sample interleaved order of the
/// scalar path — `n` repetitions of [`perturb_one`] — and merely scatters
/// the draws into columns. SoA changes the *storage layout*, never the
/// draw order: drawing column-major (all `K`s first) would consume the
/// stream differently and break bit-compatibility with existing seeds and
/// checkpoints.
pub fn perturb_batch(
    nominal: &SsnScenario,
    spec: &VariationSpec,
    rng: &mut Rng,
    n: usize,
) -> McBatch {
    let mut batch = McBatch {
        k: Vec::with_capacity(n),
        sigma: Vec::with_capacity(n),
        v0: Vec::with_capacity(n),
        l: Vec::with_capacity(n),
        c: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let p = perturb_one(nominal, spec, rng);
        batch.k.push(p.k);
        batch.sigma.push(p.sigma);
        batch.v0.push(p.v0);
        batch.l.push(p.l);
        batch.c.push(p.c);
    }
    batch
}

/// Scalar reference path: builds the varied scenario and evaluates its
/// Table-1 maximum through the exact pre-SoA call chain.
fn sample_vn_max(
    nominal: &SsnScenario,
    spec: &VariationSpec,
    rng: &mut Rng,
) -> Result<f64, SsnError> {
    let p = perturb_one(nominal, spec, rng);
    let asdm = ssn_devices::Asdm::new(Siemens::new(p.k), p.sigma, Volts::new(p.v0));
    let s = SsnScenario::from_asdm(asdm, nominal.vdd())
        .drivers(nominal.n_drivers())
        .inductance(Henrys::new(p.l))
        .capacitance(Farads::new(p.c))
        .rise_time(nominal.rise_time())
        .rail(nominal.rail())
        .build()?;
    Ok(lcmodel::vn_max(&s).0.value())
}

/// Runs `n_samples` Monte Carlo evaluations of the Table-1 maximum-SSN
/// model around `nominal`, serially, with reproducible seeding.
///
/// Equivalent to [`run_monte_carlo_with`] under [`ExecPolicy::serial`] —
/// and, by the engine's determinism contract, to *any* thread count.
///
/// # Errors
///
/// Returns [`SsnError::InvalidInput`] when `n_samples == 0` or the
/// variation spec is malformed.
///
/// # Examples
///
/// ```
/// use ssn_core::montecarlo::{run_monte_carlo, VariationSpec};
/// use ssn_core::scenario::SsnScenario;
/// use ssn_devices::Asdm;
/// use ssn_units::{Siemens, Volts};
///
/// # fn main() -> Result<(), ssn_core::SsnError> {
/// let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
/// let nominal = SsnScenario::from_asdm(asdm, Volts::new(1.8)).build()?;
/// let mc = run_monte_carlo(&nominal, &VariationSpec::typical(), 500, 42)?;
/// assert!(mc.quantile(0.95) > mc.quantile(0.05));
/// # Ok(())
/// # }
/// ```
pub fn run_monte_carlo(
    nominal: &SsnScenario,
    spec: &VariationSpec,
    n_samples: usize,
    seed: u64,
) -> Result<McResult, SsnError> {
    run_monte_carlo_with(nominal, spec, n_samples, seed, &ExecPolicy::serial())
        .map(|(result, _)| result)
}

/// Runs the Monte Carlo analysis on the parallel engine and returns the
/// result together with run telemetry.
///
/// Samples are drawn in fixed [`MC_CHUNK`]-sized blocks, chunk `c` from
/// RNG stream `(seed, c)`; the result is bit-identical for every
/// `policy.threads()`.
///
/// **Degradation contract:** each chunk is panic-isolated (the durable
/// runner, here with no journal and no budget). A chunk that panics or produces
/// a non-finite sample is dropped and counted in
/// [`ExecStats::failed_chunks`]; the surviving samples are returned as a
/// *partial* [`McResult`] (`len() < n_samples`). Callers that cannot accept
/// partial data must check `stats.failed_chunks == 0`.
///
/// # Errors
///
/// * [`SsnError::InvalidInput`] when `n_samples == 0` or `spec` holds a
///   negative or non-finite sigma.
/// * [`SsnError::AllChunksFailed`] when not a single chunk survived.
pub fn run_monte_carlo_with(
    nominal: &SsnScenario,
    spec: &VariationSpec,
    n_samples: usize,
    seed: u64,
    policy: &ExecPolicy,
) -> Result<(McResult, ExecStats), SsnError> {
    run_monte_carlo_with_path(nominal, spec, n_samples, seed, policy, McPath::default())
}

/// [`run_monte_carlo_with`] on an explicit evaluation path.
///
/// The path never changes results — [`McPath::Scalar`] exists as the
/// differential reference for the batched default, and the equivalence
/// suite pins `Batched == Scalar` bit for bit at every thread count.
///
/// # Errors
///
/// As [`run_monte_carlo_with`].
pub fn run_monte_carlo_with_path(
    nominal: &SsnScenario,
    spec: &VariationSpec,
    n_samples: usize,
    seed: u64,
    policy: &ExecPolicy,
    path: McPath,
) -> Result<(McResult, ExecStats), SsnError> {
    run_monte_carlo_durable_with_path(
        nominal,
        spec,
        n_samples,
        seed,
        policy,
        &DurableOptions::none(),
        path,
    )
    .map(|(result, stats, _)| (result, stats))
}

/// Sorts the samples in place. `total_cmp` calls two values equal only
/// when their bits are, so every correct sort — the in-place unstable one
/// included — yields the same bits; and with every sample checked finite,
/// the total order is the numeric one.
fn sort_samples(samples: &mut [f64]) {
    samples.sort_unstable_by(f64::total_cmp);
}

/// Evaluates one Monte Carlo chunk into `out`: samples `range` from RNG
/// stream `(seed, c)` on the selected path. Both paths must produce
/// identical chunk results for the determinism and resume invariants to
/// hold.
fn mc_chunk(
    nominal: &SsnScenario,
    spec: &VariationSpec,
    seed: u64,
    c: usize,
    range: Range<usize>,
    path: McPath,
    out: &mut [f64],
) -> Result<(), SsnError> {
    match path {
        McPath::Batched => mc_chunk_batched(nominal, spec, seed, c, range, out),
        McPath::Scalar => mc_chunk_scalar(nominal, spec, seed, c, range, out),
    }
}

/// The retained scalar reference chunk: one scenario rebuild per sample.
fn mc_chunk_scalar(
    nominal: &SsnScenario,
    spec: &VariationSpec,
    seed: u64,
    c: usize,
    range: Range<usize>,
    out: &mut [f64],
) -> Result<(), SsnError> {
    faults::maybe_panic_chunk(c);
    let nan = faults::nan_site();
    let mut rng = Rng::from_seed_and_stream(seed, c as u64);
    ssn_telemetry::add("mc.samples", range.len() as u64);
    for (i, slot) in range.zip(out) {
        let _sample_span = ssn_telemetry::span("mc.sample");
        let v = nan.corrupt(i, sample_vn_max(nominal, spec, &mut rng)?);
        if !v.is_finite() {
            return Err(SsnError::invalid(
                "vn_max",
                v,
                "model output must be finite",
            ));
        }
        *slot = v;
    }
    Ok(())
}

/// The batched SoA chunk: perturb the whole chunk into parameter slabs,
/// then evaluate `vn_max` over the contiguous columns.
///
/// Mirrors the scalar chunk observable for observable: same panic
/// injection point, same `mc.samples` accounting, same per-sample NaN
/// injection index (the *global* sample index `i`), and the same
/// chunk-fails-whole error on a non-finite sample.
fn mc_chunk_batched(
    nominal: &SsnScenario,
    spec: &VariationSpec,
    seed: u64,
    c: usize,
    range: Range<usize>,
    out: &mut [f64],
) -> Result<(), SsnError> {
    faults::maybe_panic_chunk(c);
    let nan = faults::nan_site();
    let mut rng = Rng::from_seed_and_stream(seed, c as u64);
    ssn_telemetry::add("mc.samples", range.len() as u64);
    let batch = {
        let _span = ssn_telemetry::span("mc.perturb");
        perturb_batch(nominal, spec, &mut rng, range.len())
    };
    {
        let _span = ssn_telemetry::span("mc.eval");
        // A C = 0 nominal with any c_frac perturbs to exactly 0 (the
        // `max(0.0)` clamp), so the pure L-only kernel applies to the
        // whole slab; otherwise the LC kernel handles per-sample C = 0
        // fall-through exactly like the scalar path.
        if nominal.capacitance().value() == 0.0 {
            lmodel::vn_max_slab(
                nominal,
                batch.k(),
                batch.sigma(),
                batch.v0(),
                batch.l(),
                out,
            );
        } else {
            lcmodel::vn_max_slab(
                nominal,
                batch.k(),
                batch.sigma(),
                batch.v0(),
                batch.l(),
                batch.c(),
                out,
            );
        }
    }
    for (j, i) in range.enumerate() {
        let v = nan.corrupt(i, out[j]);
        if !v.is_finite() {
            return Err(SsnError::invalid(
                "vn_max",
                v,
                "model output must be finite",
            ));
        }
        out[j] = v;
    }
    Ok(())
}

/// The durable-run identity of a Monte Carlo job: every parameter that
/// determines its samples, and the [`MC_STREAM_VERSION`] that turns them
/// into samples, digested so a checkpoint can never be resumed under
/// different settings or a different stream.
///
/// Public so out-of-process schedulers (the `ssn-server` job queue) can
/// name the exact same journal identity — a server-side checkpoint written
/// before a crash must resume under the identical [`RunSpec`] the library
/// runner derives.
pub fn mc_run_spec(
    nominal: &SsnScenario,
    spec: &VariationSpec,
    n_samples: usize,
    seed: u64,
) -> RunSpec {
    let a = nominal.asdm();
    let mut d = ParamDigest::new("montecarlo");
    d.push_f64(a.k().value())
        .push_f64(a.sigma())
        .push_f64(a.v0().value())
        .push_f64(nominal.vdd().value())
        .push_u64(nominal.n_drivers() as u64)
        .push_f64(nominal.inductance().value())
        .push_f64(nominal.capacitance().value())
        .push_f64(nominal.rise_time().value())
        .push_u64(match nominal.rail() {
            Rail::Ground => 0,
            Rail::Power => 1,
        })
        .push_f64(spec.k_frac)
        .push_f64(spec.sigma_abs)
        .push_f64(spec.v0_abs)
        .push_f64(spec.l_frac)
        .push_f64(spec.c_frac)
        .push_u64(MC_STREAM_VERSION);
    RunSpec {
        kind: "montecarlo",
        seed,
        params_hash: d.finish(),
        n_items: n_samples,
        chunk_size: MC_CHUNK,
    }
}

/// [`run_monte_carlo_with`] with durable execution: checkpoint/resume and
/// a run budget (see [`crate::durable`]).
///
/// Identical inputs produce a bit-identical [`McResult`] whether the run
/// completed in one session or was killed and resumed any number of times,
/// at any thread count — completed chunks are restored from the journal,
/// never recomputed.
///
/// **Degradation contract:** when the budget expires mid-run, the ladder's
/// first step fires — *shrink samples*: the completed samples are returned
/// as a partial [`McResult`] and the downgrade is recorded in the returned
/// [`Durability`] and the telemetry stream.
///
/// # Errors
///
/// Everything [`run_monte_carlo_with`] returns, plus
/// [`SsnError::Checkpoint`] for an unusable journal,
/// [`SsnError::Interrupted`] for a simulated crash, and
/// [`SsnError::DeadlineExhausted`] when the budget expired before any
/// chunk completed.
pub fn run_monte_carlo_durable(
    nominal: &SsnScenario,
    spec: &VariationSpec,
    n_samples: usize,
    seed: u64,
    policy: &ExecPolicy,
    durable: &DurableOptions,
) -> Result<(McResult, ExecStats, Durability), SsnError> {
    run_monte_carlo_durable_with_path(
        nominal,
        spec,
        n_samples,
        seed,
        policy,
        durable,
        McPath::default(),
    )
}

/// [`run_monte_carlo_durable`] on an explicit evaluation path.
///
/// The run spec does **not** digest the path: both paths produce
/// bit-identical chunk payloads, so a checkpoint journal written mid-run
/// by one path resumes seamlessly on the other (pinned by the cross-path
/// cases in `tests/durability.rs`). It does digest [`MC_STREAM_VERSION`]:
/// a journal written under an older stream is refused with a typed spec
/// mismatch (`tests/mc_stream.rs`).
///
/// # Errors
///
/// As [`run_monte_carlo_durable`].
pub fn run_monte_carlo_durable_with_path(
    nominal: &SsnScenario,
    spec: &VariationSpec,
    n_samples: usize,
    seed: u64,
    policy: &ExecPolicy,
    durable: &DurableOptions,
    path: McPath,
) -> Result<(McResult, ExecStats, Durability), SsnError> {
    if n_samples == 0 {
        return Err(SsnError::invalid(
            "samples",
            0.0,
            "need at least one Monte Carlo sample",
        ));
    }
    spec.validate()?;
    let _run_span = ssn_telemetry::span("mc.run");
    let run_spec = mc_run_spec(nominal, spec, n_samples, seed);
    // Each chunk writes its samples straight into its slice of the result,
    // and a restored chunk is decoded into it, so no per-chunk buffer
    // outlives the chunk. A payload is the sample count, then the samples.
    let mut samples = vec![0.0; n_samples];
    let run = {
        let slices: Vec<Mutex<&mut [f64]>> = samples.chunks_mut(MC_CHUNK).map(Mutex::new).collect();
        // A chunk that panicked leaves its slice half written and the lock
        // poisoned; a retry rewrites the whole slice, and a failed chunk's
        // slice is dropped below, so the guard is still good.
        let slice = |c: usize| slices[c].lock().unwrap_or_else(PoisonError::into_inner);
        run_chunked_durable(
            &run_spec,
            policy,
            durable,
            |c, ()| {
                let out = slice(c);
                let mut w = ByteWriter::new();
                w.put_usize(out.len());
                for &v in out.iter() {
                    w.put_f64(v);
                }
                w.into_vec()
            },
            |c, r| {
                let mut out = slice(c);
                let n = r.take_usize()?;
                if n != out.len() {
                    return Err(SsnError::checkpoint(
                        "",
                        CheckpointErrorKind::Corrupt,
                        format!("{n} sample(s) recorded for a {}-sample chunk", out.len()),
                    ));
                }
                for v in out.iter_mut() {
                    *v = r.take_f64()?;
                }
                Ok(())
            },
            |c, range| mc_chunk(nominal, spec, seed, c, range, path, &mut slice(c)),
        )?
        .delivered(n_samples)?
    };

    let _collect_span = ssn_telemetry::span("mc.collect");
    // Close the gaps failed and skipped chunks left.
    let mut kept = 0usize;
    for (c, ()) in run.done() {
        let range = run_spec.range(c);
        if kept != range.start {
            samples.copy_within(range.clone(), kept);
        }
        kept += range.len();
    }
    samples.truncate(kept);
    let mut durability = run.durability;
    if durability.deadline_hit && kept < n_samples {
        durability.note_degrade(DegradeStep::ShrinkSamples, n_samples, kept);
    }
    sort_samples(&mut samples);
    Ok((McResult { samples }, run.stats, durability))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssn_devices::Asdm;
    use ssn_units::Seconds;

    fn nominal() -> SsnScenario {
        let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
        SsnScenario::from_asdm(asdm, Volts::new(1.8))
            .drivers(8)
            .inductance(Henrys::from_nanos(5.0))
            .capacitance(Farads::from_picos(1.0))
            .rise_time(Seconds::from_nanos(0.5))
            .build()
            .unwrap()
    }

    #[test]
    fn reproducible_with_seed() {
        let s = nominal();
        let a = run_monte_carlo(&s, &VariationSpec::typical(), 200, 42).unwrap();
        let b = run_monte_carlo(&s, &VariationSpec::typical(), 200, 42).unwrap();
        assert_eq!(a, b);
        let c = run_monte_carlo(&s, &VariationSpec::typical(), 200, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn thread_count_never_changes_the_result() {
        // The determinism contract of the tentpole: 1, 2 and 8 workers
        // produce bit-identical McResults (also covered end-to-end in
        // tests/determinism.rs; spanning several chunks matters here).
        let s = nominal();
        let spec = VariationSpec::typical();
        let n = 3 * MC_CHUNK + 17;
        let (serial, _) = run_monte_carlo_with(&s, &spec, n, 7, &ExecPolicy::serial()).unwrap();
        for threads in [2, 8] {
            let (par, stats) =
                run_monte_carlo_with(&s, &spec, n, 7, &ExecPolicy::with_threads(threads)).unwrap();
            assert_eq!(serial, par, "thread count {threads} changed samples");
            assert_eq!(stats.items, n);
        }
    }

    #[test]
    fn frozen_variation_is_a_delta() {
        let s = nominal();
        let r = run_monte_carlo(&s, &VariationSpec::frozen(), 50, 1).unwrap();
        let nominal_v = lcmodel::vn_max(&s).0.value();
        assert!(r.std_dev().value() < 1e-15);
        assert!((r.mean().value() - nominal_v).abs() < 1e-12);
        assert_eq!(r.len(), 50);
        assert!(!r.is_empty());
        // Degenerate histogram: everything in one bin.
        let h = r.histogram(4);
        assert_eq!(h.counts, vec![50, 0, 0, 0]);
        assert_eq!(h.bin_width(), Volts::ZERO);
    }

    #[test]
    fn mean_near_nominal_and_quantiles_ordered() {
        let s = nominal();
        let r = run_monte_carlo(&s, &VariationSpec::typical(), 2000, 7).unwrap();
        let nominal_v = lcmodel::vn_max(&s).0.value();
        assert!(
            (r.mean().value() - nominal_v).abs() / nominal_v < 0.05,
            "mean {} vs nominal {nominal_v}",
            r.mean()
        );
        let (q05, q50, q95) = (r.quantile(0.05), r.quantile(0.5), r.quantile(0.95));
        assert!(q05 < q50 && q50 < q95);
        // ~N(0,1) quantile sanity: the 95th is about 1.6 sigma out.
        let z = (q95.value() - r.mean().value()) / r.std_dev().value();
        assert!(z > 1.2 && z < 2.2, "z(q95) = {z}");
    }

    #[test]
    fn histogram_partitions_all_samples() {
        let s = nominal();
        let r = run_monte_carlo(&s, &VariationSpec::typical(), 1000, 5).unwrap();
        let h = r.histogram(20);
        assert_eq!(h.counts.iter().sum::<usize>(), 1000);
        assert_eq!(h.counts.len(), 20);
        assert!(h.lo < h.hi);
        assert!(h.bin_width() > Volts::ZERO);
        // Ends of the range hold the min/max samples.
        assert!(h.counts[0] >= 1);
        assert!(h.counts[19] >= 1);
    }

    #[test]
    fn yield_is_monotone_in_budget() {
        let s = nominal();
        let r = run_monte_carlo(&s, &VariationSpec::typical(), 500, 3).unwrap();
        let y_tight = r.yield_within(r.quantile(0.25));
        let y_loose = r.yield_within(r.quantile(0.9));
        assert!(y_tight < y_loose);
        assert!(r.yield_within(Volts::new(10.0)) == 1.0);
        assert!(r.yield_within(Volts::ZERO) == 0.0);
        // Quantile/yield duality.
        assert!((r.yield_within(r.quantile(0.5)) - 0.5).abs() < 0.05);
    }

    #[test]
    fn zero_samples_rejected() {
        assert!(run_monte_carlo(&nominal(), &VariationSpec::typical(), 0, 1).is_err());
        assert!(run_monte_carlo_with(
            &nominal(),
            &VariationSpec::typical(),
            0,
            1,
            &ExecPolicy::auto()
        )
        .is_err());
    }

    #[test]
    fn malformed_variation_spec_is_rejected() {
        let bad = VariationSpec {
            k_frac: f64::NAN,
            ..VariationSpec::typical()
        };
        match run_monte_carlo(&nominal(), &bad, 10, 1) {
            Err(SsnError::InvalidInput { field, .. }) => assert_eq!(field, "K variation"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        let neg = VariationSpec {
            l_frac: -0.1,
            ..VariationSpec::typical()
        };
        assert!(run_monte_carlo(&nominal(), &neg, 10, 1).is_err());
    }

    #[test]
    fn a_restored_chunk_count_must_match_its_slice() {
        let s = nominal();
        let spec = VariationSpec::typical();
        let n = 2 * MC_CHUNK;
        let path = std::env::temp_dir().join(format!("ssn-mc-short-{}.ckpt", std::process::id()));
        let mut store =
            crate::durable::CheckpointStore::create(path.clone(), &mc_run_spec(&s, &spec, n, 1));
        // A full chunk of values under a count that disagrees with it.
        let mut w = ByteWriter::new();
        w.put_usize(MC_CHUNK - 1);
        for _ in 0..MC_CHUNK {
            w.put_f64(0.5);
        }
        store.record(1, w.into_vec());
        store.commit(std::time::Duration::ZERO).unwrap();
        let resume = DurableOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..DurableOptions::none()
        };
        let err = run_monte_carlo_durable(&s, &spec, n, 1, &ExecPolicy::serial(), &resume)
            .expect_err("a short chunk must not resume");
        assert!(
            matches!(
                &err,
                SsnError::Checkpoint {
                    kind: CheckpointErrorKind::Corrupt,
                    detail,
                    ..
                } if detail.contains("255 sample(s) recorded for a 256-sample chunk")
            ),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_domain_checked() {
        let r = run_monte_carlo(&nominal(), &VariationSpec::frozen(), 10, 1).unwrap();
        let _ = r.quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "histogram")]
    fn histogram_rejects_zero_bins() {
        let r = run_monte_carlo(&nominal(), &VariationSpec::frozen(), 10, 1).unwrap();
        let _ = r.histogram(0);
    }
}
