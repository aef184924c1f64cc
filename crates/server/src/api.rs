//! Typed API requests: strict parameter parsing, canonical digests, and
//! deterministic result rendering.
//!
//! Every endpoint's parameters are parsed into a fully-resolved typed
//! request *before* any computation starts — defaults applied, units
//! parsed, unknown keys rejected — so that:
//!
//! * every malformed input becomes a typed [`ApiError`] (4xx), never a
//!   panic deeper in the stack;
//! * the request's [`ApiRequest::digest`] is canonical: two requests that
//!   mean the same computation (one spelling a default explicitly, one
//!   omitting it; `0.5n` vs `5e-10`) share a digest, which is the job id
//!   *and* the result-cache key;
//! * response bodies are a pure function of the request — no wall-clock,
//!   thread-count, or resume-history bytes — so a job killed mid-run and
//!   resumed after restart renders the byte-identical body.

use ssn_core::design;
use ssn_core::durable::{Durability, DurableOptions, ParamDigest};
use ssn_core::error::{CheckpointErrorKind, SsnError};
use ssn_core::montecarlo::{run_monte_carlo_durable, VariationSpec, MC_STREAM_VERSION};
use ssn_core::optimize::{self, DesignSpace, ObjectiveSet, OptimizeOptions};
use ssn_core::oracle::{self, run_differential_durable, OracleOptions};
use ssn_core::parallel::{ExecPolicy, ExecStats};
use ssn_core::scenario::SsnScenario;
use ssn_core::{lcmodel, lmodel};
use ssn_devices::process::Process;
use ssn_telemetry::json::{self, Obj};
use ssn_units::{Farads, Henrys, Seconds, Volts};

/// A typed service-level error: HTTP status + kebab-case kind + detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status to respond with.
    pub status: u16,
    /// Short kebab-case classification (mirrors the CLI's error kinds).
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl ApiError {
    /// A 400 invalid-input error.
    pub fn bad(detail: impl Into<String>) -> Self {
        Self {
            status: 400,
            kind: "invalid-input",
            detail: detail.into(),
        }
    }

    /// The JSON error body (`{"error":{...}}`).
    pub fn body(&self) -> Vec<u8> {
        let inner = Obj::new()
            .str("kind", self.kind)
            .u64("status", u64::from(self.status))
            .str("detail", &self.detail)
            .finish();
        Obj::new().raw("error", &inner).finish().into_bytes()
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}): {}", self.status, self.kind, self.detail)
    }
}

impl std::error::Error for ApiError {}

impl From<SsnError> for ApiError {
    fn from(e: SsnError) -> Self {
        let (status, kind) = match &e {
            SsnError::InvalidInput { .. } => (400, "invalid-input"),
            SsnError::InvalidScenario { .. } => (400, "invalid-scenario"),
            SsnError::Checkpoint {
                kind: CheckpointErrorKind::Locked,
                ..
            } => (503, "journal-locked"),
            SsnError::Checkpoint { .. } => (500, "checkpoint"),
            SsnError::Interrupted { .. } => (503, "interrupted"),
            SsnError::DeadlineExhausted { .. } => (503, "deadline-exhausted"),
            SsnError::AllChunksFailed { .. } => (500, "all-chunks-failed"),
            SsnError::Fit(_) => (500, "fit"),
            SsnError::Simulation(_) => (500, "simulation"),
            SsnError::Waveform(_) => (500, "waveform"),
            _ => (500, "internal"),
        };
        Self {
            status,
            kind,
            detail: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Parameter parsing
// ---------------------------------------------------------------------------

/// Consumable view over parsed query/body parameters: every key must be
/// claimed by the endpoint, leftovers are a typed 400.
struct Params {
    pairs: Vec<(String, String)>,
}

impl Params {
    fn new(pairs: Vec<(String, String)>) -> Self {
        Self { pairs }
    }

    fn take(&mut self, key: &str) -> Option<String> {
        let i = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(i).1)
    }

    fn parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, ApiError> {
        match self.take(key) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|_| {
                ApiError::bad(format!("parameter {key:?}: cannot parse value {raw:?}"))
            }),
        }
    }

    fn parsed_or<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, ApiError> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    fn finish(self) -> Result<(), ApiError> {
        match self.pairs.first() {
            None => Ok(()),
            Some((k, _)) => Err(ApiError::bad(format!("unknown parameter {k:?}"))),
        }
    }
}

/// The common driver-bank parameters shared by every scenario endpoint,
/// fully resolved (defaults applied, units parsed, process canonicalized).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioParams {
    /// Canonical process name (`p018` / `p025` / `p035`).
    pub process: &'static str,
    /// Simultaneously switching driver count.
    pub drivers: usize,
    /// Input rise time (seconds).
    pub rise_time: f64,
    /// Ground-path inductance override (henrys).
    pub inductance: Option<f64>,
    /// Ground-path capacitance override (farads).
    pub capacitance: Option<f64>,
}

impl ScenarioParams {
    fn parse(p: &mut Params) -> Result<Self, ApiError> {
        let process = match p.take("process").as_deref() {
            None | Some("p018") | Some("0.18") | Some("018") => "p018",
            Some("p025") | Some("0.25") | Some("025") => "p025",
            Some("p035") | Some("0.35") | Some("035") => "p035",
            Some(other) => {
                return Err(ApiError::bad(format!(
                    "parameter \"process\": unknown process {other:?} (expected p018, p025 or p035)"
                )))
            }
        };
        let drivers = p.parsed_or::<usize>("drivers", 8)?;
        let rise_time = p
            .parsed_or::<Seconds>("rise-time", Seconds::from_nanos(0.5))?
            .value();
        let inductance = p.parsed::<Henrys>("inductance")?.map(|l| l.value());
        let capacitance = p.parsed::<Farads>("capacitance")?.map(|c| c.value());
        Ok(Self {
            process,
            drivers,
            rise_time,
            inductance,
            capacitance,
        })
    }

    fn process(&self) -> Process {
        match self.process {
            "p025" => Process::p025(),
            "p035" => Process::p035(),
            _ => Process::p018(),
        }
    }

    /// Builds the validated scenario these parameters describe.
    ///
    /// # Errors
    ///
    /// 400 [`ApiError`] when the parameters are outside the model domain.
    pub fn build(&self) -> Result<SsnScenario, ApiError> {
        let process = self.process();
        let mut b = SsnScenario::builder(&process)
            .drivers(self.drivers)
            .rise_time(Seconds::new(self.rise_time));
        if let Some(l) = self.inductance {
            b = b.inductance(Henrys::new(l));
        }
        if let Some(c) = self.capacitance {
            b = b.capacitance(Farads::new(c));
        }
        Ok(b.build()?)
    }

    fn digest_into(&self, d: &mut ParamDigest) {
        let process_code = match self.process {
            "p025" => 1u64,
            "p035" => 2,
            _ => 0,
        };
        d.push_u64(process_code)
            .push_u64(self.drivers as u64)
            .push_f64(self.rise_time);
        digest_opt(d, self.inductance);
        digest_opt(d, self.capacitance);
    }

    fn render_into(&self, o: Obj) -> Obj {
        let o = o
            .str("process", self.process)
            .u64("drivers", self.drivers as u64)
            .f64("rise_time", self.rise_time);
        let o = match self.inductance {
            Some(l) => o.f64("inductance", l),
            None => o,
        };
        match self.capacitance {
            Some(c) => o.f64("capacitance", c),
            None => o,
        }
    }
}

fn digest_opt(d: &mut ParamDigest, v: Option<f64>) {
    match v {
        Some(x) => {
            d.push_u64(1).push_f64(x);
        }
        None => {
            d.push_u64(0);
        }
    }
}

/// The six service endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Closed-form point estimate.
    Estimate,
    /// Noise-budget sizing.
    Budget,
    /// Monte Carlo margining.
    MonteCarlo,
    /// Design-space sweep.
    Sweep,
    /// Differential oracle validation.
    Validate,
    /// Inverse design: Pareto search over the `(N, L, C, tr)` space.
    Optimize,
}

impl Endpoint {
    /// Maps an URL path under `/v1/` to an endpoint.
    pub fn from_path(path: &str) -> Option<Self> {
        match path {
            "/v1/estimate" => Some(Self::Estimate),
            "/v1/budget" => Some(Self::Budget),
            "/v1/montecarlo" => Some(Self::MonteCarlo),
            "/v1/sweep" => Some(Self::Sweep),
            "/v1/validate" => Some(Self::Validate),
            "/v1/optimize" => Some(Self::Optimize),
            _ => None,
        }
    }

    /// The endpoint's name as used in response bodies and digests.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Estimate => "estimate",
            Self::Budget => "budget",
            Self::MonteCarlo => "montecarlo",
            Self::Sweep => "sweep",
            Self::Validate => "validate",
            Self::Optimize => "optimize",
        }
    }
}

/// A fully-resolved, validated API request. Cloneable so the job queue
/// can own a copy; `digest()` is its identity.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// `GET|POST /v1/estimate`
    Estimate {
        /// Driver-bank parameters.
        sc: ScenarioParams,
    },
    /// `GET|POST /v1/budget`
    Budget {
        /// Driver-bank parameters.
        sc: ScenarioParams,
        /// The noise budget to size against (volts).
        budget: f64,
    },
    /// `GET|POST /v1/montecarlo`
    MonteCarlo {
        /// Driver-bank parameters.
        sc: ScenarioParams,
        /// Monte Carlo sample count.
        samples: usize,
        /// RNG seed.
        seed: u64,
        /// Parameter variation sigmas.
        var: VariationSpec,
        /// Optional yield budget (volts).
        budget: Option<f64>,
    },
    /// `GET|POST /v1/sweep`
    Sweep {
        /// Driver-bank parameters (the grid template).
        sc: ScenarioParams,
        /// Sweep drivers `1..=max_drivers`.
        max_drivers: usize,
    },
    /// `GET|POST /v1/validate`
    Validate {
        /// Differential corpus size.
        corpus: usize,
        /// Corpus seed.
        seed: u64,
    },
    /// `GET|POST /v1/optimize`
    Optimize {
        /// Driver-bank parameters (the search template: the rise time is
        /// the tr-axis center, inductance/capacitance the parasitic-axis
        /// centers).
        sc: ScenarioParams,
        /// Drivers axis `1..=max_drivers`.
        max_drivers: usize,
        /// Geometric inductance-axis size.
        l_points: usize,
        /// Geometric capacitance-axis size.
        c_points: usize,
        /// Geometric rise-time-axis size.
        tr_points: usize,
        /// Geometric span of each parasitic axis.
        span: f64,
        /// Dominance objectives.
        objective: ObjectiveSet,
        /// Optional feasibility cap as a fraction of Vdd.
        max_noise_frac: Option<f64>,
    },
}

impl ApiRequest {
    /// Parses and validates `pairs` for `endpoint`. Unknown keys,
    /// unparseable values, and out-of-domain parameters are all typed
    /// 400s.
    ///
    /// # Errors
    ///
    /// [`ApiError`] with status 400.
    pub fn parse(endpoint: Endpoint, pairs: Vec<(String, String)>) -> Result<Self, ApiError> {
        let mut p = Params::new(pairs);
        let req = match endpoint {
            Endpoint::Estimate => Self::Estimate {
                sc: ScenarioParams::parse(&mut p)?,
            },
            Endpoint::Budget => {
                let sc = ScenarioParams::parse(&mut p)?;
                let budget = p.parsed_or::<Volts>("budget", Volts::new(0.4))?.value();
                Self::Budget { sc, budget }
            }
            Endpoint::MonteCarlo => {
                let sc = ScenarioParams::parse(&mut p)?;
                let samples = p.parsed_or::<usize>("samples", 1024)?;
                let seed = p.parsed_or::<u64>("seed", 1)?;
                let t = VariationSpec::typical();
                let var = VariationSpec {
                    k_frac: p.parsed_or::<f64>("k-frac", t.k_frac)?,
                    sigma_abs: p.parsed_or::<f64>("sigma-abs", t.sigma_abs)?,
                    v0_abs: p.parsed_or::<f64>("v0-abs", t.v0_abs)?,
                    l_frac: p.parsed_or::<f64>("l-frac", t.l_frac)?,
                    c_frac: p.parsed_or::<f64>("c-frac", t.c_frac)?,
                };
                let budget = p.parsed::<Volts>("budget")?.map(|b| b.value());
                Self::MonteCarlo {
                    sc,
                    samples,
                    seed,
                    var,
                    budget,
                }
            }
            Endpoint::Sweep => {
                let sc = ScenarioParams::parse(&mut p)?;
                let max_drivers = p.parsed_or::<usize>("max-drivers", 16)?;
                if max_drivers == 0 || max_drivers > 4096 {
                    return Err(ApiError::bad(format!(
                        "parameter \"max-drivers\": {max_drivers} outside 1..=4096"
                    )));
                }
                Self::Sweep { sc, max_drivers }
            }
            Endpoint::Validate => {
                let corpus = p.parsed_or::<usize>("corpus", 16)?;
                if corpus == 0 || corpus > 100_000 {
                    return Err(ApiError::bad(format!(
                        "parameter \"corpus\": {corpus} outside 1..=100000"
                    )));
                }
                let seed = p.parsed_or::<u64>("seed", 1)?;
                Self::Validate { corpus, seed }
            }
            Endpoint::Optimize => {
                let sc = ScenarioParams::parse(&mut p)?;
                let max_drivers = p.parsed_or::<usize>("max-drivers", 16)?;
                if max_drivers == 0 || max_drivers > 512 {
                    return Err(ApiError::bad(format!(
                        "parameter \"max-drivers\": {max_drivers} outside 1..=512"
                    )));
                }
                let l_points = p.parsed_or::<usize>("l-points", 8)?;
                let c_points = p.parsed_or::<usize>("c-points", 3)?;
                let tr_points = p.parsed_or::<usize>("tr-points", 3)?;
                for (name, v) in [
                    ("l-points", l_points),
                    ("c-points", c_points),
                    ("tr-points", tr_points),
                ] {
                    if v == 0 || v > 64 {
                        return Err(ApiError::bad(format!(
                            "parameter {name:?}: {v} outside 1..=64"
                        )));
                    }
                }
                let total = max_drivers * l_points * c_points * tr_points;
                if total > 250_000 {
                    return Err(ApiError::bad(format!(
                        "search space of {total} points exceeds the 250000-point cap"
                    )));
                }
                let span = p.parsed_or::<f64>("span", 4.0)?;
                let objective = match p.take("objective") {
                    None => ObjectiveSet::NoiseCostSpeed,
                    Some(raw) => ObjectiveSet::parse(&raw).ok_or_else(|| {
                        ApiError::bad(format!(
                            "parameter \"objective\": {raw:?} (expected noise-cost-speed, \
                             noise-cost or noise-speed)"
                        ))
                    })?,
                };
                let max_noise_frac = p.parsed::<f64>("max-noise-frac")?;
                Self::Optimize {
                    sc,
                    max_drivers,
                    l_points,
                    c_points,
                    tr_points,
                    span,
                    objective,
                    max_noise_frac,
                }
            }
        };
        p.finish()?;
        // Fail fast on out-of-domain scenarios so the queue never admits a
        // job that cannot run (validation errors become 4xx here, not a
        // failed job later).
        match &req {
            Self::Estimate { sc } | Self::Sweep { sc, .. } => {
                sc.build()?;
            }
            Self::Budget { sc, budget } => {
                sc.build()?;
                check_finite_positive("budget", *budget)?;
            }
            Self::MonteCarlo {
                sc, var, budget, ..
            } => {
                sc.build()?;
                var.validate()?;
                if let Some(b) = budget {
                    check_finite_positive("budget", *b)?;
                }
            }
            Self::Validate { .. } => {}
            Self::Optimize { max_noise_frac, .. } => {
                // Builds the template scenario *and* the design space, so
                // axis-domain problems (e.g. a multi-point C axis around a
                // zero-capacitance package) are 400s here, not failed jobs.
                req.optimize_inputs()?;
                if let Some(f) = max_noise_frac {
                    check_finite_positive("max-noise-frac", *f)?;
                }
            }
        }
        Ok(req)
    }

    /// Resolves an [`ApiRequest::Optimize`] into its template scenario,
    /// design space, and search options (the same construction the CLI
    /// uses, so spellings and digests agree across front ends).
    fn optimize_inputs(&self) -> Result<(SsnScenario, DesignSpace, OptimizeOptions), ApiError> {
        let Self::Optimize {
            sc,
            max_drivers,
            l_points,
            c_points,
            tr_points,
            span,
            objective,
            max_noise_frac,
        } = self
        else {
            return Err(ApiError {
                status: 500,
                kind: "internal",
                detail: "optimize_inputs on a non-optimize request".into(),
            });
        };
        let template = sc.build()?;
        let space = DesignSpace::around(
            &template,
            *max_drivers,
            *l_points,
            *c_points,
            *tr_points,
            *span,
        )
        .map_err(|e| ApiError::bad(e.to_string()))?;
        let opts = OptimizeOptions {
            objectives: *objective,
            max_noise_frac: *max_noise_frac,
        };
        Ok((template, space, opts))
    }

    /// Which endpoint this request belongs to.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Self::Estimate { .. } => Endpoint::Estimate,
            Self::Budget { .. } => Endpoint::Budget,
            Self::MonteCarlo { .. } => Endpoint::MonteCarlo,
            Self::Sweep { .. } => Endpoint::Sweep,
            Self::Validate { .. } => Endpoint::Validate,
            Self::Optimize { .. } => Endpoint::Optimize,
        }
    }

    /// The canonical content digest: FNV-1a over the endpoint tag and
    /// every *resolved* parameter. Identical computations — however they
    /// were spelled — share it; it is the cache key and the job id.
    pub fn digest(&self) -> u64 {
        let mut d = ParamDigest::new(match self {
            Self::Estimate { .. } => "serve.estimate",
            Self::Budget { .. } => "serve.budget",
            Self::MonteCarlo { .. } => "serve.montecarlo",
            Self::Sweep { .. } => "serve.sweep",
            Self::Validate { .. } => "serve.validate",
            Self::Optimize { .. } => "serve.optimize",
        });
        match self {
            Self::Estimate { sc } => sc.digest_into(&mut d),
            Self::Budget { sc, budget } => {
                sc.digest_into(&mut d);
                d.push_f64(*budget);
            }
            Self::MonteCarlo {
                sc,
                samples,
                seed,
                var,
                budget,
            } => {
                sc.digest_into(&mut d);
                d.push_u64(*samples as u64)
                    .push_u64(*seed)
                    .push_f64(var.k_frac)
                    .push_f64(var.sigma_abs)
                    .push_f64(var.v0_abs)
                    .push_f64(var.l_frac)
                    .push_f64(var.c_frac);
                digest_opt(&mut d, *budget);
                // A new stream gives new bodies: results cached or journaled
                // under an older stream are never served for this request.
                d.push_u64(MC_STREAM_VERSION);
            }
            Self::Sweep { sc, max_drivers } => {
                sc.digest_into(&mut d);
                d.push_u64(*max_drivers as u64);
            }
            Self::Validate { corpus, seed } => {
                d.push_u64(*corpus as u64).push_u64(*seed);
            }
            Self::Optimize {
                sc,
                max_drivers,
                l_points,
                c_points,
                tr_points,
                span,
                objective,
                max_noise_frac,
            } => {
                sc.digest_into(&mut d);
                d.push_u64(*max_drivers as u64)
                    .push_u64(*l_points as u64)
                    .push_u64(*c_points as u64)
                    .push_u64(*tr_points as u64)
                    .push_f64(*span)
                    .push_u64(u64::from(objective.code()));
                digest_opt(&mut d, *max_noise_frac);
            }
        }
        d.finish()
    }

    /// Work-size estimate used by the sync-vs-job admission decision.
    pub fn work_items(&self) -> usize {
        match self {
            Self::Estimate { .. } | Self::Budget { .. } => 1,
            Self::MonteCarlo { samples, .. } => *samples,
            Self::Sweep { max_drivers, .. } => *max_drivers,
            Self::Validate { corpus, .. } => *corpus,
            Self::Optimize {
                max_drivers,
                l_points,
                c_points,
                tr_points,
                ..
            } => max_drivers * l_points * c_points * tr_points,
        }
    }

    /// Runs the request to completion in the calling thread with no
    /// checkpoint and no budget (the small-request path): exactly
    /// [`ApiRequest::run_durable`] with [`DurableOptions::none`].
    ///
    /// # Errors
    ///
    /// Typed [`ApiError`] for any model/domain failure.
    pub fn run_sync(&self) -> Result<Vec<u8>, ApiError> {
        self.run_durable(&DurableOptions::none())
            .map(|(bytes, _)| bytes)
    }

    /// Runs the request under the durable engine: checkpoint journal,
    /// resume, and a cancellable budget (the job path; with
    /// [`DurableOptions::none`], the sync path).
    ///
    /// # Errors
    ///
    /// Typed [`ApiError`]; [`SsnError::Checkpoint`]/
    /// [`SsnError::Interrupted`] map to 5xx kinds the job ledger records.
    pub fn run_durable(&self, durable: &DurableOptions) -> Result<(Vec<u8>, Durability), ApiError> {
        match self {
            // Closed forms are instant; durability is meaningless.
            Self::Estimate { sc } => Ok((render_estimate(sc)?, Durability::default())),
            Self::Budget { sc, budget } => Ok((render_budget(sc, *budget)?, Durability::default())),
            Self::MonteCarlo {
                sc,
                samples,
                seed,
                var,
                budget,
            } => {
                let scenario = sc.build()?;
                let (result, stats, durability) = run_monte_carlo_durable(
                    &scenario,
                    var,
                    *samples,
                    *seed,
                    &ExecPolicy::auto(),
                    durable,
                )?;
                refuse_partial(&stats)?;
                Ok((render_montecarlo(self, sc, &result, *budget)?, durability))
            }
            Self::Sweep { sc, max_drivers } => {
                let scenario = sc.build()?;
                let drivers: Vec<usize> = (1..=*max_drivers).collect();
                let inductances = [scenario.inductance()];
                let (points, stats, durability) = design::sweep_design_grid_durable(
                    &scenario,
                    &drivers,
                    &inductances,
                    &ExecPolicy::auto(),
                    durable,
                )?;
                refuse_partial(&stats)?;
                Ok((render_sweep(sc, *max_drivers, &points)?, durability))
            }
            Self::Validate { corpus, seed } => {
                let opts = OracleOptions {
                    corpus: *corpus,
                    seed: *seed,
                    max_repros: 0,
                    ..OracleOptions::default()
                };
                let (report, durability) = run_differential_durable(&opts, durable)?;
                Ok((render_validate(*corpus, *seed, &report)?, durability))
            }
            Self::Optimize { .. } => {
                let (template, space, opts) = self.optimize_inputs()?;
                let (outcome, stats, durability) = optimize::search_durable(
                    &template,
                    &space,
                    &opts,
                    &ExecPolicy::auto(),
                    durable,
                )?;
                refuse_partial(&stats)?;
                Ok((render_optimize(self, &outcome)?, durability))
            }
        }
    }
}

/// Refuses a result some chunks are missing from: a response body must
/// be the whole computation or an error.
fn refuse_partial(stats: &ExecStats) -> Result<(), ApiError> {
    if stats.failed_chunks == 0 {
        return Ok(());
    }
    Err(ApiError {
        status: 500,
        kind: "partial-result",
        detail: format!(
            "{} chunk(s) failed; refusing partial data",
            stats.failed_chunks
        ),
    })
}

fn check_finite_positive(field: &str, v: f64) -> Result<(), ApiError> {
    if !(v > 0.0) || !v.is_finite() {
        return Err(ApiError::bad(format!(
            "parameter {field:?}: {v} must be positive and finite"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Deterministic response bodies
// ---------------------------------------------------------------------------

fn render_estimate(sc: &ScenarioParams) -> Result<Vec<u8>, ApiError> {
    let scenario = sc.build()?;
    let vn_l = lmodel::vn_max(&scenario);
    let (vn_lc, case) = lcmodel::vn_max(&scenario);
    let body = sc
        .render_into(Obj::new().str("endpoint", "estimate"))
        .f64("vn_l_only", vn_l.value())
        .f64("vn_lc", vn_lc.value())
        .str("case", oracle::case_slug(case))
        .f64("z_figure", scenario.z_figure())
        .finish();
    Ok(body.into_bytes())
}

fn render_budget(sc: &ScenarioParams, budget: f64) -> Result<Vec<u8>, ApiError> {
    let scenario = sc.build()?;
    let budget_v = Volts::new(budget);
    let max_drivers = design::max_simultaneous_drivers(&scenario, budget_v)?;
    let required_tr = design::required_rise_time(&scenario, budget_v)?;
    let (vn_lc, case) = lcmodel::vn_max(&scenario);
    let body = sc
        .render_into(Obj::new().str("endpoint", "budget"))
        .f64("budget", budget)
        .f64("vn_lc", vn_lc.value())
        .str("case", oracle::case_slug(case))
        .bool("within_budget", vn_lc.value() <= budget)
        .u64("max_drivers", max_drivers as u64)
        .f64("required_rise_time", required_tr.value())
        .finish();
    Ok(body.into_bytes())
}

fn render_montecarlo(
    req: &ApiRequest,
    sc: &ScenarioParams,
    result: &ssn_core::montecarlo::McResult,
    budget: Option<f64>,
) -> Result<Vec<u8>, ApiError> {
    let ApiRequest::MonteCarlo {
        samples, seed, var, ..
    } = req
    else {
        return Err(ApiError {
            status: 500,
            kind: "internal",
            detail: "render_montecarlo on a non-montecarlo request".into(),
        });
    };
    let o = sc
        .render_into(Obj::new().str("endpoint", "montecarlo"))
        .u64("samples", *samples as u64)
        .u64("seed", *seed)
        .f64("k_frac", var.k_frac)
        .f64("sigma_abs", var.sigma_abs)
        .f64("v0_abs", var.v0_abs)
        .f64("l_frac", var.l_frac)
        .f64("c_frac", var.c_frac)
        .u64("delivered", result.len() as u64)
        .f64("mean", result.mean().value())
        .f64("std_dev", result.std_dev().value())
        .f64("q50", result.quantile(0.50).value())
        .f64("q90", result.quantile(0.90).value())
        .f64("q99", result.quantile(0.99).value());
    let o = match budget {
        Some(b) => o
            .f64("budget", b)
            .f64("yield", result.yield_within(Volts::new(b))),
        None => o,
    };
    Ok(o.finish().into_bytes())
}

fn render_sweep(
    sc: &ScenarioParams,
    max_drivers: usize,
    points: &[ssn_core::design::GridPoint],
) -> Result<Vec<u8>, ApiError> {
    let rendered: Vec<String> = points
        .iter()
        .map(|p| {
            Obj::new()
                .u64("n", p.n_drivers as u64)
                .f64("inductance", p.inductance.value())
                .f64("vn_l_only", p.vn_l_only.value())
                .f64("vn_lc", p.vn_lc.value())
                .str("case", oracle::case_slug(p.case))
                .finish()
        })
        .collect();
    let body = sc
        .render_into(Obj::new().str("endpoint", "sweep"))
        .u64("max_drivers", max_drivers as u64)
        .u64("points_delivered", points.len() as u64)
        .raw("points", &json::array(&rendered))
        .finish();
    Ok(body.into_bytes())
}

fn render_validate(
    corpus: usize,
    seed: u64,
    report: &ssn_core::oracle::OracleReport,
) -> Result<Vec<u8>, ApiError> {
    let cases: Vec<String> = report
        .cases
        .iter()
        .map(|c| {
            Obj::new()
                .str("case", oracle::case_slug(c.case))
                .u64("count", c.count as u64)
                .u64("violations", c.violations as u64)
                .f64("max_vn_rel", c.max_vn_rel)
                .f64("max_peak_time_frac", c.max_peak_time_frac)
                .f64("max_rms_frac", c.max_rms_frac)
                .f64("max_l_only_rel", c.max_l_only_rel)
                .finish()
        })
        .collect();
    let body = Obj::new()
        .str("endpoint", "validate")
        .u64("corpus", corpus as u64)
        .u64("seed", seed)
        .u64("scenarios", report.scenarios as u64)
        .u64("violations", report.violations as u64)
        .u64("failed_chunks", report.failed_chunks as u64)
        .u64("closed_form_fallbacks", report.fallbacks.len() as u64)
        .raw("cases", &json::array(&cases))
        .finish();
    Ok(body.into_bytes())
}

fn render_optimize(
    req: &ApiRequest,
    outcome: &ssn_core::optimize::OptimizeOutcome,
) -> Result<Vec<u8>, ApiError> {
    let ApiRequest::Optimize {
        sc,
        max_drivers,
        l_points,
        c_points,
        tr_points,
        span,
        objective,
        max_noise_frac,
    } = req
    else {
        return Err(ApiError {
            status: 500,
            kind: "internal",
            detail: "render_optimize on a non-optimize request".into(),
        });
    };
    let members: Vec<String> = outcome
        .front
        .members()
        .iter()
        .map(|p| {
            Obj::new()
                .u64("n", p.n_drivers as u64)
                .f64("inductance", p.inductance.value())
                .f64("capacitance", p.capacitance.value())
                .f64("rise_time", p.rise_time.value())
                .f64("vn_l_only", p.vn_l_only.value())
                .f64("vn_lc", p.vn_lc.value())
                .str("case", oracle::case_slug(p.case))
                .f64("cost", p.cost)
                .f64("speed", p.speed)
                .u64("level", u64::from(p.level))
                .finish()
        })
        .collect();
    let o = sc
        .render_into(Obj::new().str("endpoint", "optimize"))
        .u64("max_drivers", *max_drivers as u64)
        .u64("l_points", *l_points as u64)
        .u64("c_points", *c_points as u64)
        .u64("tr_points", *tr_points as u64)
        .f64("span", *span)
        .str("objective", objective.name());
    let o = match max_noise_frac {
        Some(f) => o.f64("max_noise_frac", *f),
        None => o,
    };
    let body = o
        .u64("total_points", outcome.total_points as u64)
        .u64("evaluated", outcome.evaluated as u64)
        .u64("pruned_infeasible", outcome.pruned_infeasible as u64)
        .u64("pruned_dominated", outcome.pruned_dominated as u64)
        .u64("over_cap", outcome.over_cap as u64)
        .u64("levels", u64::from(outcome.levels))
        .u64("front_size", outcome.front.len() as u64)
        .raw("front", &json::array(&members))
        .finish();
    Ok(body.into_bytes())
}

/// Renders a job digest as the service's job-id / cache-key hex form.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Parses a job-id hex string back to its digest.
pub fn parse_digest_hex(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(items: &[(&str, &str)]) -> Vec<(String, String)> {
        items
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn defaults_and_explicit_spellings_share_a_digest() {
        let implicit = ApiRequest::parse(Endpoint::MonteCarlo, pairs(&[])).unwrap();
        let explicit = ApiRequest::parse(
            Endpoint::MonteCarlo,
            pairs(&[
                ("process", "0.18"),
                ("drivers", "8"),
                ("rise-time", "5e-10"),
                ("samples", "1024"),
                ("seed", "1"),
            ]),
        )
        .unwrap();
        assert_eq!(implicit.digest(), explicit.digest());
        // A different seed is a different computation.
        let other = ApiRequest::parse(Endpoint::MonteCarlo, pairs(&[("seed", "2")])).unwrap();
        assert_ne!(implicit.digest(), other.digest());
        // Different endpoints never collide on their tag.
        let est = ApiRequest::parse(Endpoint::Estimate, pairs(&[])).unwrap();
        assert_ne!(est.digest(), implicit.digest());
    }

    #[test]
    fn unknown_and_malformed_parameters_are_typed_400s() {
        let e = ApiRequest::parse(Endpoint::Estimate, pairs(&[("zebra", "1")])).unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.detail.contains("zebra"));
        let e = ApiRequest::parse(Endpoint::Estimate, pairs(&[("drivers", "many")])).unwrap_err();
        assert_eq!(e.status, 400);
        let e = ApiRequest::parse(Endpoint::MonteCarlo, pairs(&[("k-frac", "-1")])).unwrap_err();
        assert_eq!(e.status, 400, "negative sigma rejected at parse time: {e}");
        let e = ApiRequest::parse(Endpoint::Estimate, pairs(&[("rise-time", "-3n")])).unwrap_err();
        assert_eq!(e.status, 400, "domain errors are 400s: {e}");
        let e = ApiRequest::parse(Endpoint::Validate, pairs(&[("corpus", "0")])).unwrap_err();
        assert_eq!(e.status, 400);
    }

    #[test]
    fn estimate_and_budget_render_deterministically() {
        let req = ApiRequest::parse(Endpoint::Estimate, pairs(&[("drivers", "4")])).unwrap();
        let a = req.run_sync().unwrap();
        let b = req.run_sync().unwrap();
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert!(text.contains("\"endpoint\":\"estimate\""));
        assert!(text.contains("\"vn_lc\":"));

        let req = ApiRequest::parse(
            Endpoint::Budget,
            pairs(&[("drivers", "4"), ("budget", "0.4")]),
        )
        .unwrap();
        let text = String::from_utf8(req.run_sync().unwrap()).unwrap();
        assert!(text.contains("\"max_drivers\":"));
        assert!(text.contains("\"required_rise_time\":"));
    }

    #[test]
    fn montecarlo_sync_equals_durable_bytes() {
        let req = ApiRequest::parse(
            Endpoint::MonteCarlo,
            pairs(&[("samples", "300"), ("seed", "7"), ("budget", "0.5")]),
        )
        .unwrap();
        let sync = req.run_sync().unwrap();
        let (durable, d) = req.run_durable(&DurableOptions::none()).unwrap();
        assert_eq!(
            sync, durable,
            "sync and durable paths render identical bytes"
        );
        assert!(!d.deadline_hit);
        let text = String::from_utf8(sync).unwrap();
        assert!(text.contains("\"yield\":"));
    }

    #[test]
    fn sweep_renders_every_grid_point() {
        let req = ApiRequest::parse(Endpoint::Sweep, pairs(&[("max-drivers", "5")])).unwrap();
        let text = String::from_utf8(req.run_sync().unwrap()).unwrap();
        assert!(text.contains("\"points_delivered\":5"));
        assert!(text.contains("\"n\":5"));
    }

    #[test]
    fn optimize_parses_runs_and_renders_deterministically() {
        let req = ApiRequest::parse(
            Endpoint::Optimize,
            pairs(&[
                ("max-drivers", "5"),
                ("l-points", "3"),
                ("c-points", "2"),
                ("tr-points", "2"),
                ("max-noise-frac", "0.4"),
            ]),
        )
        .unwrap();
        assert_eq!(req.work_items(), 5 * 3 * 2 * 2);
        let sync = req.run_sync().unwrap();
        let (durable, _) = req.run_durable(&DurableOptions::none()).unwrap();
        assert_eq!(
            sync, durable,
            "sync and durable paths render identical bytes"
        );
        let text = String::from_utf8(sync).unwrap();
        assert!(text.contains("\"endpoint\":\"optimize\""), "{text}");
        assert!(text.contains("\"front\":["), "{text}");
        assert!(text.contains("\"evaluated\":"), "{text}");
        assert!(
            text.contains("\"objective\":\"noise-cost-speed\""),
            "{text}"
        );
    }

    #[test]
    fn optimize_rejects_bad_axes_and_objectives() {
        for (k, v) in [
            ("max-drivers", "0"),
            ("max-drivers", "513"),
            ("l-points", "65"),
            ("objective", "speed-only"),
            ("max-noise-frac", "-0.1"),
            ("span", "0.5"),
            ("zebra", "1"),
        ] {
            let e = ApiRequest::parse(Endpoint::Optimize, pairs(&[(k, v)])).unwrap_err();
            assert_eq!(e.status, 400, "{k}={v}: {e}");
        }
        // The whole-space size cap.
        let e = ApiRequest::parse(
            Endpoint::Optimize,
            pairs(&[
                ("max-drivers", "512"),
                ("l-points", "64"),
                ("c-points", "4"),
                ("tr-points", "4"),
            ]),
        )
        .unwrap_err();
        assert!(e.detail.contains("250000"), "{e}");
    }

    #[test]
    fn optimize_defaults_share_a_digest_with_explicit_spellings() {
        let implicit = ApiRequest::parse(Endpoint::Optimize, pairs(&[])).unwrap();
        let explicit = ApiRequest::parse(
            Endpoint::Optimize,
            pairs(&[
                ("process", "0.18"),
                ("max-drivers", "16"),
                ("l-points", "8"),
                ("c-points", "3"),
                ("tr-points", "3"),
                ("span", "4"),
                ("objective", "noise-cost-speed"),
            ]),
        )
        .unwrap();
        assert_eq!(implicit.digest(), explicit.digest());
        let other =
            ApiRequest::parse(Endpoint::Optimize, pairs(&[("max-noise-frac", "0.2")])).unwrap();
        assert_ne!(implicit.digest(), other.digest());
    }

    #[test]
    fn digest_hex_round_trips() {
        assert_eq!(
            parse_digest_hex(&digest_hex(0xdead_beef)),
            Some(0xdead_beef)
        );
        assert_eq!(parse_digest_hex("xyz"), None);
        assert_eq!(
            parse_digest_hex("0123456789abcdef"),
            Some(0x0123_4567_89ab_cdef)
        );
        assert_eq!(parse_digest_hex("0123456789abcde"), None);
    }
}
