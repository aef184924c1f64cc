//! Fault-injection matrix for the estimation pipeline's degradation
//! contract: every injected fault class must surface as a typed error or an
//! explicit partial result — never a process abort — and determinism must
//! hold both fault-on (same plan, same results) and fault-off (injection
//! disarmed is bit-identical to injection absent).
//!
//! Faults are injected through `ssn_core::faults`. Its sites are no-ops
//! unless a [`FaultPlan`] is armed, and a plan is armed only for the run
//! inside [`with_faults`] (and the workers that run spawns), so the tests
//! in this binary run side by side and each other test sees the clean
//! pipeline.

use ssn_lab::core::design;
use ssn_lab::core::durable::DurableOptions;
use ssn_lab::core::faults::{with_faults, FaultPlan};
use ssn_lab::core::lcmodel;
use ssn_lab::core::montecarlo::{
    run_monte_carlo_durable, run_monte_carlo_with, McResult, VariationSpec, MC_CHUNK,
};
use ssn_lab::core::parallel::ExecPolicy;
use ssn_lab::core::scenario::SsnScenario;
use ssn_lab::core::SsnError;
use ssn_lab::devices::Asdm;
use ssn_lab::numeric::solve::rung;
use ssn_lab::units::{Farads, Henrys, Seconds, Siemens, Volts};

fn scenario(n: usize) -> SsnScenario {
    let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
    SsnScenario::from_asdm(asdm, Volts::new(1.8))
        .drivers(n)
        .inductance(Henrys::from_nanos(5.0))
        .capacitance(Farads::from_picos(1.0))
        .rise_time(Seconds::from_nanos(0.5))
        .build()
        .expect("valid scenario")
}

const SAMPLES: usize = 4 * MC_CHUNK; // four chunks

fn mc(
    plan: Option<FaultPlan>,
    policy: &ExecPolicy,
) -> Result<
    (
        ssn_lab::core::montecarlo::McResult,
        ssn_lab::core::parallel::ExecStats,
    ),
    SsnError,
> {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    match plan {
        Some(p) => with_faults(p, || run_monte_carlo_with(&s, &spec, SAMPLES, 42, policy)),
        None => run_monte_carlo_with(&s, &spec, SAMPLES, 42, policy),
    }
}

/// The same job through the durable entry point with no journal or
/// budget: a partial result must keep exactly the same samples.
fn assert_durable_agrees(plan: FaultPlan, policy: &ExecPolicy, plain: &McResult) {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let (durable, ..) = with_faults(plan, || {
        run_monte_carlo_durable(&s, &spec, SAMPLES, 42, policy, &DurableOptions::none())
    })
    .expect("durable partial result");
    assert_eq!(
        &durable, plain,
        "plain and durable runners kept different samples"
    );
}

/// Fault class 1: NaN model outputs. Poisoned chunks are dropped and
/// counted; the surviving samples are still finite and ordered.
#[test]
fn nan_model_outputs_degrade_to_a_partial_result() {
    let plan = FaultPlan {
        seed: 3,
        nan_probability: 0.002,
        ..FaultPlan::default()
    };
    let (result, stats) = mc(Some(plan), &ExecPolicy::serial()).expect("partial result");
    assert!(
        stats.failed_chunks > 0 && stats.failed_chunks < 4,
        "want a strict subset of chunks poisoned, got {} of 4",
        stats.failed_chunks
    );
    assert_eq!(result.len(), SAMPLES - stats.failed_chunks * MC_CHUNK);
    assert!(result.samples().iter().all(|v| v.is_finite() && *v >= 0.0));
    assert_durable_agrees(plan, &ExecPolicy::serial(), &result);
    // The telemetry line names the loss.
    assert!(stats.to_string().contains("failed chunk"));
}

/// Fault class 2: worker panics. Caught per chunk, never fatal; the run
/// reports which fraction of the work survived.
#[test]
fn worker_panics_are_isolated_per_chunk() {
    let plan = FaultPlan {
        seed: 9,
        panic_probability: 0.4,
        ..FaultPlan::default()
    };
    for threads in [1usize, 4] {
        let (result, stats) = mc(Some(plan), &ExecPolicy::with_threads(threads))
            .expect("surviving chunks form a partial result");
        assert!(
            stats.failed_chunks > 0 && stats.failed_chunks < 4,
            "threads {threads}: want a strict subset lost, got {} of 4",
            stats.failed_chunks
        );
        assert_eq!(result.len(), SAMPLES - stats.failed_chunks * MC_CHUNK);
        assert_durable_agrees(plan, &ExecPolicy::with_threads(threads), &result);
    }
}

/// Fault class 2b: a transient panic is rescued by the retry budget — no
/// chunks lost, the retry is visible in telemetry.
#[test]
fn retry_budget_rescues_transient_worker_panics() {
    let plan = FaultPlan {
        seed: 9,
        panic_probability: 0.4,
        panic_once: true,
        ..FaultPlan::default()
    };
    let policy = ExecPolicy::serial().with_chunk_retries(1);
    let (result, stats) = mc(Some(plan), &policy).expect("retries rescue every chunk");
    assert_eq!(stats.failed_chunks, 0);
    assert!(stats.retried_chunks > 0, "retries must be recorded");
    assert_eq!(result.len(), SAMPLES);
}

/// Losing *every* chunk is a typed error naming the first cause, not an
/// empty success.
#[test]
fn losing_every_chunk_is_a_typed_error() {
    let plan = FaultPlan {
        seed: 1,
        panic_probability: 1.0,
        ..FaultPlan::default()
    };
    let err = mc(Some(plan), &ExecPolicy::serial()).expect_err("no chunks survive");
    match err {
        SsnError::AllChunksFailed {
            failed,
            total,
            first_cause,
        } => {
            assert_eq!((failed, total), (4, 4));
            assert!(first_cause.contains("injected fault"), "{first_cause}");
        }
        other => panic!("expected AllChunksFailed, got {other}"),
    }
}

/// Fault class 3: forced solver-rung failures. Disabling the primary rung
/// degrades `required_rise_time` to bisection — same root, and the
/// degradation is visible in the SolveReport rather than silent.
#[test]
fn solver_ladder_falls_back_when_a_rung_is_disabled() {
    let s = scenario(8);
    let budget = Volts::new(0.4);
    let (tr_clean, clean) = design::required_rise_time_with_report(&s, budget).expect("clean");
    assert_eq!(clean.method, "brent");
    assert!(clean.is_clean());

    let plan = FaultPlan {
        seed: 5,
        disable_solver_rungs: rung::BRENT,
        ..FaultPlan::default()
    };
    let (tr_fallback, report) =
        with_faults(plan, || design::required_rise_time_with_report(&s, budget))
            .expect("bisect rung still succeeds");
    assert_eq!(report.method, "bisect");
    // A disabled rung is skipped, not counted as tried.
    assert_eq!(report.rungs_tried, 1);
    let rel = (tr_fallback.value() - tr_clean.value()).abs() / tr_clean.value();
    assert!(rel < 1e-6, "fallback root drifted: {rel:.3e}");

    // Disabling the whole ladder is a typed error, not a hang or a panic.
    let plan = FaultPlan {
        seed: 5,
        disable_solver_rungs: rung::NEWTON | rung::BRENT | rung::BISECT,
        ..FaultPlan::default()
    };
    let err = with_faults(plan, || design::required_rise_time_with_report(&s, budget))
        .expect_err("every rung disabled");
    assert!(matches!(err, SsnError::Fit(_)), "got {err}");
}

/// Panic isolation also covers the design-grid sweep: surviving points keep
/// their `(N, L)` attribution and row-major order.
#[test]
fn grid_sweep_survives_chunk_panics_with_partial_points() {
    let s = scenario(8);
    let ns: Vec<usize> = (1..=10).collect();
    let ls: Vec<Henrys> = (1..=13).map(|l| Henrys::from_nanos(l as f64)).collect();
    let total_points = ns.len() * ls.len(); // 130 points -> 3 chunks of 64

    let plan = FaultPlan {
        seed: 11,
        panic_probability: 0.5,
        ..FaultPlan::default()
    };
    let (points, stats) = with_faults(plan, || {
        design::sweep_design_grid(&s, &ns, &ls, &ExecPolicy::serial())
    })
    .expect("surviving chunks form a partial sweep");
    assert!(
        stats.failed_chunks > 0,
        "the plan must cost at least one chunk"
    );
    assert!(points.len() < total_points);
    assert!(!points.is_empty());
    // Every surviving point is attributable and matches a clean evaluation.
    for p in &points {
        assert!(ns.contains(&p.n_drivers));
        assert!(ls.contains(&p.inductance));
        let direct = s
            .with_drivers(p.n_drivers)
            .unwrap()
            .with_package(p.inductance, s.capacitance())
            .unwrap();
        assert_eq!(p.vn_lc, lcmodel::vn_max(&direct).0);
    }
}

/// Determinism holds fault-ON: the same plan produces bit-identical
/// surviving samples and the same loss pattern at every thread count.
#[test]
fn injected_faults_are_deterministic() {
    let plan = FaultPlan {
        seed: 9,
        panic_probability: 0.4,
        ..FaultPlan::default()
    };
    let (base, base_stats) = mc(Some(plan), &ExecPolicy::serial()).expect("partial");
    for threads in [2usize, 8] {
        let (again, stats) = mc(Some(plan), &ExecPolicy::with_threads(threads)).expect("partial");
        assert_eq!(stats.failed_chunks, base_stats.failed_chunks);
        let a: Vec<u64> = base.samples().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = again.samples().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "fault pattern changed at {threads} threads");
    }
}

/// Determinism holds fault-OFF: running inside a disarmed harness (or with
/// no harness at all) is bit-identical — the hooks are true no-ops.
#[test]
fn disarmed_injection_is_bit_identical_to_no_injection() {
    let (clean, clean_stats) = mc(None, &ExecPolicy::serial()).expect("clean");
    assert_eq!(clean_stats.failed_chunks, 0);
    let (armed_zero, stats) = mc(Some(FaultPlan::default()), &ExecPolicy::serial())
        .expect("an all-zero plan injects nothing");
    assert_eq!(stats.failed_chunks, 0);
    let a: Vec<u64> = clean.samples().iter().map(|v| v.to_bits()).collect();
    let b: Vec<u64> = armed_zero.samples().iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b);
}
