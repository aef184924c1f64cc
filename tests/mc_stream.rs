//! Monte Carlo stream contract v2: the ziggurat normal sampler moved every
//! sample's value, and nothing else.
//!
//! Three claims, each against numbers recorded from the v1 (Box–Muller)
//! build before the sampler changed:
//!
//! * the yield statistics of three scenarios agree with v1 within
//!   sampling error — the sampler draws the same distribution;
//! * a checkpoint journal written by the v1 build is refused with a typed
//!   spec mismatch, never resumed into a result that mixes two streams;
//! * the server's `/v1/montecarlo` digest — its cache key and job id —
//!   moved, so a v1 body or journal in an old spool is never served, while
//!   the digests of endpoints that draw no normals stayed put.

use ssn_lab::core::durable::{CheckpointStore, DurableOptions, RunBudget, RunSpec};
use ssn_lab::core::error::CheckpointErrorKind;
use ssn_lab::core::montecarlo::{
    mc_run_spec, run_monte_carlo_durable, run_monte_carlo_with, McResult, VariationSpec,
};
use ssn_lab::core::parallel::ExecPolicy;
use ssn_lab::core::scenario::SsnScenario;
use ssn_lab::core::SsnError;
use ssn_lab::devices::process::Process;
use ssn_lab::server::api::{ApiRequest, Endpoint};
use ssn_lab::server::cache::ResultCache;
use ssn_lab::server::http::parse_params;
use ssn_lab::units::{Farads, Seconds};
use std::path::PathBuf;

/// Samples per scenario, and the seed, of the recorded v1 statistics.
const SAMPLES: usize = 204_800;
const SEED: u64 = 1;

/// `(mean, std_dev, q05, q50, q95)` in volts from the v1 build, N = 32,
/// `VariationSpec::typical()`.
const V1_P018_LC: [f64; 5] = [
    0.950_006_445_085_905_4,
    0.029_831_608_498_461_788,
    0.901_438_618_952_004_1,
    0.949_778_109_494_957_6,
    0.999_452_728_508_111_8,
];
const V1_P025_L_ONLY: [f64; 5] = [
    1.320_378_388_376_625_8,
    0.039_640_697_746_862_054,
    1.255_492_049_433_706_5,
    1.320_300_380_453_205,
    1.385_612_823_825_449_7,
];
const V1_P035_LC: [f64; 5] = [
    1.665_741_649_501_646_8,
    0.049_043_605_217_087_42,
    1.585_236_215_017_694_4,
    1.665_821_115_130_515_6,
    1.746_144_757_489_377,
];

fn scenario(process: &Process, drivers: usize, l_only: bool) -> SsnScenario {
    let builder = SsnScenario::builder(process)
        .drivers(drivers)
        .rise_time(Seconds::from_nanos(0.5));
    let builder = if l_only {
        builder.capacitance(Farads::ZERO)
    } else {
        builder
    };
    builder.build().expect("library process scenario")
}

/// The standard errors of `(mean, std_dev, q05, q50, q95)` of `r`, from
/// its own size and spread: `s/sqrt(n)` for the mean,
/// `sqrt((m4 - s^4)/n) / 2s` for the standard deviation, and
/// `sqrt(q(1-q)/n) / f(x_q)` for a quantile, with the density `f` read off
/// the empirical quantile function between `q ± 0.01`.
fn standard_errors(r: &McResult) -> [f64; 5] {
    let n = r.len() as f64;
    let xs = r.samples();
    let mean = r.mean().value();
    let sd = r.std_dev().value();
    let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
    let quantile_se = |q: f64| {
        let spread = r.quantile(q + 0.01).value() - r.quantile(q - 0.01).value();
        let density = 0.02 / spread;
        (q * (1.0 - q) / n).sqrt() / density
    };
    [
        sd / n.sqrt(),
        ((m4 - sd.powi(4)) / n).sqrt() / (2.0 * sd),
        quantile_se(0.05),
        quantile_se(0.5),
        quantile_se(0.95),
    ]
}

#[test]
fn yield_statistics_match_the_v1_stream_within_sampling_error() {
    let cases = [
        ("p018 LC", Process::p018(), false, V1_P018_LC),
        ("p025 L-only", Process::p025(), true, V1_P025_L_ONLY),
        ("p035 LC", Process::p035(), false, V1_P035_LC),
    ];
    for (name, process, l_only, v1) in cases {
        let s = scenario(&process, 32, l_only);
        let (r, stats) = run_monte_carlo_with(
            &s,
            &VariationSpec::typical(),
            SAMPLES,
            SEED,
            &ExecPolicy::auto(),
        )
        .expect("monte carlo");
        assert_eq!(stats.failed_chunks, 0);
        let v2 = [
            r.mean().value(),
            r.std_dev().value(),
            r.quantile(0.05).value(),
            r.quantile(0.5).value(),
            r.quantile(0.95).value(),
        ];
        // v1 and v2 are independent estimates of one quantity, so their
        // difference has sqrt(2) times the standard error of either.
        let se = standard_errors(&r);
        for (k, label) in ["mean", "std_dev", "q05", "q50", "q95"].iter().enumerate() {
            let diff = v2[k] - v1[k];
            let bound = 5.0 * std::f64::consts::SQRT_2 * se[k];
            assert!(
                diff.abs() < bound,
                "{name} {label}: v2 {:.6e} vs v1 {:.6e} differ by {diff:.3e}, \
                 5 standard errors = {bound:.3e}",
                v2[k],
                v1[k]
            );
        }
    }
}

/// The v1 build's `params_hash` for the fixture's run: the same digest
/// without the stream version.
const V1_FIXTURE_PARAMS_HASH: u64 = 0x6f6b_24f4_3175_cde9;

/// A temporary copy of the v1 fixture journal, removed on drop.
struct JournalCopy(PathBuf);

impl Drop for JournalCopy {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut lock = self.0.clone().into_os_string();
        lock.push(".lock");
        let _ = std::fs::remove_file(lock);
    }
}

#[test]
fn a_v1_stream_journal_is_refused_as_a_spec_mismatch() {
    // Written by the v1 build's CLI under the crash drill (today spelled
    // `SSN_FAULTS=crash.after_commits=2`), killed after committing 2 of 6
    // chunks: `ssn montecarlo --process p018 --drivers 8 --samples 1536
    // --threads 1 --seed 1 --checkpoint ...`.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/mc_stream_v1.ckpt"
    );
    let journal = JournalCopy(
        std::env::temp_dir().join(format!("ssn-mc-stream-v1-{}.ckpt", std::process::id())),
    );
    std::fs::copy(fixture, &journal.0).expect("copy fixture");
    let before = std::fs::read(&journal.0).expect("read fixture");

    let s = scenario(&Process::p018(), 8, false);
    let spec = VariationSpec::typical();
    let (samples, seed) = (1536, 1);

    // The journal is well formed and belongs to this very run: only the
    // stream version separates it from the v2 identity.
    let store = CheckpointStore::load(&journal.0).expect("fixture is a valid journal");
    assert_eq!(store.records().len(), 2);
    let v2 = mc_run_spec(&s, &spec, samples, seed);
    let v1 = RunSpec {
        params_hash: V1_FIXTURE_PARAMS_HASH,
        ..v2
    };
    store
        .verify_spec(&v1)
        .expect("the fixture matches the v1 identity of this run");

    let resumed = run_monte_carlo_durable(
        &s,
        &spec,
        samples,
        seed,
        &ExecPolicy::serial(),
        &DurableOptions {
            checkpoint: Some(journal.0.clone()),
            resume: true,
            budget: RunBudget::unlimited(),
        },
    );
    match resumed {
        Err(SsnError::Checkpoint {
            kind: CheckpointErrorKind::SpecMismatch,
            ..
        }) => {}
        Err(e) => panic!("want a SpecMismatch refusal, got {e}"),
        Ok((r, ..)) => panic!("a v1 journal resumed into {} v2 samples", r.len()),
    }
    assert_eq!(
        std::fs::read(&journal.0).expect("journal still there"),
        before,
        "the refused journal is left as it was"
    );
}

#[test]
fn montecarlo_digest_moved_with_the_stream_and_other_digests_did_not() {
    // Digests the v1 build gave these requests.
    const V1_MONTECARLO: u64 = 0xfa35_59df_e9cb_044f;
    const V1_ESTIMATE: u64 = 0x0b75_87d6_12f0_a19b;
    let request = |endpoint, query| {
        ApiRequest::parse(endpoint, parse_params(query).expect("query")).expect("request")
    };
    let mc = request(
        Endpoint::MonteCarlo,
        "process=p018&drivers=8&samples=2048&seed=7",
    );
    let estimate = request(Endpoint::Estimate, "process=p018&drivers=8");
    assert_ne!(mc.digest(), V1_MONTECARLO);
    assert_eq!(estimate.digest(), V1_ESTIMATE);

    // An old spool holding the v1 body under its v1 key: the v2 request
    // misses it and computes afresh.
    let spool = std::env::temp_dir().join(format!("ssn-mc-stream-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).expect("spool");
    ResultCache::new(Some(spool.clone()))
        .expect("cache")
        .put(V1_MONTECARLO, b"v1 body".to_vec());
    let reopened = ResultCache::new(Some(spool.clone())).expect("cache");
    assert!(
        reopened.get(V1_MONTECARLO).is_some(),
        "the v1 entry is on disk"
    );
    assert!(reopened.get(mc.digest()).is_none());
    let _ = std::fs::remove_dir_all(&spool);
}
