//! Bit pins of the MNA transient and everything the oracle derives from it.
//!
//! Each test folds the exact bits of a set of transient results into one
//! FNV-1a digest and compares it with the digest recorded before the
//! allocation-free time step landed (DESIGN.md §13.3): accepted times, the
//! probed waveforms, Newton iteration counts and rejected-step counts. Any
//! change to a floating-point operation, its order, or the step controller
//! moves a digest.
//!
//! The pins are stronger than the golden CSV (`results/diff1_oracle_summary.csv`),
//! which keeps 7 significant digits of per-case maxima. Like that CSV they
//! depend on the platform's libm (`exp`, `sin`, `cos`, `sqrt` rounding), so
//! they hold on x86-64 Linux builds; a port re-records them.

use ssn_lab::core::bridge::{measure, DriverBankConfig};
use ssn_lab::core::oracle::{self, case_slug, evaluate_scenario, TolerancePolicy};
use ssn_lab::devices::process::Process;
use ssn_lab::spice::parser::parse_deck_file;
use ssn_lab::spice::synth::{
    power_grid_circuit, power_grid_tran_options, ssn_equivalent_circuit, ssn_tran_options,
    PowerGridParams, SsnSynthParams, SSN_BOUNCE_NODE,
};
use ssn_lab::spice::{transient, TranResult};
use ssn_lab::waveform::Waveform;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn slice(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }

    fn wave(&mut self, w: &Waveform) {
        self.slice(w.times());
        self.slice(w.values());
    }

    /// Times, the given probes, and the step controller's counts.
    fn tran(&mut self, r: &TranResult, nodes: &[&str], branches: &[&str]) {
        self.slice(r.times());
        for node in nodes {
            self.slice(r.voltage(node).expect("probed node exists").values());
        }
        for branch in branches {
            self.slice(
                r.branch_current(branch)
                    .expect("probed branch exists")
                    .values(),
            );
        }
        self.word(r.newton_iterations() as u64);
        self.word(r.rejected_steps() as u64);
    }
}

/// The oracle's synthesis parameters for corpus scenario `(seed, index)`.
fn corpus_params(seed: u64, index: usize) -> SsnSynthParams {
    let s = oracle::corpus_scenario(seed, index)
        .validate()
        .expect("corpus scenarios are valid");
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

fn assert_pin(what: &str, digest: u64, pinned: u64) {
    assert_eq!(
        digest, pinned,
        "{what}: digest {digest:#018x} differs from the pinned {pinned:#018x}"
    );
}

/// (a) The oracle's linearized SSN transient on 64 corpus scenarios, with
/// the factor cache on and off: both runs give the same bits.
#[test]
fn oracle_transients_are_pinned_with_and_without_factor_reuse() {
    for reuse in [true, false] {
        let mut h = Fnv::new();
        for i in 0..64 {
            let p = corpus_params(1, i);
            let circuit = ssn_equivalent_circuit(&p).expect("corpus circuit builds");
            let mut opts = ssn_tran_options(&p);
            opts.reuse_factor = reuse;
            let r = transient(&circuit, opts).expect("corpus transient runs");
            h.tran(&r, &[SSN_BOUNCE_NODE, "ctrl"], &["lg", "vctrl"]);
        }
        assert_pin(
            &format!("oracle transients (reuse_factor {reuse})"),
            h.0,
            0x7212_ff0f_e2a9_a4b0,
        );
    }
}

/// (b) The nonlinear driver bank on the dense tier: every waveform and
/// peak `bridge::measure` reports.
#[test]
fn driver_bank_measurement_is_pinned() {
    let m = measure(&DriverBankConfig::from_process(&Process::p018(), 8)).expect("bank simulates");
    let mut h = Fnv::new();
    for w in [&m.ground_bounce, &m.inductor_current, &m.input, &m.output] {
        h.wave(w);
    }
    h.f64(m.vn_max.value());
    h.f64(m.vn_peak_time.value());
    h.f64(m.vn_max_global.value());
    assert_pin("bridge::measure(p018, N 8)", h.0, 0x3f2c_5dbb_66c4_0ac1);
}

/// The pad-ring deck: MOSFETs and ESD diodes through the parser, the
/// Newton loop at its busiest.
#[test]
fn pad_ring_deck_transient_is_pinned() {
    let deck = parse_deck_file(concat!(env!("CARGO_MANIFEST_DIR"), "/decks/pad_ring.sp"))
        .expect("deck parses");
    let opts = deck.tran.expect("deck has a .tran card").to_options();
    let r = transient(&deck.circuit, opts).expect("deck simulates");
    let mut h = Fnv::new();
    h.tran(&r, &["ng", "out0", "out7"], &["lg", "vin"]);
    assert_pin("decks/pad_ring.sp", h.0, 0x99b9_4637_f1d9_e110);
}

/// (c) A small synthesized power grid on the sparse/GMRES tier.
#[test]
fn sparse_tier_power_grid_is_pinned() {
    let p = PowerGridParams {
        rows: 8,
        cols: 8,
        r_mesh: 0.05,
        c_node: 20e-12,
        l_pad: 0.5e-9,
        r_pad: 0.02,
        n_drivers: 6,
        i_peak: 0.02,
        rise_time: 0.2e-9,
    };
    assert!(p.mna_dim() >= 64, "the grid must reach the sparse tier");
    let circuit = power_grid_circuit(&p).expect("grid builds");
    let r = transient(&circuit, power_grid_tran_options(&p)).expect("grid simulates");
    let mut h = Fnv::new();
    h.tran(&r, &["g0_0", "g3_4", "g7_7", "pad2"], &["lp0", "lp3"]);
    assert_pin("8x8 power grid", h.0, 0x1ae6_106f_e7a1_217f);
}

/// (d) Every `OracleMetrics` field of seed-1 scenarios 0..500 — the
/// numbers behind the golden CSV, at full precision.
#[test]
fn oracle_metrics_are_pinned_over_500_scenarios() {
    let policy = TolerancePolicy::paper();
    let mut h = Fnv::new();
    for i in 0..500 {
        let (m, _) = evaluate_scenario(&oracle::corpus_scenario(1, i), &policy)
            .expect("corpus scenario evaluates");
        for b in case_slug(m.case).bytes() {
            h.word(u64::from(b));
        }
        for v in [
            m.model_vn_max,
            m.mna_vn_max,
            m.l_only_vn_max,
            m.vn_rel,
            m.peak_time_frac,
            m.rms_frac,
            m.l_only_rel,
        ] {
            h.f64(v);
        }
    }
    assert_pin("oracle metrics, seed 1, 0..500", h.0, 0x3d46_af0c_c74e_bbc7);
}
