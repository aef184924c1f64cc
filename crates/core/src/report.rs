//! A complete, human-readable SSN assessment for one scenario.
//!
//! Bundles everything a signoff review wants on one page: the fitted
//! model, both closed forms with the active Table-1 case, the damping
//! diagnosis, the design levers, and (optionally) the simulation
//! cross-check.

use crate::bridge::{measure, DriverBankConfig};
use crate::design;
use crate::durable::Durability;
use crate::error::SsnError;
use crate::parallel::ExecStats;
use crate::scenario::SsnScenario;
use crate::{lcmodel, lmodel};
use ssn_devices::MosModel;
use ssn_units::Volts;
use std::fmt::Write as _;
use std::sync::Arc;

/// The shared run footer for corpus-scale commands: the `run:` statistics
/// line plus — only when the run resumed, hit its deadline, or degraded —
/// one line per durability fact. A fresh full-fidelity run renders exactly
/// the single `run:` line.
pub fn run_footer(stats: &ExecStats, durability: &Durability) -> String {
    let mut s = format!("run: {stats}\n");
    if durability.resumed_chunks > 0 {
        let _ = writeln!(
            s,
            "resume: {} chunk(s) restored from checkpoint",
            durability.resumed_chunks
        );
    }
    if durability.deadline_hit {
        let _ = writeln!(s, "deadline: budget expired before the full run completed");
    }
    for e in &durability.degradation {
        let _ = writeln!(s, "degraded: {e}");
    }
    s
}

/// The assembled assessment; render with `Display` or access the fields.
#[derive(Debug, Clone)]
pub struct SsnReport {
    /// The assessed scenario.
    pub scenario: SsnScenario,
    /// L-only estimate (paper Eqn. 7).
    pub l_only: Volts,
    /// LC estimate (Table 1) and its case.
    pub lc: Volts,
    /// Which Table-1 row applied.
    pub case: lcmodel::MaxSsnCase,
    /// Damping diagnosis.
    pub damping: lcmodel::Damping,
    /// Critical capacitance.
    pub critical_c: ssn_units::Farads,
    /// Simulated reference, when requested.
    pub simulated: Option<Volts>,
    /// Largest N meeting a 25%-of-Vdd budget (a common signoff line).
    pub n_at_quarter_vdd: usize,
}

/// Builds a report for `scenario`; pass a golden device to include the
/// simulation cross-check (slower).
///
/// # Errors
///
/// Propagates analysis and simulation failures.
pub fn assess(
    scenario: &SsnScenario,
    simulate_with: Option<Arc<dyn MosModel>>,
) -> Result<SsnReport, SsnError> {
    let (lc, case) = lcmodel::vn_max(scenario);
    let simulated = match simulate_with {
        Some(model) => Some(measure(&DriverBankConfig::from_scenario(scenario, model))?.vn_max),
        None => None,
    };
    let budget = Volts::new(scenario.vdd().value() * 0.25);
    Ok(SsnReport {
        scenario: scenario.clone(),
        l_only: lmodel::vn_max(scenario),
        lc,
        case,
        damping: lcmodel::classify(scenario),
        critical_c: lcmodel::critical_capacitance(scenario),
        simulated,
        n_at_quarter_vdd: design::max_simultaneous_drivers(scenario, budget)?,
    })
}

impl std::fmt::Display for SsnReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        let _ = writeln!(s, "# SSN assessment");
        let _ = writeln!(s, "scenario:      {}", self.scenario);
        let _ = writeln!(
            s,
            "figures:       Z = {:.1}, V_inf = {}, tau = {}",
            self.scenario.z_figure(),
            self.scenario.v_inf(),
            lmodel::time_constant(&self.scenario)
        );
        let _ = writeln!(
            s,
            "damping:       {} (C_m = {}; C {} C_m)",
            self.damping,
            self.critical_c,
            if self.scenario.capacitance() > self.critical_c {
                ">"
            } else {
                "<="
            }
        );
        let _ = writeln!(s, "L-only model:  Vn_max = {}", self.l_only);
        let _ = writeln!(s, "LC model:      Vn_max = {}  [{}]", self.lc, self.case);
        if let Some(sim) = self.simulated {
            let err = (self.lc.value() - sim.value()).abs() / sim.value();
            let _ = writeln!(
                s,
                "simulated:     Vn_max = {sim}  (LC model error {:.1}%)",
                err * 100.0
            );
        }
        let _ = writeln!(
            s,
            "budget check:  <= {} drivers may switch together within Vdd/4",
            self.n_at_quarter_vdd
        );
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssn_devices::process::Process;
    use ssn_units::Seconds;

    fn scenario() -> SsnScenario {
        SsnScenario::builder(&Process::p018())
            .drivers(8)
            .rise_time(Seconds::from_nanos(0.5))
            .build()
            .unwrap()
    }

    #[test]
    fn assess_without_simulation() {
        let r = assess(&scenario(), None).unwrap();
        assert!(r.simulated.is_none());
        assert!(r.lc.value() > 0.3);
        assert!(r.n_at_quarter_vdd >= 1);
        let text = r.to_string();
        assert!(text.contains("SSN assessment"));
        assert!(text.contains("LC model"));
        assert!(text.contains("budget check"));
        assert!(!text.contains("simulated"));
    }

    #[test]
    fn assess_with_simulation() {
        let process = Process::p018();
        let r = assess(&scenario(), Some(Arc::new(process.output_driver()))).unwrap();
        let sim = r.simulated.expect("requested");
        assert!(sim.value() > 0.3);
        let text = r.to_string();
        assert!(text.contains("simulated"));
        assert!(text.contains("error"));
    }

    #[test]
    fn run_footer_is_just_the_stats_line_for_fresh_runs() {
        let stats = ExecStats {
            items: 10,
            chunks: 1,
            threads: 1,
            failed_chunks: 0,
            retried_chunks: 0,
            wall: std::time::Duration::from_millis(5),
            busy: std::time::Duration::from_millis(5),
            sched_wait: std::time::Duration::ZERO,
            checkpointed_chunks: 0,
            elapsed_wall: std::time::Duration::from_millis(5),
        };
        let fresh = Durability {
            resumed_chunks: 0,
            deadline_hit: false,
            degradation: Vec::new(),
        };
        let base = run_footer(&stats, &fresh);
        assert_eq!(base, format!("run: {stats}\n"));

        let mut d = fresh;
        d.resumed_chunks = 3;
        d.deadline_hit = true;
        d.note_degrade(crate::durable::DegradeStep::ShrinkSamples, 100, 40);
        let text = run_footer(&stats, &d);
        assert!(text.starts_with(&base));
        assert!(text.contains("resume: 3 chunk(s)"));
        assert!(text.contains("deadline: budget expired"));
        assert!(text.contains("degraded: shrink-samples"));
    }

    #[test]
    fn report_flags_the_damping_side() {
        let under = scenario().with_drivers(1).unwrap();
        let r = assess(&under, None).unwrap();
        assert!(matches!(r.damping, lcmodel::Damping::Underdamped { .. }));
        assert!(r.to_string().contains("C > C_m"));
    }
}
