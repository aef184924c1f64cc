//! `ssn optimize` — inverse design: a durable coarse-to-fine Pareto
//! search over the `(N, L, C, tr)` space (DESIGN.md §14).

use super::{durable_options, resolve_process, with_telemetry, TelemetryMode, DURABLE_HELP};
use crate::args::ParsedArgs;
use crate::error::CliError;
use ssn_core::optimize::{
    confirm_front, search_durable, DesignPoint, DesignSpace, ObjectiveSet, OptimizeOptions,
    OptimizeOutcome,
};
use ssn_core::parallel::ExecPolicy;
use ssn_core::report::run_footer;
use ssn_core::scenario::SsnScenario;
use ssn_units::Seconds;
use std::io::Write;
use std::sync::Arc;

const HELP: &str = "\
usage: ssn optimize --process <p018|p025|p035> [options]

Searches the (N, L, C, tr) design space coarse-to-fine and prints the
Pareto front of (noise, cost, speed) — identical to the front exhaustive
enumeration would produce, evaluating fewer points. Exit code 16 means
the search completed but --max-noise-frac excluded every point.

options:
    --max-drivers <N>     drivers axis 1..=N (default 16)
    --l-points <k>        inductance axis: k geometric points around the
                          process package inductance (default 8)
    --c-points <k>        capacitance axis points (default 3)
    --tr-points <k>       rise-time axis points around --rise-time (default 3)
    --span <f>            each parasitic axis covers
                          [x/sqrt(f), x*sqrt(f)] (default 4)
    --rise-time <t>       rise-time axis center (default 0.5n)
    --objective <set>     noise-cost-speed | noise-cost | noise-speed
                          (default noise-cost-speed)
    --max-noise-frac <f>  feasibility cap: admit only points with
                          Vn_lc <= f * Vdd
    --confirm <k>         MNA-confirm the k noise-minimal front points
                          (table format only)
    --format <fmt>        table | csv | json (default table; csv and json
                          print only the front, byte-deterministically)
    --threads <n>         worker threads (results identical for every count)
    --telemetry[=json:<path>]
                          profile the run; never changes the results
";

/// Runs the command.
///
/// # Errors
///
/// Usage errors for bad options; analysis errors from the search;
/// [`CliError::NoFeasiblePoint`] (exit 16) when the cap excluded every
/// evaluated point.
pub fn run<W: Write>(argv: &[String], out: &mut W) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "process",
            "max-drivers",
            "l-points",
            "c-points",
            "tr-points",
            "span",
            "rise-time",
            "objective",
            "max-noise-frac",
            "confirm",
            "format",
            "threads",
            "checkpoint",
            "deadline",
        ],
        &["help", "telemetry", "resume"],
    )?;
    if args.wants_help() {
        writeln!(out, "{HELP}{DURABLE_HELP}")?;
        return Ok(());
    }
    let process = resolve_process(
        args.value("process")
            .ok_or_else(|| CliError::usage("--process is required"))?,
    )?;
    let max_drivers: usize = args.parsed_or("max-drivers", 16)?;
    let l_points: usize = args.parsed_or("l-points", 8)?;
    let c_points: usize = args.parsed_or("c-points", 3)?;
    let tr_points: usize = args.parsed_or("tr-points", 3)?;
    let span: f64 = args.parsed_or("span", 4.0)?;
    let tr = args.parsed_or("rise-time", Seconds::from_nanos(0.5))?;
    let objectives = match args.value("objective") {
        None => ObjectiveSet::NoiseCostSpeed,
        Some(v) => ObjectiveSet::parse(v).ok_or_else(|| {
            CliError::usage(format!(
                "--objective {v:?}: expected noise-cost-speed, noise-cost or noise-speed"
            ))
        })?,
    };
    let max_noise_frac: Option<f64> = args.parsed("max-noise-frac")?;
    let confirm: Option<usize> = args.parsed("confirm")?;
    let format = match args.value("format").unwrap_or("table") {
        "table" => Format::Table,
        "csv" => Format::Csv,
        "json" => Format::Json,
        other => {
            return Err(CliError::usage(format!(
                "--format {other:?}: expected table, csv or json"
            )))
        }
    };
    if confirm.is_some() && format != Format::Table {
        return Err(CliError::usage("--confirm needs --format table"));
    }
    let policy = match args.parsed::<usize>("threads")? {
        Some(0) => return Err(CliError::usage("--threads must be at least 1")),
        Some(t) => ExecPolicy::with_threads(t),
        None => ExecPolicy::auto(),
    };
    let telemetry = TelemetryMode::from_args(&args)?;
    let durable = durable_options(&args)?;

    let template = SsnScenario::builder(&process).rise_time(tr).build()?;
    let space = DesignSpace::around(&template, max_drivers, l_points, c_points, tr_points, span)?;
    let opts = OptimizeOptions {
        objectives,
        max_noise_frac,
    };

    with_telemetry(&telemetry, "cli.optimize", out, |out| {
        let (outcome, stats, durability) =
            search_durable(&template, &space, &opts, &policy, &durable)?;
        if outcome.front.is_empty() {
            return Err(CliError::NoFeasiblePoint {
                cap: max_noise_frac.unwrap_or(0.0) * template.vdd().value(),
                evaluated: outcome.evaluated,
            });
        }
        match format {
            Format::Table => {
                render_table(out, &outcome)?;
                if let Some(k) = confirm {
                    render_confirm(out, &template, &outcome, k, &process)?;
                }
                write!(out, "{}", run_footer(&stats, &durability))?;
            }
            Format::Csv => render_csv(out, &outcome)?,
            Format::Json => render_json(out, &outcome)?,
        }
        Ok(())
    })
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Format {
    Table,
    Csv,
    Json,
}

fn render_table<W: Write>(out: &mut W, outcome: &OptimizeOutcome) -> Result<(), CliError> {
    let header = ["N", "L", "C", "tr", "Vn_lc", "case", "cost", "tr/N", "lvl"];
    let rows: Vec<[String; 9]> = outcome
        .front
        .members()
        .iter()
        .map(|p| {
            [
                p.n_drivers.to_string(),
                format!("{:.2} nH", p.inductance.value() * 1e9),
                format!("{:.2} pF", p.capacitance.value() * 1e12),
                format!("{:.2} ns", p.rise_time.value() * 1e9),
                format!("{:.1} mV", p.vn_lc.value() * 1e3),
                p.case.to_string(),
                format!("{:.3}", p.cost),
                format!("{:.3} ns", p.speed * 1e9),
                p.level.to_string(),
            ]
        })
        .collect();
    let widths: Vec<usize> = (0..header.len())
        .map(|i| {
            rows.iter()
                .map(|r| r[i].len())
                .chain([header[i].len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    writeln!(out, "{}", fmt(&head))?;
    for r in &rows {
        writeln!(out, "{}", fmt(r))?;
    }
    writeln!(
        out,
        "front: {} member(s); {} of {} point(s) evaluated over {} level(s) \
         ({} pruned infeasible, {} pruned dominated, {} over cap)",
        outcome.front.len(),
        outcome.evaluated,
        outcome.total_points,
        outcome.levels,
        outcome.pruned_infeasible,
        outcome.pruned_dominated,
        outcome.over_cap,
    )?;
    Ok(())
}

/// One CSV row per front member, raw SI values (shortest round-trip f64
/// rendering), byte-deterministic for a given search.
fn render_csv<W: Write>(out: &mut W, outcome: &OptimizeOutcome) -> Result<(), CliError> {
    writeln!(
        out,
        "n_drivers,inductance_h,capacitance_f,rise_time_s,vn_l_only_v,vn_lc_v,case,cost,speed_s,level"
    )?;
    for p in outcome.front.members() {
        writeln!(
            out,
            "{},{:e},{:e},{:e},{:e},{:e},{},{:e},{:e},{}",
            p.n_drivers,
            p.inductance.value(),
            p.capacitance.value(),
            p.rise_time.value(),
            p.vn_l_only.value(),
            p.vn_lc.value(),
            p.case.code(),
            p.cost,
            p.speed,
            p.level,
        )?;
    }
    Ok(())
}

fn json_point(p: &DesignPoint) -> String {
    format!(
        "{{\"n_drivers\":{},\"inductance\":{:e},\"capacitance\":{:e},\"rise_time\":{:e},\
         \"vn_l_only\":{:e},\"vn_lc\":{:e},\"case\":{},\"cost\":{:e},\"speed\":{:e},\"level\":{}}}",
        p.n_drivers,
        p.inductance.value(),
        p.capacitance.value(),
        p.rise_time.value(),
        p.vn_l_only.value(),
        p.vn_lc.value(),
        p.case.code(),
        p.cost,
        p.speed,
        p.level,
    )
}

fn render_json<W: Write>(out: &mut W, outcome: &OptimizeOutcome) -> Result<(), CliError> {
    let members: Vec<String> = outcome.front.members().iter().map(json_point).collect();
    writeln!(
        out,
        "{{\"objective\":\"{}\",\"total_points\":{},\"evaluated\":{},\
         \"pruned_infeasible\":{},\"pruned_dominated\":{},\"over_cap\":{},\"levels\":{},\
         \"front\":[{}]}}",
        outcome.front.objectives().name(),
        outcome.total_points,
        outcome.evaluated,
        outcome.pruned_infeasible,
        outcome.pruned_dominated,
        outcome.over_cap,
        outcome.levels,
        members.join(","),
    )?;
    Ok(())
}

fn render_confirm<W: Write>(
    out: &mut W,
    template: &SsnScenario,
    outcome: &OptimizeOutcome,
    k: usize,
    process: &ssn_devices::process::Process,
) -> Result<(), CliError> {
    let confirmations = confirm_front(
        template,
        &outcome.front,
        k,
        Arc::new(process.output_driver()),
    )?;
    writeln!(
        out,
        "confirm (MNA transient, {} point(s)):",
        confirmations.len()
    )?;
    for c in &confirmations {
        writeln!(
            out,
            "  N={} L={:.2} nH tr={:.2} ns: closed-form {:.1} mV, simulated {:.1} mV ({:+.1}%)",
            c.point.n_drivers,
            c.point.inductance.value() * 1e9,
            c.point.rise_time.value() * 1e9,
            c.point.vn_lc.value() * 1e3,
            c.simulated.value() * 1e3,
            c.rel_err * 1e2,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::CliError;

    fn run_cli(argv: &[&str]) -> (Result<(), CliError>, String) {
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
        let mut buf = Vec::new();
        let res = crate::run(&argv, &mut buf);
        (res, String::from_utf8(buf).expect("utf8 output"))
    }

    fn run_ok(argv: &[&str]) -> String {
        let (res, text) = run_cli(argv);
        res.unwrap_or_else(|e| panic!("{e}:\n{text}"));
        text
    }

    fn run_err(argv: &[&str]) -> CliError {
        let (res, text) = run_cli(argv);
        match res {
            Err(e) => e,
            Ok(()) => panic!("expected an error, got:\n{text}"),
        }
    }

    #[test]
    fn help_mentions_every_flag() {
        let text = run_ok(&["optimize", "--help"]);
        for flag in [
            "--max-drivers",
            "--l-points",
            "--c-points",
            "--tr-points",
            "--span",
            "--objective",
            "--max-noise-frac",
            "--confirm",
            "--format",
            "--checkpoint",
            "--resume",
            "--deadline",
        ] {
            assert!(text.contains(flag), "help is missing {flag}");
        }
    }

    #[test]
    fn small_search_prints_front_and_summary() {
        let text = run_ok(&[
            "optimize",
            "--process",
            "p018",
            "--max-drivers",
            "6",
            "--l-points",
            "3",
            "--c-points",
            "1",
            "--tr-points",
            "1",
            "--threads",
            "2",
        ]);
        assert!(text.contains("Vn_lc"), "{text}");
        assert!(text.contains("front:"), "{text}");
        assert!(text.contains("evaluated"), "{text}");
    }

    #[test]
    fn csv_format_is_data_only_and_thread_invariant() {
        let argv = |threads: &str| {
            vec![
                "optimize".to_owned(),
                "--process".to_owned(),
                "p018".to_owned(),
                "--max-drivers".to_owned(),
                "5".to_owned(),
                "--l-points".to_owned(),
                "4".to_owned(),
                "--c-points".to_owned(),
                "2".to_owned(),
                "--tr-points".to_owned(),
                "2".to_owned(),
                "--format".to_owned(),
                "csv".to_owned(),
                "--threads".to_owned(),
                threads.to_owned(),
            ]
        };
        let a1 = argv("1");
        let av1: Vec<&str> = a1.iter().map(String::as_str).collect();
        let one = run_ok(&av1);
        assert!(one.starts_with("n_drivers,"), "{one}");
        assert!(
            !one.contains("run:"),
            "csv output must not carry the footer"
        );
        for threads in ["2", "4"] {
            let a = argv(threads);
            let av: Vec<&str> = a.iter().map(String::as_str).collect();
            assert_eq!(one, run_ok(&av), "{threads} threads");
        }
    }

    #[test]
    fn json_format_is_one_deterministic_object() {
        let text = run_ok(&[
            "optimize",
            "--process",
            "p018",
            "--max-drivers",
            "4",
            "--l-points",
            "2",
            "--c-points",
            "1",
            "--tr-points",
            "2",
            "--format",
            "json",
        ]);
        assert!(
            text.starts_with('{') && text.trim_end().ends_with('}'),
            "{text}"
        );
        assert!(text.contains("\"front\":["), "{text}");
        assert!(
            text.contains("\"objective\":\"noise-cost-speed\""),
            "{text}"
        );
    }

    #[test]
    fn impossible_cap_exits_sixteen() {
        let err = run_err(&[
            "optimize",
            "--process",
            "p018",
            "--max-drivers",
            "4",
            "--l-points",
            "2",
            "--c-points",
            "1",
            "--tr-points",
            "1",
            "--max-noise-frac",
            "0.000001",
        ]);
        assert_eq!(err.exit_code(), 16, "{err}");
        assert_eq!(err.kind(), "no-feasible-point");
    }

    #[test]
    fn bad_objective_and_format_are_usage_errors() {
        for argv in [
            vec!["optimize", "--process", "p018", "--objective", "speed-only"],
            vec!["optimize", "--process", "p018", "--format", "xml"],
            vec![
                "optimize",
                "--process",
                "p018",
                "--confirm",
                "1",
                "--format",
                "csv",
            ],
        ] {
            let err = run_err(&argv);
            assert_eq!(err.exit_code(), 2, "{argv:?}");
        }
    }
}
