#![warn(missing_docs)]

//! The `ssn` command-line tool.
//!
//! A thin, scriptable front end over the SSN suite:
//!
//! ```text
//! ssn estimate --process p018 --drivers 8 [--rise-time 0.5n] [--simulate]
//! ssn sweep    --process p018 --max-drivers 16 [--csv out.csv]
//! ssn budget   --process p018 --drivers 32 --budget 450m
//! ssn simulate deck.sp [--probe node]...
//! ```
//!
//! All machinery lives in [`run`] so the whole tool is testable without
//! spawning processes; `main.rs` only forwards `std::env::args`.

mod args;
mod commands;
mod error;

pub use args::ParsedArgs;
pub use error::CliError;

use std::io::Write;

/// Top-level usage text.
pub const USAGE: &str = "\
ssn — simultaneous switching noise estimation (Ding & Mazumder, DATE 2002)

USAGE:
    ssn <command> [options]

COMMANDS:
    estimate    closed-form SSN estimate for a driver bank
    fit         fit the ASDM to a process's golden device
    sweep       max SSN vs driver count, with prior-model comparison
    budget      design advisor: fit a bank under a noise budget
    montecarlo  variation/yield analysis of the estimate
    impedance   AC impedance of the ground network
    simulate    run a SPICE deck and report probed waveforms
    validate    differential oracle: closed forms vs MNA over a corpus
    optimize    inverse design: Pareto front over the (N, L, C, tr) space
    serve       HTTP service: sync answers, durable jobs, graceful drain
    help        show this text

Run `ssn <command> --help` for command options. Quantities accept SI/SPICE
suffixes: 0.5n, 450m, 2.2p, 1MEG.

EXIT CODES:
    0  success               6  model fit / numeric failure
    2  usage error           7  simulator failure
    3  i/o failure           8  waveform failure
    4  invalid input         9  every parallel chunk failed
    5  invalid scenario     10  differential validation violations
   11  unusable checkpoint journal (corrupt / wrong version / wrong spec)
   12  run interrupted with a checkpoint (rerun with --resume to continue)
   13  deadline expired before any work item completed
   14  serve: drain exceeded its deadline (interrupted jobs stay resumable)
   15  serve: could not bind the listen address
   16  optimize: no feasible design point under --max-noise-frac
Errors print one structured stderr line: `ssn: error kind=... exit=...: ...`.
";

/// Executes the CLI with explicit arguments and output sink.
///
/// `argv` excludes the program name (pass `std::env::args().skip(1)`).
/// Fault drills (CI, operator rehearsal) set `SSN_FAULTS`
/// (`ssn_core::faults::FaultPlan::parse`), which arms the plan around the
/// whole command.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, malformed options (a
/// malformed `SSN_FAULTS` included), or any analysis failure; the caller
/// maps it to an exit code.
pub fn run<W: Write>(argv: &[String], out: &mut W) -> Result<(), CliError> {
    let Some(text) = std::env::var_os("SSN_FAULTS") else {
        return dispatch(argv, out);
    };
    let plan = text
        .to_str()
        .ok_or_else(|| "not UTF-8".to_string())
        .and_then(ssn_core::faults::FaultPlan::parse)
        .map_err(|e| CliError::usage(format!("SSN_FAULTS: {e}")))?;
    ssn_core::faults::with_faults(plan, || dispatch(argv, out))
}

fn dispatch<W: Write>(argv: &[String], out: &mut W) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        writeln!(out, "{USAGE}")?;
        return Err(CliError::usage("missing command"));
    };
    let rest = &argv[1..];
    match command.as_str() {
        "estimate" => commands::estimate::run(rest, out),
        "fit" => commands::fit::run(rest, out),
        "sweep" => commands::sweep::run(rest, out),
        "budget" => commands::budget::run(rest, out),
        "montecarlo" => commands::montecarlo::run(rest, out),
        "impedance" => commands::impedance::run(rest, out),
        "simulate" => commands::simulate::run(rest, out),
        "validate" => commands::validate::run(rest, out),
        "optimize" => commands::optimize::run(rest, out),
        "serve" => commands::serve::run(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => {
            writeln!(out, "{USAGE}")?;
            Err(CliError::usage(format!("unknown command {other:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(argv: &[&str]) -> (Result<(), CliError>, String) {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let res = run(&argv, &mut buf);
        (res, String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let (res, text) = run_to_string(&["help"]);
        assert!(res.is_ok());
        assert!(text.contains("USAGE"));
        assert!(text.contains("estimate"));
    }

    #[test]
    fn missing_command_is_an_error_with_usage() {
        let (res, text) = run_to_string(&[]);
        assert!(res.is_err());
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let (res, _) = run_to_string(&["frobnicate"]);
        assert!(matches!(res, Err(CliError::Usage { .. })));
    }

    #[test]
    fn estimate_end_to_end() {
        let (res, text) = run_to_string(&[
            "estimate",
            "--process",
            "p018",
            "--drivers",
            "8",
            "--rise-time",
            "0.5n",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("Vn_max"), "{text}");
        assert!(text.contains("case"), "{text}");
    }

    #[test]
    fn estimate_with_simulation() {
        let (res, text) = run_to_string(&[
            "estimate",
            "--process",
            "p018",
            "--drivers",
            "4",
            "--simulate",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("simulated"), "{text}");
        assert!(text.contains('%'), "{text}");
    }

    #[test]
    fn estimate_full_report() {
        let (res, text) =
            run_to_string(&["estimate", "--process", "p018", "--drivers", "8", "--full"]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("SSN assessment"), "{text}");
        assert!(text.contains("budget check"), "{text}");
    }

    #[test]
    fn sweep_produces_table() {
        let (res, text) = run_to_string(&[
            "sweep",
            "--process",
            "p018",
            "--max-drivers",
            "4",
            "--no-simulation",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.lines().count() >= 5, "{text}");
        assert!(text.contains("Vemuru"), "{text}");
    }

    #[test]
    fn budget_advises() {
        let (res, text) = run_to_string(&[
            "budget",
            "--process",
            "p018",
            "--drivers",
            "32",
            "--budget",
            "450m",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("simultaneous"), "{text}");
        assert!(text.contains("rise time"), "{text}");
        assert!(text.contains("groups"), "{text}");
    }

    #[test]
    fn simulate_runs_a_deck_file() {
        let dir = std::env::temp_dir().join("ssn_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("rc.sp");
        std::fs::write(
            &path,
            "rc step\nVin in 0 DC 1\nR1 in out 1k\nC1 out 0 1n IC=0\n.tran 1n 5u UIC\n.end\n",
        )
        .expect("write deck");
        let (res, text) = run_to_string(&[
            "simulate",
            path.to_str().expect("utf8 path"),
            "--probe",
            "out",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("out"), "{text}");
        assert!(text.contains("peak"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn montecarlo_reports_quantiles() {
        let (res, text) = run_to_string(&[
            "montecarlo",
            "--process",
            "p018",
            "--drivers",
            "8",
            "--samples",
            "200",
            "--budget",
            "750m",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("q95"), "{text}");
        assert!(text.contains("yield"), "{text}");
    }

    #[test]
    fn montecarlo_telemetry_prints_stage_breakdown() {
        let (res, text) = run_to_string(&[
            "montecarlo",
            "--process",
            "p018",
            "--drivers",
            "8",
            "--samples",
            "300",
            "--threads",
            "1",
            "--telemetry",
        ]);
        assert!(res.is_ok(), "{text}");
        // The normal report is still there ...
        assert!(text.contains("q95"), "{text}");
        // ... followed by the per-stage breakdown.
        assert!(text.contains("per-stage breakdown"), "{text}");
        assert!(text.contains("cli.montecarlo"), "{text}");
        assert!(text.contains("mc.run"), "{text}");
        // The batched default reports per-chunk stages, not per-sample ones.
        assert!(text.contains("mc.perturb"), "{text}");
        assert!(text.contains("mc.eval"), "{text}");
        assert!(text.contains("model.lc.vn_max_slab"), "{text}");
        assert!(text.contains("parallel.sched_wait"), "{text}");
        assert!(text.contains("mc.samples"), "{text}");
        assert!(text.contains("% wall"), "{text}");
    }

    #[test]
    fn montecarlo_scalar_path_keeps_per_sample_spans_and_identical_results() {
        let run = |path_args: &[&str]| {
            let mut argv = vec![
                "montecarlo",
                "--process",
                "p018",
                "--drivers",
                "8",
                "--samples",
                "300",
                "--threads",
                "1",
            ];
            argv.extend_from_slice(path_args);
            run_to_string(&argv)
        };
        let (res, batched) = run(&[]);
        assert!(res.is_ok(), "{batched}");
        let (res, scalar) = run(&["--path", "scalar"]);
        assert!(res.is_ok(), "{scalar}");
        // The path flag never changes the report: same samples, same
        // stats. The `run:` footer line is excluded — it reports measured
        // wall-clock throughput, which is nondeterministic by nature.
        let strip_timing = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("run: "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip_timing(&batched), strip_timing(&scalar));
        // On the scalar reference the old per-sample spans are still live.
        let (res, text) = run(&["--path", "scalar", "--telemetry"]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("mc.sample"), "{text}");
        assert!(!text.contains("mc.perturb"), "{text}");

        let (res, _) = run(&["--path", "sideways"]);
        let err = res
            .expect_err("bogus path must be a usage error")
            .to_string();
        assert!(err.contains("batched or scalar"), "{err}");
    }

    #[test]
    fn budget_telemetry_shows_the_solver_ladder() {
        let (res, text) = run_to_string(&[
            "budget",
            "--process",
            "p018",
            "--drivers",
            "32",
            "--budget",
            "450m",
            "--telemetry",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("per-stage breakdown"), "{text}");
        assert!(text.contains("design.rise_time"), "{text}");
        assert!(text.contains("design.peak_search"), "{text}");
        assert!(text.contains("solve.ladder"), "{text}");
        assert!(text.contains("solve.rung.brent"), "{text}");
    }

    #[test]
    fn montecarlo_telemetry_json_stream_validates() {
        let dir = std::env::temp_dir().join("ssn_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("mc_telemetry.jsonl");
        let path_str = path.to_str().expect("utf8 path");
        let (res, text) = run_to_string(&[
            "montecarlo",
            "--process",
            "p018",
            "--drivers",
            "4",
            "--samples",
            "200",
            "--threads",
            "2",
            &format!("--telemetry=json:{path_str}"),
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("telemetry: wrote"), "{text}");
        // No table in JSON mode; the stream validates against the schema.
        assert!(!text.contains("per-stage breakdown"), "{text}");
        let stream = std::fs::read_to_string(&path).expect("read stream");
        let stats = ssn_telemetry::json::validate_lines(&stream).expect("valid stream");
        assert!(
            stats.meta >= 1 && stats.spans >= 1 && stats.counters >= 1,
            "{stats}"
        );
        assert!(stream.contains("mc.run"), "{stream}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn telemetry_rejects_malformed_values() {
        for bad in ["--telemetry=csv", "--telemetry=json:"] {
            let (res, _) = run_to_string(&[
                "montecarlo",
                "--process",
                "p018",
                "--drivers",
                "4",
                "--samples",
                "50",
                bad,
            ]);
            assert!(matches!(res, Err(CliError::Usage { .. })), "{bad}");
        }
    }

    #[test]
    fn impedance_finds_resonance() {
        let (res, text) = run_to_string(&[
            "impedance",
            "--process",
            "p018",
            "--drivers",
            "8",
            "--points",
            "10",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("resonance peak"), "{text}");
        // Bare tank resonates near 2.25 GHz.
        assert!(text.contains("e9"), "{text}");
    }

    #[test]
    fn fit_reports_parameters() {
        let (res, text) = run_to_string(&["fit", "--process", "p018"]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("sigma"), "{text}");
        assert!(text.contains("fit report"), "{text}");
        // Cold corner shifts the fit.
        let (res2, cold) = run_to_string(&["fit", "--process", "p018", "--temperature", "233"]);
        assert!(res2.is_ok(), "{cold}");
        assert_ne!(text, cold);
        // Bad temperature is a usage error.
        let (res3, _) = run_to_string(&["fit", "--process", "p018", "--temperature", "-1"]);
        assert!(matches!(res3, Err(CliError::Usage { .. })));
    }

    #[test]
    fn validate_small_corpus_passes() {
        let (res, text) = run_to_string(&["validate", "--corpus", "9", "--threads", "1"]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("all scenarios within budget"), "{text}");
        assert!(text.contains("case,count,violations"), "{text}");
    }

    #[test]
    fn validate_rejects_bad_options() {
        let (res, _) = run_to_string(&["validate", "--corpus", "4", "--threads", "0"]);
        assert!(matches!(res, Err(CliError::Usage { .. })));
        let (res, _) = run_to_string(&["validate", "--budget-scale", "-2"]);
        assert!(matches!(res, Err(CliError::Usage { .. })));
        let (res, _) = run_to_string(&["validate", "--corpus", "0"]);
        assert!(matches!(res, Err(CliError::Analysis { .. })));
    }

    #[test]
    fn bad_process_name_reports_cleanly() {
        let (res, _) = run_to_string(&["estimate", "--process", "p999", "--drivers", "8"]);
        match res {
            Err(CliError::Usage { message }) => assert!(message.contains("p999")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn command_help_flags() {
        for cmd in [
            "estimate",
            "sweep",
            "budget",
            "simulate",
            "montecarlo",
            "impedance",
            "fit",
            "validate",
            "optimize",
            "serve",
        ] {
            let (res, text) = run_to_string(&[cmd, "--help"]);
            assert!(res.is_ok(), "{cmd}");
            assert!(
                text.contains("USAGE") || text.contains("usage"),
                "{cmd}: {text}"
            );
        }
        // The durable commands append a shared flag block; every line of
        // their help that names a flag sits in the indented options list.
        for cmd in ["montecarlo", "sweep", "validate", "optimize"] {
            let (_, text) = run_to_string(&[cmd, "--help"]);
            assert!(text.contains("--checkpoint <path>"), "{cmd}: {text}");
            for line in text.lines().filter(|l| l.trim_start().starts_with("--")) {
                assert!(line.starts_with("    "), "{cmd}: unindented {line:?}");
            }
        }
    }

    /// Every chunked command ends on the same footer. A fresh run, with or
    /// without a budget it never reaches, prints exactly one `run:` line;
    /// on a full disk the run sheds its journal, succeeds, and says so.
    #[test]
    fn durable_command_footers() {
        let dir = std::env::temp_dir().join(format!("ssn_cli_footer_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let commands: [&[&str]; 4] = [
            &[
                "montecarlo",
                "--process",
                "p018",
                "--drivers",
                "4",
                "--samples",
                "600",
            ],
            &[
                "sweep",
                "--process",
                "p018",
                "--max-drivers",
                "3",
                "--no-simulation",
            ],
            &["validate", "--corpus", "9"],
            &[
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
            ],
        ];
        for cmd in commands {
            for extra in [&[][..], &["--deadline", "3600"]] {
                let argv = [cmd, &["--threads", "2"], extra].concat();
                let (res, text) = run_to_string(&argv);
                assert!(res.is_ok(), "{argv:?}: {text}");
                let footer: Vec<&str> = text
                    .lines()
                    .skip_while(|l| !l.starts_with("run: "))
                    .collect();
                assert_eq!(footer.len(), 1, "{argv:?}: {text}");
                assert!(
                    !footer[0].contains("elapsed across sessions"),
                    "{argv:?}: {text}"
                );
            }
            let ckpt = dir.join(format!("{}.ckpt", cmd[0]));
            let argv = [cmd, &["--checkpoint", ckpt.to_str().expect("utf8 path")]].concat();
            let full_disk = ssn_core::faults::FaultPlan {
                disk_enospc: 1.0,
                ..ssn_core::faults::FaultPlan::default()
            };
            let (res, text) = ssn_core::faults::with_faults(full_disk, || run_to_string(&argv));
            assert!(res.is_ok(), "{argv:?}: {text}");
            assert!(
                text.contains("degraded: checkpoint-disabled"),
                "{argv:?}: {text}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
