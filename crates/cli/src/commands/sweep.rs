//! `ssn sweep` — maximum SSN vs. driver count, with the prior models.

use super::{durable_options, resolve_process, with_telemetry, TelemetryMode, DURABLE_HELP};
use crate::args::ParsedArgs;
use crate::error::CliError;
use ssn_core::baselines::{senthinathan_prince, song, vemuru, BaselineInputs};
use ssn_core::bridge::{measure, DriverBankConfig};
use ssn_core::durable::{
    fnv1a64, run_chunked_durable, ByteReader, ByteWriter, ChunkOutcome, DegradeStep, ParamDigest,
    RunSpec,
};
use ssn_core::parallel::ExecPolicy;
use ssn_core::report::run_footer;
use ssn_core::scenario::SsnScenario;
use ssn_core::{lcmodel, lmodel, SsnError};
use ssn_units::Seconds;
use std::io::Write;
use std::sync::Arc;

/// Column index of the simulated reference in a row with the sim column.
const SIM_COLUMN: usize = 3;

const HELP: &str = "\
usage: ssn sweep --process <p018|p025|p035> [options]

options:
    --max-drivers <N>   sweep N = 1..=N (default 16)
    --rise-time <t>     input rise time (default 0.5n)
    --threads <n>       worker threads for the sweep rows (default: all
                        hardware threads; results are identical for every
                        thread count)
    --no-simulation     skip the (slow) golden-device reference column
    --csv <path>        also write the table as CSV
    --telemetry[=json:<path>]
                        profile the run: print a per-stage breakdown table,
                        or write the span/counter stream as JSON lines to
                        <path>; never changes the results
";

/// Runs the command.
///
/// # Errors
///
/// Usage errors for bad options; analysis errors from the suite.
pub fn run<W: Write>(argv: &[String], out: &mut W) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "process",
            "max-drivers",
            "rise-time",
            "threads",
            "csv",
            "checkpoint",
            "deadline",
        ],
        &["no-simulation", "help", "telemetry", "resume"],
    )?;
    if args.wants_help() {
        writeln!(out, "{HELP}{DURABLE_HELP}")?;
        return Ok(());
    }
    let process = resolve_process(
        args.value("process")
            .ok_or_else(|| CliError::usage("--process is required"))?,
    )?;
    let max_n: usize = args.parsed_or("max-drivers", 16)?;
    if max_n == 0 {
        return Err(CliError::usage("--max-drivers must be positive"));
    }
    let tr = args.parsed_or("rise-time", Seconds::from_nanos(0.5))?;
    let simulate = !args.flag("no-simulation");
    let policy = match args.parsed::<usize>("threads")? {
        Some(0) => return Err(CliError::usage("--threads must be at least 1")),
        Some(t) => ExecPolicy::with_threads(t),
        None => ExecPolicy::auto(),
    };

    let telemetry = TelemetryMode::from_args(&args)?;
    let durable = durable_options(&args)?;

    let base = SsnScenario::builder(&process).rise_time(tr).build()?;
    let mut header = vec!["N".to_owned(), "L-only".to_owned(), "LC".to_owned()];
    if simulate {
        header.push("sim".to_owned());
    }
    header.extend([
        "Vemuru96".to_owned(),
        "Song99".to_owned(),
        "SenPr91".to_owned(),
    ]);

    with_telemetry(&telemetry, "cli.sweep", out, |out| {
        // One table row (the cells for N = `n` drivers). `with_sim`
        // controls the (slow) golden-device reference column.
        let make_row = |n: usize, with_sim: bool| -> Result<Vec<String>, SsnError> {
            let _row_span = ssn_core::telemetry::span("sweep.row");
            let s = base.with_drivers(n)?;
            let inputs = BaselineInputs::from_process(&process, n, s.inductance(), tr);
            let mut row = vec![
                n.to_string(),
                format!("{:.1} mV", lmodel::vn_max(&s).value() * 1e3),
                format!("{:.1} mV", lcmodel::vn_max(&s).0.value() * 1e3),
            ];
            if with_sim {
                let sim = measure(&DriverBankConfig::from_scenario(
                    &s,
                    Arc::new(process.output_driver()),
                ))?;
                row.push(format!("{:.1} mV", sim.vn_max.value() * 1e3));
            }
            row.push(format!("{:.1} mV", vemuru(&inputs).value() * 1e3));
            row.push(format!("{:.1} mV", song(&inputs).value() * 1e3));
            row.push(format!(
                "{:.1} mV",
                senthinathan_prince(&inputs).value() * 1e3
            ));
            Ok(row)
        };

        // Each row is independent (the simulation column dominates the
        // cost), so rows fan out over the runner one per chunk; output
        // order is the input order.
        let mut digest = ParamDigest::new("sweep-rows");
        digest
            .push_u64(fnv1a64(process.name().as_bytes()))
            .push_f64(tr.value())
            .push_u64(u64::from(simulate));
        let spec = RunSpec {
            kind: "sweep-rows",
            seed: 0,
            params_hash: digest.finish(),
            n_items: max_n,
            chunk_size: 1,
        };
        let run = run_chunked_durable(
            &spec,
            &policy,
            &durable,
            |_, rows: &Vec<Vec<String>>| {
                let mut w = ByteWriter::new();
                w.put_usize(rows.len());
                for row in rows {
                    w.put_usize(row.len());
                    for cell in row {
                        w.put_str(cell);
                    }
                }
                w.into_vec()
            },
            |_, r: &mut ByteReader<'_>| {
                let n_rows = r.take_usize()?;
                (0..n_rows)
                    .map(|_| {
                        let cells = r.take_usize()?;
                        (0..cells).map(|_| r.take_str()).collect()
                    })
                    .collect()
            },
            |_, range| {
                range
                    .map(|idx| make_row(idx + 1, simulate))
                    .collect::<Result<Vec<Vec<String>>, SsnError>>()
            },
        )?;
        let (stats, mut durability) = (run.stats, run.durability);
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(max_n);
        let mut full_rows = 0usize;
        let mut degraded_rows = 0usize;
        for (c, outcome) in run.chunks.into_iter().enumerate() {
            match outcome {
                ChunkOutcome::Done(rs) => {
                    full_rows += rs.len();
                    rows.extend(rs);
                }
                // A table with a hole never prints.
                ChunkOutcome::Failed(first_cause) => {
                    return Err(SsnError::AllChunksFailed {
                        failed: stats.failed_chunks,
                        total: max_n,
                        first_cause,
                    }
                    .into());
                }
                ChunkOutcome::DeadlineSkipped => {
                    // Last ladder rung for skipped rows: the cheap closed
                    // forms still fill the table; the slow simulated column
                    // degrades to "-".
                    for idx in spec.range(c) {
                        let mut row = make_row(idx + 1, false)?;
                        if simulate {
                            row.insert(SIM_COLUMN, "-".to_owned());
                            degraded_rows += 1;
                        } else {
                            full_rows += 1;
                        }
                        rows.push(row);
                    }
                }
            }
        }
        if degraded_rows > 0 {
            durability.note_degrade(DegradeStep::ClosedFormOnly, max_n, full_rows);
        }

        // Render aligned.
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
        writeln!(out, "{}", fmt(&header))?;
        for r in &rows {
            writeln!(out, "{}", fmt(r))?;
        }
        write!(out, "{}", run_footer(&stats, &durability))?;

        if let Some(path) = args.value("csv") {
            let mut text = header.join(",");
            text.push('\n');
            for r in &rows {
                text.push_str(&r.join(","));
                text.push('\n');
            }
            std::fs::write(path, text)?;
            writeln!(out, "csv written to {path}")?;
        }
        Ok(())
    })
}
