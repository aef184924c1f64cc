//! The ssn-lab benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --aa <runs> [--workload <name>|all] [--seed <first>] [--seconds <s>]
//! ```
//!
//! A run generates its workload's inputs from the seed, drives the
//! library and the server through their public functions for the given
//! time, checks every output outside the timed region and prints, as its
//! last line, one JSON object with the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics of the traced run (`--trace 1`). A wrong output
//! makes the exit code 1. See `perfbench/README.md`.

mod aa;
mod design;
mod host;
mod inputs;
mod mc;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Ctx, Outcome, END_TO_END, PER_LAYER};
use ssn_telemetry::json;
use std::path::Path;
use std::time::Instant;

const WORKLOADS: [&str; 4] = [
    "mc_yield",
    "mc_checkpoint",
    "design_validate",
    "serve_mixed",
];

const USAGE: &str = "\
usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       perfbench --aa <runs> [--workload <name>|all] [--seed <first>] [--seconds <s>]
workloads: mc_yield, mc_checkpoint, design_validate, serve_mixed";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        aa: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--aa" => args.aa = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = WORKLOADS.contains(&args.workload.as_str());
    let all = args.aa.is_some() && matches!(args.workload.as_str(), "" | "all");
    if !known && !all {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.aa {
        Some(runs) => {
            let one = WORKLOADS.contains(&args.workload.as_str());
            aa::run(
                one.then_some(args.workload.as_str()),
                runs,
                args.seed,
                args.seconds,
            )
        }
        None => run(started, &args),
    };
    std::process::exit(code);
}

/// One run of one workload; returns the exit code.
fn run(started: Instant, args: &Args) -> i32 {
    let cpu0 = host::CpuTimes::read();
    let scratch = Path::new(".perfbench").join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return 1;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.clone(),
        started,
    };
    let result = match args.workload.as_str() {
        "mc_yield" => mc::mc_yield(&ctx),
        "mc_checkpoint" => mc::mc_checkpoint(&ctx),
        "design_validate" => design::design_validate(&ctx),
        _ => serve::serve_mixed(&ctx),
    };
    let facts = host::HostFacts::collect(&scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return 1;
        }
    };
    let (steal, iowait) = host::CpuTimes::read().shares_since(cpu0);
    println!(
        "host: {{\"workload\":{},\"seed\":{},\"trace\":{},\"nproc\":{},\"cpu\":{},\"commit\":{},\"rustc\":{},\"journal_fs\":{},\"steal_frac\":{},\"iowait_frac\":{},\"loadgen_late_ms_p99\":{}}}",
        json::escape(&args.workload),
        args.seed,
        u8::from(args.trace),
        facts.nproc,
        json::escape(&facts.cpu),
        json::escape(&facts.commit),
        json::escape(&facts.rustc),
        json::escape(&facts.journal_fs),
        json::number(steal),
        json::number(iowait),
        json::number(out.late_ms_p99),
    );
    print_report(&out, args.trace);
    if out.correct() {
        0
    } else {
        1
    }
}

fn print_report(out: &Outcome, trace: bool) {
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::escape(k)))
        .collect();
    println!("counts: {{{}}}", counts.join(","));
    for note in &out.notes {
        println!("note: {note}");
    }
    println!(
        "ops: {} attempted, {} failed, failed_frac {}",
        out.attempted,
        out.failed,
        json::number(out.failed as f64 / out.attempted.max(1) as f64)
    );
    let (list, values): (&[(&str, &str)], _) = if trace {
        (&PER_LAYER, &out.layers)
    } else {
        (&END_TO_END, &out.e2e)
    };
    let mut metrics = Vec::new();
    for (name, unit) in list {
        let value = values.get(name).copied().unwrap_or(0.0);
        println!("metric {name} = {} {unit}", json::number(value));
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::escape(name),
            json::number(value),
            json::escape(unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}
