//! A/A mode: two interleaved sets of runs of one build. For each workload
//! and end-to-end metric it prints each set's median and quartiles and
//! whether the two sets agree within the bounds in `BENCHMARK.json`; for
//! each seed it checks that the exact counts repeat.

use crate::stats::{median, quartiles};
use ssn_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// One child run's result line and counts.
struct RunResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
}

/// The numbers `pick` finds in each member of the object `obj`, by key.
fn numbers(obj: Option<&Json>, pick: impl Fn(&Json) -> Option<&Json>) -> BTreeMap<String, f64> {
    match obj {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), pick(v)?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    let metrics = numbers(result.get("metrics"), |v| v.get("value"));
    let counts = text
        .lines()
        .find_map(|l| l.strip_prefix("counts: "))
        .and_then(|c| json::parse(c).ok());
    let counts = numbers(counts.as_ref(), |v| Some(v));
    Ok(RunResult {
        correct: output.status.success() && result.get("correct") == Some(&Json::Bool(true)),
        metrics,
        counts,
    })
}

/// What `BENCHMARK.json` lists: workload names, and the `(name, bound)` of
/// every end-to-end metric.
struct Listed {
    workloads: Vec<String>,
    bounds: Vec<(String, f64)>,
}

fn benchmark() -> Result<Listed, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = json::parse(&text)?;
    let entries = |key: &str| match doc.get(key) {
        Some(Json::Arr(v)) => v.clone(),
        _ => Vec::new(),
    };
    let workloads = entries("workloads")
        .iter()
        .filter_map(|w| Some(w.get("name")?.as_str()?.to_owned()))
        .collect();
    let bounds = entries("end_to_end")
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    Ok(Listed { workloads, bounds })
}

/// Runs `runs` seeds per set on each workload (`None`: every workload in
/// `BENCHMARK.json`), alternating which set goes first, then one traced
/// run per set on the first seed. Returns the exit code: 0 when every
/// metric agrees and every count repeats.
pub fn run(workload: Option<&str>, runs: usize, first_seed: u64, seconds: f64) -> i32 {
    let Listed {
        workloads: listed,
        bounds,
    } = match benchmark() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let workloads: Vec<&str> = match workload {
        Some(w) => vec![w],
        None => listed.iter().map(String::as_str).collect(),
    };
    let mut agree = true;
    for w in workloads {
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        let mut counts_ok = true;
        for i in 0..runs {
            let seed = first_seed + i as u64;
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                match child(w, seed, seconds, false) {
                    Ok(r) => {
                        if !r.correct {
                            println!("aa {w} seed {seed} set {}: incorrect output", set_name(set));
                            agree = false;
                        }
                        sets[set].push(r);
                    }
                    Err(e) => {
                        println!("aa {w} seed {seed} set {}: {e}", set_name(set));
                        agree = false;
                    }
                }
            }
            if let (Some(a), Some(b)) = (sets[0].get(i), sets[1].get(i)) {
                if a.counts != b.counts {
                    println!(
                        "aa {w} seed {seed}: counts differ: {:?} vs {:?}",
                        a.counts, b.counts
                    );
                    counts_ok = false;
                }
            }
        }
        let traced: Vec<_> = (0..2)
            .filter_map(|_| child(w, first_seed, seconds, true).ok())
            .collect();
        if traced.len() == 2 && traced[0].counts != traced[1].counts {
            println!(
                "aa {w} traced seed {first_seed}: counts differ: {:?} vs {:?}",
                traced[0].counts, traced[1].counts
            );
            counts_ok = false;
        }
        println!(
            "aa {w}: exact counts {} across {} seeds and the traced pair",
            if counts_ok { "repeat" } else { "DIFFER" },
            runs
        );
        agree &= counts_ok;
        for (name, bound) in &bounds {
            let values = |s: &[RunResult]| -> Vec<f64> {
                s.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let spread = |v: &[f64], m: f64| {
                let q = quartiles(v);
                if m == 0.0 {
                    0.0
                } else {
                    (q[2] - q[0]) / m
                }
            };
            let (sa, sb) = (spread(&a, ma), spread(&b, mb));
            let shift = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let spread_ok = sa <= *bound && sb <= *bound;
            let ok = shift.abs() <= *bound && spread_ok && ma != 0.0;
            agree &= ok;
            let qa = quartiles(&a);
            let qb = quartiles(&b);
            println!(
                "aa {w} {name}: A {ma:.6} [{:.6}, {:.6}] spread {:.2}% | B {mb:.6} [{:.6}, {:.6}] spread {:.2}% | shift {:+.2}% | bound {:.0}% | {}",
                qa[0],
                qa[2],
                sa * 100.0,
                qb[0],
                qb[2],
                sb * 100.0,
                shift * 100.0,
                bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    println!(
        "aa: {}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    i32::from(!agree)
}

fn set_name(set: usize) -> &'static str {
    ["A", "B"][set]
}
