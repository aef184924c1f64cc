//! `serve_load` — socket client for the `ssn serve` gates in `scripts/ci.sh`.
//!
//! Two modes, both against an already-running server (`--addr`):
//!
//! * **Smoke** (default): fire a fixed mixed request stream at the server
//!   and count the outcomes. Pointed at an `ssn serve` started with network
//!   faults in `SSN_FAULTS` (torn bodies, mid-response disconnects, injected
//!   handler panics), the run asserts the server kept answering through all
//!   of it: it exits 0 only when a clean health check passes at the end.
//! * **Job** (`--job`): submit one durable Monte Carlo job, poll it to
//!   completion, and print `job <digest> body-fnv <hash>`. The CI gate
//!   runs this against a server it kills mid-job and again against an
//!   untouched server, then compares the hashes: resumed bytes must be
//!   identical to uninterrupted bytes.
//!
//! Speed is measured by `perfbench`'s `serve_mixed` workload, not here.
//!
//! Run with `cargo run -p ssn-bench --bin serve_load --release -- --addr <host:port>`.

use ssn_core::durable::fnv1a64;
use ssn_server::client;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const HELP: &str = "\
usage: serve_load --addr <host:port> [options]

options:
    --addr <host:port>  the server to drive (required)
    --job               crash-safety probe: submit one durable montecarlo
                        job, poll to completion, print its body hash
    --samples <n>       montecarlo samples for --job (default 60000)
";

/// Requests the smoke sends, and the client threads that send them.
const REQUESTS: usize = 200;
const CONCURRENCY: usize = 4;
/// Per-request client timeout.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Tries of the final health probe, each on a fresh connection, and the
/// pause between them.
const PROBE_TRIES: usize = 10;
const PROBE_GAP: Duration = Duration::from_millis(200);

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&argv) {
        Ok(Some(o)) => o,
        Ok(None) => {
            print!("{HELP}");
            return;
        }
        Err(e) => {
            eprintln!("serve_load: {e}");
            eprint!("{HELP}");
            std::process::exit(2);
        }
    };
    let code = if opts.job {
        job_probe(opts.addr, opts.samples)
    } else {
        smoke(opts.addr)
    };
    std::process::exit(code);
}

struct Options {
    addr: SocketAddr,
    job: bool,
    samples: usize,
}

impl Options {
    /// `Ok(None)` when `--help` was asked for.
    fn parse(argv: &[String]) -> Result<Option<Self>, String> {
        let (mut addr, mut job, mut samples) = (None, false, 60_000);
        let mut it = argv.iter();
        while let Some(tok) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match tok.as_str() {
                "--addr" => {
                    let raw = value("--addr")?;
                    addr = Some(raw.parse().map_err(|_| format!("bad address {raw:?}"))?);
                }
                "--samples" => samples = parse_count(&value("--samples")?)?,
                "--job" => job = true,
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        let addr = addr.ok_or("--addr is required")?;
        Ok(Some(Self { addr, job, samples }))
    }
}

fn parse_count(raw: &str) -> Result<usize, String> {
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("expected a positive count, got {raw:?}"))
}

/// The request mix: cheap sync analyses over a small parameter pool (so
/// the content-addressed cache sees repeats) plus the health probe.
fn target_for(i: usize) -> String {
    match i % 8 {
        0 => "/healthz".into(),
        1 => format!("/v1/estimate?drivers={}", 2 + i % 7),
        2 => format!("/v1/budget?drivers={}&budget=0.45", 4 + i % 5),
        3 => format!(
            "/v1/montecarlo?drivers={}&samples=256&seed={}",
            2 + i % 4,
            1 + i % 3
        ),
        4 => format!("/v1/sweep?max-drivers={}", 4 + i % 4),
        5 => format!("/v1/estimate?process=p025&drivers={}", 2 + i % 7),
        6 => format!("/v1/estimate?drivers={}&rise-time=1n", 2 + i % 7),
        _ => "/metrics".into(),
    }
}

fn smoke(addr: SocketAddr) -> i32 {
    println!(
        "serve_load: {REQUESTS} requests, {CONCURRENCY} client thread(s) against http://{addr}"
    );
    let [ok, shed, client_4xx, server_5xx, transport] = std::array::from_fn(|_| AtomicU64::new(0));
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..CONCURRENCY {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= REQUESTS {
                    break;
                }
                let counter = match client::get(addr, &target_for(i), TIMEOUT) {
                    Ok(resp) => match resp.status {
                        200 | 202 => &ok,
                        503 => &shed,
                        s if (400..500).contains(&s) => &client_4xx,
                        _ => &server_5xx,
                    },
                    // Timeouts and injected disconnects land here; the
                    // point of the run is that the *server* survives them.
                    Err(_) => &transport,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    let [ok, shed, c4, s5, lost] =
        [ok, shed, client_4xx, server_5xx, transport].map(AtomicU64::into_inner);
    println!("outcome: {ok} ok, {shed} shed (503), {c4} 4xx, {s5} 5xx, {lost} transport errors");

    // The server's own counters, for the log ci.sh prints when the smoke
    // fails.
    match client::get(addr, "/metrics", TIMEOUT) {
        Ok(resp) => println!("metrics: {}", resp.text()),
        Err(e) => println!("metrics: unavailable ({e})"),
    }

    // The liveness bar: whatever was injected, the server must still
    // answer a clean health check at the end of the run. A fault plan
    // decides per connection, so the probe retries on fresh connections
    // and fails only when every try does.
    let mut last = None;
    for _ in 0..PROBE_TRIES {
        match client::get(addr, "/healthz", TIMEOUT) {
            Ok(resp) if resp.status == 200 => {
                println!("health: ok after the run");
                return 0;
            }
            other => last = Some(other),
        }
        std::thread::sleep(PROBE_GAP);
    }
    eprintln!("serve_load: server unhealthy after the run: {last:?}");
    1
}

/// Submits one durable job, polls to completion, prints the body hash.
fn job_probe(addr: SocketAddr, samples: usize) -> i32 {
    let target = format!("/v1/montecarlo?drivers=8&samples={samples}&seed=7");
    let submitted = match client::get(addr, &target, TIMEOUT) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve_load: submit failed: {e}");
            return 1;
        }
    };
    let Some(digest) = submitted.header("x-ssn-digest").map(str::to_owned) else {
        eprintln!(
            "serve_load: no x-ssn-digest on submit (status {}): {}",
            submitted.status,
            submitted.text()
        );
        return 1;
    };
    // 200 = served sync or from cache; 202 = durable job, poll it.
    let body = if submitted.status == 200 {
        submitted.body
    } else {
        let poll = format!("/v1/jobs/{digest}");
        let deadline = Instant::now() + Duration::from_secs(600);
        loop {
            if Instant::now() > deadline {
                eprintln!("serve_load: job {digest} did not finish in time");
                return 1;
            }
            match client::get(addr, &poll, TIMEOUT) {
                Ok(r) if r.status == 200 => break r.body,
                Ok(r) if r.status == 202 => {
                    std::thread::sleep(Duration::from_millis(200));
                }
                Ok(r) => {
                    eprintln!(
                        "serve_load: job {digest} failed (status {}): {}",
                        r.status,
                        r.text()
                    );
                    return 1;
                }
                // The server may be mid-restart in the crash drill;
                // resubmitting the identical request resumes the journal.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(200));
                    let _ = client::get(addr, &target, TIMEOUT);
                }
            }
        }
    };
    println!("job {digest} body-fnv {:016x}", fnv1a64(&body));
    0
}
