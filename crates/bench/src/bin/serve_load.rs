//! `serve_load` — load generator and crash-safety probe for `ssn serve`.
//!
//! Two modes:
//!
//! * **Load** (default): fire a mixed request stream at a server —
//!   in-process by default, or an external one via `--addr` — and report
//!   throughput, tail latency, shed rate, and cache hit rate. Pointed at
//!   an `ssn serve` started with network faults in `SSN_FAULTS` (torn
//!   bodies, mid-response disconnects, injected handler panics), the run
//!   asserts the server kept answering through all of it.
//! * **Job** (`--job`): submit one durable Monte Carlo job, poll it to
//!   completion, and print `job <digest> body-fnv <hash>`. The CI gate
//!   runs this against a server it kills mid-job and again against an
//!   untouched server, then compares the hashes: resumed bytes must be
//!   identical to uninterrupted bytes.
//!
//! Run with `cargo run -p ssn-bench --bin serve_load --release -- [options]`.

use ssn_core::durable::fnv1a64;
use ssn_server::client;
use ssn_server::{Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HELP: &str = "\
usage: serve_load [options]

options:
    --addr <host:port>  target an already-running server instead of an
                        in-process one
    --requests <n>      total requests to send (default 400)
    --concurrency <n>   client worker threads (default 8)
    --job               crash-safety probe: submit one durable montecarlo
                        job, poll to completion, print its body hash
    --samples <n>       montecarlo samples for --job (default 60000)
    --timeout <secs>    per-request client timeout (default 10)
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve_load: {e}");
            eprint!("{HELP}");
            std::process::exit(2);
        }
    };
    if opts.help {
        print!("{HELP}");
        return;
    }

    // An in-process server keeps the bench self-contained; an external
    // address makes the same traffic reusable against `ssn serve`.
    let (addr, server) = match opts.addr {
        Some(addr) => (addr, None),
        None => {
            let server = match Server::start(ServerConfig::default()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("serve_load: cannot start server: {e}");
                    std::process::exit(1);
                }
            };
            (server.addr(), Some(server))
        }
    };

    let code = if opts.job {
        job_probe(addr, opts.samples, opts.timeout)
    } else {
        load(addr, &opts)
    };
    if let Some(server) = server {
        server.drain();
    }
    std::process::exit(code);
}

struct Options {
    addr: Option<SocketAddr>,
    requests: usize,
    concurrency: usize,
    job: bool,
    samples: usize,
    timeout: Duration,
    help: bool,
}

impl Options {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut o = Self {
            addr: None,
            requests: 400,
            concurrency: 8,
            job: false,
            samples: 60_000,
            timeout: Duration::from_secs(10),
            help: false,
        };
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
                    o.addr = Some(raw.parse().map_err(|_| format!("bad address {raw:?}"))?);
                }
                "--requests" => o.requests = parse_count(&value("--requests")?)?,
                "--concurrency" => o.concurrency = parse_count(&value("--concurrency")?)?,
                "--samples" => o.samples = parse_count(&value("--samples")?)?,
                "--timeout" => {
                    o.timeout = Duration::from_secs(parse_count(&value("--timeout")?)? as u64);
                }
                "--job" => o.job = true,
                "--help" | "-h" => o.help = true,
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        Ok(o)
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

fn load(addr: SocketAddr, opts: &Options) -> i32 {
    println!(
        "serve_load: {} requests, {} client thread(s) against http://{addr}",
        opts.requests, opts.concurrency
    );
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let client_4xx = Arc::new(AtomicU64::new(0));
    let server_5xx = Arc::new(AtomicU64::new(0));
    let transport = Arc::new(AtomicU64::new(0));
    let next = Arc::new(AtomicUsize::new(0));
    let latencies_us: Arc<std::sync::Mutex<Vec<u64>>> =
        Arc::new(std::sync::Mutex::new(Vec::with_capacity(opts.requests)));

    let started = Instant::now();
    let workers: Vec<_> = (0..opts.concurrency)
        .map(|_| {
            let (ok, shed, client_4xx, server_5xx, transport, next, latencies) = (
                Arc::clone(&ok),
                Arc::clone(&shed),
                Arc::clone(&client_4xx),
                Arc::clone(&server_5xx),
                Arc::clone(&transport),
                Arc::clone(&next),
                Arc::clone(&latencies_us),
            );
            let (total, timeout) = (opts.requests, opts.timeout);
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= total {
                    break;
                }
                let t0 = Instant::now();
                match client::get(addr, &target_for(i), timeout) {
                    Ok(resp) => {
                        let us = t0.elapsed().as_micros() as u64;
                        latencies.lock().unwrap_or_else(|e| e.into_inner()).push(us);
                        match resp.status {
                            200 | 202 => ok.fetch_add(1, Ordering::Relaxed),
                            503 => shed.fetch_add(1, Ordering::Relaxed),
                            s if (400..500).contains(&s) => {
                                client_4xx.fetch_add(1, Ordering::Relaxed)
                            }
                            _ => server_5xx.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                    // Timeouts and injected disconnects land here; the
                    // point of the run is that the *server* survives them.
                    Err(_) => {
                        transport.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }
    let wall = started.elapsed();

    let mut lat = latencies_us
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    lat.sort_unstable();
    let pct = |q: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() - 1) as f64 * q).round() as usize;
        lat[idx] as f64 / 1000.0
    };
    let (ok, shed, c4, s5, lost) = (
        ok.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
        client_4xx.load(Ordering::Relaxed),
        server_5xx.load(Ordering::Relaxed),
        transport.load(Ordering::Relaxed),
    );
    println!("outcome: {ok} ok, {shed} shed (503), {c4} 4xx, {s5} 5xx, {lost} transport errors");
    println!(
        "throughput: {:.0} req/s over {:.3} s",
        opts.requests as f64 / wall.as_secs_f64(),
        wall.as_secs_f64()
    );
    println!(
        "latency: p50 {:.1} ms  p95 {:.1} ms  p99 {:.1} ms",
        pct(0.50),
        pct(0.95),
        pct(0.99)
    );
    match cache_stats(addr, opts.timeout) {
        Some((hits, misses)) if hits + misses > 0 => println!(
            "cache: {hits} hit(s), {misses} miss(es) ({:.0}% hit rate)",
            100.0 * hits as f64 / (hits + misses) as f64
        ),
        _ => println!("cache: stats unavailable"),
    }

    // The liveness bar: whatever was injected, the server must still
    // answer a clean health check at the end of the run.
    match client::get(addr, "/healthz", opts.timeout) {
        Ok(resp) if resp.status == 200 => {
            println!("health: ok after the run");
            0
        }
        other => {
            eprintln!("serve_load: server unhealthy after the run: {other:?}");
            1
        }
    }
}

/// Reads `cache_hits` / `cache_misses` off `/metrics`.
fn cache_stats(addr: SocketAddr, timeout: Duration) -> Option<(u64, u64)> {
    let body = client::get(addr, "/metrics", timeout).ok()?.text();
    Some((
        json_u64(&body, "cache_hits")?,
        json_u64(&body, "cache_misses")?,
    ))
}

/// Pulls one unsigned field out of a flat JSON object (the only shape the
/// server emits); no parser dependency needed for a bench readout.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Submits one durable job, polls to completion, prints the body hash.
fn job_probe(addr: SocketAddr, samples: usize, timeout: Duration) -> i32 {
    let target = format!("/v1/montecarlo?drivers=8&samples={samples}&seed=7");
    let submitted = match client::get(addr, &target, timeout) {
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
            match client::get(addr, &poll, timeout) {
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
                    let _ = client::get(addr, &target, timeout);
                }
            }
        }
    };
    println!("job {digest} body-fnv {:016x}", fnv1a64(&body));
    0
}
