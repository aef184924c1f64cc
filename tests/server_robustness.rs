//! Robustness contract of the HTTP service (`ssn-server`), exercised over
//! real loopback sockets:
//!
//! * **Fuzz**: no malformed request may panic the server or hang a
//!   connection — every case ends in a typed 4xx or a clean close, and
//!   the server stays healthy with zero caught panics.
//! * **Cache**: a content-addressed hit returns byte-identical bodies to
//!   the miss that filled it, across spellings of the same request.
//! * **Overload**: a full job queue sheds with `503` + `Retry-After`
//!   instead of queueing unboundedly.
//! * **Drain**: `POST /v1/admin/drain` stops admission, the drain
//!   completes cleanly, and the listener actually goes away.
//! * **Injected network faults**: torn bodies, mid-response disconnects,
//!   and handler panics leave the server serving.
//! * **Pinned bytes**: status lines and bodies of every endpoint, an error
//!   of each kind and a job submission are fixed byte for byte, so a change
//!   to how bodies are encoded cannot pass as a change to two runs alike.
//!
//! A server runs under the fault plan of the thread that starts it, so a
//! plan armed by one test never reaches another test's server.

use ssn_lab::core::durable::fnv1a64;
use ssn_lab::core::faults::{with_faults, FaultPlan};
use ssn_lab::numeric::check::{forall, Gen};
use ssn_lab::server::{client, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn start(cfg: ServerConfig) -> Server {
    Server::start(cfg).expect("server starts")
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        io_timeout: Duration::from_millis(500),
        request_deadline: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(20),
        ..ServerConfig::default()
    }
}

fn metric(addr: SocketAddr, key: &str) -> u64 {
    let body = client::get(addr, "/metrics", TIMEOUT)
        .expect("metrics reachable")
        .text();
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}")) + pat.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric metric")
}

/// Sends raw bytes as one connection and returns whatever came back
/// (empty = the server dropped the connection without a response).
fn raw_roundtrip(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(TIMEOUT)).unwrap();
    // The peer may have already rejected and closed; a write error then
    // is equivalent to the response being cut off.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    out
}

/// One deterministically generated malformed request.
fn malformed_request(g: &mut Gen) -> Vec<u8> {
    match g.usize_in(0, 9) {
        // Pure line noise, possibly with no newline at all.
        0 => (0..g.usize_in(0, 200))
            .map(|_| (g.usize_in(0, 255)) as u8)
            .collect(),
        // Valid request line, garbage header lines.
        1 => {
            let mut v = b"GET /healthz HTTP/1.1\r\n".to_vec();
            for _ in 0..g.usize_in(1, 4) {
                v.extend_from_slice(b"not a header line\r\n");
            }
            v.extend_from_slice(b"\r\n");
            v
        }
        // Request line past the hard cap.
        2 => {
            let mut v = b"GET /".to_vec();
            v.extend(std::iter::repeat_n(b'a', 9000 + g.usize_in(0, 2000)));
            v.extend_from_slice(b" HTTP/1.1\r\n\r\n");
            v
        }
        // More headers than allowed.
        3 => {
            let mut v = b"GET /healthz HTTP/1.1\r\n".to_vec();
            for i in 0..40 {
                v.extend_from_slice(format!("x-h{i}: {i}\r\n").as_bytes());
            }
            v.extend_from_slice(b"\r\n");
            v
        }
        // Unparseable or absurd content-length.
        4 => {
            let cl = ["banana", "-1", "99999999999999999999", "1e9"][g.usize_in(0, 3)];
            format!("POST /v1/estimate HTTP/1.1\r\ncontent-length: {cl}\r\n\r\n").into_bytes()
        }
        // Torn body: promises more bytes than it sends.
        5 => {
            let n = g.usize_in(10, 64);
            let sent = g.usize_in(0, 9);
            let mut v =
                format!("POST /v1/estimate HTTP/1.1\r\ncontent-length: {n}\r\n\r\n").into_bytes();
            v.extend(std::iter::repeat_n(b'x', sent));
            v
        }
        // Bad percent-escapes and broken pairs in the query.
        6 => {
            let q = ["drivers=%zz", "a%2=1", "=1&=2", "a=1&a=2", "%"][g.usize_in(0, 4)];
            format!("GET /v1/estimate?{q} HTTP/1.1\r\n\r\n").into_bytes()
        }
        // Wrong protocol version / missing parts of the request line.
        7 => {
            let line = ["GET /x HTTP/2.0", "GET /x", "GET", ""][g.usize_in(0, 3)];
            format!("{line}\r\n\r\n").into_bytes()
        }
        // Non-UTF-8 body under a correct content-length.
        8 => {
            let mut v = b"POST /v1/estimate HTTP/1.1\r\ncontent-length: 4\r\n\r\n".to_vec();
            v.extend_from_slice(&[0xff, 0xfe, 0x80, 0x81]);
            v
        }
        // Chunked transfer-encoding (unsupported by design).
        _ => b"POST /v1/estimate HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
    }
}

#[test]
fn fuzz_malformed_http_never_panics_the_server() {
    let server = start(quick_config());
    let addr = server.addr();

    forall(
        "malformed HTTP gets a typed 4xx or a clean close",
        96,
        |g| {
            let bytes = malformed_request(g);
            let reply = raw_roundtrip(addr, &bytes);
            if reply.is_empty() {
                // Dropped without a response: allowed for unrecoverable
                // transport-level garbage, never a hang (read timed out above
                // would still land here, bounded by the io timeout).
                return Ok(());
            }
            let head = String::from_utf8_lossy(&reply);
            let status: u16 = head
                .strip_prefix("HTTP/1.1 ")
                .and_then(|r| r.get(..3))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("unparseable response head: {head:.60}"))?;
            if (400..600).contains(&status) {
                Ok(())
            } else {
                Err(format!("malformed input answered {status}: {head:.120}"))
            }
        },
    );

    // The bar: still healthy, and not one handler panic along the way.
    let health = client::get(addr, "/healthz", TIMEOUT).expect("health");
    assert_eq!(health.status, 200, "{}", health.text());
    assert_eq!(metric(addr, "panics_caught"), 0);
    assert!(server.drain().clean);
}

#[test]
fn cache_hit_bytes_equal_miss_bytes_over_the_network() {
    let server = start(quick_config());
    let addr = server.addr();

    let target = "/v1/montecarlo?drivers=6&samples=512&seed=9";
    let miss = client::get(addr, target, TIMEOUT).expect("miss");
    assert_eq!(miss.status, 200, "{}", miss.text());
    assert_eq!(miss.header("x-ssn-cache"), Some("miss"));
    let hit = client::get(addr, target, TIMEOUT).expect("hit");
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-ssn-cache"), Some("hit"));
    assert_eq!(miss.body, hit.body, "cache must return identical bytes");
    assert_eq!(miss.header("x-ssn-digest"), hit.header("x-ssn-digest"));

    // A different spelling of the same resolved parameters (explicit
    // defaults, POST body instead of query) lands on the same digest.
    let spelled = client::post(
        addr,
        "/v1/montecarlo",
        "process=p018&drivers=6&samples=512&seed=9",
        TIMEOUT,
    )
    .expect("post spelling");
    assert_eq!(spelled.status, 200, "{}", spelled.text());
    assert_eq!(spelled.header("x-ssn-cache"), Some("hit"));
    assert_eq!(spelled.body, miss.body);
    assert!(server.drain().clean);
}

#[test]
fn overloaded_job_queue_sheds_with_retry_after() {
    let server = start(ServerConfig {
        queue_capacity: 1,
        job_workers: 1,
        // Everything beyond a trivial request becomes a durable job.
        sync_max_items: 1,
        ..quick_config()
    });
    let addr = server.addr();

    let mut accepted = 0u32;
    let mut shed = 0u32;
    for seed in 0..6u32 {
        let target = format!("/v1/montecarlo?drivers=8&samples=2000000&seed={seed}");
        let resp = client::get(addr, &target, TIMEOUT).expect("submit");
        match resp.status {
            202 => accepted += 1,
            503 => {
                assert_eq!(resp.header("retry-after"), Some("1"), "{}", resp.text());
                assert!(resp.text().contains("overloaded"), "{}", resp.text());
                shed += 1;
            }
            other => panic!("unexpected status {other}: {}", resp.text()),
        }
    }
    assert!(accepted >= 1, "at least one job admitted");
    assert!(shed >= 1, "a bounded queue must shed past capacity");
    assert!(metric(addr, "shed_jobs") >= u64::from(shed));
    // Drain cancels the in-flight job at a chunk boundary; it stays
    // resumable, so the drain itself is still clean.
    assert!(server.drain().clean);
}

#[test]
fn drain_endpoint_stops_admission_and_closes_the_listener() {
    let server = start(quick_config());
    let addr = server.addr();

    let ok = client::get(addr, "/v1/estimate?drivers=4", TIMEOUT).expect("pre-drain");
    assert_eq!(ok.status, 200, "{}", ok.text());

    let drain = client::post(addr, "/v1/admin/drain", "", TIMEOUT).expect("drain request");
    assert_eq!(drain.status, 200);
    assert!(drain.text().contains("draining"), "{}", drain.text());

    let report = server.wait_until_drained();
    assert!(report.clean, "{report:?}");
    // The listener is gone: a fresh connection must fail outright.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).is_err(),
        "listener still accepting after drain"
    );
}

#[test]
fn injected_network_faults_leave_the_server_serving() {
    let plan =
        FaultPlan::parse("seed=3,net.torn=0.2,net.disconnect=0.2,net.panic=0.2").expect("plan");
    let server = with_faults(plan, || start(quick_config()));
    let addr = server.addr();

    let mut answered = 0u32;
    let mut cut = 0u32;
    for i in 0..60u32 {
        let target = format!("/v1/estimate?drivers={}", 2 + i % 6);
        match client::request(addr, "POST", &target, Some(b"x=y"), TIMEOUT) {
            Ok(_) => answered += 1,
            // Injected disconnects and torn reads surface as transport
            // errors at the client; that's the point of the drill.
            Err(_) => cut += 1,
        }
    }

    assert!(answered > 0, "some requests must still be answered");
    assert!(cut > 0, "the plan injects disconnects deterministically");
    // The server keeps the plan for its whole life. The drill used
    // connections 0..=59; under seed 3 connection 60 is clean and the plan
    // drops 61 and 62 before their responses, so the checks below know
    // which of their requests it eats.
    let health = client::get(addr, "/healthz", TIMEOUT).expect("health after faults");
    assert_eq!(health.status, 200);
    for conn in 61..=62 {
        assert!(
            client::get(addr, "/healthz", TIMEOUT).is_err(),
            "the seeded plan drops connection {conn}"
        );
    }
    assert!(
        metric(addr, "panics_caught") > 0,
        "the seeded plan injects handler panics"
    );
    assert!(server.drain().clean);
}

#[test]
fn response_bodies_are_pinned_byte_for_byte() {
    let spool = std::env::temp_dir().join(format!("ssn-body-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let server = start(ServerConfig {
        spool: Some(spool.clone()),
        ..quick_config()
    });
    let addr = server.addr();
    let get = |target: &str| client::get(addr, target, TIMEOUT).expect(target);

    let literal = [
        ("/healthz", 200, r#"{"status":"ok","draining":false}"#),
        (
            "/nope",
            404,
            r#"{"error":{"kind":"not-found","status":404,"detail":"no such path \"/nope\""}}"#,
        ),
        (
            "/v1/estimate?drivers=0",
            400,
            r#"{"error":{"kind":"invalid-input","status":400,"detail":"invalid input: drivers = 0 (need at least one driver)"}}"#,
        ),
        // Past the sync ceiling, so a durable job on a fresh spool.
        (
            "/v1/montecarlo?drivers=8&samples=4096&seed=3",
            202,
            r#"{"status":"queued","job":"a2806ffe45bb63f1","poll":"/v1/jobs/a2806ffe45bb63f1"}"#,
        ),
    ];
    for (target, status, body) in literal {
        let resp = get(target);
        assert_eq!(
            (resp.status, resp.text().as_str()),
            (status, body),
            "{target}"
        );
    }
    let put = client::request(addr, "PUT", "/v1/estimate", None, TIMEOUT).expect("PUT");
    assert_eq!(put.status, 405);
    assert_eq!(put.header("allow"), Some("GET, POST"));
    assert_eq!(
        put.text(),
        r#"{"error":{"kind":"method-not-allowed","status":405,"detail":"PUT not supported; use GET or POST"}}"#
    );

    let hashed = [
        ("/v1/estimate?drivers=8", 0x16f9_a54a_cb93_f8a4),
        ("/v1/budget?drivers=8&budget=0.45", 0xa4ac_84e8_dfea_82d5),
        ("/v1/sweep?max-drivers=6", 0x7db3_c6c9_1a76_a692),
        (
            "/v1/optimize?max-drivers=5&l-points=3&c-points=2&tr-points=2",
            0x8173_6abd_b708_4bee,
        ),
        (
            "/v1/montecarlo?drivers=6&samples=512&seed=9",
            0x4c4a_c882_2996_ccb4,
        ),
        ("/v1/validate?corpus=1", 0xd232_8c0f_c0a5_c582),
    ];
    for (target, fnv) in hashed {
        let resp = get(target);
        assert_eq!(resp.status, 200, "{target}: {}", resp.text());
        assert_eq!(fnv1a64(&resp.body), fnv, "{target}: {}", resp.text());
    }
    assert!(server.drain().clean);
    let _ = std::fs::remove_dir_all(&spool);
}
