//! A minimal blocking HTTP/1.1 client for tests, the benchmark and `serve_load`.
//!
//! Deliberately tiny: one request per connection (`Connection: close`),
//! `Content-Length` bodies only — exactly the dialect the server speaks.
//! Not a general-purpose client; it exists so the test suite and
//! `serve_load` need no external dependencies.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request and reads the full response.
///
/// # Errors
///
/// Socket errors, timeouts, and malformed response framing all surface as
/// `std::io::Error` (the caller decides whether that's a test failure or
/// an expected injected fault).
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> std::io::Result<Response> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut stream = stream;
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// `GET target`.
///
/// # Errors
///
/// As [`request`].
pub fn get(addr: SocketAddr, target: &str, timeout: Duration) -> std::io::Result<Response> {
    request(addr, "GET", target, None, timeout)
}

/// `POST target` with an urlencoded body.
///
/// # Errors
///
/// As [`request`].
pub fn post(
    addr: SocketAddr,
    target: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<Response> {
    request(addr, "POST", target, Some(body.as_bytes()), timeout)
}

fn bad(detail: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail.to_owned())
}

fn parse_response(raw: &[u8]) -> std::io::Result<Response> {
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header/body separator"))?;
    let head =
        std::str::from_utf8(&raw[..header_end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let mut parts = status_line.splitn(3, ' ');
    let _version = parts.next();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            content_length = value.parse().ok();
        }
        headers.push((name, value));
    }
    let body_start = header_end + 4;
    let body = match content_length {
        Some(n) => {
            let end = body_start
                .checked_add(n)
                .filter(|&e| e <= raw.len())
                .ok_or_else(|| bad("truncated body"))?;
            raw[body_start..end].to_vec()
        }
        None => raw[body_start..].to_vec(),
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_framed_response() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nx-a: b\r\n\r\n{}extra";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-a"), Some("b"));
        assert_eq!(r.body, b"{}");
    }

    #[test]
    fn rejects_malformed_framing() {
        assert!(parse_response(b"HTTP/1.1 200 OK").is_err());
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 99\r\n\r\nshort").is_err());
    }
}
