//! The workspace's one JSON writer, and a parser for checking its output.
//!
//! The workspace builds offline with zero dependencies, so JSON is both
//! written ([`escape`], [`number`], [`Obj`], [`array`]) and validated
//! ([`parse`], [`validate_lines`]) with in-repo code. The telemetry sink,
//! the HTTP service's response bodies and the benchmark's report lines
//! all go through this writer.
//!
//! The writer is fully pinned, because the service's crash-safety contract
//! compares raw response bytes (the content-addressed cache and the
//! kill → resume gate):
//!
//! * object fields are emitted in call order, never reordered,
//! * `f64` values use Rust's shortest round-trip form (`{:?}`), which is
//!   bit-stable for a given value across runs and platforms,
//! * strings are escaped per RFC 8259 (quote, backslash, control bytes).
//!
//! The parser is a plain recursive-descent over the full JSON grammar —
//! small, strict, and only ever pointed at our own output.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }
}

/// Escapes `s` as a JSON string literal (including the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats `x` as a JSON number token, or `null` when non-finite (JSON has
/// no NaN/Infinity).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// An incrementally built JSON object (field order = call order).
#[derive(Debug)]
pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str(&escape(k));
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(&escape(v));
        self
    }

    /// Adds an `f64` field (see [`number`]).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-serialized JSON.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

/// Joins already-serialized JSON values into an array literal.
pub fn array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push(']');
    out
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable description (with byte offset) of the first
/// syntax error, including trailing garbage after the document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.num(),
            Some(c) => Err(format!(
                "unexpected character {:?} at byte {}",
                c as char, self.pos
            )),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {token:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 is copied through as-is.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err("unterminated string".to_owned()),
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Per-type line counts returned by [`validate_lines`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineStats {
    /// `"type":"meta"` lines.
    pub meta: usize,
    /// `"type":"span"` lines.
    pub spans: usize,
    /// `"type":"counter"` lines.
    pub counters: usize,
    /// `"type":"gauge"` lines.
    pub gauges: usize,
}

impl fmt::Display for LineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} meta, {} span, {} counter, {} gauge line(s)",
            self.meta, self.spans, self.counters, self.gauges
        )
    }
}

/// Validates a telemetry JSON-lines stream: every non-empty line must
/// parse as a JSON object with a known `"type"` and that type's required
/// keys (see [`crate::Report::to_json_lines`] for the schema).
///
/// # Errors
///
/// Returns `"line N: <why>"` for the first offending line.
pub fn validate_lines(text: &str) -> Result<LineStats, String> {
    let mut stats = LineStats::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = idx + 1;
        let value = parse(line).map_err(|e| format!("line {n}: {e}"))?;
        if !matches!(value, Json::Obj(_)) {
            return Err(format!("line {n}: not a JSON object"));
        }
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {n}: missing string key \"type\""))?;
        let require_u64 = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {n}: {kind} line missing integer key {key:?}"))
        };
        let require_str = |key: &str| -> Result<&str, String> {
            value
                .get(key)
                .and_then(Json::as_str)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("line {n}: {kind} line missing string key {key:?}"))
        };
        match kind {
            "meta" => {
                require_u64("schema")?;
                stats.meta += 1;
            }
            "span" => {
                require_str("path")?;
                require_str("name")?;
                require_u64("count")?;
                require_u64("total_ns")?;
                require_u64("self_ns")?;
                stats.spans += 1;
            }
            "counter" => {
                require_str("name")?;
                require_u64("value")?;
                stats.counters += 1;
            }
            "gauge" => {
                require_str("name")?;
                match value.get("value") {
                    Some(Json::Num(_)) | Some(Json::Null) => {}
                    _ => {
                        return Err(format!(
                            "line {n}: gauge line missing numeric (or null) key \"value\""
                        ))
                    }
                }
                stats.gauges += 1;
            }
            other => return Err(format!("line {n}: unknown line type {other:?}")),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        assert_eq!(
            parse("[1, \"x\", []]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Str("x".into()),
                Json::Arr(vec![])
            ])
        );
        let obj = parse("{\"a\": {\"b\": 2}, \"c\": null}").unwrap();
        assert_eq!(obj.get("a").unwrap().get("b").unwrap().as_u64(), Some(2));
        assert_eq!(obj.get("c"), Some(&Json::Null));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"unterminated",
            "nan",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let literal = escape(nasty);
        assert_eq!(parse(&literal).unwrap(), Json::Str(nasty.to_owned()));
    }

    #[test]
    fn number_is_json_safe() {
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(1e-9), "1e-9");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert!(parse(&number(1e300)).is_ok());
        // Shortest round trip: the text parses back to the same bits.
        for x in [0.469_441, 3.3, 1.0 / 3.0, 2.5e-10] {
            assert_eq!(number(x).parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn objects_keep_call_order_and_escape_keys_and_values() {
        let body = Obj::new()
            .str("kind", "a\"b\\c\nd\u{1}")
            .u64("drivers", 8)
            .f64("vn", 0.5)
            .bool("ok", true)
            .raw("points", &array(&["1".into(), "2".into()]))
            .finish();
        assert_eq!(
            body,
            "{\"kind\":\"a\\\"b\\\\c\\nd\\u0001\",\"drivers\":8,\"vn\":0.5,\"ok\":true,\"points\":[1,2]}"
        );
        assert_eq!(Obj::new().finish(), "{}");
        assert_eq!(array(&[]), "[]");
    }

    #[test]
    fn validate_lines_accepts_the_schema() {
        let text = "\
{\"type\":\"meta\",\"schema\":1,\"source\":\"ssn-telemetry\",\"spans\":1,\"counters\":1,\"gauges\":1}
{\"type\":\"span\",\"path\":\"a.b\",\"name\":\"b\",\"count\":3,\"total_ns\":100,\"self_ns\":90}
{\"type\":\"counter\",\"name\":\"hits\",\"value\":5}
{\"type\":\"gauge\",\"name\":\"load\",\"value\":0.5}
";
        let stats = validate_lines(text).unwrap();
        assert_eq!(
            stats,
            LineStats {
                meta: 1,
                spans: 1,
                counters: 1,
                gauges: 1
            }
        );
        assert!(stats.to_string().contains("1 span"));
    }

    #[test]
    fn validate_lines_rejects_missing_keys() {
        let missing_count =
            "{\"type\":\"span\",\"path\":\"a\",\"name\":\"a\",\"total_ns\":1,\"self_ns\":1}";
        let err = validate_lines(missing_count).unwrap_err();
        assert!(err.contains("count"), "{err}");
        assert!(validate_lines("{\"type\":\"mystery\"}").is_err());
        assert!(validate_lines("not json").is_err());
        assert!(validate_lines("[1]").is_err());
        // Empty lines are fine; a counter with a float value is not.
        assert!(validate_lines("\n\n").is_ok());
        assert!(validate_lines("{\"type\":\"counter\",\"name\":\"x\",\"value\":1.5}").is_err());
    }
}
