//! The traced run's own spans, and readers over the program's
//! `ssn_telemetry` report.
//!
//! The benchmark records a span around every public call it makes into a
//! layer. Spans stay in memory and are written out as JSON lines when the
//! run ends; per-layer metrics come from their durations together with the
//! spans and counters the program already records.

use ssn_telemetry::Report;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// The public call the span wraps (`optimize.search`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// The op the call belongs to; spans of one op share it.
    pub op: u64,
}

/// An in-memory span recorder for one thread. Disabled tracers record
/// nothing, so untraced runs pay one branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// An empty tracer for another thread, on the same clock.
    pub fn fork(&self) -> Self {
        Self::new(self.origin, self.enabled)
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn call<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes a traced run's spans to
    /// `.perfbench/traces/<workload>-seed<seed>.jsonl`, where the run's
    /// other artifacts live.
    pub fn write(&self, workload: &str, seed: u64) {
        let path = Path::new(".perfbench")
            .join("traces")
            .join(format!("{workload}-seed{seed}.jsonl"));
        match self.write_jsonl(&path) {
            Ok(()) => println!("trace: {} spans written to {}", self.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    /// Writes the spans as JSON lines (one object per span).
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".into(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// The program's own telemetry, summed over one or more sessions and
/// keyed by innermost span name wherever the span nests.
#[derive(Debug, Default)]
pub struct Telemetry {
    spans: BTreeMap<String, SpanSum>,
    counters: BTreeMap<String, u64>,
}

#[derive(Debug, Default, Clone, Copy)]
struct SpanSum {
    total: Duration,
    self_time: Duration,
    count: u64,
}

impl Telemetry {
    /// Runs `f` inside a telemetry session folded into `acc`, or plainly
    /// when `acc` is `None` (the untraced run).
    pub fn record<T>(acc: Option<&mut Telemetry>, f: impl FnOnce() -> T) -> T {
        match acc {
            None => f(),
            Some(acc) => {
                let session = ssn_telemetry::Session::start();
                let out = f();
                acc.fold(&session.finish());
                out
            }
        }
    }

    /// Adds a finished session's report.
    pub fn fold(&mut self, report: &Report) {
        for parent in &report.spans {
            let prefix = format!("{}.", parent.path);
            let children: Duration = report
                .spans
                .iter()
                .filter(|c| c.depth() == parent.depth() + 1 && c.path.starts_with(&prefix))
                .map(|c| c.total)
                .sum();
            let slot = self.spans.entry(parent.name().to_owned()).or_default();
            slot.total += parent.total;
            slot.self_time += parent.total.saturating_sub(children);
            slot.count += parent.count;
        }
        for (name, v) in &report.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
    }

    /// Total time in spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans.get(name).map_or(Duration::ZERO, |s| s.total)
    }

    /// Self time of spans named `name`: their totals minus their direct
    /// children on the same thread.
    pub fn self_time(&self, name: &str) -> Duration {
        self.spans.get(name).map_or(Duration::ZERO, |s| s.self_time)
    }

    /// Times a span named `name` ran.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.count)
    }

    /// A counter, zero when it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// `num / den`, zero for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
