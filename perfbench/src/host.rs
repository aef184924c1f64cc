//! Host facts and the `/proc` counters the benchmark reads: exact write
//! counts (`/proc/self/io`), peak memory (`/proc/self/status`) and the
//! CPU steal and iowait shares over a run (`/proc/stat`).

use std::path::Path;

/// Exact write-side I/O counters of this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Bytes passed to `write`-family syscalls (`wchar`).
    pub write_bytes: u64,
    /// `write`-family syscalls made (`syscw`).
    pub write_calls: u64,
}

impl IoCounters {
    /// The counters now. Zero when `/proc/self/io` is unreadable.
    pub fn read() -> Self {
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        Self {
            write_bytes: field("wchar:"),
            write_calls: field("syscw:"),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            write_calls: self.write_calls.saturating_sub(earlier.write_calls),
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Self) {
        self.write_bytes += other.write_bytes;
        self.write_calls += other.write_calls;
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The aggregate `cpu` line of `/proc/stat`: total, iowait and steal
/// jiffies.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    iowait: u64,
    steal: u64,
}

impl CpuTimes {
    /// The counters now (zeros when `/proc/stat` is unreadable).
    pub fn read() -> Self {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user, so the total stops at steal.
        let get = |i: usize| v.get(i).copied().unwrap_or(0);
        Self {
            total: (0..8).map(get).sum(),
            iowait: get(4),
            steal: get(7),
        }
    }

    /// `(steal, iowait)` as shares of all CPU time since `start`.
    pub fn shares_since(self, start: Self) -> (f64, f64) {
        let total = self.total.saturating_sub(start.total).max(1) as f64;
        (
            self.steal.saturating_sub(start.steal) as f64 / total,
            self.iowait.saturating_sub(start.iowait) as f64 / total,
        )
    }
}

/// Facts about the machine and build that a result depends on.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// Version of the compiler that built the benchmark.
    pub rustc: String,
    /// Filesystem type holding the benchmark's journals and spool.
    pub journal_fs: String,
}

impl HostFacts {
    /// Collects the facts; `journal_dir` must exist.
    pub fn collect(journal_dir: &Path) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .unwrap_or_default()
                .lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map_or_else(|| "unknown".into(), |(_, v)| v.trim().to_owned()),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
            journal_fs: filesystem_of(journal_dir).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            let mount = *fields.get(4)?;
            let sep = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(sep + 1)?;
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}
