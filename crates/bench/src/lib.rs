#![warn(missing_docs)]

//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one evaluation artifact of the
//! paper (see DESIGN.md's per-experiment index):
//!
//! * `fig1` — device I–V curves with the ASDM overlay,
//! * `fig2` — transient waveform comparison (SSN voltage + inductor current),
//! * `fig3` — max SSN vs. driver count against the prior models,
//! * `fig4` — max SSN and relative error across the damping regions,
//! * `table1` — the four-case maximum-SSN formula verification,
//! * `design_space` — Section-3 design implications and ablations,
//! * `extensions` — the EXT3–EXT5 experiments beyond the paper's figures.
//!
//! Binaries print aligned tables to stdout and drop CSV files into
//! `./results/`. Two more binaries are not evaluation artifacts:
//! `mna_scale` times the sparse MNA tier on synthesized power grids, and
//! `serve_load` is the socket client of `scripts/ci.sh`'s server gate.
//! Every other speed number comes from the `perfbench/` harness.

use ssn_core::bridge::{measure, DriverBankConfig, SsnMeasurement};
use ssn_core::scenario::SsnScenario;
use ssn_core::SsnError;
use ssn_devices::process::Process;
use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// A minimal aligned-column table printer for harness output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Display>(headers: &[S]) -> Self {
        Self {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (missing cells render empty, extras are kept).
    pub fn row<S: Display>(&mut self, cells: &[S]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV into `results/<name>.csv` and returns the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = results_dir()?.join(format!("{name}.csv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

impl Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// The directory harness CSVs land in (`./results`, created on demand).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn results_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Simulates the driver bank matching `scenario` with `process`'s golden
/// device — the reference every figure compares models against.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn simulate_scenario(
    process: &Process,
    scenario: &SsnScenario,
) -> Result<SsnMeasurement, SsnError> {
    let cfg = DriverBankConfig::from_scenario(scenario, Arc::new(process.output_driver()));
    measure(&cfg)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats volts with four significant decimals in mV.
pub fn mv(v: f64) -> String {
    format!("{:.1} mV", v * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["N", "Vn"]);
        t.row(&["1", "0.13"]).row(&["16", "0.85"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('N'));
        assert!(lines[1].starts_with('-'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(s, t.to_string());
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1", "2"]);
        let path = t.write_csv("test_table").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.0321), "3.2%");
        assert_eq!(mv(0.6483), "648.3 mV");
    }
}
