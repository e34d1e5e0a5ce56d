//! Shared utilities for the experiment binaries: argument parsing, workload
//! construction and table printing.

use cij_core::CijConfig;
use std::time::Duration;

/// Minimal command-line argument reader: `--name value` flags only.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds an argument set from explicit strings (used by `run_all` and
    /// tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// Reads `--name <value>` as a parsed value; `None` when the flag is
    /// absent or its value does not parse.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let key = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// Reads `--name <value>` as a parsed value, falling back to `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.value(name).unwrap_or(default)
    }

    /// Whether a bare `--name` flag is present.
    pub fn has(&self, name: &str) -> bool {
        let key = format!("--{name}");
        self.raw.iter().any(|a| a == &key)
    }
}

/// Reads `--scale` (a multiplier applied to the paper's dataset sizes) with a
/// default chosen so the whole harness finishes in minutes on a laptop.
pub fn flag(args: &Args, name: &str, default: f64) -> f64 {
    args.get(name, default)
}

/// Applies a scale factor to a paper-size cardinality.
pub fn scaled(paper_n: usize, scale: f64) -> usize {
    ((paper_n as f64) * scale).round().max(8.0) as usize
}

/// The paper's configuration: 1 KB pages, 2 % buffer, default domain.
pub fn paper_config() -> CijConfig {
    CijConfig::default()
}

/// Formats a duration as seconds with millisecond resolution.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Prints a table header followed by a separator line, and records the
/// table into the [`report`](crate::report) sink when `run_all --json`
/// enabled it. Every experiment's tabular output goes through this pair —
/// there is no per-experiment JSON path.
pub fn print_header(title: &str, columns: &[&str]) {
    crate::report::record_header(title, columns);
    println!("\n=== {title} ===");
    println!("{}", columns.join("\t"));
    println!("{}", "-".repeat(columns.iter().map(|c| c.len() + 8).sum()));
}

/// Prints one table row (and records it, see [`print_header`]).
pub fn print_row(cells: &[String]) {
    crate::report::record_row(cells);
    println!("{}", cells.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_and_defaults() {
        let args = Args::from_vec(vec![
            "--scale".into(),
            "0.5".into(),
            "--n".into(),
            "1234".into(),
            "--full".into(),
        ]);
        assert_eq!(args.get("scale", 1.0f64), 0.5);
        assert_eq!(args.get("n", 10usize), 1234);
        assert_eq!(args.get("missing", 7u32), 7);
        assert!(args.has("full"));
        assert!(!args.has("quick"));
    }

    #[test]
    fn scaled_never_returns_zero() {
        assert_eq!(scaled(100_000, 0.0000001), 8);
        assert_eq!(scaled(100_000, 0.1), 10_000);
    }

    #[test]
    fn paper_config_uses_1kb_pages() {
        assert_eq!(paper_config().rtree.page_size, 1024);
    }
}
