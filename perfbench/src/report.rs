//! The result line, the correctness gate and the host/build fingerprint.

use std::fmt::Write;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from any numeric value.
    pub fn new(name: &'static str, value: impl Into<f64>, unit: &'static str) -> Self {
        Metric {
            name,
            value: value.into(),
            unit,
        }
    }
}

/// Counts operations and the ones that failed the correctness gate.
///
/// An operation fails when it returned an error, was refused, or produced
/// a result that differs from its expected value or oracle.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    /// Records one operation with its verdict.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = verdict {
            self.failed += 1;
            if self.problems.len() < 20 {
                eprintln!("FAILED: {problem}");
                self.problems.push(problem);
            }
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// Checks `observed == expected`, describing a mismatch.
pub fn same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    observed: T,
    expected: T,
) -> Result<(), String> {
    if observed == expected {
        Ok(())
    } else {
        Err(format!("{what}: got {observed:?}, expected {expected:?}"))
    }
}

/// The last line of the benchmark's output.
pub fn result_line(gate: &Gate, metrics: &[Metric]) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.attempted > 0 && gate.failed == 0,
        gate.attempted,
        gate.failed
    )
    .expect("writing to a String cannot fail");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host and build description carried with every result.
pub fn fingerprint(workload: &str, seed: u64, backend: &str, sizes: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"sizes\": {}, \"storage_backend\": {}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}}}",
        json_string(workload),
        json_string(sizes),
        json_string(backend),
        json_string(&cpu),
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(env!("PERFBENCH_PROFILE")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut gate = Gate::default();
        gate.op(Ok(()));
        gate.op(Ok(()));
        let line = result_line(
            &gate,
            &[
                Metric::new("a_s", 1.25, "s"),
                Metric::new("b", 3u32, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        gate.op(Err("boom".into()));
        assert!(result_line(&gate, &[])
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
