//! The CIJ benchmark: three workloads run against the engine's public API,
//! every result checked, end-to-end metrics with tracing off and per-layer
//! metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload nm_uniform --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it give
//! the host and build fingerprint and human-readable detail; a traced run
//! also writes its spans to `.bench_out/`.

mod digest;
mod expected;
mod nm;
mod reader;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Gate, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["nm_uniform", "nm_clustered_fast", "serve_mix"];

/// Every end-to-end metric (tracing off), with its unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("join_s", "s"),
    ("first_pair_ms", "ms"),
    ("serve_qps", "1/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric (traced run), with its unit. A workload reports
/// 0 for the layers it does not exercise.
const PER_LAYER: [(&str, &str); 42] = [
    ("pagestore.read_s", "s"),
    ("pagestore.reads", "count"),
    ("pagestore.physical_reads", "count"),
    ("pagestore.bytes_read", "B"),
    ("pagestore.retries", "count"),
    ("pagestore.setup_bytes_written", "B"),
    ("rtree.s", "s"),
    ("rtree.page_accesses", "count"),
    ("rtree.leaves", "count"),
    ("voronoi.q_cell_s", "s"),
    ("voronoi.q_cells", "count"),
    ("filter.s", "s"),
    ("filter.clip_ops", "count"),
    ("filter.points_examined", "count"),
    ("filter.candidates", "count"),
    ("filter.true_hits", "count"),
    ("filter.false_hit_ratio", "ratio"),
    ("refine.s", "s"),
    ("cell_cache.hits", "count"),
    ("cell_cache.misses", "count"),
    ("cell_cache.evictions", "count"),
    ("cell_cache.hit_ratio", "ratio"),
    ("report.s", "s"),
    ("report.pairs", "count"),
    ("nm.join_s", "s"),
    ("nm.layer_share", "ratio"),
    ("nm.alloc_per_query", "count"),
    ("multiway.clip_ops", "count"),
    ("multiway.cells_computed", "count"),
    ("service.submit_us", "us"),
    ("service.first_batch_ms", "ms"),
    ("service.join_p50_ms", "ms"),
    ("service.multiway_p50_ms", "ms"),
    ("service.grouped_p50_ms", "ms"),
    ("service.queue_full", "count"),
    ("service.budget_high_water", "count"),
    ("service.reads_per_request", "count"),
    ("trace.replay_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.accounted_share", "ratio"),
    ("trace.spans", "count"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = expected::DEFAULT_SEED;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut gate = Gate::default();
    let nm_workload = match args.workload.as_str() {
        "nm_uniform" => Some(nm::NM_UNIFORM),
        "nm_clustered_fast" => Some(nm::NM_CLUSTERED_FAST),
        _ => None,
    };
    let (backend, sizes) = match &nm_workload {
        Some(wl) => ("heap", wl.sizes()),
        None => ("file", serve::sizes()),
    };
    println!(
        "fingerprint {}",
        report::fingerprint(&args.workload, args.seed, backend, &sizes)
    );

    let metrics = if args.trace {
        let mut tracer = trace::Tracer::new(Instant::now());
        let mut metrics = match &nm_workload {
            Some(wl) => nm::run_traced(wl, args.seed, args.seconds, &mut gate, &mut tracer),
            None => serve::run_traced(args.seed, args.seconds, &mut gate, &mut tracer),
        };
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
        metrics.push(Metric::new(
            "trace.spans",
            tracer.spans().len() as f64,
            "count",
        ));
        complete(metrics, &PER_LAYER)
    } else {
        let mut metrics = match &nm_workload {
            Some(wl) => nm::run(wl, args.seed, args.seconds, &mut gate),
            None => serve::run(args.seed, args.seconds, &mut gate),
        };
        metrics.push(Metric::new(
            "peak_rss_mb",
            report::peak_rss_mb().unwrap_or(0.0),
            "MB",
        ));
        complete(metrics, &END_TO_END)
    };
    for m in &metrics {
        println!("metric {:<32} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "gate: {} operations, {} failed (error rate {})",
        gate.attempted(),
        gate.failed(),
        gate.failed() as f64 / gate.attempted().max(1) as f64
    );
    println!("{}", report::result_line(&gate, &metrics));
    ExitCode::SUCCESS
}

/// Orders `measured` as `names` lists them, adding 0 for every metric the
/// workload did not measure (a workload that failed early reports what it
/// has, and its gate says it failed).
fn complete(measured: Vec<Metric>, names: &[(&'static str, &'static str)]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            let found = measured.iter().find(|m| m.name == name);
            if let Some(m) = found {
                assert_eq!(m.unit, unit, "unit of {name}");
            }
            Metric::new(name, found.map_or(0.0, |m| m.value), unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this binary must name the same metrics and
    /// workloads.
    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "metric {name} [{unit}]");
        }
        let listed = spec.matches("\"name\": ").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
