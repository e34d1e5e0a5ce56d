//! Runs every experiment of the evaluation section in sequence, at a scale
//! suitable for a quick full reproduction pass.
//!
//! Pass `--scale <f>` to override the per-experiment default scales with a
//! single global factor (applied to the paper's dataset sizes). Pass
//! `--json --bench-id <n>` to also persist every printed table as
//! `BENCH_<n>.json` in the current directory — the machine-readable bench
//! trajectory described in the crate docs. The id has no default, so a
//! snapshot never silently overwrites a committed one: `--json` without a
//! valid `--bench-id` exits with status 2 before running anything.

use cij_bench::Args;
use cij_bench::{experiments, report};

fn main() {
    let args = Args::capture();
    // The snapshot id, when `--json` asks for one.
    let snapshot = match (args.has("json"), args.value::<u64>("bench-id")) {
        (false, _) => None,
        (true, Some(id)) => Some(id),
        (true, None) => {
            eprintln!(
                "run_all: --json needs an explicit --bench-id <n> (it writes BENCH_<n>.json)"
            );
            std::process::exit(2);
        }
    };
    if snapshot.is_some() {
        report::enable();
    }
    let forward = |default: f64| -> Args {
        let scale = args.get("scale", default);
        Args::from_vec(vec!["--scale".into(), scale.to_string()])
    };
    experiments::fig5::run(&forward(0.1));
    experiments::fig6::run(&forward(0.05));
    experiments::table2::run(&forward(0.05));
    experiments::fig7::run(&forward(0.1));
    experiments::fig8::run_buffer(&forward(0.05));
    experiments::fig8::run_scalability(&forward(0.02));
    experiments::fig9::run_ratio(&forward(0.05));
    experiments::fig9::run_progress(&forward(0.05));
    experiments::fig10::run(&forward(0.02));
    experiments::fig11::run(&forward(0.02));
    experiments::table3::run(&forward(0.02));
    experiments::cache_sweep::run(&forward(0.02));
    experiments::scaling::run(&forward(0.02));
    experiments::io_validation::run(&forward(0.02));
    experiments::out_of_core::run(&forward(0.02));
    experiments::multiway_scale::run(&forward(0.01));
    experiments::filter_kernel::run(&forward(0.02));
    experiments::kernel_layout::run(&forward(0.02));
    experiments::concurrent_scale::run(&forward(0.02));
    experiments::fault_storm::run(&forward(0.02));
    if let Some(bench_id) = snapshot {
        let report = report::take().expect("recording was enabled");
        let path = format!("BENCH_{bench_id}.json");
        std::fs::write(&path, report.to_json(bench_id)).expect("write bench snapshot");
        println!("\nBench snapshot written to {path}.");
    }
    println!("\nAll experiments completed.");
}
