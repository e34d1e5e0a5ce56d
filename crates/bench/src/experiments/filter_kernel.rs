//! Conditional-filter kernel experiment: the sub-quadratic `Indexed` kernel
//! vs the historical quadratic `Scan` baseline
//! ([`FilterKernel`]).
//!
//! Three measurements, all on clustered data:
//!
//! 1. **Candidate byte-parity** — a sample of real leaf-group batch probes
//!    is run through both kernels and the returned candidate vectors must
//!    be *identical* (ids, coordinates and order). The kernels are CPU
//!    strategies, never result strategies.
//! 2. **NM-CIJ at Fig-8 scale** — the full join under each kernel. Pairs,
//!    page accesses, filter points-examined and entries-pruned must match
//!    exactly; the headline column is `clip ops` (and the CPU proxy
//!    `examined × clips`), where the indexed kernel must win by at least
//!    `--min-clip-ratio` (default 3).
//! 3. **Multiway k=3** — the leaf-batched k-way join under each kernel:
//!    identical tuple streams, strictly fewer clip operations.
//!
//! Any violated shape check panics, so the CI smoke run fails if the
//! indexed kernel ever stops being strictly cheaper in clip operations or
//! drifts from the scan kernel's candidates.

use crate::util::{paper_config, print_header, print_row, scaled, secs, Args};
use cij_core::{
    batch_conditional_filter_with, Algorithm, FilterKernel, FilterOptions, QueryEngine, Workload,
};
use cij_datagen::{clustered_points, ClusterSpec};
use cij_geom::{Point, Rect};
use cij_voronoi::batch_voronoi;
use std::time::Instant;

fn clustered(n: usize, seed: u64) -> Vec<Point> {
    clustered_points(
        &ClusterSpec {
            n,
            clusters: 8,
            sigma_fraction: 0.04,
            background_fraction: 0.1,
            size_skew: 0.7,
        },
        &Rect::DOMAIN,
        seed,
    )
}

/// Number of leaf-group probes the byte-parity check samples.
const PARITY_PROBES: usize = 16;

/// Runs the filter-kernel experiment. `--scale` scales the 100 K default
/// cardinalities; `--min-clip-ratio` sets the required scan/indexed clip-op
/// ratio of the NM run (default 3).
pub fn run(args: &Args) {
    let scale: f64 = args.get("scale", 0.02);
    let min_clip_ratio: f64 = args.get("min-clip-ratio", 3.0);
    let n = scaled(100_000, scale);
    let p = clustered(n, 17_001);
    let q = clustered(n, 17_002);
    let mut violations: Vec<String> = Vec::new();

    // ---- 1. Candidate byte-parity on real leaf-group batch probes. ----
    let config = paper_config();
    let mut w = Workload::build(&p, &q, &config);
    let leaves = w.rq.leaf_pages_hilbert_order(&config.domain);
    let step = (leaves.len() / PARITY_PROBES).max(1);
    let mut probes_checked = 0usize;
    for leaf in leaves.iter().step_by(step) {
        let group = w.rq.read_node(*leaf).objects;
        if group.is_empty() {
            continue;
        }
        let cells = batch_voronoi(&mut w.rq, &group, &config.domain);
        let (indexed, _) = batch_conditional_filter_with(
            &mut w.rp,
            &cells,
            &config.domain,
            &FilterOptions::for_kernel(FilterKernel::Indexed),
        );
        let (scan, _) = batch_conditional_filter_with(
            &mut w.rp,
            &cells,
            &config.domain,
            &FilterOptions::for_kernel(FilterKernel::Scan),
        );
        if indexed != scan {
            violations.push(format!(
                "leaf {leaf:?}: kernel candidate sets differ ({} vs {})",
                indexed.len(),
                scan.len()
            ));
        }
        probes_checked += 1;
    }
    println!(
        "\ncandidate byte-parity: {probes_checked} leaf-group probes, \
         indexed == scan on every one: {}",
        violations.is_empty()
    );

    // ---- 2. NM-CIJ at Fig-8 scale under each kernel. ----
    print_header(
        &format!("NM-CIJ filter kernels, clustered |P| = |Q| = {n}"),
        &[
            "kernel",
            "wall (s)",
            "page accesses",
            "points examined",
            "clip ops",
            "examined x clips",
            "poly tests skipped",
            "pairs",
        ],
    );
    let run_nm = |kernel: FilterKernel| {
        let engine = QueryEngine::new(paper_config().with_filter_kernel(kernel));
        let mut w = engine.build_workload(&p, &q);
        let start = Instant::now();
        let outcome = engine.run(&mut w, Algorithm::NmCij);
        (outcome, secs(start.elapsed()))
    };
    let (indexed, indexed_wall) = run_nm(FilterKernel::Indexed);
    let (scan, scan_wall) = run_nm(FilterKernel::Scan);
    for (outcome, wall, kernel) in [
        (&indexed, indexed_wall, FilterKernel::Indexed),
        (&scan, scan_wall, FilterKernel::Scan),
    ] {
        print_row(&[
            kernel.name().to_string(),
            format!("{wall:.3}"),
            outcome.page_accesses().to_string(),
            outcome.nm.filter_points_examined.to_string(),
            outcome.nm.filter_clip_ops.to_string(),
            (outcome.nm.filter_points_examined as u128 * outcome.nm.filter_clip_ops as u128)
                .to_string(),
            outcome.nm.filter_poly_tests_skipped.to_string(),
            outcome.len().to_string(),
        ]);
    }
    if indexed.pairs != scan.pairs {
        violations.push("NM pair streams differ across kernels".to_string());
    }
    if indexed.nm.filter_points_examined != scan.nm.filter_points_examined
        || indexed.nm.filter_entries_pruned != scan.nm.filter_entries_pruned
    {
        violations.push(format!(
            "NM filter traversal differs across kernels (examined {} vs {}, pruned {} vs {})",
            indexed.nm.filter_points_examined,
            scan.nm.filter_points_examined,
            indexed.nm.filter_entries_pruned,
            scan.nm.filter_entries_pruned
        ));
    }
    if indexed.page_accesses() != scan.page_accesses() {
        violations.push(format!(
            "NM page accesses differ across kernels ({} vs {})",
            indexed.page_accesses(),
            scan.page_accesses()
        ));
    }
    let ratio = scan.nm.filter_clip_ops as f64 / indexed.nm.filter_clip_ops.max(1) as f64;
    println!("clip-op ratio (scan / indexed): {ratio:.2}");
    if indexed.nm.filter_clip_ops >= scan.nm.filter_clip_ops {
        violations.push(format!(
            "indexed kernel did not reduce clip ops ({} vs {})",
            indexed.nm.filter_clip_ops, scan.nm.filter_clip_ops
        ));
    }
    if ratio < min_clip_ratio {
        violations.push(format!(
            "clip-op ratio {ratio:.2} below the required {min_clip_ratio}"
        ));
    }

    // ---- 3. Multiway k = 3 under each kernel. ----
    let msets: Vec<Vec<Point>> = (0..3)
        .map(|i| clustered(n / (i + 1), 17_010 + i as u64))
        .collect();
    print_header(
        "Multiway CIJ (k = 3, clustered) filter kernels",
        &[
            "kernel",
            "wall (s)",
            "filter calls",
            "points examined",
            "clip ops",
            "tuples",
        ],
    );
    let run_multiway = |kernel: FilterKernel| {
        let engine = QueryEngine::new(paper_config().with_filter_kernel(kernel));
        let start = Instant::now();
        let outcome = engine.multiway(&msets);
        (outcome, secs(start.elapsed()))
    };
    let (m_indexed, mi_wall) = run_multiway(FilterKernel::Indexed);
    let (m_scan, ms_wall) = run_multiway(FilterKernel::Scan);
    for (outcome, wall, kernel) in [
        (&m_indexed, mi_wall, FilterKernel::Indexed),
        (&m_scan, ms_wall, FilterKernel::Scan),
    ] {
        print_row(&[
            kernel.name().to_string(),
            format!("{wall:.3}"),
            outcome.counters.filter_probes.to_string(),
            outcome.counters.filter_points_examined.to_string(),
            outcome.counters.filter_clip_ops.to_string(),
            outcome.tuples.len().to_string(),
        ]);
    }
    let mi_ids: Vec<&Vec<u64>> = m_indexed.tuples.iter().map(|t| &t.ids).collect();
    let ms_ids: Vec<&Vec<u64>> = m_scan.tuples.iter().map(|t| &t.ids).collect();
    if mi_ids != ms_ids {
        violations.push("multiway tuple streams differ across kernels".to_string());
    }
    if m_indexed.counters.filter_clip_ops >= m_scan.counters.filter_clip_ops {
        violations.push(format!(
            "multiway: indexed kernel did not reduce clip ops ({} vs {})",
            m_indexed.counters.filter_clip_ops, m_scan.counters.filter_clip_ops
        ));
    }

    println!(
        "shape check: byte-identical candidates and result streams, identical traversal \
         (points examined, entries pruned, page accesses), and >= {min_clip_ratio}x fewer \
         clip ops for the indexed kernel"
    );
    assert!(
        violations.is_empty(),
        "filter-kernel contract violated: {violations:?}"
    );
}
