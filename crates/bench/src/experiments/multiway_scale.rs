//! Multiway-CIJ scaling experiment: leaf-batched probing budgets,
//! cost-driven planning vs the historical fixed-driver baseline, and thread
//! parity over k ∈ {2, 3, 4} clustered pointsets of *asymmetric* sizes
//! (set `i` holds `n / (i + 1)` points, so driver choice genuinely
//! matters).
//!
//! For every k this experiment runs the multiway join several times over
//! the same pointsets (each run builds its own [`MultiwayWorkload`], so
//! every measurement starts from identical cold trees):
//!
//! * **batched** (the default configuration: one filter call per leaf and
//!   round, cost-based driver, running-intersection pruning): the filter
//!   calls must stay within one per driver leaf and extension round, and
//!   at the CI scale (`--scale 0.005`) page accesses, points examined and
//!   the tuple count must equal the pinned figures of [`PINNED`].
//! * **batched T=4**: the parallel-execution contract — tuples (set *and*
//!   order), [`MultiwayCounters`] and page accesses identical to T=1.
//! * **unpruned** (cost-based driver, running-intersection pruning off):
//!   isolates the pruning contribution at a fixed plan — identical tuples,
//!   probes, points examined and page accesses, strictly more bisector
//!   clip operations.
//! * **pr4-baseline** ([`MultiwayDriver::Fixed`]`(0)` + pruning off — the
//!   hard-coded plan before cost-driven planning): the planned run must
//!   produce the same tuple set with strictly fewer conditional-filter
//!   invocations (the cheaper driver seeds fewer leaf units). Per-probe
//!   work (points examined, clip ops) is *not* asserted across drivers —
//!   a different driver probes different trees — which is exactly what
//!   the unpruned variant is for.
//!
//! Any violated shape check panics, so the CI smoke run fails on a
//! batching, planning or parity regression.
//!
//! [`MultiwayCounters`]: cij_core::MultiwayCounters
//! [`MultiwayDriver::Fixed`]: cij_core::MultiwayDriver::Fixed
//! [`MultiwayWorkload`]: cij_core::MultiwayWorkload

use crate::util::{paper_config, print_header, print_row, scaled, secs, Args};
use cij_core::{CijConfig, MultiwayDriver, MultiwayOutcome, QueryEngine};
use cij_datagen::{clustered_points, ClusterSpec};
use cij_geom::{Point, Rect};
use std::time::Instant;

/// The swept input-set counts.
pub const SET_COUNTS: [usize; 3] = [2, 3, 4];

/// First-set cardinality of the CI smoke run (`--scale 0.005`).
pub const PINNED_N: usize = 500;

/// The batched run's `(k, page accesses, filter points examined, tuples)`
/// at [`PINNED_N`]. Probing once per partial tuple instead read 7.5–52× the
/// pages and examined 13–65× the points on these inputs; the pins hold the
/// batched figures exactly.
pub const PINNED: [(usize, u64, u64, usize); 3] = [
    (2, 147, 1607, 1157),
    (3, 167, 2189, 1918),
    (4, 155, 2240, 2741),
];

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

/// Runs the multiway scaling experiment. `--scale` scales the 100 K default
/// first-set cardinality.
pub fn run(args: &Args) {
    let scale: f64 = args.get("scale", 0.02);
    let n = scaled(100_000, scale);

    print_header(
        &format!(
            "Multiway CIJ: probing and planning, k clustered sets of n/(i+1) points (n = {n})"
        ),
        &[
            "k",
            "variant",
            "wall (s)",
            "driver",
            "page accesses",
            "filter calls",
            "points examined",
            "clip ops",
            "tuples",
            "parity T=4 vs T=1",
        ],
    );

    let mut violations: Vec<String> = Vec::new();
    for k in SET_COUNTS {
        let sets: Vec<Vec<Point>> = (0..k)
            .map(|i| clustered(n / (i + 1), 14_001 + i as u64))
            .collect();
        let base = paper_config().with_min_buffer_pages(1);

        let (batched, batched_wall) = measure(&sets, &base, 1);
        let (parallel, parallel_wall) = measure(&sets, &base, 4);
        // Same plan, pruning off: isolates the clip-op saving of the
        // running-intersection bbox.
        let (unpruned, unpruned_wall) = measure(&sets, &base.with_multiway_prune(false), 1);
        // The plan the engine hard-coded before cost-driven planning:
        // drive with set 0, no running-intersection pruning.
        let (baseline, baseline_wall) = measure(
            &sets,
            &base
                .with_multiway_driver(MultiwayDriver::Fixed(0))
                .with_multiway_prune(false),
            1,
        );

        let tuples_ok = parallel
            .tuples
            .iter()
            .map(|t| &t.ids)
            .eq(batched.tuples.iter().map(|t| &t.ids));
        let counters_ok = parallel.counters == batched.counters;
        let io_ok = parallel.page_accesses == batched.page_accesses;
        let parity = if tuples_ok && counters_ok && io_ok {
            "exact".to_string()
        } else {
            let verdict =
                format!("VIOLATED (tuples {tuples_ok}, counters {counters_ok}, io {io_ok})");
            violations.push(format!("k={k}: {verdict}"));
            verdict
        };

        for (outcome, wall, variant, parity) in [
            (&batched, batched_wall, "batched", parity.as_str()),
            (&parallel, parallel_wall, "batched T=4", "see above"),
            (&unpruned, unpruned_wall, "unpruned", "-"),
            (&baseline, baseline_wall, "pr4-baseline", "-"),
        ] {
            print_row(&[
                k.to_string(),
                variant.to_string(),
                format!("{wall:.3}"),
                outcome.driver.to_string(),
                outcome.page_accesses.to_string(),
                outcome.counters.filter_probes.to_string(),
                outcome.counters.filter_points_examined.to_string(),
                outcome.counters.filter_clip_ops.to_string(),
                outcome.tuples.len().to_string(),
                parity.to_string(),
            ]);
        }

        let probe_budget = batched.watermarks.len() as u64 * (k as u64 - 1);
        if batched.counters.filter_probes > probe_budget {
            violations.push(format!(
                "k={k}: batched probing exceeded one filter call per leaf and round ({} > {})",
                batched.counters.filter_probes, probe_budget
            ));
        }
        if n == PINNED_N {
            let measured = (
                k,
                batched.page_accesses,
                batched.counters.filter_points_examined,
                batched.tuples.len(),
            );
            if !PINNED.contains(&measured) {
                violations.push(format!(
                    "k={k}: (k, page accesses, points examined, tuples) = {measured:?} \
                     left the pinned figures {PINNED:?}"
                ));
            }
        }
        if batched.sorted_ids() != baseline.sorted_ids() {
            violations.push(format!("k={k}: cost-driven planning changed the tuple set"));
        }
        if batched.counters.filter_probes >= baseline.counters.filter_probes {
            violations.push(format!(
                "k={k}: cost-driven driver did not reduce filter probes ({} vs {})",
                batched.counters.filter_probes, baseline.counters.filter_probes
            ));
        }
        if batched.sorted_ids() != unpruned.sorted_ids() {
            violations.push(format!("k={k}: pruning changed the tuple set"));
        }
        if batched.counters.filter_points_examined != unpruned.counters.filter_points_examined
            || batched.page_accesses != unpruned.page_accesses
        {
            violations.push(format!(
                "k={k}: pruning must not change the filter traversal or I/O"
            ));
        }
        if batched.counters.filter_clip_ops >= unpruned.counters.filter_clip_ops {
            violations.push(format!(
                "k={k}: running-intersection pruning did not reduce clip ops ({} vs {})",
                batched.counters.filter_clip_ops, unpruned.counters.filter_clip_ops
            ));
        }
    }

    println!(
        "shape check: per k, batched must make at most one filter call per leaf and \
         round (and match the pinned I/O, points examined and tuples at n = {PINNED_N}), \
         the planned run must beat the pr4-baseline on filter calls, pruning must cut \
         clip ops at unchanged traversal, all with identical tuple sets, and the T=4 \
         parity column must read `exact`"
    );
    assert!(
        violations.is_empty(),
        "multiway batching/planning/parity contract violated: {violations:?}"
    );
}

fn measure(sets: &[Vec<Point>], config: &CijConfig, threads: usize) -> (MultiwayOutcome, f64) {
    // The paper's proportional 2 % buffer without the small-scale absolute
    // floor (like the Fig. 8a sweep): with the floor, reduced-scale trees
    // fit entirely in the buffer and every plan pays exactly one physical
    // read per page — redundant traversals would be invisible in the
    // page-access column.
    let engine = QueryEngine::new(config.with_worker_threads(threads));
    let mut w = engine.multiway_workload(sets);
    let start = Instant::now();
    let outcome = engine.multiway_stream(&mut w).into_outcome();
    (outcome, secs(start.elapsed()))
}
