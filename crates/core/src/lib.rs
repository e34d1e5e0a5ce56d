//! # cij-core
//!
//! The **Common Influence Join** (CIJ) — the primary contribution of
//! Yiu, Mamoulis & Karras, *Common Influence Join: A Natural Join Operation
//! for Spatial Pointsets*, ICDE 2008.
//!
//! Given two pointsets `P` and `Q` indexed by R-trees, `CIJ(P, Q)` returns
//! every pair `(p, q)` whose Voronoi cells `V(p, P)` and `V(q, Q)`
//! intersect — i.e. some location is simultaneously inside the influence
//! region of `p` and of `q`. The join is parameter-free, unlike ε-distance
//! joins and k-closest-pair joins.
//!
//! ## The streaming execution core
//!
//! All evaluation goes through the [`engine`] module:
//!
//! * [`QueryEngine`] — the unified entry point: build a workload once, then
//!   run or **stream** any algorithm against it.
//! * [`PairStream`] — a pull-based iterator of result pairs. NM-CIJ is
//!   implemented natively as this stream (one `RQ` leaf is processed per
//!   demand), which makes the paper's *non-blocking* claim an observable
//!   property: the first pair costs only a handful of page accesses.
//! * [`CijExecutor`] — the strategy trait behind [`Algorithm`]; the classic
//!   blocking functions are thin `.into_outcome()` wrappers over it.
//!
//! NM-CIJ optionally executes leaf units in parallel
//! ([`CijConfig::worker_threads`]) on a `std::thread::scope` worker pool
//! with ordered reassembly — pairs (set and order), counters and
//! page-access totals stay identical to the sequential run; see the
//! [`nm`] module docs for the determinism protocol.
//!
//! ## The three algorithms
//!
//! In increasing order of sophistication and decreasing order of I/O cost:
//!
//! * [`fm_cij`] — **FM-CIJ** (Algorithm 3): materialise both Voronoi
//!   diagrams into Hilbert-packed R-trees and intersection-join them.
//!   Blocking.
//! * [`pm_cij`] — **PM-CIJ** (Algorithm 4): materialise only `Vor(P)`;
//!   probe batches of `Q` cells against it (block index nested loops).
//!   Blocking.
//! * [`nm_cij`] — **NM-CIJ** (Algorithm 6): materialise nothing; per leaf of
//!   `RQ`, filter `RP` with the [`filter`] module's conditional filter
//!   (Algorithm 5) and verify candidates with on-demand cell computation.
//!   Non-blocking and nearly I/O-optimal.
//!
//! ## Execution modes and the request server
//!
//! NM-CIJ and the multiway join run in one of two modes
//! ([`CijConfig::exec_mode`], env `CIJ_EXEC_MODE`): **Metered**, the
//! byte-exact counted oracle used by every experiment and test, and
//! **Fast**, a lock-light serving mode in which read-only snapshot readers
//! replace the trace/replay machinery and many concurrent queries share one
//! `Arc`-held tree pair. The [`service`] module builds on fast mode: a
//! bounded work queue, a worker pool, cache-budget admission control and
//! incremental result streaming — see [`QueryEngine::serve`]. The
//! [`engine`] module docs spell out the mode contract.
//!
//! ## The shared cell cache
//!
//! The Section IV-B *reuse buffer* is the bounded LRU
//! [`CellCache`], shared by NM-CIJ, PM-CIJ and the
//! [`multiway`] / [`grouped`] extensions through the cache-aware
//! [`cij_voronoi::batch_voronoi_cached`] API. Its capacity is bounded by
//! [`CijConfig::cell_cache_capacity`]; hit/miss/eviction counts surface
//! through [`NmCounters`] and the shared [`cij_pagestore::IoStats`].
//!
//! ## Quick example
//!
//! ```
//! use cij_core::{Algorithm, CijConfig, QueryEngine};
//! use cij_geom::Point;
//!
//! let restaurants = vec![Point::new(2_000.0, 3_000.0), Point::new(7_000.0, 8_000.0)];
//! let cinemas = vec![Point::new(2_500.0, 2_500.0), Point::new(6_500.0, 8_500.0)];
//! let engine = QueryEngine::new(CijConfig::default());
//!
//! // Blocking: collect the whole result.
//! let result = engine.join(&restaurants, &cinemas, Algorithm::NmCij);
//! assert!(!result.pairs.is_empty());
//!
//! // Streaming: pairs arrive while the join is still running.
//! let mut workload = engine.build_workload(&restaurants, &cinemas);
//! let mut stream = engine.stream(&mut workload, Algorithm::NmCij);
//! let first = stream.next();
//! assert!(first.is_some());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod brute;
pub mod cell_cache;
pub mod config;
pub mod engine;
pub mod filter;
pub mod fm;
pub mod grouped;
pub mod multiway;
pub mod nm;
pub mod pm;
pub mod service;
pub mod stats;
pub mod vor_rtree;
pub mod workload;

pub use brute::brute_force_cij;
pub use cell_cache::{CacheBudget, CacheLease, CellCache};
pub use cij_pagestore::StorageBackend;
pub use cij_rtree::LeafLayout;
pub use config::{CijConfig, ExecMode, FilterKernel, MultiwayDriver};
pub use engine::{CijExecutor, FmExecutor, NmExecutor, PairStream, PmExecutor, QueryEngine};
pub use filter::{
    batch_conditional_filter, batch_conditional_filter_scratch, batch_conditional_filter_with,
    FilterOptions, FilterScratch, FilterStats,
};
pub use fm::fm_cij;
pub use grouped::{grouped_nn_via_all_nn, grouped_nn_via_cij, GroupCounts};
pub use multiway::{
    brute_force_multiway_cij, multiway_cij, MultiwayOutcome, MultiwayTuple, TupleStream,
};
pub use nm::nm_cij;
pub use pm::pm_cij;
pub use service::{
    Batch, CijService, Completion, EngineSnapshot, ManualClock, QueryError, QueueFull, Request,
    ResponseHandle, ServiceClock, ServiceConfig, SystemClock,
};
pub use stats::{
    CijOutcome, CostBreakdown, LeafWatermark, MultiwayCounters, NmCounters, ProgressSample,
};
pub use vor_rtree::{build_voronoi_rtree, compute_all_cells, materialize_voronoi_rtree};
pub use workload::{MultiwayWorkload, Workload};

/// The three CIJ evaluation algorithms, for harnesses that sweep over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Full materialisation (Algorithm 3).
    FmCij,
    /// Partial materialisation (Algorithm 4).
    PmCij,
    /// No materialisation / non-blocking (Algorithm 6).
    NmCij,
}

impl Algorithm {
    /// All algorithms in the order the paper's plots list them.
    pub const ALL: [Algorithm; 3] = [Algorithm::FmCij, Algorithm::PmCij, Algorithm::NmCij];

    /// The name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::FmCij => "FM-CIJ",
            Algorithm::PmCij => "PM-CIJ",
            Algorithm::NmCij => "NM-CIJ",
        }
    }

    /// Runs this algorithm on a workload (blocking; delegates to the
    /// algorithm's [`CijExecutor`]).
    pub fn run(&self, workload: &mut Workload, config: &CijConfig) -> CijOutcome {
        self.executor().run(workload, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_match_the_paper() {
        assert_eq!(Algorithm::FmCij.name(), "FM-CIJ");
        assert_eq!(Algorithm::PmCij.name(), "PM-CIJ");
        assert_eq!(Algorithm::NmCij.name(), "NM-CIJ");
        assert_eq!(Algorithm::ALL.len(), 3);
    }

    #[test]
    fn run_dispatches_to_the_right_algorithm() {
        use cij_geom::Point;
        let config = CijConfig::default().with_rtree(cij_rtree::RTreeConfig {
            page_size: 512,
            min_fill: 0.4,
            max_entries: 64,
        });
        let p: Vec<Point> = (0..30)
            .map(|i| Point::new(100.0 * i as f64 + 50.0, 5_000.0))
            .collect();
        let q: Vec<Point> = (0..30)
            .map(|i| Point::new(5_000.0, 100.0 * i as f64 + 50.0))
            .collect();
        let mut results = Vec::new();
        for alg in Algorithm::ALL {
            let mut w = Workload::build(&p, &q, &config);
            results.push(alg.run(&mut w, &config).sorted_pairs());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }
}
