//! The streaming execution core: [`PairStream`], [`CijExecutor`], the
//! two-mode executor and the unified [`QueryEngine`] entry point.
//!
//! The paper's headline property of NM-CIJ is that it is **non-blocking**:
//! result pairs start flowing after a handful of page accesses, long before
//! the join completes. The seed implementation nevertheless ran every
//! algorithm to completion and returned a `Vec` of pairs; this module makes
//! the streaming contract explicit:
//!
//! * [`PairStream`] — a pull-based iterator of `(p_id, q_id)` pairs. For
//!   NM-CIJ the stream is genuinely lazy (leaves of `RQ` are processed only
//!   as pairs are demanded); for the blocking FM/PM algorithms the stream
//!   replays an eagerly computed result, preserving one uniform API.
//! * [`CijExecutor`] — the strategy trait tying an [`Algorithm`] to its
//!   stream construction; the blocking entry points (`fm_cij`, `pm_cij`,
//!   `nm_cij`) are thin `.into_outcome()` wrappers over it.
//! * [`QueryEngine`] — the facade-level entry point used by examples, tests
//!   and the benchmark harness instead of reaching into per-algorithm
//!   functions.
//!
//! Progress samples ([`ProgressSample`]) and NM counters accumulate in
//! shared stream state while the consumer pulls, so a caller can observe
//! "pairs so far vs page accesses so far" mid-join — exactly the
//! progressiveness measurement of Figure 9b.
//!
//! # The two execution modes
//!
//! NM-CIJ (and the multiway join) execute in one of two modes, selected by
//! [`CijConfig::exec_mode`] (env override `CIJ_EXEC_MODE`):
//!
//! * [`ExecMode::Metered`](crate::config::ExecMode::Metered) — the
//!   **correctness and measurement oracle**. Every page access runs through
//!   the LRU buffer simulation and the shared
//!   [`IoStats`](cij_pagestore::IoStats) counters; parallel runs record
//!   per-unit page traces and replay them sequentially so counters are
//!   byte-exact against a width-1 run. All paper experiments, tests and
//!   benches measure this mode. It requires exclusive workload access.
//! * [`ExecMode::Fast`](crate::config::ExecMode::Fast) — the **serving
//!   mode**. The same chunked protocol runs with read-only snapshot readers:
//!   no trace recording, no coordinator replay, no shared-counter traffic —
//!   each query keeps a private logical-read count instead, and "page
//!   accesses" are reinterpreted as logical snapshot reads. Pairs/tuples
//!   (set *and* order) and every NM/multiway counter are identical to
//!   metered by construction; only the I/O accounting currency changes.
//!   Because it needs only `&RTree`, many simultaneous queries can share
//!   one `Arc`-held snapshot — the basis of the [`crate::service`] request
//!   server ([`QueryEngine::serve`]), with per-query cell-cache quotas
//!   carved from a global [`CacheBudget`](crate::cell_cache::CacheBudget).
//!
//! FM/PM are blocking materialisation algorithms and ignore `exec_mode`:
//! they always run metered (they must build Voronoi R-trees through the
//! buffer).
//!
//! [`CijConfig::exec_mode`]: crate::config::CijConfig::exec_mode

use crate::config::CijConfig;
use crate::fm::fm_cij_eager;
use crate::grouped::{grouped_nn_via_cij, GroupCounts};
use crate::multiway::{MultiwayOutcome, TupleStream};
use crate::nm::{CacheSlot, NmPairIter};
use crate::pm::pm_cij_eager;
use crate::service::{CijService, EngineSnapshot, ServiceConfig};
use crate::stats::{CijOutcome, CostBreakdown, LeafWatermark, NmCounters, ProgressSample};
use crate::workload::{MultiwayWorkload, Workload};
use crate::Algorithm;
use cij_geom::Point;
use cij_pagestore::PageIoError;
use std::sync::{Arc, Mutex};

/// Mutable state shared between a [`PairStream`] and its producing
/// iterator: cost attribution, progress samples and NM counters fill in as
/// the stream is consumed.
#[derive(Debug, Default)]
pub(crate) struct StreamState {
    pub progress: Vec<ProgressSample>,
    pub nm: NmCounters,
    pub breakdown: CostBreakdown,
    pub watermarks: Vec<LeafWatermark>,
    /// First storage error the producing iterator hit, if any. Once set the
    /// stream is fail-stopped: everything emitted up to the last recorded
    /// watermark is valid, nothing after it was emitted.
    pub error: Option<PageIoError>,
}

/// `Arc<Mutex<…>>` rather than the earlier `Rc<RefCell<…>>`: the parallel
/// NM-CIJ execution path needs `Send + Sync` state (its producing iterator
/// crosses a `std::thread::scope`), and together with the `Send` bound on
/// the stream's inner iterator it makes [`PairStream`] itself `Send`, so a
/// consumer can move a running stream to another thread.
pub(crate) type SharedStreamState = Arc<Mutex<StreamState>>;

/// A pull-based stream of CIJ result pairs.
///
/// Obtained from [`QueryEngine::stream`] or [`CijExecutor::stream`]. Pairs
/// are produced on demand; [`PairStream::progress_so_far`] and
/// [`PairStream::counters_so_far`] expose the incremental measurements, and
/// [`PairStream::into_outcome`] drains the remainder into the classic
/// blocking [`CijOutcome`].
pub struct PairStream<'a> {
    algorithm: Algorithm,
    inner: Box<dyn Iterator<Item = (u64, u64)> + Send + 'a>,
    state: SharedStreamState,
    emitted: u64,
}

impl std::fmt::Debug for PairStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairStream")
            .field("algorithm", &self.algorithm)
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
}

impl<'a> PairStream<'a> {
    pub(crate) fn new(
        algorithm: Algorithm,
        inner: Box<dyn Iterator<Item = (u64, u64)> + Send + 'a>,
        state: SharedStreamState,
    ) -> Self {
        PairStream {
            algorithm,
            inner,
            state,
            emitted: 0,
        }
    }

    /// Wraps an eagerly computed outcome as a (trivially complete) stream —
    /// the adapter used by the blocking FM/PM algorithms.
    pub(crate) fn from_outcome(algorithm: Algorithm, outcome: CijOutcome) -> PairStream<'static> {
        let state = Arc::new(Mutex::new(StreamState {
            progress: outcome.progress,
            nm: outcome.nm,
            breakdown: outcome.breakdown,
            watermarks: outcome.watermarks,
            error: None,
        }));
        PairStream {
            algorithm,
            inner: Box::new(outcome.pairs.into_iter()),
            state,
            emitted: 0,
        }
    }

    /// The algorithm producing this stream.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Number of pairs this stream has yielded so far.
    pub fn pairs_emitted(&self) -> u64 {
        self.emitted
    }

    /// The progressive-output samples recorded so far (one per processed
    /// leaf of `RQ` for NM-CIJ; the full eager trace for FM/PM).
    pub fn progress_so_far(&self) -> Vec<ProgressSample> {
        self.state.lock().unwrap().progress.clone()
    }

    /// The NM-specific counters accumulated so far (zeroed for FM/PM).
    pub fn counters_so_far(&self) -> NmCounters {
        self.state.lock().unwrap().nm
    }

    /// The per-leaf watermarks recorded so far (one per processed leaf of
    /// `RQ` for the lazy NM-CIJ stream; empty for the blocking FM/PM
    /// streams). Everything emitted up to the last watermark is final: no
    /// later leaf can add or change those pairs — the checkpointing
    /// contract ported back from the multiway
    /// [`TupleStream`].
    pub fn watermarks_so_far(&self) -> Vec<LeafWatermark> {
        self.state.lock().unwrap().watermarks.clone()
    }

    /// The first storage error the producing iterator hit, if any.
    ///
    /// A lazy NM-CIJ stream is **fail-stop**: when a page read fails
    /// irrecoverably (after the page store's internal retries), the stream
    /// latches the error, emits nothing from the failing chunk and ends.
    /// Everything pulled up to the last watermark is valid; a consumer that
    /// sees the stream end must poll this before trusting completeness.
    pub fn io_error(&self) -> Option<PageIoError> {
        self.state.lock().unwrap().error.clone()
    }

    /// Drains the remaining pairs and packages everything into the blocking
    /// [`CijOutcome`] (pairs already pulled through the iterator are *not*
    /// replayed — call this immediately for the classic collect-all
    /// behaviour).
    ///
    /// # Panics
    ///
    /// Panics if the stream fail-stopped on a storage error — the blocking
    /// API has no partial-result channel. Use
    /// [`PairStream::try_into_outcome`] to handle the error structurally.
    pub fn into_outcome(self) -> CijOutcome {
        self.try_into_outcome()
            .unwrap_or_else(|e| panic!("CIJ storage failure: {e}"))
    }

    /// Drains the remaining pairs like [`PairStream::into_outcome`], but
    /// surfaces a fail-stop storage error as `Err` instead of panicking.
    pub fn try_into_outcome(mut self) -> Result<CijOutcome, PageIoError> {
        let mut pairs = Vec::new();
        for pair in &mut self {
            pairs.push(pair);
        }
        let mut state = self.state.lock().unwrap();
        if let Some(error) = state.error.take() {
            return Err(error);
        }
        Ok(CijOutcome {
            pairs,
            breakdown: state.breakdown,
            progress: state.progress.clone(),
            nm: state.nm,
            watermarks: state.watermarks.clone(),
        })
    }
}

impl Iterator for PairStream<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        let next = self.inner.next();
        if next.is_some() {
            self.emitted += 1;
        }
        next
    }
}

/// Strategy trait implemented by the three CIJ evaluation algorithms.
///
/// `stream` is the primary operation; the default `run` drains the stream
/// into a [`CijOutcome`], which is exactly what the classic blocking entry
/// points do.
pub trait CijExecutor {
    /// Which algorithm this executor implements.
    fn algorithm(&self) -> Algorithm;

    /// Starts the join and returns the (lazy where the algorithm allows it)
    /// stream of result pairs.
    fn stream<'a>(&self, workload: &'a mut Workload, config: &CijConfig) -> PairStream<'a>;

    /// Runs the join to completion.
    fn run(&self, workload: &mut Workload, config: &CijConfig) -> CijOutcome {
        self.stream(workload, config).into_outcome()
    }
}

/// Executor for FM-CIJ (Algorithm 3). Blocking: the stream starts only
/// after both Voronoi R-trees are materialised.
#[derive(Debug, Clone, Copy, Default)]
pub struct FmExecutor;

impl CijExecutor for FmExecutor {
    fn algorithm(&self) -> Algorithm {
        Algorithm::FmCij
    }

    fn stream<'a>(&self, workload: &'a mut Workload, config: &CijConfig) -> PairStream<'a> {
        PairStream::from_outcome(Algorithm::FmCij, fm_cij_eager(workload, config))
    }

    fn run(&self, workload: &mut Workload, config: &CijConfig) -> CijOutcome {
        // The eager evaluation already is the blocking outcome — skip the
        // pointless wrap-in-a-stream-and-drain round trip.
        fm_cij_eager(workload, config)
    }
}

/// Executor for PM-CIJ (Algorithm 4). Blocking: the stream starts only
/// after `R'P` is materialised.
#[derive(Debug, Clone, Copy, Default)]
pub struct PmExecutor;

impl CijExecutor for PmExecutor {
    fn algorithm(&self) -> Algorithm {
        Algorithm::PmCij
    }

    fn stream<'a>(&self, workload: &'a mut Workload, config: &CijConfig) -> PairStream<'a> {
        PairStream::from_outcome(Algorithm::PmCij, pm_cij_eager(workload, config))
    }

    fn run(&self, workload: &mut Workload, config: &CijConfig) -> CijOutcome {
        // See FmExecutor::run — the eager outcome needs no stream round trip.
        pm_cij_eager(workload, config)
    }
}

/// Executor for NM-CIJ (Algorithm 6). Non-blocking: leaves of `RQ` are
/// processed lazily, so the first pairs are available after a handful of
/// page accesses.
#[derive(Debug, Clone, Copy, Default)]
pub struct NmExecutor;

impl NmExecutor {
    /// The single construction path of every NM-CIJ stream: wires up the
    /// shared state, the lazy [`NmPairIter`] and a [`CacheSlot`] the
    /// iterator deposits its reuse buffer into once the stream is drained.
    ///
    /// Both [`CijExecutor::stream`] and the grouped-NN keep-the-cache entry
    /// point go through here, so counters and progress attribution cannot
    /// drift between the two.
    pub(crate) fn stream_with_cache_slot<'a>(
        workload: &'a mut Workload,
        config: &CijConfig,
    ) -> (PairStream<'a>, CacheSlot) {
        let state: SharedStreamState = Arc::default();
        let slot: CacheSlot = Arc::default();
        let iter = NmPairIter::new(workload, *config, Arc::clone(&state))
            .with_cache_slot(Arc::clone(&slot));
        (
            PairStream::new(Algorithm::NmCij, Box::new(iter), state),
            slot,
        )
    }
}

impl CijExecutor for NmExecutor {
    fn algorithm(&self) -> Algorithm {
        Algorithm::NmCij
    }

    fn stream<'a>(&self, workload: &'a mut Workload, config: &CijConfig) -> PairStream<'a> {
        NmExecutor::stream_with_cache_slot(workload, config).0
    }
}

impl Algorithm {
    /// The executor implementing this algorithm.
    pub fn executor(&self) -> &'static dyn CijExecutor {
        match self {
            Algorithm::FmCij => &FmExecutor,
            Algorithm::PmCij => &PmExecutor,
            Algorithm::NmCij => &NmExecutor,
        }
    }
}

/// The unified entry point for common-influence joins.
///
/// A `QueryEngine` owns a [`CijConfig`] and exposes every operation of the
/// workspace behind one API: building workloads, running or streaming any
/// of the three join algorithms, and the multiway / grouped-NN extensions.
/// Examples, integration tests and the benchmark harness go through this
/// type instead of calling per-algorithm functions.
///
/// ```
/// use cij_core::{Algorithm, CijConfig, QueryEngine};
/// use cij_geom::Point;
///
/// let engine = QueryEngine::new(CijConfig::default());
/// let p = vec![Point::new(2_000.0, 3_000.0), Point::new(7_000.0, 8_000.0)];
/// let q = vec![Point::new(2_500.0, 2_500.0), Point::new(6_500.0, 8_500.0)];
/// let outcome = engine.join(&p, &q, Algorithm::NmCij);
/// assert!(!outcome.pairs.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryEngine {
    config: CijConfig,
}

impl QueryEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: CijConfig) -> Self {
        QueryEngine { config }
    }

    /// Creates an engine with the paper's default configuration.
    pub fn with_defaults() -> Self {
        QueryEngine::default()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CijConfig {
        &self.config
    }

    /// Builds the R-tree indexed workload for two pointsets under this
    /// engine's configuration.
    pub fn build_workload(&self, p: &[Point], q: &[Point]) -> Workload {
        Workload::build(p, q, &self.config)
    }

    /// Starts `algorithm` on `workload` and returns the pair stream.
    ///
    /// For [`Algorithm::NmCij`] the stream is lazy: pulling the first pair
    /// performs only the page accesses needed for the first productive leaf
    /// of `RQ`.
    pub fn stream<'a>(&self, workload: &'a mut Workload, algorithm: Algorithm) -> PairStream<'a> {
        algorithm.executor().stream(workload, &self.config)
    }

    /// Runs `algorithm` on `workload` to completion.
    pub fn run(&self, workload: &mut Workload, algorithm: Algorithm) -> CijOutcome {
        algorithm.executor().run(workload, &self.config)
    }

    /// Convenience: builds the workload for `p` and `q` and runs
    /// `algorithm` to completion.
    pub fn join(&self, p: &[Point], q: &[Point], algorithm: Algorithm) -> CijOutcome {
        let mut workload = self.build_workload(p, q);
        self.run(&mut workload, algorithm)
    }

    /// Builds the R-tree indexed multiway workload for `sets` under this
    /// engine's configuration.
    pub fn multiway_workload(&self, sets: &[Vec<Point>]) -> MultiwayWorkload {
        MultiwayWorkload::build(sets, &self.config)
    }

    /// Starts the multiway CIJ on `workload` and returns the lazy
    /// [`TupleStream`]: leaf units of the cost-selected driver tree are
    /// processed
    /// only as tuples are demanded, with progress samples and per-leaf
    /// watermarks observable mid-join (see [`crate::multiway`]).
    pub fn multiway_stream<'a>(&self, workload: &'a mut MultiwayWorkload) -> TupleStream<'a> {
        TupleStream::new(workload, self.config)
    }

    /// Runs the multiway CIJ over `sets` to completion (see
    /// [`multiway_cij`](crate::multiway::multiway_cij)) — a thin
    /// drain-the-stream wrapper over [`QueryEngine::multiway_stream`].
    pub fn multiway(&self, sets: &[Vec<Point>]) -> MultiwayOutcome {
        let mut workload = self.multiway_workload(sets);
        self.multiway_stream(&mut workload).into_outcome()
    }

    /// Runs the CIJ-based grouped nearest-neighbour analysis (see
    /// [`grouped_nn_via_cij`]).
    pub fn grouped_nn(&self, p: &[Point], q: &[Point], locations: &[Point]) -> GroupCounts {
        grouped_nn_via_cij(p, q, locations, &self.config)
    }

    /// Builds an immutable, shareable [`EngineSnapshot`] of `sets` under
    /// this engine's configuration — the data a request server executes
    /// fast-mode queries against.
    pub fn snapshot(&self, sets: &[Vec<Point>]) -> EngineSnapshot {
        EngineSnapshot::build(sets, &self.config)
    }

    /// Starts a concurrent request server over a snapshot of `sets` — the
    /// thin serving front of the fast executor (see [`crate::service`]):
    /// bounded work queue, worker pool, cache-budget admission control and
    /// watermark-batched result streaming.
    pub fn serve(&self, sets: &[Vec<Point>], service: ServiceConfig) -> CijService {
        CijService::start(Arc::new(self.snapshot(sets)), service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cij;
    use cij_rtree::RTreeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_config() -> CijConfig {
        CijConfig::default().with_rtree(RTreeConfig {
            page_size: 512,
            min_fill: 0.4,
            max_entries: 64,
        })
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect()
    }

    #[test]
    fn engine_runs_every_algorithm_to_the_same_result() {
        let engine = QueryEngine::new(small_config());
        let p = random_points(80, 501);
        let q = random_points(90, 502);
        let oracle = brute_force_cij(&p, &q, &engine.config().domain);
        for alg in Algorithm::ALL {
            let outcome = engine.join(&p, &q, alg);
            assert_eq!(outcome.sorted_pairs(), oracle, "{} disagrees", alg.name());
        }
    }

    #[test]
    fn streaming_and_blocking_paths_agree() {
        let engine = QueryEngine::new(small_config());
        let p = random_points(120, 503);
        let q = random_points(110, 504);
        for alg in Algorithm::ALL {
            let streamed: Vec<(u64, u64)> = {
                let mut w = engine.build_workload(&p, &q);
                engine.stream(&mut w, alg).collect()
            };
            let mut streamed_sorted = streamed;
            streamed_sorted.sort_unstable();
            streamed_sorted.dedup();
            let blocking = engine.join(&p, &q, alg).sorted_pairs();
            assert_eq!(streamed_sorted, blocking, "{} stream differs", alg.name());
        }
    }

    #[test]
    fn nm_stream_is_lazy_first_pair_needs_few_accesses() {
        let engine = QueryEngine::new(small_config());
        let p = random_points(600, 505);
        let q = random_points(600, 506);

        // Total cost of a complete run, for reference.
        let total = engine.join(&p, &q, Algorithm::NmCij).page_accesses();

        let mut w = engine.build_workload(&p, &q);
        let stats = w.stats.clone();
        let mut stream = engine.stream(&mut w, Algorithm::NmCij);
        let first = stream.next();
        assert!(first.is_some(), "join of non-empty sets yields pairs");
        let at_first = stats.snapshot().page_accesses();
        assert!(
            at_first * 4 < total,
            "first pair after {at_first} accesses vs {total} total — not lazy"
        );
        assert_eq!(stream.pairs_emitted(), 1);
        // Draining afterwards completes the join.
        let rest: Vec<_> = stream.collect();
        assert!(!rest.is_empty());
    }

    #[test]
    fn mid_stream_progress_is_observable() {
        let engine = QueryEngine::new(small_config());
        let p = random_points(400, 507);
        let q = random_points(400, 508);
        let mut w = engine.build_workload(&p, &q);
        let mut stream = engine.stream(&mut w, Algorithm::NmCij);
        let _ = stream.next();
        let early = stream.progress_so_far();
        assert!(!early.is_empty(), "progress recorded by the first pair");
        let outcome = stream.into_outcome();
        assert!(outcome.progress.len() >= early.len());
        // Counters flowed through the shared state.
        assert!(outcome.nm.q_cells_computed > 0);
    }

    #[test]
    fn executor_trait_objects_dispatch_correctly() {
        let config = small_config();
        let p = random_points(60, 509);
        let q = random_points(60, 510);
        for alg in Algorithm::ALL {
            let executor = alg.executor();
            assert_eq!(executor.algorithm(), alg);
            let mut w = Workload::build(&p, &q, &config);
            let outcome = executor.run(&mut w, &config);
            assert!(!outcome.is_empty());
        }
    }

    #[test]
    fn pair_streams_are_send() {
        // A running stream can be handed to another thread: the inner
        // iterator is `Send` and the shared state is `Arc<Mutex<…>>`.
        fn assert_send<T: Send>() {}
        assert_send::<PairStream<'static>>();

        let engine = QueryEngine::new(small_config());
        let p = random_points(80, 514);
        let q = random_points(80, 515);
        let mut w = engine.build_workload(&p, &q);
        let mut stream = engine.stream(&mut w, Algorithm::NmCij);
        let first = stream.next();
        let rest: usize = std::thread::scope(|s| {
            s.spawn(move || {
                // The moved stream keeps producing on the other thread.
                stream.count()
            })
            .join()
            .expect("consumer thread")
        });
        assert!(first.is_some());
        assert!(rest > 0);
    }

    #[test]
    fn engine_multiway_and_grouped_entry_points_work() {
        let engine = QueryEngine::new(small_config());
        let sets = vec![random_points(25, 511), random_points(30, 512)];
        let multi = engine.multiway(&sets);
        let binary: Vec<Vec<u64>> = brute_force_cij(&sets[0], &sets[1], &engine.config().domain)
            .into_iter()
            .map(|(a, b)| vec![a, b])
            .collect();
        assert_eq!(multi.sorted_ids(), binary);

        let locations = random_points(300, 513);
        let counts = engine.grouped_nn(&sets[0], &sets[1], &locations);
        assert_eq!(counts.values().sum::<u64>(), locations.len() as u64);
    }

    #[test]
    fn multiway_stream_is_lazy_and_matches_the_blocking_run() {
        let engine = QueryEngine::new(small_config());
        let sets = vec![random_points(1_500, 516), random_points(1_500, 517)];

        // Total cost of a complete run, for reference.
        let blocking = engine.multiway(&sets);
        let total = blocking.page_accesses;

        let mut w = engine.multiway_workload(&sets);
        let stats = w.stats.clone();
        let mut stream = engine.multiway_stream(&mut w);
        let first = stream.next();
        assert!(first.is_some(), "join of non-empty sets yields tuples");
        let at_first = stats.snapshot().page_accesses();
        assert!(
            at_first * 4 < total,
            "first tuple after {at_first} accesses vs {total} total — not lazy"
        );
        assert_eq!(stream.tuples_emitted(), 1);
        assert!(!stream.watermarks_so_far().is_empty());

        // Draining afterwards completes the join with the same result.
        let mut ids: Vec<Vec<u64>> = vec![first.unwrap().ids];
        ids.extend(stream.map(|t| t.ids));
        ids.sort();
        assert_eq!(ids, blocking.sorted_ids());
    }
}
