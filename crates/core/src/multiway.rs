//! Multiway common influence join — the extension the paper lists as future
//! work ("we plan to generalize CIJ computation for multiple pointsets and
//! develop multiway CIJ algorithms") — implemented as a first-class engine
//! component: leaf-batched, streaming and optionally parallel.
//!
//! Given pointsets `S1, …, Sk`, the multiway CIJ returns every tuple
//! `(s1, …, sk)` with `si ∈ Si` such that **one common location** exists that
//! is simultaneously inside the influence region (Voronoi cell) of every
//! `si`, i.e. `⋂ᵢ V(si, Si) ≠ ∅`. Note that pairwise intersection is *not*
//! sufficient for `k ≥ 3`: three convex cells can pairwise intersect yet
//! share no common point, so the join must track the running intersection
//! region explicitly.
//!
//! # Leaf-batched, cost-planned evaluation
//!
//! Evaluation is driven by the leaves of the **driver** set's R-tree,
//! walked in Hilbert order exactly like the outer loop of binary NM-CIJ.
//! The driver is picked by a cost model over tree metadata —
//! [`MultiwayWorkload::estimated_driver_cost`], estimated leaves of the
//! driver × summed fan-out of the extension sets — under
//! [`CijConfig::multiway_driver`] (`CostBased` by default; `Fixed(i)` pins
//! the historical hard-coded choice, which cost ties also fall back to).
//! The remaining sets are probed in input order. One leaf unit flows
//! through `k` rounds:
//!
//! * **Seed (round 0)**: the Voronoi cells of the leaf's points are computed
//!   with BatchVoronoi *through the driver set's [`CellCache`]* — the
//!   seeding phase uses the same reuse buffer as every extension round, so
//!   `cells_computed[i]` has the same meaning ("exact cells computed",
//!   i.e. cache misses) for every slot and duplicate seed work would be
//!   served from the buffer.
//! * **Extend (rounds 1 … k−1)**: each leaf unit with live partial tuples
//!   issues *one* [`batch_conditional_filter`] call carrying all of its
//!   partial regions — the same redundant-traversal cut that batching the
//!   cells of one `RQ` leaf gives binary NM-CIJ, so
//!   [`MultiwayCounters::filter_probes`] never exceeds the leaf count times
//!   `k − 1`. Candidate cells are then resolved through the set's
//!   [`CellCache`] and each partial region is narrowed by polygon
//!   intersection; empty intersections drop the candidate tuple.
//!
//! With [`CijConfig::multiway_prune`] (on by default) every extension round
//! is additionally pruned by the **running intersections' bounding box**:
//! the batch probe seeds each examined point's approximate cell from the
//! probe regions' union bbox (decision-preserving — see
//! [`FilterOptions::bound_cells`](crate::filter::FilterOptions::bound_cells)
//! — and a large cut in bisector clip work, observable as
//! [`MultiwayCounters::filter_clip_ops`]), and the candidate×partial
//! narrowing skips bbox-disjoint combinations outright.
//!
//! The partial tuples of one leaf stay spatially close through every round
//! (they are intersections of neighbouring cells), which is what makes the
//! per-leaf batch probe effective.
//!
//! # Streaming
//!
//! [`TupleStream`] is the multiway analogue of
//! [`PairStream`](crate::engine::PairStream): a lazy pull-based iterator of
//! [`MultiwayTuple`]s. Leaf units are processed only as the consumer
//! demands tuples, progress samples accumulate per productive leaf, and a
//! [`LeafWatermark`] is recorded per completed leaf — everything emitted up
//! to a watermark is final, so downstream operators can checkpoint at leaf
//! granularity. The blocking [`multiway_cij`] is a thin
//! [`TupleStream::into_outcome`] wrapper, and
//! [`QueryEngine::multiway_stream`](crate::engine::QueryEngine::multiway_stream)
//! exposes the stream directly.
//!
//! # Parallelism with exact parity
//!
//! With [`CijConfig::worker_threads`] > 1 the leaf units of a bounded chunk
//! run on a [`std::thread::scope`] worker pool using the same
//! determinism protocol as parallel NM-CIJ (see [`crate::nm`]), generalised
//! to `k` trees and `k` caches:
//!
//! * workers traverse the trees as immutable snapshots through traced
//!   [`cij_rtree::SnapshotReader`]s, recording per-unit page traces;
//! * the coordinator decides every [`CellCache`] hit/miss/eviction on id
//!   sequences in leaf order (policy/payload split) and later replays each
//!   leaf's traces through the real LRU buffers in the exact sequential
//!   interleaving;
//! * tuples are reassembled in leaf order.
//!
//! In fact there is only **one** execution path: the sequential run is the
//! chunked protocol at worker count 1 (the worker pool degenerates to
//! inline calls), so tuples (set *and* order), all [`MultiwayCounters`],
//! page-access totals, progress samples and watermarks are identical at any
//! thread count by construction — and asserted by `tests/multiway.rs` and
//! the `multiway_scale` parity column.
//!
//! # Fast mode
//!
//! Under [`CijConfig::exec_mode`](crate::config::CijConfig::exec_mode) =
//! [`ExecMode::Fast`], the same chunked
//! protocol runs with untraced [`cij_rtree::SnapshotReader`]s in every
//! parallel phase: no page traces are recorded, the emit phase replays
//! nothing through the LRU buffers, and "page accesses" become
//! per-query-local logical snapshot reads. Tuples (set and order) and every
//! [`MultiwayCounters`] field are still identical to the metered run —
//! only the I/O accounting semantics change. A fast stream over a shared
//! tree slice (no exclusive workload at all) backs the concurrent request
//! server in [`crate::service`].
//!
//! [`batch_conditional_filter`]: crate::filter::batch_conditional_filter
//! [`CellCache`]: crate::cell_cache::CellCache
//! [`CijConfig::worker_threads`]: crate::config::CijConfig::worker_threads
//! [`CijConfig::multiway_driver`]: crate::config::CijConfig::multiway_driver
//! [`CijConfig::multiway_prune`]: crate::config::CijConfig::multiway_prune
//! [`MultiwayWorkload::estimated_driver_cost`]: crate::workload::MultiwayWorkload::estimated_driver_cost

use crate::cell_cache::CellCache;
use crate::config::{CijConfig, ExecMode, MultiwayDriver};
use crate::filter::{batch_conditional_filter_scratch, FilterOptions, FilterStats};
use crate::nm::{
    policy_pass, refine_units, resolve_unit, run_ordered, run_ordered_scratch, UnitPlan,
    UnitScratch,
};
use crate::stats::{LeafWatermark, MultiwayCounters, ProgressSample};
use crate::workload::{pick_driver, MultiwayWorkload};
use cij_geom::{ConvexPolygon, Point, Rect};
use cij_pagestore::{IoSnapshot, IoStats, PageId, PageIoError};
use cij_rtree::{NodeReader, PointObject, RTree, ReadRecord};
use cij_voronoi::brute_force_diagram;
use std::collections::VecDeque;

/// Steady-state chunk width as a multiple of the worker count; chunks ramp
/// `1 → workers → workers * CHUNK_RAMP` so the first tuples cost only one
/// leaf unit's page accesses (the streaming contract) while later chunks
/// amortise the per-chunk synchronisation barriers.
const CHUNK_RAMP: usize = 4;

/// One result tuple of a multiway CIJ: the ids of the joined points (one per
/// input set, in input order) and the common influence region they share.
#[derive(Debug, Clone)]
pub struct MultiwayTuple {
    /// Point ids, one per input pointset, in the order the sets were given.
    pub ids: Vec<u64>,
    /// The common influence region `⋂ᵢ V(sᵢ, Sᵢ)`.
    pub region: ConvexPolygon,
}

/// Result of a multiway CIJ evaluation.
#[derive(Debug, Clone, Default)]
pub struct MultiwayOutcome {
    /// All result tuples, in emission order (leaf-major, deterministic).
    pub tuples: Vec<MultiwayTuple>,
    /// Cell, filter and cache counters (see [`MultiwayCounters`]).
    pub counters: MultiwayCounters,
    /// Progressive-output samples, one per productive leaf of the driving
    /// tree (`pairs` counts result *tuples* here).
    pub progress: Vec<ProgressSample>,
    /// Per-leaf watermarks, one per leaf of the driving tree.
    pub watermarks: Vec<LeafWatermark>,
    /// Total physical page accesses of the evaluation.
    pub page_accesses: u64,
    /// The input-set index whose tree drove the evaluation (see
    /// [`CijConfig::multiway_driver`]).
    pub driver: usize,
}

impl MultiwayOutcome {
    /// Exact Voronoi cells computed per input set — shorthand for
    /// [`MultiwayCounters::cells_computed`].
    pub fn cells_computed(&self) -> &[u64] {
        &self.counters.cells_computed
    }

    /// The id tuples, sorted lexicographically (for comparisons in tests).
    ///
    /// Deliberately does **not** dedup: the stream must never emit the same
    /// id tuple twice (each first-set point lives in exactly one leaf and
    /// each filter call returns distinct candidates), so a duplicate is a
    /// bug that should surface in comparisons — and trips the debug
    /// assertion here and in the stream — rather than be papered over.
    pub fn sorted_ids(&self) -> Vec<Vec<u64>> {
        let mut v: Vec<Vec<u64>> = self.tuples.iter().map(|t| t.ids.clone()).collect();
        v.sort();
        debug_assert!(
            v.windows(2).all(|w| w[0] != w[1]),
            "duplicate multiway tuples must never be emitted"
        );
        v
    }
}

/// Where a [`TupleStream`] gets its trees from.
///
/// The metered path owns an exclusive `&mut MultiwayWorkload` (it must
/// replay page traces through the real LRU buffers); the fast path can run
/// over a plain shared slice of trees — that is what lets many concurrent
/// queries evaluate against one snapshot.
pub(crate) enum MultiwaySource<'a> {
    /// Exclusive workload: both modes work; metered accounting possible.
    Workload(&'a mut MultiwayWorkload),
    /// Shared read-only trees: fast mode only. Borrowed individually so a
    /// request can join any subset of a snapshot's sets, in any order.
    Snapshot {
        /// One tree per input set, in input order.
        trees: Vec<&'a RTree<PointObject>>,
    },
}

impl MultiwaySource<'_> {
    fn k(&self) -> usize {
        match self {
            MultiwaySource::Workload(w) => w.k(),
            MultiwaySource::Snapshot { trees } => trees.len(),
        }
    }

    fn tree(&self, i: usize) -> &RTree<PointObject> {
        match self {
            MultiwaySource::Workload(w) => &w.trees[i],
            MultiwaySource::Snapshot { trees } => trees[i],
        }
    }

    fn tree_mut(&mut self, i: usize) -> &mut RTree<PointObject> {
        match self {
            MultiwaySource::Workload(w) => &mut w.trees[i],
            MultiwaySource::Snapshot { .. } => {
                unreachable!("metered execution requires an exclusive workload")
            }
        }
    }
}

/// Resolves the driver choice of `config` against `trees` — the shared
/// logic of both [`TupleStream`] constructors.
fn choose_driver(trees_k: usize, cost_pick: impl FnOnce() -> usize, config: &CijConfig) -> usize {
    match config.multiway_driver {
        MultiwayDriver::CostBased => cost_pick(),
        MultiwayDriver::Fixed(d) => {
            assert!(
                d < trees_k,
                "fixed multiway driver {d} out of range for {trees_k} sets"
            );
            d
        }
    }
}

/// A lazy pull-based stream of multiway CIJ result tuples — the k-way
/// analogue of [`PairStream`](crate::engine::PairStream).
///
/// Obtained from
/// [`QueryEngine::multiway_stream`](crate::engine::QueryEngine::multiway_stream).
/// The driver set is chosen per [`CijConfig::multiway_driver`] when the
/// stream is created; [`TupleStream::driver`] exposes the choice.
/// Leaf units of the driver set's tree are processed only as tuples are
/// demanded; [`TupleStream::progress_so_far`],
/// [`TupleStream::counters_so_far`] and [`TupleStream::watermarks_so_far`]
/// expose the incremental measurements, and [`TupleStream::into_outcome`]
/// drains the remainder into the blocking [`MultiwayOutcome`].
pub struct TupleStream<'a> {
    source: MultiwaySource<'a>,
    /// Execution mode, fixed at construction (from
    /// [`CijConfig::exec_mode`], or forced to `Fast` for snapshot sources).
    mode: ExecMode,
    /// Fast-mode logical snapshot reads (the per-query-local I/O counter);
    /// stays 0 in metered mode, where the shared [`IoStats`] is the truth.
    local_reads: u64,
    config: CijConfig,
    /// Evaluation order of the input sets: the driver first, then the
    /// extension sets in input order. Tuple ids are permuted back to input
    /// order on emission.
    eval_order: Vec<usize>,
    leaves: Vec<PageId>,
    next_leaf: usize,
    /// One reuse buffer per input set (the driver included: seeding goes
    /// through the cache like every extension round).
    caches: Vec<CellCache>,
    pending: VecDeque<MultiwayTuple>,
    stats: IoStats,
    start_io: IoSnapshot,
    counters: MultiwayCounters,
    progress: Vec<ProgressSample>,
    watermarks: Vec<LeafWatermark>,
    /// Tuples pushed into `pending` so far (cumulative, ahead of `emitted`
    /// by the buffered tuples).
    produced: u64,
    /// Tuples pulled by the consumer so far.
    emitted: u64,
    chunks_done: usize,
    /// First storage error hit, if any. Once set the stream is
    /// fail-stopped: everything emitted up to the last watermark is valid,
    /// nothing from the failing chunk was emitted, no further leaves run.
    error: Option<PageIoError>,
    /// Debug-build guard: every emitted id tuple must be unique.
    /// Membership-only (the `insert` return value is the whole check; never
    /// iterated), so `HashSet` order cannot leak (allowlisted CIJ-D102).
    #[cfg(debug_assertions)]
    seen_ids: std::collections::HashSet<Vec<u64>>,
}

impl std::fmt::Debug for TupleStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TupleStream")
            .field("k", &self.source.k())
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
}

impl<'a> TupleStream<'a> {
    pub(crate) fn new(workload: &'a mut MultiwayWorkload, config: CijConfig) -> Self {
        let stats = workload.stats.clone();
        let start_io = stats.snapshot();
        let mode = config.exec_mode;
        let driver = choose_driver(workload.k(), || workload.pick_driver(), &config);
        let mut eval_order = vec![driver];
        eval_order.extend((0..workload.k()).filter(|&s| s != driver));
        // The fast mode must not touch the shared buffer/counters even for
        // the initial leaf-order walk: it uses the peeking variant and seeds
        // its local counter with the walk's reads.
        let (leaves, local_reads) = match mode {
            ExecMode::Metered => (
                workload.trees[driver].leaf_pages_hilbert_order(&config.domain),
                0,
            ),
            ExecMode::Fast => workload.trees[driver].leaf_pages_hilbert_order_peek(&config.domain),
        };
        let capacity = if config.reuse_cells {
            config.cell_cache_capacity
        } else {
            0
        };
        // Cell-cache hit/miss/eviction events are CPU-side bookkeeping, not
        // page I/O — both modes mirror them into the shared stats so cache
        // behaviour stays harness-observable.
        let caches = (0..workload.k())
            .map(|_| CellCache::with_stats(capacity, stats.clone()))
            .collect();
        let counters = MultiwayCounters::for_sets(workload.k());
        TupleStream {
            source: MultiwaySource::Workload(workload),
            mode,
            local_reads,
            config,
            eval_order,
            leaves,
            next_leaf: 0,
            caches,
            pending: VecDeque::new(),
            stats,
            start_io,
            counters,
            progress: Vec::new(),
            watermarks: Vec::new(),
            produced: 0,
            emitted: 0,
            chunks_done: 0,
            error: None,
            #[cfg(debug_assertions)]
            seen_ids: std::collections::HashSet::new(),
        }
    }

    /// Fast-mode stream over shared read-only `trees` — the constructor the
    /// concurrent request server uses: many queries can hold streams over
    /// the same snapshot simultaneously. `caches` provides one reuse buffer
    /// per input set (typically carved from a
    /// [`CacheBudget`](crate::cell_cache::CacheBudget) lease).
    ///
    /// The mode is forced to [`ExecMode::Fast`] regardless of
    /// `config.exec_mode`: metered accounting needs exclusive tree access.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty or `caches.len() != trees.len()`.
    pub(crate) fn over_snapshot(
        trees: Vec<&'a RTree<PointObject>>,
        caches: Vec<CellCache>,
        config: CijConfig,
    ) -> Self {
        assert!(
            !trees.is_empty(),
            "multiway CIJ needs at least one pointset"
        );
        assert_eq!(caches.len(), trees.len(), "one cell cache per input set");
        let config = config.with_exec_mode(ExecMode::Fast);
        let driver = choose_driver(trees.len(), || pick_driver(&trees), &config);
        let mut eval_order = vec![driver];
        eval_order.extend((0..trees.len()).filter(|&s| s != driver));
        let (leaves, local_reads) = trees[driver].leaf_pages_hilbert_order_peek(&config.domain);
        let counters = MultiwayCounters::for_sets(trees.len());
        TupleStream {
            source: MultiwaySource::Snapshot { trees },
            mode: ExecMode::Fast,
            local_reads,
            config,
            eval_order,
            leaves,
            next_leaf: 0,
            caches,
            pending: VecDeque::new(),
            // Dummy stats: a snapshot stream never touches shared counters.
            stats: IoStats::new(),
            start_io: IoSnapshot::default(),
            counters,
            progress: Vec::new(),
            watermarks: Vec::new(),
            produced: 0,
            emitted: 0,
            chunks_done: 0,
            error: None,
            #[cfg(debug_assertions)]
            seen_ids: std::collections::HashSet::new(),
        }
    }

    /// Page accesses attributable to this stream so far: the shared-stats
    /// delta in metered mode, the local logical snapshot-read count in fast
    /// mode.
    fn current_page_accesses(&self) -> u64 {
        match self.mode {
            ExecMode::Metered => self.stats.snapshot().since(&self.start_io).page_accesses(),
            ExecMode::Fast => self.local_reads,
        }
    }

    /// Charges one read record at its sequential position: metered mode
    /// replays its trace through the real buffer of tree `tree`, fast mode
    /// adds its count to the local counter.
    fn settle(&mut self, tree: usize, record: &ReadRecord) {
        match self.mode {
            ExecMode::Metered => {
                let tree = self.source.tree_mut(tree);
                for &page in &record.trace {
                    tree.replay_read(page);
                }
            }
            ExecMode::Fast => self.local_reads += record.reads,
        }
    }

    /// Number of tuples this stream has yielded so far.
    pub fn tuples_emitted(&self) -> u64 {
        self.emitted
    }

    /// The input-set index whose tree drives this evaluation.
    pub fn driver(&self) -> usize {
        self.eval_order[0]
    }

    /// The progressive-output samples recorded so far (one per productive
    /// leaf of the driving tree; `pairs` counts tuples).
    pub fn progress_so_far(&self) -> Vec<ProgressSample> {
        self.progress.clone()
    }

    /// The multiway counters accumulated so far (exact at leaf boundaries).
    pub fn counters_so_far(&self) -> MultiwayCounters {
        self.counters.clone()
    }

    /// The per-leaf watermarks recorded so far. Everything up to the last
    /// watermark is final: no later leaf can add or change those tuples.
    pub fn watermarks_so_far(&self) -> Vec<LeafWatermark> {
        self.watermarks.clone()
    }

    /// Number of per-leaf watermarks recorded so far — cheaper than cloning
    /// [`TupleStream::watermarks_so_far`] when only the count is needed
    /// (the request server flushes result batches at watermark boundaries).
    pub fn watermark_count(&self) -> usize {
        self.watermarks.len()
    }

    /// The first storage error this stream hit, if any. The stream is
    /// **fail-stop**: when a page read fails irrecoverably the error
    /// latches, nothing from the failing chunk is emitted and the stream
    /// ends. A consumer that sees the stream end must poll this before
    /// trusting completeness.
    pub fn io_error(&self) -> Option<PageIoError> {
        self.error.clone()
    }

    /// Fail-stops the stream: latches the first error and abandons every
    /// unprocessed leaf. Tuples already emitted (all watermarked) stay
    /// valid.
    fn fail(&mut self, error: PageIoError) {
        if self.error.is_none() {
            self.error = Some(error);
        }
        self.next_leaf = self.leaves.len();
    }

    /// Drains the remaining tuples and packages everything into the
    /// blocking [`MultiwayOutcome`] (tuples already pulled through the
    /// iterator are *not* replayed — call this immediately for the classic
    /// collect-all behaviour).
    ///
    /// # Panics
    ///
    /// Panics if the stream fail-stopped on a storage error — the blocking
    /// API has no partial-result channel. Use
    /// [`TupleStream::try_into_outcome`] to handle the error structurally.
    pub fn into_outcome(self) -> MultiwayOutcome {
        self.try_into_outcome()
            .unwrap_or_else(|e| panic!("multiway CIJ storage failure: {e}"))
    }

    /// Drains the remaining tuples like [`TupleStream::into_outcome`], but
    /// surfaces a fail-stop storage error as `Err` instead of panicking.
    pub fn try_into_outcome(mut self) -> Result<MultiwayOutcome, PageIoError> {
        let mut tuples = Vec::new();
        for tuple in &mut self {
            tuples.push(tuple);
        }
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        Ok(MultiwayOutcome {
            tuples,
            counters: self.counters.clone(),
            progress: self.progress.clone(),
            watermarks: self.watermarks.clone(),
            page_accesses: self.current_page_accesses(),
            driver: self.eval_order[0],
        })
    }

    /// Processes the next bounded chunk of leaf units — every phase of the
    /// determinism protocol described in the module docs — and appends the
    /// resulting tuples to `pending` in leaf order.
    fn process_chunk(&mut self) {
        let workers = self.config.effective_worker_threads();
        let width = match self.chunks_done {
            0 => 1,
            1 => workers,
            _ => workers * CHUNK_RAMP,
        };
        let upto = (self.next_leaf + width).min(self.leaves.len());
        let chunk: Vec<PageId> = self.leaves[self.next_leaf..upto].to_vec();
        let first_leaf_index = self.next_leaf;
        self.next_leaf = upto;
        self.chunks_done += 1;
        let domain = self.config.domain;
        let k = self.source.k();
        let n = chunk.len();
        let driver = self.eval_order[0];
        let mode = self.mode;
        let layout = self.config.leaf_layout;
        let filter_options = FilterOptions::for_kernel(self.config.filter_kernel)
            .with_bound_cells(self.config.multiway_prune)
            .with_layout(layout);
        let prune = self.config.multiway_prune;
        let budget = self.source.tree(driver).config().node_byte_budget();

        // Read records per leaf, tagged with their tree index, in the order
        // a width-1 run makes the reads. The coordinator settles them
        // leaf-major at the end of the chunk (see `TupleStream::settle`), so
        // every tree's buffer sees the exact access sequence of a width-1
        // run (buffers are per-tree; the per-tree subsequence is what
        // matters) and fast-mode watermarks are leaf-exact too.
        let mut records: Vec<Vec<(usize, ReadRecord)>> = vec![Vec::new(); n];
        // Per-leaf counter deltas, folded into the shared counters at emit
        // time so `counters_so_far` is exact at every leaf boundary.
        let mut reused = vec![vec![0u64; k]; n];
        let mut computed = vec![vec![0u64; k]; n];
        let mut evictions_after = vec![vec![0u64; k]; n];
        let mut probes = vec![0u64; n];
        let mut fstats = vec![FilterStats::default(); n];

        // Scan (parallel): read each chunk leaf of the driving tree against
        // the immutable snapshot, recording the page trace (metered) or
        // counting the read locally (fast).
        let groups: Vec<Vec<PointObject>> = {
            let tree = self.source.tree(driver);
            let scans = run_ordered(workers, n, |i| {
                let mut reader = mode.reader(tree);
                let group = reader.read(chunk[i]).objects;
                (group, reader.into_record())
            });
            // Fail-stop gate: a scan-phase read failure discards the whole
            // chunk before any cache state advances (first error in leaf
            // order wins).
            if let Some(e) = scans.iter().find_map(|(_, r)| r.error.clone()) {
                self.fail(e);
                return;
            }
            scans
                .into_iter()
                .enumerate()
                .map(|(i, (group, record))| {
                    records[i].push((driver, record));
                    group
                })
                .collect()
        };

        // Seed (round 0): the leaf's own cells through the driver's cache.
        // One probe unit per leaf whose candidates are the leaf's points.
        let mut partials: Vec<Vec<MultiwayTuple>> = {
            // Policy (coordinator, leaf order).
            let plans: Vec<UnitPlan> = groups
                .iter()
                .enumerate()
                .map(|(i, group)| {
                    let plan = policy_pass(&mut self.caches[driver], group);
                    reused[i][driver] += plan.reused;
                    computed[i][driver] += plan.computed;
                    evictions_after[i][driver] = self.caches[driver].evictions();
                    plan
                })
                .collect();
            // Refine (parallel): exact cells of each leaf's missing points,
            // each worker reusing one Voronoi scratch across its leaves.
            let refined = refine_units(
                workers,
                &plans,
                self.source.tree(driver),
                mode,
                budget,
                &domain,
                layout,
            );
            // Fail-stop gate: cells refined from an error-empty read would
            // be geometrically wrong, so the chunk dies before resolving.
            if let Some(e) = refined.iter().find_map(|(_, r)| r.error.clone()) {
                self.fail(e);
                return;
            }
            // Resolve (coordinator, leaf order) and seed the partials.
            groups
                .iter()
                .zip(plans)
                .zip(refined)
                .enumerate()
                .map(|(i, ((group, plan), (cells, record)))| {
                    records[i].push((driver, record));
                    let aligned = resolve_unit(&mut self.caches[driver], group, &plan, cells);
                    group
                        .iter()
                        .zip(aligned)
                        .map(|(obj, cell)| MultiwayTuple {
                            ids: vec![obj.id.0],
                            region: cell,
                        })
                        .collect()
                })
                .collect()
        };

        // Extension rounds: one per remaining set, in evaluation order.
        for round in 1..k {
            let set_idx = self.eval_order[round];
            // Probe units: the leaves with live partial tuples, in leaf
            // order.
            let units: Vec<usize> = partials
                .iter()
                .enumerate()
                .filter(|(_, parts)| !parts.is_empty())
                .map(|(i, _)| i)
                .collect();

            // Filter (parallel, per unit): ONE batch_conditional_filter
            // call carrying every partial region of the leaf, each worker
            // reusing one filter scratch across its units.
            let filtered: Vec<(Vec<PointObject>, FilterStats, ReadRecord)> = {
                let tree = self.source.tree(set_idx);
                let partials = &partials;
                run_ordered_scratch(
                    workers,
                    units.len(),
                    || UnitScratch::for_budget(budget),
                    |u, scratch| {
                        let regions: Vec<ConvexPolygon> = partials[units[u]]
                            .iter()
                            .map(|t| t.region.clone())
                            .collect();
                        let mut reader = mode.reader(tree);
                        let (candidates, stats) = batch_conditional_filter_scratch(
                            &mut reader,
                            &regions,
                            &domain,
                            &filter_options,
                            &mut scratch.filter,
                        );
                        (candidates, stats, reader.into_record())
                    },
                )
            };
            // Fail-stop gate before the policy walk: a failed filter pass
            // must not feed partial candidate lists into the cache policy.
            if let Some(e) = filtered.iter().find_map(|(_, _, r)| r.error.clone()) {
                self.fail(e);
                return;
            }

            // Policy (coordinator, unit order). Walk leaves and units
            // together so each leaf's eviction watermark is captured at its
            // sequential position even when the leaf has no unit this round.
            let mut plans: Vec<UnitPlan> = Vec::with_capacity(units.len());
            {
                let mut u = 0;
                for i in 0..n {
                    while u < units.len() && units[u] == i {
                        let plan = policy_pass(&mut self.caches[set_idx], &filtered[u].0);
                        reused[i][set_idx] += plan.reused;
                        computed[i][set_idx] += plan.computed;
                        probes[i] += 1;
                        fstats[i].absorb(&filtered[u].1);
                        plans.push(plan);
                        u += 1;
                    }
                    evictions_after[i][set_idx] = self.caches[set_idx].evictions();
                }
            }

            // Refine (parallel, per unit): exact cells of the unit's
            // missing candidates, again with per-worker Voronoi scratches.
            let refined = refine_units(
                workers,
                &plans,
                self.source.tree(set_idx),
                mode,
                budget,
                &domain,
                layout,
            );
            // Fail-stop gate: same contract as the seed refine above.
            if let Some(e) = refined.iter().find_map(|(_, r)| r.error.clone()) {
                self.fail(e);
                return;
            }

            // Resolve (coordinator, unit order) + record each unit's read
            // records in the sequential interleaving (filter, then refine).
            let mut aligned_cells: Vec<Vec<ConvexPolygon>> = Vec::with_capacity(units.len());
            let mut candidates: Vec<Vec<PointObject>> = Vec::with_capacity(units.len());
            for (((&leaf, plan), (cands, _, filter_record)), (cells, refine_record)) in
                units.iter().zip(&plans).zip(filtered).zip(refined)
            {
                records[leaf].push((set_idx, filter_record));
                records[leaf].push((set_idx, refine_record));
                aligned_cells.push(resolve_unit(&mut self.caches[set_idx], &cands, plan, cells));
                candidates.push(cands);
            }

            // Extend (parallel, per unit): narrow each partial region by
            // every candidate cell, dropping empty intersections. With
            // pruning on, bbox-disjoint combinations are skipped outright —
            // their polygon intersection would be empty anyway (touching
            // bboxes still intersect, so degenerate contacts take the exact
            // path).
            let extensions: Vec<Vec<MultiwayTuple>> = {
                let partials = &partials;
                let cell_bboxes: Vec<Vec<Rect>> = aligned_cells
                    .iter()
                    .map(|cells| cells.iter().map(|c| c.bbox()).collect())
                    .collect();
                run_ordered(workers, units.len(), |u| {
                    let mut out = Vec::new();
                    for partial in &partials[units[u]] {
                        let partial_bbox = partial.region.bbox();
                        for ((cand, cell), cell_bbox) in candidates[u]
                            .iter()
                            .zip(&aligned_cells[u])
                            .zip(&cell_bboxes[u])
                        {
                            if prune && !partial_bbox.intersects(cell_bbox) {
                                continue;
                            }
                            let region = partial.region.intersection(cell);
                            if !region.is_empty() {
                                let mut ids = partial.ids.clone();
                                ids.push(cand.id.0);
                                out.push(MultiwayTuple { ids, region });
                            }
                        }
                    }
                    out
                })
            };

            // Reassemble (unit order is leaf-major, so this is leaf order).
            let mut next: Vec<Vec<MultiwayTuple>> = vec![Vec::new(); n];
            for (&leaf, ext) in units.iter().zip(extensions) {
                next[leaf].extend(ext);
            }
            partials = next;
        }

        // Emit (coordinator, leaf order): settle every leaf's read records,
        // fold in the leaf's counter deltas, record progress + watermark,
        // permute the tuple ids back to input-set order and enqueue the
        // tuples.
        let identity_order = self.eval_order.iter().enumerate().all(|(r, &set)| r == set);
        for (i, leaf_tuples) in partials.into_iter().enumerate() {
            for (tree, record) in &records[i] {
                self.settle(*tree, record);
            }
            for s in 0..k {
                self.counters.cells_reused[s] += reused[i][s];
                self.counters.cells_computed[s] += computed[i][s];
                self.counters.cell_cache_evictions[s] = evictions_after[i][s];
            }
            self.counters.filter_probes += probes[i];
            self.counters.filter_points_examined += fstats[i].points_examined;
            self.counters.filter_entries_pruned += fstats[i].entries_pruned;
            self.counters.filter_clip_ops += fstats[i].clip_ops;
            self.counters.filter_poly_tests_skipped += fstats[i].poly_tests_skipped;
            let leaf_tuples: Vec<MultiwayTuple> = if identity_order {
                leaf_tuples
            } else {
                leaf_tuples
                    .into_iter()
                    .map(|t| {
                        let mut ids = vec![0u64; k];
                        for (r, &set) in self.eval_order.iter().enumerate() {
                            ids[set] = t.ids[r];
                        }
                        MultiwayTuple {
                            ids,
                            region: t.region,
                        }
                    })
                    .collect()
            };
            self.produced += leaf_tuples.len() as u64;
            self.counters.tuples_produced = self.produced;
            let page_accesses = self.current_page_accesses();
            if !groups[i].is_empty() {
                self.progress.push(ProgressSample {
                    page_accesses,
                    pairs: self.produced,
                });
            }
            self.watermarks.push(LeafWatermark {
                leaf_index: first_leaf_index + i,
                rows: self.produced,
                page_accesses,
            });
            #[cfg(debug_assertions)]
            for tuple in &leaf_tuples {
                debug_assert!(
                    self.seen_ids.insert(tuple.ids.clone()),
                    "duplicate multiway tuple emitted: {:?}",
                    tuple.ids
                );
            }
            self.pending.extend(leaf_tuples);
        }
    }
}

impl Iterator for TupleStream<'_> {
    type Item = MultiwayTuple;

    fn next(&mut self) -> Option<MultiwayTuple> {
        loop {
            if let Some(tuple) = self.pending.pop_front() {
                self.emitted += 1;
                return Some(tuple);
            }
            if self.next_leaf >= self.leaves.len() {
                return None;
            }
            self.process_chunk();
        }
    }
}

/// Evaluates the multiway CIJ over `sets` to completion.
///
/// This is a thin blocking wrapper: it builds a [`MultiwayWorkload`] under
/// `config` and drains the lazy [`TupleStream`]. Use
/// [`QueryEngine::multiway_stream`](crate::engine::QueryEngine::multiway_stream)
/// to consume tuples incrementally, or build the workload once and stream
/// several evaluations against it.
///
/// # Panics
///
/// Panics if `sets` is empty.
pub fn multiway_cij(sets: &[Vec<Point>], config: &CijConfig) -> MultiwayOutcome {
    let mut workload = MultiwayWorkload::build(sets, config);
    TupleStream::new(&mut workload, *config).into_outcome()
}

/// Brute-force multiway CIJ oracle: builds every Voronoi diagram by halfplane
/// intersection and enumerates all id combinations whose cells share a
/// common region. Exponential in the number of sets — test-sized inputs only.
pub fn brute_force_multiway_cij(sets: &[Vec<Point>], domain: &Rect) -> Vec<Vec<u64>> {
    assert!(!sets.is_empty());
    let diagrams: Vec<Vec<ConvexPolygon>> = sets
        .iter()
        .map(|points| brute_force_diagram(points, domain))
        .collect();
    let mut results: Vec<(Vec<u64>, ConvexPolygon)> = diagrams[0]
        .iter()
        .enumerate()
        .map(|(i, c)| (vec![i as u64], c.clone()))
        .collect();
    for diagram in diagrams.iter().skip(1) {
        let mut next = Vec::new();
        for (ids, region) in &results {
            for (j, cell) in diagram.iter().enumerate() {
                let inter = region.intersection(cell);
                if !inter.is_empty() {
                    let mut ids = ids.clone();
                    ids.push(j as u64);
                    next.push((ids, inter));
                }
            }
        }
        results = next;
    }
    let mut ids: Vec<Vec<u64>> = results.into_iter().map(|(ids, _)| ids).collect();
    ids.sort();
    ids.dedup();
    ids
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
    fn two_way_multiway_matches_binary_cij() {
        let config = small_config();
        let p = random_points(50, 201);
        let q = random_points(60, 202);
        let outcome = multiway_cij(&[p.clone(), q.clone()], &config);
        let binary: Vec<Vec<u64>> = brute_force_cij(&p, &q, &config.domain)
            .into_iter()
            .map(|(a, b)| vec![a, b])
            .collect();
        assert_eq!(outcome.sorted_ids(), binary);
    }

    #[test]
    fn three_way_matches_brute_force() {
        let config = small_config();
        let sets = vec![
            random_points(25, 211),
            random_points(30, 212),
            random_points(20, 213),
        ];
        let outcome = multiway_cij(&sets, &config);
        let oracle = brute_force_multiway_cij(&sets, &config.domain);
        assert_eq!(outcome.sorted_ids(), oracle);
        assert!(!outcome.tuples.is_empty());
    }

    #[test]
    fn batching_probes_each_leaf_at_most_once_per_round() {
        let config = small_config();
        let sets = vec![
            random_points(60, 214),
            random_points(60, 215),
            random_points(60, 216),
        ];
        let outcome = multiway_cij(&sets, &config);
        assert_eq!(
            outcome.sorted_ids(),
            brute_force_multiway_cij(&sets, &config.domain)
        );
        let rounds = sets.len() as u64 - 1;
        let leaves = outcome.watermarks.len() as u64;
        assert!(outcome.counters.filter_probes > 0);
        assert!(
            outcome.counters.filter_probes <= leaves * rounds,
            "one filter call per leaf and extension round ({} > {leaves} x {rounds})",
            outcome.counters.filter_probes
        );
    }

    #[test]
    fn seeding_counts_cells_through_the_cache() {
        // Pin the driver: the assertion below is about *set 0's* seeding
        // semantics, and the cost model may legitimately drive with another
        // set on this asymmetric workload.
        let config = small_config().with_multiway_driver(MultiwayDriver::Fixed(0));
        let sets = vec![random_points(40, 217), random_points(45, 218)];
        let outcome = multiway_cij(&sets, &config);
        assert_eq!(outcome.driver, 0);
        // Every first-set point lives in exactly one leaf, so with a roomy
        // cache each seed cell is computed exactly once and never re-served:
        // the uniform "exact cells computed = cache misses" semantics.
        assert_eq!(outcome.counters.cells_computed[0], sets[0].len() as u64);
        assert_eq!(outcome.counters.cells_reused[0], 0);
        // The extension set's candidates overlap across leaves, so reuse
        // kicks in there.
        assert!(outcome.counters.cells_computed[1] > 0);
        assert!(outcome.counters.cells_reused[1] > 0);
        assert_eq!(
            outcome.counters.tuples_produced,
            outcome.tuples.len() as u64
        );
    }

    #[test]
    fn watermarks_checkpoint_every_leaf() {
        let config = small_config();
        let sets = vec![random_points(120, 219), random_points(120, 220)];
        let outcome = multiway_cij(&sets, &config);
        assert!(!outcome.watermarks.is_empty());
        for (i, w) in outcome.watermarks.iter().enumerate() {
            assert_eq!(w.leaf_index, i, "watermarks are dense and ordered");
        }
        for pair in outcome.watermarks.windows(2) {
            assert!(pair[0].rows <= pair[1].rows);
            assert!(pair[0].page_accesses <= pair[1].page_accesses);
        }
        let last = outcome.watermarks.last().unwrap();
        assert_eq!(last.rows, outcome.tuples.len() as u64);
        assert_eq!(last.page_accesses, outcome.page_accesses);
    }

    #[test]
    fn pairwise_intersection_is_not_sufficient_for_three_way() {
        // Construct three cells that pairwise intersect but share no common
        // point is hard with Voronoi cells directly; instead verify that the
        // three-way result is a subset of what pairwise checking would give,
        // and strictly smaller on at least some random instance.
        let config = small_config();
        let sets = vec![
            random_points(30, 221),
            random_points(30, 222),
            random_points(30, 223),
        ];
        let three_way = brute_force_multiway_cij(&sets, &config.domain);
        // Pairwise approximation.
        let d: Vec<Vec<ConvexPolygon>> = sets
            .iter()
            .map(|s| brute_force_diagram(s, &config.domain))
            .collect();
        let mut pairwise = Vec::new();
        for i in 0..sets[0].len() {
            for j in 0..sets[1].len() {
                if !d[0][i].intersects(&d[1][j]) {
                    continue;
                }
                for k in 0..sets[2].len() {
                    if d[0][i].intersects(&d[2][k]) && d[1][j].intersects(&d[2][k]) {
                        pairwise.push(vec![i as u64, j as u64, k as u64]);
                    }
                }
            }
        }
        pairwise.sort();
        for t in &three_way {
            assert!(
                pairwise.binary_search(t).is_ok(),
                "tuple {t:?} not pairwise-consistent"
            );
        }
        assert!(
            three_way.len() < pairwise.len(),
            "expected the common-location requirement to prune some pairwise-only tuples \
             ({} vs {})",
            three_way.len(),
            pairwise.len()
        );
    }

    #[test]
    fn single_set_returns_one_tuple_per_point() {
        let config = small_config();
        let p = random_points(40, 231);
        let outcome = multiway_cij(std::slice::from_ref(&p), &config);
        assert_eq!(outcome.tuples.len(), p.len());
        // The regions are the Voronoi cells and tile the domain.
        let total: f64 = outcome.tuples.iter().map(|t| t.region.area()).sum();
        assert!((total - config.domain.area()).abs() / config.domain.area() < 1e-6);
    }

    #[test]
    fn regions_are_inside_every_member_cell() {
        let config = small_config();
        let sets = vec![
            random_points(20, 241),
            random_points(22, 242),
            random_points(18, 243),
        ];
        let diagrams: Vec<Vec<ConvexPolygon>> = sets
            .iter()
            .map(|s| brute_force_diagram(s, &config.domain))
            .collect();
        let outcome = multiway_cij(&sets, &config);
        assert!(!outcome.tuples.is_empty());
        for tuple in &outcome.tuples {
            let c = tuple
                .region
                .centroid()
                .expect("result regions are never empty");
            for (set_idx, &id) in tuple.ids.iter().enumerate() {
                let cell = &diagrams[set_idx][id as usize];
                assert!(
                    cell.intersects(&tuple.region),
                    "region of {:?} escapes the cell of set {set_idx} point {id}",
                    tuple.ids
                );
                // The region is the running intersection of exactly these
                // cells, so its centroid must lie in every member's exact
                // cell (within the boundary tolerance of `contains_point`,
                // which covers degenerate zero-area intersections).
                assert!(
                    cell.contains_point(&c),
                    "centroid {c:?} of {:?} lies outside the cell of set {set_idx} point {id}",
                    tuple.ids
                );
            }
        }
    }

    #[test]
    fn every_driver_choice_produces_the_oracle_result() {
        // Asymmetric sizes so the drivers genuinely differ in leaf counts.
        let config = small_config();
        let sets = vec![
            random_points(60, 251),
            random_points(35, 252),
            random_points(20, 253),
        ];
        let oracle = brute_force_multiway_cij(&sets, &config.domain);
        for d in 0..sets.len() {
            let outcome = multiway_cij(
                &sets,
                &config.with_multiway_driver(MultiwayDriver::Fixed(d)),
            );
            assert_eq!(outcome.driver, d);
            assert_eq!(outcome.sorted_ids(), oracle, "driver {d} diverged");
        }
        let cost_based = multiway_cij(&sets, &config);
        assert_eq!(cost_based.sorted_ids(), oracle);
        // The cost-based choice matches the workload's own ranking.
        let w = MultiwayWorkload::build(&sets, &config);
        assert_eq!(cost_based.driver, w.pick_driver());
    }

    #[test]
    fn pruning_changes_no_results_but_cuts_clip_work() {
        let config = small_config();
        let sets = vec![
            random_points(120, 261),
            random_points(120, 262),
            random_points(120, 263),
        ];
        let pruned = multiway_cij(&sets, &config);
        let unpruned = multiway_cij(&sets, &config.with_multiway_prune(false));
        assert_eq!(pruned.sorted_ids(), unpruned.sorted_ids());
        assert_eq!(
            pruned.counters.filter_points_examined, unpruned.counters.filter_points_examined,
            "bbox bounding must not change the filter traversal"
        );
        assert_eq!(pruned.page_accesses, unpruned.page_accesses);
        assert!(
            pruned.counters.filter_clip_ops < unpruned.counters.filter_clip_ops,
            "running-intersection bounding must cut clip work ({} vs {})",
            pruned.counters.filter_clip_ops,
            unpruned.counters.filter_clip_ops
        );
    }

    #[test]
    fn fast_mode_is_tuple_and_counter_identical_to_metered() {
        let config = small_config();
        let sets = vec![
            random_points(60, 281),
            random_points(50, 282),
            random_points(40, 283),
        ];
        let metered = multiway_cij(&sets, &config);
        for threads in [1, 4] {
            let fast_cfg = config
                .with_exec_mode(ExecMode::Fast)
                .with_worker_threads(threads);
            let mut w = MultiwayWorkload::build(&sets, &fast_cfg);
            let fast = TupleStream::new(&mut w, fast_cfg).into_outcome();
            let fast_ids: Vec<Vec<u64>> = fast.tuples.iter().map(|t| t.ids.clone()).collect();
            let metered_ids: Vec<Vec<u64>> = metered.tuples.iter().map(|t| t.ids.clone()).collect();
            assert_eq!(fast_ids, metered_ids, "tuple set and order must match");
            assert_eq!(fast.counters, metered.counters);
            assert_eq!(fast.driver, metered.driver);
            assert!(fast.page_accesses > 0, "local reads are accounted");
            assert_eq!(
                fast.watermarks.last().unwrap().page_accesses,
                fast.page_accesses
            );
            assert_eq!(
                w.stats.snapshot().page_accesses(),
                0,
                "a fast run must not touch the shared page counters"
            );
        }
    }

    #[test]
    fn snapshot_stream_matches_the_workload_stream() {
        let config = small_config();
        let sets = vec![random_points(45, 284), random_points(35, 285)];
        let w = MultiwayWorkload::build(&sets, &config);
        let metered = multiway_cij(&sets, &config);
        let caches = (0..w.k())
            .map(|_| CellCache::new(config.cell_cache_capacity))
            .collect();
        let snap =
            TupleStream::over_snapshot(w.trees.iter().collect(), caches, config).into_outcome();
        assert_eq!(snap.sorted_ids(), metered.sorted_ids());
        assert_eq!(
            snap.counters.tuples_produced,
            metered.counters.tuples_produced
        );
        assert!(snap.page_accesses > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fixed_driver_out_of_range_panics() {
        let sets = vec![random_points(10, 271), random_points(10, 272)];
        let _ = multiway_cij(
            &sets,
            &small_config().with_multiway_driver(MultiwayDriver::Fixed(2)),
        );
    }

    #[test]
    #[should_panic(expected = "at least one pointset")]
    fn empty_input_panics() {
        let _ = multiway_cij(&[], &small_config());
    }

    #[test]
    fn corrupt_page_fail_stops_the_tuple_stream() {
        use cij_pagestore::{FaultKind, FaultSpec};
        let config = small_config().with_multiway_driver(MultiwayDriver::Fixed(0));
        let sets = vec![random_points(80, 231), random_points(80, 232)];
        let mut w = MultiwayWorkload::build(&sets, &config);
        // Corrupt a mid-run driver leaf so some tuples flow before the
        // failure.
        let (leaves, _) = w.trees[0].leaf_pages_hilbert_order_peek(&config.domain);
        let target = leaves[leaves.len() / 2];
        w.trees[0].flush();
        w.trees[0].drop_buffer();
        w.trees[0].inject_fault(FaultSpec::corrupt_frame(target.0));
        let mut stream = TupleStream::new(&mut w, config);
        let drained: Vec<MultiwayTuple> = stream.by_ref().collect();
        let error = stream.io_error().expect("corrupt frame surfaces an error");
        assert_eq!(error.kind, FaultKind::Corrupt);
        assert_eq!(error.page, Some(target.0));
        let rows = stream
            .watermarks_so_far()
            .last()
            .map(|wm| wm.rows)
            .unwrap_or(0);
        assert_eq!(
            rows as usize,
            drained.len(),
            "every emitted tuple is watermark-covered: failed chunks emit nothing"
        );
        assert!(stream.try_into_outcome().is_err());
    }

    #[test]
    fn transient_faults_never_change_the_multiway_result() {
        use cij_pagestore::FaultSpec;
        let sets = vec![
            random_points(120, 233),
            random_points(110, 234),
            random_points(100, 235),
        ];
        for threads in [1usize, 4] {
            let config = small_config().with_worker_threads(threads);
            // Both workloads start cold so metered physical reads agree.
            let clean = {
                let mut w = MultiwayWorkload::build(&sets, &config);
                w.reset_measurement();
                TupleStream::new(&mut w, config).into_outcome()
            };
            let faulty = {
                let mut w = MultiwayWorkload::build(&sets, &config);
                w.reset_measurement();
                for (i, tree) in w.trees.iter_mut().enumerate() {
                    tree.inject_fault(FaultSpec::transient(0xB00 + i as u64));
                }
                TupleStream::new(&mut w, config).into_outcome()
            };
            assert_eq!(clean.sorted_ids(), faulty.sorted_ids());
            assert_eq!(
                clean.page_accesses, faulty.page_accesses,
                "retried transients recover inside the store and stay invisible"
            );
        }
    }
}
