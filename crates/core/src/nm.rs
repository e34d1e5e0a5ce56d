//! NM-CIJ: the non-blocking, no-materialisation algorithm (Algorithm 6 of
//! the paper) — the paper's main contribution.
//!
//! NM-CIJ never builds a Voronoi R-tree. It walks the leaves of `RQ` in
//! Hilbert order; for each leaf it
//!
//! 1. computes the Voronoi cells of the leaf's points in batch
//!    (Algorithm 2),
//! 2. runs the **BatchConditionalFilter** (Algorithm 5) against `RP` to find
//!    the candidate points of `P` whose cells may intersect any of those
//!    cells,
//! 3. computes the exact cells of the candidates through the shared
//!    [`CellCache`] (the Section IV-B **reuse buffer**, now a bounded LRU —
//!    neighbouring leaves of `RQ` share candidates, so most lookups hit),
//! 4. reports every `(p, q)` whose exact cells intersect.
//!
//! The algorithm is implemented as a stream: the crate-internal `NmPairIter`
//! processes leaves
//! of `RQ` only when the consumer pulls and the pairs of previous leaves are
//! exhausted. The classic blocking [`nm_cij`] is a thin collect-wrapper over
//! that stream (via [`PairStream::into_outcome`]), so the non-blocking
//! property — result pairs after only a few page accesses — is directly
//! observable by pulling a [`PairStream`] obtained from
//! [`QueryEngine::stream`](crate::engine::QueryEngine::stream).
//!
//! # Parallel leaf processing
//!
//! Leaf units are independent given read access to the two input trees, so
//! with [`CijConfig::worker_threads`] > 1 the iterator executes them on a
//! [`std::thread::scope`] worker pool — **without changing any observable
//! result**. The design problem is that naive concurrency would perturb
//! three kinds of shared sequential state: the LRU page buffers (physical
//! read counts depend on access order), the cell reuse buffer (hits and
//! misses depend on which leaf ran first) and the emission order of pairs.
//! The parallel path therefore decouples *computation* from *accounting*:
//!
//! * **Workers never touch the buffers.** During a join the trees are
//!   read-only, so workers traverse them as immutable snapshots through a
//!   traced [`cij_rtree::SnapshotReader`], which serves nodes without
//!   accounting and records the page-id sequence each traversal touches.
//!   The coordinator later **replays** every leaf's trace through the real
//!   buffer + stats ([`cij_rtree::RTree::replay_read`]) in Hilbert leaf
//!   order — the exact access sequence of a sequential run, hence identical
//!   page-access totals, buffer state and per-leaf [`ProgressSample`]s.
//! * **Cache policy is decided sequentially on ids, payloads are computed in
//!   parallel.** Which candidates hit the reuse buffer depends only on the
//!   candidate-id sequence in leaf order, never on the polygons themselves.
//!   The coordinator runs the LRU policy (`policy_get`/`policy_put` on the
//!   real [`CellCache`], keeping hit/miss/evict counters exact) over each
//!   leaf's candidates in order, which also tells every leaf precisely which
//!   cells it must compute — the same set the sequential run would compute,
//!   so the refinement traversals (and their traces) are identical too.
//! * **Ordered reassembly.** Per-leaf pair buffers are appended to the
//!   output queue in Hilbert leaf order, so the stream yields the same pairs
//!   in the same order as `worker_threads = 1`.
//!
//! Execution proceeds in bounded chunks of leaves — scan (parallel) →
//! cache policy (coordinator) → refine (parallel) → payload resolution
//! (coordinator) → pair reporting (parallel) → replay + emit (coordinator) —
//! so the non-blocking contract is preserved: chunk widths ramp from a
//! single leaf up to a small multiple of `worker_threads`, and first pairs
//! arrive after the same handful of page accesses a sequential run needs
//! rather than after the whole join.
//!
//! # Fast mode
//!
//! With [`CijConfig::exec_mode`] = [`ExecMode::Fast`] the same chunked
//! protocol runs with the parity machinery stripped: workers read through
//! untraced [`cij_rtree::SnapshotReader`]s (per-query-local read counts
//! instead of recorded traces), the coordinator replays nothing, and no
//! shared page counter is touched — pairs, order and NM counters are still
//! identical to metered (same kernels, same cache-policy sequence), but the
//! reported "page accesses" are logical snapshot reads from the local
//! counter. The two modes differ only in the reader they build and in how
//! `NmPairIter::settle` charges its record. This is the serving path: it
//! needs only `&RTree`, so many concurrent queries can share one tree-pair
//! snapshot (`NmPairIter::over_snapshot`, driven by [`crate::service`]).
//!
//! Relaxed-consistency contract: the one atomic in this module is the
//! work-stealing unit cursor inside `run_ordered_scratch` — workers claim
//! unit indices with `fetch_add(1, Ordering::Relaxed)`, which is sound
//! because the read-modify-write's modification order already hands each
//! index to exactly one worker, and unit *inputs* are published to workers
//! before the scope spawns (the scope's own synchronization), not through
//! the cursor. Completed results are handed back through a `Mutex`, which
//! carries the release/acquire edge.
//!
//! [`CellCache`]: crate::cell_cache::CellCache
//! [`CijConfig::worker_threads`]: crate::config::CijConfig::worker_threads
//! [`CijConfig::exec_mode`]: crate::config::CijConfig::exec_mode
//! [`ExecMode::Fast`]: crate::config::ExecMode::Fast
//! [`PairStream`]: crate::engine::PairStream
//! [`PairStream::into_outcome`]: crate::engine::PairStream::into_outcome

use crate::cell_cache::CellCache;
use crate::config::{CijConfig, ExecMode};
use crate::engine::{CijExecutor, NmExecutor, SharedStreamState};
use crate::filter::{batch_conditional_filter_scratch, FilterOptions, FilterScratch, FilterStats};
use crate::stats::CijOutcome;
use crate::stats::{LeafWatermark, ProgressSample};
use crate::workload::Workload;
use cij_geom::{ConvexPolygon, Rect};
use cij_pagestore::{IoSnapshot, IoStats, PageId, PageIoError};
use cij_rtree::{LeafLayout, NodeReader, PointObject, RTree, ReadRecord};
use cij_voronoi::{batch_voronoi_cached_with, batch_voronoi_with, VorScratch};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Slot an [`NmPairIter`] deposits its reuse buffer into when the stream is
/// exhausted, so callers that need the cache after the join (grouped-NN)
/// share the executor's stream-construction path instead of wiring their
/// own.
pub(crate) type CacheSlot = Arc<Mutex<Option<CellCache>>>;

/// Steady-state chunk width, as a multiple of the worker count. Chunks ramp
/// 1 → `worker_threads` → `worker_threads * CHUNK_RAMP`: the first chunk
/// covers a single leaf so the first pair costs exactly the page accesses a
/// sequential run pays for it (the non-blocking budget), and later chunks
/// widen to amortise the per-chunk synchronisation barriers. In-flight
/// leaves stay bounded by `worker_threads * CHUNK_RAMP`.
const CHUNK_RAMP: usize = 4;

/// Runs NM-CIJ on a workload to completion, returning the result pairs, the
/// cost breakdown (all cost is JOIN cost — there is no materialisation
/// phase) and the NM-specific counters used by Figures 10 and 11.
///
/// This is a thin blocking wrapper: it drains the lazy pair stream of
/// [`NmExecutor`]. Use [`QueryEngine::stream`] to consume pairs
/// incrementally instead.
///
/// [`QueryEngine::stream`]: crate::engine::QueryEngine::stream
pub fn nm_cij(workload: &mut Workload, config: &CijConfig) -> CijOutcome {
    NmExecutor.stream(workload, config).into_outcome()
}

/// Like [`nm_cij`], but also hands back the reuse buffer so a caller can
/// keep serving exact `P` cells from it after the join (grouped-NN
/// materialises the common influence regions of the result pairs from the
/// very cells the join just computed).
///
/// Routed through [`NmExecutor::stream_with_cache_slot`] — the same
/// stream-construction path as every other NM-CIJ invocation — so counters
/// and progress attribution cannot drift between the entry points.
pub(crate) fn nm_cij_keep_cache(
    workload: &mut Workload,
    config: &CijConfig,
) -> (CijOutcome, CellCache) {
    let (stream, slot) = NmExecutor::stream_with_cache_slot(workload, config);
    let outcome = stream.into_outcome();
    let cache = slot
        .lock()
        .unwrap()
        .take()
        .expect("a drained NM-CIJ stream deposits its reuse buffer");
    (outcome, cache)
}

/// The per-worker scratch of one join unit: the Voronoi traversal's decode
/// arena + clip buffers and the conditional filter's. Allocated **once per
/// worker** (or once per stream on the sequential path) and reused across
/// every leaf/probe unit the worker processes, so the SoA hot loops run
/// allocation-free at steady state. Shared with the multiway
/// [`TupleStream`](crate::multiway::TupleStream).
#[derive(Debug, Default)]
pub(crate) struct UnitScratch {
    pub(crate) vor: VorScratch,
    pub(crate) filter: FilterScratch,
    /// Bounding boxes of one leaf's candidate cells, computed once per leaf
    /// by the pair-reporting step.
    pub(crate) p_bboxes: Vec<Rect>,
}

impl UnitScratch {
    /// Scratch pre-sized for nodes of the given byte budget.
    pub(crate) fn for_budget(node_byte_budget: usize) -> Self {
        UnitScratch {
            vor: VorScratch::for_budget(node_byte_budget),
            filter: FilterScratch::for_budget(node_byte_budget),
            p_bboxes: Vec::new(),
        }
    }
}

/// Everything a chunked scan of one `RQ` leaf produces: the leaf's points,
/// their Voronoi cells, the filter's candidate set, and the read records of
/// the two trees (settled later by the coordinator, see
/// `NmPairIter::settle`).
struct LeafScan {
    group: Vec<PointObject>,
    cells_q: Vec<ConvexPolygon>,
    candidates: Vec<PointObject>,
    fstats: FilterStats,
    /// Reads of `RQ`: the leaf itself and the Q-cell traversal.
    rq_reads: ReadRecord,
    /// Reads of `RP`: the conditional filter.
    rp_reads: ReadRecord,
}

impl LeafScan {
    /// First storage error either reader latched during the scan. A scan
    /// that carries an error produced garbage (failed reads serve empty
    /// leaves) — the coordinator discards the whole chunk and fail-stops.
    fn error(&self) -> Option<PageIoError> {
        self.rq_reads
            .error
            .clone()
            .or_else(|| self.rp_reads.error.clone())
    }
}

/// Which input tree a read record is charged to.
#[derive(Clone, Copy)]
enum Side {
    P,
    Q,
}

/// Where an [`NmPairIter`] reads its trees from.
///
/// The metered mode owns a [`Workload`] exclusively (it mutates the LRU
/// page buffers and the shared stats); the fast mode only ever needs shared
/// references, so many concurrent queries can run over one `Arc`-held
/// snapshot of the same tree pair (see [`crate::service`]).
pub(crate) enum JoinSource<'a> {
    /// Exclusive workload — both execution modes accept it.
    Workload(&'a mut Workload),
    /// Shared immutable tree pair — fast mode only.
    Snapshot {
        /// The `P` tree (filter + refinement side).
        rp: &'a RTree<PointObject>,
        /// The `Q` tree (driving side).
        rq: &'a RTree<PointObject>,
    },
}

impl JoinSource<'_> {
    fn rp(&self) -> &RTree<PointObject> {
        match self {
            JoinSource::Workload(w) => &w.rp,
            JoinSource::Snapshot { rp, .. } => rp,
        }
    }

    fn rq(&self) -> &RTree<PointObject> {
        match self {
            JoinSource::Workload(w) => &w.rq,
            JoinSource::Snapshot { rq, .. } => rq,
        }
    }

    /// Exclusive access to both trees — the metered path's buffer/replay
    /// entry point. A snapshot source never executes metered (enforced at
    /// construction), so this cannot be reached for one.
    fn trees_mut(&mut self) -> (&mut RTree<PointObject>, &mut RTree<PointObject>) {
        match self {
            JoinSource::Workload(w) => (&mut w.rp, &mut w.rq),
            JoinSource::Snapshot { .. } => {
                unreachable!("metered execution requires an exclusive workload")
            }
        }
    }
}

/// The lazy leaf-by-leaf pair producer behind the NM-CIJ stream.
///
/// Each call to [`Iterator::next`] first serves pairs buffered from already
/// processed leaves of `RQ`; when that buffer runs dry, the next leaf (or,
/// with [`CijConfig::worker_threads`] > 1, the next bounded chunk of
/// leaves) is processed — steps 1–4 of Algorithm 6. Page accesses therefore
/// happen only as the consumer demands pairs.
pub(crate) struct NmPairIter<'a> {
    source: JoinSource<'a>,
    config: CijConfig,
    /// Execution mode resolved at construction (a snapshot source is always
    /// fast).
    mode: ExecMode,
    /// Filter execution options derived from the config (kernel choice).
    filter_options: FilterOptions,
    leaves: Vec<PageId>,
    next_leaf: usize,
    cache: CellCache,
    pending: VecDeque<(u64, u64)>,
    state: SharedStreamState,
    stats: IoStats,
    start_io: IoSnapshot,
    /// Fast-mode accounting: cumulative logical snapshot reads of this
    /// query (the per-query-local I/O counter; unused in metered mode).
    local_reads: u64,
    pairs_produced: u64,
    chunks_done: usize,
    finished: bool,
    /// Scratch set for the per-leaf true-hit count, reused across leaves so
    /// the hot loop never reallocates (the pending `VecDeque` is likewise
    /// reused for the whole stream). Membership-only — insert/len/clear,
    /// never iterated — so `HashSet` order cannot leak into results
    /// (allowlisted CIJ-D102).
    true_hits: HashSet<u64>,
    /// Sequential-path unit scratch (arena + clip buffers), reused across
    /// leaves. Parallel workers build their own per-thread copies.
    scratch: UnitScratch,
    cache_slot: Option<CacheSlot>,
}

impl<'a> NmPairIter<'a> {
    pub(crate) fn new(
        workload: &'a mut Workload,
        config: CijConfig,
        state: SharedStreamState,
    ) -> Self {
        let stats = workload.stats.clone();
        let start_io = stats.snapshot();
        // Metered runs pay (and count) the leaf-order traversal through the
        // buffer; fast runs take it from the snapshot and charge the local
        // counter instead.
        let (leaves, order_reads) = match config.exec_mode {
            ExecMode::Metered => (workload.rq.leaf_pages_hilbert_order(&config.domain), 0),
            ExecMode::Fast => workload.rq.leaf_pages_hilbert_order_peek(&config.domain),
        };
        let cache_capacity = if config.reuse_cells {
            config.cell_cache_capacity
        } else {
            0
        };
        // Both modes mirror cell-cache events into the workload's shared
        // stats: cache traffic is a CPU-side resource, not page I/O, so the
        // fast path can keep the harness-visible counters without touching
        // any buffer.
        let cache = CellCache::with_stats(cache_capacity, stats.clone());
        let filter_options =
            FilterOptions::for_kernel(config.filter_kernel).with_layout(config.leaf_layout);
        let scratch = UnitScratch::for_budget(workload.rp.config().node_byte_budget());
        NmPairIter {
            source: JoinSource::Workload(workload),
            config,
            mode: config.exec_mode,
            filter_options,
            leaves,
            next_leaf: 0,
            cache,
            pending: VecDeque::new(),
            state,
            stats,
            start_io,
            local_reads: order_reads,
            pairs_produced: 0,
            chunks_done: 0,
            finished: false,
            true_hits: HashSet::new(),
            scratch,
            cache_slot: None,
        }
    }

    /// Builds a fast-mode iterator over a shared tree-pair snapshot: no
    /// workload, no shared stats, a caller-provided private cache (its
    /// capacity is the query's quota from the global
    /// [`CacheBudget`](crate::cell_cache::CacheBudget)), and a precomputed
    /// Hilbert leaf order (`order_reads` non-leaf reads were spent
    /// computing it — charged to this query's local counter). The
    /// [`crate::service`] worker pool is the caller.
    pub(crate) fn over_snapshot(
        rp: &'a RTree<PointObject>,
        rq: &'a RTree<PointObject>,
        leaves: Vec<PageId>,
        order_reads: u64,
        cache: CellCache,
        config: CijConfig,
        state: SharedStreamState,
    ) -> Self {
        let filter_options =
            FilterOptions::for_kernel(config.filter_kernel).with_layout(config.leaf_layout);
        let scratch = UnitScratch::for_budget(rp.config().node_byte_budget());
        NmPairIter {
            source: JoinSource::Snapshot { rp, rq },
            config: config.with_exec_mode(ExecMode::Fast),
            mode: ExecMode::Fast,
            filter_options,
            leaves,
            next_leaf: 0,
            cache,
            pending: VecDeque::new(),
            state,
            stats: IoStats::new(),
            start_io: IoSnapshot::default(),
            local_reads: order_reads,
            pairs_produced: 0,
            chunks_done: 0,
            finished: false,
            true_hits: HashSet::new(),
            scratch,
            cache_slot: None,
        }
    }

    /// Attaches the slot the iterator deposits its reuse buffer into when
    /// the stream is exhausted.
    pub(crate) fn with_cache_slot(mut self, slot: CacheSlot) -> Self {
        self.cache_slot = Some(slot);
        self
    }

    /// Deposits the reuse buffer into the cache slot (once, on exhaustion).
    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if let Some(slot) = &self.cache_slot {
            let cache = std::mem::replace(&mut self.cache, CellCache::new(0));
            *slot.lock().unwrap() = Some(cache);
        }
    }

    /// Fail-stops the stream on a storage error: latches the first error
    /// into the shared state, abandons every unprocessed leaf and ends the
    /// stream. Pairs already emitted (all covered by a watermark) stay
    /// valid; nothing from the failing chunk was emitted. The reuse buffer
    /// is **not** deposited — cells refined against an error-serving empty
    /// read could be wrong, and must not leak into a later consumer.
    fn fail(&mut self, error: PageIoError) {
        {
            let mut state = self.state.lock().unwrap();
            if state.error.is_none() {
                state.error = Some(error);
            }
        }
        self.next_leaf = self.leaves.len();
        self.cache_slot = None;
        self.finish();
    }

    // ------------------------------------------------------------------
    // Sequential path (metered, worker_threads <= 1) — the classic leaf
    // loop, reading through the buffer directly.
    // ------------------------------------------------------------------

    /// The stream's cumulative cost so far, in the active mode's currency:
    /// buffer-simulated physical page accesses (metered) or logical
    /// snapshot reads (fast). Watermarks, progress samples and the cost
    /// breakdown all draw from this one figure, so they stay mutually
    /// consistent within a run.
    fn current_page_accesses(&self) -> u64 {
        match self.mode {
            ExecMode::Metered => self.stats.snapshot().since(&self.start_io).page_accesses(),
            ExecMode::Fast => self.local_reads,
        }
    }

    /// Records the per-leaf checkpoint: everything emitted up to here is
    /// final (the watermark API ported back from the multiway
    /// [`TupleStream`](crate::multiway::TupleStream)). One watermark per
    /// leaf of `RQ`, empty leaves included, so `leaf_index` is dense.
    fn record_watermark(&mut self, leaf_index: usize) {
        let page_accesses = self.current_page_accesses();
        self.state.lock().unwrap().watermarks.push(LeafWatermark {
            leaf_index,
            rows: self.pairs_produced,
            page_accesses,
        });
    }

    /// Processes one leaf of `RQ`, pushing its result pairs into `pending`
    /// and updating counters, progress, watermark and cost attribution.
    fn process_leaf(&mut self, leaf: PageId, leaf_index: usize) {
        // Wall-clock feeds `CijOutcome` elapsed-time stats only, never
        // pairs or counters (allowlisted CIJ-D101).
        let start = Instant::now();
        let domain = self.config.domain;
        let layout = self.config.leaf_layout;
        let (rp, rq) = self.source.trees_mut();
        // Reads go through the latching `NodeReader` impl (a failed read
        // serves an empty leaf and records the error on the tree), so one
        // poll per phase group suffices to fail-stop before anything wrong
        // is emitted.
        let group = NodeReader::read(rq, leaf).objects;
        if let Some(e) = rq.take_error() {
            self.fail(e);
            self.account(start);
            return;
        }
        if group.is_empty() {
            self.record_watermark(leaf_index);
            self.account(start);
            return;
        }

        // (1) Voronoi cells of the leaf's Q points.
        let cells_q = batch_voronoi_with(rq, &group, &domain, layout, &mut self.scratch.vor);

        // (2) Filter phase on RP.
        let (candidates, fstats) = batch_conditional_filter_scratch(
            rp,
            &cells_q,
            &domain,
            &self.filter_options,
            &mut self.scratch.filter,
        );

        // (3) Refinement phase: exact cells of the candidates through the
        // bounded reuse buffer. With REUSE disabled the cache was built
        // with capacity zero, so every lookup misses, nothing is stored,
        // and this degrades to one plain batch computation per leaf.
        let hits_before = self.cache.hits();
        let misses_before = self.cache.misses();
        let cells_p: Vec<ConvexPolygon> = batch_voronoi_cached_with(
            rp,
            &candidates,
            &domain,
            &mut self.cache,
            layout,
            &mut self.scratch.vor,
        );

        // Fail-stop before reporting: a read failure inside any kernel
        // above produced cells from empty-leaf fallbacks — emit nothing
        // from this leaf.
        if let Some(e) = rq.take_error().or_else(|| rp.take_error()) {
            self.fail(e);
            self.account(start);
            return;
        }

        // (4) Report intersecting pairs; track which candidates were true
        // hits for the false-hit-ratio of Figure 10. (The set is a reused
        // field, temporarily moved out so the emit closure can borrow the
        // iterator's queue.)
        let mut true_hits = std::mem::take(&mut self.true_hits);
        true_hits.clear();
        report_leaf_pairs(
            &group,
            &cells_q,
            &candidates,
            &cells_p,
            &mut self.scratch.p_bboxes,
            &mut true_hits,
            |p, q| {
                self.pending.push_back((p, q));
                self.pairs_produced += 1;
            },
        );

        {
            let page_accesses = self.current_page_accesses();
            let mut state = self.state.lock().unwrap();
            state.nm.q_cells_computed += group.len() as u64;
            state.nm.filter_candidates += candidates.len() as u64;
            state.nm.filter_true_hits += true_hits.len() as u64;
            state.nm.p_cells_reused += self.cache.hits() - hits_before;
            state.nm.p_cells_computed += self.cache.misses() - misses_before;
            state.nm.cell_cache_evictions = self.cache.evictions();
            state.nm.filter_points_examined += fstats.points_examined;
            state.nm.filter_entries_pruned += fstats.entries_pruned;
            state.nm.filter_clip_ops += fstats.clip_ops;
            state.nm.filter_poly_tests_skipped += fstats.poly_tests_skipped;
            state.progress.push(ProgressSample {
                page_accesses,
                pairs: self.pairs_produced,
            });
            state.watermarks.push(LeafWatermark {
                leaf_index,
                rows: self.pairs_produced,
                page_accesses,
            });
        }
        self.true_hits = true_hits;
        self.account(start);
    }

    /// Folds the leaf's elapsed CPU time and the I/O delta so far into the
    /// shared cost breakdown (NM has no materialisation phase, so all cost
    /// is JOIN cost). In fast mode the breakdown carries the local read
    /// count as physical+logical reads, so `CijOutcome::page_accesses()`
    /// and the final watermark agree on one figure.
    fn account(&mut self, start: Instant) {
        let join_io = match self.mode {
            ExecMode::Metered => self.stats.snapshot().since(&self.start_io),
            ExecMode::Fast => IoSnapshot {
                physical_reads: self.local_reads,
                logical_reads: self.local_reads,
                ..IoSnapshot::default()
            },
        };
        let mut state = self.state.lock().unwrap();
        state.breakdown.join_cpu += start.elapsed();
        state.breakdown.join_io = join_io;
    }

    // ------------------------------------------------------------------
    // Chunked path (worker_threads > 1, and every fast-mode run) — see the
    // module docs for the determinism protocol.
    // ------------------------------------------------------------------

    /// Charges one read record of the chunked protocol at its sequential
    /// position: metered mode replays its trace through the real buffer of
    /// the `side` tree, fast mode adds its count to the local counter.
    fn settle(&mut self, side: Side, record: &ReadRecord) {
        match self.mode {
            ExecMode::Metered => {
                let (rp, rq) = self.source.trees_mut();
                let tree = match side {
                    Side::P => rp,
                    Side::Q => rq,
                };
                for &page in &record.trace {
                    tree.replay_read(page);
                }
            }
            ExecMode::Fast => self.local_reads += record.reads,
        }
    }

    /// Processes the next bounded chunk of leaves on the worker pool and
    /// appends their pairs to `pending` in Hilbert leaf order.
    fn process_chunk(&mut self) {
        // Chunk wall-clock: elapsed-time attribution only (allowlisted
        // CIJ-D101).
        let start = Instant::now();
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
        let layout = self.config.leaf_layout;
        let filter_options = self.filter_options;
        let mode = self.mode;
        let budget = self.source.rp().config().node_byte_budget();

        // Phase 1 (parallel): scan — leaf read, Q cells, conditional filter,
        // all against immutable tree snapshots. Metered mode records traced
        // page accesses for later replay; fast mode only counts them. Each
        // worker allocates its unit scratch once and reuses it across every
        // leaf it picks up.
        let scans: Vec<LeafScan> = {
            let rp = self.source.rp();
            let rq = self.source.rq();
            run_ordered_scratch(
                workers,
                chunk.len(),
                || UnitScratch::for_budget(budget),
                |i, scratch| {
                    scan_leaf(
                        rp,
                        rq,
                        chunk[i],
                        &domain,
                        layout,
                        &filter_options,
                        scratch,
                        mode,
                    )
                },
            )
        };

        // Fail-stop gate: if any leaf's scan hit a storage error, nothing
        // from this chunk is emitted (first error in leaf order wins) and
        // the cache policy below never runs on the garbage candidates.
        if let Some(e) = scans.iter().find_map(LeafScan::error) {
            self.fail(e);
            self.account(start);
            return;
        }

        // Phase 2 (coordinator, leaf order): replacement-policy decisions on
        // the real cache — identical hit/miss/evict sequence to a
        // sequential run, and it fixes each leaf's `missing` set.
        let mut evictions_after: Vec<u64> = Vec::with_capacity(scans.len());
        let plans: Vec<UnitPlan> = scans
            .iter()
            .map(|scan| {
                let plan = policy_pass(&mut self.cache, &scan.candidates);
                evictions_after.push(self.cache.evictions());
                plan
            })
            .collect();

        // Phase 3 (parallel): refine — exact cells of each leaf's missing
        // candidates, again against the snapshot (traced or counted per the
        // mode).
        let (cells_refined, refine_reads): (Vec<Vec<ConvexPolygon>>, Vec<ReadRecord>) =
            refine_units(
                workers,
                &plans,
                self.source.rp(),
                mode,
                budget,
                &domain,
                layout,
            )
            .into_iter()
            .unzip();
        // Second fail-stop gate: a refine-phase read failure also discards
        // the whole chunk. The cache's policy state already advanced, but
        // the stream ends here and never deposits the buffer, so the
        // inconsistency cannot escape.
        if let Some(e) = refine_reads.iter().find_map(|r| r.error.clone()) {
            self.fail(e);
            self.account(start);
            return;
        }

        // Phase 4 (coordinator, leaf order): resolve each leaf's aligned
        // candidate cells — hits from the cache (the payload the sequential
        // run would have served), misses from the leaf's own refinement —
        // then apply the deferred payload updates of the leaf's puts.
        let resolved: Vec<Vec<ConvexPolygon>> = plans
            .iter()
            .zip(&scans)
            .zip(cells_refined)
            .map(|((plan, scan), cells)| {
                resolve_unit(&mut self.cache, &scan.candidates, plan, cells)
            })
            .collect();

        // Phase 5 (parallel): pair reporting — the same kernel as the
        // sequential path, so per-leaf pair order is identical.
        let reported: Vec<(Vec<(u64, u64)>, u64)> =
            run_ordered_scratch(workers, scans.len(), Vec::new, |i, p_bboxes| {
                let scan = &scans[i];
                let mut pairs: Vec<(u64, u64)> = Vec::new();
                let mut true_hits: HashSet<u64> = HashSet::new();
                report_leaf_pairs(
                    &scan.group,
                    &scan.cells_q,
                    &scan.candidates,
                    &resolved[i],
                    p_bboxes,
                    &mut true_hits,
                    |p, q| pairs.push((p, q)),
                );
                (pairs, true_hits.len() as u64)
            });

        // Phase 6 (coordinator, leaf order): settle each leaf's read
        // records in sequential order (rq scan, rp scan, refine), then fold
        // in the counters and emit the pairs: ordered reassembly.
        for (i, scan) in scans.iter().enumerate() {
            self.settle(Side::Q, &scan.rq_reads);
            self.settle(Side::P, &scan.rp_reads);
            self.settle(Side::P, &refine_reads[i]);
            if scan.group.is_empty() {
                self.record_watermark(first_leaf_index + i);
                continue;
            }
            let (pairs, true_hit_count) = &reported[i];
            self.pairs_produced += pairs.len() as u64;
            {
                let page_accesses = self.current_page_accesses();
                let mut state = self.state.lock().unwrap();
                state.nm.q_cells_computed += scan.group.len() as u64;
                state.nm.filter_candidates += scan.candidates.len() as u64;
                state.nm.filter_true_hits += true_hit_count;
                state.nm.p_cells_reused += plans[i].reused;
                state.nm.p_cells_computed += plans[i].computed;
                state.nm.cell_cache_evictions = evictions_after[i];
                state.nm.filter_points_examined += scan.fstats.points_examined;
                state.nm.filter_entries_pruned += scan.fstats.entries_pruned;
                state.nm.filter_clip_ops += scan.fstats.clip_ops;
                state.nm.filter_poly_tests_skipped += scan.fstats.poly_tests_skipped;
                state.progress.push(ProgressSample {
                    page_accesses,
                    pairs: self.pairs_produced,
                });
                state.watermarks.push(LeafWatermark {
                    leaf_index: first_leaf_index + i,
                    rows: self.pairs_produced,
                    page_accesses,
                });
            }
            self.pending.extend(pairs.iter().copied());
        }
        self.account(start);
    }
}

/// Step 4 of Algorithm 6 — the pair-reporting kernel, shared by the
/// sequential and the parallel path so the two can never drift apart:
/// walks `group × candidates` in order, emits every pair whose exact cells
/// intersect through `emit` and records the distinct joining `P` ids in
/// `true_hits` (the Figure 10 false-hit-ratio numerator). `cells_q` and
/// `cells_p` are aligned with `group` and `candidates` respectively; the
/// candidate cells' bounding boxes are computed once per leaf into the
/// caller's `p_bboxes` buffer.
fn report_leaf_pairs(
    group: &[PointObject],
    cells_q: &[ConvexPolygon],
    candidates: &[PointObject],
    cells_p: &[ConvexPolygon],
    p_bboxes: &mut Vec<Rect>,
    true_hits: &mut HashSet<u64>,
    mut emit: impl FnMut(u64, u64),
) {
    p_bboxes.clear();
    p_bboxes.extend(cells_p.iter().map(ConvexPolygon::bbox));
    for (q_obj, q_cell) in group.iter().zip(cells_q) {
        let q_bbox = q_cell.bbox();
        for ((p_obj, p_cell), p_bbox) in candidates.iter().zip(cells_p).zip(p_bboxes.iter()) {
            if p_bbox.intersects(&q_bbox) && p_cell.intersects(q_cell) {
                true_hits.insert(p_obj.id.0);
                emit(p_obj.id.0, q_obj.id.0);
            }
        }
    }
}

/// The chunked scan of one leaf: read the leaf node, compute its points'
/// Voronoi cells, run the conditional filter — all through snapshot readers
/// of `mode`. Metered readers record page traces (so the sequences match
/// what a sequential run would access for this leaf); fast readers only
/// count.
#[allow(clippy::too_many_arguments)]
fn scan_leaf(
    rp: &RTree<PointObject>,
    rq: &RTree<PointObject>,
    leaf: PageId,
    domain: &Rect,
    layout: LeafLayout,
    filter_options: &FilterOptions,
    scratch: &mut UnitScratch,
    mode: ExecMode,
) -> LeafScan {
    let mut rq_reader = mode.reader(rq);
    let mut rp_reader = mode.reader(rp);
    let group = rq_reader.read(leaf).objects;
    let (cells_q, (candidates, fstats)) = if group.is_empty() {
        (Vec::new(), (Vec::new(), FilterStats::default()))
    } else {
        let cells_q = batch_voronoi_with(&mut rq_reader, &group, domain, layout, &mut scratch.vor);
        let filtered = batch_conditional_filter_scratch(
            &mut rp_reader,
            &cells_q,
            domain,
            filter_options,
            &mut scratch.filter,
        );
        (cells_q, filtered)
    };
    LeafScan {
        group,
        cells_q,
        candidates,
        fstats,
        rq_reads: rq_reader.into_record(),
        rp_reads: rp_reader.into_record(),
    }
}

/// The coordinator's replacement-policy verdict for one unit of the chunked
/// protocol (an NM-CIJ leaf, a multiway probe unit): which candidates hit
/// the reuse buffer, which must be computed (`missing`, in candidate order
/// — exactly the cells a sequential run would compute), and the deferred
/// payload bookkeeping of the puts.
#[derive(Default)]
pub(crate) struct UnitPlan {
    /// Aligned with the unit's candidates: `true` when the cell was a hit.
    hit: Vec<bool>,
    /// Candidates whose exact cells this unit computes, in candidate order.
    missing: Vec<PointObject>,
    /// One entry per `missing` member: `(id, evicted victim)`.
    puts: Vec<(u64, Option<u64>)>,
    /// Cache hits attributed to this unit.
    pub(crate) reused: u64,
    /// Cache misses attributed to this unit.
    pub(crate) computed: u64,
}

/// Runs the replacement policy of one unit over `candidates` on the
/// real cache (coordinator only, unit order) — the exact hit/miss/eviction
/// sequence a sequential run would produce.
pub(crate) fn policy_pass(cache: &mut CellCache, candidates: &[PointObject]) -> UnitPlan {
    let mut plan = UnitPlan::default();
    for cand in candidates {
        if cache.policy_get(cand.id.0) {
            plan.hit.push(true);
            plan.reused += 1;
        } else {
            plan.hit.push(false);
            plan.computed += 1;
            plan.missing.push(*cand);
        }
    }
    for m in &plan.missing {
        plan.puts.push((m.id.0, cache.policy_put(m.id.0)));
    }
    plan
}

/// Resolves one unit's aligned candidate cells: hits from the cache
/// payloads, misses from the unit's freshly refined cells, applying the
/// deferred payload updates of the unit's puts (coordinator only, unit
/// order — hits recorded before a put must still see the victim's payload).
pub(crate) fn resolve_unit(
    cache: &mut CellCache,
    candidates: &[PointObject],
    plan: &UnitPlan,
    refined: Vec<ConvexPolygon>,
) -> Vec<ConvexPolygon> {
    let mut aligned: Vec<Option<ConvexPolygon>> = candidates
        .iter()
        .zip(&plan.hit)
        .map(|(cand, hit)| hit.then(|| cache.resolved_payload(cand.id.0)))
        .collect();
    let mut fresh = refined.into_iter();
    let mut puts = plan.puts.iter();
    for slot in aligned.iter_mut() {
        if slot.is_none() {
            let cell = fresh
                .next()
                .expect("one refined cell per missing candidate");
            let (id, victim) = puts.next().expect("one put per missing candidate");
            if let Some(v) = victim {
                cache.drop_payload(*v);
            }
            cache.fill_payload(*id, &cell);
            *slot = Some(cell);
        }
    }
    aligned
        .into_iter()
        .map(|cell| cell.expect("every slot filled"))
        .collect()
}

/// The refine phase of the chunked protocol (parallel, per unit): the exact
/// cells of each unit's missing candidates in `tree`, read through a
/// snapshot reader of `mode`, each worker reusing one Voronoi scratch.
pub(crate) fn refine_units(
    workers: usize,
    plans: &[UnitPlan],
    tree: &RTree<PointObject>,
    mode: ExecMode,
    budget: usize,
    domain: &Rect,
    layout: LeafLayout,
) -> Vec<(Vec<ConvexPolygon>, ReadRecord)> {
    run_ordered_scratch(
        workers,
        plans.len(),
        || VorScratch::for_budget(budget),
        |u, vor| {
            let missing = &plans[u].missing;
            let mut reader = mode.reader(tree);
            let cells = if missing.is_empty() {
                Vec::new()
            } else {
                batch_voronoi_with(&mut reader, missing, domain, layout, vor)
            };
            (cells, reader.into_record())
        },
    )
}

/// Runs `f(0..n)` on a scoped pool of at most `workers` threads and returns
/// the results in index order. Work is handed out through a shared atomic
/// cursor, so uneven leaf units balance across the pool. Worker panics
/// propagate to the caller.
///
/// Shared with the multiway [`TupleStream`](crate::multiway::TupleStream),
/// whose parallel phases use the same scheduling.
pub(crate) fn run_ordered<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_ordered_scratch(workers, n, || (), |i, ()| f(i))
}

/// [`run_ordered`] with a per-worker scratch value: `mk` runs **once per
/// worker thread** (not per unit) and the resulting scratch is handed to
/// every `f(i, scratch)` call that thread executes — the per-unit arena
/// reuse that keeps the SoA hot loops allocation-free. Scheduling, ordering
/// and panic behaviour are exactly those of [`run_ordered`].
pub(crate) fn run_ordered_scratch<T, S, M, F>(workers: usize, n: usize, mk: M, f: F) -> Vec<T>
where
    T: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = workers.min(n);
    if threads <= 1 {
        let mut scratch = mk();
        return (0..n).map(|i| f(i, &mut scratch)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = mk();
                    let mut produced: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        produced.push((i, f(i, &mut scratch)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("NM-CIJ worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every leaf unit produces a result"))
        .collect()
}

impl Iterator for NmPairIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            if let Some(pair) = self.pending.pop_front() {
                return Some(pair);
            }
            if self.next_leaf >= self.leaves.len() {
                self.finish();
                return None;
            }
            // Fast mode always runs the chunked protocol (its phases never
            // touch a buffer, so there is nothing for a sequential loop to
            // meter differently); metered mode keeps the classic leaf loop
            // at one worker.
            if self.mode == ExecMode::Fast || self.config.effective_worker_threads() > 1 {
                self.process_chunk();
            } else {
                let leaf = self.leaves[self.next_leaf];
                let leaf_index = self.next_leaf;
                self.next_leaf += 1;
                self.process_leaf(leaf, leaf_index);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cij;
    use crate::fm::fm_cij;
    use crate::pm::pm_cij;
    use cij_geom::Point;
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
    fn matches_brute_force_oracle() {
        let config = small_config();
        let p = random_points(75, 101);
        let q = random_points(65, 102);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = nm_cij(&mut w, &config);
        assert_eq!(
            outcome.sorted_pairs(),
            brute_force_cij(&p, &q, &config.domain)
        );
    }

    #[test]
    fn all_three_algorithms_agree() {
        let config = small_config();
        let p = random_points(150, 103);
        let q = random_points(130, 104);
        let fm = {
            let mut w = Workload::build(&p, &q, &config);
            fm_cij(&mut w, &config).sorted_pairs()
        };
        let pm = {
            let mut w = Workload::build(&p, &q, &config);
            pm_cij(&mut w, &config).sorted_pairs()
        };
        let nm = {
            let mut w = Workload::build(&p, &q, &config);
            nm_cij(&mut w, &config).sorted_pairs()
        };
        assert_eq!(fm, pm);
        assert_eq!(pm, nm);
        assert!(!nm.is_empty());
    }

    #[test]
    fn no_reuse_agrees_but_computes_more_cells() {
        let p = random_points(400, 105);
        let q = random_points(400, 106);
        let with_reuse = {
            let config = small_config().with_reuse(true);
            let mut w = Workload::build(&p, &q, &config);
            nm_cij(&mut w, &config)
        };
        let without_reuse = {
            let config = small_config().with_reuse(false);
            let mut w = Workload::build(&p, &q, &config);
            nm_cij(&mut w, &config)
        };
        assert_eq!(with_reuse.sorted_pairs(), without_reuse.sorted_pairs());
        assert!(
            with_reuse.nm.p_cells_computed < without_reuse.nm.p_cells_computed,
            "REUSE ({}) must compute fewer exact P cells than NO-REUSE ({})",
            with_reuse.nm.p_cells_computed,
            without_reuse.nm.p_cells_computed
        );
        assert!(with_reuse.nm.p_cells_reused > 0);
        assert_eq!(without_reuse.nm.p_cells_reused, 0);
    }

    #[test]
    fn nm_has_no_materialisation_cost_and_lowest_total_io() {
        let config = small_config();
        let p = random_points(600, 107);
        let q = random_points(600, 108);
        let fm = {
            let mut w = Workload::build(&p, &q, &config);
            fm_cij(&mut w, &config)
        };
        let pm = {
            let mut w = Workload::build(&p, &q, &config);
            pm_cij(&mut w, &config)
        };
        let (nm, lb) = {
            let mut w = Workload::build(&p, &q, &config);
            let lb = w.lower_bound_io();
            (nm_cij(&mut w, &config), lb)
        };
        assert_eq!(nm.breakdown.mat_io.page_accesses(), 0);
        assert!(
            nm.page_accesses() < pm.page_accesses(),
            "NM ({}) must beat PM ({})",
            nm.page_accesses(),
            pm.page_accesses()
        );
        assert!(
            pm.page_accesses() < fm.page_accesses(),
            "PM ({}) must beat FM ({})",
            pm.page_accesses(),
            fm.page_accesses()
        );
        assert!(nm.page_accesses() >= lb, "no algorithm can beat LB");
    }

    #[test]
    fn nm_is_non_blocking_first_pairs_arrive_early() {
        let config = small_config();
        let p = random_points(800, 109);
        let q = random_points(800, 110);
        let fm = {
            let mut w = Workload::build(&p, &q, &config);
            fm_cij(&mut w, &config)
        };
        let nm = {
            let mut w = Workload::build(&p, &q, &config);
            nm_cij(&mut w, &config)
        };
        let nm_first = nm.progress.first().unwrap();
        let fm_first = fm.progress.first().unwrap();
        assert!(nm_first.pairs > 0);
        assert!(
            nm_first.page_accesses < fm_first.page_accesses / 4,
            "NM first output after {} accesses, FM after {}",
            nm_first.page_accesses,
            fm_first.page_accesses
        );
    }

    #[test]
    fn false_hit_ratio_is_low() {
        let config = small_config();
        let p = random_points(500, 111);
        let q = random_points(500, 112);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = nm_cij(&mut w, &config);
        let fhr = outcome.nm.false_hit_ratio();
        assert!(
            fhr < 0.25,
            "false hit ratio {fhr} should be small (paper reports < 0.1)"
        );
        assert!(outcome.nm.filter_candidates >= outcome.nm.filter_true_hits);
    }

    #[test]
    fn every_point_participates_in_the_result() {
        let config = small_config();
        let p = random_points(100, 113);
        let q = random_points(120, 114);
        let mut w = Workload::build(&p, &q, &config);
        let outcome = nm_cij(&mut w, &config);
        for i in 0..p.len() as u64 {
            assert!(outcome.pairs.iter().any(|&(a, _)| a == i), "p{i} missing");
        }
        for j in 0..q.len() as u64 {
            assert!(outcome.pairs.iter().any(|&(_, b)| b == j), "q{j} missing");
        }
    }

    #[test]
    fn tiny_cell_cache_still_produces_exact_results() {
        // Eviction pressure must never change the join result: evicted
        // cells are recomputed, not lost.
        let p = random_points(300, 115);
        let q = random_points(300, 116);
        let roomy = {
            let config = small_config();
            let mut w = Workload::build(&p, &q, &config);
            nm_cij(&mut w, &config)
        };
        let tiny = {
            let config = small_config().with_cell_cache_capacity(4);
            let mut w = Workload::build(&p, &q, &config);
            nm_cij(&mut w, &config)
        };
        assert_eq!(roomy.sorted_pairs(), tiny.sorted_pairs());
        assert!(
            tiny.nm.cell_cache_evictions > 0,
            "capacity 4 must evict on this workload"
        );
        assert!(
            tiny.nm.p_cells_computed >= roomy.nm.p_cells_computed,
            "evictions can only force recomputation, never remove it"
        );
    }

    /// Runs NM-CIJ with a given thread count and returns the full outcome.
    fn run_with_threads(
        p: &[Point],
        q: &[Point],
        config: &CijConfig,
        threads: usize,
    ) -> CijOutcome {
        let config = config.with_worker_threads(threads);
        let mut w = Workload::build(p, q, &config);
        nm_cij(&mut w, &config)
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let base = small_config();
        let p = random_points(500, 117);
        let q = random_points(500, 118);
        let sequential = run_with_threads(&p, &q, &base, 1);
        for threads in [2usize, 3, 4] {
            let parallel = run_with_threads(&p, &q, &base, threads);
            // Pairs: same set AND same order.
            assert_eq!(
                parallel.pairs, sequential.pairs,
                "pair sequence diverged at {threads} threads"
            );
            // NM counters match exactly.
            assert_eq!(parallel.nm, sequential.nm, "counters diverged");
            // Page-access totals and per-leaf progress match exactly.
            assert_eq!(
                parallel.page_accesses(),
                sequential.page_accesses(),
                "page accesses diverged"
            );
            assert_eq!(parallel.progress, sequential.progress, "progress diverged");
        }
    }

    #[test]
    fn parallel_run_matches_under_eviction_pressure() {
        // A tiny reuse buffer maximises policy churn: hits, misses and
        // evictions must still be decided identically to sequential order.
        let base = small_config().with_cell_cache_capacity(4);
        let p = random_points(350, 119);
        let q = random_points(350, 120);
        let sequential = run_with_threads(&p, &q, &base, 1);
        let parallel = run_with_threads(&p, &q, &base, 4);
        assert_eq!(parallel.pairs, sequential.pairs);
        assert_eq!(parallel.nm, sequential.nm);
        assert!(parallel.nm.cell_cache_evictions > 0);
        assert_eq!(parallel.page_accesses(), sequential.page_accesses());
    }

    #[test]
    fn fast_mode_is_pair_and_counter_identical_to_metered() {
        let base = small_config();
        let p = random_points(400, 123);
        let q = random_points(400, 124);
        let metered = {
            let mut w = Workload::build(&p, &q, &base);
            nm_cij(&mut w, &base)
        };
        for threads in [1usize, 4] {
            let fast_config = base
                .with_exec_mode(ExecMode::Fast)
                .with_worker_threads(threads);
            let mut w = Workload::build(&p, &q, &fast_config);
            let fast = nm_cij(&mut w, &fast_config);
            // Pairs: same set AND same order; counters identical.
            assert_eq!(fast.pairs, metered.pairs, "{threads} threads");
            assert_eq!(fast.nm, metered.nm, "{threads} threads");
            // Fast accounting is logical snapshot reads — nonzero, with the
            // final watermark agreeing with the outcome total, and the
            // workload's shared page counters untouched.
            assert!(fast.page_accesses() > 0);
            assert_eq!(
                fast.watermarks.last().unwrap().page_accesses,
                fast.page_accesses()
            );
            assert_eq!(
                w.stats.snapshot().page_accesses(),
                0,
                "fast mode never touches the shared page counters"
            );
        }
    }

    #[test]
    fn fast_scans_count_the_reads_metered_scans_trace() {
        let config = small_config();
        let p = random_points(200, 125);
        let q = random_points(200, 126);
        let w = Workload::build(&p, &q, &config);
        let (leaves, _) = w.rq.leaf_pages_hilbert_order_peek(&config.domain);
        let options =
            FilterOptions::for_kernel(config.filter_kernel).with_layout(config.leaf_layout);
        let mut scratch = UnitScratch::for_budget(w.rp.config().node_byte_budget());
        let mut scan = |leaf, mode| {
            let (domain, layout) = (&config.domain, config.leaf_layout);
            scan_leaf(
                &w.rp,
                &w.rq,
                leaf,
                domain,
                layout,
                &options,
                &mut scratch,
                mode,
            )
        };
        for &leaf in &leaves {
            let fast = scan(leaf, ExecMode::Fast);
            let metered = scan(leaf, ExecMode::Metered);
            assert_eq!(fast.candidates, metered.candidates);
            assert!(fast.rq_reads.reads > 0 && fast.rp_reads.reads > 0);
            for (f, m) in [
                (&fast.rq_reads, &metered.rq_reads),
                (&fast.rp_reads, &metered.rp_reads),
            ] {
                assert!(f.trace.is_empty(), "a fast scan records no trace");
                assert_eq!(f.trace.capacity(), 0, "nor allocates one");
                assert_eq!(m.reads, m.trace.len() as u64, "one entry per read");
                assert_eq!(f.reads, m.reads, "both modes read the same pages");
            }
        }
        // A fast join settles by count alone: nothing is replayed, so the
        // shared counters never move.
        let mut w = w;
        let outcome = nm_cij(&mut w, &config.with_exec_mode(ExecMode::Fast));
        assert!(!outcome.pairs.is_empty());
        assert_eq!(w.stats.snapshot().page_accesses(), 0);
    }

    #[test]
    fn parallel_keep_cache_serves_the_same_cells() {
        let config = small_config().with_worker_threads(4);
        let p = random_points(120, 121);
        let q = random_points(120, 122);
        let mut w = Workload::build(&p, &q, &config);
        let (outcome, cache) = nm_cij_keep_cache(&mut w, &config);
        assert!(!outcome.is_empty());
        assert!(
            !cache.is_empty(),
            "the deposited reuse buffer holds the last leaves' cells"
        );
        assert_eq!(
            cache.hits(),
            outcome.nm.p_cells_reused,
            "deposited cache counters match the outcome"
        );
    }

    #[test]
    fn corrupt_page_fail_stops_the_stream_with_a_structured_error() {
        use cij_pagestore::{FaultKind, FaultSpec};
        let config = small_config();
        let p = random_points(300, 115);
        let q = random_points(300, 116);
        let mut w = Workload::build(&p, &q, &config);
        // Corrupt a mid-run Q leaf so some pairs flow before the failure.
        let (leaves, _) = w.rq.leaf_pages_hilbert_order_peek(&config.domain);
        let target = leaves[leaves.len() / 2];
        w.rq.flush();
        w.rq.drop_buffer();
        w.rq.inject_fault(FaultSpec::corrupt_frame(target.0));
        let mut stream = NmExecutor.stream(&mut w, &config);
        let drained: Vec<(u64, u64)> = stream.by_ref().collect();
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
            "every emitted pair is watermark-covered: failed chunks emit nothing"
        );
        assert!(stream.try_into_outcome().is_err());
    }

    #[test]
    fn transient_faults_never_change_the_join_result() {
        use cij_pagestore::FaultSpec;
        let p = random_points(400, 117);
        let q = random_points(400, 118);
        for threads in [1usize, 4] {
            let config = small_config().with_worker_threads(threads);
            // Both workloads start cold so metered physical reads agree.
            let clean = {
                let mut w = Workload::build(&p, &q, &config);
                w.reset_measurement();
                nm_cij(&mut w, &config)
            };
            let faulty = {
                let mut w = Workload::build(&p, &q, &config);
                w.reset_measurement();
                w.rp.inject_fault(FaultSpec::transient(0xFA117));
                w.rq.inject_fault(FaultSpec::transient(0xFA118));
                nm_cij(&mut w, &config)
            };
            assert_eq!(clean.sorted_pairs(), faulty.sorted_pairs());
            assert_eq!(clean.nm, faulty.nm);
            assert_eq!(
                clean.page_accesses(),
                faulty.page_accesses(),
                "retried transients recover inside the store and stay invisible"
            );
        }
    }
}
