//! Configuration shared by the CIJ algorithms.

use cij_geom::Rect;
use cij_pagestore::StorageBackend;
use cij_rtree::{LeafLayout, RTree, RTreeConfig, RTreeObject, SnapshotReader};

/// Which conditional-filter kernel
/// [`batch_conditional_filter`](crate::filter::batch_conditional_filter)
/// runs — the strategy for computing each examined point's approximate cell
/// and for testing cells/entries against the probe polygons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterKernel {
    /// The sub-quadratic kernel: candidates live in a uniform-grid spatial
    /// index queried nearest-first with a sound distance cutoff, and probe
    /// polygons are bbox-indexed, so per-point clipping touches only *near*
    /// candidates and the polygon tests stop being linear scans. The
    /// default; returns the same candidate set as [`FilterKernel::Scan`].
    #[default]
    Indexed,
    /// The historical quadratic kernel: every examined point clips against
    /// all candidates found so far and every polygon test scans the whole
    /// batch. Kept as the parity/benchmark baseline (the `filter_kernel`
    /// experiment asserts identical candidates and counts the clip
    /// operations the indexed kernel saves).
    Scan,
}

impl FilterKernel {
    /// Short label used by benches and tables.
    pub fn name(&self) -> &'static str {
        match self {
            FilterKernel::Indexed => "indexed",
            FilterKernel::Scan => "scan",
        }
    }
}

impl std::str::FromStr for FilterKernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "indexed" => Ok(FilterKernel::Indexed),
            "scan" => Ok(FilterKernel::Scan),
            other => Err(format!(
                "unknown filter kernel {other:?} (expected \"indexed\" or \"scan\")"
            )),
        }
    }
}

/// How the multiway CIJ picks the **driver tree** — the input set whose
/// Hilbert-ordered leaves drive the leaf units of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiwayDriver {
    /// Pick the cheapest driver by the cost model of
    /// [`MultiwayWorkload::estimated_driver_cost`](crate::workload::MultiwayWorkload::estimated_driver_cost)
    /// (estimated leaf count of the driver × summed fan-out of the extension
    /// sets, from tree metadata). Ties resolve to the lowest set index, so
    /// symmetric workloads behave exactly like the historical hard-coded
    /// choice. The default.
    #[default]
    CostBased,
    /// Always drive with the given set index (PR-4 hard-coded set 0 — the
    /// baseline the `multiway_scale` experiment compares against, and the
    /// pin parity tests use: at a fixed driver, results are identical across
    /// thread counts and storage backends tuple-for-tuple).
    Fixed(usize),
}

impl MultiwayDriver {
    /// Short label used by benches and tables.
    pub fn name(&self) -> String {
        match self {
            MultiwayDriver::CostBased => "cost".to_string(),
            MultiwayDriver::Fixed(d) => format!("fixed({d})"),
        }
    }
}

/// Which execution path a [`CijExecutor`](crate::engine::CijExecutor)
/// stream runs — the trade between exact cost accounting and per-query
/// overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The byte-exact counted path: every page access flows through the
    /// real LRU buffer and the shared [`cij_pagestore::IoStats`]. The
    /// chunked protocol's workers read through traced
    /// [`SnapshotReader`]s, whose page traces the coordinator replays in
    /// Hilbert leaf order. This is the correctness *and* accounting oracle
    /// — tests and the paper-figure benches run it. The default.
    #[default]
    Metered,
    /// The lock-light serving path: queries traverse the tree pages as an
    /// immutable snapshot (`peek`-based reads that never touch the shared
    /// buffer or its mutex-free but contended counters), skip trace
    /// recording and coordinator replay entirely, and count I/O in a
    /// per-query-local counter. Results — pairs, tuples, set *and* order —
    /// are identical to [`ExecMode::Metered`]; only the cost accounting
    /// changes meaning (logical snapshot reads instead of buffer-simulated
    /// physical accesses). Many simultaneous queries can share one
    /// `Arc`-snapshotted tree pair; see [`crate::service`].
    Fast,
}

impl ExecMode {
    /// Short label used by benches and tables.
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::Metered => "metered",
            ExecMode::Fast => "fast",
        }
    }

    /// The snapshot reader the chunked protocol traverses `tree` with in
    /// this mode: traced in metered mode (the coordinator replays its trace
    /// through the real buffer), untraced in fast mode (its count lands on
    /// the query's local counter).
    pub(crate) fn reader<D: RTreeObject>(self, tree: &RTree<D>) -> SnapshotReader<'_, D> {
        match self {
            ExecMode::Metered => SnapshotReader::traced(tree),
            ExecMode::Fast => SnapshotReader::new(tree),
        }
    }
}

impl std::str::FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "metered" => Ok(ExecMode::Metered),
            "fast" => Ok(ExecMode::Fast),
            other => Err(format!(
                "unknown exec mode {other:?} (expected \"metered\" or \"fast\")"
            )),
        }
    }
}

/// Configuration of a CIJ evaluation.
#[derive(Debug, Clone, Copy)]
pub struct CijConfig {
    /// Space domain the Voronoi cells are clipped to (the paper normalises
    /// all data to `[0, 10000]²`).
    pub domain: Rect,
    /// R-tree configuration used for any tree the algorithms build
    /// themselves (the Voronoi R-trees `R'P`/`R'Q`).
    pub rtree: RTreeConfig,
    /// Storage backend for every page store this configuration builds — the
    /// input trees of a [`Workload`](crate::workload::Workload), the
    /// materialised Voronoi R-trees, the multiway trees.
    ///
    /// [`StorageBackend::Heap`] (default) keeps page frames in memory, the
    /// historical simulated disk; [`StorageBackend::File`] keeps them in a
    /// real file accessed with positioned I/O; [`StorageBackend::Mmap`]
    /// memory-maps an unlinked temp file so the kernel manages frame
    /// residency. The choice cannot affect results or page-access counts
    /// (the backend parity guarantee of `cij_pagestore`) — it decides
    /// whether the counted accesses move real bytes, which the
    /// `io_validation` bench experiment cross-checks.
    pub storage_backend: StorageBackend,
    /// Buffer capacity, as a fraction of each tree's size, applied to trees
    /// the algorithms build themselves (2 % in the paper).
    pub buffer_fraction: f64,
    /// Lower bound on the buffer capacity in pages.
    ///
    /// The paper's default buffer is "2 % of the data size" at |P| = 100 K,
    /// i.e. roughly 40 one-kilobyte pages in absolute terms. When experiments
    /// are run at reduced scale, 2 % of a small tree would be only a handful
    /// of pages — far below the working-set size of a single Voronoi-cell
    /// computation — which distorts the relative costs. This floor keeps the
    /// absolute buffer comparable to the paper's default; sweeps that want
    /// full control (Figure 8a) set it to 1.
    pub min_buffer_pages: usize,
    /// Whether NM-CIJ reuses exact Voronoi cells of `P` computed for the
    /// previous leaf of `RQ` (the REUSE heuristic of Section IV-B).
    pub reuse_cells: bool,
    /// Capacity (in cells) of the bounded LRU
    /// [`CellCache`](crate::cell_cache::CellCache) used as the Section IV-B
    /// reuse buffer by NM-CIJ and the multiway/grouped extensions.
    ///
    /// The seed implementation grew an unbounded `HashMap`; the paper's
    /// buffer experiments (Fig. 8a) show reuse benefit saturating once the
    /// buffer covers the candidate overlap of neighbouring `RQ` leaves — a
    /// few leaves' worth of cells. The default (1024) is comfortably above
    /// that saturation point at the paper's default leaf sizes while keeping
    /// memory bounded at scale. Zero disables caching.
    pub cell_cache_capacity: usize,
    /// Granularity of the progressive-output trace: a sample is recorded
    /// every this many result pairs (plus one sample per outer-loop step).
    pub progress_sample_pairs: u64,
    /// Number of worker threads NM-CIJ uses to process the leaves of `RQ`.
    ///
    /// With `0` or `1` (the default) a metered run takes the classic
    /// single-threaded leaf loop, which reads through the buffer directly; a
    /// fast run always takes the chunked protocol, here with every phase
    /// inline on the calling thread. Values above `1` execute leaf units
    /// `(cells → filter → refine)` of the chunked protocol on a
    /// [`std::thread::scope`] worker pool and reassemble the per-leaf pair
    /// buffers in Hilbert leaf order, so the emitted pairs (set *and*
    /// order), the NM counters and the page-access totals are identical to
    /// the sequential run — workers compute against the trees as immutable
    /// snapshots and, in metered mode, the coordinator replays each leaf's
    /// page-access trace through the real LRU buffer in leaf order (see
    /// [`crate::nm`] for the full protocol). The stream stays lazy: at most
    /// a small multiple of `worker_threads` leaves are in flight, so first
    /// pairs never wait for the whole join.
    ///
    /// The multiway [`TupleStream`](crate::multiway::TupleStream) honours
    /// the same knob with the same exact-parity guarantee over its leaf
    /// units.
    pub worker_threads: usize,
    /// Conditional-filter kernel every algorithm's filter phase runs (see
    /// [`FilterKernel`]); [`FilterKernel::Indexed`] by default, with
    /// [`FilterKernel::Scan`] as the historical quadratic baseline. Both
    /// kernels return the same candidate set — the knob trades CPU
    /// strategies, never results.
    pub filter_kernel: FilterKernel,
    /// Driver-tree selection of the multiway CIJ (see [`MultiwayDriver`]);
    /// cost-based by default.
    pub multiway_driver: MultiwayDriver,
    /// Memory layout of the decoded-node hot paths (see [`LeafLayout`]):
    /// [`LeafLayout::Soa`] (the default) decodes nodes into reusable
    /// per-worker SoA arenas and clips cells in place through scratch
    /// buffers; [`LeafLayout::Aos`] is the historical
    /// owned-`Node`/allocating-clip baseline. Both layouts
    /// produce byte-identical pairs, tuples, counters and page accesses —
    /// the knob trades memory shape, never results (asserted by the
    /// `kernel_layout` bench experiment and `tests/layout.rs`).
    ///
    /// [`LeafLayout::Soa`]: cij_rtree::LeafLayout::Soa
    /// [`LeafLayout::Aos`]: cij_rtree::LeafLayout::Aos
    pub leaf_layout: LeafLayout,
    /// Whether the multiway CIJ prunes each extension round with the
    /// running intersections' bounding box: batch probes seed every
    /// examined point's approximate cell from the probe regions' union bbox
    /// (provably decision-preserving, since a cell can only matter where a
    /// probe region is), and candidate×partial narrowing skips bbox-disjoint
    /// combinations. On by default; disable to reproduce the PR-4 baseline.
    pub multiway_prune: bool,
    /// Execution path of the streaming executors (see [`ExecMode`]):
    /// [`ExecMode::Metered`] (the default) is the byte-exact counted
    /// oracle, [`ExecMode::Fast`] the lock-light serving path with
    /// snapshot reads and per-query-local I/O counters. Both modes emit
    /// identical pairs/tuples in identical order — the knob trades cost
    /// accounting for per-query overhead, never results.
    pub exec_mode: ExecMode,
}

impl Default for CijConfig {
    fn default() -> Self {
        CijConfig {
            domain: Rect::DOMAIN,
            rtree: RTreeConfig::default(),
            storage_backend: StorageBackend::Heap,
            buffer_fraction: cij_pagestore::DEFAULT_BUFFER_FRACTION,
            min_buffer_pages: 40,
            reuse_cells: true,
            cell_cache_capacity: 1024,
            progress_sample_pairs: 1_000,
            worker_threads: 1,
            filter_kernel: FilterKernel::Indexed,
            multiway_driver: MultiwayDriver::CostBased,
            leaf_layout: LeafLayout::Soa,
            multiway_prune: true,
            exec_mode: ExecMode::Metered,
        }
    }
}

impl CijConfig {
    /// The paper's default setting.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Sets the space domain.
    pub fn with_domain(mut self, domain: Rect) -> Self {
        self.domain = domain;
        self
    }

    /// Sets the R-tree configuration for algorithm-built trees.
    pub fn with_rtree(mut self, rtree: RTreeConfig) -> Self {
        self.rtree = rtree;
        self
    }

    /// Sets the storage backend for every page store built under this
    /// configuration (see [`CijConfig::storage_backend`]).
    pub fn with_storage_backend(mut self, storage: StorageBackend) -> Self {
        self.storage_backend = storage;
        self
    }

    /// Sets the buffer fraction for algorithm-built trees.
    pub fn with_buffer_fraction(mut self, fraction: f64) -> Self {
        self.buffer_fraction = fraction;
        self
    }

    /// Enables or disables the NM-CIJ cell-reuse heuristic.
    pub fn with_reuse(mut self, reuse: bool) -> Self {
        self.reuse_cells = reuse;
        self
    }

    /// Sets the minimum buffer capacity in pages.
    pub fn with_min_buffer_pages(mut self, pages: usize) -> Self {
        self.min_buffer_pages = pages;
        self
    }

    /// Sets the capacity of the Voronoi-cell reuse buffer (zero disables
    /// caching; see [`CijConfig::cell_cache_capacity`]).
    pub fn with_cell_cache_capacity(mut self, cells: usize) -> Self {
        self.cell_cache_capacity = cells;
        self
    }

    /// Sets the NM-CIJ worker-thread count (see
    /// [`CijConfig::worker_threads`]; `0` and `1` both mean sequential).
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }

    /// Sets the conditional-filter kernel (see [`FilterKernel`]).
    pub fn with_filter_kernel(mut self, kernel: FilterKernel) -> Self {
        self.filter_kernel = kernel;
        self
    }

    /// Sets the multiway driver-tree selection (see [`MultiwayDriver`]).
    pub fn with_multiway_driver(mut self, driver: MultiwayDriver) -> Self {
        self.multiway_driver = driver;
        self
    }

    /// Sets the decoded-node memory layout (see [`CijConfig::leaf_layout`]).
    pub fn with_leaf_layout(mut self, layout: LeafLayout) -> Self {
        self.leaf_layout = layout;
        self
    }

    /// Enables or disables the multiway running-intersection bbox pruning
    /// (see [`CijConfig::multiway_prune`]).
    pub fn with_multiway_prune(mut self, prune: bool) -> Self {
        self.multiway_prune = prune;
        self
    }

    /// Sets the execution mode (see [`ExecMode`]).
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Applies environment overrides, one knob per variable:
    ///
    /// | Variable | Field | Values |
    /// |---|---|---|
    /// | `CIJ_WORKER_THREADS` | [`CijConfig::worker_threads`] | integer ≥ 1 |
    /// | `CIJ_STORAGE` | [`CijConfig::storage_backend`] | `heap` \| `file` \| `mmap` |
    /// | `CIJ_FILTER_KERNEL` | [`CijConfig::filter_kernel`] | `indexed` \| `scan` |
    /// | `CIJ_LEAF_LAYOUT` | [`CijConfig::leaf_layout`] | `soa` \| `aos` |
    /// | `CIJ_EXEC_MODE` | [`CijConfig::exec_mode`] | `metered` \| `fast` |
    ///
    /// Intended for harnesses (CI reruns the whole test suite with
    /// `CIJ_WORKER_THREADS=4`, `CIJ_STORAGE=file` and `CIJ_EXEC_MODE=fast`);
    /// library behaviour never depends on the environment unless a caller
    /// opts in through this method.
    ///
    /// # Panics
    ///
    /// Panics when a variable is set but invalid — a harness that asks for
    /// the parallel path or the file backend must never silently fall back
    /// to the default one.
    pub fn with_env_overrides(self) -> Self {
        self.with_overrides_from(|name| std::env::var(name).ok())
    }

    /// The [`with_env_overrides`](CijConfig::with_env_overrides) knob table,
    /// driven by an arbitrary `name -> value` source so tests can feed knob
    /// values without mutating the real (process-global, racy) environment.
    fn with_overrides_from(mut self, get: impl Fn(&str) -> Option<String>) -> Self {
        // Every knob parses through its type's `FromStr` and panics with a
        // uniform "<VAR>: <err>" message on invalid input; the thread-count
        // knob additionally rejects 0, which would silently degrade to the
        // sequential leaf loop (the `with_worker_threads` builder still
        // accepts 0 for callers who explicitly want sequential).
        type Apply = fn(&mut CijConfig, &str, &str);
        fn parsed<T: std::str::FromStr<Err = String>>(name: &str, value: &str) -> T {
            value.parse().unwrap_or_else(|err| panic!("{name}: {err}"))
        }
        const KNOBS: &[(&str, Apply)] = &[
            ("CIJ_WORKER_THREADS", |c, name, value| {
                match value.parse::<usize>() {
                    Ok(threads) if threads >= 1 => c.worker_threads = threads,
                    _ => panic!("{name}: must be a thread count >= 1, got {value:?}"),
                }
            }),
            ("CIJ_STORAGE", |c, name, value| {
                c.storage_backend = parsed(name, value);
            }),
            ("CIJ_FILTER_KERNEL", |c, name, value| {
                c.filter_kernel = parsed(name, value);
            }),
            ("CIJ_LEAF_LAYOUT", |c, name, value| {
                c.leaf_layout = parsed(name, value);
            }),
            ("CIJ_EXEC_MODE", |c, name, value| {
                c.exec_mode = parsed(name, value);
            }),
        ];
        for (name, apply) in KNOBS {
            if let Some(value) = get(name) {
                apply(&mut self, name, &value);
            }
        }
        self
    }

    /// The effective number of worker threads (at least one).
    pub fn effective_worker_threads(&self) -> usize {
        self.worker_threads.max(1)
    }

    /// The buffer capacity (in pages) for a tree of `num_pages` pages under
    /// this configuration: `buffer_fraction` of the tree, but never below
    /// `min_buffer_pages` (and never zero unless the fraction is zero and the
    /// floor is zero).
    pub fn buffer_pages_for(&self, num_pages: usize) -> usize {
        let frac = ((num_pages as f64) * self.buffer_fraction).ceil() as usize;
        frac.max(self.min_buffer_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setting() {
        let c = CijConfig::default();
        assert_eq!(c.domain, Rect::DOMAIN);
        assert!((c.buffer_fraction - 0.02).abs() < 1e-12);
        assert!(c.reuse_cells);
        assert_eq!(c.rtree.page_size, 1024);
    }

    #[test]
    fn builder_methods_apply() {
        let c = CijConfig::default()
            .with_buffer_fraction(0.1)
            .with_reuse(false)
            .with_cell_cache_capacity(64)
            .with_domain(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        assert_eq!(c.buffer_fraction, 0.1);
        assert!(!c.reuse_cells);
        assert_eq!(c.cell_cache_capacity, 64);
        assert_eq!(c.domain.hi.x, 1.0);
    }

    #[test]
    fn worker_threads_default_and_builder() {
        let c = CijConfig::default();
        assert_eq!(c.worker_threads, 1, "sequential by default");
        assert_eq!(c.effective_worker_threads(), 1);
        let c = c.with_worker_threads(4);
        assert_eq!(c.worker_threads, 4);
        assert_eq!(c.effective_worker_threads(), 4);
        // Zero degrades to the sequential path, never to zero workers.
        assert_eq!(c.with_worker_threads(0).effective_worker_threads(), 1);
    }

    #[test]
    fn storage_backend_default_and_builder() {
        let c = CijConfig::default();
        assert_eq!(
            c.storage_backend,
            StorageBackend::Heap,
            "the simulated disk stays the default"
        );
        let c = c.with_storage_backend(StorageBackend::File);
        assert_eq!(c.storage_backend, StorageBackend::File);
    }

    #[test]
    fn filter_kernel_default_builder_and_parsing() {
        let c = CijConfig::default();
        assert_eq!(c.filter_kernel, FilterKernel::Indexed);
        assert_eq!(c.filter_kernel.name(), "indexed");
        let c = c.with_filter_kernel(FilterKernel::Scan);
        assert_eq!(c.filter_kernel, FilterKernel::Scan);
        assert_eq!(c.filter_kernel.name(), "scan");
        assert_eq!("indexed".parse::<FilterKernel>(), Ok(FilterKernel::Indexed));
        assert_eq!("Scan".parse::<FilterKernel>(), Ok(FilterKernel::Scan));
        assert!("grid".parse::<FilterKernel>().is_err());
    }

    #[test]
    fn leaf_layout_default_builder_and_parsing() {
        let c = CijConfig::default();
        assert_eq!(c.leaf_layout, LeafLayout::Soa, "SoA is the new default");
        assert_eq!(c.leaf_layout.name(), "soa");
        let c = c.with_leaf_layout(LeafLayout::Aos);
        assert_eq!(c.leaf_layout, LeafLayout::Aos);
        assert_eq!(c.leaf_layout.name(), "aos");
        assert_eq!("soa".parse::<LeafLayout>(), Ok(LeafLayout::Soa));
        assert_eq!("AoS".parse::<LeafLayout>(), Ok(LeafLayout::Aos));
        assert!("columnar".parse::<LeafLayout>().is_err());
    }

    #[test]
    fn multiway_planning_defaults_and_builders() {
        let c = CijConfig::default();
        assert_eq!(c.multiway_driver, MultiwayDriver::CostBased);
        assert_eq!(c.multiway_driver.name(), "cost");
        assert!(c.multiway_prune);
        let c = c
            .with_multiway_driver(MultiwayDriver::Fixed(2))
            .with_multiway_prune(false);
        assert_eq!(c.multiway_driver, MultiwayDriver::Fixed(2));
        assert_eq!(c.multiway_driver.name(), "fixed(2)");
        assert!(!c.multiway_prune);
    }

    #[test]
    fn exec_mode_default_builder_and_parsing() {
        let c = CijConfig::default();
        assert_eq!(c.exec_mode, ExecMode::Metered, "metered is the oracle");
        assert_eq!(c.exec_mode.name(), "metered");
        let c = c.with_exec_mode(ExecMode::Fast);
        assert_eq!(c.exec_mode, ExecMode::Fast);
        assert_eq!(c.exec_mode.name(), "fast");
        assert_eq!("metered".parse::<ExecMode>(), Ok(ExecMode::Metered));
        assert_eq!("Fast".parse::<ExecMode>(), Ok(ExecMode::Fast));
        assert!("turbo".parse::<ExecMode>().is_err());
    }

    /// Drives the override table with an explicit map instead of the real
    /// environment (process-global and racy under the parallel test runner).
    fn overridden(pairs: &[(&str, &str)]) -> CijConfig {
        CijConfig::default().with_overrides_from(|name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn override_table_applies_every_knob() {
        let c = overridden(&[
            ("CIJ_WORKER_THREADS", "4"),
            ("CIJ_STORAGE", "file"),
            ("CIJ_FILTER_KERNEL", "scan"),
            ("CIJ_LEAF_LAYOUT", "aos"),
            ("CIJ_EXEC_MODE", "fast"),
        ]);
        assert_eq!(c.worker_threads, 4);
        assert_eq!(c.storage_backend, StorageBackend::File);
        assert_eq!(c.filter_kernel, FilterKernel::Scan);
        assert_eq!(c.leaf_layout, LeafLayout::Aos);
        assert_eq!(c.exec_mode, ExecMode::Fast);
        // Every storage backend name round-trips through the knob.
        let m = overridden(&[("CIJ_STORAGE", "mmap")]);
        assert_eq!(m.storage_backend, StorageBackend::Mmap);
        let h = overridden(&[("CIJ_STORAGE", "heap")]);
        assert_eq!(h.storage_backend, StorageBackend::Heap);
        // Unset knobs keep their configured values.
        let d = overridden(&[]);
        assert_eq!(d.worker_threads, 1);
        assert_eq!(d.exec_mode, ExecMode::Metered);
    }

    #[test]
    fn override_table_rejects_invalid_values_uniformly() {
        // Every knob panics (never silently falls back) on an invalid value,
        // and the message names the offending variable.
        let invalid = [
            ("CIJ_WORKER_THREADS", "0"),
            ("CIJ_WORKER_THREADS", "many"),
            ("CIJ_STORAGE", "tape"),
            ("CIJ_FILTER_KERNEL", "grid"),
            ("CIJ_LEAF_LAYOUT", "columnar"),
            ("CIJ_EXEC_MODE", "turbo"),
        ];
        for (name, value) in invalid {
            let result = std::panic::catch_unwind(|| overridden(&[(name, value)]));
            let err = result.expect_err(&format!("{name}={value} must panic"));
            let message = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
            assert!(
                message.contains(name),
                "panic for {name}={value} names the variable: {message:?}"
            );
        }
    }

    #[test]
    fn default_cell_cache_is_bounded() {
        let c = CijConfig::default();
        assert!(c.cell_cache_capacity > 0, "reuse enabled by default");
        assert!(
            c.cell_cache_capacity <= 4096,
            "default stays bounded (Fig. 8a saturation, not unbounded growth)"
        );
    }
}
