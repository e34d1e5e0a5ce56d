//! The disk-based R-tree.

use crate::codec::NODE_HEADER_BYTES;
use crate::node::{ChildEntry, Node};
use crate::object::RTreeObject;
use cij_geom::{hilbert, Rect};
use cij_pagestore::{
    BackendIo, FaultSpec, FaultStats, IoStats, PageId, PageIoError, PageRef, PageStore,
    PageStoreConfig, RetryPolicy, StorageBackend, FRAME_TRAILER_BYTES,
};

/// Configuration of an R-tree.
#[derive(Debug, Clone, Copy)]
pub struct RTreeConfig {
    /// Disk page size in bytes (1 KB in the paper).
    pub page_size: usize,
    /// Minimum fill fraction enforced on node splits.
    pub min_fill: f64,
    /// Hard cap on the number of entries per node, applied in addition to
    /// the byte budget (guards against pathological tiny objects).
    pub max_entries: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            page_size: cij_pagestore::DEFAULT_PAGE_SIZE,
            min_fill: 0.4,
            max_entries: 256,
        }
    }
}

impl RTreeConfig {
    /// Byte budget for a node's entries: the page size minus the serialized
    /// node header and the page store's integrity trailer
    /// ([`FRAME_TRAILER_BYTES`] — payload length + checksum, sealed on every
    /// write-back). Packing against this budget (instead of the raw page
    /// size) guarantees every node the tree produces encodes into one page
    /// frame — fanout genuinely respects the paper's 1 KB pages.
    pub fn node_byte_budget(&self) -> usize {
        self.page_size
            .saturating_sub(NODE_HEADER_BYTES + FRAME_TRAILER_BYTES)
            .max(ChildEntry::BYTES)
    }

    /// Maximum number of child entries a non-leaf node can hold.
    pub fn max_children(&self) -> usize {
        (self.node_byte_budget() / ChildEntry::BYTES).clamp(2, self.max_entries)
    }
}

/// A disk-based R-tree over objects of type `D`.
///
/// Every node occupies one page of the underlying [`PageStore`]; every node
/// access during queries, joins and Voronoi-cell computations goes through
/// the store's LRU buffer and is recorded in the shared [`IoStats`] — the
/// cost model of the paper.
#[derive(Debug, Clone)]
pub struct RTree<D: RTreeObject> {
    store: PageStore<Node<D>>,
    root: PageId,
    root_level: u32,
    len: usize,
    config: RTreeConfig,
    /// First storage error latched by the infallible [`NodeReader`]
    /// (crate::reader::NodeReader) read path; taken via
    /// [`RTree::take_io_error`].
    io_error: Option<PageIoError>,
}

impl<D: RTreeObject> RTree<D> {
    /// Creates an empty tree with its own statistics counters.
    pub fn new(config: RTreeConfig) -> Self {
        Self::with_stats(config, IoStats::new())
    }

    /// Creates an empty tree whose page store shares the given statistics
    /// counters (so that joint operations over several trees report a single
    /// page-access figure, as in the paper). Node frames live on the heap
    /// backend; use [`RTree::with_stats_on`] to choose.
    pub fn with_stats(config: RTreeConfig, stats: IoStats) -> Self {
        Self::with_stats_on(config, stats, StorageBackend::Heap)
    }

    /// Creates an empty tree with shared statistics counters whose node
    /// frames live on the given [`StorageBackend`].
    pub fn with_stats_on(config: RTreeConfig, stats: IoStats, storage: StorageBackend) -> Self {
        let mut store = PageStore::with_stats(
            PageStoreConfig::default()
                .with_page_size(config.page_size)
                .with_backend(storage),
            stats,
        );
        let root = store.allocate(Node::new_leaf());
        RTree {
            store,
            root,
            root_level: 0,
            len: 0,
            config,
            io_error: None,
        }
    }

    /// The tree configuration.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Handle to the shared I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.store.stats()
    }

    /// Which storage backend holds this tree's node frames.
    pub fn storage_backend(&self) -> StorageBackend {
        self.store.backend_kind()
    }

    /// Bytes actually transferred to/from the storage backend — the
    /// physical counterpart of the counted page accesses.
    pub fn backend_io(&self) -> BackendIo {
        self.store.backend_io()
    }

    /// Number of data objects in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page id of the root node.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Level of the root node (0 when the root is a leaf); the tree height
    /// is `root_level() + 1`.
    pub fn root_level(&self) -> u32 {
        self.root_level
    }

    /// Number of pages (nodes) the tree occupies on the simulated disk.
    ///
    /// This is the "LB" traversal lower bound of the paper's experiments:
    /// the I/O cost of reading the whole tree exactly once.
    pub fn num_pages(&self) -> usize {
        self.store.num_pages()
    }

    /// Reads a node, going through the buffer and counting the access.
    pub fn read_node(&mut self, page: PageId) -> Node<D> {
        self.store.read(page)
    }

    /// Visits a node by reference with full read accounting, without cloning
    /// the payload: thin wrapper over
    /// [`PageStore::read_with`](cij_pagestore::PageStore::read_with). Buffer
    /// state, hit/miss counters and backend byte transfers are identical to
    /// [`RTree::read_node`]; this is the decode path of the SoA
    /// [`NodeArena`](crate::arena::NodeArena).
    pub fn visit_node(&mut self, page: PageId, f: &mut dyn FnMut(&Node<D>)) {
        self.store.read_with(page, |node| f(node));
    }

    /// Reads a node without counting the access (oracles/tests only, and
    /// the reads of a [`SnapshotReader`](crate::reader::SnapshotReader),
    /// whose accounting is deferred to [`RTree::replay_read`] or to a
    /// per-query-local counter).
    ///
    /// Returns a [`PageRef`] guard that **pins** the page in the store for
    /// its lifetime: the LRU buffer will not evict it, and a non-resident
    /// page is decoded through the backend as unmetered traffic — no
    /// counter, recency or membership the metered runs observe changes.
    pub fn peek_node(&self, page: PageId) -> PageRef<Node<D>> {
        self.store.peek(page)
    }

    /// Replays one recorded page access: thin wrapper over
    /// [`PageStore::note_read`], which carries the authoritative description
    /// of the accounting (buffer touch, hit/miss recording, backend frame
    /// transfer on a miss, and the debug-build trace-drift assertion).
    ///
    /// Replays the access traces recorded by a
    /// [`SnapshotReader::traced`](crate::reader::SnapshotReader::traced)
    /// reader in sequential order, so the chunked NM-CIJ path reports the
    /// same page accesses and leaves the same buffer state as a
    /// single-threaded run. A replayed id that
    /// does not exist (trace drift) panics.
    pub fn replay_read(&mut self, page: PageId) {
        crate::reader::probe::note_replay();
        self.store.note_read(page);
    }

    // ------------------------------------------------------------------
    // Fallible reads and fault plumbing (see the failure model in the
    // `cij-pagestore` crate docs)
    // ------------------------------------------------------------------

    /// Fallible variant of [`RTree::read_node`]: transient faults are
    /// retried by the store; exhausted transients, persistent failures and
    /// checksum mismatches come back as a structured [`PageIoError`].
    pub fn try_read_node(&mut self, page: PageId) -> Result<Node<D>, PageIoError> {
        self.store.try_read(page)
    }

    /// Fallible variant of [`RTree::visit_node`]. On `Err` the callback was
    /// never invoked.
    pub fn try_visit_node(
        &mut self,
        page: PageId,
        f: &mut dyn FnMut(&Node<D>),
    ) -> Result<(), PageIoError> {
        self.store.try_read_with(page, |node| f(node))
    }

    /// Fallible variant of [`RTree::peek_node`].
    pub fn try_peek_node(&self, page: PageId) -> Result<PageRef<Node<D>>, PageIoError> {
        self.store.try_peek(page)
    }

    /// Fallible variant of [`RTree::replay_read`].
    pub fn try_replay_read(&mut self, page: PageId) -> Result<(), PageIoError> {
        crate::reader::probe::note_replay();
        self.store.try_note_read(page)
    }

    /// Takes the storage error latched by the
    /// [`NodeReader`](crate::reader::NodeReader) impl's infallible read path, if a node
    /// read failed since the last call. `Some` means every traversal output
    /// produced since then is suspect and must be discarded.
    pub fn take_io_error(&mut self) -> Option<PageIoError> {
        self.io_error.take()
    }

    pub(crate) fn set_io_error(&mut self, error: PageIoError) {
        if self.io_error.is_none() {
            self.io_error = Some(error);
        }
    }

    /// Per-class fault, retry and quarantine counters of the underlying
    /// page store (alongside [`RTree::backend_io`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.store.fault_stats()
    }

    /// Wraps the tree's current storage in a fault-injecting backend with
    /// the given deterministic schedule — thin wrapper over
    /// [`PageStore::inject_fault`]; used by fault tests and the
    /// `fault_storm` bench experiment.
    pub fn inject_fault(&mut self, spec: FaultSpec) {
        self.store.inject_fault(spec);
    }

    /// Replaces the store's transient-fault retry policy.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.store.set_retry_policy(policy);
    }

    /// Frame indices quarantined after checksum failures, ascending.
    pub fn quarantined_frames(&self) -> Vec<u32> {
        self.store.quarantined_frames()
    }

    /// Sets the LRU buffer capacity in pages.
    pub fn set_buffer_pages(&mut self, pages: usize) {
        self.store.set_buffer_pages(pages);
    }

    /// Sets the LRU buffer capacity as a fraction of this tree's size.
    pub fn set_buffer_fraction(&mut self, fraction: f64) {
        self.store.set_buffer_fraction(fraction);
    }

    /// Current buffer capacity in pages.
    pub fn buffer_pages(&self) -> usize {
        self.store.buffer_pages()
    }

    /// Pages currently holding a decoded payload (buffer members + pinned).
    pub fn resident_pages(&self) -> usize {
        self.store.resident_pages()
    }

    /// High-water mark of [`RTree::resident_pages`] — bounded by
    /// `buffer capacity + peak pinned`, not by the tree size (no mirror).
    pub fn peak_resident_pages(&self) -> usize {
        self.store.peak_resident_pages()
    }

    /// Pages currently pinned by [`RTree::peek_node`] guards.
    pub fn pinned_pages(&self) -> usize {
        self.store.pinned_pages()
    }

    /// High-water mark of [`RTree::pinned_pages`].
    pub fn peak_pinned_pages(&self) -> usize {
        self.store.peak_pinned_pages()
    }

    /// Restarts the residency high-water marks from the current state, so a
    /// measurement phase tracks its own peaks rather than construction's.
    pub fn reset_residency_peaks(&mut self) {
        self.store.reset_residency_peaks()
    }

    /// Empties the buffer without accounting (cold-start measurements).
    pub fn drop_buffer(&mut self) {
        self.store.drop_buffer();
    }

    /// Writes back dirty pages and empties the buffer (accounted).
    pub fn flush(&mut self) {
        self.store.flush();
    }

    pub(crate) fn store_mut(&mut self) -> &mut PageStore<Node<D>> {
        &mut self.store
    }

    pub(crate) fn set_root(&mut self, root: PageId, root_level: u32, len: usize) {
        self.root = root;
        self.root_level = root_level;
        self.len = len;
    }

    // ------------------------------------------------------------------
    // Insertion (Guttman, quadratic split)
    // ------------------------------------------------------------------

    /// Inserts one object, splitting nodes as needed (quadratic split).
    pub fn insert(&mut self, object: D) {
        if let Some((left, right)) = self.insert_into(self.root, object) {
            // Root split: grow the tree by one level.
            let mut new_root = Node::new_inner(self.root_level + 1);
            new_root.children.push(left);
            new_root.children.push(right);
            self.root = self.store.allocate(new_root);
            self.root_level += 1;
        }
        self.len += 1;
    }

    /// Inserts every object of an iterator.
    pub fn insert_all<I: IntoIterator<Item = D>>(&mut self, objects: I) {
        for o in objects {
            self.insert(o);
        }
    }

    fn leaf_overflows(&self, node: &Node<D>) -> bool {
        node.objects.len() > 1
            && (node.payload_bytes() > self.config.node_byte_budget()
                || node.objects.len() > self.config.max_entries)
    }

    fn inner_overflows(&self, node: &Node<D>) -> bool {
        node.children.len() > self.config.max_children()
    }

    fn insert_into(&mut self, page: PageId, object: D) -> Option<(ChildEntry, ChildEntry)> {
        let mut node = self.store.read(page);
        if node.is_leaf() {
            node.objects.push(object);
            if self.leaf_overflows(&node) {
                let min = self.min_count(node.objects.len());
                let (a, b) = quadratic_split(std::mem::take(&mut node.objects), min, |o| o.mbr());
                let mut left = Node::new_leaf();
                left.objects = a;
                let mut right = Node::new_leaf();
                right.objects = b;
                let left_mbr = left.mbr();
                let right_mbr = right.mbr();
                self.store.write(page, left);
                let right_page = self.store.allocate(right);
                Some((
                    ChildEntry {
                        mbr: left_mbr,
                        page,
                    },
                    ChildEntry {
                        mbr: right_mbr,
                        page: right_page,
                    },
                ))
            } else {
                self.store.write(page, node);
                None
            }
        } else {
            let idx = choose_subtree(&node.children, &object.mbr());
            let child_page = node.children[idx].page;
            let object_mbr = object.mbr();
            match self.insert_into(child_page, object) {
                None => {
                    node.children[idx].mbr = node.children[idx].mbr.union(&object_mbr);
                    self.store.write(page, node);
                    None
                }
                Some((left, right)) => {
                    node.children[idx] = left;
                    node.children.push(right);
                    if self.inner_overflows(&node) {
                        let min = self.min_count(node.children.len());
                        let level = node.level;
                        let (a, b) =
                            quadratic_split(std::mem::take(&mut node.children), min, |c| c.mbr);
                        let mut left_node = Node::new_inner(level);
                        left_node.children = a;
                        let mut right_node = Node::new_inner(level);
                        right_node.children = b;
                        let left_mbr = left_node.mbr();
                        let right_mbr = right_node.mbr();
                        self.store.write(page, left_node);
                        let right_page = self.store.allocate(right_node);
                        Some((
                            ChildEntry {
                                mbr: left_mbr,
                                page,
                            },
                            ChildEntry {
                                mbr: right_mbr,
                                page: right_page,
                            },
                        ))
                    } else {
                        self.store.write(page, node);
                        None
                    }
                }
            }
        }
    }

    fn min_count(&self, total: usize) -> usize {
        ((total as f64 * self.config.min_fill).floor() as usize).max(1)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Returns every object whose MBR intersects the query rectangle.
    pub fn range_query(&mut self, query: &Rect) -> Vec<D> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = self.store.read(page);
            if node.is_leaf() {
                for o in &node.objects {
                    if o.mbr().intersects(query) {
                        out.push(o.clone());
                    }
                }
            } else {
                for c in &node.children {
                    if c.mbr.intersects(query) {
                        stack.push(c.page);
                    }
                }
            }
        }
        out
    }

    /// Returns every object in the tree (full scan in depth-first order).
    pub fn scan_all(&mut self) -> Vec<D> {
        self.range_query(&Rect::from_coords(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        ))
    }

    /// MBR of the whole dataset (reads only the root node).
    pub fn bounding_rect(&mut self) -> Rect {
        let node = self.store.read(self.root);
        node.mbr()
    }

    /// Leaf page ids in the Hilbert-ordered depth-first traversal of
    /// Section III-C: at every non-leaf node, children are visited in
    /// ascending Hilbert value of their MBR centroid, so that consecutive
    /// leaves are spatially close and buffer locality is maximised.
    ///
    /// The traversal reads every *non-leaf* node once (counted); leaf pages
    /// themselves are not read here — callers read them when processing.
    pub fn leaf_pages_hilbert_order(&mut self, domain: &Rect) -> Vec<PageId> {
        let mut out = Vec::new();
        // (page, level) stack; children pushed in descending Hilbert order so
        // the smallest is popped first.
        let mut stack = vec![(self.root, self.root_level)];
        while let Some((page, level)) = stack.pop() {
            if level == 0 {
                out.push(page);
                continue;
            }
            let node = self.store.read(page);
            let mut kids: Vec<&ChildEntry> = node.children.iter().collect();
            kids.sort_by_key(|c| {
                std::cmp::Reverse(hilbert::hilbert_value(&c.mbr.center(), domain))
            });
            for c in kids {
                stack.push((c.page, level - 1));
            }
        }
        out
    }

    /// [`RTree::leaf_pages_hilbert_order`] over the in-memory snapshot:
    /// identical leaf order, but the non-leaf reads go through
    /// [`RTree::peek_node`] — no buffer touch, no shared counters. Returns
    /// the order together with the number of non-leaf nodes read, so fast
    /// (snapshot-mode) executions can charge the traversal to their local
    /// read counter instead.
    pub fn leaf_pages_hilbert_order_peek(&self, domain: &Rect) -> (Vec<PageId>, u64) {
        let mut out = Vec::new();
        let mut reads = 0u64;
        let mut stack = vec![(self.root, self.root_level)];
        while let Some((page, level)) = stack.pop() {
            if level == 0 {
                out.push(page);
                continue;
            }
            reads += 1;
            let node = self.store.peek(page);
            let mut kids: Vec<&ChildEntry> = node.children.iter().collect();
            kids.sort_by_key(|c| {
                std::cmp::Reverse(hilbert::hilbert_value(&c.mbr.center(), domain))
            });
            for c in kids {
                stack.push((c.page, level - 1));
            }
        }
        (out, reads)
    }

    /// Verifies structural invariants of the tree (every child MBR contains
    /// its subtree, levels decrease by one, object count matches `len`).
    /// Intended for tests; does not count I/O.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0usize;
        self.check_node(self.root, self.root_level, None, &mut count)?;
        if count != self.len {
            return Err(format!("object count mismatch: {} != {}", count, self.len));
        }
        Ok(())
    }

    fn check_node(
        &self,
        page: PageId,
        expected_level: u32,
        expected_mbr: Option<Rect>,
        count: &mut usize,
    ) -> Result<(), String> {
        let node = self.store.peek(page);
        if node.level != expected_level {
            return Err(format!(
                "node {page:?} has level {} but expected {expected_level}",
                node.level
            ));
        }
        let mbr = node.mbr();
        if let Some(parent_mbr) = expected_mbr {
            if !node.is_empty() && !parent_mbr.contains_rect(&mbr) {
                return Err(format!(
                    "child MBR {mbr} not contained in parent entry {parent_mbr}"
                ));
            }
        }
        if node.is_leaf() {
            *count += node.objects.len();
            if !node.children.is_empty() {
                return Err("leaf with children".into());
            }
        } else {
            if node.children.is_empty() {
                return Err("non-leaf without children".into());
            }
            if !node.objects.is_empty() {
                return Err("non-leaf with objects".into());
            }
            for c in &node.children {
                self.check_node(c.page, expected_level - 1, Some(c.mbr), count)?;
            }
        }
        Ok(())
    }
}

/// Guttman's "least enlargement" subtree choice.
pub(crate) fn choose_subtree(children: &[ChildEntry], mbr: &Rect) -> usize {
    let mut best = 0;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, c) in children.iter().enumerate() {
        let enlargement = c.mbr.enlargement(mbr);
        let area = c.mbr.area();
        if enlargement < best_enlargement - f64::EPSILON
            || ((enlargement - best_enlargement).abs() <= f64::EPSILON && area < best_area)
        {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}

/// Guttman's quadratic split over an arbitrary entry type.
pub(crate) fn quadratic_split<T, F: Fn(&T) -> Rect>(
    entries: Vec<T>,
    min_count: usize,
    mbr_of: F,
) -> (Vec<T>, Vec<T>) {
    debug_assert!(entries.len() >= 2);
    let n = entries.len();
    let min_count = min_count.min(n / 2).max(1);

    // Pick the pair of seeds wasting the most area if grouped together.
    let rects: Vec<Rect> = entries.iter().map(&mbr_of).collect();
    let (mut seed_a, mut seed_b) = (0usize, 1usize);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let mut group_a: Vec<T> = Vec::with_capacity(n);
    let mut group_b: Vec<T> = Vec::with_capacity(n);
    let mut mbr_a = rects[seed_a];
    let mut mbr_b = rects[seed_b];
    let mut remaining: Vec<(T, Rect)> = Vec::with_capacity(n);
    for (idx, (entry, rect)) in entries.into_iter().zip(rects).enumerate() {
        if idx == seed_a {
            group_a.push(entry);
        } else if idx == seed_b {
            group_b.push(entry);
        } else {
            remaining.push((entry, rect));
        }
    }

    while let Some(pos) = pick_next(&remaining, &mbr_a, &mbr_b) {
        let (entry, rect) = remaining.swap_remove(pos);
        // If one group must take everything left to reach the minimum, do so.
        let left = remaining.len() + 1;
        if group_a.len() + left <= min_count {
            mbr_a = mbr_a.union(&rect);
            group_a.push(entry);
            continue;
        }
        if group_b.len() + left <= min_count {
            mbr_b = mbr_b.union(&rect);
            group_b.push(entry);
            continue;
        }
        let enl_a = mbr_a.enlargement(&rect);
        let enl_b = mbr_b.enlargement(&rect);
        let to_a = if (enl_a - enl_b).abs() <= f64::EPSILON {
            if (mbr_a.area() - mbr_b.area()).abs() <= f64::EPSILON {
                group_a.len() <= group_b.len()
            } else {
                mbr_a.area() < mbr_b.area()
            }
        } else {
            enl_a < enl_b
        };
        if to_a {
            mbr_a = mbr_a.union(&rect);
            group_a.push(entry);
        } else {
            mbr_b = mbr_b.union(&rect);
            group_b.push(entry);
        }
    }
    (group_a, group_b)
}

/// Chooses the remaining entry with the greatest preference for one group
/// (Guttman's PickNext).
fn pick_next<T>(remaining: &[(T, Rect)], mbr_a: &Rect, mbr_b: &Rect) -> Option<usize> {
    if remaining.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_diff = f64::NEG_INFINITY;
    for (i, (_, rect)) in remaining.iter().enumerate() {
        let diff = (mbr_a.enlargement(rect) - mbr_b.enlargement(rect)).abs();
        if diff > best_diff {
            best_diff = diff;
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{PointObject, RTreeObject};
    use cij_geom::Point;

    fn small_config() -> RTreeConfig {
        // Tiny pages force deep trees even for small datasets.
        RTreeConfig {
            page_size: 128,
            min_fill: 0.4,
            max_entries: 64,
        }
    }

    fn grid_points(nx: usize, ny: usize, step: f64) -> Vec<PointObject> {
        let mut out = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                out.push(PointObject::new(
                    (i * ny + j) as u64,
                    Point::new(i as f64 * step, j as f64 * step),
                ));
            }
        }
        out
    }

    #[test]
    fn insert_and_range_query_small() {
        let mut tree = RTree::new(small_config());
        tree.insert_all(grid_points(10, 10, 1.0));
        assert_eq!(tree.len(), 100);
        tree.check_invariants().unwrap();
        let hits = tree.range_query(&Rect::from_coords(2.5, 2.5, 5.5, 4.5));
        // x in {3,4,5}, y in {3,4}: 6 points.
        assert_eq!(hits.len(), 6);
    }

    #[test]
    fn range_query_boundary_inclusive() {
        let mut tree = RTree::new(small_config());
        tree.insert_all(grid_points(5, 5, 1.0));
        let hits = tree.range_query(&Rect::from_coords(1.0, 1.0, 2.0, 2.0));
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn tree_grows_in_height_and_keeps_invariants() {
        let mut tree = RTree::new(small_config());
        tree.insert_all(grid_points(20, 20, 3.0));
        assert!(tree.root_level() >= 2, "expected a tree of height >= 3");
        tree.check_invariants().unwrap();
        assert_eq!(tree.scan_all().len(), 400);
        assert!(tree.num_pages() > 10);
    }

    #[test]
    fn scan_all_returns_every_object_once() {
        let mut tree = RTree::new(small_config());
        let pts = grid_points(13, 7, 2.0);
        tree.insert_all(pts.clone());
        let mut ids: Vec<u64> = tree.scan_all().iter().map(|o| o.id().0).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..pts.len() as u64).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn empty_tree_queries_are_empty() {
        let mut tree: RTree<PointObject> = RTree::new(small_config());
        assert!(tree.is_empty());
        assert!(tree.range_query(&Rect::DOMAIN).is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn node_accesses_are_counted() {
        let mut tree = RTree::new(small_config());
        tree.insert_all(grid_points(10, 10, 1.0));
        tree.drop_buffer();
        tree.stats().reset();
        let _ = tree.range_query(&Rect::from_coords(0.0, 0.0, 9.0, 9.0));
        let accesses = tree.stats().snapshot().physical_reads;
        // The full-range query must read every page of the tree exactly once
        // when the buffer is cold and large enough to avoid re-reads.
        assert_eq!(accesses as usize, tree.num_pages());
    }

    #[test]
    fn buffer_reduces_repeated_query_cost() {
        let mut tree = RTree::new(small_config());
        tree.insert_all(grid_points(10, 10, 1.0));
        tree.set_buffer_pages(tree.num_pages());
        tree.drop_buffer();
        tree.stats().reset();
        let q = Rect::from_coords(1.0, 1.0, 3.0, 3.0);
        let _ = tree.range_query(&q);
        let cold = tree.stats().snapshot().physical_reads;
        let _ = tree.range_query(&q);
        let warm = tree.stats().snapshot().physical_reads - cold;
        assert!(cold > 0);
        assert_eq!(warm, 0, "second identical query must be fully buffered");
    }

    #[test]
    fn hilbert_leaf_order_touches_each_leaf_once() {
        let mut tree = RTree::new(small_config());
        tree.insert_all(grid_points(16, 16, 1.0));
        let domain = Rect::from_coords(0.0, 0.0, 16.0, 16.0);
        let leaves = tree.leaf_pages_hilbert_order(&domain);
        // Reading every returned leaf yields every object exactly once.
        let mut ids = Vec::new();
        for page in &leaves {
            let node = tree.read_node(*page);
            assert!(node.is_leaf());
            ids.extend(node.objects.iter().map(|o| o.id().0));
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..256u64).collect::<Vec<_>>());
    }

    #[test]
    fn quadratic_split_respects_min_count() {
        let objs = grid_points(10, 1, 1.0);
        let (a, b) = quadratic_split(objs, 3, |o| o.mbr());
        assert!(a.len() >= 3);
        assert!(b.len() >= 3);
        assert_eq!(a.len() + b.len(), 10);
    }

    #[test]
    fn quadratic_split_separates_two_clusters() {
        let mut objs = Vec::new();
        for i in 0..5 {
            let d = i as f64 * 0.1;
            objs.push(PointObject::new(i, Point::new(d, d)));
        }
        for i in 0..5 {
            let d = i as f64 * 0.1;
            objs.push(PointObject::new(
                100 + i,
                Point::new(1000.0 + d, 1000.0 + d),
            ));
        }
        let (a, b) = quadratic_split(objs, 2, |o| o.mbr());
        let a_low = a.iter().all(|o| o.point.x < 500.0);
        let a_high = a.iter().all(|o| o.point.x > 500.0);
        assert!(a_low || a_high, "split must separate the clusters");
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn choose_subtree_prefers_containing_child() {
        let children = vec![
            ChildEntry {
                mbr: Rect::from_coords(0.0, 0.0, 10.0, 10.0),
                page: PageId(1),
            },
            ChildEntry {
                mbr: Rect::from_coords(20.0, 20.0, 30.0, 30.0),
                page: PageId(2),
            },
        ];
        assert_eq!(
            choose_subtree(&children, &Rect::from_point(Point::new(5.0, 5.0))),
            0
        );
        assert_eq!(
            choose_subtree(&children, &Rect::from_point(Point::new(25.0, 25.0))),
            1
        );
    }

    #[test]
    fn node_byte_budget_reserves_header_and_integrity_trailer() {
        let cfg = RTreeConfig::default();
        assert_eq!(
            cfg.node_byte_budget(),
            cij_pagestore::DEFAULT_PAGE_SIZE - NODE_HEADER_BYTES - FRAME_TRAILER_BYTES
        );
        // Degenerate pages still yield a usable (if overflowing) budget.
        let tiny = RTreeConfig {
            page_size: 8,
            ..RTreeConfig::default()
        };
        assert_eq!(tiny.node_byte_budget(), ChildEntry::BYTES);
    }

    #[test]
    fn transient_faults_are_invisible_to_queries_and_counters() {
        let mut clean = RTree::new(small_config());
        let mut faulty = RTree::new(small_config());
        for t in [&mut clean, &mut faulty] {
            t.insert_all(grid_points(12, 12, 1.0));
            t.set_buffer_pages(8);
            t.flush();
            t.drop_buffer();
            t.stats().reset();
        }
        faulty.inject_fault(cij_pagestore::FaultSpec::transient(7));

        let q = Rect::from_coords(1.0, 1.0, 9.0, 9.0);
        let mut a: Vec<u64> = clean.range_query(&q).iter().map(|o| o.id().0).collect();
        let mut b: Vec<u64> = faulty.range_query(&q).iter().map(|o| o.id().0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "retried reads must not change results");
        assert!(!a.is_empty());
        assert_eq!(
            clean.stats().snapshot(),
            faulty.stats().snapshot(),
            "fault injection happens below the accounting layer"
        );
        let fs = faulty.fault_stats();
        assert!(fs.injected_read_faults > 0, "schedule must have fired");
        assert!(fs.recoveries > 0, "every transient fault recovered");
        assert!(fs.quarantined_frames == 0, "no corruption in this profile");
        assert!(faulty.take_io_error().is_none(), "no error surfaced");
    }

    #[test]
    fn duplicate_points_are_allowed() {
        let mut tree = RTree::new(small_config());
        for i in 0..50 {
            tree.insert(PointObject::new(i, Point::new(1.0, 1.0)));
        }
        assert_eq!(tree.len(), 50);
        tree.check_invariants().unwrap();
        assert_eq!(
            tree.range_query(&Rect::from_point(Point::new(1.0, 1.0)))
                .len(),
            50
        );
    }
}
