//! Node-read access abstraction: counted reads vs snapshot reads.
//!
//! The tree-traversal algorithms (BatchVoronoi, the conditional filter, …)
//! only ever *read* nodes. [`NodeReader`] abstracts over **how** a read is
//! accounted, so one traversal implementation serves every execution mode:
//!
//! * [`RTree`] itself implements the trait with [`RTree::read_node`] — the
//!   classic counted read through the LRU buffer, used by the sequential
//!   algorithms.
//! * [`SnapshotReader`] wraps a shared `&RTree` and serves reads from the
//!   page store without accounting ([`RTree::try_peek_node`]), so several
//!   workers or queries can traverse one tree (read-only during a join)
//!   concurrently. It always counts its reads locally. Built with
//!   [`SnapshotReader::traced`] it also records the sequence of page ids
//!   touched: metered NM-CIJ and multiway workers use this, and the
//!   coordinator later **replays** each trace through the real buffer in
//!   the sequential leaf order via [`RTree::replay_read`], reproducing the
//!   single-threaded buffer behaviour and page-access counts exactly. Built
//!   with [`SnapshotReader::new`] it records nothing — the fast execution
//!   mode's reader; the [`probe`] counters let harnesses verify that a fast
//!   run really recorded and replayed zero traces.
//!
//! Relaxed-consistency contract: the [`probe`] counters are monotone event
//! counts read only as deltas around quiescent regions; they gate no
//! control flow and publish no other data, so `Ordering::Relaxed` is
//! sufficient at every site (each counter's own modification order makes
//! per-counter totals exact).

use crate::node::Node;
use crate::object::RTreeObject;
use crate::tree::RTree;
use cij_pagestore::{PageId, PageIoError};

/// Process-wide probes counting the parity machinery's events — how many
/// page reads were *trace-recorded* by a traced [`SnapshotReader`] and how
/// many were *replayed* through [`RTree::replay_read`].
///
/// These exist so the fast execution path can be **counter-verified**: a
/// run that claims to skip trace recording and coordinator replay proves it
/// by showing both probes unchanged across the run (see the
/// `concurrent_scale` bench experiment). The counters are relaxed-ordering
/// monotonic event counts with no synchronisation role; deltas taken around
/// a single-threaded region are exact, deltas around concurrent regions
/// count all threads' events.
pub mod probe {
    use std::sync::atomic::{AtomicU64, Ordering};

    static TRACE_RECORDS: AtomicU64 = AtomicU64::new(0);
    static REPLAYS: AtomicU64 = AtomicU64::new(0);

    /// Total page reads recorded into the traces of
    /// [`SnapshotReader::traced`](super::SnapshotReader::traced) readers
    /// since process start.
    pub fn trace_records() -> u64 {
        TRACE_RECORDS.load(Ordering::Relaxed)
    }

    /// Total trace entries replayed through `RTree::replay_read` since
    /// process start.
    pub fn replays() -> u64 {
        REPLAYS.load(Ordering::Relaxed)
    }

    pub(crate) fn note_trace_record() {
        TRACE_RECORDS.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_replay() {
        REPLAYS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Read access to the nodes of an R-tree, abstracting over accounting.
///
/// Traversals written against this trait run unchanged in counted mode
/// (`&mut RTree`) and in snapshot mode ([`SnapshotReader`]).
pub trait NodeReader<D: RTreeObject> {
    /// Page id of the root node.
    fn root_page(&self) -> PageId;

    /// Whether the tree holds no objects.
    fn is_empty(&self) -> bool;

    /// Reads one node.
    fn read(&mut self, page: PageId) -> Node<D>;

    /// Visits one node **by reference**, with the same accounting as
    /// [`NodeReader::read`].
    ///
    /// This is the zero-copy entry point behind the SoA
    /// [`NodeArena`](crate::arena::NodeArena): both implementations serve the
    /// callback from a decoded in-memory image (the page store's, or the
    /// snapshot's), so visiting clones nothing and allocates nothing. The
    /// default implementation falls back to an owned read.
    fn visit(&mut self, page: PageId, f: &mut dyn FnMut(&Node<D>)) {
        let node = self.read(page);
        f(&node);
    }

    /// Takes the first storage error latched by a failed node read.
    ///
    /// The read paths above are infallible by signature so traversal code
    /// stays straight-line; a storage failure instead **latches** the
    /// structured error here and serves an **empty leaf** in its place
    /// (visit callbacks still run, so arenas are never left holding a stale
    /// node). Executors poll this at chunk boundaries: `Some` means every
    /// output produced since the previous poll is suspect and the chunk must
    /// be discarded wholesale — the query fails with the latched error while
    /// the service keeps serving others. The default is the infallible
    /// case: no error source, always `None`.
    fn take_error(&mut self) -> Option<PageIoError> {
        None
    }
}

impl<D: RTreeObject> NodeReader<D> for RTree<D> {
    fn root_page(&self) -> PageId {
        RTree::root_page(self)
    }

    fn is_empty(&self) -> bool {
        RTree::is_empty(self)
    }

    fn read(&mut self, page: PageId) -> Node<D> {
        match self.try_read_node(page) {
            Ok(node) => node,
            Err(e) => {
                self.set_io_error(e);
                Node::new_leaf()
            }
        }
    }

    fn visit(&mut self, page: PageId, f: &mut dyn FnMut(&Node<D>)) {
        if let Err(e) = self.try_visit_node(page, f) {
            self.set_io_error(e);
            f(&Node::new_leaf());
        }
    }

    fn take_error(&mut self) -> Option<PageIoError> {
        self.take_io_error()
    }
}

/// What a [`SnapshotReader`] hands back: how many reads it served, the
/// page-id trace (empty unless the reader was built with
/// [`SnapshotReader::traced`]) and the first storage error it latched.
///
/// The executors settle one record per traversal: a traced record is
/// replayed through [`RTree::replay_read`] in sequential order, an untraced
/// one adds `reads` to a per-query-local counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadRecord {
    /// Successful node reads. Failed reads are not counted.
    pub reads: u64,
    /// The page ids read, in access order; always empty for an untraced
    /// reader. A traced reader keeps `trace.len() == reads`.
    pub trace: Vec<PageId>,
    /// The first storage error latched by a failed read, if any.
    pub error: Option<PageIoError>,
}

/// A [`NodeReader`] over a shared tree snapshot: it serves nodes from
/// [`RTree::try_peek_node`] without touching the buffer or the shared
/// counters, and keeps its own [`ReadRecord`].
///
/// It requires only `&RTree`, so any number of readers can traverse one
/// tree concurrently. Every reader counts its reads in a plain local `u64`.
/// A reader built with [`SnapshotReader::traced`] also records the page-id
/// sequence in access order, so replaying it through
/// [`RTree::replay_read`] performs the deferred accounting of a counted
/// run; a reader built with [`SnapshotReader::new`] records nothing and
/// allocates nothing. The count is the number of *logical snapshot reads*:
/// with no buffer in the loop there is no hit/miss distinction to simulate.
#[derive(Debug)]
pub struct SnapshotReader<'a, D: RTreeObject> {
    tree: &'a RTree<D>,
    traced: bool,
    record: ReadRecord,
}

impl<'a, D: RTreeObject> SnapshotReader<'a, D> {
    /// Creates a reader over `tree` that counts reads and records no trace.
    pub fn new(tree: &'a RTree<D>) -> Self {
        SnapshotReader {
            tree,
            traced: false,
            record: ReadRecord::default(),
        }
    }

    /// Creates a reader over `tree` that counts reads and records their
    /// page-id trace for a later replay.
    pub fn traced(tree: &'a RTree<D>) -> Self {
        SnapshotReader {
            traced: true,
            ..SnapshotReader::new(tree)
        }
    }

    /// Number of node reads performed so far.
    pub fn reads(&self) -> u64 {
        self.record.reads
    }

    /// The page ids read so far, in access order (empty when untraced).
    pub fn trace(&self) -> &[PageId] {
        &self.record.trace
    }

    /// Consumes the reader, returning its read record.
    pub fn into_record(self) -> ReadRecord {
        self.record
    }

    fn note_read(&mut self, page: PageId) {
        self.record.reads += 1;
        if self.traced {
            probe::note_trace_record();
            self.record.trace.push(page);
        }
    }

    fn latch(&mut self, error: PageIoError) {
        if self.record.error.is_none() {
            self.record.error = Some(error);
        }
    }
}

impl<D: RTreeObject> NodeReader<D> for SnapshotReader<'_, D> {
    fn root_page(&self) -> PageId {
        self.tree.root_page()
    }

    fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    // A failed snapshot read latches the error and neither counts nor
    // records the read: replaying it would either re-fail or drift from the
    // counted run, and the executor discards the whole failed chunk (record
    // included) anyway.

    fn read(&mut self, page: PageId) -> Node<D> {
        match self.tree.try_peek_node(page) {
            Ok(guard) => {
                self.note_read(page);
                guard.clone()
            }
            Err(e) => {
                self.latch(e);
                Node::new_leaf()
            }
        }
    }

    fn visit(&mut self, page: PageId, f: &mut dyn FnMut(&Node<D>)) {
        match self.tree.try_peek_node(page) {
            Ok(guard) => {
                self.note_read(page);
                f(&guard);
            }
            Err(e) => {
                self.latch(e);
                f(&Node::new_leaf());
            }
        }
    }

    fn take_error(&mut self) -> Option<PageIoError> {
        self.record.error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::PointObject;
    use crate::tree::RTreeConfig;
    use cij_geom::Point;

    fn sample_tree() -> RTree<PointObject> {
        let mut tree = RTree::new(RTreeConfig {
            page_size: 128,
            min_fill: 0.4,
            max_entries: 64,
        });
        for i in 0..200u64 {
            let d = i as f64;
            tree.insert(PointObject::new(i, Point::new(d * 7.0 % 100.0, d)));
        }
        tree
    }

    #[test]
    fn traced_reads_match_counted_reads_without_accounting() {
        let mut tree = sample_tree();
        tree.drop_buffer();
        tree.stats().reset();
        let root = tree.root_page();

        let mut traced = SnapshotReader::traced(&tree);
        let node = traced.read(root);
        assert_eq!(traced.trace(), &[root]);
        assert_eq!(traced.reads(), 1);
        // Snapshot reads are free: no counter moved.
        assert_eq!(tree.stats().snapshot().logical_reads, 0);

        // Same payload as a counted read.
        let counted = tree.read_node(root);
        assert_eq!(node, counted);
        assert_eq!(tree.stats().snapshot().logical_reads, 1);
    }

    /// The access sequence both reader tests replay: the root, each of its
    /// children, and the root again (read and visit interleaved).
    fn access_sequence(tree: &RTree<PointObject>) -> Vec<PageId> {
        let root = tree.root_page();
        let mut pages = vec![root];
        pages.extend(tree.peek_node(root).children.iter().map(|c| c.page));
        pages.push(root);
        pages
    }

    fn read_all(reader: &mut SnapshotReader<'_, PointObject>, pages: &[PageId]) {
        for (i, &page) in pages.iter().enumerate() {
            if i % 2 == 0 {
                let _ = NodeReader::read(reader, page);
            } else {
                reader.visit(page, &mut |n| assert!(!n.is_empty()));
            }
        }
    }

    #[test]
    fn untraced_reader_counts_locally_and_records_nothing() {
        let mut tree = sample_tree();
        tree.drop_buffer();
        tree.stats().reset();
        let pages = access_sequence(&tree);
        assert!(pages.len() > 2);

        let mut reader = SnapshotReader::new(&tree);
        for (n, &page) in pages.iter().enumerate() {
            read_all(&mut reader, &[page]);
            assert_eq!(reader.reads(), n as u64 + 1, "every access is counted");
            assert!(
                reader.trace().is_empty(),
                "an untraced reader records no trace"
            );
        }
        let record = reader.into_record();
        assert_eq!(record.reads, pages.len() as u64);
        assert_eq!(
            record.trace.capacity(),
            0,
            "the untraced reader never allocates"
        );
        assert!(record.error.is_none());
        // No shared counter moved.
        assert_eq!(tree.stats().snapshot().logical_reads, 0);
    }

    #[test]
    fn traced_reader_records_exactly_its_access_sequence() {
        let mut tree = sample_tree();
        tree.drop_buffer();
        tree.stats().reset();
        let pages = access_sequence(&tree);

        let mut traced = SnapshotReader::traced(&tree);
        read_all(&mut traced, &pages);
        assert_eq!(traced.trace(), pages.as_slice());
        assert_eq!(traced.reads(), traced.trace().len() as u64);
        let record = traced.into_record();
        assert_eq!(record.trace, pages);
        assert_eq!(record.reads, pages.len() as u64);
        assert_eq!(tree.stats().snapshot().logical_reads, 0);
    }

    #[test]
    fn traced_reads_raise_the_trace_probe_and_replays_the_replay_probe() {
        let mut tree = sample_tree();
        let root = tree.root_page();
        let before = probe::trace_records();
        let mut traced = SnapshotReader::traced(&tree);
        let _ = NodeReader::read(&mut traced, root);
        traced.visit(root, &mut |_| {});
        assert!(
            probe::trace_records() >= before + 2,
            "read + visit each record one trace entry"
        );
        let before = probe::replays();
        tree.replay_read(root);
        assert!(probe::replays() > before);
    }

    #[test]
    fn counted_reader_latches_corrupt_reads_and_serves_an_empty_leaf() {
        let mut tree = sample_tree();
        tree.flush();
        tree.drop_buffer();
        let root = tree.root_page();
        tree.inject_fault(cij_pagestore::FaultSpec::corrupt_frame(root.0));

        let node = NodeReader::read(&mut tree, root);
        assert!(
            node.is_leaf() && node.is_empty(),
            "failed read must serve an empty leaf, not stale or garbage data"
        );
        let err = NodeReader::take_error(&mut tree).expect("error must latch");
        assert_eq!(err.kind, cij_pagestore::FaultKind::Corrupt);
        assert_eq!(err.page, Some(root.0));
        assert!(
            NodeReader::take_error(&mut tree).is_none(),
            "take_error drains the latch"
        );
        assert_eq!(tree.quarantined_frames(), vec![root.0]);
    }

    #[test]
    fn snapshot_reader_latches_errors_and_neither_counts_nor_traces_them() {
        let mut tree = sample_tree();
        tree.flush();
        tree.drop_buffer();
        let root = tree.root_page();
        tree.inject_fault(cij_pagestore::FaultSpec::corrupt_frame(root.0));

        let mut reader = SnapshotReader::traced(&tree);
        let node = NodeReader::read(&mut reader, root);
        assert!(node.is_leaf() && node.is_empty());
        assert_eq!(reader.reads(), 0, "failed reads are not counted");
        let mut visited_len = usize::MAX;
        reader.visit(root, &mut |n| visited_len = n.len());
        assert_eq!(visited_len, 0, "visit still runs the callback (empty leaf)");
        assert!(
            reader.trace().is_empty(),
            "failed reads must not be replayed"
        );
        let record = reader.into_record();
        let err = record.error.expect("first error latched");
        assert_eq!(err.kind, cij_pagestore::FaultKind::Corrupt);
        assert_eq!(record.reads, 0);
    }

    #[test]
    fn replaying_a_trace_reproduces_the_counted_run() {
        // Perform a traversal through counted reads on one tree and through
        // trace + replay on an identical tree: counters must agree exactly.
        let mut live = sample_tree();
        let mut replayed = sample_tree();
        for t in [&mut live, &mut replayed] {
            t.set_buffer_pages(4);
            t.drop_buffer();
            t.stats().reset();
        }

        // Root, every child of it, then the root again (a buffer hit).
        let pattern = access_sequence(&live);
        for &page in &pattern {
            let _ = live.read_node(page);
        }

        let mut traced = SnapshotReader::traced(&replayed);
        for &page in &pattern {
            let _ = NodeReader::read(&mut traced, page);
        }
        let trace = traced.into_record().trace;
        assert_eq!(trace, pattern);
        for page in trace {
            replayed.replay_read(page);
        }
        assert_eq!(live.stats().snapshot(), replayed.stats().snapshot());
    }
}
