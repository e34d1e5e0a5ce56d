//! The timing [`NodeReader`]: wraps a reader (in practice the engine's
//! [`SnapshotReader`]) and measures the time spent inside the page store,
//! from outside the engine.
//!
//! For [`NodeReader::visit`] the caller's callback runs *inside* the inner
//! reader's call; its time belongs to the calling layer (decoding the node
//! into an arena, say), so it is excluded from the store time.

use cij_pagestore::{PageId, PageIoError};
use cij_rtree::{Node, NodeReader, RTreeObject, SnapshotReader};
use std::time::{Duration, Instant};

/// A reader whose page-store time and read count the replay can collect.
pub trait ReadProbe {
    /// Store time accumulated since the last call (zero for untimed
    /// readers).
    fn take_store(&mut self) -> Duration;
    /// Node reads served so far.
    fn reads(&self) -> u64;
}

impl<D: RTreeObject> ReadProbe for SnapshotReader<'_, D> {
    fn take_store(&mut self) -> Duration {
        Duration::ZERO
    }

    fn reads(&self) -> u64 {
        SnapshotReader::reads(self)
    }
}

/// A [`NodeReader`] that times every read of the reader it wraps.
#[derive(Debug)]
pub struct TimingReader<R> {
    inner: R,
    reads: u64,
    store: Duration,
}

impl<R> TimingReader<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        TimingReader {
            inner,
            reads: 0,
            store: Duration::ZERO,
        }
    }
}

impl<R> ReadProbe for TimingReader<R> {
    fn take_store(&mut self) -> Duration {
        std::mem::take(&mut self.store)
    }

    fn reads(&self) -> u64 {
        self.reads
    }
}

impl<D: RTreeObject, R: NodeReader<D>> NodeReader<D> for TimingReader<R> {
    fn root_page(&self) -> PageId {
        self.inner.root_page()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn read(&mut self, page: PageId) -> Node<D> {
        let start = Instant::now();
        let node = self.inner.read(page);
        self.store += start.elapsed();
        self.reads += 1;
        node
    }

    fn visit(&mut self, page: PageId, f: &mut dyn FnMut(&Node<D>)) {
        let start = Instant::now();
        let mut callback = Duration::ZERO;
        self.inner.visit(page, &mut |node| {
            let entered = Instant::now();
            f(node);
            callback += entered.elapsed();
        });
        self.store += start.elapsed().saturating_sub(callback);
        self.reads += 1;
    }

    fn take_error(&mut self) -> Option<PageIoError> {
        self.inner.take_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_core::{CijConfig, QueryEngine};
    use cij_datagen::uniform_points;
    use cij_geom::Rect;
    use cij_rtree::LeafLayout;
    use cij_voronoi::{batch_voronoi_with, VorScratch};

    #[test]
    fn timing_reader_is_transparent() {
        let engine = QueryEngine::new(CijConfig::default());
        let p = uniform_points(2_000, &Rect::DOMAIN, 11);
        let w = engine.build_workload(&p, &p);
        let tree = &w.rp;
        let (leaves, _) = tree.leaf_pages_hilbert_order_peek(&Rect::DOMAIN);
        let group = SnapshotReader::new(tree).read(leaves[3]).objects;
        let budget = tree.config().node_byte_budget();

        let mut bare = SnapshotReader::new(tree);
        let cells_bare = batch_voronoi_with(
            &mut bare,
            &group,
            &Rect::DOMAIN,
            LeafLayout::Soa,
            &mut VorScratch::for_budget(budget),
        );
        let mut timed = TimingReader::new(SnapshotReader::new(tree));
        let cells_timed = batch_voronoi_with(
            &mut timed,
            &group,
            &Rect::DOMAIN,
            LeafLayout::Soa,
            &mut VorScratch::for_budget(budget),
        );
        assert_eq!(cells_bare, cells_timed, "same nodes, same cells");
        assert_eq!(ReadProbe::reads(&bare), timed.reads());
        assert_eq!(
            timed.reads(),
            timed.inner.reads(),
            "every read counted once"
        );
        assert!(timed.reads() > 1);
        assert!(timed.take_store() > Duration::ZERO);
        assert_eq!(timed.take_store(), Duration::ZERO, "take drains");

        for &leaf in &leaves[..5] {
            let via_read = NodeReader::read(&mut timed, leaf);
            let mut via_visit = None;
            timed.visit(leaf, &mut |n| via_visit = Some(n.clone()));
            assert_eq!(Some(&via_read), via_visit.as_ref());
            assert_eq!(via_read, NodeReader::read(&mut bare, leaf));
        }
        assert_eq!(timed.reads(), timed.inner.reads());
        assert!(timed.take_error().is_none());
    }

    #[test]
    fn visit_callback_time_is_not_store_time() {
        let engine = QueryEngine::new(CijConfig::default());
        let p = uniform_points(500, &Rect::DOMAIN, 12);
        let w = engine.build_workload(&p, &p);
        let root = w.rp.root_page();
        let mut timed = TimingReader::new(SnapshotReader::new(&w.rp));
        let pause = Duration::from_millis(20);
        timed.visit(root, &mut |_| std::thread::sleep(pause));
        assert!(timed.take_store() < pause);
    }
}
