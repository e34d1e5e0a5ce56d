//! Best-first (incremental) nearest-neighbour search.
//!
//! This is the "distance browsing" algorithm of Hjaltason & Samet used by the
//! paper (reference \[11\]) as the traversal-order backbone of BF-VOR and of
//! the conditional filter: entries are visited in ascending `mindist` from a
//! query point by means of a min-heap.

use crate::object::RTreeObject;
use crate::tree::RTree;
use cij_geom::Point;
use cij_pagestore::PageId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An item in a min-heap ordered by a floating-point distance key.
///
/// `BinaryHeap` is a max-heap, so the ordering is reversed here; ties compare
/// equal. NaN keys are treated as +∞ (they sink to the end).
#[derive(Debug, Clone)]
pub struct MinHeapItem<T> {
    /// Distance key (smaller = popped earlier).
    pub dist: f64,
    /// Payload.
    pub item: T,
}

impl<T> MinHeapItem<T> {
    /// Creates a heap item.
    pub fn new(dist: f64, item: T) -> Self {
        MinHeapItem { dist, item }
    }

    fn key(&self) -> f64 {
        if self.dist.is_nan() {
            f64::INFINITY
        } else {
            self.dist
        }
    }
}

impl<T> PartialEq for MinHeapItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for MinHeapItem<T> {}
impl<T> PartialOrd for MinHeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for MinHeapItem<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller distance = greater priority.
        other
            .key()
            .partial_cmp(&self.key())
            .unwrap_or(Ordering::Equal)
    }
}

/// A convenience alias for a min-heap keyed by distance.
pub type MinDistHeap<T> = BinaryHeap<MinHeapItem<T>>;

enum HeapEntry<D> {
    Node(PageId),
    Object(D),
}

/// Incremental nearest-neighbour browser over an R-tree.
///
/// Produces objects in ascending distance from the query point; the caller
/// can stop at any time, which is what makes the traversal usable as a
/// building block for k-NN, BF-VOR and the conditional filter.
pub struct NearestNeighbourIter<'a, D: RTreeObject> {
    tree: &'a mut RTree<D>,
    query: Point,
    heap: MinDistHeap<HeapEntry<D>>,
}

impl<'a, D: RTreeObject> NearestNeighbourIter<'a, D> {
    /// Starts an incremental NN search from `query`.
    pub fn new(tree: &'a mut RTree<D>, query: Point) -> Self {
        let mut heap = BinaryHeap::new();
        let root = tree.root_page();
        heap.push(MinHeapItem::new(0.0, HeapEntry::Node(root)));
        NearestNeighbourIter { tree, query, heap }
    }
}

impl<'a, D: RTreeObject> Iterator for NearestNeighbourIter<'a, D> {
    type Item = (f64, D);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(MinHeapItem { dist, item }) = self.heap.pop() {
            match item {
                HeapEntry::Object(o) => return Some((dist, o)),
                HeapEntry::Node(page) => {
                    let node = self.tree.read_node(page);
                    if node.is_leaf() {
                        for o in node.objects {
                            let d = o.mbr().mindist_point(&self.query);
                            self.heap.push(MinHeapItem::new(d, HeapEntry::Object(o)));
                        }
                    } else {
                        for c in node.children {
                            let d = c.mbr.mindist_point(&self.query);
                            self.heap.push(MinHeapItem::new(d, HeapEntry::Node(c.page)));
                        }
                    }
                }
            }
        }
        None
    }
}

impl<D: RTreeObject> RTree<D> {
    /// Incremental nearest-neighbour iterator from `query`.
    pub fn nearest_iter(&mut self, query: Point) -> NearestNeighbourIter<'_, D> {
        NearestNeighbourIter::new(self, query)
    }

    /// The `k` nearest objects to `query`, closest first.
    pub fn k_nearest(&mut self, query: Point, k: usize) -> Vec<(f64, D)> {
        self.nearest_iter(query).take(k).collect()
    }

    /// The single nearest object to `query`, if the tree is non-empty.
    pub fn nearest(&mut self, query: Point) -> Option<(f64, D)> {
        self.nearest_iter(query).next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::PointObject;
    use crate::tree::RTreeConfig;
    use cij_geom::Rect;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_config() -> RTreeConfig {
        RTreeConfig {
            page_size: 128,
            min_fill: 0.4,
            max_entries: 64,
        }
    }

    fn random_tree(n: usize, seed: u64) -> (RTree<PointObject>, Vec<Point>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let mut tree = RTree::new(tiny_config());
        tree.insert_all(PointObject::from_points(&pts));
        (tree, pts)
    }

    fn brute_force_knn(pts: &[Point], q: &Point, k: usize) -> Vec<f64> {
        let mut d: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.truncate(k);
        d
    }

    #[test]
    fn min_heap_item_orders_ascending() {
        let mut heap: MinDistHeap<u32> = BinaryHeap::new();
        heap.push(MinHeapItem::new(5.0, 5));
        heap.push(MinHeapItem::new(1.0, 1));
        heap.push(MinHeapItem::new(3.0, 3));
        heap.push(MinHeapItem::new(f64::NAN, 99));
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop().map(|e| e.item)).collect();
        assert_eq!(order, vec![1, 3, 5, 99]);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let (mut tree, pts) = random_tree(300, 7);
        let q = Point::new(431.0, 612.0);
        let expected = brute_force_knn(&pts, &q, 1)[0];
        let (d, _) = tree.nearest(q).unwrap();
        assert!((d - expected).abs() < 1e-9);
    }

    #[test]
    fn k_nearest_matches_brute_force_for_many_queries() {
        let (mut tree, pts) = random_tree(500, 11);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let q = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let expected = brute_force_knn(&pts, &q, 10);
            let got: Vec<f64> = tree.k_nearest(q, 10).iter().map(|(d, _)| *d).collect();
            for (e, g) in expected.iter().zip(&got) {
                assert!((e - g).abs() < 1e-9, "expected {e}, got {g}");
            }
        }
    }

    #[test]
    fn iterator_yields_nondecreasing_distances() {
        let (mut tree, _) = random_tree(200, 3);
        let q = Point::new(500.0, 500.0);
        let dists: Vec<f64> = tree.nearest_iter(q).map(|(d, _)| d).collect();
        assert_eq!(dists.len(), 200);
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn nearest_on_empty_tree_is_none() {
        let mut tree: RTree<PointObject> = RTree::new(tiny_config());
        assert!(tree.nearest(Point::new(1.0, 1.0)).is_none());
        assert!(tree.k_nearest(Point::new(1.0, 1.0), 5).is_empty());
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let (mut tree, pts) = random_tree(50, 9);
        let got = tree.k_nearest(Point::new(0.0, 0.0), 500);
        assert_eq!(got.len(), pts.len());
    }

    #[test]
    fn best_first_reads_fewer_nodes_than_full_scan() {
        let (mut tree, _) = random_tree(2000, 5);
        tree.drop_buffer();
        tree.stats().reset();
        let _ = tree.k_nearest(Point::new(500.0, 500.0), 5);
        let nn_reads = tree.stats().snapshot().physical_reads;
        assert!(
            (nn_reads as usize) < tree.num_pages() / 2,
            "best-first NN should touch a small fraction of the tree ({nn_reads} vs {})",
            tree.num_pages()
        );
        // Sanity: a full scan touches every page.
        tree.drop_buffer();
        tree.stats().reset();
        let _ = tree.range_query(&Rect::from_coords(0.0, 0.0, 1000.0, 1000.0));
        assert_eq!(
            tree.stats().snapshot().physical_reads as usize,
            tree.num_pages()
        );
    }
}
