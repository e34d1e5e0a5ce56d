//! BF-VOR: exact Voronoi-cell computation in a single R-tree traversal
//! (Algorithm 1 of the paper).
//!
//! The algorithm maintains a conservative cell approximation `Vc(pi)`
//! (initially the whole space domain) and browses the R-tree entries in
//! ascending `mindist` from `pi` (best-first order, like the incremental NN
//! algorithm of \[11\]). Each discovered point refines the cell by bisector
//! clipping; Lemmas 1 and 2 prune points and subtrees that cannot refine the
//! current cell. Every node is accessed at most once.
//!
//! The Lemma-2 test runs behind the same O(1) reach certificate as
//! Algorithm 2 ([`can_refine_certified`], see [`crate::batch`]): the cell's
//! squared reach is refreshed after every clip, and an entry farther than
//! twice the reach (plus the margin `δ`) is rejected without the vertex
//! loop. Decisions, and therefore cells, are unchanged.

use cij_geom::{can_refine_certified, cell_reach_sq, ConvexPolygon, Point, Rect};
use cij_pagestore::PageId;
use cij_rtree::{MinDistHeap, MinHeapItem, ObjectId, PointObject, RTree, RTreeObject};

enum HeapEntry {
    Node { page: PageId, mbr: Rect },
    Point(PointObject),
}

/// Computes the exact Voronoi cell `V(pi, P)` of `pi` within the pointset
/// indexed by `tree`, clipped to `domain`, using a single best-first
/// traversal (Algorithm 1, "BF-VOR").
///
/// `pi_id` identifies `pi` inside the tree so the point does not constrain
/// itself; pass [`ObjectId`]`(u64::MAX)` for a query point that is not part
/// of the dataset (the cell is then computed w.r.t. `P ∪ {pi}`).
pub fn single_voronoi(
    tree: &mut RTree<PointObject>,
    pi: Point,
    pi_id: ObjectId,
    domain: &Rect,
) -> ConvexPolygon {
    let mut cell = ConvexPolygon::from_rect(domain);
    if tree.is_empty() {
        return cell;
    }
    let mut reach = cell_reach_sq(&pi, &cell);
    let mut heap: MinDistHeap<HeapEntry> = MinDistHeap::new();
    heap.push(MinHeapItem::new(
        0.0,
        HeapEntry::Node {
            page: tree.root_page(),
            mbr: *domain,
        },
    ));

    while let Some(MinHeapItem { item, .. }) = heap.pop() {
        match item {
            HeapEntry::Point(pj) => {
                // Line 7 of Algorithm 1 applied at deheap time: the cell may
                // have shrunk since this entry was pushed.
                if pj.id == pi_id || !can_refine_certified(&pj.mbr(), cell.vertices(), &pi, reach) {
                    continue;
                }
                cell = cell.clip_bisector(&pi, &pj.point);
                reach = cell_reach_sq(&pi, &cell);
            }
            HeapEntry::Node { page, mbr } => {
                // Line 7 of Algorithm 1: skip (without reading) subtrees that
                // can no longer refine the current cell.
                if !can_refine_certified(&mbr, cell.vertices(), &pi, reach) {
                    continue;
                }
                let node = tree.read_node(page);
                if node.is_leaf() {
                    for o in node.objects {
                        if o.id == pi_id {
                            continue;
                        }
                        if can_refine_certified(&o.mbr(), cell.vertices(), &pi, reach) {
                            let d = o.point.dist(&pi);
                            heap.push(MinHeapItem::new(d, HeapEntry::Point(o)));
                        }
                    }
                } else {
                    for c in node.children {
                        if can_refine_certified(&c.mbr, cell.vertices(), &pi, reach) {
                            let d = c.mbr.mindist_point(&pi);
                            heap.push(MinHeapItem::new(
                                d,
                                HeapEntry::Node {
                                    page: c.page,
                                    mbr: c.mbr,
                                },
                            ));
                        }
                    }
                }
            }
        }
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cell;
    use cij_geom::can_refine;
    use cij_rtree::RTreeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config() -> RTreeConfig {
        RTreeConfig {
            page_size: 256,
            min_fill: 0.4,
            max_entries: 64,
        }
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect()
    }

    fn cells_equal(a: &ConvexPolygon, b: &ConvexPolygon) -> bool {
        // Two convex polygons are equal (up to numeric noise) when their
        // areas match and each contains the other's vertices.
        if (a.area() - b.area()).abs() > 1e-3 {
            return false;
        }
        a.vertices()
            .iter()
            .all(|v| b.vertices().iter().any(|w| v.dist(w) < 1e-3) || b.contains_point(v))
    }

    #[test]
    fn matches_brute_force_on_uniform_data() {
        let pts = random_points(300, 17);
        let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        for i in (0..pts.len()).step_by(23) {
            let expected = brute_force_cell(&pts, i, &Rect::DOMAIN);
            let got = single_voronoi(&mut tree, pts[i], ObjectId(i as u64), &Rect::DOMAIN);
            assert!(
                cells_equal(&expected, &got),
                "cell {i}: areas {} vs {}",
                expected.area(),
                got.area()
            );
        }
    }

    #[test]
    fn matches_brute_force_on_clustered_data() {
        let mut pts = random_points(150, 5);
        // Add a dense cluster to stress the pruning rule.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..150 {
            pts.push(Point::new(
                3_000.0 + rng.gen_range(-100.0..100.0),
                7_000.0 + rng.gen_range(-100.0..100.0),
            ));
        }
        let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        for i in (0..pts.len()).step_by(37) {
            let expected = brute_force_cell(&pts, i, &Rect::DOMAIN);
            let got = single_voronoi(&mut tree, pts[i], ObjectId(i as u64), &Rect::DOMAIN);
            assert!(
                cells_equal(&expected, &got),
                "cell {i}: areas {} vs {}",
                expected.area(),
                got.area()
            );
        }
    }

    #[test]
    fn query_point_not_in_dataset() {
        let pts = random_points(200, 31);
        let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        let q = Point::new(1_234.0, 5_678.0);
        let got = single_voronoi(&mut tree, q, ObjectId(u64::MAX), &Rect::DOMAIN);
        // Oracle: cell of q within P ∪ {q}.
        let mut with_q = pts.clone();
        with_q.push(q);
        let expected = brute_force_cell(&with_q, with_q.len() - 1, &Rect::DOMAIN);
        assert!(cells_equal(&expected, &got));
        assert!(got.contains_point(&q));
    }

    #[test]
    fn empty_tree_returns_whole_domain() {
        let mut tree: RTree<PointObject> = RTree::new(config());
        let cell = single_voronoi(&mut tree, Point::new(1.0, 1.0), ObjectId(0), &Rect::DOMAIN);
        assert!((cell.area() - Rect::DOMAIN.area()).abs() < 1e-6);
    }

    #[test]
    fn single_traversal_reads_each_node_at_most_once() {
        let pts = random_points(2_000, 7);
        let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        tree.drop_buffer();
        tree.stats().reset();
        let _ = single_voronoi(&mut tree, pts[42], ObjectId(42), &Rect::DOMAIN);
        let snap = tree.stats().snapshot();
        // With a cold, unbounded-free buffer (capacity 0 = unbuffered), the
        // logical reads equal node visits; Algorithm 1 visits each node at
        // most once, so they cannot exceed the page count.
        assert!(
            (snap.logical_reads as usize) <= tree.num_pages(),
            "visited {} nodes out of {}",
            snap.logical_reads,
            tree.num_pages()
        );
        // And the pruning must make it touch far fewer than all of them.
        assert!(
            (snap.logical_reads as usize) < tree.num_pages() / 4,
            "pruning ineffective: visited {} of {} nodes",
            snap.logical_reads,
            tree.num_pages()
        );
    }

    #[test]
    fn can_refine_rejects_far_entries() {
        let pi = Point::new(5_000.0, 5_000.0);
        // A tight cell around pi.
        let cell = ConvexPolygon::from_rect(&Rect::from_coords(4_900.0, 4_900.0, 5_100.0, 5_100.0));
        let far = Rect::from_coords(9_000.0, 9_000.0, 9_500.0, 9_500.0);
        let near = Rect::from_coords(5_050.0, 5_050.0, 5_200.0, 5_200.0);
        assert!(!can_refine(&far, cell.vertices(), &pi));
        assert!(can_refine(&near, cell.vertices(), &pi));
    }
}
