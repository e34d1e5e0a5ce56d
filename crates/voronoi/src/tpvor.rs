//! TP-VOR: the multi-traversal Voronoi-cell baseline of Zhang et al. \[10\].
//!
//! The method of reference \[10\] refines a cell approximation by issuing a
//! time-parameterised NN query *towards each vertex* of the current
//! approximation; every such query is an independent R-tree traversal, and
//! the queries cannot be merged because later vertices depend on earlier
//! refinements. The paper uses TP-VOR as the baseline that BF-VOR
//! (Algorithm 1) is compared against in Figure 5.
//!
//! This reproduction keeps the baseline's essential access pattern — one
//! independent best-first traversal per active vertex, repeated until the
//! cell stabilises — which is what produces its higher node-access counts.

use cij_geom::{ConvexPolygon, Point, Rect};
use cij_rtree::{ObjectId, PointObject, RTree};

/// Computes the exact Voronoi cell of `pi` using the multi-traversal TP-VOR
/// strategy: repeatedly test each vertex of the current approximation with an
/// independent NN traversal and clip when a closer point is found.
///
/// Node accesses accumulate in the tree's shared
/// [`IoStats`](cij_pagestore::IoStats) exactly as for BF-VOR, so the two
/// methods can be compared on the same footing.
pub fn tp_voronoi(
    tree: &mut RTree<PointObject>,
    pi: Point,
    pi_id: ObjectId,
    domain: &Rect,
) -> ConvexPolygon {
    let mut cell = ConvexPolygon::from_rect(domain);
    if tree.is_empty() {
        return cell;
    }
    const EPS: f64 = 1e-7;
    loop {
        let vertices: Vec<Point> = cell.vertices().to_vec();
        let mut refined = false;
        for gamma in vertices {
            // Stale vertices (already cut off by a refinement earlier in this
            // round) are skipped.
            if !cell.contains_point(&gamma) {
                continue;
            }
            // Independent traversal: the NN of the vertex, excluding pi.
            let nn = tree
                .nearest_iter(gamma)
                .find(|(_, o)| o.id != pi_id)
                .map(|(_, o)| o);
            if let Some(pj) = nn {
                if pj.point.dist(&gamma) + EPS < gamma.dist(&pi) {
                    cell = cell.clip_bisector(&pi, &pj.point);
                    refined = true;
                }
            }
        }
        if !refined {
            break;
        }
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cell;
    use crate::single::single_voronoi;
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

    #[test]
    fn matches_brute_force() {
        let pts = random_points(200, 41);
        let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        for i in (0..pts.len()).step_by(29) {
            let expected = brute_force_cell(&pts, i, &Rect::DOMAIN);
            let got = tp_voronoi(&mut tree, pts[i], ObjectId(i as u64), &Rect::DOMAIN);
            assert!(
                (expected.area() - got.area()).abs() < 1e-3,
                "cell {i}: {} vs {}",
                expected.area(),
                got.area()
            );
        }
    }

    #[test]
    fn agrees_with_bf_vor() {
        let pts = random_points(500, 8);
        let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        for i in (0..pts.len()).step_by(61) {
            let a = single_voronoi(&mut tree, pts[i], ObjectId(i as u64), &Rect::DOMAIN);
            let b = tp_voronoi(&mut tree, pts[i], ObjectId(i as u64), &Rect::DOMAIN);
            assert!((a.area() - b.area()).abs() < 1e-3);
        }
    }

    #[test]
    fn tp_vor_needs_more_node_reads_than_bf_vor() {
        // The headline comparison of Figure 5: BF-VOR accesses each node at
        // most once, TP-VOR repeats traversals and therefore reads more.
        let pts = random_points(2_000, 19);
        let objects = PointObject::from_points(&pts);
        let mut bf_total = 0u64;
        let mut tp_total = 0u64;
        let mut tree = RTree::bulk_load(config(), objects);
        for i in (0..pts.len()).step_by(101) {
            tree.drop_buffer();
            tree.stats().reset();
            let _ = single_voronoi(&mut tree, pts[i], ObjectId(i as u64), &Rect::DOMAIN);
            bf_total += tree.stats().snapshot().logical_reads;

            tree.drop_buffer();
            tree.stats().reset();
            let _ = tp_voronoi(&mut tree, pts[i], ObjectId(i as u64), &Rect::DOMAIN);
            tp_total += tree.stats().snapshot().logical_reads;
        }
        assert!(
            tp_total > bf_total,
            "TP-VOR ({tp_total} node reads) should cost more than BF-VOR ({bf_total})"
        );
    }

    #[test]
    fn empty_tree_returns_domain() {
        let mut tree: RTree<PointObject> = RTree::new(config());
        let cell = tp_voronoi(&mut tree, Point::new(1.0, 1.0), ObjectId(0), &Rect::DOMAIN);
        assert!((cell.area() - Rect::DOMAIN.area()).abs() < 1e-6);
    }
}
