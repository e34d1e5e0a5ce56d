//! BatchVoronoi: concurrent Voronoi-cell computation for a group of nearby
//! points (Algorithm 2 of the paper).
//!
//! Computing the cells of all points in one R-tree leaf with repeated calls
//! to Algorithm 1 would re-read the same neighbourhood of the tree over and
//! over. Algorithm 2 shares a single traversal among the whole group `G`:
//! entries are browsed in ascending `mindist` from the centroid of `G`, an
//! entry is pruned only when it can refine **no** group member's cell, and a
//! discovered point refines only the cells it can actually refine.
//!
//! # Reach certificates
//!
//! Both tests are vertex loops — Lemma 2 ([`can_refine`]) once per group
//! member for every entry, Lemma 1 ([`bisector_cuts`]) once per member for
//! every discovered point — and most of them cannot change the answer. The
//! traversal keeps each member's squared *reach* ([`cell_reach_sq`]: the
//! farthest cell vertex from the site), refreshed after every clip of that
//! member, and runs the certified forms [`can_refine_certified`] and
//! [`bisector_cuts_certified`]: an entry whose `mindist` from the site, or
//! a point whose distance from it, exceeds `2·reach` by the relative margin
//! `δ` ([`CERT_MARGIN`](cij_geom::CERT_MARGIN)) is skipped in O(1), because
//! everything a cut removes lies within twice the reach. The decisions are
//! those of the exact loops, so cells and page accesses are bit-identical;
//! the soundness argument (rounding, empty cells, duplicates) is in
//! [`cij_geom::prune`].
//!
//! [`can_refine`]: cij_geom::can_refine
//! [`bisector_cuts`]: cij_geom::bisector_cuts
//! [`cell_reach_sq`]: cij_geom::cell_reach_sq

use cij_geom::{
    bisector_cuts_certified, can_refine_certified, cell_reach_sq, ClipScratch, ConvexPolygon,
    Point, Rect,
};
use cij_pagestore::PageId;
use cij_rtree::{
    LeafLayout, MinDistHeap, MinHeapItem, NodeArena, NodeReader, PointObject, RTreeObject,
};

/// Reusable per-worker scratch for batch-Voronoi traversals.
///
/// The SoA ([`LeafLayout::Soa`]) path of [`batch_voronoi_with`] performs all
/// its transient work inside this struct: nodes decode into the
/// [`NodeArena`], cell refinement ping-pongs through the [`ClipScratch`],
/// per-leaf centroid distances land in `dists`, and both layouts keep the
/// members' squared reaches in `reach`. Allocate one per worker thread,
/// reuse it across every group the worker processes; after the buffers
/// reach their high-water size the traversal allocates only for the
/// returned cells themselves.
#[derive(Debug, Default)]
pub struct VorScratch {
    /// SoA node decode target.
    pub arena: NodeArena,
    /// Polygon clipping ping-pong buffers.
    pub clip: ClipScratch,
    /// Batched point-to-centroid distances of one leaf.
    pub dists: Vec<f64>,
    /// Squared reach of each group member's current cell, aligned with the
    /// group (the reach certificates of the module docs).
    pub reach: Vec<f64>,
}

impl VorScratch {
    /// Creates a scratch whose arena is pre-sized for nodes of the given
    /// byte budget
    /// ([`RTreeConfig::node_byte_budget`](cij_rtree::RTreeConfig::node_byte_budget)).
    pub fn for_budget(node_byte_budget: usize) -> Self {
        VorScratch {
            arena: NodeArena::for_budget(node_byte_budget),
            ..VorScratch::default()
        }
    }
}

enum HeapEntry {
    Node { page: PageId, mbr: Rect },
    Point(PointObject),
}

/// A store of previously computed exact Voronoi cells, keyed by point id.
///
/// [`batch_voronoi_cached`] consults the store before computing a cell and
/// deposits every freshly computed cell back into it. The canonical
/// implementation is the bounded LRU `CellCache` of `cij-core` (the paper's
/// Section IV-B *reuse buffer*); [`NoCache`] disables reuse.
pub trait CellStore {
    /// Returns a clone of the cached cell of point `id`, if present.
    fn get(&mut self, id: u64) -> Option<ConvexPolygon>;

    /// Stores the exact cell of point `id`.
    fn put(&mut self, id: u64, cell: &ConvexPolygon);
}

/// A [`CellStore`] that never caches — every request is a miss.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl CellStore for NoCache {
    fn get(&mut self, _id: u64) -> Option<ConvexPolygon> {
        None
    }

    fn put(&mut self, _id: u64, _cell: &ConvexPolygon) {}
}

/// [`batch_voronoi`] with a reuse buffer: cells already present in `cache`
/// are served without touching the tree; only the missing group members are
/// computed (in one shared traversal) and the fresh cells are deposited back
/// into the cache.
///
/// The returned vector is aligned with `group`, exactly like
/// [`batch_voronoi`].
pub fn batch_voronoi_cached<T: NodeReader<PointObject>, C: CellStore>(
    tree: &mut T,
    group: &[PointObject],
    domain: &Rect,
    cache: &mut C,
) -> Vec<ConvexPolygon> {
    batch_voronoi_cached_with(
        tree,
        group,
        domain,
        cache,
        LeafLayout::Aos,
        &mut VorScratch::default(),
    )
}

/// [`batch_voronoi_cached`] parameterized over the leaf [`LeafLayout`] and a
/// caller-owned [`VorScratch`]; cells are identical across layouts.
pub fn batch_voronoi_cached_with<T: NodeReader<PointObject>, C: CellStore>(
    tree: &mut T,
    group: &[PointObject],
    domain: &Rect,
    cache: &mut C,
    layout: LeafLayout,
    scratch: &mut VorScratch,
) -> Vec<ConvexPolygon> {
    // Fast path: nothing to look up.
    if group.is_empty() {
        return Vec::new();
    }
    let mut cells: Vec<Option<ConvexPolygon>> = Vec::with_capacity(group.len());
    let mut missing: Vec<PointObject> = Vec::new();
    for member in group {
        match cache.get(member.id.0) {
            Some(cell) => cells.push(Some(cell)),
            None => {
                cells.push(None);
                missing.push(*member);
            }
        }
    }
    if !missing.is_empty() {
        let computed = batch_voronoi_with(tree, &missing, domain, layout, scratch);
        let mut fresh = missing.iter().zip(computed);
        for slot in cells.iter_mut() {
            if slot.is_none() {
                let (obj, cell) = fresh.next().expect("one computed cell per missing member");
                cache.put(obj.id.0, &cell);
                *slot = Some(cell);
            }
        }
    }
    cells
        .into_iter()
        .map(|c| c.expect("every slot filled"))
        .collect()
}

/// Computes the exact Voronoi cells of every point in `group` within the
/// pointset indexed by `tree`, clipped to `domain`, sharing one best-first
/// traversal (Algorithm 2, "BatchVoronoi").
///
/// The returned vector is aligned with `group`. Group members do constrain
/// each other (they are part of `P`); a member never constrains itself.
///
/// Generic over [`NodeReader`], so the same traversal runs in counted mode
/// (`&mut RTree`) and in the traced snapshot mode of the parallel NM-CIJ
/// path ([`cij_rtree::TracedReader`]); the traversal logic — and therefore
/// the computed cells and the page-access sequence — is identical in both.
pub fn batch_voronoi<T: NodeReader<PointObject>>(
    tree: &mut T,
    group: &[PointObject],
    domain: &Rect,
) -> Vec<ConvexPolygon> {
    batch_voronoi_with(
        tree,
        group,
        domain,
        LeafLayout::Aos,
        &mut VorScratch::default(),
    )
}

/// [`batch_voronoi`] parameterized over the leaf [`LeafLayout`] and a
/// caller-owned [`VorScratch`].
///
/// Both layouts run the *same* traversal — same heap keys in the same push
/// order, same Lemma-1/Lemma-2 tests on the same `f64` values — so the
/// computed cells and page-access sequences are byte-identical. They differ
/// only in memory shape:
///
/// * [`LeafLayout::Aos`] reads owned [`Node`](cij_rtree::Node)s and clips
///   via the allocating [`ConvexPolygon::clip_bisector`] — the historical
///   baseline.
/// * [`LeafLayout::Soa`] decodes nodes into `scratch.arena` by reference,
///   computes leaf centroid distances as one batched loop over the
///   coordinate slices, and refines cells in place through `scratch.clip` —
///   no per-node or per-clip allocation after warm-up.
pub fn batch_voronoi_with<T: NodeReader<PointObject>>(
    tree: &mut T,
    group: &[PointObject],
    domain: &Rect,
    layout: LeafLayout,
    scratch: &mut VorScratch,
) -> Vec<ConvexPolygon> {
    let mut cells: Vec<ConvexPolygon> = group
        .iter()
        .map(|_| ConvexPolygon::from_rect(domain))
        .collect();
    if group.is_empty() || tree.is_empty() {
        return cells;
    }
    let VorScratch {
        arena,
        clip,
        dists,
        reach,
    } = scratch;
    let sites: Vec<Point> = group.iter().map(|o| o.point).collect();
    let centroid = Point::centroid(&sites).expect("non-empty group");
    reach.clear();
    reach.extend(
        group
            .iter()
            .zip(&cells)
            .map(|(member, cell)| cell_reach_sq(&member.point, cell)),
    );

    // A point pj discovered by the traversal refines member i's cell exactly
    // under the Lemma-1 test; group members refine each other here as well,
    // because they are data points of P like any other. The two layout arms
    // compute the same clip; SoA reuses the scratch buffers instead of
    // allocating a fresh polygon per bisector. Each clip refreshes the
    // member's reach.
    let mut refine_with = |cells: &mut [ConvexPolygon], reach: &mut [f64], pj: &PointObject| {
        for (i, member) in group.iter().enumerate() {
            if member.id == pj.id {
                continue;
            }
            if bisector_cuts_certified(cells[i].vertices(), &member.point, &pj.point, reach[i]) {
                match layout {
                    LeafLayout::Aos => {
                        cells[i] = cells[i].clip_bisector(&member.point, &pj.point);
                    }
                    LeafLayout::Soa => {
                        cells[i].clip_bisector_in_place(&member.point, &pj.point, clip);
                    }
                }
                reach[i] = cell_reach_sq(&member.point, &cells[i]);
            }
        }
    };

    // Group members are known up front; refine with them immediately so the
    // traversal starts from tight cells (pure optimisation — the traversal
    // would rediscover them anyway).
    for pj in group {
        refine_with(&mut cells, reach, pj);
    }

    let mut heap: MinDistHeap<HeapEntry> = MinDistHeap::new();
    heap.push(MinHeapItem::new(
        0.0,
        HeapEntry::Node {
            page: tree.root_page(),
            mbr: *domain,
        },
    ));

    // Lemma-2 test lifted to the group: an entry survives if it can refine
    // the cell of at least one member.
    let any_can_refine = |mbr: &Rect, cells: &[ConvexPolygon], reach: &[f64]| {
        group
            .iter()
            .zip(cells)
            .zip(reach)
            .any(|((member, cell), &r)| {
                can_refine_certified(mbr, cell.vertices(), &member.point, r)
            })
    };

    while let Some(MinHeapItem { item, .. }) = heap.pop() {
        match item {
            HeapEntry::Point(pj) => {
                // Re-checked at deheap time (line 9 of Algorithm 2): the
                // cells may have shrunk since this point was pushed.
                if any_can_refine(&pj.mbr(), &cells, reach) {
                    refine_with(&mut cells, reach, &pj);
                }
            }
            HeapEntry::Node { page, mbr } => {
                // Line 9 of Algorithm 2 applied before reading the child.
                if !any_can_refine(&mbr, &cells, reach) {
                    continue;
                }
                match layout {
                    LeafLayout::Aos => {
                        let node = tree.read(page);
                        if node.is_leaf() {
                            for o in node.objects {
                                if any_can_refine(&o.mbr(), &cells, reach) {
                                    let d = o.point.dist(&centroid);
                                    heap.push(MinHeapItem::new(d, HeapEntry::Point(o)));
                                }
                            }
                        } else {
                            for c in node.children {
                                if any_can_refine(&c.mbr, &cells, reach) {
                                    let d = c.mbr.mindist_point(&centroid);
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
                    LeafLayout::Soa => {
                        arena.load(&mut *tree, page);
                        if arena.is_leaf() {
                            // Batched centroid distances over the coordinate
                            // slices: same subtract/multiply/sqrt order as
                            // `Point::dist`, so the heap keys are bitwise
                            // equal to the AoS arm's.
                            let n = arena.len();
                            dists.clear();
                            dists.resize(n, 0.0);
                            let (cx, cy) = (centroid.x, centroid.y);
                            for ((d, &x), &y) in dists.iter_mut().zip(arena.xs()).zip(arena.ys()) {
                                let dx = x - cx;
                                let dy = y - cy;
                                *d = (dx * dx + dy * dy).sqrt();
                            }
                            for (i, &d) in dists.iter().enumerate() {
                                let o = arena.object(i);
                                if any_can_refine(&o.mbr(), &cells, reach) {
                                    heap.push(MinHeapItem::new(d, HeapEntry::Point(o)));
                                }
                            }
                        } else {
                            for c in arena.children() {
                                if any_can_refine(&c.mbr, &cells, reach) {
                                    let d = c.mbr.mindist_point(&centroid);
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
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cell;
    use crate::single::single_voronoi;
    use cij_rtree::{RTree, RTreeConfig};
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
        (a.area() - b.area()).abs() < 1e-3
    }

    #[test]
    fn batch_matches_brute_force() {
        let pts = random_points(250, 21);
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        // Group = 12 points from one neighbourhood (take the 12 nearest to a
        // random anchor to emulate a leaf node's contents).
        let anchor = Point::new(4_000.0, 6_000.0);
        let mut by_dist: Vec<usize> = (0..pts.len()).collect();
        by_dist.sort_by(|&a, &b| {
            pts[a]
                .dist_sq(&anchor)
                .partial_cmp(&pts[b].dist_sq(&anchor))
                .unwrap()
        });
        let group: Vec<PointObject> = by_dist[..12].iter().map(|&i| objects[i]).collect();
        let cells = batch_voronoi(&mut tree, &group, &Rect::DOMAIN);
        for (member, cell) in group.iter().zip(&cells) {
            let expected = brute_force_cell(&pts, member.id.0 as usize, &Rect::DOMAIN);
            assert!(
                cells_equal(&expected, cell),
                "member {:?}: {} vs {}",
                member.id,
                expected.area(),
                cell.area()
            );
        }
    }

    #[test]
    fn batch_agrees_with_single_cell_computation() {
        let pts = random_points(400, 2);
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        let group: Vec<PointObject> = objects[100..110].to_vec();
        let batch_cells = batch_voronoi(&mut tree, &group, &Rect::DOMAIN);
        for (member, cell) in group.iter().zip(&batch_cells) {
            let single = single_voronoi(&mut tree, member.point, member.id, &Rect::DOMAIN);
            assert!(
                cells_equal(&single, cell),
                "member {:?}: single {} vs batch {}",
                member.id,
                single.area(),
                cell.area()
            );
        }
    }

    #[test]
    fn batch_is_cheaper_than_individual_calls() {
        let pts = random_points(3_000, 13);
        let objects = PointObject::from_points(&pts);

        // Individual calls.
        let mut tree_a = RTree::bulk_load(config(), objects.clone());
        let group: Vec<PointObject> = {
            // Use one actual leaf node as the group, as FM-CIJ does.
            let domain = Rect::DOMAIN;
            let leaf = tree_a.leaf_pages_hilbert_order(&domain)[0];
            tree_a.read_node(leaf).objects
        };
        tree_a.drop_buffer();
        tree_a.stats().reset();
        for m in &group {
            let _ = single_voronoi(&mut tree_a, m.point, m.id, &Rect::DOMAIN);
        }
        let individual = tree_a.stats().snapshot().logical_reads;

        // One batched call.
        let mut tree_b = RTree::bulk_load(config(), objects);
        tree_b.drop_buffer();
        tree_b.stats().reset();
        let _ = batch_voronoi(&mut tree_b, &group, &Rect::DOMAIN);
        let batched = tree_b.stats().snapshot().logical_reads;

        assert!(
            batched < individual,
            "batched traversal ({batched} node reads) should beat {} individual calls ({individual})",
            group.len()
        );
    }

    #[test]
    fn cached_batch_matches_uncached_and_serves_hits() {
        use std::collections::HashMap;

        struct MapStore {
            cells: HashMap<u64, ConvexPolygon>,
            hits: usize,
        }
        impl CellStore for MapStore {
            fn get(&mut self, id: u64) -> Option<ConvexPolygon> {
                let hit = self.cells.get(&id).cloned();
                if hit.is_some() {
                    self.hits += 1;
                }
                hit
            }
            fn put(&mut self, id: u64, cell: &ConvexPolygon) {
                self.cells.insert(id, cell.clone());
            }
        }

        let pts = random_points(300, 31);
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        let group: Vec<PointObject> = objects[40..52].to_vec();

        let uncached = batch_voronoi(&mut tree, &group, &Rect::DOMAIN);
        let mut store = MapStore {
            cells: HashMap::new(),
            hits: 0,
        };
        // First pass: all misses, results identical to the uncached call.
        let first = batch_voronoi_cached(&mut tree, &group, &Rect::DOMAIN, &mut store);
        assert_eq!(store.hits, 0);
        for (a, b) in uncached.iter().zip(&first) {
            assert!(cells_equal(a, b));
        }
        // Second pass: every cell is served from the store, without touching
        // the tree.
        tree.stats().reset();
        let second = batch_voronoi_cached(&mut tree, &group, &Rect::DOMAIN, &mut store);
        assert_eq!(store.hits, group.len());
        assert_eq!(tree.stats().snapshot().logical_reads, 0);
        for (a, b) in first.iter().zip(&second) {
            assert!(cells_equal(a, b));
        }
        // A NoCache store degrades to the plain batch computation.
        let none = batch_voronoi_cached(&mut tree, &group, &Rect::DOMAIN, &mut NoCache);
        for (a, b) in uncached.iter().zip(&none) {
            assert!(cells_equal(a, b));
        }
    }

    #[test]
    fn cached_batch_with_partial_cache_fills_only_gaps() {
        let pts = random_points(200, 32);
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        let group: Vec<PointObject> = objects[10..20].to_vec();
        let reference = batch_voronoi(&mut tree, &group, &Rect::DOMAIN);

        struct HalfStore(std::collections::HashMap<u64, ConvexPolygon>);
        impl CellStore for HalfStore {
            fn get(&mut self, id: u64) -> Option<ConvexPolygon> {
                self.0.get(&id).cloned()
            }
            fn put(&mut self, id: u64, cell: &ConvexPolygon) {
                self.0.insert(id, cell.clone());
            }
        }
        // Pre-populate the store with every other member's exact cell.
        let mut store = HalfStore(std::collections::HashMap::new());
        for (i, (obj, cell)) in group.iter().zip(&reference).enumerate() {
            if i % 2 == 0 {
                store.0.insert(obj.id.0, cell.clone());
            }
        }
        let mixed = batch_voronoi_cached(&mut tree, &group, &Rect::DOMAIN, &mut store);
        for (a, b) in reference.iter().zip(&mixed) {
            assert!(cells_equal(a, b));
        }
        // The store now holds all members.
        assert_eq!(store.0.len(), group.len());
    }

    #[test]
    fn soa_and_aos_layouts_agree_bitwise() {
        let pts = random_points(600, 47);
        let objects = PointObject::from_points(&pts);
        let mut aos_tree = RTree::bulk_load(config(), objects.clone());
        let mut soa_tree = RTree::bulk_load(config(), objects.clone());
        for t in [&mut aos_tree, &mut soa_tree] {
            t.set_buffer_pages(4);
            t.drop_buffer();
            t.stats().reset();
        }
        let mut scratch = VorScratch::for_budget(config().node_byte_budget());
        for lo in [0, 77, 200] {
            let group: Vec<PointObject> = objects[lo..lo + 10].to_vec();
            let aos = batch_voronoi_with(
                &mut aos_tree,
                &group,
                &Rect::DOMAIN,
                LeafLayout::Aos,
                &mut VorScratch::default(),
            );
            let soa = batch_voronoi_with(
                &mut soa_tree,
                &group,
                &Rect::DOMAIN,
                LeafLayout::Soa,
                &mut scratch,
            );
            // Bitwise, not approximate: the layouts execute the same f64
            // operations in the same order.
            assert_eq!(aos, soa);
        }
        assert_eq!(aos_tree.stats().snapshot(), soa_tree.stats().snapshot());
        assert_eq!(aos_tree.backend_io(), soa_tree.backend_io());
    }

    #[test]
    fn empty_group_returns_no_cells() {
        let pts = random_points(50, 1);
        let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        assert!(batch_voronoi(&mut tree, &[], &Rect::DOMAIN).is_empty());
    }

    #[test]
    fn group_of_whole_tiny_dataset() {
        let pts = random_points(8, 77);
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        let cells = batch_voronoi(&mut tree, &objects, &Rect::DOMAIN);
        let total: f64 = cells.iter().map(|c| c.area()).sum();
        assert!(
            (total - Rect::DOMAIN.area()).abs() / Rect::DOMAIN.area() < 1e-6,
            "cells of the whole dataset must tile the domain (got {total})"
        );
        for (o, c) in objects.iter().zip(&cells) {
            assert!(c.contains_point(&o.point));
        }
    }

    #[test]
    fn duplicate_site_ids_do_not_self_constrain() {
        // A group member must not clip its own cell even if it appears both
        // in the group and in the tree (the normal situation).
        let pts = vec![Point::new(2_000.0, 2_000.0), Point::new(8_000.0, 8_000.0)];
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        let cells = batch_voronoi(&mut tree, &objects, &Rect::DOMAIN);
        // Each cell is half the domain.
        for c in &cells {
            assert!((c.area() - Rect::DOMAIN.area() / 2.0).abs() < 1e-3);
        }
    }
}
