//! The conditional filter of NM-CIJ (Algorithm 5 and its batch variant),
//! with a sub-quadratic **indexed kernel** as the default execution
//! strategy.
//!
//! Given one or more convex polygons `T` (Voronoi cells of points of `Q`,
//! or running intersections of the multiway join), the filter traverses the
//! R-tree `RP` of pointset `P` and returns a candidate set `CP ⊆ P` that is
//! guaranteed to contain every point whose Voronoi cell intersects any of
//! the polygons. Section IV-A's three pruning ingredients are used:
//!
//! 1. points inside a polygon `T` always join (they are kept as candidates
//!    and their cells need not be checked for that polygon),
//! 2. a point `p` is discarded when its *approximate* cell `V(p, CP)` —
//!    computed from the already-found candidates only, a superset of the
//!    exact cell — misses every polygon,
//! 3. a non-leaf entry `e` that misses every polygon is pruned when, for each
//!    polygon `T`, some candidate `p ∈ CP` exists with `T ⊆ Φ(L, p)` for all
//!    sides `L` of `e` (Lemma 3), because then no point under `e` can have a
//!    cell reaching `T`. Each `T ⊆ Φ(L, p)` test is a loop over `T`'s
//!    vertices; an O(1) certificate decides most of them first. Every
//!    filter call puts a disc `(c, r)` around each polygon
//!    ([`ShieldCircle`]), and `p` shields `T` from `e` without the loops
//!    when `(|p − c| + r)·(1 + δ) < mindist(e, c) − r` (less a scale
//!    margin): every location of `T` is then strictly closer to `p` than to
//!    any side of `e`. Φ's `+EPS` tolerance only widens the region, so it
//!    can only help. The certificate only ever answers what the loops
//!    would, so candidates, statistics and page accesses are unchanged;
//!    `δ` and the soundness argument are in [`cij_geom::prune`].
//!
//! Entries are visited in ascending distance from the centroid of the
//! polygons (best-first), so nearby points enter `CP` early and shield the
//! rest of the tree.
//!
//! # The two kernels
//!
//! How ingredient 2 computes the approximate cell — and how the
//! "intersects some polygon" tests of ingredients 2 and 3 are evaluated —
//! is the [`FilterKernel`] strategy:
//!
//! * [`FilterKernel::Scan`], the historical baseline, is quadratic: every
//!   examined point clips its cell against **all** candidates found so far,
//!   and every point/node test linearly scans all probe polygons.
//! * [`FilterKernel::Indexed`], the default, keeps the candidates in a
//!   uniform-grid spatial index ([`cij_geom::PointGrid`]) and the probe
//!   polygons' bounding boxes in an overlap index ([`cij_geom::RectGrid`]).
//!   Each examined point clips only against *near* candidates,
//!   nearest-first by expanding grid rings, and each polygon test touches
//!   only the polygons whose bbox can overlap the query.
//!
//! **Why bounded clipping is sufficient.** Let `R` be the *reach* of the
//! current approximate cell from the examined point `p` — the maximum
//! distance from `p` to a cell vertex ([`cij_voronoi::cell_reach_sq`]). The
//! convex cell lies inside the circle of radius `R` around `p`. Every
//! location the bisector `⊥(p, c)` removes is closer to `c` than to `p`, so
//! by the triangle inequality it lies at least `dist(p, c) / 2` from `p`.
//! Hence a candidate with `dist(p, c) > 2R` cannot shrink the cell at all,
//! and once a grid ring's minimum distance exceeds `2R` **no remaining
//! candidate in that ring or beyond can either** — the enumeration stops.
//! Clipping near candidates first shrinks `R` as fast as possible, which is
//! what makes the cutoff bite early. Skipped clips are provably no-ops, so
//! both kernels return the **same candidate set** (asserted by the
//! `filter_kernel` experiment and a kernel-equivalence proptest); only the
//! [`FilterStats::clip_ops`] and [`FilterStats::poly_tests_skipped`]
//! counters differ.
//!
//! [`FilterKernel`]: crate::config::FilterKernel
//! [`FilterKernel::Scan`]: crate::config::FilterKernel::Scan
//! [`FilterKernel::Indexed`]: crate::config::FilterKernel::Indexed

use crate::config::FilterKernel;
use cij_geom::{
    bisector_cuts, cell_reach_sq, rect_within_phi_certified, ClipScratch, ConvexPolygon, Point,
    PointGrid, Rect, RectGrid, ShieldCircle,
};
use cij_pagestore::PageId;
use cij_rtree::{LeafLayout, MinDistHeap, MinHeapItem, Node, NodeArena, NodeReader, PointObject};

enum HeapEntry {
    Node { page: PageId, mbr: Rect },
    Point(PointObject),
}

/// Initial resolution of the adaptive candidate grid; it doubles whenever
/// the average bucket load exceeds ~3 ([`PointGrid::needs_growth`]).
const ADAPTIVE_GRID_START: usize = 8;

/// Statistics of one filter invocation (used for the false-hit-ratio
/// accounting of Figure 10 and the kernel comparison of the `filter_kernel`
/// experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Points of `P` examined (popped from the heap). Identical across
    /// kernels: the traversal itself never depends on the kernel.
    pub points_examined: u64,
    /// Non-leaf entries pruned by the Φ rule. Identical across kernels.
    pub entries_pruned: u64,
    /// Bisector clip operations performed while computing approximate
    /// cells — the quadratic term of the scan kernel, the headline saving
    /// of the indexed kernel.
    pub clip_ops: u64,
    /// Probe-polygon tests the indexed kernel's bbox index avoided relative
    /// to scanning the whole polygon batch (always 0 for the scan kernel).
    pub poly_tests_skipped: u64,
}

impl FilterStats {
    /// Folds another invocation's statistics into this accumulator (used by
    /// NM-CIJ and the multiway join, which issue one filter call per leaf or
    /// probe unit and report totals).
    pub fn absorb(&mut self, other: &FilterStats) {
        self.points_examined += other.points_examined;
        self.entries_pruned += other.entries_pruned;
        self.clip_ops += other.clip_ops;
        self.poly_tests_skipped += other.poly_tests_skipped;
    }
}

/// Execution options of one (batch) conditional-filter invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterOptions {
    /// The kernel strategy (see [`FilterKernel`]); indexed by default.
    pub kernel: FilterKernel,
    /// Fixed resolution of the indexed kernel's candidate grid; `0` (the
    /// default) selects the adaptive policy (start at
    /// 8×8, double when the average bucket load exceeds ~3). Ignored by the
    /// scan kernel.
    pub grid_resolution: usize,
    /// Seed every examined point's approximate cell from the probe
    /// polygons' (padded) union bounding box instead of the whole domain —
    /// the multiway join's running-intersection pruning. Decision
    /// preserving: for every probe polygon `T ⊆ B`, `(cell ∩ B) ∩ T =
    /// cell ∩ T`, so the same candidates are returned while cells start
    /// small (small reach ⇒ early clip cutoff) and far points' cells empty
    /// out immediately. Off by default.
    pub bound_cells: bool,
    /// Memory layout of the node reads and approximate-cell clipping (see
    /// [`LeafLayout`]): SoA (the default) decodes nodes into the caller's
    /// [`FilterScratch`] arena and clips cells in place; AoS is the
    /// historical owned-node/allocating baseline. The candidate set,
    /// statistics and page accesses are identical across layouts.
    pub layout: LeafLayout,
}

impl FilterOptions {
    /// Options running the given kernel with the default grid policy and no
    /// cell bounding.
    pub fn for_kernel(kernel: FilterKernel) -> Self {
        FilterOptions {
            kernel,
            ..Default::default()
        }
    }

    /// Returns the options with [`FilterOptions::bound_cells`] set.
    pub fn with_bound_cells(mut self, bound: bool) -> Self {
        self.bound_cells = bound;
        self
    }

    /// Returns the options with the given [`FilterOptions::layout`].
    pub fn with_layout(mut self, layout: LeafLayout) -> Self {
        self.layout = layout;
        self
    }
}

/// Reusable per-worker scratch of the filter: the node decode arena, the
/// polygon clipping ping-pong buffers and the approximate-cell working
/// polygon of the SoA path, and — for both layouts — the probe polygons'
/// shield circles. Allocate one per worker, reuse it across every filter
/// invocation the worker issues; contents between calls are unspecified.
#[derive(Debug, Default)]
pub struct FilterScratch {
    /// SoA node decode target.
    pub arena: NodeArena,
    /// Polygon clipping ping-pong buffers.
    pub clip: ClipScratch,
    /// The working approximate cell of the currently examined point.
    pub cell: ConvexPolygon,
    /// One [`ShieldCircle`] per non-empty probe polygon, for the Lemma-3
    /// certificate of the shield test.
    pub circles: Vec<ShieldCircle>,
}

impl FilterScratch {
    /// Creates a scratch whose arena is pre-sized for nodes of the given
    /// byte budget
    /// ([`RTreeConfig::node_byte_budget`](cij_rtree::RTreeConfig::node_byte_budget)).
    pub fn for_budget(node_byte_budget: usize) -> Self {
        FilterScratch {
            arena: NodeArena::for_budget(node_byte_budget),
            ..FilterScratch::default()
        }
    }
}

/// The per-kernel state of one filter invocation. The indexed payload is
/// boxed-by-construction in its two growable indexes, so the bare `Scan`
/// variant costing nothing extra is fine.
#[allow(clippy::large_enum_variant)]
enum KernelState {
    Scan,
    Indexed {
        /// Accepted candidates, bucketed by position for ring queries.
        grid: PointGrid,
        /// Probe-polygon bboxes, bucketed for overlap queries.
        polyidx: RectGrid,
        /// Whether the candidate grid doubles its resolution under load.
        adaptive: bool,
    },
}

/// Runs the (batch) conditional filter under default options: returns every
/// point of `P` whose Voronoi cell may intersect at least one polygon of
/// `polys`, plus filter statistics.
///
/// With a single polygon this is exactly Algorithm 5; with several it is the
/// BatchConditionalFilter of Section IV-A. See
/// [`batch_conditional_filter_with`] for kernel selection.
pub fn batch_conditional_filter<T: NodeReader<PointObject>>(
    rp: &mut T,
    polys: &[ConvexPolygon],
    domain: &Rect,
) -> (Vec<PointObject>, FilterStats) {
    batch_conditional_filter_with(rp, polys, domain, &FilterOptions::default())
}

/// [`batch_conditional_filter`] with explicit [`FilterOptions`] (kernel
/// choice, candidate-grid resolution, probe-bbox cell bounding, leaf
/// layout). Allocates a fresh [`FilterScratch`] per call; hot callers use
/// [`batch_conditional_filter_scratch`] to reuse one across invocations.
///
/// The candidate set is independent of the options — they trade CPU
/// strategies, never results. Generic over [`NodeReader`], so the same
/// traversal runs in counted mode (`&mut RTree`) and through the snapshot
/// reader of the chunked protocol's workers ([`cij_rtree::SnapshotReader`],
/// traced or counting).
pub fn batch_conditional_filter_with<T: NodeReader<PointObject>>(
    rp: &mut T,
    polys: &[ConvexPolygon],
    domain: &Rect,
    options: &FilterOptions,
) -> (Vec<PointObject>, FilterStats) {
    batch_conditional_filter_scratch(rp, polys, domain, options, &mut FilterScratch::default())
}

/// [`batch_conditional_filter_with`] writing through a caller-owned
/// [`FilterScratch`]: the SoA layout decodes nodes into `scratch.arena` and
/// computes approximate cells in `scratch.cell` via the in-place clipping
/// kernels, so a worker that keeps one scratch alive performs no per-unit
/// allocation in this function's hot loop. The AoS layout ignores the
/// scratch and runs the historical owned-node/allocating path; results and
/// page accesses are byte-identical either way.
pub fn batch_conditional_filter_scratch<T: NodeReader<PointObject>>(
    rp: &mut T,
    polys: &[ConvexPolygon],
    domain: &Rect,
    options: &FilterOptions,
    scratch: &mut FilterScratch,
) -> (Vec<PointObject>, FilterStats) {
    let mut stats = FilterStats::default();
    let mut candidates: Vec<PointObject> = Vec::new();
    let usable: Vec<&ConvexPolygon> = polys.iter().filter(|t| !t.is_empty()).collect();
    if rp.is_empty() || usable.is_empty() {
        return (candidates, stats);
    }

    // Reference point for the traversal order: centroid of the polygons'
    // centroids.
    let centers: Vec<Point> = usable.iter().filter_map(|t| t.centroid()).collect();
    let centroid = Point::centroid(&centers).unwrap_or_else(|| domain.center());

    // Bounding boxes of the polygons, for the cheap "does e intersect some T"
    // test that forbids pruning.
    let poly_bboxes: Vec<Rect> = usable.iter().map(|t| t.bbox()).collect();

    // A disc around each polygon: the O(1) certificate in front of the
    // shield test's Lemma-3 vertex loops.
    scratch.circles.clear();
    scratch.circles.extend(
        usable
            .iter()
            .zip(&poly_bboxes)
            .map(|(t, bb)| ShieldCircle::around(t, bb)),
    );

    // Seed polygon of every approximate cell: the whole domain, or — with
    // `bound_cells` — the padded union bbox of the probe polygons (every
    // polygon is inside it, so intersect decisions are unchanged while the
    // cells start with a small reach).
    let seed = if options.bound_cells {
        let union = poly_bboxes
            .iter()
            .fold(Rect::empty(), |acc, bb| acc.union(bb));
        let pad = cij_geom::EPS * (1.0 + union.width() + union.height());
        let padded = Rect::from_coords(
            union.lo.x - pad,
            union.lo.y - pad,
            union.hi.x + pad,
            union.hi.y + pad,
        );
        match domain.intersection(&padded) {
            Some(bound) => ConvexPolygon::from_rect(&bound),
            None => ConvexPolygon::from_rect(domain),
        }
    } else {
        ConvexPolygon::from_rect(domain)
    };

    let mut kernel = match options.kernel {
        FilterKernel::Scan => KernelState::Scan,
        FilterKernel::Indexed => KernelState::Indexed {
            grid: PointGrid::new(
                domain,
                if options.grid_resolution == 0 {
                    ADAPTIVE_GRID_START
                } else {
                    options.grid_resolution
                },
            ),
            polyidx: RectGrid::build(&poly_bboxes),
            adaptive: options.grid_resolution == 0,
        },
    };

    let mut heap: MinDistHeap<HeapEntry> = MinDistHeap::new();
    // The root is read up front (Algorithm 5, line 4) and its entries seeded.
    let root = rp.root_page();
    match options.layout {
        LeafLayout::Aos => enqueue_node(&mut heap, &centroid, rp.read(root)),
        LeafLayout::Soa => {
            scratch.arena.load(&mut *rp, root);
            enqueue_arena(&mut heap, &centroid, &scratch.arena);
        }
    }

    while let Some(MinHeapItem { item, .. }) = heap.pop() {
        match item {
            HeapEntry::Point(p) => {
                stats.points_examined += 1;
                // Approximate cell of p from the current candidates only; a
                // superset of V(p, P) (within the seed), so discarding is
                // safe. SoA computes it in place in the scratch cell; AoS
                // allocates one, as it always did.
                let cell_owned;
                let cell: &ConvexPolygon = match options.layout {
                    LeafLayout::Aos => {
                        cell_owned = match &mut kernel {
                            KernelState::Scan => {
                                approx_cell_scan(&seed, &p, &candidates, &mut stats)
                            }
                            KernelState::Indexed { grid, .. } => {
                                approx_cell_indexed(&seed, &p, &candidates, grid, &mut stats)
                            }
                        };
                        &cell_owned
                    }
                    LeafLayout::Soa => {
                        match &mut kernel {
                            KernelState::Scan => approx_cell_scan_into(
                                &seed,
                                &p,
                                &candidates,
                                &mut stats,
                                &mut scratch.cell,
                                &mut scratch.clip,
                            ),
                            KernelState::Indexed { grid, .. } => approx_cell_indexed_into(
                                &seed,
                                &p,
                                &candidates,
                                grid,
                                &mut stats,
                                &mut scratch.cell,
                                &mut scratch.clip,
                            ),
                        }
                        &scratch.cell
                    }
                };
                let joins = match &mut kernel {
                    KernelState::Scan => usable
                        .iter()
                        .zip(&poly_bboxes)
                        .any(|(t, bb)| cell.bbox().intersects(bb) && cell.intersects(t)),
                    KernelState::Indexed { polyidx, .. } => {
                        let cbb = cell.bbox();
                        any_indexed(polyidx, &cbb, &mut stats, |i| {
                            cbb.intersects(&poly_bboxes[i]) && cell.intersects(usable[i])
                        })
                    }
                };
                if joins {
                    candidates.push(p);
                    if let KernelState::Indexed { grid, adaptive, .. } = &mut kernel {
                        grid.insert(&p.point, candidates.len() as u32 - 1);
                        if *adaptive && grid.needs_growth() {
                            *grid = grid.grown(|i| candidates[i as usize].point);
                        }
                    }
                }
            }
            HeapEntry::Node { page, mbr } => {
                // A node whose MBR intersects some polygon may contain points
                // inside it; it can never be pruned.
                let touches_some_poly = match &mut kernel {
                    KernelState::Scan => usable
                        .iter()
                        .zip(&poly_bboxes)
                        .any(|(t, bb)| mbr.intersects(bb) && t.intersects_rect(&mbr)),
                    KernelState::Indexed { polyidx, .. } => {
                        any_indexed(polyidx, &mbr, &mut stats, |i| {
                            mbr.intersects(&poly_bboxes[i]) && usable[i].intersects_rect(&mbr)
                        })
                    }
                };
                if !touches_some_poly && is_shielded(&mbr, &usable, &scratch.circles, &candidates) {
                    stats.entries_pruned += 1;
                    continue;
                }
                match options.layout {
                    LeafLayout::Aos => enqueue_node(&mut heap, &centroid, rp.read(page)),
                    LeafLayout::Soa => {
                        scratch.arena.load(&mut *rp, page);
                        enqueue_arena(&mut heap, &centroid, &scratch.arena);
                    }
                }
            }
        }
    }
    (candidates, stats)
}

/// Pushes every entry of an owned (AoS) node onto the traversal heap, keyed
/// by distance from the traversal centroid.
fn enqueue_node(heap: &mut MinDistHeap<HeapEntry>, centroid: &Point, node: Node<PointObject>) {
    if node.is_leaf() {
        for o in node.objects {
            heap.push(MinHeapItem::new(
                o.point.dist(centroid),
                HeapEntry::Point(o),
            ));
        }
    } else {
        for c in node.children {
            heap.push(MinHeapItem::new(
                c.mbr.mindist_point(centroid),
                HeapEntry::Node {
                    page: c.page,
                    mbr: c.mbr,
                },
            ));
        }
    }
}

/// [`enqueue_node`] over the SoA decode arena. The distance expressions are
/// the same as the AoS path's, in the same operand order, so the heap keys —
/// and therefore the pop order and the candidate set — are bitwise identical
/// across layouts.
fn enqueue_arena(heap: &mut MinDistHeap<HeapEntry>, centroid: &Point, arena: &NodeArena) {
    if arena.is_leaf() {
        for i in 0..arena.len() {
            let o = arena.object(i);
            heap.push(MinHeapItem::new(
                o.point.dist(centroid),
                HeapEntry::Point(o),
            ));
        }
    } else {
        for c in arena.children() {
            heap.push(MinHeapItem::new(
                c.mbr.mindist_point(centroid),
                HeapEntry::Node {
                    page: c.page,
                    mbr: c.mbr,
                },
            ));
        }
    }
}

/// The scan kernel's approximate cell: clip against every candidate found
/// so far, in candidate order — the historical quadratic inner loop.
fn approx_cell_scan(
    seed: &ConvexPolygon,
    p: &PointObject,
    candidates: &[PointObject],
    stats: &mut FilterStats,
) -> ConvexPolygon {
    let mut cell = seed.clone();
    for c in candidates {
        if c.id == p.id {
            continue;
        }
        cell = cell.clip_bisector(&p.point, &c.point);
        stats.clip_ops += 1;
        if cell.is_empty() {
            break;
        }
    }
    cell
}

/// [`approx_cell_scan`] writing into a caller-owned cell through the
/// in-place clipping kernel — no allocation once the scratch buffers reach
/// their high-water mark. Clip order and accounting are identical, so the
/// resulting cell is bitwise equal to the allocating variant's.
fn approx_cell_scan_into(
    seed: &ConvexPolygon,
    p: &PointObject,
    candidates: &[PointObject],
    stats: &mut FilterStats,
    cell: &mut ConvexPolygon,
    scratch: &mut ClipScratch,
) {
    cell.clone_from(seed);
    for c in candidates {
        if c.id == p.id {
            continue;
        }
        cell.clip_bisector_in_place(&p.point, &c.point, scratch);
        stats.clip_ops += 1;
        if cell.is_empty() {
            break;
        }
    }
}

/// The indexed kernel's approximate cell: visit candidates nearest-first by
/// expanding grid rings, clip only bisectors that actually cut, and stop as
/// soon as the remaining rings are provably beyond twice the cell's reach
/// (see the module docs for the sufficiency argument).
fn approx_cell_indexed(
    seed: &ConvexPolygon,
    p: &PointObject,
    candidates: &[PointObject],
    grid: &PointGrid,
    stats: &mut FilterStats,
) -> ConvexPolygon {
    let mut cell = seed.clone();
    if cell.is_empty() || grid.is_empty() {
        return cell;
    }
    let mut reach_sq = cell_reach_sq(&p.point, &cell);
    let center = grid.frame().bucket_of(&p.point);
    let mut emptied = false;
    let mut ring = 0usize;
    loop {
        let lb = grid.ring_mindist(ring);
        // No candidate at distance > 2·reach can shrink the cell; rings only
        // get farther, so the whole enumeration can stop here.
        if lb * lb > 4.0 * reach_sq {
            break;
        }
        let in_range = grid.for_each_ring_bucket(center, ring, |bucket, items| {
            if emptied || items.is_empty() {
                return;
            }
            if bucket.mindist_point_sq(&p.point) > 4.0 * reach_sq {
                return;
            }
            for &idx in items {
                let c = &candidates[idx as usize];
                if c.id == p.id {
                    continue;
                }
                if c.point.dist_sq(&p.point) > 4.0 * reach_sq {
                    continue;
                }
                if !bisector_cuts(cell.vertices(), &p.point, &c.point) {
                    continue;
                }
                cell = cell.clip_bisector(&p.point, &c.point);
                stats.clip_ops += 1;
                if cell.is_empty() {
                    emptied = true;
                    return;
                }
                reach_sq = cell_reach_sq(&p.point, &cell);
            }
        });
        if emptied || !in_range {
            break;
        }
        ring += 1;
    }
    cell
}

/// [`approx_cell_indexed`] writing into a caller-owned cell through the
/// in-place clipping kernel. Same ring enumeration, same cutoffs, same
/// accounting — only the destination and the allocation behaviour differ.
fn approx_cell_indexed_into(
    seed: &ConvexPolygon,
    p: &PointObject,
    candidates: &[PointObject],
    grid: &PointGrid,
    stats: &mut FilterStats,
    cell: &mut ConvexPolygon,
    scratch: &mut ClipScratch,
) {
    cell.clone_from(seed);
    if cell.is_empty() || grid.is_empty() {
        return;
    }
    let mut reach_sq = cell_reach_sq(&p.point, cell);
    let center = grid.frame().bucket_of(&p.point);
    let mut emptied = false;
    let mut ring = 0usize;
    loop {
        let lb = grid.ring_mindist(ring);
        if lb * lb > 4.0 * reach_sq {
            break;
        }
        let in_range = grid.for_each_ring_bucket(center, ring, |bucket, items| {
            if emptied || items.is_empty() {
                return;
            }
            if bucket.mindist_point_sq(&p.point) > 4.0 * reach_sq {
                return;
            }
            for &idx in items {
                let c = &candidates[idx as usize];
                if c.id == p.id {
                    continue;
                }
                if c.point.dist_sq(&p.point) > 4.0 * reach_sq {
                    continue;
                }
                if !bisector_cuts(cell.vertices(), &p.point, &c.point) {
                    continue;
                }
                cell.clip_bisector_in_place(&p.point, &c.point, scratch);
                stats.clip_ops += 1;
                if cell.is_empty() {
                    emptied = true;
                    return;
                }
                reach_sq = cell_reach_sq(&p.point, cell);
            }
        });
        if emptied || !in_range {
            break;
        }
        ring += 1;
    }
}

/// Indexed "any polygon satisfies `check`" test: only polygons whose bbox
/// bucket range overlaps `query` are examined (each at most once, with
/// short-circuit on the first hit); the rest count as skipped tests.
fn any_indexed(
    polyidx: &mut RectGrid,
    query: &Rect,
    stats: &mut FilterStats,
    mut check: impl FnMut(usize) -> bool,
) -> bool {
    let mut examined = 0u64;
    let mut hit = false;
    polyidx.for_each_overlapping(query, |i| {
        examined += 1;
        if check(i as usize) {
            hit = true;
            return false;
        }
        true
    });
    stats.poly_tests_skipped += polyidx.len() as u64 - examined;
    hit
}

/// Whether every polygon is shielded from the entry `mbr` by some candidate:
/// for each polygon `T` there is a `p ∈ candidates` such that `T` falls in
/// `Φ(L, p)` for every side `L` of the entry (Lemma 3 applied per side).
///
/// `circles` are the polygons' [`ShieldCircle`]s: the entry's clearance is
/// computed once per polygon, each candidate's reach once per polygon, and
/// a candidate whose reach is below the clearance shields the polygon
/// without the vertex loops.
fn is_shielded(
    mbr: &Rect,
    polys: &[&ConvexPolygon],
    circles: &[ShieldCircle],
    candidates: &[PointObject],
) -> bool {
    if candidates.is_empty() {
        return false;
    }
    polys.iter().zip(circles).all(|(t, circle)| {
        let clearance = circle.clearance(mbr);
        candidates
            .iter()
            .any(|p| rect_within_phi_certified(mbr, &p.point, t, circle.reach(&p.point), clearance))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::Rect;
    use cij_rtree::{RTree, RTreeConfig};
    use cij_voronoi::{brute_force_cell, brute_force_diagram};
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

    /// Oracle: ids of P points whose exact Voronoi cell intersects any poly.
    fn oracle_joiners(p: &[Point], polys: &[ConvexPolygon]) -> Vec<u64> {
        let cells = brute_force_diagram(p, &Rect::DOMAIN);
        let mut out = Vec::new();
        for (i, c) in cells.iter().enumerate() {
            if polys.iter().any(|t| c.intersects(t)) {
                out.push(i as u64);
            }
        }
        out
    }

    #[test]
    fn candidate_set_is_a_superset_of_true_joiners() {
        let p = random_points(300, 31);
        let q = random_points(300, 32);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        // Use the cell of one Q point as the probe polygon.
        let t = brute_force_cell(&q, 17, &Rect::DOMAIN);
        let (candidates, _) =
            batch_conditional_filter(&mut rp, std::slice::from_ref(&t), &Rect::DOMAIN);
        let candidate_ids: Vec<u64> = candidates.iter().map(|c| c.id.0).collect();
        for joiner in oracle_joiners(&p, &[t]) {
            assert!(
                candidate_ids.contains(&joiner),
                "true joiner {joiner} missing from candidate set"
            );
        }
    }

    #[test]
    fn batched_filter_covers_every_polygon_of_the_group() {
        let p = random_points(250, 41);
        let q = random_points(250, 42);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let q_cells = brute_force_diagram(&q, &Rect::DOMAIN);
        let group: Vec<ConvexPolygon> = q_cells[40..52].to_vec();
        let (candidates, stats) = batch_conditional_filter(&mut rp, &group, &Rect::DOMAIN);
        let candidate_ids: Vec<u64> = candidates.iter().map(|c| c.id.0).collect();
        for joiner in oracle_joiners(&p, &group) {
            assert!(candidate_ids.contains(&joiner));
        }
        assert!(stats.points_examined >= candidates.len() as u64);
    }

    #[test]
    fn filter_prunes_most_of_the_tree() {
        let p = random_points(4_000, 51);
        let q = random_points(4_000, 52);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let t = brute_force_cell(&q, 123, &Rect::DOMAIN);
        rp.drop_buffer();
        rp.stats().reset();
        let (candidates, _) = batch_conditional_filter(&mut rp, &[t], &Rect::DOMAIN);
        let reads = rp.stats().snapshot().logical_reads as usize;
        assert!(
            reads < rp.num_pages() / 4,
            "filter read {reads} of {} pages — pruning ineffective",
            rp.num_pages()
        );
        assert!(
            candidates.len() < p.len() / 10,
            "candidate set unexpectedly large: {}",
            candidates.len()
        );
    }

    #[test]
    fn empty_polygon_list_yields_no_candidates() {
        let p = random_points(100, 61);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let (candidates, _) = batch_conditional_filter(&mut rp, &[], &Rect::DOMAIN);
        assert!(candidates.is_empty());
        let (candidates, _) =
            batch_conditional_filter(&mut rp, &[ConvexPolygon::empty()], &Rect::DOMAIN);
        assert!(candidates.is_empty());
    }

    #[test]
    fn whole_domain_polygon_keeps_voronoi_neighbours_of_everything() {
        // When the probe polygon is the whole domain, every point of P joins
        // (its cell is inside the domain), so the candidate set must be all
        // of P.
        let p = random_points(120, 71);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let t = ConvexPolygon::from_rect(&Rect::DOMAIN);
        let (candidates, _) = batch_conditional_filter(&mut rp, &[t], &Rect::DOMAIN);
        assert_eq!(candidates.len(), p.len());
    }

    #[test]
    fn points_inside_the_polygon_are_always_candidates() {
        let p = random_points(200, 81);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let t = ConvexPolygon::from_rect(&Rect::from_coords(2_000.0, 2_000.0, 5_000.0, 5_000.0));
        let (candidates, _) =
            batch_conditional_filter(&mut rp, std::slice::from_ref(&t), &Rect::DOMAIN);
        let ids: Vec<u64> = candidates.iter().map(|c| c.id.0).collect();
        for (i, pt) in p.iter().enumerate() {
            if t.contains_point(pt) {
                assert!(ids.contains(&(i as u64)), "inside point {i} filtered out");
            }
        }
    }

    #[test]
    fn filter_stats_absorb_accumulates_every_counter() {
        let mut total = FilterStats::default();
        total.absorb(&FilterStats {
            points_examined: 3,
            entries_pruned: 1,
            clip_ops: 10,
            poly_tests_skipped: 7,
        });
        total.absorb(&FilterStats {
            points_examined: 5,
            entries_pruned: 2,
            clip_ops: 4,
            poly_tests_skipped: 1,
        });
        assert_eq!(total.points_examined, 8);
        assert_eq!(total.entries_pruned, 3);
        assert_eq!(total.clip_ops, 14);
        assert_eq!(total.poly_tests_skipped, 8);
    }

    #[test]
    fn shield_test_requires_candidates() {
        let mbr = Rect::from_coords(9_000.0, 9_000.0, 9_100.0, 9_100.0);
        let t = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let circles = [ShieldCircle::around(&t, &t.bbox())];
        assert!(!is_shielded(&mbr, &[&t], &circles, &[]));
        let shield = PointObject::new(0, Point::new(4_000.0, 4_000.0));
        assert!(is_shielded(&mbr, &[&t], &circles, &[shield]));
    }

    #[test]
    fn query_unrelated_to_dataset_returns_near_empty_candidates() {
        // A probe polygon far away from a tight data cluster: only the
        // cluster points nearest to the polygon can have cells reaching it.
        let mut p = Vec::new();
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..500 {
            p.push(Point::new(
                1_000.0 + rng.gen_range(-50.0..50.0),
                1_000.0 + rng.gen_range(-50.0..50.0),
            ));
        }
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let t = ConvexPolygon::from_rect(&Rect::from_coords(9_000.0, 9_000.0, 9_200.0, 9_200.0));
        let (candidates, _) =
            batch_conditional_filter(&mut rp, std::slice::from_ref(&t), &Rect::DOMAIN);
        // Only boundary points of the cluster (whose cells extend to the far
        // corner) should survive; certainly not the whole cluster.
        assert!(
            candidates.len() < 100,
            "got {} candidates",
            candidates.len()
        );
        // And it must still be a superset of the truth.
        let ids: Vec<u64> = candidates.iter().map(|c| c.id.0).collect();
        for joiner in oracle_joiners(&p, &[t]) {
            assert!(ids.contains(&joiner));
        }
    }

    /// Runs both kernels over the same probe and returns the two outcomes.
    fn both_kernels(
        p: &[Point],
        polys: &[ConvexPolygon],
        bound_cells: bool,
    ) -> [(Vec<PointObject>, FilterStats); 2] {
        [FilterKernel::Indexed, FilterKernel::Scan].map(|kernel| {
            let mut rp = RTree::bulk_load(config(), PointObject::from_points(p));
            batch_conditional_filter_with(
                &mut rp,
                polys,
                &Rect::DOMAIN,
                &FilterOptions::for_kernel(kernel).with_bound_cells(bound_cells),
            )
        })
    }

    #[test]
    fn kernels_agree_and_indexed_clips_less() {
        let p = random_points(1_500, 95);
        let q = random_points(1_500, 96);
        let q_cells = brute_force_diagram(&q[..200], &Rect::DOMAIN);
        let group: Vec<ConvexPolygon> = q_cells[50..70].to_vec();
        let [(ind_cands, ind_stats), (scan_cands, scan_stats)] = both_kernels(&p, &group, false);
        assert_eq!(ind_cands, scan_cands, "kernels must agree on candidates");
        assert_eq!(ind_stats.points_examined, scan_stats.points_examined);
        assert_eq!(ind_stats.entries_pruned, scan_stats.entries_pruned);
        assert!(
            ind_stats.clip_ops < scan_stats.clip_ops,
            "indexed kernel must clip less ({} vs {})",
            ind_stats.clip_ops,
            scan_stats.clip_ops
        );
        assert!(ind_stats.poly_tests_skipped > 0);
        assert_eq!(scan_stats.poly_tests_skipped, 0);
    }

    #[test]
    fn bound_cells_preserves_candidates_in_both_kernels() {
        let p = random_points(800, 97);
        let q = random_points(800, 98);
        let q_cells = brute_force_diagram(&q[..150], &Rect::DOMAIN);
        let group: Vec<ConvexPolygon> = q_cells[10..26].to_vec();
        let [(ind_b, ind_b_stats), (scan_b, scan_b_stats)] = both_kernels(&p, &group, true);
        let [(ind, ind_stats), (scan, scan_stats)] = both_kernels(&p, &group, false);
        assert_eq!(ind, scan);
        assert_eq!(ind_b, ind, "bound_cells must not change the candidate set");
        assert_eq!(scan_b, scan);
        // Bounded seeds can only reduce clip work.
        assert!(ind_b_stats.clip_ops <= ind_stats.clip_ops);
        assert!(scan_b_stats.clip_ops <= scan_stats.clip_ops);
    }

    #[test]
    fn layouts_agree_bitwise_in_both_kernels() {
        let p = random_points(900, 101);
        let q = random_points(900, 102);
        let q_cells = brute_force_diagram(&q[..150], &Rect::DOMAIN);
        let group: Vec<ConvexPolygon> = q_cells[20..36].to_vec();
        for kernel in [FilterKernel::Indexed, FilterKernel::Scan] {
            let run = |layout: LeafLayout| {
                let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
                rp.set_buffer_pages(4);
                rp.drop_buffer();
                rp.stats().reset();
                let mut scratch = FilterScratch::for_budget(rp.config().node_byte_budget());
                let out = batch_conditional_filter_scratch(
                    &mut rp,
                    &group,
                    &Rect::DOMAIN,
                    &FilterOptions::for_kernel(kernel).with_layout(layout),
                    &mut scratch,
                );
                (out, rp.stats().snapshot(), rp.backend_io())
            };
            let ((soa_cands, soa_fstats), soa_stats, soa_io) = run(LeafLayout::Soa);
            let ((aos_cands, aos_fstats), aos_stats, aos_io) = run(LeafLayout::Aos);
            assert_eq!(soa_cands, aos_cands, "candidates diverged ({kernel:?})");
            assert_eq!(soa_fstats, aos_fstats, "filter stats diverged ({kernel:?})");
            assert_eq!(soa_stats, aos_stats, "page accesses diverged ({kernel:?})");
            assert_eq!(soa_io, aos_io, "backend IO diverged ({kernel:?})");
        }
    }

    #[test]
    fn fixed_grid_resolutions_agree_with_the_scan_kernel() {
        let p = random_points(600, 99);
        let q = random_points(600, 100);
        let q_cells = brute_force_diagram(&q[..120], &Rect::DOMAIN);
        let group: Vec<ConvexPolygon> = q_cells[30..42].to_vec();
        let scan = {
            let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
            batch_conditional_filter_with(
                &mut rp,
                &group,
                &Rect::DOMAIN,
                &FilterOptions::for_kernel(FilterKernel::Scan),
            )
            .0
        };
        for resolution in [1usize, 2, 7, 32, 100] {
            let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
            let opts = FilterOptions {
                kernel: FilterKernel::Indexed,
                grid_resolution: resolution,
                ..FilterOptions::default()
            };
            let (cands, _) = batch_conditional_filter_with(&mut rp, &group, &Rect::DOMAIN, &opts);
            assert_eq!(cands, scan, "resolution {resolution} diverged");
        }
    }
}
