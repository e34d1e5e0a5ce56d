//! The O(1) reach and shield-circle certificates in front of the Lemma 1–3
//! vertex loops must never change a decision.
//!
//! * Golden hashes: the bitwise vertex coordinates of `batch_voronoi_with`
//!   and `single_voronoi` cells, and the conditional filter's candidates plus
//!   [`FilterStats`] and page accesses, hashed over uniform, clustered,
//!   lattice and degenerate inputs. The constants were recorded on the
//!   uncertified implementation; any drift means a certificate decided
//!   differently from the exact predicate it guards.
//! * Soundness properties: each certificate implies its exact predicate, on
//!   random cells and on degenerate ones — a lattice, duplicates, a
//!   co-circular ring, a collinear run, a 1e-6-wide cluster, points on the
//!   domain edge, a far-offset domain — with probes placed at
//!   `2·reach·(1 ± k·ulp)`, right on the certificate's threshold. These
//!   assert the implication directly, so they check soundness in release
//!   builds too, where the certificates' own debug assertions are off.

use cij::core::{batch_conditional_filter_scratch, FilterKernel, FilterOptions, FilterScratch};
use cij::geom::{
    beyond_reach, bisector_cuts, bisector_cuts_certified, can_refine, can_refine_certified,
    cell_reach_sq, rect_within_phi_all_sides, rect_within_phi_certified, ShieldCircle,
};
use cij::prelude::*;
use cij::rtree::{LeafLayout, ObjectId, RTreeConfig};
use cij::voronoi::{batch_voronoi_with, brute_force_diagram, VorScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tree_config() -> RTreeConfig {
    RTreeConfig {
        page_size: 512,
        min_fill: 0.4,
        max_entries: 64,
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn cell(&mut self, cell: &ConvexPolygon) {
        self.word(cell.len() as u64);
        for v in cell.vertices() {
            self.word(v.x.to_bits());
            self.word(v.y.to_bits());
        }
    }
}

/// A square lattice: every Voronoi vertex is co-circular with four sites.
fn lattice(side: usize) -> Vec<Point> {
    let step = Rect::DOMAIN.width() / side as f64;
    (0..side * side)
        .map(|k| {
            Point::new(
                (k % side) as f64 * step + step / 2.0,
                (k / side) as f64 * step + step / 2.0,
            )
        })
        .collect()
}

/// An exactly co-circular ring around `centre`: the integer points of the
/// circle x² + y² = 65², scaled by `scale` (65² has many such points, so
/// the coordinates need no trigonometry and are exact).
fn ring(centre: Point, scale: f64) -> Vec<Point> {
    let mut pts = Vec::new();
    for x in -65i64..=65 {
        let y = ((65 * 65 - x * x) as f64).sqrt() as i64;
        if y * y != 65 * 65 - x * x {
            continue;
        }
        for y in if y == 0 { vec![0] } else { vec![y, -y] } {
            pts.push(Point::new(
                centre.x + scale * x as f64,
                centre.y + scale * y as f64,
            ));
        }
    }
    pts
}

/// The degenerate mix: duplicates, a collinear run, a 1e-6-wide cluster,
/// points on the domain boundary and a co-circular ring, over a sparse
/// uniform background.
fn degenerate() -> Vec<Point> {
    let mut pts = uniform_points(400, &Rect::DOMAIN, 5);
    for k in 0..40 {
        let p = pts[k * 7];
        pts.push(p);
    }
    for k in 0..60 {
        pts.push(Point::new(1_000.0 + 50.0 * k as f64, 3_000.0));
    }
    for k in 0..40 {
        pts.push(Point::new(
            7_000.0 + 1e-6 * (k % 7) as f64 / 7.0,
            7_000.0 + 1e-6 * (k / 7) as f64 / 7.0,
        ));
    }
    for k in 0..40 {
        let t = k as f64 / 40.0;
        pts.push(Point::new(10_000.0 * t, 0.0));
        pts.push(Point::new(10_000.0, 10_000.0 * t));
        pts.push(Point::new(0.0, 10_000.0 * (1.0 - t)));
    }
    pts.extend(ring(Point::new(5_000.0, 5_000.0), 5.0));
    pts
}

fn datasets() -> Vec<(&'static str, Vec<Point>)> {
    vec![
        ("uniform", uniform_points(1_500, &Rect::DOMAIN, 11)),
        (
            "clustered",
            clustered_points(&ClusterSpec::new(1_500), &Rect::DOMAIN, 12),
        ),
        ("lattice", lattice(36)),
        ("degenerate", degenerate()),
    ]
}

/// Groups of the tree in Hilbert leaf order — the NM-CIJ unit of work.
fn leaf_groups(tree: &mut RTree<PointObject>) -> Vec<Vec<PointObject>> {
    let leaves = tree.leaf_pages_hilbert_order(&Rect::DOMAIN);
    leaves
        .into_iter()
        .map(|page| tree.read_node(page).objects)
        .collect()
}

/// Hash of every leaf group's batch cells under both layouts (which must
/// agree bitwise), plus the traversal's logical page reads.
fn batch_hash(points: &[Point]) -> u64 {
    let mut tree = RTree::bulk_load(tree_config(), PointObject::from_points(points));
    let groups = leaf_groups(&mut tree);
    tree.stats().reset();
    let mut scratch = VorScratch::for_budget(tree_config().node_byte_budget());
    let mut h = Fnv::new();
    for group in &groups {
        let soa = batch_voronoi_with(
            &mut tree,
            group,
            &Rect::DOMAIN,
            LeafLayout::Soa,
            &mut scratch,
        );
        let aos = batch_voronoi_with(
            &mut tree,
            group,
            &Rect::DOMAIN,
            LeafLayout::Aos,
            &mut VorScratch::default(),
        );
        assert_eq!(soa, aos, "layouts diverged");
        for cell in &soa {
            h.cell(cell);
        }
    }
    h.word(tree.stats().snapshot().logical_reads);
    h.0
}

/// Hash of Algorithm 1's cells for every 5th point.
fn single_hash(points: &[Point]) -> u64 {
    let mut tree = RTree::bulk_load(tree_config(), PointObject::from_points(points));
    tree.stats().reset();
    let mut h = Fnv::new();
    for (i, p) in points.iter().enumerate().step_by(5) {
        h.cell(&single_voronoi(
            &mut tree,
            *p,
            ObjectId(i as u64),
            &Rect::DOMAIN,
        ));
    }
    h.word(tree.stats().snapshot().logical_reads);
    h.0
}

/// Hash of the conditional filter's candidates, statistics and page reads
/// over every leaf group of `q`, under both kernels, both layouts and with
/// and without cell bounding.
fn filter_hash(p: &[Point], q: &[Point]) -> u64 {
    let mut rq = RTree::bulk_load(tree_config(), PointObject::from_points(q));
    let mut rp = RTree::bulk_load(tree_config(), PointObject::from_points(p));
    let groups = leaf_groups(&mut rq);
    let mut vor = VorScratch::for_budget(tree_config().node_byte_budget());
    let mut scratch = FilterScratch::for_budget(tree_config().node_byte_budget());
    let mut h = Fnv::new();
    for group in &groups {
        let polys = batch_voronoi_with(&mut rq, group, &Rect::DOMAIN, LeafLayout::Soa, &mut vor);
        for kernel in [FilterKernel::Indexed, FilterKernel::Scan] {
            for bound in [false, true] {
                let mut outcomes = [LeafLayout::Soa, LeafLayout::Aos].map(|layout| {
                    rp.stats().reset();
                    let options = FilterOptions::for_kernel(kernel)
                        .with_bound_cells(bound)
                        .with_layout(layout);
                    let (cands, stats) = batch_conditional_filter_scratch(
                        &mut rp,
                        &polys,
                        &Rect::DOMAIN,
                        &options,
                        &mut scratch,
                    );
                    (cands, stats, rp.stats().snapshot().logical_reads)
                });
                assert_eq!(outcomes[0], outcomes[1], "layouts diverged");
                let (cands, stats, reads) = std::mem::take(&mut outcomes[0]);
                h.word(cands.len() as u64);
                for c in &cands {
                    h.word(c.id.0);
                }
                h.word(stats.points_examined);
                h.word(stats.entries_pruned);
                h.word(stats.clip_ops);
                h.word(stats.poly_tests_skipped);
                h.word(reads);
            }
        }
    }
    h.0
}

/// Hashes recorded on the uncertified implementation, per dataset:
/// (batch cells, single cells, filter over the dataset, filter probed by
/// the dataset's cells).
const GOLDEN: [(&str, u64, u64, u64, u64); 4] = [
    (
        "uniform",
        0x5306_d5a8_9aeb_9c59,
        0x17dd_6ddc_425c_44d3,
        0x1f29_5e6d_60aa_62ec,
        0x2e15_78e3_70e8_69cd,
    ),
    (
        "clustered",
        0x52fd_2d5f_4af1_6b98,
        0xa327_a3e2_d87d_345a,
        0xa37d_5c59_535f_6a8d,
        0x5b2d_f047_0e17_19ae,
    ),
    (
        "lattice",
        0x438f_64fd_ab55_f2c7,
        0xfb2a_f39f_d4f4_14ef,
        0xf36e_3751_f397_6c1a,
        0x2fee_b6c5_8d9f_9031,
    ),
    (
        "degenerate",
        0x4dcf_351a_d0ee_43e4,
        0xcd90_4818_07fa_ad17,
        0x2b87_5a40_c772_6905,
        0xfede_8eeb_b5e3_3145,
    ),
];

#[test]
fn certified_pruning_reproduces_the_golden_hashes() {
    let probe = uniform_points(1_200, &Rect::DOMAIN, 77);
    let mut got = Vec::new();
    for (name, points) in datasets() {
        got.push((
            name,
            batch_hash(&points),
            single_hash(&points),
            filter_hash(&points, &probe),
            filter_hash(&probe, &points),
        ));
    }
    assert_eq!(got, GOLDEN);
}

/// The degenerate point sets of the soundness properties, each with the
/// domain its cells are clipped to.
fn degenerate_sets() -> Vec<(&'static str, Vec<Point>, Rect)> {
    let d = Rect::DOMAIN;
    let mut rng = StdRng::seed_from_u64(3);
    let random: Vec<Point> = (0..120)
        .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
        .collect();
    let mut duplicates = random[..40].to_vec();
    duplicates.extend_from_slice(&random[..20]);
    let centre = Point::new(5_000.0, 5_000.0);
    let mut ring = ring(centre, 10.0);
    ring.push(centre);
    let collinear: Vec<Point> = (0..40)
        .map(|k| Point::new(500.0 + 237.5 * k as f64, 4_321.0))
        .chain(random[..10].iter().copied())
        .collect();
    let cluster: Vec<Point> = (0..30)
        .map(|k| {
            Point::new(
                3_000.0 + 1e-6 * rng.gen_range(0.0..1.0),
                6_000.0 + 1e-6 * (k as f64 / 30.0),
            )
        })
        .chain(random[..20].iter().copied())
        .collect();
    let edge: Vec<Point> = (0..40)
        .map(|k| {
            let t = 250.0 * k as f64;
            match k % 4 {
                0 => Point::new(t, 0.0),
                1 => Point::new(10_000.0, t),
                2 => Point::new(10_000.0 - t, 10_000.0),
                _ => Point::new(0.0, 10_000.0 - t),
            }
        })
        .chain(random[..20].iter().copied())
        .collect();
    let offset = Rect::from_coords(1e9, 1e9, 1e9 + 10_000.0, 1e9 + 10_000.0);
    let far: Vec<Point> = random[..60]
        .iter()
        .map(|p| Point::new(p.x + 1e9, p.y + 1e9))
        .collect();
    vec![
        ("random", random, d),
        ("lattice", lattice(9), d),
        ("duplicates", duplicates, d),
        ("ring", ring, d),
        ("collinear", collinear, d),
        ("cluster", cluster, d),
        ("edge", edge, d),
        ("far offset", far, offset),
    ]
}

/// Non-negative `x` moved by `k` units in the last place (never below 0).
fn ulps(x: f64, k: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + k).max(0) as u64)
}

/// Probe points for the reach certificate around `site`: every point of the
/// set, plus points at `2·reach·(1 ± k·ulp)` — both along each vertex's
/// direction (where the bisector passes through that vertex exactly at
/// `k = 0`) and in random directions.
fn reach_probes(site: &Point, cell: &ConvexPolygon, set: &[Point], rng: &mut StdRng) -> Vec<Point> {
    let mut probes = set.to_vec();
    let reach = cell_reach_sq(site, cell).sqrt();
    let mut dirs: Vec<(f64, f64)> = cell
        .vertices()
        .iter()
        .map(|v| {
            let (dx, dy) = (v.x - site.x, v.y - site.y);
            let n = (dx * dx + dy * dy).sqrt().max(f64::MIN_POSITIVE);
            (dx / n, dy / n)
        })
        .collect();
    for _ in 0..4 {
        let a = rng.gen_range(0.0..std::f64::consts::TAU);
        dirs.push((a.cos(), a.sin()));
    }
    for v in cell.vertices() {
        // Exactly the vertex's mirror image: the bisector runs through v.
        probes.push(Point::new(2.0 * v.x - site.x, 2.0 * v.y - site.y));
    }
    for (dx, dy) in dirs {
        for k in -6..=6 {
            let r = ulps(2.0 * reach, k * 3);
            probes.push(Point::new(site.x + r * dx, site.y + r * dy));
        }
    }
    probes
}

#[test]
fn reach_certificates_imply_lemmas_1_and_2() {
    let mut rng = StdRng::seed_from_u64(17);
    let (mut cut_skips, mut refine_skips, mut near_cuts) = (0u64, 0u64, 0u64);
    for (name, set, domain) in degenerate_sets() {
        let cells = brute_force_diagram(&set, &domain);
        // The exact cells, and random convex sub-polygons of them (the
        // partially refined cells Algorithm 2 holds mid-traversal).
        let mut shapes: Vec<(Point, ConvexPolygon)> = set.iter().copied().zip(cells).collect();
        for &s in set.iter().take(20) {
            let mut cell = ConvexPolygon::from_rect(&domain);
            for _ in 0..3 {
                let o = Point::new(
                    rng.gen_range(domain.lo.x..domain.hi.x),
                    rng.gen_range(domain.lo.y..domain.hi.y),
                );
                cell = cell.clip_bisector(&s, &o);
            }
            shapes.push((s, cell));
        }
        shapes.push((set[0], ConvexPolygon::empty()));
        for (site, cell) in &shapes {
            let reach = cell_reach_sq(site, cell);
            let v = cell.vertices();
            for o in reach_probes(site, cell, &set, &mut rng) {
                let cuts = bisector_cuts(v, site, &o);
                if beyond_reach(site.dist_sq(&o), reach) {
                    assert!(
                        !cuts,
                        "{name}: Lemma-1 certificate skipped a cut: {site} / {o}"
                    );
                    cut_skips += 1;
                } else if cuts && site.dist_sq(&o) > 3.9 * reach {
                    near_cuts += 1;
                }
                assert_eq!(bisector_cuts_certified(v, site, &o, reach), cuts);
                let side = rng.gen_range(0.0..1e-3) * (1.0 + o.x.abs());
                for e in [
                    Rect::from_point(o),
                    Rect::new(o, Point::new(o.x + side, o.y + side)),
                ] {
                    let refines = can_refine(&e, v, site);
                    if beyond_reach(e.mindist_point_sq(site), reach) {
                        assert!(!refines, "{name}: Lemma-2 certificate skipped {e:?}");
                        refine_skips += 1;
                    }
                    assert_eq!(can_refine_certified(&e, v, site, reach), refines);
                }
            }
        }
    }
    // Not vacuous: the certificates fired, and probes inside the threshold
    // really did cut.
    assert!(cut_skips > 1_000 && refine_skips > 1_000 && near_cuts > 0);
}

#[test]
fn shield_certificate_implies_lemma_3() {
    let mut rng = StdRng::seed_from_u64(23);
    let (mut certified, mut on_threshold) = (0u64, 0u64);
    for (name, set, domain) in degenerate_sets() {
        let cells = brute_force_diagram(&set, &domain);
        let scale = domain.width();
        for t in cells.iter().filter(|t| !t.is_empty()).take(40) {
            let circle = ShieldCircle::around(t, &t.bbox());
            let centre = t.bbox().center();
            for _ in 0..40 {
                // A shield candidate near the polygon, and entries placed
                // in a random direction at distances straddling the point
                // where the certificate starts to fire.
                let p = Point::new(
                    centre.x + rng.gen_range(-0.2..0.2) * scale,
                    centre.y + rng.gen_range(-0.2..0.2) * scale,
                );
                let reach = circle.reach(&p);
                let a = rng.gen_range(0.0..std::f64::consts::TAU);
                let (dx, dy) = (a.cos(), a.sin());
                let size = rng.gen_range(0.0..0.3) * scale;
                let probe = |dist: f64| {
                    // The entry's nearest point to the centre sits at `dist`
                    // along (dx, dy); the box extends away from the centre.
                    let near = Point::new(centre.x + dist * dx, centre.y + dist * dy);
                    let far = Point::new(near.x + size * dx.signum(), near.y + size * dy.signum());
                    Rect::new(near, far)
                };
                // clearance(probe(d)) = d − r − δ·S: solve for the `d`
                // at which it equals the candidate's reach.
                let d0 = reach + 2.0 * circle.reach(&centre);
                let threshold = d0 + reach - circle.clearance(&probe(d0));
                for dist in [
                    0.5 * threshold,
                    threshold,
                    ulps(threshold, -8),
                    ulps(threshold, 8),
                    1.01 * threshold,
                    3.0 * threshold,
                ] {
                    let e = probe(dist);
                    let exact = rect_within_phi_all_sides(&e, &p, t);
                    let clearance = circle.clearance(&e);
                    if reach < clearance {
                        assert!(exact, "{name}: Lemma-3 certificate unsound for {e:?}, {p}");
                        certified += 1;
                        if dist <= ulps(threshold, 8) {
                            on_threshold += 1;
                        }
                    }
                    assert_eq!(
                        rect_within_phi_certified(&e, &p, t, reach, clearance),
                        exact
                    );
                }
            }
        }
    }
    assert!(certified > 1_000 && on_threshold > 0);
}
