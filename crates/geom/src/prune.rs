//! The pruning predicates of Lemmas 1–3 and the O(1) certificates that
//! decide most of their evaluations without a vertex loop.
//!
//! NM-CIJ prunes with three exact predicates, each a loop over the vertices
//! of a cell or polygon:
//!
//! * Lemma 1, [`bisector_cuts`]: can a discovered point cut a cell?
//! * Lemma 2, [`can_refine`]: can an R-tree entry refine a cell?
//! * Lemma 3, [`rect_within_phi_all_sides`]: does a candidate shield a
//!   polygon from every side of an entry?
//!
//! Most evaluations cannot change the answer, and a constant-time bound
//! shows it. The `*_certified` forms below consult that bound first and run
//! the vertex loop only when it cannot decide. A certificate is one-sided:
//! it only ever returns the answer the exact loop would return, so every
//! decision — and with it every cell, candidate set, counter and page
//! access — is bit-identical to the uncertified loop. In builds with
//! `debug_assertions` every certified decision also runs the exact loop
//! and asserts agreement, so the whole debug test suite doubles as a
//! soundness check.
//!
//! # The certificates
//!
//! **Reach (Lemmas 1 and 2).** The *reach* of a cell from its site `s` is
//! `R = max |γ − s|` over the cell's vertices `γ` ([`cell_reach_sq`]); the
//! convex cell lies in the disc of radius `R` around `s`. If some vertex
//! `γ` is closer to a location `x` than to `s`, then `|x − s| ≤ |x − γ| +
//! |γ − s| < 2R`. So a point `o` with `|o − s|² ≥ 4R²` cannot cut the cell
//! (Lemma 1), and an entry whose `mindist` from `s` is at least `2R` cannot
//! refine it (Lemma 2): [`beyond_reach`] skips both loops once the squared
//! distance exceeds [`REACH_FACTOR`]` · R²`.
//!
//! **Shield circle (Lemma 3).** Let the disc `(c, r)` contain the polygon
//! `T` ([`ShieldCircle`]). For every `v ∈ T` and every side `L` of an entry
//! `e`, `|v − p| ≤ |p − c| + r` and `mindist(L, v) ≥ mindist(e, c) − r`
//! (a side is part of its rectangle). So when
//! `(|p − c| + r)·(1 + δ) < mindist(e, c) − r` (minus a scale margin, below)
//! every vertex is strictly closer to `p` than to any side, which is
//! [`phi_contains_point`](crate::phi_contains_point) for all of them
//! without even using its `+EPS` slack — Φ's tolerance only widens the
//! region, so it can only help. [`ShieldCircle::reach`] is the left side,
//! once per candidate; [`ShieldCircle::clearance`] the right side, once per
//! entry. When `c` lies outside `e`, `mindist(e, c)` is the distance to the
//! nearest side, so the one bound is as strong as four per-side bounds.
//!
//! # Soundness in floating point
//!
//! The certificates compare *computed* distances, and the exact loops they
//! stand in for compare computed distances too; the margin `δ =`
//! [`CERT_MARGIN`] absorbs the difference. With unit roundoff `u = 2⁻⁵³`:
//!
//! * `dist_sq`, `mindist_point_sq` of a rectangle, and the reach are a
//!   rounded subtraction, two rounded squares and a rounded sum, so each is
//!   within a factor `(1 ± u)⁴` of its true value — a *relative* error,
//!   whatever the coordinates' magnitude. Following the triangle-inequality
//!   argument through these factors, an exact loop that answers "cuts" or
//!   "refines" forces a computed squared distance of at most
//!   `4R̂²·(1 + 16u)`, `R̂²` being the computed reach, and `G = 4·(1 + δ)`
//!   with `δ ≫ 16u` keeps such a case strictly below the certificate's
//!   threshold.
//! * Near underflow the rounding error is absolute (at most a few units of
//!   `2⁻¹⁰⁷⁴`), so [`beyond_reach`] also demands an excess of
//!   `f64::MIN_POSITIVE`. Overflow rounds monotonically to `∞`, which the
//!   argument tolerates: an infinite threshold never fires.
//! * The exact Φ test computes each vertex's distance to `L` through a
//!   rounded projection onto the segment: the closest point lands within a
//!   few `u·S` of the segment, where `S` bounds the coordinate magnitudes
//!   of `e`, `c` and `r`. That error is absolute, not relative, so
//!   [`ShieldCircle::clearance`] subtracts `δ·S`. The certificate's own
//!   distances need no projection and carry only relative rounding,
//!   covered by the `(1 + δ)` factor on the reach and on `r`. A non-finite
//!   clearance (overflowed distances) certifies nothing.
//! * An empty cell has reach 0, and an empty vertex loop answers "no cut,
//!   no refine" — the certificate agrees. A duplicate site sits at distance
//!   0, which is never above the threshold, so duplicates always take the
//!   exact loop. NaN comparisons are false, so they take it too.
//!
//! `δ = 10⁻⁹` exceeds the rounding factors above (at most a few dozen `u`)
//! by more than five orders of magnitude, and is still far below any gap
//! that matters to pruning, so the certificates decide almost everything
//! the exact loops would.

use crate::phi::rect_within_phi_all_sides;
use crate::point::Point;
use crate::polygon::ConvexPolygon;
use crate::rect::Rect;

/// The relative margin `δ` of every certificate (see the module docs for
/// why it covers floating-point rounding).
pub const CERT_MARGIN: f64 = 1e-9;

/// `G = 4·(1 + δ)`: a point or entry whose squared distance from a site
/// exceeds `G` times the squared reach of the site's cell can neither cut
/// nor refine that cell.
pub const REACH_FACTOR: f64 = 4.0 * (1.0 + CERT_MARGIN);

/// Whether the bisector `⊥(site, other)` actually cuts the cell whose
/// vertex set is `cell_vertices`: some vertex must lie strictly closer to
/// `other` than to `site`. This is Lemma 1 specialised to a point entry —
/// clipping when it returns `false` is a no-op, so callers skip the clip.
#[inline]
pub fn bisector_cuts(cell_vertices: &[Point], site: &Point, other: &Point) -> bool {
    cell_vertices
        .iter()
        .any(|g| g.dist_sq(other) < g.dist_sq(site))
}

/// Pruning test of Lemma 2 (and Lemma 1 for degenerate rectangles): can the
/// entry with MBR `mbr` possibly contain a point that refines the cell whose
/// vertex set is `vertices`, given the cell owner `pi`?
///
/// The entry *may* refine the cell iff there exists a vertex `γ` with
/// `mindist(e, γ) < dist(γ, pi)`.
#[inline]
pub fn can_refine(mbr: &Rect, vertices: &[Point], pi: &Point) -> bool {
    vertices
        .iter()
        .any(|g| mbr.mindist_point_sq(g) < g.dist_sq(pi))
}

/// Squared radius of the smallest circle centred at `site` that contains
/// every vertex of `cell` — the cell's *reach* from its site. Zero for an
/// empty cell.
#[inline]
pub fn cell_reach_sq(site: &Point, cell: &ConvexPolygon) -> f64 {
    vertices_reach_sq(site, cell.vertices())
}

/// [`cell_reach_sq`] over a bare vertex slice.
#[inline]
fn vertices_reach_sq(site: &Point, vertices: &[Point]) -> f64 {
    vertices.iter().map(|v| v.dist_sq(site)).fold(0.0, f64::max)
}

/// The reach certificate: whether a point or entry at squared distance
/// `dist_sq` from a site provably cannot cut or refine a cell of squared
/// reach `reach_sq` from that site.
#[inline]
pub fn beyond_reach(dist_sq: f64, reach_sq: f64) -> bool {
    dist_sq > REACH_FACTOR * reach_sq + f64::MIN_POSITIVE
}

/// [`bisector_cuts`] behind the reach certificate: `reach_sq` must be at
/// least [`cell_reach_sq`] of the cell (callers keep it refreshed after
/// every clip). Returns exactly what [`bisector_cuts`] returns.
#[inline]
pub fn bisector_cuts_certified(
    cell_vertices: &[Point],
    site: &Point,
    other: &Point,
    reach_sq: f64,
) -> bool {
    debug_assert!(reach_sq >= vertices_reach_sq(site, cell_vertices));
    if beyond_reach(site.dist_sq(other), reach_sq) {
        debug_assert!(
            !bisector_cuts(cell_vertices, site, other),
            "Lemma-1 certificate unsound: site {site}, other {other}, reach² {reach_sq}"
        );
        return false;
    }
    bisector_cuts(cell_vertices, site, other)
}

/// [`can_refine`] behind the reach certificate: `reach_sq` must be at
/// least [`cell_reach_sq`] of the cell. Returns exactly what
/// [`can_refine`] returns.
#[inline]
pub fn can_refine_certified(mbr: &Rect, vertices: &[Point], pi: &Point, reach_sq: f64) -> bool {
    debug_assert!(reach_sq >= vertices_reach_sq(pi, vertices));
    if beyond_reach(mbr.mindist_point_sq(pi), reach_sq) {
        debug_assert!(
            !can_refine(mbr, vertices, pi),
            "Lemma-2 certificate unsound: site {pi}, entry {mbr:?}, reach² {reach_sq}"
        );
        return false;
    }
    can_refine(mbr, vertices, pi)
}

/// A disc containing a convex polygon, for the Lemma-3 certificate: centred
/// on the polygon's bounding-box centre, radius inflated by `(1 + δ)` over
/// the farthest computed vertex distance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShieldCircle {
    center: Point,
    radius: f64,
    /// `max(|c.x|, |c.y|) + r`: the polygon's share of the coordinate
    /// magnitude `S` the closest-point rounding is measured against.
    scale: f64,
}

impl ShieldCircle {
    /// The circle around `t`, whose bounding box is `bbox`.
    pub fn around(t: &ConvexPolygon, bbox: &Rect) -> Self {
        let center = bbox.center();
        let radius = vertices_reach_sq(&center, t.vertices()).sqrt() * (1.0 + CERT_MARGIN);
        ShieldCircle {
            center,
            radius,
            scale: center.x.abs().max(center.y.abs()) + radius,
        }
    }

    /// Upper bound, with margin, on the distance from `p` to any location
    /// of the polygon: `(|p − c| + r)·(1 + δ)`.
    #[inline]
    pub fn reach(&self, p: &Point) -> f64 {
        (p.dist(&self.center) + self.radius) * (1.0 + CERT_MARGIN)
    }

    /// Lower bound, with margin, on the distance from any location of the
    /// polygon to any side of the entry `e`: `mindist(e, c) − r − δ·S`.
    /// Negative infinity when the distance overflows, so it certifies
    /// nothing.
    #[inline]
    pub fn clearance(&self, e: &Rect) -> f64 {
        let m_sq = e.mindist_point_sq(&self.center);
        if !m_sq.is_finite() {
            return f64::NEG_INFINITY;
        }
        let e_scale =
            e.lo.x
                .abs()
                .max(e.lo.y.abs())
                .max(e.hi.x.abs())
                .max(e.hi.y.abs());
        m_sq.sqrt() - self.radius - CERT_MARGIN * (self.scale + e_scale)
    }
}

/// [`rect_within_phi_all_sides`] behind the shield-circle certificate:
/// `reach` is [`ShieldCircle::reach`] of `p` and `clearance` is
/// [`ShieldCircle::clearance`] of `e`, both for a circle around `t`.
/// Returns exactly what [`rect_within_phi_all_sides`] returns (`false` for
/// an empty polygon or entry, which no certificate overrides).
#[inline]
pub fn rect_within_phi_certified(
    e: &Rect,
    p: &Point,
    t: &ConvexPolygon,
    reach: f64,
    clearance: f64,
) -> bool {
    if reach < clearance && !t.is_empty() && !e.is_empty() {
        debug_assert!(
            rect_within_phi_all_sides(e, p, t),
            "Lemma-3 certificate unsound: entry {e:?}, shield {p}, reach {reach}, clearance {clearance}"
        );
        return true;
    }
    rect_within_phi_all_sides(e, p, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reach_of_an_empty_cell_is_zero() {
        assert_eq!(
            cell_reach_sq(&Point::new(1.0, 2.0), &ConvexPolygon::empty()),
            0.0
        );
    }

    #[test]
    fn reach_certificate_never_skips_a_duplicate_site() {
        let site = Point::new(5.0, 5.0);
        assert!(!beyond_reach(site.dist_sq(&site), 0.0));
        assert!(beyond_reach(1.0, 0.0));
    }

    #[test]
    fn empty_polygon_is_never_shielded_by_the_certificate() {
        let t = ConvexPolygon::empty();
        let e = Rect::from_coords(9.0, 0.0, 10.0, 1.0);
        let p = Point::new(0.0, 0.0);
        assert!(!rect_within_phi_certified(&e, &p, &t, 0.0, f64::INFINITY));
    }

    #[test]
    fn overflowed_clearance_certifies_nothing() {
        let t = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        let circle = ShieldCircle::around(&t, &t.bbox());
        let far = Rect::from_coords(1e300, 0.0, 2e300, 1.0);
        assert_eq!(circle.clearance(&far), f64::NEG_INFINITY);
        let near = Rect::from_coords(10.0, 0.0, 11.0, 1.0);
        assert!(circle.reach(&Point::new(-1.0, 0.5)) < circle.clearance(&near));
    }
}
