//! # cij-voronoi
//!
//! R-tree based Voronoi-cell computation — the algorithmic substrate of the
//! CIJ paper (Yiu, Mamoulis & Karras, ICDE 2008, Section III).
//!
//! * [`single_voronoi`] — **BF-VOR** (Algorithm 1): the exact Voronoi cell of
//!   one point in a single best-first R-tree traversal, with the Lemma-1/2
//!   pruning rule [`can_refine`] behind its O(1) reach certificate.
//! * [`batch_voronoi`] — **BatchVoronoi** (Algorithm 2): the cells of a group
//!   of nearby points (one R-tree leaf, in practice) in one shared traversal.
//! * [`tp_voronoi`] — the **TP-VOR** multi-traversal baseline of \[10\], used
//!   by Figure 5 as the comparison point for BF-VOR.
//! * [`compute_diagram`] — the ITER / BATCH whole-diagram builders of
//!   Section V-A, plus the [`lower_bound_io`] traversal bound LB.
//! * [`brute`] — O(n²) oracles implementing Eq. (2) literally, for tests.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod brute;
pub mod diagram;
pub mod single;
pub mod tpvor;

pub use batch::{
    batch_voronoi, batch_voronoi_cached, batch_voronoi_cached_with, batch_voronoi_with, CellStore,
    NoCache, VorScratch,
};
pub use brute::{brute_force_cell, brute_force_diagram, nearest_index};
pub use cij_geom::{bisector_cuts, can_refine, cell_reach_sq};
pub use diagram::{compute_diagram, lower_bound_io, DiagramMethod, DiagramResult};
pub use single::single_voronoi;
pub use tpvor::tp_voronoi;
