//! # cij-rtree
//!
//! A disk-based R-tree with page-level I/O accounting — the indexing
//! substrate of the CIJ reproduction (Yiu, Mamoulis & Karras, ICDE 2008).
//!
//! The paper assumes the joined pointsets `P` and `Q` are "indexed by
//! hierarchical spatial access methods, like the R-tree", stored in 1 KB
//! disk pages behind an LRU buffer, and measures algorithms by the number of
//! page accesses. This crate provides that index:
//!
//! * [`RTree`] — Guttman R-tree with quadratic-split insertion and
//!   Hilbert-packed bottom-up bulk loading (Section III-C of the paper),
//!   generic over the leaf payload ([`PointObject`] for the input pointsets,
//!   [`CellObject`] for materialised Voronoi cells),
//! * best-first incremental nearest-neighbour browsing ([`RTree::nearest_iter`],
//!   Hjaltason & Samet \[11\]) and the [`MinHeapItem`]/[`MinDistHeap`] helpers
//!   reused by BF-VOR and the conditional filter,
//! * range queries and Hilbert-ordered depth-first leaf traversal,
//! * the synchronous-traversal [`intersection_join`] of Brinkhoff et al. \[9\]
//!   and an ε-[`distance_join`] for comparison,
//! * page-access statistics via the shared
//!   [`IoStats`](cij_pagestore::IoStats) of `cij-pagestore`,
//! * node serialization ([`codec`]) implementing
//!   [`PagePayload`](cij_pagestore::PagePayload): every node encodes into
//!   one page frame, so trees run unchanged on the heap or the real-file
//!   [`PageBackend`](cij_pagestore::PageBackend) (pick one with
//!   [`RTree::with_stats_on`] / [`RTree::bulk_load_with_stats_on`]).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod arena;
pub mod bulk;
pub mod closest_pairs;
pub mod codec;
pub mod join;
pub mod nn;
pub mod node;
pub mod object;
pub mod reader;
pub mod tree;

pub use arena::{LeafLayout, NodeArena};
pub use bulk::{DEFAULT_FILL, DEFAULT_RUN_CAPACITY};
pub use closest_pairs::k_closest_pairs;
pub use codec::NODE_HEADER_BYTES;
pub use join::{distance_join, intersection_join, intersection_join_pairs, IdPair};
pub use nn::{MinDistHeap, MinHeapItem, NearestNeighbourIter};
pub use node::{ChildEntry, Node};
pub use object::{CellObject, ObjectId, PointObject, RTreeObject};
pub use reader::{probe, NodeReader, ReadRecord, SnapshotReader};
pub use tree::{RTree, RTreeConfig};
