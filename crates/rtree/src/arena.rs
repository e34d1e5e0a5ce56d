//! Flat structure-of-arrays node arena for decoded point leaves.
//!
//! The AoS [`Node`] representation is convenient for building and splitting,
//! but in join hot loops it makes every leaf scan walk a `Vec<PointObject>`
//! of interleaved `(id, x, y)` structs. [`NodeArena`] is the SoA counterpart
//! used by those hot loops: one node at a time is decoded into separate
//! contiguous `[f64]` x/y coordinate arrays (plus parallel id and child-entry
//! arrays) with a **fixed entry stride** derived from the tree's
//! [`node_byte_budget`](crate::tree::RTreeConfig::node_byte_budget), so the
//! buffers are allocated once and reused for every node the traversal
//! touches. Batch geometry kernels
//! ([`HalfPlane::signed_distances`](cij_geom::HalfPlane::signed_distances),
//! `ConvexPolygon::clip_in_place`) then run straight over the coordinate
//! slices with no per-point pointer chasing.
//!
//! Loading goes through [`NodeReader::visit`],
//! which serves the decoded node **by reference** — from the page store's
//! in-memory image ([`PageStore::read_with`](cij_pagestore::PageStore)) or a
//! traced snapshot — so filling the arena performs no intermediate payload
//! clone and no allocation after the buffers reach their high-water mark.
//!
//! [`LeafLayout`] is the engine-level knob selecting between this SoA path
//! (the default) and the historical AoS path, kept as the parity and
//! benchmark baseline; both produce byte-identical join results.

use crate::node::{ChildEntry, Node};
use crate::object::{ObjectId, PointObject};
use crate::reader::NodeReader;
use cij_geom::Point;
use cij_pagestore::PageId;

/// Memory layout used by leaf scans in the join hot loops.
///
/// Mirrors the `FilterKernel` knob of `cij-core`: both layouts produce
/// byte-identical pairs, tuples, counters and page accesses; the AoS
/// baseline survives as the parity/benchmark reference for the
/// `kernel_layout` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeafLayout {
    /// Structure-of-arrays: nodes are decoded into a reusable [`NodeArena`]
    /// and leaf scans iterate contiguous coordinate slices. The default.
    #[default]
    Soa,
    /// Array-of-structures: the historical path reading owned
    /// [`Node`]s and iterating `Vec<PointObject>`. Kept as the
    /// parity/benchmark baseline.
    Aos,
}

impl LeafLayout {
    /// Short label used by benches and tables.
    pub fn name(&self) -> &'static str {
        match self {
            LeafLayout::Soa => "soa",
            LeafLayout::Aos => "aos",
        }
    }
}

impl std::str::FromStr for LeafLayout {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "soa" => Ok(LeafLayout::Soa),
            "aos" => Ok(LeafLayout::Aos),
            other => Err(format!(
                "unknown leaf layout {other:?} (expected \"soa\" or \"aos\")"
            )),
        }
    }
}

/// Serialized size of one point-leaf entry: x, y coordinates plus the id
/// (matches [`PointObject::entry_bytes`][crate::object::RTreeObject::entry_bytes]).
const POINT_ENTRY_BYTES: usize = 2 * std::mem::size_of::<f64>() + std::mem::size_of::<u64>();

/// A reusable SoA decode target holding **one** R-tree node at a time.
///
/// `coords` stores the x coordinates at `[0, stride)` and the y coordinates
/// at `[stride, 2 * stride)` in a single allocation; `ids` and `children`
/// are the parallel payload arrays. The stride is fixed per arena (derived
/// from the node byte budget via [`NodeArena::for_budget`]) so repeated
/// [`NodeArena::load`] calls rewrite the same buffers without reallocating.
///
/// One arena per worker: loading mutates the buffers in place, so a worker
/// thread owns its arena and reuses it across every unit it processes.
#[derive(Debug, Clone, Default)]
pub struct NodeArena {
    stride: usize,
    level: u32,
    len: usize,
    coords: Vec<f64>,
    ids: Vec<ObjectId>,
    children: Vec<ChildEntry>,
}

impl NodeArena {
    /// Creates an arena sized for nodes of the given byte budget
    /// ([`RTreeConfig::node_byte_budget`](crate::tree::RTreeConfig::node_byte_budget)):
    /// the entry stride is the maximum number of point entries a node can
    /// hold. Buffers are allocated lazily on first [`NodeArena::load`].
    pub fn for_budget(node_byte_budget: usize) -> Self {
        NodeArena {
            stride: (node_byte_budget / POINT_ENTRY_BYTES).max(1),
            ..NodeArena::default()
        }
    }

    /// Decodes the node at `page` into the arena through a [`NodeReader`],
    /// with the reader's usual accounting (counted read, or traced snapshot
    /// read). The node payload is visited by reference, so nothing is cloned
    /// and — once the buffers have grown to the stride — nothing allocates.
    pub fn load<R: NodeReader<PointObject>>(&mut self, reader: &mut R, page: PageId) {
        // Split the borrow: the closure captures the fields, not `self`.
        let arena = &mut *self;
        reader.visit(page, &mut |node| arena.fill(node));
    }

    /// Copies one decoded node into the SoA buffers.
    pub fn fill(&mut self, node: &Node<PointObject>) {
        self.level = node.level;
        self.children.clear();
        if node.is_leaf() {
            let n = node.objects.len();
            if n > self.stride {
                // Defensive: a node larger than the configured budget allows.
                self.stride = n;
            }
            if self.coords.len() < 2 * self.stride {
                self.coords.resize(2 * self.stride, 0.0);
            }
            if self.ids.len() < self.stride {
                self.ids.resize(self.stride, ObjectId(0));
            }
            let (xs, rest) = self.coords.split_at_mut(self.stride);
            for (i, o) in node.objects.iter().enumerate() {
                xs[i] = o.point.x;
                rest[i] = o.point.y;
                self.ids[i] = o.id;
            }
            self.len = n;
        } else {
            self.children.extend_from_slice(&node.children);
            self.len = node.children.len();
        }
    }

    /// Height of the loaded node above the leaf level (0 = leaf).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Whether the loaded node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries of the loaded node.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the loaded node holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// X coordinates of the loaded leaf's points.
    pub fn xs(&self) -> &[f64] {
        &self.coords[..self.len]
    }

    /// Y coordinates of the loaded leaf's points.
    pub fn ys(&self) -> &[f64] {
        &self.coords[self.stride..self.stride + self.len]
    }

    /// Object ids of the loaded leaf's points, parallel to
    /// [`NodeArena::xs`]/[`NodeArena::ys`].
    pub fn ids(&self) -> &[ObjectId] {
        &self.ids[..self.len]
    }

    /// Child entries of the loaded non-leaf node (empty for leaves).
    pub fn children(&self) -> &[ChildEntry] {
        &self.children
    }

    /// Reassembles the `i`-th point object of the loaded leaf.
    pub fn object(&self, i: usize) -> PointObject {
        debug_assert!(i < self.len && self.is_leaf());
        PointObject {
            id: self.ids[i],
            point: Point::new(self.coords[i], self.coords[self.stride + i]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{RTree, RTreeConfig};

    fn sample_tree() -> RTree<PointObject> {
        let mut tree = RTree::new(RTreeConfig {
            page_size: 256,
            min_fill: 0.4,
            max_entries: 64,
        });
        for i in 0..300u64 {
            let d = i as f64;
            tree.insert(PointObject::new(i, Point::new((d * 13.0) % 100.0, d)));
        }
        tree
    }

    #[test]
    fn layout_labels_and_parsing() {
        assert_eq!(LeafLayout::default(), LeafLayout::Soa);
        assert_eq!(LeafLayout::Soa.name(), "soa");
        assert_eq!(LeafLayout::Aos.name(), "aos");
        assert_eq!("SoA".parse::<LeafLayout>(), Ok(LeafLayout::Soa));
        assert_eq!("aos".parse::<LeafLayout>(), Ok(LeafLayout::Aos));
        assert!("rowwise".parse::<LeafLayout>().is_err());
    }

    #[test]
    fn arena_reproduces_every_node_exactly() {
        let mut tree = sample_tree();
        let budget = tree.config().node_byte_budget();
        let mut arena = NodeArena::for_budget(budget);
        let mut stack = vec![tree.root_page()];
        let mut seen = 0usize;
        while let Some(page) = stack.pop() {
            let node = tree.peek_node(page).clone();
            arena.load(&mut tree, page);
            assert_eq!(arena.level(), node.level);
            assert_eq!(arena.is_leaf(), node.is_leaf());
            assert_eq!(arena.len(), node.len());
            if node.is_leaf() {
                for (i, o) in node.objects.iter().enumerate() {
                    assert_eq!(arena.xs()[i].to_bits(), o.point.x.to_bits());
                    assert_eq!(arena.ys()[i].to_bits(), o.point.y.to_bits());
                    assert_eq!(arena.ids()[i], o.id);
                    assert_eq!(arena.object(i), *o);
                }
            } else {
                assert_eq!(arena.children(), &node.children[..]);
                stack.extend(node.children.iter().map(|c| c.page));
            }
            seen += 1;
        }
        assert!(seen > 3, "tree too small to exercise the arena");
    }

    #[test]
    fn arena_load_counts_like_read_node() {
        let mut by_node = sample_tree();
        let mut by_arena = sample_tree();
        for t in [&mut by_node, &mut by_arena] {
            t.set_buffer_pages(2);
            t.drop_buffer();
            t.stats().reset();
        }
        let root = by_node.root_page();
        let children: Vec<PageId> = by_node
            .peek_node(root)
            .children
            .iter()
            .map(|c| c.page)
            .collect();
        let mut pattern = vec![root];
        pattern.extend(&children);
        pattern.push(root);

        let mut arena = NodeArena::for_budget(by_arena.config().node_byte_budget());
        for &page in &pattern {
            let _ = by_node.read_node(page);
            arena.load(&mut by_arena, page);
        }
        assert_eq!(by_node.stats().snapshot(), by_arena.stats().snapshot());
        // Metered transfers must match exactly; by_node's peek to enumerate
        // the children above adds unmetered traffic by_arena never does.
        let (a, b) = (by_node.backend_io(), by_arena.backend_io());
        assert_eq!(a.bytes_read, b.bytes_read);
        assert_eq!(a.bytes_written, b.bytes_written);
    }

    #[test]
    fn traced_arena_loads_record_the_trace() {
        let tree = sample_tree();
        tree.stats().reset();
        let root = tree.root_page();
        let mut traced = crate::reader::SnapshotReader::traced(&tree);
        let mut arena = NodeArena::for_budget(tree.config().node_byte_budget());
        arena.load(&mut traced, root);
        let first_child = arena.children()[0].page;
        arena.load(&mut traced, first_child);
        assert_eq!(traced.trace(), &[root, first_child]);
        assert_eq!(traced.reads(), 2);
        assert_eq!(tree.stats().snapshot().logical_reads, 0);
    }
}
