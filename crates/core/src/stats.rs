//! Cost accounting for CIJ evaluations: MAT/JOIN breakdown, progressive
//! output traces, filter effectiveness and cell-reuse counters.

use cij_pagestore::IoSnapshot;
use std::time::Duration;

/// A sample of the progressive-output curve of Figure 9b: how many result
/// pairs had been produced after a given number of page accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSample {
    /// Cumulative physical page accesses at the time of the sample.
    pub page_accesses: u64,
    /// Cumulative result pairs produced at the time of the sample.
    pub pairs: u64,
}

/// Cost breakdown of one CIJ evaluation (Figure 7): the materialisation
/// phase (MAT — computing and indexing Voronoi diagrams) and the join phase
/// (JOIN — producing result pairs).
#[derive(Debug, Clone, Copy, Default)]
pub struct CostBreakdown {
    /// I/O of the materialisation phase.
    pub mat_io: IoSnapshot,
    /// I/O of the join phase.
    pub join_io: IoSnapshot,
    /// CPU time of the materialisation phase.
    pub mat_cpu: Duration,
    /// CPU time of the join phase.
    pub join_cpu: Duration,
}

impl CostBreakdown {
    /// Total physical page accesses across both phases.
    pub fn total_page_accesses(&self) -> u64 {
        self.mat_io.page_accesses() + self.join_io.page_accesses()
    }

    /// Total CPU time across both phases.
    pub fn total_cpu(&self) -> Duration {
        self.mat_cpu + self.join_cpu
    }
}

/// Counters specific to NM-CIJ: filter effectiveness (Figure 10) and exact
/// Voronoi-cell computations of `P` points (Figure 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NmCounters {
    /// Σ sᵢ — total number of candidates produced by the filter phase over
    /// all leaves of `RQ`.
    pub filter_candidates: u64,
    /// Σ s'ᵢ — total number of candidates that actually join with at least
    /// one Voronoi cell of the current leaf's points.
    pub filter_true_hits: u64,
    /// Number of exact Voronoi cells of `P` points computed (with REUSE,
    /// buffered cells are not recomputed and not recounted).
    pub p_cells_computed: u64,
    /// Number of candidate occurrences whose exact cell was served from the
    /// reuse buffer (the [`CellCache`](crate::cell_cache::CellCache) hit
    /// count).
    pub p_cells_reused: u64,
    /// Number of exact Voronoi cells of `Q` points computed (one per point).
    pub q_cells_computed: u64,
    /// Number of cells evicted from the bounded reuse buffer during the
    /// evaluation (zero when the working set fits in
    /// [`cell_cache_capacity`](crate::config::CijConfig::cell_cache_capacity)).
    pub cell_cache_evictions: u64,
    /// Points examined (heap pops) across all conditional-filter
    /// invocations — the [`FilterStats::points_examined`] total.
    ///
    /// [`FilterStats::points_examined`]: crate::filter::FilterStats::points_examined
    pub filter_points_examined: u64,
    /// Non-leaf entries pruned by the Φ rule across all filter invocations.
    pub filter_entries_pruned: u64,
    /// Bisector clip operations across all filter invocations — the CPU
    /// term the indexed filter kernel shrinks (see
    /// [`FilterKernel`](crate::config::FilterKernel)).
    pub filter_clip_ops: u64,
    /// Probe-polygon tests the indexed kernel's bbox index avoided across
    /// all filter invocations (0 under the scan kernel).
    pub filter_poly_tests_skipped: u64,
}

impl NmCounters {
    /// The false-hit ratio of the filter step, as defined in Section V-B:
    /// `FHR = (Σ sᵢ − Σ s'ᵢ) / Σ s'ᵢ`.
    pub fn false_hit_ratio(&self) -> f64 {
        if self.filter_true_hits == 0 {
            0.0
        } else {
            (self.filter_candidates - self.filter_true_hits) as f64 / self.filter_true_hits as f64
        }
    }

    /// Hit ratio of the cell reuse buffer: reused / (reused + computed).
    /// Zero when no exact `P` cell was ever requested.
    pub fn cell_cache_hit_ratio(&self) -> f64 {
        let total = self.p_cells_reused + self.p_cells_computed;
        if total == 0 {
            0.0
        } else {
            self.p_cells_reused as f64 / total as f64
        }
    }
}

/// Per-leaf checkpoint of a streaming join: everything emitted up to a
/// watermark is final, so downstream operators can checkpoint at leaf
/// granularity instead of waiting for the stream to drain (the
/// "incremental / watermarked streams" item of the roadmap — realised for
/// the multiway [`TupleStream`] and the binary NM-CIJ [`PairStream`]).
///
/// One watermark is recorded per leaf of the driving tree (`RQ` for the
/// binary join, the cost-selected driver tree for the multiway join) —
/// including empty leaves, so `leaf_index` is dense. Blocking algorithms
/// (FM/PM) record no watermarks: their streams replay an eager result.
///
/// [`TupleStream`]: crate::multiway::TupleStream
/// [`PairStream`]: crate::engine::PairStream
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafWatermark {
    /// Index of the completed leaf in the Hilbert leaf order of the driving
    /// tree.
    pub leaf_index: usize,
    /// Cumulative result rows — pairs for the binary join, k-tuples for the
    /// multiway join — produced up to and including this leaf.
    pub rows: u64,
    /// Cumulative physical page accesses when this leaf completed.
    pub page_accesses: u64,
}

/// Counters of one multiway CIJ evaluation — the k-way analogue of
/// [`NmCounters`], with one slot per input set where the quantity is
/// per-set.
///
/// `cells_computed[i]` uniformly means "exact Voronoi cells of set `i`
/// computed", i.e. the reuse-buffer misses of that set's
/// [`CellCache`](crate::cell_cache::CellCache) — including set 0, whose
/// seeding phase routes through a cache like every extension round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiwayCounters {
    /// Exact Voronoi cells computed per input set (cache misses).
    pub cells_computed: Vec<u64>,
    /// Cell-cache hits per input set (cells served without recomputation).
    pub cells_reused: Vec<u64>,
    /// Cells evicted from each set's bounded reuse buffer.
    pub cell_cache_evictions: Vec<u64>,
    /// Conditional-filter invocations across all extension rounds: one per
    /// leaf of the driving tree with live partial tuples, per round.
    pub filter_probes: u64,
    /// Points examined (heap pops) across all filter invocations.
    pub filter_points_examined: u64,
    /// Non-leaf entries pruned by the Φ rule across all filter invocations.
    pub filter_entries_pruned: u64,
    /// Bisector clip operations across all filter invocations (see
    /// [`FilterStats::clip_ops`](crate::filter::FilterStats::clip_ops)).
    pub filter_clip_ops: u64,
    /// Probe-polygon tests the indexed filter kernel's bbox index avoided
    /// across all filter invocations (0 under the scan kernel).
    pub filter_poly_tests_skipped: u64,
    /// Result tuples produced so far (equals the final tuple count once the
    /// stream is drained; mid-stream it runs ahead of what the consumer has
    /// pulled by the buffered tuples).
    pub tuples_produced: u64,
}

impl MultiwayCounters {
    /// A zeroed counter set for `k` input sets.
    pub fn for_sets(k: usize) -> Self {
        MultiwayCounters {
            cells_computed: vec![0; k],
            cells_reused: vec![0; k],
            cell_cache_evictions: vec![0; k],
            ..Default::default()
        }
    }

    /// Total exact cells computed across all sets.
    pub fn total_cells_computed(&self) -> u64 {
        self.cells_computed.iter().sum()
    }

    /// Hit ratio of the reuse buffers across all sets: reused / (reused +
    /// computed). Zero when no cell was ever requested.
    pub fn cell_cache_hit_ratio(&self) -> f64 {
        let reused: u64 = self.cells_reused.iter().sum();
        let total = reused + self.total_cells_computed();
        if total == 0 {
            0.0
        } else {
            reused as f64 / total as f64
        }
    }
}

/// The result of one CIJ evaluation.
#[derive(Debug, Clone, Default)]
pub struct CijOutcome {
    /// Result pairs as `(p_id, q_id)`.
    pub pairs: Vec<(u64, u64)>,
    /// MAT/JOIN cost breakdown.
    pub breakdown: CostBreakdown,
    /// Progressive-output samples (page accesses vs pairs produced).
    pub progress: Vec<ProgressSample>,
    /// NM-CIJ specific counters (zeroed for FM/PM).
    pub nm: NmCounters,
    /// Per-leaf watermarks of the streaming NM-CIJ evaluation (empty for
    /// the blocking FM/PM algorithms; see [`LeafWatermark`]).
    pub watermarks: Vec<LeafWatermark>,
}

impl CijOutcome {
    /// Number of result pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the join produced no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Result pairs sorted lexicographically — convenient for comparing the
    /// outputs of different algorithms and of the brute-force oracle.
    pub fn sorted_pairs(&self) -> Vec<(u64, u64)> {
        let mut v = self.pairs.clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total page accesses of the evaluation.
    pub fn page_accesses(&self) -> u64 {
        self.breakdown.total_page_accesses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn false_hit_ratio_definition() {
        let c = NmCounters {
            filter_candidates: 120,
            filter_true_hits: 100,
            ..Default::default()
        };
        assert!((c.false_hit_ratio() - 0.2).abs() < 1e-12);
        let zero = NmCounters::default();
        assert_eq!(zero.false_hit_ratio(), 0.0);
    }

    #[test]
    fn sorted_pairs_dedups_and_orders() {
        let outcome = CijOutcome {
            pairs: vec![(2, 1), (1, 1), (2, 1), (1, 0)],
            ..Default::default()
        };
        assert_eq!(outcome.sorted_pairs(), vec![(1, 0), (1, 1), (2, 1)]);
        assert_eq!(outcome.len(), 4);
        assert!(!outcome.is_empty());
    }

    #[test]
    fn multiway_counters_for_sets_and_ratios() {
        let mut c = MultiwayCounters::for_sets(3);
        assert_eq!(c.cells_computed.len(), 3);
        assert_eq!(c.cell_cache_hit_ratio(), 0.0);
        c.cells_computed = vec![10, 20, 30];
        c.cells_reused = vec![0, 20, 20];
        assert_eq!(c.total_cells_computed(), 60);
        assert!((c.cell_cache_hit_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn breakdown_totals() {
        let mut b = CostBreakdown::default();
        b.mat_io.physical_reads = 10;
        b.mat_io.physical_writes = 5;
        b.join_io.physical_reads = 20;
        b.mat_cpu = Duration::from_millis(10);
        b.join_cpu = Duration::from_millis(30);
        assert_eq!(b.total_page_accesses(), 35);
        assert_eq!(b.total_cpu(), Duration::from_millis(40));
    }
}
