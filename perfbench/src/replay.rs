//! NM-CIJ replayed from the benchmark's own code, one layer call at a time.
//!
//! For every leaf of `RQ` in `leaf_pages_hilbert_order_peek` order the
//! replay makes the same five public calls the engine's leaf loop makes —
//! leaf read, `batch_voronoi_with`, `batch_conditional_filter_scratch`,
//! `batch_voronoi_cached_with` through a [`CellCache`], and the bbox +
//! `ConvexPolygon::intersects` reporting loop — so each layer can be timed
//! from outside. It must reproduce the engine's pair digest and
//! [`NmCounters`] exactly; otherwise its layer times would describe a
//! different program.
//!
//! [`replay_layers`] alternates untimed and traced replays of one join and
//! reduces their spans to per-layer [`LayerFigures`]; [`layer_metrics`]
//! names them as the benchmark reports them.

use crate::digest::Digest;
use crate::reader::{ReadProbe, TimingReader};
use crate::report::{Gate, Metric};
use crate::stats::median;
use crate::trace::{layer_totals, NoSpans, SpanSink, Tracer};
use cij_core::{
    batch_conditional_filter_scratch, CellCache, CijConfig, FilterOptions, FilterScratch,
    NmCounters,
};
use cij_rtree::{NodeReader, PointObject, RTree, SnapshotReader};
use cij_voronoi::{batch_voronoi_cached_with, batch_voronoi_with, VorScratch};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// What one replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Digest of the emitted pairs, in emission order.
    pub digest: Digest,
    /// The NM counters, accumulated exactly like the engine's leaf loop.
    pub counters: NmCounters,
    /// Leaves of `RQ` visited.
    pub leaves: u64,
    /// Logical snapshot reads: the leaf-order walk plus every layer's reads.
    pub reads: u64,
    /// Wall time of the whole replay.
    pub wall: Duration,
}

/// Replays NM-CIJ of `rp` ⋈ `rq` with plain snapshot readers and no spans —
/// the baseline the tracing overhead is measured against.
pub fn untimed(
    rp: &RTree<PointObject>,
    rq: &RTree<PointObject>,
    config: &CijConfig,
    cache_cells: usize,
) -> Result<ReplayOutcome, String> {
    run(
        SnapshotReader::new(rp),
        SnapshotReader::new(rq),
        rq,
        config,
        cache_cells,
        &mut NoSpans,
    )
}

/// Replays NM-CIJ of `rp` ⋈ `rq` through timing readers, recording one span
/// per layer call into `tracer`.
pub fn traced(
    rp: &RTree<PointObject>,
    rq: &RTree<PointObject>,
    config: &CijConfig,
    cache_cells: usize,
    tracer: &mut Tracer,
) -> Result<ReplayOutcome, String> {
    run(
        TimingReader::new(SnapshotReader::new(rp)),
        TimingReader::new(SnapshotReader::new(rq)),
        rq,
        config,
        cache_cells,
        tracer,
    )
}

fn run<RP, RQ, S>(
    mut rp_reader: RP,
    mut rq_reader: RQ,
    rq: &RTree<PointObject>,
    config: &CijConfig,
    cache_cells: usize,
    spans: &mut S,
) -> Result<ReplayOutcome, String>
where
    RP: NodeReader<PointObject> + ReadProbe,
    RQ: NodeReader<PointObject> + ReadProbe,
    S: SpanSink,
{
    let start = Instant::now();
    let domain = config.domain;
    let layout = config.leaf_layout;
    let filter_options = FilterOptions::for_kernel(config.filter_kernel).with_layout(layout);
    let budget = rq.config().node_byte_budget();
    let mut vor = VorScratch::for_budget(budget);
    let mut filter_scratch = FilterScratch::for_budget(budget);
    let mut cache = CellCache::new(if config.reuse_cells { cache_cells } else { 0 });
    let mut counters = NmCounters::default();
    let mut digest = Digest::default();
    let mut true_hits: HashSet<u64> = HashSet::new();

    let query = spans.open("query");
    let order = spans.open("rtree.leaf_order");
    let (leaves, order_reads) = rq.leaf_pages_hilbert_order_peek(&domain);
    spans.close(order, Duration::ZERO);

    for &leaf in &leaves {
        let leaf_span = spans.open("leaf");
        let group = rq_reader.read(leaf).objects;
        let leaf_store = rq_reader.take_store();
        if group.is_empty() {
            spans.close(leaf_span, leaf_store);
            continue;
        }

        let id = spans.open("voronoi.q_cell");
        let cells_q = batch_voronoi_with(&mut rq_reader, &group, &domain, layout, &mut vor);
        spans.close(id, rq_reader.take_store());

        let id = spans.open("filter");
        let (candidates, fstats) = batch_conditional_filter_scratch(
            &mut rp_reader,
            &cells_q,
            &domain,
            &filter_options,
            &mut filter_scratch,
        );
        spans.close(id, rp_reader.take_store());

        let id = spans.open("refine");
        let (hits, misses) = (cache.hits(), cache.misses());
        let cells_p = batch_voronoi_cached_with(
            &mut rp_reader,
            &candidates,
            &domain,
            &mut cache,
            layout,
            &mut vor,
        );
        spans.close(id, rp_reader.take_store());

        let id = spans.open("report");
        true_hits.clear();
        for (q_obj, q_cell) in group.iter().zip(&cells_q) {
            let q_bbox = q_cell.bbox();
            for (p_obj, p_cell) in candidates.iter().zip(&cells_p) {
                if p_cell.bbox().intersects(&q_bbox) && p_cell.intersects(q_cell) {
                    true_hits.insert(p_obj.id.0);
                    digest.pair(p_obj.id.0, q_obj.id.0);
                }
            }
        }
        spans.close(id, Duration::ZERO);

        counters.q_cells_computed += group.len() as u64;
        counters.filter_candidates += candidates.len() as u64;
        counters.filter_true_hits += true_hits.len() as u64;
        counters.p_cells_reused += cache.hits() - hits;
        counters.p_cells_computed += cache.misses() - misses;
        counters.cell_cache_evictions = cache.evictions();
        counters.filter_points_examined += fstats.points_examined;
        counters.filter_entries_pruned += fstats.entries_pruned;
        counters.filter_clip_ops += fstats.clip_ops;
        counters.filter_poly_tests_skipped += fstats.poly_tests_skipped;
        spans.close(leaf_span, leaf_store);
    }
    spans.close(query, Duration::ZERO);

    if let Some(e) = rq_reader.take_error().or_else(|| rp_reader.take_error()) {
        return Err(format!("replay read failed: {e}"));
    }
    Ok(ReplayOutcome {
        digest,
        counters,
        leaves: leaves.len() as u64,
        reads: order_reads + rq_reader.reads() + rp_reader.reads(),
        wall: start.elapsed(),
    })
}

/// Per-layer figures of the replays of one join (medians over repeated
/// replays), or the sum of several joins' figures.
#[derive(Debug, Clone)]
pub struct LayerFigures {
    /// Traced-replay self time per layer, aligned with [`LAYERS`], seconds.
    pub layer_s: [f64; LAYERS.len()],
    /// Traced-replay store time, seconds.
    pub store_s: f64,
    /// Traced-replay layer self times plus store time, seconds.
    pub accounted_s: f64,
    /// Traced-replay wall time, seconds.
    pub traced_s: f64,
    /// Untimed-replay wall time, seconds.
    pub untimed_s: f64,
    /// The replay's deterministic outcome.
    pub outcome: ReplayOutcome,
}

impl LayerFigures {
    /// Self time of one layer, seconds.
    pub fn layer(&self, name: &str) -> f64 {
        LAYERS
            .iter()
            .position(|l| *l == name)
            .map_or(0.0, |i| self.layer_s[i])
    }

    /// Adds another join's figures (counts and times sum; the digest is
    /// no longer meaningful, only its row count).
    pub fn absorb(&mut self, other: &LayerFigures) {
        for (a, b) in self.layer_s.iter_mut().zip(other.layer_s) {
            *a += b;
        }
        self.store_s += other.store_s;
        self.accounted_s += other.accounted_s;
        self.traced_s += other.traced_s;
        self.untimed_s += other.untimed_s;
        let (a, b) = (&mut self.outcome, &other.outcome);
        a.digest.rows += b.digest.rows;
        a.leaves += b.leaves;
        a.reads += b.reads;
        a.wall += b.wall;
        let (c, d) = (&mut a.counters, &b.counters);
        c.filter_candidates += d.filter_candidates;
        c.filter_true_hits += d.filter_true_hits;
        c.p_cells_computed += d.p_cells_computed;
        c.p_cells_reused += d.p_cells_reused;
        c.q_cells_computed += d.q_cells_computed;
        c.cell_cache_evictions += d.cell_cache_evictions;
        c.filter_points_examined += d.filter_points_examined;
        c.filter_entries_pruned += d.filter_entries_pruned;
        c.filter_clip_ops += d.filter_clip_ops;
        c.filter_poly_tests_skipped += d.filter_poly_tests_skipped;
    }
}

/// The spans that are layer calls (the rest — `query`, `leaf` — is the
/// replay's own loop).
pub const LAYERS: [&str; 5] = [
    "rtree.leaf_order",
    "voronoi.q_cell",
    "filter",
    "refine",
    "report",
];

/// One join to replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayJoin<'a> {
    /// The `P` tree.
    pub rp: &'a RTree<PointObject>,
    /// The `Q` tree.
    pub rq: &'a RTree<PointObject>,
    /// The configuration the engine ran the join under.
    pub config: &'a CijConfig,
    /// Capacity of the replay's cell cache: the engine query's cache size.
    pub cache_cells: usize,
    /// Query id the replay's spans carry.
    pub query_id: u32,
}

/// Alternates untimed and traced replays of `join` until `seconds` have
/// passed (at least one of each), checking every replay with `expect`.
pub fn replay_layers(
    join: &ReplayJoin<'_>,
    seconds: f64,
    tracer: &mut Tracer,
    gate: &mut Gate,
    expect: &dyn Fn(&ReplayOutcome) -> Result<(), String>,
) -> Option<LayerFigures> {
    let ReplayJoin {
        rp,
        rq,
        config,
        cache_cells,
        query_id,
    } = *join;
    let mut untimed_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_layer: Vec<Vec<f64>> = vec![Vec::new(); LAYERS.len()];
    let mut store = Vec::new();
    let mut accounted = Vec::new();
    let mut outcome = None;
    let start = Instant::now();
    while traced_walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        match untimed(rp, rq, config, cache_cells) {
            Ok(o) => {
                gate.op(expect(&o));
                untimed_walls.push(o.wall.as_secs_f64());
            }
            Err(e) => {
                gate.op(Err(e));
                return None;
            }
        }
        let mut local = Tracer::new(Instant::now());
        local.set_query(query_id);
        match traced(rp, rq, config, cache_cells, &mut local) {
            Ok(o) => {
                gate.op(expect(&o));
                let totals = layer_totals(local.spans());
                let store_ns: u64 = totals.values().map(|t| t.store_ns).sum();
                let mut layer_ns = 0;
                for (samples, name) in per_layer.iter_mut().zip(LAYERS) {
                    let ns = totals.get(name).map_or(0, |t| t.self_ns);
                    layer_ns += ns;
                    samples.push(ns as f64 * 1e-9);
                }
                store.push(store_ns as f64 * 1e-9);
                accounted.push((layer_ns + store_ns) as f64 * 1e-9);
                traced_walls.push(o.wall.as_secs_f64());
                outcome = Some(o);
            }
            Err(e) => {
                gate.op(Err(e));
                return None;
            }
        }
        tracer.absorb(local);
    }
    let mut layer_s = [0.0; LAYERS.len()];
    for (slot, samples) in layer_s.iter_mut().zip(&per_layer) {
        *slot = median(samples);
    }
    Some(LayerFigures {
        layer_s,
        store_s: median(&store),
        accounted_s: median(&accounted),
        traced_s: median(&traced_walls),
        untimed_s: median(&untimed_walls),
        outcome: outcome.expect("at least one traced replay"),
    })
}

/// The layer metrics every replay-based trace reports.
pub fn layer_metrics(f: &LayerFigures) -> Vec<Metric> {
    let c = &f.outcome.counters;
    vec![
        Metric::new("pagestore.read_s", f.store_s, "s"),
        Metric::new("pagestore.reads", f.outcome.reads as f64, "count"),
        Metric::new("rtree.s", f.layer("rtree.leaf_order"), "s"),
        Metric::new("rtree.leaves", f.outcome.leaves as f64, "count"),
        Metric::new("voronoi.q_cell_s", f.layer("voronoi.q_cell"), "s"),
        Metric::new("voronoi.q_cells", c.q_cells_computed as f64, "count"),
        Metric::new("filter.s", f.layer("filter"), "s"),
        Metric::new("filter.clip_ops", c.filter_clip_ops as f64, "count"),
        Metric::new(
            "filter.points_examined",
            c.filter_points_examined as f64,
            "count",
        ),
        Metric::new("filter.candidates", c.filter_candidates as f64, "count"),
        Metric::new("filter.true_hits", c.filter_true_hits as f64, "count"),
        Metric::new("filter.false_hit_ratio", c.false_hit_ratio(), "ratio"),
        Metric::new("refine.s", f.layer("refine"), "s"),
        Metric::new("cell_cache.hits", c.p_cells_reused as f64, "count"),
        Metric::new("cell_cache.misses", c.p_cells_computed as f64, "count"),
        Metric::new(
            "cell_cache.evictions",
            c.cell_cache_evictions as f64,
            "count",
        ),
        Metric::new("cell_cache.hit_ratio", c.cell_cache_hit_ratio(), "ratio"),
        Metric::new("report.s", f.layer("report"), "s"),
        Metric::new("report.pairs", f.outcome.digest.rows as f64, "count"),
        Metric::new("trace.replay_s", f.untimed_s, "s"),
        Metric::new("trace.traced_s", f.traced_s, "s"),
        Metric::new(
            "trace.overhead_share",
            f.traced_s / f.untimed_s - 1.0,
            "ratio",
        ),
        Metric::new("trace.accounted_share", f.accounted_s / f.traced_s, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::layer_totals;
    use cij_core::{Algorithm, ExecMode, QueryEngine};
    use cij_datagen::{clustered_points, uniform_points, ClusterSpec};
    use cij_geom::Rect;

    /// The replay reproduces the engine's pairs (in order) and counters,
    /// in both execution modes, and its spans cover its wall time.
    #[test]
    fn replay_reproduces_the_engine() {
        let p = clustered_points(&ClusterSpec::new(3_000), &Rect::DOMAIN, 5);
        let q = uniform_points(3_000, &Rect::DOMAIN, 6);
        for config in [
            CijConfig::default().with_cell_cache_capacity(64),
            CijConfig::default()
                .with_exec_mode(ExecMode::Fast)
                .with_worker_threads(2)
                .with_cell_cache_capacity(64),
        ] {
            let engine = QueryEngine::new(config);
            let mut w = engine.build_workload(&p, &q);
            let outcome = engine.run(&mut w, Algorithm::NmCij);
            let mut digest = Digest::default();
            for &(a, b) in &outcome.pairs {
                digest.pair(a, b);
            }

            let plain = untimed(&w.rp, &w.rq, &config, 64).expect("replay");
            let mut tracer = Tracer::new(Instant::now());
            let timed = traced(&w.rp, &w.rq, &config, 64, &mut tracer).expect("replay");
            for r in [&plain, &timed] {
                assert_eq!(r.digest, digest);
                assert_eq!(r.counters, outcome.nm);
                assert!(r.counters.cell_cache_evictions > 0, "cache under pressure");
            }
            assert_eq!(plain.reads, timed.reads);
            if config.exec_mode == ExecMode::Fast {
                assert_eq!(timed.reads, outcome.page_accesses());
            }

            let totals = layer_totals(tracer.spans());
            assert_eq!(totals["query"].spans, 1);
            assert_eq!(totals["leaf"].spans, timed.leaves);
            assert!(totals["filter"].self_ns > 0);
            let covered: u64 = totals.values().map(|t| t.self_ns + t.store_ns).sum();
            let root = &tracer.spans()[0];
            assert_eq!(
                covered,
                root.end_ns - root.start_ns,
                "spans partition the replay"
            );
        }
    }
}
