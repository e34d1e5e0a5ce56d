//! The two NM-CIJ workloads: `nm_uniform` (metered, one worker — the
//! sequential leaf loop) and `nm_clustered_fast` (fast mode, two workers —
//! the chunked protocol over snapshot readers).
//!
//! One operation is one query: built once with `QueryEngine::build_workload`
//! and streamed through `QueryEngine::stream` until drained, after
//! `Workload::reset_measurement` so every query starts cold.
//!
//! The `serve_*` metrics describe the stream as its one consumer sees it:
//! `serve_qps` is whole queries per second, `serve_p50_ms` and
//! `serve_p90_ms` the wait for each batch of result pairs.

use crate::digest::Digest;
use crate::expected;
use crate::replay::{layer_metrics, replay_layers, ReplayJoin, ReplayOutcome, LAYERS};
use crate::report::{same, Gate, Metric};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use cij_core::{Algorithm, CijConfig, ExecMode, NmCounters, QueryEngine, Workload};
use cij_datagen::{clustered_points, uniform_points, ClusterSpec};
use cij_geom::{Point, Rect};
use std::time::{Duration, Instant};

/// Points per side of every NM-CIJ workload.
pub const N: usize = 20_000;
/// Workload builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Timed queries per run, at least, however short `--seconds` is.
const MIN_QUERIES: usize = 3;
/// Input sets the first-pair latency is measured on: the run's own and
/// ones drawn from the same generator under seeds derived from it.
const FIRST_PAIR_SETS: usize = 8;
/// Transformed copies of each of those sets (see [`variant`]).
const COPIES_PER_SET: usize = 16;
/// All copies the first-pair latency is measured on.
const VARIANTS: usize = FIRST_PAIR_SETS * COPIES_PER_SET;
/// Cold streams per copy; the copy's first-pair latency is the fastest.
const FIRST_PAIR_REPS: usize = 5;

/// One NM-CIJ workload.
#[derive(Debug, Clone, Copy)]
pub struct NmWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Clustered (`true`) or uniform inputs.
    pub clustered: bool,
    /// Execution mode of the timed queries.
    pub mode: ExecMode,
    /// `CijConfig::worker_threads` of the timed queries.
    pub workers: usize,
}

/// `nm_uniform`: uniform inputs under `CijConfig::default()`.
pub const NM_UNIFORM: NmWorkload = NmWorkload {
    name: "nm_uniform",
    clustered: false,
    mode: ExecMode::Metered,
    workers: 1,
};

/// `nm_clustered_fast`: clustered inputs, fast mode, two workers.
pub const NM_CLUSTERED_FAST: NmWorkload = NmWorkload {
    name: "nm_clustered_fast",
    clustered: true,
    mode: ExecMode::Fast,
    workers: 2,
};

impl NmWorkload {
    /// The engine configuration of the timed queries (heap backend).
    pub fn config(&self) -> CijConfig {
        CijConfig::default()
            .with_exec_mode(self.mode)
            .with_worker_threads(self.workers)
    }

    /// The inputs of `--seed seed`.
    ///
    /// Uniform: `P` from data seed `2·seed − 1`, `Q` from `2·seed`, so the
    /// default seed 1 gives the ROADMAP baseline's data seeds 1 and 2.
    ///
    /// Clustered: one `clustered_points(ClusterSpec::new(2·N))` draw from
    /// data seed `2·seed − 1`, split alternately into `P` and `Q`, so both
    /// sets crowd around the same cluster centres (as shops and cinemas
    /// crowd around the same towns). Two independent draws would place the
    /// clusters of `P` and `Q` apart at random: the join's clip work would
    /// then swing by ±8 % and its first-pair latency by two orders of
    /// magnitude from seed to seed with the overlap alone.
    pub fn points(&self, seed: u64) -> (Vec<Point>, Vec<Point>) {
        let p_seed = seed.wrapping_mul(2).wrapping_sub(1);
        let q_seed = seed.wrapping_mul(2);
        if self.clustered {
            let both = clustered_points(&ClusterSpec::new(2 * N), &Rect::DOMAIN, p_seed);
            let p = both.iter().step_by(2).copied().collect();
            let q = both.iter().skip(1).step_by(2).copied().collect();
            return (p, q);
        }
        let gen = |s: u64| uniform_points(N, &Rect::DOMAIN, s);
        (gen(p_seed), gen(q_seed))
    }

    /// The configuration of the other execution mode, whose results every
    /// query of this workload must equal: fast with two workers for a
    /// metered workload, metered with one worker for a fast one.
    fn other_config(&self) -> CijConfig {
        match self.mode {
            ExecMode::Fast => CijConfig::default(),
            ExecMode::Metered => CijConfig::default()
                .with_exec_mode(ExecMode::Fast)
                .with_worker_threads(2),
        }
    }

    /// The description of the inputs for the fingerprint.
    pub fn sizes(&self) -> String {
        let kind = if self.clustered {
            "clustered"
        } else {
            "uniform"
        };
        format!(
            "|P|=|Q|={N} {kind}, {} mode, {} worker(s), cell cache {}",
            self.mode.name(),
            self.workers,
            self.config().cell_cache_capacity
        )
    }
}

/// The checked result of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Pair digest (order-sensitive) and count.
    pub digest: Digest,
    /// The engine's NM counters.
    pub counters: NmCounters,
    /// `CijOutcome::page_accesses()`; `None` when only repeatability is
    /// checked (the oracle ran in the other mode's I/O currency).
    pub page_accesses: Option<u64>,
}

/// One full query through the public stream.
#[derive(Debug, Clone)]
struct Query {
    digest: Digest,
    counters: NmCounters,
    page_accesses: u64,
    wall: Duration,
    /// Per result batch, seconds the consumer waited for it since the
    /// previous pair (or since opening the stream). A batch is what one
    /// engine step — a leaf, or a chunk of leaves — makes available at
    /// once; it starts where the stream's NM counters have moved.
    batch_waits: Vec<f64>,
}

fn query(engine: &QueryEngine, w: &mut Workload) -> Result<Query, String> {
    w.reset_measurement();
    let start = Instant::now();
    let mut stream = engine.stream(w, Algorithm::NmCij);
    let mut digest = Digest::default();
    let mut batch_waits = Vec::new();
    let mut last = start;
    let mut q_cells = 0;
    while let Some((p, q)) = stream.next() {
        let now = Instant::now();
        let step = stream.counters_so_far().q_cells_computed;
        if step != q_cells {
            q_cells = step;
            batch_waits.push((now - last).as_secs_f64());
        }
        last = now;
        digest.pair(p, q);
    }
    let wall = start.elapsed();
    let outcome = stream
        .try_into_outcome()
        .map_err(|e| format!("query failed: {e}"))?;
    Ok(Query {
        digest,
        counters: outcome.nm,
        page_accesses: outcome.page_accesses(),
        wall,
        batch_waits,
    })
}

/// Opens a stream and pulls one pair: the open-to-first-pair latency alone.
fn first_pair(engine: &QueryEngine, w: &mut Workload) -> (Option<(u64, u64)>, Duration) {
    w.reset_measurement();
    let start = Instant::now();
    let mut stream = engine.stream(w, Algorithm::NmCij);
    let first = stream.next();
    (first, start.elapsed())
}

fn check(q: &Query, expect: &Expect) -> Result<(), String> {
    same("pair digest", q.digest, expect.digest)?;
    same("NM counters", q.counters, expect.counters)?;
    if let Some(pa) = expect.page_accesses {
        same("page accesses", q.page_accesses, pa)?;
    }
    Ok(())
}

/// What every query of this run must reproduce: the stored values on the
/// default seed; on any other seed the result of the other execution mode
/// (fast against metered, metered against fast), computed untimed.
fn expectation(wl: &NmWorkload, seed: u64, p: &[Point], q: &[Point]) -> Result<Expect, String> {
    if seed == expected::DEFAULT_SEED {
        return Ok(expected::nm(wl.name));
    }
    let engine = QueryEngine::new(wl.other_config());
    let mut w = engine.build_workload(p, q);
    let oracle = query(&engine, &mut w)?;
    Ok(Expect {
        digest: oracle.digest,
        counters: oracle.counters,
        page_accesses: None,
    })
}

/// Builds the workload `SETUP_REPS` times; returns the last one and the
/// median build time.
fn setup(engine: &QueryEngine, p: &[Point], q: &[Point]) -> (Workload, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let w = engine.build_workload(p, q);
        times.push(start.elapsed().as_secs_f64());
        last = Some(w);
    }
    (last.expect("at least one build"), median(&times))
}

/// The end-to-end run (tracing off).
pub fn run(wl: &NmWorkload, seed: u64, seconds: u64, gate: &mut Gate) -> Vec<Metric> {
    let (p, q) = wl.points(seed);
    let mut expect = match expectation(wl, seed, &p, &q) {
        Ok(e) => e,
        Err(e) => {
            gate.op(Err(e));
            return Vec::new();
        }
    };
    let engine = QueryEngine::new(wl.config());
    let (mut w, setup_s) = setup(&engine, &p, &q);

    // Warm-up query: checked, not timed. It fixes the page-access figure
    // later queries must repeat.
    let warm = query(&engine, &mut w).and_then(|r| check(&r, &expect).map(|()| r));
    let warm = match warm {
        Ok(r) => r,
        Err(e) => {
            gate.op(Err(e));
            return Vec::new();
        }
    };
    gate.op(Ok(()));
    expect.page_accesses = Some(warm.page_accesses);
    println!(
        "{}: {} pairs, digest {}, page accesses {}, counters {:?}",
        wl.name, warm.digest.rows, warm.digest, warm.page_accesses, warm.counters
    );

    // Timed queries and first-pair copies share the run: the copies are
    // paced to spread evenly over it, so both figures see the same stretch
    // of the host's time.
    let mut probe = FirstPairProbe::new(wl, seed, &p, &q);
    let mut first_pairs = Vec::with_capacity(VARIANTS);
    let mut walls = Vec::new();
    let mut waits = Vec::new();
    let start = Instant::now();
    let mut attempts = 0;
    loop {
        let progress = start.elapsed().as_secs_f64() / seconds.max(1) as f64;
        let queries_done = attempts >= MIN_QUERIES && progress >= 1.0;
        let copies_left = first_pairs.len() < VARIANTS;
        if queries_done && !copies_left {
            break;
        }
        if copies_left && (queries_done || (first_pairs.len() as f64) < VARIANTS as f64 * progress)
        {
            first_pairs.push(probe.latency_ms(first_pairs.len(), gate));
            continue;
        }
        attempts += 1;
        match query(&engine, &mut w) {
            Ok(r) => {
                gate.op(check(&r, &expect));
                walls.push(r.wall.as_secs_f64());
                waits.extend(r.batch_waits.iter().map(|s| s * 1e3));
            }
            Err(e) => gate.op(Err(e)),
        }
    }
    drop(w);
    if walls.is_empty() {
        return vec![Metric::new("setup_s", setup_s, "s")];
    }
    let first_pair_ms = median(&first_pairs);
    let rule =
        |n: usize| tail_percentile(n).map_or_else(|| "none".to_string(), |p| format!("p{p}"));
    println!(
        "{}: {} timed queries (median {:.4} s, tail rule {}), {} result batches (tail rule {}), \
         first pair {:.4} ms (median of {} copies)",
        wl.name,
        walls.len(),
        median(&walls),
        rule(walls.len()),
        waits.len(),
        rule(waits.len()),
        first_pair_ms,
        first_pairs.len()
    );
    let busy: f64 = walls.iter().sum();
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("join_s", median(&walls), "s"),
        Metric::new("first_pair_ms", first_pair_ms, "ms"),
        Metric::new("serve_qps", walls.len() as f64 / busy, "1/s"),
        Metric::new("serve_p50_ms", median(&waits), "ms"),
        Metric::new("serve_p90_ms", percentile(&waits, 90.0), "ms"),
    ]
}

/// Image of `points` under the `k`-th of [`VARIANTS`] transforms of the
/// domain: a torus shift by the `k`-th point of the R2 low-discrepancy
/// sequence (a fraction of the side in x and in y), then a mirror in x
/// (bit 0 of `k`) and in y (bit 1). Each transform brings a different patch
/// of the data, seen from a different side, to the corner where the
/// Hilbert order starts; the patches spread evenly over the domain.
fn variant(points: &[Point], k: usize) -> Vec<Point> {
    // The plastic number's inverse powers drive the R2 sequence.
    const G: f64 = 1.324_717_957_244_746;
    let Rect { lo, hi } = Rect::DOMAIN;
    let frac = |v: f64| v - v.floor();
    let (fx, fy) = (frac(0.5 + k as f64 / G), frac(0.5 + k as f64 / (G * G)));
    let shift = |v: f64, lo: f64, hi: f64, f: f64| {
        let s = v + f * (hi - lo);
        if s > hi {
            s - (hi - lo)
        } else {
            s
        }
    };
    points
        .iter()
        .map(|pt| {
            let mut x = shift(pt.x, lo.x, hi.x, fx);
            let mut y = shift(pt.y, lo.y, hi.y, fy);
            if k & 1 != 0 {
                x = lo.x + hi.x - x;
            }
            if k & 2 != 0 {
                y = lo.y + hi.y - y;
            }
            Point::new(x, y)
        })
        .collect()
}

/// Open-to-first-pair latency on [`VARIANTS`] transformed copies of input
/// sets; the workload's `first_pair_ms` is the median over the copies.
///
/// A stream's first pair waits for the leaf at the start of the Hilbert
/// order, so a single orientation measures a single patch of the data and
/// its latency swings several-fold from seed to seed. The transformed
/// copies put other patches first. On clustered data the copies' latencies
/// split into a sparse-background and a dense-cluster group whose sizes
/// depend on where one draw put its clusters, so the copies come from
/// [`FIRST_PAIR_SETS`] draws: the run's inputs and further draws under
/// seeds derived from `--seed`, one held at a time. Each copy's latency is
/// the fastest of [`FIRST_PAIR_REPS`] cold streams (buffers dropped before
/// each), so a scheduler delay on a shared host does not count as the
/// program's; each copy's first pair is checked against the other
/// execution mode's.
struct FirstPairProbe<'a> {
    wl: NmWorkload,
    seed: u64,
    engine: QueryEngine,
    other: QueryEngine,
    own: (&'a [Point], &'a [Point]),
    /// The derived input set in use and its index.
    drawn: Option<(usize, Vec<Point>, Vec<Point>)>,
}

impl<'a> FirstPairProbe<'a> {
    fn new(wl: &NmWorkload, seed: u64, p: &'a [Point], q: &'a [Point]) -> Self {
        FirstPairProbe {
            wl: *wl,
            seed,
            engine: QueryEngine::new(wl.config()),
            other: QueryEngine::new(wl.other_config()),
            own: (p, q),
            drawn: None,
        }
    }

    /// The first-pair latency of copy `k`, in ms.
    fn latency_ms(&mut self, k: usize, gate: &mut Gate) -> f64 {
        let set = k / COPIES_PER_SET;
        let (p, q) = if set == 0 {
            self.own
        } else {
            if self.drawn.as_ref().map(|d| d.0) != Some(set) {
                // Seeds past 2³² stay clear of the ones runs are given.
                let (p, q) = self.wl.points(self.seed.wrapping_add((set as u64) << 32));
                self.drawn = Some((set, p, q));
            }
            let (_, p, q) = self.drawn.as_ref().expect("drawn above");
            (p.as_slice(), q.as_slice())
        };
        let mut w = self.engine.build_workload(&variant(p, k), &variant(q, k));
        let (oracle, _) = first_pair(&self.other, &mut w);
        let mut fastest = f64::INFINITY;
        for _ in 0..FIRST_PAIR_REPS {
            let (pair, latency) = first_pair(&self.engine, &mut w);
            gate.op(same(&format!("first pair of copy {k}"), pair, oracle));
            fastest = fastest.min(latency.as_secs_f64() * 1e3);
        }
        fastest
    }
}

/// The traced run: the engine query for the figures only the engine has
/// (page accesses, physical I/O, allocations, join time), then replays.
pub fn run_traced(
    wl: &NmWorkload,
    seed: u64,
    seconds: u64,
    gate: &mut Gate,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let (p, q) = wl.points(seed);
    let config = wl.config();
    let engine = QueryEngine::new(config);
    let mut w = engine.build_workload(&p, &q);
    let setup_io = w.backend_io();
    let setup_bytes = setup_io.bytes_written + setup_io.unmetered_bytes_written;

    // Engine query twice: the first warms up and is gated against the
    // stored values (default seed only — elsewhere the replay parity below
    // is the gate), the second is measured.
    let stored = (seed == expected::DEFAULT_SEED).then(|| expected::nm(wl.name));
    let warm = match query(&engine, &mut w) {
        Ok(r) => r,
        Err(e) => {
            gate.op(Err(e));
            return Vec::new();
        }
    };
    gate.op(stored.map_or(Ok(()), |e| check(&warm, &e)));
    let io_before = w.backend_io();
    let faults_before = w.rp.fault_stats().retries + w.rq.fault_stats().retries;
    let allocs_before = cij_bench::allocations();
    let measured = query(&engine, &mut w);
    let allocs = cij_bench::allocations() - allocs_before;
    let measured = match measured {
        Ok(r) => r,
        Err(e) => {
            gate.op(Err(e));
            return Vec::new();
        }
    };
    let engine_expect = Expect {
        digest: warm.digest,
        counters: warm.counters,
        page_accesses: Some(warm.page_accesses),
    };
    gate.op(check(&measured, &engine_expect));
    let io = w.backend_io().since(&io_before);
    let bytes_read = io.bytes_read + io.unmetered_bytes_read;
    let retries = w.rp.fault_stats().retries + w.rq.fault_stats().retries - faults_before;
    let page_size = config.rtree.page_size as u64;

    // The replay must reproduce the engine exactly; in fast mode its read
    // count is the engine's page-access figure too.
    let fast = wl.mode == ExecMode::Fast;
    let expect_replay = |o: &ReplayOutcome| -> Result<(), String> {
        same("replay pair digest", o.digest, warm.digest)?;
        same("replay NM counters", o.counters, warm.counters)?;
        if fast {
            same("replay snapshot reads", o.reads, warm.page_accesses)?;
        }
        Ok(())
    };
    let join = ReplayJoin {
        rp: &w.rp,
        rq: &w.rq,
        config: &config,
        cache_cells: config.cell_cache_capacity,
        query_id: 0,
    };
    let Some(figures) = replay_layers(&join, seconds as f64, tracer, gate, &expect_replay) else {
        return Vec::new();
    };
    let join_s = measured.wall.as_secs_f64();
    println!(
        "{}: engine join {:.4} s, replay {:.4} s untimed / {:.4} s traced, layers {:?}, store {:.4} s",
        wl.name,
        join_s,
        figures.untimed_s,
        figures.traced_s,
        LAYERS.iter().zip(figures.layer_s).collect::<Vec<_>>(),
        figures.store_s
    );
    let mut metrics = layer_metrics(&figures);
    let layer_total_s = figures.accounted_s;
    metrics.extend([
        Metric::new(
            "pagestore.physical_reads",
            (bytes_read / page_size) as f64,
            "count",
        ),
        Metric::new("pagestore.bytes_read", bytes_read as f64, "B"),
        Metric::new("pagestore.retries", retries as f64, "count"),
        Metric::new("pagestore.setup_bytes_written", setup_bytes as f64, "B"),
        Metric::new(
            "rtree.page_accesses",
            measured.page_accesses as f64,
            "count",
        ),
        Metric::new("nm.join_s", join_s, "s"),
        Metric::new(
            "nm.layer_share",
            layer_total_s / (wl.workers as f64 * join_s),
            "ratio",
        ),
        Metric::new("nm.alloc_per_query", allocs as f64, "count"),
    ]);
    metrics
}
