//! `serve_mix`: a `CijService` with two workers over a file-backed snapshot
//! of six 1,000-point sets (uniform and clustered alternating), driven by a
//! closed loop of two client threads with one outstanding request each.
//!
//! The request mix is fixed: 60 % `Join`, 25 % three-set `Multiway`, 15 %
//! `GroupedNn` over 1,000 locations. Every response is checked against its
//! request's oracle, computed untimed with the metered engine before the
//! run.

use crate::digest::Digest;
use crate::expected;
use crate::replay::{layer_metrics, replay_layers, LayerFigures, ReplayJoin, ReplayOutcome};
use crate::report::{same, Gate, Metric};
use crate::stats::{median, percentile};
use crate::trace::{NoSpans, SpanSink, Tracer};
use cij_core::{
    Algorithm, Batch, CijConfig, CijService, EngineSnapshot, ExecMode, GroupCounts, QueryEngine,
    Request, ServiceConfig, StorageBackend,
};
use cij_datagen::{clustered_points, uniform_points, ClusterSpec};
use cij_geom::{Point, Rect};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Indexed sets in the snapshot.
const SETS: usize = 6;
/// Points per set.
const SET_N: usize = 1_000;
/// Locations per grouped-NN request.
const LOCATIONS: usize = 1_000;
/// Client threads of the closed loop, one outstanding request each.
const CLIENTS: usize = 2;
/// Service worker threads.
const WORKERS: usize = 2;
/// Snapshot builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// The description of the inputs for the fingerprint.
pub fn sizes() -> String {
    format!(
        "{SETS} sets x {SET_N} points (uniform/clustered alternating), {LOCATIONS} locations \
         per grouped request, {WORKERS} workers, {CLIENTS} closed-loop clients"
    )
}

/// The kind of a request, for per-kind latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Join,
    Multiway,
    Grouped,
}

/// The fixed request mix: 24 joins, 10 three-set multiway and 6 grouped
/// requests (60 / 25 / 15 %), interleaved, every one distinct.
fn mix(locations: &[Vec<Point>]) -> Vec<Request> {
    // Joins: ordered set pairs at index distance 1 to 4.
    let mut joins = (1..=4).flat_map(|d| {
        (0..SETS).map(move |p| Request::Join {
            p,
            q: (p + d) % SETS,
        })
    });
    // Multiway: six runs of three neighbouring sets, the two alternating
    // triples, and two skewed triples.
    let triples =
        (0..SETS)
            .map(|i| [i, i + 1, i + 2])
            .chain([[0, 2, 4], [1, 3, 5], [0, 1, 3], [2, 3, 5]]);
    let mut multis = triples.map(|t| Request::Multiway {
        sets: t.iter().map(|s| s % SETS).collect(),
    });
    let mut groups = (0..SETS).map(|p| Request::GroupedNn {
        p,
        q: (p + 1) % SETS,
        locations: locations[p % locations.len()].clone(),
    });
    const PATTERN: &[u8; 20] = b"JJMJGJMJJMJGJMJJMJGJ";
    let mix: Vec<Request> = PATTERN
        .iter()
        .chain(PATTERN)
        .map(|k| {
            let next = match k {
                b'J' => joins.next(),
                b'M' => multis.next(),
                _ => groups.next(),
            };
            next.expect("the pattern matches the request counts")
        })
        .collect();
    debug_assert!(joins.next().is_none() && multis.next().is_none() && groups.next().is_none());
    mix
}

fn kind(request: &Request) -> Kind {
    match request {
        Request::Join { .. } => Kind::Join,
        Request::Multiway { .. } => Kind::Multiway,
        Request::GroupedNn { .. } => Kind::Grouped,
    }
}

/// The inputs of `--seed seed`: set `i` from data seed `6·seed + i`
/// (uniform for even `i`, clustered for odd), location set `j` from
/// `6·seed + 100 + j`.
fn inputs(seed: u64) -> (Vec<Vec<Point>>, Vec<Vec<Point>>) {
    let base = seed.wrapping_mul(SETS as u64);
    let sets = (0..SETS)
        .map(|i| {
            let s = base.wrapping_add(i as u64);
            if i % 2 == 0 {
                uniform_points(SET_N, &Rect::DOMAIN, s)
            } else {
                clustered_points(&ClusterSpec::new(SET_N), &Rect::DOMAIN, s)
            }
        })
        .collect();
    let locations = (0..SETS as u64)
        .map(|j| uniform_points(LOCATIONS, &Rect::DOMAIN, base.wrapping_add(100 + j)))
        .collect();
    (sets, locations)
}

/// The snapshot's configuration: defaults on the file backend.
fn config() -> CijConfig {
    CijConfig::default().with_storage_backend(StorageBackend::File)
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    }
}

/// Each request's expected digest, from the metered engine (heap backend:
/// results never depend on the backend).
fn oracles(sets: &[Vec<Point>], mix: &[Request]) -> Vec<Digest> {
    let engine = QueryEngine::new(CijConfig::default());
    mix.iter()
        .map(|request| match request {
            Request::Join { p, q } => {
                let mut d = Digest::default();
                for (a, b) in engine.join(&sets[*p], &sets[*q], Algorithm::NmCij).pairs {
                    d.pair(a, b);
                }
                d
            }
            Request::Multiway { sets: chosen } => {
                let chosen: Vec<Vec<Point>> = chosen.iter().map(|&i| sets[i].clone()).collect();
                let mut w = engine.multiway_workload(&chosen);
                let mut d = Digest::default();
                for t in engine.multiway_stream(&mut w) {
                    d.tuple(&t.ids);
                }
                d
            }
            Request::GroupedNn { p, q, locations } => {
                Digest::of_groups(&engine.grouped_nn(&sets[*p], &sets[*q], locations))
            }
        })
        .collect()
}

/// One served request as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    entry: usize,
    kind: Kind,
    submit: Duration,
    first_batch: Option<Duration>,
    total: Duration,
    page_accesses: u64,
    queue_full: bool,
    verdict: Result<(), String>,
}

/// Submits `request`, drains its batches and waits for its completion,
/// checking the result against `oracle`.
fn send<S: SpanSink>(
    service: &CijService,
    entry: usize,
    request: &Request,
    oracle: Digest,
    spans: &mut S,
) -> Sample {
    let request_span = spans.open("service.request");
    let submit_span = spans.open("service.submit");
    let start = Instant::now();
    let submitted = service.submit(request.clone());
    let submit = start.elapsed();
    spans.close(submit_span, Duration::ZERO);
    let mut sample = Sample {
        entry,
        kind: kind(request),
        submit,
        first_batch: None,
        total: Duration::ZERO,
        page_accesses: 0,
        queue_full: false,
        verdict: Ok(()),
    };
    let handle = match submitted {
        Ok(h) => h,
        Err(e) => {
            spans.close(request_span, Duration::ZERO);
            sample.queue_full = true;
            sample.total = start.elapsed();
            sample.verdict = Err(format!("request {entry}: {e}"));
            return sample;
        }
    };
    let wait_span = spans.open("service.first_batch");
    let mut next = handle.next_batch();
    sample.first_batch = next.as_ref().map(|_| start.elapsed());
    spans.close(wait_span, Duration::ZERO);
    let drain_span = spans.open("service.drain");
    let mut digest = Digest::default();
    let mut groups = GroupCounts::new();
    let mut error = None;
    while let Some(batch) = next {
        match batch {
            Batch::Pairs(pairs) => pairs.into_iter().for_each(|(p, q)| digest.pair(p, q)),
            Batch::Tuples(tuples) => tuples.iter().for_each(|t| digest.tuple(&t.ids)),
            Batch::Groups(g) => groups.extend(g),
            Batch::Error(e) => error = Some(e),
        }
        next = handle.next_batch();
    }
    let completion = handle.completion();
    sample.total = start.elapsed();
    spans.close(drain_span, Duration::ZERO);
    spans.close(request_span, Duration::ZERO);
    sample.page_accesses = completion.page_accesses;
    if sample.kind == Kind::Grouped {
        digest = Digest::of_groups(&groups);
    }
    sample.verdict = match (error, completion.error) {
        (Some(e), _) | (None, Some(e)) => Err(format!("request {entry} failed: {e}")),
        (None, None) => same(&format!("request {entry} digest"), digest, oracle),
    };
    sample
}

/// Runs the closed loop for `seconds`: client `c` walks the mix from
/// offset `c · len / CLIENTS`. Returns every sample and the loop's wall
/// time.
fn closed_loop(
    service: &CijService,
    mix: &[Request],
    oracles: &[Digest],
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> (Vec<Sample>, f64) {
    let origin = Instant::now();
    let traced = tracer.is_some();
    let per_client: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut spans = Tracer::new(origin);
                    let mut next = c * mix.len() / CLIENTS;
                    while origin.elapsed().as_secs_f64() < seconds {
                        let entry = next % mix.len();
                        next += 1;
                        spans.set_query((c * 1_000_000 + samples.len()) as u32);
                        let sample = if traced {
                            send(service, entry, &mix[entry], oracles[entry], &mut spans)
                        } else {
                            send(service, entry, &mix[entry], oracles[entry], &mut NoSpans)
                        };
                        samples.push(sample);
                    }
                    (samples, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = origin.elapsed().as_secs_f64();
    let mut tracer = tracer;
    let mut samples = Vec::new();
    for (s, spans) in per_client {
        samples.extend(s);
        if let Some(t) = tracer.as_mut() {
            t.absorb(spans);
        }
    }
    (samples, wall)
}

/// Sends every request of the mix once (the clients split it), untimed:
/// warms the service and returns the samples in mix order.
fn one_pass(service: &CijService, mix: &[Request], oracles: &[Digest]) -> Vec<Sample> {
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    (c..mix.len())
                        .step_by(CLIENTS)
                        .map(|e| send(service, e, &mix[e], oracles[e], &mut NoSpans))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.entry);
    samples
}

/// Everything both kinds of run set up: inputs, oracles (gated), the
/// snapshot build times and a running service.
struct Setup {
    sets: Vec<Vec<Point>>,
    mix: Vec<Request>,
    oracles: Vec<Digest>,
    setup_s: f64,
    setup_bytes: u64,
    service: CijService,
}

fn set_up(seed: u64, gate: &mut Gate) -> Setup {
    let (sets, locations) = inputs(seed);
    let mix = mix(&locations);
    let oracles = oracles(&sets, &mix);
    if seed == expected::DEFAULT_SEED {
        let mut all = Digest::default();
        for o in &oracles {
            all.tuple(&[o.hash, o.rows]);
        }
        gate.op(same(
            "digest of the mix's oracle digests",
            all,
            expected::SERVE_MIX,
        ));
    }
    let engine = QueryEngine::new(config());
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut snapshot: Option<EngineSnapshot> = None;
    for _ in 0..SETUP_REPS {
        drop(snapshot.take());
        let start = Instant::now();
        let s = engine.snapshot(&sets);
        times.push(start.elapsed().as_secs_f64());
        snapshot = Some(s);
    }
    let snapshot = snapshot.expect("at least one build");
    let setup_bytes = (0..snapshot.k())
        .map(|i| {
            let io = snapshot.tree(i).backend_io();
            io.bytes_written + io.unmetered_bytes_written
        })
        .sum();
    Setup {
        sets,
        mix,
        oracles,
        setup_s: median(&times),
        setup_bytes,
        service: CijService::start(Arc::new(snapshot), service_config()),
    }
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The end-to-end run (tracing off).
pub fn run(seed: u64, seconds: u64, gate: &mut Gate) -> Vec<Metric> {
    let s = set_up(seed, gate);
    for sample in one_pass(&s.service, &s.mix, &s.oracles) {
        gate.op(sample.verdict);
    }
    let (samples, wall) = closed_loop(&s.service, &s.mix, &s.oracles, seconds as f64, None);
    s.service.shutdown();

    let ok = samples.iter().filter(|x| x.verdict.is_ok()).count();
    let totals: Vec<f64> = samples.iter().map(|x| millis(x.total)).collect();
    let joins: Vec<&Sample> = samples.iter().filter(|x| x.kind == Kind::Join).collect();
    let join_s: Vec<f64> = joins.iter().map(|x| x.total.as_secs_f64()).collect();
    let join_first: Vec<f64> = joins
        .iter()
        .filter_map(|x| x.first_batch.map(millis))
        .collect();
    println!(
        "serve_mix: {} requests in {wall:.3} s ({} joins), tail percentile rule gives {}",
        samples.len(),
        joins.len(),
        crate::stats::tail_percentile(samples.len())
            .map_or_else(|| "none".to_string(), |p| format!("p{p}"))
    );
    let per_entry: Vec<String> = (0..s.mix.len())
        .map(|e| {
            let v: Vec<f64> = samples
                .iter()
                .filter(|x| x.entry == e)
                .map(|x| millis(x.total))
                .collect();
            if v.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}", median(&v))
            }
        })
        .collect();
    println!(
        "serve_mix: median latency per request, ms, in mix order: {}",
        per_entry.join(" ")
    );
    for sample in samples {
        gate.op(sample.verdict);
    }
    if totals.is_empty() || join_s.is_empty() || join_first.is_empty() {
        gate.op(Err("the closed loop completed no join".to_string()));
        return vec![Metric::new("setup_s", s.setup_s, "s")];
    }
    vec![
        Metric::new("setup_s", s.setup_s, "s"),
        Metric::new("join_s", median(&join_s), "s"),
        Metric::new("first_pair_ms", median(&join_first), "ms"),
        Metric::new("serve_qps", ok as f64 / wall, "1/s"),
        Metric::new("serve_p50_ms", median(&totals), "ms"),
        Metric::new("serve_p90_ms", percentile(&totals, 90.0), "ms"),
    ]
}

/// The traced run: per-request service spans from the closed loop, a
/// traced pass of the mix's multiway requests through
/// `QueryEngine::multiway_stream`, and layer replays of the mix's joins
/// over the service's own snapshot trees.
pub fn run_traced(seed: u64, seconds: u64, gate: &mut Gate, tracer: &mut Tracer) -> Vec<Metric> {
    let s = set_up(seed, gate);
    let warm = one_pass(&s.service, &s.mix, &s.oracles);
    let reads_per_request =
        warm.iter().map(|x| x.page_accesses).sum::<u64>() as f64 / warm.len() as f64;
    let page_accesses: u64 = warm.iter().map(|x| x.page_accesses).sum();
    for sample in warm {
        gate.op(sample.verdict);
    }
    let snapshot = Arc::clone(s.service.snapshot());
    let bytes_of = |snap: &EngineSnapshot| -> u64 {
        (0..snap.k())
            .map(|i| {
                let io = snap.tree(i).backend_io();
                io.bytes_read + io.unmetered_bytes_read
            })
            .sum()
    };
    let bytes_before = bytes_of(&snapshot);
    let (samples, wall) = closed_loop(&s.service, &s.mix, &s.oracles, seconds as f64, Some(tracer));
    let bytes_read = bytes_of(&snapshot) - bytes_before;
    let high_water = s.service.budget().high_water();
    s.service.shutdown();

    let of_kind = |k: Kind| -> Vec<f64> {
        samples
            .iter()
            .filter(|x| x.kind == k)
            .map(|x| millis(x.total))
            .collect()
    };
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let submit_us: Vec<f64> = samples
        .iter()
        .map(|x| x.submit.as_secs_f64() * 1e6)
        .collect();
    let first: Vec<f64> = samples
        .iter()
        .filter_map(|x| x.first_batch.map(millis))
        .collect();
    let queue_full = samples.iter().filter(|x| x.queue_full).count();
    println!(
        "serve_mix: {} traced requests in {wall:.3} s",
        samples.len()
    );
    // Per distinct join, its median served latency: the base of
    // `nm.layer_share` below.
    let served_join_s: f64 = (0..s.mix.len())
        .filter(|&e| kind(&s.mix[e]) == Kind::Join)
        .map(|e| {
            let v: Vec<f64> = samples
                .iter()
                .filter(|x| x.entry == e)
                .map(|x| x.total.as_secs_f64())
                .collect();
            med(&v)
        })
        .sum();
    for sample in samples.iter() {
        gate.op(sample.verdict.clone());
    }

    // Traced multiway pass.
    let fast = config().with_exec_mode(ExecMode::Fast);
    let engine = QueryEngine::new(fast);
    let (mut mw_clip, mut mw_cells) = (0u64, 0u64);
    for (e, request) in s.mix.iter().enumerate() {
        let Request::Multiway { sets: chosen } = request else {
            continue;
        };
        let chosen: Vec<Vec<Point>> = chosen.iter().map(|&i| s.sets[i].clone()).collect();
        let mut w = engine.multiway_workload(&chosen);
        tracer.set_query(e as u32);
        let span = tracer.open("multiway");
        let mut stream = engine.multiway_stream(&mut w);
        let mut digest = Digest::default();
        for t in &mut stream {
            digest.tuple(&t.ids);
        }
        tracer.close(span, Duration::ZERO);
        let counters = stream.counters_so_far();
        mw_clip += counters.filter_clip_ops;
        mw_cells += counters.total_cells_computed();
        gate.op(match stream.io_error() {
            Some(err) => Err(format!("multiway request {e}: {err}")),
            None => same(
                &format!("multiway request {e} digest"),
                digest,
                s.oracles[e],
            ),
        });
    }

    // Layer replays of the joins, with the per-query cache quota the
    // service gives each join.
    let quota = service_config()
        .query_cache_quota
        .min(service_config().cache_budget_cells)
        .max(1);
    let mut sum: Option<LayerFigures> = None;
    for (e, request) in s.mix.iter().enumerate() {
        let Request::Join { p, q } = *request else {
            continue;
        };
        let join = ReplayJoin {
            rp: snapshot.tree(p),
            rq: snapshot.tree(q),
            config: snapshot.config(),
            cache_cells: quota,
            query_id: e as u32,
        };
        let oracle = s.oracles[e];
        let expect = |o: &ReplayOutcome| same(&format!("replay of request {e}"), o.digest, oracle);
        let Some(f) = replay_layers(&join, 0.0, tracer, gate, &expect) else {
            return Vec::new();
        };
        match &mut sum {
            Some(total) => total.absorb(&f),
            None => sum = Some(f),
        }
    }
    let figures = sum.expect("the mix has joins");
    let page_size = snapshot.config().rtree.page_size as u64;
    let mut metrics = layer_metrics(&figures);
    metrics.extend([
        Metric::new(
            "pagestore.physical_reads",
            (bytes_read / page_size) as f64,
            "count",
        ),
        Metric::new("pagestore.bytes_read", bytes_read as f64, "B"),
        Metric::new("pagestore.setup_bytes_written", s.setup_bytes as f64, "B"),
        Metric::new("rtree.page_accesses", page_accesses as f64, "count"),
        Metric::new("nm.join_s", served_join_s, "s"),
        Metric::new(
            "nm.layer_share",
            figures.accounted_s / served_join_s,
            "ratio",
        ),
        Metric::new("multiway.clip_ops", mw_clip as f64, "count"),
        Metric::new("multiway.cells_computed", mw_cells as f64, "count"),
        Metric::new("service.submit_us", med(&submit_us), "us"),
        Metric::new("service.first_batch_ms", med(&first), "ms"),
        Metric::new("service.join_p50_ms", med(&of_kind(Kind::Join)), "ms"),
        Metric::new(
            "service.multiway_p50_ms",
            med(&of_kind(Kind::Multiway)),
            "ms",
        ),
        Metric::new("service.grouped_p50_ms", med(&of_kind(Kind::Grouped)), "ms"),
        Metric::new("service.queue_full", queue_full as f64, "count"),
        Metric::new("service.budget_high_water", high_water as f64, "count"),
        Metric::new("service.reads_per_request", reads_per_request, "count"),
    ]);
    metrics
}
