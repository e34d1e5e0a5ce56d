//! Integration tests for the leaf-batched, streaming, parallel multiway
//! CIJ: oracle parity on uniform and clustered data, the one-probe-per-leaf
//! batching budget, cost-driven vs fixed driver-tree selection, exact thread
//! parity at `worker_threads` ∈ {1, 4}, heap-vs-file storage parity,
//! streaming laziness/watermarks, and a proptest over random workloads.

use cij::prelude::*;
use cij::rtree::RTreeConfig;
use proptest::prelude::*;

/// Small pages so even modest datasets produce multi-level trees; honours
/// the `CIJ_WORKER_THREADS` / `CIJ_STORAGE` overrides CI uses for its
/// second and third test passes.
fn test_config() -> CijConfig {
    CijConfig::default()
        .with_rtree(RTreeConfig {
            page_size: 512,
            min_fill: 0.4,
            max_entries: 64,
        })
        .with_env_overrides()
}

fn clustered(n: usize, seed: u64) -> Vec<Point> {
    clustered_points(
        &ClusterSpec {
            n,
            clusters: 5,
            sigma_fraction: 0.03,
            background_fraction: 0.15,
            size_skew: 0.8,
        },
        &Rect::DOMAIN,
        seed,
    )
}

fn run_multiway(sets: &[Vec<Point>], config: &CijConfig) -> MultiwayOutcome {
    QueryEngine::new(*config).multiway(sets)
}

/// Asserts the full observable-equality contract between two multiway runs:
/// tuple ids (set *and* order), every counter, page accesses, progress
/// samples and watermarks.
fn assert_parity(a: &MultiwayOutcome, b: &MultiwayOutcome, label: &str) {
    let a_ids: Vec<&Vec<u64>> = a.tuples.iter().map(|t| &t.ids).collect();
    let b_ids: Vec<&Vec<u64>> = b.tuples.iter().map(|t| &t.ids).collect();
    assert_eq!(
        a_ids, b_ids,
        "{label}: tuple sequence (set or order) diverged"
    );
    assert_eq!(a.counters, b.counters, "{label}: counters diverged");
    assert_eq!(
        a.page_accesses, b.page_accesses,
        "{label}: page-access totals diverged"
    );
    assert_eq!(a.progress, b.progress, "{label}: progress samples diverged");
    assert_eq!(a.watermarks, b.watermarks, "{label}: watermarks diverged");
}

#[test]
fn three_way_matches_the_oracle_on_uniform_data() {
    let config = test_config();
    let sets = vec![
        uniform_points(40, &Rect::DOMAIN, 15_001),
        uniform_points(45, &Rect::DOMAIN, 15_002),
        uniform_points(35, &Rect::DOMAIN, 15_003),
    ];
    let outcome = run_multiway(&sets, &config);
    assert_eq!(
        outcome.sorted_ids(),
        brute_force_multiway_cij(&sets, &config.domain)
    );
    assert!(!outcome.tuples.is_empty());
}

#[test]
fn three_way_matches_the_oracle_on_clustered_data() {
    let config = test_config();
    let sets = vec![
        clustered(40, 15_004),
        clustered(45, 15_005),
        clustered(35, 15_006),
    ];
    let outcome = run_multiway(&sets, &config);
    assert_eq!(
        outcome.sorted_ids(),
        brute_force_multiway_cij(&sets, &config.domain)
    );
    assert!(!outcome.tuples.is_empty());
}

#[test]
fn batched_probing_matches_the_oracle_within_one_probe_per_leaf_and_round() {
    let config = test_config();
    let sets = vec![
        clustered(150, 15_007),
        clustered(150, 15_008),
        clustered(150, 15_009),
    ];
    let batched = run_multiway(&sets, &config);
    assert_eq!(
        batched.sorted_ids(),
        brute_force_multiway_cij(&sets, &config.domain)
    );
    assert!(batched.counters.cells_computed.iter().sum::<u64>() > 0);
    // Every extension round probes each driver leaf at most once, however
    // many partial tuples the leaf carries.
    let rounds = sets.len() as u64 - 1;
    let budget = batched.watermarks.len() as u64 * rounds;
    assert!(batched.counters.filter_probes > 0);
    assert!(
        batched.counters.filter_probes <= budget,
        "{} filter calls exceed one per leaf and round ({budget})",
        batched.counters.filter_probes
    );
}

#[test]
fn thread_parity_is_exact_at_one_and_four_workers() {
    let base = test_config();
    let sets = vec![
        clustered(250, 15_010),
        clustered(250, 15_011),
        clustered(250, 15_012),
    ];
    let sequential = run_multiway(&sets, &base.with_worker_threads(1));
    for threads in [2usize, 4] {
        let parallel = run_multiway(&sets, &base.with_worker_threads(threads));
        assert_parity(
            &parallel,
            &sequential,
            &format!("clustered k=3, T={threads}"),
        );
    }
}

#[test]
fn thread_parity_holds_under_cache_eviction_pressure() {
    // A tiny reuse buffer maximises policy churn across all k caches: hits,
    // misses and evictions must still be decided identically to leaf order.
    let base = test_config().with_cell_cache_capacity(4);
    let sets = vec![clustered(200, 15_013), clustered(200, 15_014)];
    let sequential = run_multiway(&sets, &base.with_worker_threads(1));
    let parallel = run_multiway(&sets, &base.with_worker_threads(4));
    assert_parity(&parallel, &sequential, "squeezed caches, T=4");
    assert!(
        sequential.counters.cell_cache_evictions.iter().sum::<u64>() > 0,
        "capacity 4 must evict on this workload"
    );
    // Eviction pressure never changes the result set.
    let roomy = run_multiway(&sets, &test_config().with_worker_threads(1));
    assert_eq!(sequential.sorted_ids(), roomy.sorted_ids());
}

#[test]
fn storage_backends_are_observably_identical() {
    let base = test_config();
    let sets = vec![
        clustered(200, 15_015),
        clustered(200, 15_016),
        clustered(200, 15_017),
    ];
    let heap = run_multiway(&sets, &base.with_storage_backend(StorageBackend::Heap));
    let file = run_multiway(&sets, &base.with_storage_backend(StorageBackend::File));
    assert_parity(&file, &heap, "file vs heap backend");
    // And the same holds with the parallel path on top.
    let heap4 = run_multiway(
        &sets,
        &base
            .with_storage_backend(StorageBackend::Heap)
            .with_worker_threads(4),
    );
    let file4 = run_multiway(
        &sets,
        &base
            .with_storage_backend(StorageBackend::File)
            .with_worker_threads(4),
    );
    assert_parity(&file4, &heap4, "file vs heap backend, T=4");
    assert_parity(&heap4, &heap, "heap T=4 vs T=1");
}

#[test]
fn driver_choices_agree_with_the_oracle_and_each_other() {
    // Asymmetric sizes: the cost model genuinely has a choice to make.
    let config = test_config();
    let sets = vec![
        clustered(80, 15_030),
        clustered(45, 15_031),
        clustered(25, 15_032),
    ];
    let oracle = brute_force_multiway_cij(&sets, &config.domain);
    let cost_based = run_multiway(&sets, &config);
    assert_eq!(cost_based.sorted_ids(), oracle);
    for d in 0..sets.len() {
        let fixed = run_multiway(
            &sets,
            &config.with_multiway_driver(MultiwayDriver::Fixed(d)),
        );
        assert_eq!(fixed.driver, d);
        // Tuples may be *ordered* differently across drivers (the leaf
        // order of a different tree drives emission) — the sets must match
        // the brute oracle exactly.
        assert_eq!(
            fixed.sorted_ids(),
            oracle,
            "driver {d} diverged from the oracle"
        );
    }
}

#[test]
fn thread_and_backend_parity_hold_at_a_fixed_nonzero_driver() {
    // The exact-parity contract is per plan: pin a non-default driver and
    // the full observable-equality guarantee must hold across thread counts
    // and storage backends, exactly like the historical driver-0 plan.
    let base = test_config().with_multiway_driver(MultiwayDriver::Fixed(1));
    let sets = vec![
        clustered(180, 15_033),
        clustered(120, 15_034),
        clustered(90, 15_035),
    ];
    let sequential = run_multiway(&sets, &base.with_worker_threads(1));
    assert_eq!(sequential.driver, 1);
    let parallel = run_multiway(&sets, &base.with_worker_threads(4));
    assert_parity(&parallel, &sequential, "fixed driver 1, T=4 vs T=1");
    let file = run_multiway(&sets, &base.with_storage_backend(StorageBackend::File));
    assert_parity(&file, &sequential, "fixed driver 1, file vs heap");
}

#[test]
fn cost_driven_plan_parity_holds_across_threads_and_backends() {
    // The cost model reads only tree metadata, which is identical across
    // thread counts and backends — so the chosen plan, and with it every
    // observable, stays exact.
    let base = test_config();
    let sets = vec![
        clustered(200, 15_036),
        clustered(100, 15_037),
        clustered(60, 15_038),
    ];
    let sequential = run_multiway(&sets, &base.with_worker_threads(1));
    let parallel = run_multiway(&sets, &base.with_worker_threads(4));
    assert_eq!(parallel.driver, sequential.driver);
    assert_parity(&parallel, &sequential, "cost-driven plan, T=4 vs T=1");
    let file = run_multiway(&sets, &base.with_storage_backend(StorageBackend::File));
    assert_eq!(file.driver, sequential.driver);
    assert_parity(&file, &sequential, "cost-driven plan, file vs heap");
}

#[test]
fn raw_tuples_are_unique_without_deduplication() {
    let config = test_config();
    let sets = vec![clustered(150, 15_018), clustered(150, 15_019)];
    let outcome = run_multiway(&sets, &config);
    let mut ids: Vec<Vec<u64>> = outcome.tuples.iter().map(|t| t.ids.clone()).collect();
    let raw_len = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(
        ids.len(),
        raw_len,
        "the stream must never emit the same id tuple twice"
    );
}

#[test]
fn stream_is_lazy_and_watermarks_are_final() {
    let config = test_config();
    let sets = vec![
        uniform_points(800, &Rect::DOMAIN, 15_020),
        uniform_points(800, &Rect::DOMAIN, 15_021),
    ];
    let engine = QueryEngine::new(config);

    let blocking = engine.multiway(&sets);
    let total = blocking.page_accesses;

    let mut w = engine.multiway_workload(&sets);
    let stats = w.stats.clone();
    let mut stream = engine.multiway_stream(&mut w);
    let first = stream
        .next()
        .expect("non-empty multiway join yields tuples");
    assert!(!first.ids.is_empty());
    let at_first = stats.snapshot().page_accesses();
    assert!(
        at_first * 4 < total,
        "first tuple after {at_first} accesses vs {total} total — not lazy"
    );

    // Watermarks recorded so far are a prefix of the blocking run's, and
    // everything at or below the last watermark is already final.
    let early = stream.watermarks_so_far();
    assert!(!early.is_empty());
    let rest: Vec<MultiwayTuple> = stream.by_ref().collect();
    assert_eq!(1 + rest.len(), blocking.tuples.len());
    let full = stream.watermarks_so_far();
    assert_eq!(
        &full[..early.len()],
        &early[..],
        "watermarks are append-only"
    );
    assert_eq!(full, blocking.watermarks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random clustered/uniform workloads and random k, driver choice,
    /// thread count and cache pressure: the engine agrees
    /// with the brute-force oracle and the parallel run agrees with the
    /// sequential one on every observable.
    #[test]
    fn multiway_parity_and_oracle_hold_for_random_workloads(
        seed in 0u64..1_000,
        k in 2usize..4,
        capacity in 4usize..64,
        threads in 2usize..5,
        driver_pick in 0usize..4,
    ) {
        let sets: Vec<Vec<Point>> = (0..k)
            .map(|i| {
                let s = 16_000 + seed * 10 + i as u64;
                if i % 2 == 0 {
                    uniform_points(30, &Rect::DOMAIN, s)
                } else {
                    clustered(30, s)
                }
            })
            .collect();
        let driver = if driver_pick >= k {
            MultiwayDriver::CostBased
        } else {
            MultiwayDriver::Fixed(driver_pick)
        };
        let config = test_config()
            .with_cell_cache_capacity(capacity)
            .with_multiway_driver(driver);
        let sequential = run_multiway(&sets, &config.with_worker_threads(1));
        prop_assert_eq!(
            sequential.sorted_ids(),
            brute_force_multiway_cij(&sets, &config.domain)
        );
        let parallel = run_multiway(&sets, &config.with_worker_threads(threads));
        let seq_ids: Vec<&Vec<u64>> = sequential.tuples.iter().map(|t| &t.ids).collect();
        let par_ids: Vec<&Vec<u64>> = parallel.tuples.iter().map(|t| &t.ids).collect();
        prop_assert_eq!(par_ids, seq_ids);
        prop_assert_eq!(&parallel.counters, &sequential.counters);
        prop_assert_eq!(parallel.page_accesses, sequential.page_accesses);
    }
}
