//! Results stored with the workloads for the default seed.
//!
//! On `--seed 1` every query must reproduce these exactly. The
//! `nm_uniform` figures are the ROADMAP baseline (90,284 pairs, 3,623,516
//! clip ops, 21,209 P cells computed, 20,185 evictions, 1,800 metered
//! physical reads). The `nm_clustered_fast` figures come from the metered
//! oracle on that workload's shared-centre clustered inputs (90,667 pairs,
//! 4,519,129 clip ops, 20,940 P cells, 19,916 evictions, 18,524 snapshot
//! reads in fast mode).

use crate::digest::Digest;
use crate::nm::Expect;
use cij_core::NmCounters;

/// The seed whose results are stored here.
pub const DEFAULT_SEED: u64 = 1;

/// The stored result of one NM-CIJ workload's query.
pub fn nm(workload: &str) -> Expect {
    match workload {
        "nm_uniform" => Expect {
            digest: Digest {
                hash: 0xe36f_44e3_2ed0_7ac5,
                rows: 90_284,
            },
            counters: NmCounters {
                filter_candidates: 32_735,
                filter_true_hits: 31_248,
                p_cells_computed: 21_209,
                p_cells_reused: 11_526,
                q_cells_computed: 20_000,
                cell_cache_evictions: 20_185,
                filter_points_examined: 144_329,
                filter_entries_pruned: 36_126,
                filter_clip_ops: 3_623_516,
                filter_poly_tests_skipped: 6_590_370,
            },
            page_accesses: Some(1_800),
        },
        "nm_clustered_fast" => Expect {
            digest: Digest {
                hash: 0xde7d_cd6e_ecf9_43dd,
                rows: 90_667,
            },
            counters: NmCounters {
                filter_candidates: 33_670,
                filter_true_hits: 31_570,
                p_cells_computed: 20_940,
                p_cells_reused: 12_730,
                q_cells_computed: 20_000,
                cell_cache_evictions: 19_916,
                filter_points_examined: 156_301,
                filter_entries_pruned: 34_042,
                filter_clip_ops: 4_519_129,
                filter_poly_tests_skipped: 6_663_145,
            },
            page_accesses: Some(18_524),
        },
        other => panic!("no stored result for workload {other}"),
    }
}

/// The stored digest over the `serve_mix` oracle digests, in mix order
/// (each folded in as the tuple `[hash, rows]`).
pub const SERVE_MIX: Digest = Digest {
    hash: 0xb081_4f18_301a_a739,
    rows: 40,
};
