//! One module per table / figure of the paper's evaluation (Section V).
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig5`] | Fig. 5 — BF-VOR vs TP-VOR, node accesses and CPU of single Voronoi-cell queries |
//! | [`fig6`] | Fig. 6 — ITER vs BATCH vs LB for whole-diagram computation vs datasize |
//! | [`table2`] | Table II — BatchVoronoi on the (stand-in) real datasets |
//! | [`fig7`] | Fig. 7 — MAT/JOIN cost breakdown of FM/PM/NM at the default setting |
//! | [`fig8`] | Fig. 8 — buffer-size effect (a) and scalability with datasize (b) |
//! | [`fig9`] | Fig. 9 — cardinality ratio (a) and output progressiveness (b) |
//! | [`fig10`] | Fig. 10 — false-hit ratio of the NM-CIJ filter |
//! | [`fig11`] | Fig. 11 — REUSE vs NO-REUSE Voronoi-cell computations |
//! | [`table3`] | Table III — result sizes and page accesses on real dataset pairs |
//!
//! Beyond the paper's own figures, two engineering experiments cover this
//! reproduction's extensions:
//!
//! | Module | Measures |
//! |---|---|
//! | [`cache_sweep`] | Fig. 8a-style sweep of the Section IV-B reuse-buffer capacity (`cell_cache_capacity`) |
//! | [`scaling`] | NM-CIJ thread scaling (`worker_threads` ∈ {1, 2, 4, 8}): speedup + sequential-parity check |
//! | [`io_validation`] | Heap vs file `StorageBackend`: counted page accesses vs actual bytes read, cold and warm buffer, plus backend parity |
//! | [`multiway_scale`] | Multiway CIJ over k ∈ {2, 3, 4} sets: leaf-batched probing budgets, cost-driven planning vs the fixed-driver baseline, thread-parity check |
//! | [`filter_kernel`] | Conditional-filter kernels: sub-quadratic `Indexed` vs quadratic `Scan` — byte-identical candidates, identical traversal, ≥ 3× fewer clip operations |
//! | [`kernel_layout`] | Leaf layouts: SoA arena/scratch kernels vs the AoS baseline — byte-identical pairs/tuples/counters/page accesses at any thread count and backend, strictly fewer allocations |
//! | [`concurrent_scale`] | Fast-mode serving: N ∈ {1, 4, 16} simultaneous NM-CIJ queries over one shared snapshot — metered-identical results, zero traces/replays, budget envelope under quota pressure |
//! | [`fault_storm`] | Injected I/O faults on every backend: seeded transient storms must be byte-invisible (store-level retry parity), a persistently corrupt frame must fail exactly the touching query with a structured error while concurrent healthy queries stay oracle-identical |
//! | [`out_of_core`] | External-sorted bulk load + NM-CIJ at data ≥ 4× the buffer: mirror-free residency bound (peak resident ≤ buffer + pinned), `bytes_read == physical_reads × page_size`, backend parity over {heap, file, mmap} |

pub mod cache_sweep;
pub mod concurrent_scale;
pub mod fault_storm;
pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod filter_kernel;
pub mod io_validation;
pub mod kernel_layout;
pub mod multiway_scale;
pub mod out_of_core;
pub mod scaling;
pub mod table2;
pub mod table3;
