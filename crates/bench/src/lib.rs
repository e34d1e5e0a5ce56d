//! # cij-bench
//!
//! The experiment harness of the CIJ reproduction: one module per table /
//! figure of the paper's evaluation (Section V), each printing the same rows
//! or series the paper reports. The `src/bin/*` binaries are thin wrappers
//! around these modules so that every experiment can be run individually
//! (`cargo run --release -p cij-bench --bin fig7_breakdown -- --scale 1.0`)
//! or all together (`--bin run_all`).
//!
//! Absolute numbers differ from the paper (different hardware, Rust instead
//! of C++, synthetic stand-ins for the USGS datasets, scaled-down default
//! sizes), but the *shape* of every result — which algorithm wins, by what
//! factor, how curves move with each parameter — is what the harness
//! reproduces. EXPERIMENTS.md records paper-vs-measured values.
//!
//! # The persisted bench trajectory (`BENCH_<n>.json`)
//!
//! `run_all --json` captures every table any experiment prints (the
//! [`report`] sink mirrors [`util::print_header`] / [`util::print_row`] —
//! all experiments share the one writer) and persists the run as
//! `BENCH_<n>.json` at the repository root, where `n` is the PR number
//! (`--bench-id <n>`, required with `--json`). One snapshot is committed
//! per PR that touches performance, so the repo history carries a
//! machine-readable trajectory of the harness results alongside the code
//! that produced them.
//!
//! The schema maps each experiment to rows of named metrics:
//!
//! ```json
//! {
//!   "bench_id": 6,
//!   "experiments": [
//!     {
//!       "experiment": "NM-CIJ filter kernels, clustered |P| = |Q| = 2000",
//!       "columns": ["kernel", "wall (s)", "page accesses", "..."],
//!       "rows": [
//!         {"kernel": "indexed", "wall (s)": 0.103, "page accesses": 3187}
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Cells that parse as finite numbers are emitted as JSON numbers (so
//! trajectory tooling can chart them directly); everything else is a
//! string. Row objects are keyed by the printed column names, in column
//! order.
//!
//! # Allocation accounting
//!
//! The crate installs [`CountingAlloc`] — a zero-overhead-when-idle wrapper
//! over the system allocator that counts heap allocations — as the global
//! allocator of every bench binary. [`allocations`] reads the process-wide
//! count; the `kernel_layout` experiment uses deltas of it to gate the SoA
//! layout's "measurably less work" contract.
//!
//! Relaxed-consistency contract: `ALLOCATIONS` is a single monotone
//! counter with no other shared state ordered against it. Increments use
//! `Ordering::Relaxed` because only the counter's own modification order
//! matters — [`allocations`] deltas are taken around single-threaded
//! regions, where program order alone fixes the observed values, and any
//! concurrent allocator traffic is measurement noise by definition, not a
//! synchronization edge.

#![warn(clippy::all)]

pub mod experiments;
pub mod report;
pub mod util;

pub use util::{flag, paper_config, scaled, Args};

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations performed by the process so far (monotone counter).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed global allocator that counts every allocation
/// (`alloc`, `alloc_zeroed` and growth-`realloc`s) with one relaxed atomic
/// increment. Installed as the crate's `#[global_allocator]`, so any binary
/// or test linking `cij-bench` measures allocation work for free via
/// [`allocations`] deltas.
pub struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter has
// no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (valid layout);
    // we pass it through to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller guarantees `ptr` was allocated by this allocator with
    // `layout` — which means by `System`, the only allocator we delegate to.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same pass-through contract as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller guarantees `ptr`/`layout` came from this allocator and
    // `new_size` is valid per `GlobalAlloc::realloc`; delegated to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Total heap allocations of the process so far. Take a delta around a
/// region of interest; single-threaded regions give exact per-run counts.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn allocation_counter_advances_on_heap_use() {
        let before = super::allocations();
        let v: Vec<u64> = (0..1024).collect();
        assert!(v.len() == 1024);
        assert!(
            super::allocations() > before,
            "allocating a Vec must advance the counter"
        );
    }
}
