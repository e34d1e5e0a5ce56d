//! Standalone runner for the multiway-CIJ scaling experiment (probing
//! budgets, planning, thread parity; see
//! [`cij_bench::experiments::multiway_scale`]).

use cij_bench::experiments::multiway_scale;
use cij_bench::Args;

fn main() {
    multiway_scale::run(&Args::capture());
}
