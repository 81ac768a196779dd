//! Decomposition-path benchmark runner; see
//! `tl_bench::experiments::decompose`.
//!
//! Runs the fixed acceptance fixture (XMark scale 8000, seed 42, 30
//! queries per size, k 4) so the committed `BENCH_decompose.json` always
//! describes the same workload, regardless of which machine produced it.

fn main() {
    tl_bench::experiments::decompose::run(&tl_bench::experiments::decompose::bench_config());
}
