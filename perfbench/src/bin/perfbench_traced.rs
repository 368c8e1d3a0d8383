//! Traced benchmark run: records spans around every layer call, counts
//! allocations, and prints the per-layer metrics.
//!
//! `perfbench_traced --workload <name> --seed <n> --seconds <s> [--scratch <dir>]`

#![deny(unsafe_op_in_unsafe_fn)]

#[global_allocator]
static GLOBAL: bds_par::CountingAlloc = bds_par::CountingAlloc;

fn main() {
    std::process::exit(perfbench::main_with(true));
}
