//! Untraced benchmark run: prints the end-to-end metrics.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> [--scratch <dir>]`

#![deny(unsafe_op_in_unsafe_fn)]

fn main() {
    std::process::exit(perfbench::main_with(false));
}
