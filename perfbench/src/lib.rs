//! The repository benchmark: four seeded workloads driven through the
//! program's public API, end-to-end metrics from an untraced run and
//! per-layer metrics from a separate traced run, with the outputs checked.
//!
//! Run it as `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <name> --seed <n> --seconds <s> --trace <0|1>`; see
//! `perfbench/README.md` for the workloads and what each metric should move.

pub mod checks;
pub mod run;
pub mod sys;
pub mod trace;
pub mod workloads;
