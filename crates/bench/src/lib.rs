//! Experiment harness for the paper reproduction.
//!
//! The paper contains no numbered tables or figures (it is purely analytical),
//! so `crates/bench/src/experiments/` defines ten experiments E1–E10, each reifying one
//! quantitative claim of the text. This crate implements every experiment as a
//! library function returning a [`geogossip_analysis::Table`] plus a small
//! summary, lists them in [`experiments::EXPERIMENTS`], and exposes one
//! binary that runs any one of them or all of them
//! (`cargo run --release -p geogossip-bench --bin all_experiments -- e4 smoke`).
//!
//! Every experiment accepts a [`Scale`] so that the same code path backs
//! three uses:
//!
//! * [`Scale::Smoke`] — seconds; used by the test-suite to keep the harness
//!   honest,
//! * [`Scale::Quick`] — a few minutes; the default for the binary,
//! * [`Scale::Full`] — the experiments' full-size runs.
//!
//! Performance is measured by the separate `perfbench/` workspace declared
//! in `BENCHMARK.json`, not by this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod workload;

pub use experiments::{ExperimentOutput, Scale};
