//! The experiment harness for the paper's evaluation section.
//!
//! Every table and figure of the paper has a corresponding `run_*` function
//! in [`experiments`] returning a plain data structure of deterministic
//! logical-work counters, plus a `render_*` function in [`report`] rendering
//! it the way the paper reports it. The `reproduce` binary is a thin wrapper
//! around these functions; EXPERIMENTS.md records their output next to the
//! paper's numbers. Timing claims (throughput, latency, per-layer rates, with
//! spreads) are not made here: they belong to `benchmark/` (`BENCHMARK.json`).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

/// The items the experiment drivers and cross-crate integration tests all
/// need: re-exported here so downstream targets can depend on `bqo-bench`
/// alone.
pub mod prelude {
    pub use bqo_core::exec::ExecConfig;
    pub use bqo_core::optimizer::exhaustive_best_right_deep;
    pub use bqo_core::plan::{push_down_bitvectors, CostModel, JoinTree, PhysicalPlan};
    pub use bqo_core::workloads::{job_like, Scale};
    pub use bqo_core::{Engine, OptimizerChoice, RunOptions};
}
