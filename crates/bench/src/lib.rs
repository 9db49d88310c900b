//! Experiment drivers for the paper's evaluation section.
//!
//! Every table and figure of the paper has a corresponding `run_*` function
//! here returning a plain data structure of deterministic logical-work
//! counters, plus a `render_*` function rendering it the way the paper
//! reports it. The `reproduce` binary is a thin wrapper around these
//! functions; EXPERIMENTS.md records their output next to the paper's
//! numbers. Timing claims (throughput, latency, per-layer rates, with
//! spreads) are not made here: they belong to `benchmark/` (`BENCHMARK.json`).

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod report;

use bqo_core::workloads::Scale;

/// The items the experiment drivers and cross-crate integration tests all
/// need: re-exported here so downstream targets can depend on `bqo-bench`
/// alone.
pub mod prelude {
    pub use bqo_core::exec::ExecConfig;
    pub use bqo_core::optimizer::exhaustive_best_right_deep;
    pub use bqo_core::plan::{push_down_bitvectors, CostModel, PhysicalPlan, RightDeepTree};
    pub use bqo_core::workloads::{job_like, Scale};
    pub use bqo_core::{Engine, OptimizerChoice, RunOptions};
}

/// Default scale factor for benchmark workloads. Override with the
/// `BQO_SCALE` environment variable (e.g. `BQO_SCALE=0.05` for a quick run,
/// `1.0` for the full-size synthetic databases).
pub fn default_scale() -> Scale {
    match std::env::var("BQO_SCALE") {
        Ok(v) => Scale(v.parse().unwrap_or(0.25)),
        Err(_) => Scale(0.25),
    }
}

/// Number of queries per workload used by the workload-level experiments.
/// Override with `BQO_QUERIES`.
pub fn default_query_count() -> usize {
    match std::env::var("BQO_QUERIES") {
        Ok(v) => v.parse().unwrap_or(30),
        Err(_) => 30,
    }
}
