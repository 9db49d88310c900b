//! A "dashboard refresh" over a snowflake warehouse: a dozen snowflake
//! aggregate queries run under the baseline and the bitvector-aware
//! optimizer, reported the way the paper's Figures 8–10 report a workload.
//!
//! ```text
//! cargo run --release -p bqo-bench --example snowflake_dashboard
//! ```

use bqo_bench::experiments::run_workload;
use bqo_bench::report::{render_figure10, render_figure8, render_figure9};
use bqo_core::workloads::{snowflake, Scale};

fn main() {
    // fact -> 4 branches of depth 1..3, a dozen dashboard tiles (queries).
    let workload = snowflake::generate(Scale(0.2), &[1, 2, 2, 3], 12, 99);
    println!("workload: {}\n", workload.stats());
    let reports = [run_workload(&workload).expect("workload runs")];
    print!("{}", render_figure8(&reports));
    print!("{}", render_figure9(&reports));
    print!("{}", render_figure10(&reports, workload.queries.len()));
}
