//! Where `BqoOptimizer::optimize` spends its time, phase by phase, for the
//! five query families of the benchmark's `plan-cold` workload.
//!
//! The five phases are the five steps of `BqoOptimizer::optimize`, called here
//! one after the other on one `CostModel` exactly as it calls them; the last
//! two columns time the two optimizers whole. Times are the mean over each
//! family's ten queries × `REPEATS`, in microseconds. They locate a cost
//! inside the optimizer; speed claims are made with `benchmark/` (see
//! `BENCHMARK.json`), never with this table.
//!
//! ```text
//! cargo run --release --example optimizer_phases
//! ```

use bqo_core::optimizer::{
    conventional_tree, optimize_join_graph, prune_low_benefit_filters, DEFAULT_LAMBDA_THRESHOLD,
};
use bqo_core::plan::{push_down_bitvectors, CostModel, JoinGraph, PhysicalPlan};
use bqo_core::workloads::{customer_like, job_like, snowflake, Scale, Workload};
use bqo_core::{BaselineOptimizer, BqoOptimizer, Optimizer};
use std::hint::black_box;
use std::time::Instant;

const SCALE: Scale = Scale(0.01);
const SEED: u64 = 7;
const QUERIES: usize = 10;
const REPEATS: usize = 30;

const COLUMNS: [&str; 7] = [
    "candidates",
    "conventional plan",
    "§6.4 compare",
    "lower + Algorithm 1",
    "λ-pruning",
    "bqo optimize",
    "baseline optimize",
];

/// One pass over the phases of `BqoOptimizer::optimize`, then both optimizers
/// whole; adds each interval, in seconds, to `spent`.
fn time_phases(graph: &JoinGraph, spent: &mut [f64; 7]) {
    let mut started = Instant::now();
    let mut lap = |slot: usize| {
        spent[slot] += started.elapsed().as_secs_f64();
        started = Instant::now();
    };
    let cost_model = CostModel::new(graph);
    let mut tree = optimize_join_graph(graph, &cost_model);
    lap(0);
    let conventional = conventional_tree(graph, &cost_model);
    lap(1);
    let bqo_cost = cost_model.cout(&tree, f64::INFINITY);
    if cost_model.cout(&conventional, bqo_cost) < bqo_cost {
        tree = conventional;
    }
    lap(2);
    let mut plan = push_down_bitvectors(graph, PhysicalPlan::from_join_tree(graph, &tree));
    lap(3);
    prune_low_benefit_filters(&cost_model, &mut plan, DEFAULT_LAMBDA_THRESHOLD);
    lap(4);
    black_box(plan);
    black_box(BqoOptimizer::new().optimize(black_box(graph)));
    lap(5);
    black_box(BaselineOptimizer::new().optimize(black_box(graph)));
    lap(6);
}

fn main() {
    let families: [(&str, Workload); 5] = [
        (
            "snowflake [3,3,3,2]",
            snowflake::generate(SCALE, &[3, 3, 3, 2], QUERIES, SEED),
        ),
        (
            "snowflake [3,3,3,3,2]",
            snowflake::generate(SCALE, &[3, 3, 3, 3, 2], QUERIES, SEED),
        ),
        (
            "snowflake [4,4,3,3,2]",
            snowflake::generate(SCALE, &[4, 4, 3, 3, 2], QUERIES, SEED),
        ),
        ("JOB-like", job_like::generate(SCALE, QUERIES, SEED)),
        (
            "CUSTOMER-like",
            customer_like::generate(SCALE, QUERIES, SEED),
        ),
    ];
    println!(
        "µs per call, mean of {QUERIES} queries x {REPEATS} repeats \
         (scale {}, seed {SEED})\n",
        SCALE.0
    );
    println!("| family | relations | {} |", COLUMNS.join(" | "));
    println!("|---|---|{}", "---|".repeat(COLUMNS.len()));
    let mut pass_total = 0.0;
    for (name, workload) in &families {
        let graphs: Vec<JoinGraph> = workload
            .queries
            .iter()
            .map(|query| {
                query
                    .to_join_graph(&workload.catalog)
                    .expect("generated query resolves")
            })
            .collect();
        let mut spent = [0.0f64; 7];
        for graph in &graphs {
            // One untimed pass warms the allocator and the caches.
            time_phases(graph, &mut [0.0; 7]);
            for _ in 0..REPEATS {
                time_phases(graph, &mut spent);
            }
        }
        let calls = (graphs.len() * REPEATS) as f64;
        let mean_us = spent.map(|seconds| seconds * 1e6 / calls);
        pass_total += mean_us[5] * graphs.len() as f64;
        let relations: Vec<usize> = graphs.iter().map(JoinGraph::num_relations).collect();
        println!(
            "| {name} | {}-{} | {} |",
            relations.iter().min().expect("ten queries"),
            relations.iter().max().expect("ten queries"),
            mean_us.map(|us| format!("{us:.1}")).join(" | ")
        );
    }
    println!(
        "\nΣ `BqoOptimizer::optimize` over the {} queries of one pass: {:.2} ms",
        families.len() * QUERIES,
        pass_total / 1e3
    );
}
