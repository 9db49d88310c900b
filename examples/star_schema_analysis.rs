//! Star-schema plan-space analysis (the Section 4 story, hands on).
//!
//! Enumerates *every* right-deep plan without cross products for a star
//! query, costs each with and without bitvector filters, and shows that
//! (a) the plan space is exponential, (b) with bitvector filters the linear
//! candidate set of Theorem 4.1 contains the optimum, and (c) the plan the
//! conventional optimizer picks is no longer optimal once filters are
//! considered.
//!
//! ```text
//! cargo run --release --example star_schema_analysis
//! ```

use bqo_core::optimizer::{candidate_plans, enumerate_right_deep};
use bqo_core::plan::{CostModel, PhysicalPlan};
use bqo_core::workloads::{star, Scale};
use bqo_core::{Engine, OptimizerChoice, RunOptions};

fn main() {
    let num_dims = 5;
    let workload = star::generate(Scale(0.05), num_dims, 1, 2024);
    let engine = Engine::from_catalog(workload.catalog);
    // Hand-build a query with mixed selectivities: dim0 very selective,
    // dim1 unfiltered, the rest in between.
    let query = star::build_query("analysis", num_dims, &[(0, 1), (2, 10), (3, 4), (4, 16)]);
    let graph = query
        .to_join_graph(engine.catalog())
        .expect("query resolves");
    let model = CostModel::new(&graph);

    let plans = enumerate_right_deep(&graph);
    println!(
        "star query with {} relations: {} right-deep plans without cross products",
        graph.num_relations(),
        plans.len()
    );

    let mut best_plain = (f64::INFINITY, None);
    let mut best_bv = (f64::INFINITY, None);
    for plan in &plans {
        let plain = model
            .cout_physical(&PhysicalPlan::from_join_tree(&graph, plan))
            .total;
        let bv = model.cout(plan, f64::INFINITY);
        if plain < best_plain.0 {
            best_plain = (plain, Some(plan.clone()));
        }
        if bv < best_bv.0 {
            best_bv = (bv, Some(plan.clone()));
        }
    }
    let best_plain_plan = best_plain.1.unwrap();
    let best_bv_plan = best_bv.1.unwrap();

    println!("\nbest plan ignoring bitvector filters : {best_plain_plan}");
    println!("  Cout without filters = {:.0}", best_plain.0);
    println!(
        "  Cout after post-processing filters  = {:.0}",
        model.cout(&best_plain_plan, f64::INFINITY)
    );
    println!("\nbest plan accounting for bitvector filters: {best_bv_plan}");
    println!("  bitvector-aware Cout = {:.0}", best_bv.0);

    let candidates = candidate_plans(&graph).expect("star query has a candidate set");
    let candidate_best = candidates
        .iter()
        .map(|p| model.cout(p, f64::INFINITY))
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nTheorem 4.1 candidate set: {} plans (vs {} in the full space); best candidate Cout = {:.0}",
        candidates.len(),
        plans.len(),
        candidate_best
    );
    assert!(candidate_best <= best_bv.0 * (1.0 + 1e-9));

    // Execute both optimizers' choices to see the difference on real data.
    let session = engine.session();
    for choice in [OptimizerChoice::Baseline, OptimizerChoice::Bqo] {
        let stmt = engine.prepare(&query, choice).expect("query prepares");
        let result = session
            .execute(&stmt, RunOptions::new())
            .expect("query executes")
            .result;
        println!(
            "\n{}: estimated Cout {:.0}, joins produced {} tuples, wall time {:.2} ms",
            choice.label(),
            stmt.estimated_cost().total,
            result.metrics.tuples_by_kind(bqo_core::OperatorKind::Join),
            result.metrics.elapsed_secs() * 1e3
        );
    }
}
