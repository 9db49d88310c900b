//! Integration tests for Algorithm 1 semantics at execution time: where the
//! filters land, what they eliminate, and how execution-side numbers line up
//! with the analytical model.

use bqo_core::exec::ExecConfig;
use bqo_core::plan::{push_down_bitvectors, CostModel, JoinTree, PhysicalNode, PhysicalPlan};
use bqo_core::workloads::{star, tpcds_like, Scale};
use bqo_core::{Engine, OptimizerChoice, RunOptions};

/// With exact filters and a star plan whose filters all reach the fact scan,
/// the fact scan's output equals the final join cardinality (the absorption
/// rule, Lemma 3, observed on real data).
#[test]
fn star_fact_scan_output_equals_final_join_cardinality() {
    let catalog = star::build_catalog(Scale(0.05), 3, 5);
    let query = star::build_query("q", 3, &[(0, 2), (1, 5), (2, 10)]);
    let engine = Engine::from_catalog(catalog);
    let graph = query.to_join_graph(engine.catalog()).unwrap();

    let fact = graph.relation_by_name("fact").unwrap();
    let dims: Vec<_> = graph.relation_ids().filter(|&r| r != fact).collect();
    let mut order = vec![fact];
    order.extend(dims);
    let tree = JoinTree::right_deep(&order);
    let plan = push_down_bitvectors(&graph, PhysicalPlan::from_join_tree(&graph, &tree));

    let stmt = engine.prepare_plan(&query.name, graph.clone(), plan.clone());
    let result = engine
        .session()
        .execute(
            &stmt,
            RunOptions::new().with_exec_config(ExecConfig::exact_filters()),
        )
        .unwrap()
        .result;

    // Find the fact scan's recorded output.
    let fact_scan = plan
        .nodes()
        .find_map(|(id, n)| match n {
            PhysicalNode::Scan { relation } if *relation == fact => Some(id),
            _ => None,
        })
        .unwrap();
    let fact_output = result
        .metrics
        .operators
        .iter()
        .find(|o| o.node == fact_scan)
        .unwrap()
        .output_rows;
    assert_eq!(
        fact_output, result.output_rows,
        "with exact filters the reduced fact scan must match the join result"
    );
}

/// The estimated elimination fraction (λ) used by the cost-based filter
/// selection should roughly track the observed elimination rate.
#[test]
fn estimated_lambda_tracks_observed_elimination() {
    let catalog = star::build_catalog(Scale(0.05), 3, 9);
    let query = star::build_query("q", 3, &[(0, 1), (2, 10)]);
    let engine = Engine::from_catalog(catalog);
    let graph = query.to_join_graph(engine.catalog()).unwrap();
    let model = CostModel::new(&graph);

    let prepared = engine
        .prepare(&query, OptimizerChoice::BqoWithThreshold(0.0))
        .unwrap();
    // Execute with exact filters and per-placement accounting: compare the
    // aggregate elimination with the model's per-placement estimates.
    let result = engine
        .session()
        .execute(
            &prepared,
            RunOptions::new().with_exec_config(ExecConfig::exact_filters()),
        )
        .unwrap()
        .result;
    let observed = result.metrics.filter_stats.elimination_rate();

    let estimates = model.estimated_elimination_fractions(prepared.plan());
    let max_estimate = estimates.iter().cloned().fold(0.0f64, f64::max);
    // The strongest filter's estimate should be in the same ballpark as the
    // overall observed elimination (both are dominated by the selective
    // dimension's filter).
    assert!(
        (max_estimate - observed).abs() < 0.35,
        "estimate {max_estimate} vs observed {observed}"
    );
    assert!(
        observed > 0.3,
        "workload should eliminate a lot: {observed}"
    );
}

/// Post-processing an already-optimized baseline plan with Algorithm 1 keeps
/// the result identical but reduces probe-side work.
#[test]
fn postprocessing_reduces_probe_work_without_changing_answers() {
    let workload = tpcds_like::generate(Scale(0.02), 5, 31);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let mut reduced = 0usize;
    for query in &workload.queries {
        let graph = query.to_join_graph(engine.catalog()).unwrap();
        let with = engine.prepare(query, OptimizerChoice::Baseline).unwrap();
        let without_plan = {
            let mut p = with.plan().clone();
            p.placements.clear();
            p
        };
        let without = engine.prepare_plan(&query.name, graph, without_plan);
        let session = engine.session();
        let a = session.execute(&with, RunOptions::new()).unwrap().result;
        let b = session.execute(&without, RunOptions::new()).unwrap().result;
        assert_eq!(a.output_rows, b.output_rows, "{}", query.name);
        if a.metrics.total_probe_rows() < b.metrics.total_probe_rows() {
            reduced += 1;
        }
        assert!(a.metrics.total_probe_rows() <= b.metrics.total_probe_rows());
    }
    assert!(
        reduced >= workload.queries.len() / 2,
        "filters should reduce probe work for most queries ({reduced})"
    );
}

/// Every placement produced by push-down refers to a hash join as its source
/// and to a node inside that join's probe subtree (or the probe subtree's
/// build branches) as its target — never to a node outside the join.
#[test]
fn placements_are_structurally_valid_across_workload_plans() {
    let workload = tpcds_like::generate(Scale(0.01), 10, 77);
    let engine = Engine::from_catalog(workload.catalog.clone());
    for query in &workload.queries {
        for choice in [OptimizerChoice::Baseline, OptimizerChoice::Bqo] {
            let prepared = engine.prepare(query, choice).unwrap();
            let plan = prepared.plan();
            for placement in &plan.placements {
                let source = plan.node(placement.source_join);
                let PhysicalNode::HashJoin { probe, .. } = source else {
                    panic!("{}: placement source is not a join", query.name);
                };
                // The target's relations must be contained in the probe
                // subtree of the source join.
                let probe_rels = plan.relation_set(*probe);
                let target_rels = plan.relation_set(placement.target);
                assert!(
                    target_rels.is_subset(probe_rels),
                    "{}: filter target escapes the probe side",
                    query.name
                );
                // The filter's probe columns must belong to the target.
                for col in &placement.probe_columns {
                    assert!(
                        target_rels.contains(col.relation),
                        "{}: filter column outside its target",
                        query.name
                    );
                }
            }
        }
    }
}
