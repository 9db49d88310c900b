//! The cheap costing paths against the reference paths, bit for bit, on every
//! query of the eight `plan_golden` workloads.
//!
//! `CostModel::cout_with_bitvectors` costs a candidate on relation sets alone
//! and shares one `join_card` memo with every other estimate of the same
//! optimizer call; the reference lowers the tree, runs Algorithm 1 and costs
//! the physical plan on a cost model of its own (so nothing it reads was
//! remembered by the path under test). `prune_low_benefit_filters` computes
//! the effective sets once; the reference asks for one λ at a time.

use bqo_core::optimizer::{
    conventional_tree, extract_snowflakes, for_each_snowflake_candidate, optimize_join_graph,
    prune_low_benefit_filters, DEFAULT_LAMBDA_THRESHOLD,
};
use bqo_core::plan::{push_down_bitvectors, CostModel, JoinGraph, JoinTree, PhysicalPlan};
use bqo_core::workloads::{customer_like, job_like, snowflake, star, tpcds_like, Scale, Workload};

const SCALE: Scale = Scale(0.01);
const SEED: u64 = 7;

/// The workloads of `plan_golden.rs`.
fn workloads() -> Vec<(&'static str, Workload)> {
    let snowflake = |branches: &[usize]| snowflake::generate(SCALE, branches, 10, SEED);
    vec![
        ("star6", star::generate(SCALE, 6, 10, SEED)),
        ("snowflake_1_2_3", snowflake(&[1, 2, 3])),
        ("snowflake_3_3_3_2", snowflake(&[3, 3, 3, 2])),
        ("snowflake_3_3_3_3_2", snowflake(&[3, 3, 3, 3, 2])),
        ("snowflake_4_4_3_3_2", snowflake(&[4, 4, 3, 3, 2])),
        ("tpcds_like", tpcds_like::generate(SCALE, 30, SEED)),
        ("job_like", job_like::generate(SCALE, 30, SEED)),
        ("customer_like", customer_like::generate(SCALE, 30, SEED)),
    ]
}

fn for_each_graph(mut check: impl FnMut(&str, &JoinGraph)) {
    for (name, workload) in workloads() {
        for query in &workload.queries {
            let graph = query
                .to_join_graph(&workload.catalog)
                .unwrap_or_else(|e| panic!("{name} {}: {e}", query.name));
            check(&format!("{name} {}", query.name), &graph);
        }
    }
}

fn lowered(graph: &JoinGraph, tree: &JoinTree) -> PhysicalPlan {
    push_down_bitvectors(graph, PhysicalPlan::from_join_tree(graph, tree))
}

#[test]
fn every_costed_tree_gets_the_reference_total() {
    let (mut candidates, mut bushy) = (0usize, 0usize);
    for_each_graph(|query, graph| {
        let model = CostModel::new(graph);
        let check = |tree: &JoinTree| {
            let fast = model.cout_with_bitvectors(tree);
            let reference = CostModel::new(graph).cout_physical(&lowered(graph, tree));
            assert_eq!(
                fast.to_bits(),
                reference.total.to_bits(),
                "{query}: {fast} vs {} for {tree}",
                reference.total
            );
        };
        // Every candidate Algorithm 2 costs, for every snowflake Algorithm 3
        // extracts.
        for (fact, members) in extract_snowflakes(graph, &model) {
            for_each_snowflake_candidate(graph, &model, members, fact, |tree| {
                check(&tree);
                candidates += 1;
            });
        }
        // The two trees the Section 6.4 comparison costs; the conventional
        // one is bushy wherever that is cheaper.
        check(&optimize_join_graph(graph, &model));
        let conventional = conventional_tree(graph, &model);
        check(&conventional);
        bushy += usize::from(!conventional.is_right_deep() && !conventional.is_left_deep());
    });
    assert!(candidates > 1500, "only {candidates} candidates costed");
    assert!(bushy > 0, "no bushy conventional tree among the workloads");
}

#[test]
fn pruning_keeps_what_the_one_at_a_time_estimate_selects() {
    let mut dropped = 0;
    for_each_graph(|query, graph| {
        let model = CostModel::new(graph);
        for tree in [
            optimize_join_graph(graph, &model),
            conventional_tree(graph, &model),
        ] {
            let plan = lowered(graph, &tree);
            for lambda in [DEFAULT_LAMBDA_THRESHOLD, 0.5] {
                let reference = CostModel::new(graph);
                let expected: Vec<_> = (0..plan.placements.len())
                    .filter(|&i| reference.estimated_elimination_fraction(&plan, i) >= lambda)
                    .map(|i| plan.placements[i].clone())
                    .collect();
                let mut pruned = plan.clone();
                dropped += prune_low_benefit_filters(&model, &mut pruned, lambda);
                assert_eq!(pruned.placements, expected, "{query}, λ = {lambda}");
            }
        }
    });
    assert!(dropped > 0, "no placement was ever pruned");
}
