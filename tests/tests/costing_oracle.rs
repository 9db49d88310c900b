//! The cheap costing paths against the reference paths, bit for bit, on every
//! query of the eight `plan_golden` workloads.
//!
//! `CostModel::cout` costs a candidate in the tree it was built in, on
//! relation sets alone, and shares one `join_card` memo with every other
//! estimate of the same optimizer call; the reference lowers the tree, runs
//! Algorithm 1 and costs the physical plan on a cost model of its own (so
//! nothing it reads was remembered by the path under test). Algorithm
//! 2 stops costing a candidate once its running sum reaches the least cost so
//! far; the reference costs every candidate in full and keeps the first
//! cheapest. `prune_low_benefit_filters` computes the effective sets once; the
//! reference asks for one λ at a time.

use bqo_core::optimizer::{
    conventional_tree, extract_snowflakes, for_each_snowflake_candidate, optimize_join_graph,
    optimize_snowflake, prune_low_benefit_filters, DEFAULT_LAMBDA_THRESHOLD,
};
use bqo_core::plan::{
    push_down_bitvectors, CostModel, JoinGraph, JoinNode, JoinTree, PhysicalPlan,
};
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

/// True when `tree` is neither right-deep nor left-deep (every probe side a
/// leaf).
fn is_bushy(tree: &JoinTree) -> bool {
    let mut node = tree.root();
    while let JoinNode::Join { build, probe } = tree.node(node) {
        if matches!(tree.node(probe), JoinNode::Join { .. }) {
            return tree.right_deep_order().is_none();
        }
        node = build;
    }
    false
}

#[test]
fn every_costed_tree_gets_the_reference_total() {
    let (mut candidates, mut stopped, mut bushy) = (0usize, 0usize, 0usize);
    for_each_graph(|query, graph| {
        let model = CostModel::new(graph);
        let check = |tree: &JoinTree, fast: f64| {
            let reference = CostModel::new(graph).cout_physical(&lowered(graph, tree));
            assert_eq!(
                fast.to_bits(),
                reference.total.to_bits(),
                "{query}: {fast} vs {} for {tree}",
                reference.total
            );
        };
        // Every candidate Algorithm 2 costs, for every snowflake Algorithm 3
        // extracts: in full, and bounded by the least full cost before it.
        for (fact, members) in extract_snowflakes(graph, &model) {
            let mut least: Option<(f64, JoinTree)> = None;
            for_each_snowflake_candidate(graph, &model, members, fact, |tree| {
                let full = model.cout(tree, f64::INFINITY);
                check(tree, full);
                let bound = least.as_ref().map_or(f64::INFINITY, |(cost, _)| *cost);
                let bounded = model.cout(tree, bound);
                if full < bound {
                    assert_eq!(bounded.to_bits(), full.to_bits(), "{query}: {tree}");
                    least = Some((full, tree.clone()));
                } else {
                    assert!(bounded >= bound, "{query}: {bounded} < {bound} for {tree}");
                    stopped += usize::from(bounded != full);
                }
                candidates += 1;
            });
            // The early-stopping search keeps the first cheapest candidate.
            let (_, winner) = least.expect("the fact-first candidate always exists");
            assert_eq!(
                optimize_snowflake(graph, &model, members, fact),
                winner,
                "{query}: snowflake of {fact}"
            );
        }
        // The two trees the Section 6.4 comparison costs; the conventional
        // one is bushy wherever that is cheaper.
        let bqo = optimize_join_graph(graph, &model);
        check(&bqo, model.cout(&bqo, f64::INFINITY));
        let conventional = conventional_tree(graph, &model);
        check(&conventional, model.cout(&conventional, f64::INFINITY));
        bushy += usize::from(is_bushy(&conventional));
    });
    assert!(candidates > 1500, "only {candidates} candidates costed");
    assert!(stopped > 0, "no candidate was ever cut short");
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
                let reference = CostModel::new(graph).estimated_elimination_fractions(&plan);
                let expected: Vec<_> = (0..plan.placements.len())
                    .filter(|&i| reference[i] >= lambda)
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
