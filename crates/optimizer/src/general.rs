//! Algorithm 3: bitvector-aware join ordering for arbitrary decision support
//! queries (multiple fact tables, arbitrary join graphs).
//!
//! The algorithm alternates two stages until the whole join graph is covered:
//!
//! 1. **Snowflake extraction** — among the not-yet-optimized fact tables pick
//!    the one with the smallest cardinality and expand it into a snowflake:
//!    the fact plus every dimension (and dimension-of-dimension) reachable
//!    through PKFK edges pointing away from it that has not been claimed by a
//!    previously extracted snowflake.
//! 2. **Snowflake optimization** — run Algorithm 2 on the extracted subgraph.
//!
//! The optimized snowflakes are then stitched together into one plan: the
//! snowflake of the smallest fact forms the probe pipeline bottom and each
//! subsequent snowflake (in extraction order) joins onto it, preserving the
//! right-deep-flavoured shape the paper's plan space favours.

use crate::snowflake::optimize_snowflake;
use bqo_plan::{CostModel, JoinGraph, JoinTree, RelId, RelSet};

/// Stage 1 of Algorithm 3: assigns every relation to the snowflake of exactly
/// one fact table. Returns `(fact, members)` in extraction order (smallest
/// fact first).
///
/// # Panics
/// Panics if the graph is empty or disconnected.
pub fn extract_snowflakes(graph: &JoinGraph, cost_model: &CostModel<'_>) -> Vec<(RelId, RelSet)> {
    let est = cost_model.estimator();
    let mut facts = graph.fact_tables();
    if facts.is_empty() {
        // Degenerate graphs (e.g. every relation is joined on its key by
        // someone): treat the largest relation as the fact.
        let largest = graph
            .relation_ids()
            .max_by(|a, b| est.base_card(*a).total_cmp(&est.base_card(*b)))
            .expect("cannot optimize an empty join graph");
        facts.push(largest);
    }
    // Smallest fact first (ExtractSnowflake, line 9).
    facts.sort_by(|a, b| est.base_card(*a).total_cmp(&est.base_card(*b)));

    let mut claimed: RelSet = facts.iter().copied().collect();
    let mut snowflakes: Vec<(RelId, RelSet)> = Vec::new();
    for &fact in &facts {
        let members = expand_snowflake(graph, fact, claimed);
        claimed = claimed | members;
        snowflakes.push((fact, members));
    }
    // Relations still unclaimed (not reachable through PKFK edges from any
    // fact, e.g. a detached dimension joined on a non-key column) join the
    // first snowflake they are adjacent to, in id order, in as many rounds as
    // it takes: every snowflake stays connected through its fact.
    let mut unclaimed = RelSet::first_n(graph.num_relations()) - claimed;
    while !unclaimed.is_empty() {
        let before = unclaimed;
        for rel in before.iter() {
            let mut sets = snowflakes.iter_mut().map(|(_, members)| members);
            if let Some(members) = sets.find(|set| graph.neighbors(rel).intersects(**set)) {
                members.insert(rel);
                unclaimed.remove(rel);
            }
        }
        assert!(
            unclaimed != before,
            "disconnected join graphs require cross products, which are not supported"
        );
    }
    snowflakes
}

/// Produces a bitvector-aware join tree for an arbitrary join graph.
///
/// # Panics
/// Panics if the graph is empty or disconnected, or (failing closed) if the
/// tree would leave out a relation.
pub fn optimize_join_graph(graph: &JoinGraph, cost_model: &CostModel<'_>) -> JoinTree {
    assert!(
        graph.num_relations() > 0,
        "cannot optimize an empty join graph"
    );
    if graph.num_relations() == 1 {
        return JoinTree::leaf(RelId(0));
    }

    let est = cost_model.estimator();
    let snowflakes = extract_snowflakes(graph, cost_model);

    // Optimize each snowflake with Algorithm 2.
    let mut optimized: Vec<JoinTree> = snowflakes
        .iter()
        .map(|&(fact, members)| optimize_snowflake(graph, cost_model, members, fact))
        .collect();

    // Stitch the snowflake subplans together. Start from the first snowflake
    // and repeatedly attach a subplan that shares a join edge with what has
    // been assembled so far (there is always one while the graph is
    // connected). The already-assembled part stays on the probe side so its
    // filters keep flowing downwards.
    let mut assembled = optimized.remove(0);
    while !optimized.is_empty() {
        let next_idx = optimized
            .iter()
            .position(|tree| graph.are_joined(assembled.relation_set(), tree.relation_set()))
            .unwrap_or(0);
        let tree = optimized.remove(next_idx);
        // Keep the smaller side as the build input.
        let assembled_card = est.join_card(assembled.relation_set());
        assembled = if est.join_card(tree.relation_set()) <= assembled_card {
            JoinTree::join(tree, assembled)
        } else {
            JoinTree::join(assembled, tree)
        };
    }
    assert_eq!(
        assembled.relation_set(),
        RelSet::first_n(graph.num_relations()),
        "Algorithm 3 must join every relation of the query"
    );
    assembled
}

/// Expands a fact table into its snowflake: follow PKFK edges pointing away
/// from the already-included relations, never claiming another fact table or
/// a relation already claimed by an earlier snowflake.
fn expand_snowflake(graph: &JoinGraph, fact: RelId, claimed: RelSet) -> RelSet {
    let mut members = RelSet::single(fact);
    let mut frontier = vec![fact];
    while let Some(current) = frontier.pop() {
        for edge in graph.edges_of(current) {
            let other = edge.other(current);
            if members.contains(other) || claimed.contains(other) {
                continue;
            }
            // Follow the edge only if it points outwards (the join column is
            // a key of `other`): that is what makes `other` a dimension of
            // this snowflake.
            if edge.unique_on(other) {
                members.insert(other);
                frontier.push(other);
            }
        }
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::exhaustive_best_right_deep;
    use crate::{BqoOptimizer, Optimizer};
    use bqo_plan::{JoinEdge, RelationInfo};
    use proptest::prelude::*;

    /// Single-fact snowflake — Algorithm 3 must behave exactly like
    /// Algorithm 2.
    fn single_fact() -> JoinGraph {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        let d1 = g.add_relation(RelationInfo::new("d1", 1000.0, 10.0));
        let d2 = g.add_relation(RelationInfo::new("d2", 5000.0, 5000.0));
        let d21 = g.add_relation(RelationInfo::new("d21", 50.0, 5.0));
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 1000.0));
        g.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 5000.0));
        g.add_edge(JoinEdge::pkfk(d2, "d21_sk", d21, "sk", 50.0));
        g
    }

    /// Two fact tables sharing one dimension plus private dimensions; the
    /// facts join each other on a non-key column (a JOB-style shape).
    fn multi_fact() -> JoinGraph {
        let mut g = JoinGraph::new();
        let f1 = g.add_relation(RelationInfo::new("f1", 800_000.0, 800_000.0));
        let f2 = g.add_relation(RelationInfo::new("f2", 300_000.0, 300_000.0));
        let shared = g.add_relation(RelationInfo::new("shared_dim", 2000.0, 100.0));
        let d1 = g.add_relation(RelationInfo::new("f1_dim", 500.0, 50.0));
        let d2 = g.add_relation(RelationInfo::new("f2_dim", 800.0, 800.0));
        g.add_edge(JoinEdge::pkfk(f1, "shared_sk", shared, "sk", 2000.0));
        g.add_edge(JoinEdge::pkfk(f2, "shared_sk", shared, "sk", 2000.0));
        g.add_edge(JoinEdge::pkfk(f1, "d1_sk", d1, "sk", 500.0));
        g.add_edge(JoinEdge::pkfk(f2, "d2_sk", d2, "sk", 800.0));
        g.add_edge(JoinEdge::new(
            f1, f2, "mid", "mid", 50_000.0, 50_000.0, false, false,
        ));
        g
    }

    #[test]
    fn single_fact_snowflake_matches_exhaustive_optimum() {
        let g = single_fact();
        assert!(g.clean_snowflake().is_some());
        let model = CostModel::new(&g);
        let tree = optimize_join_graph(&g, &model);
        assert!(tree.has_no_cross_products(&g));
        let cost = model.cout(&tree, f64::INFINITY);
        let (_, best) = exhaustive_best_right_deep(&g, &model, true).unwrap();
        assert!(cost <= best * (1.0 + 1e-9) + 1e-6, "{cost} vs {best}");
    }

    #[test]
    fn multi_fact_graph_produces_complete_valid_plan() {
        let g = multi_fact();
        assert_eq!(g.fact_tables().len(), 2);
        let model = CostModel::new(&g);
        let tree = optimize_join_graph(&g, &model);
        assert_eq!(tree.relation_set().len(), 5);
        assert!(tree.has_no_cross_products(&g));
    }

    #[test]
    fn multi_fact_plan_is_competitive_with_exhaustive_right_deep() {
        let g = multi_fact();
        let model = CostModel::new(&g);
        let tree = optimize_join_graph(&g, &model);
        let cost = model.cout(&tree, f64::INFINITY);
        let (_, best) = exhaustive_best_right_deep(&g, &model, true).unwrap();
        // Algorithm 3 is a heuristic; it should stay within a small factor of
        // the exhaustive right-deep optimum on this 5-relation query.
        assert!(
            cost <= best * 3.0,
            "algorithm 3 produced {cost}, exhaustive best is {best}"
        );
    }

    #[test]
    fn snowflake_expansion_claims_dimension_chains_but_not_other_facts() {
        let g = multi_fact();
        let f2 = g.relation_by_name("f2").unwrap();
        let f1 = g.relation_by_name("f1").unwrap();
        let shared = g.relation_by_name("shared_dim").unwrap();
        let d2 = g.relation_by_name("f2_dim").unwrap();
        let claimed: RelSet = [f1, f2].into_iter().collect();
        let members = expand_snowflake(&g, f2, claimed);
        assert!(members.contains(f2));
        assert!(members.contains(shared));
        assert!(members.contains(d2));
        assert!(!members.contains(f1));
    }

    #[test]
    fn dimension_only_graph_still_optimizes() {
        // A graph where every relation is someone's key side: no fact table
        // according to the Section 6.2 rule; the largest relation is used.
        let mut g = JoinGraph::new();
        let a = g.add_relation(RelationInfo::new("a", 1000.0, 1000.0));
        let b = g.add_relation(RelationInfo::new("b", 100.0, 50.0));
        g.add_edge(JoinEdge::new(
            a, b, "id", "a_id", 1000.0, 100.0, true, false,
        ));
        let model = CostModel::new(&g);
        let tree = optimize_join_graph(&g, &model);
        assert_eq!(tree.relation_set().len(), 2);
    }

    #[test]
    fn single_relation_graph() {
        let mut g = JoinGraph::new();
        g.add_relation(RelationInfo::new("only", 5.0, 5.0));
        let model = CostModel::new(&g);
        assert_eq!(optimize_join_graph(&g, &model), JoinTree::leaf(RelId(0)));
    }

    /// A connected graph: relation `i > 0` joins relation `parents[i] % i`,
    /// and each `extra` pair adds a cycle. Every edge is a key on either side
    /// at random (`flags` bit 0 left, bit 1 right), so graphs with several
    /// facts, with none, and with relations no fact reaches through keys are
    /// all common.
    fn random_graph(
        rels: &[(usize, usize)],
        parents: &[(usize, u8)],
        extra: &[(usize, usize, u8)],
    ) -> JoinGraph {
        const ROWS: [f64; 4] = [10.0, 1000.0, 100_000.0, 1_000_000.0];
        const KEEP: [f64; 3] = [1.0, 0.5, 0.01];
        let mut g = JoinGraph::new();
        for (i, &(rows, keep)) in rels.iter().enumerate() {
            let rows = ROWS[rows % 4];
            g.add_relation(RelationInfo::new(
                format!("r{i}"),
                rows,
                rows * KEEP[keep % 3],
            ));
        }
        let n = rels.len();
        let edges = (1..n)
            .map(|i| (parents[i].0 % i, i, parents[i].1))
            .chain(extra.iter().map(|&(a, b, flags)| (a % n, b % n, flags)))
            .filter(|&(a, b, _)| a != b);
        for (k, (a, b, flags)) in edges.enumerate() {
            let (left, right) = (RelId(a), RelId(b));
            let (left_unique, right_unique) = (flags & 1 != 0, flags & 2 != 0);
            let distinct = |rel: RelId, unique: bool| {
                let rows = g.relation(rel).base_rows;
                if unique {
                    rows
                } else {
                    (rows / 10.0).max(1.0)
                }
            };
            let edge = JoinEdge::new(
                left,
                right,
                format!("c{k}"),
                format!("c{k}"),
                distinct(left, left_unique),
                distinct(right, right_unique),
                left_unique,
                right_unique,
            );
            g.add_edge(edge);
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Algorithm 3 and the whole BQO optimizer join every relation of a
        /// connected query, without a cross product.
        #[test]
        fn plans_cover_every_relation_without_cross_products(
            rels in prop::collection::vec((0usize..4, 0usize..3), 2..11),
            parents in prop::collection::vec((0usize..1000, 0u8..4), 10..11),
            extra in prop::collection::vec((0usize..10, 0usize..10, 0u8..4), 0..3),
        ) {
            let g = random_graph(&rels, &parents, &extra);
            let all = RelSet::first_n(g.num_relations());
            let model = CostModel::new(&g);
            let tree = optimize_join_graph(&g, &model);
            prop_assert_eq!(tree.relation_set(), all);
            prop_assert!(tree.has_no_cross_products(&g), "{}", tree);
            let plan = BqoOptimizer::new().optimize(&g);
            prop_assert_eq!(plan.relation_set(plan.root()), all);
            prop_assert_eq!(plan.num_joins() + 1, g.num_relations());
        }
    }
}
