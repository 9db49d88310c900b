//! Baseline join-order optimization: dynamic programming over connected
//! subgraphs (exact, exponential) and a greedy fallback for very large
//! queries.
//!
//! This models the paper's baseline ("the original Microsoft SQL Server"
//! without bitvector-aware join ordering): a cost-based optimizer that
//! minimizes plain `Cout` — the effect of bitvector filters is *not* part of
//! the cost — over bushy trees without cross products.

use bqo_plan::{CostModel, JoinGraph, JoinTree, RelSet};
use std::collections::HashMap;

/// Queries with more relations than this get the greedy tree instead of the
/// exact one: DPsub visits every subset of the relations.
const DP_RELATION_LIMIT: usize = 12;

/// The join tree a conventional optimizer picks: minimum plain `Cout`, exact
/// up to [`DP_RELATION_LIMIT`] relations and greedy beyond.
pub(crate) fn conventional_tree(graph: &JoinGraph, cost_model: &CostModel<'_>) -> JoinTree {
    if graph.num_relations() <= DP_RELATION_LIMIT {
        DpOptimizer::new().best_tree(graph, cost_model)
    } else {
        GreedyOptimizer::new().best_tree(graph, cost_model)
    }
}

/// Exact dynamic-programming optimizer (DPsub over connected subsets).
#[derive(Debug, Clone, Copy, Default)]
pub struct DpOptimizer;

impl DpOptimizer {
    /// Creates the optimizer.
    pub fn new() -> Self {
        DpOptimizer
    }

    /// Finds a minimum-`Cout` bushy join tree without cross products. Cost is
    /// the plain (bitvector-unaware) `Cout`.
    ///
    /// # Panics
    /// Panics if the graph is empty or disconnected (a disconnected query
    /// would need cross products).
    pub fn best_tree(&self, graph: &JoinGraph, cost_model: &CostModel<'_>) -> JoinTree {
        let n = graph.num_relations();
        assert!(n > 0, "cannot optimize an empty join graph");
        assert!(
            graph.is_connected(),
            "disconnected join graphs require cross products, which are not supported"
        );
        assert!(
            n <= 20,
            "DP over {n} relations is infeasible; use GreedyOptimizer"
        );

        let est = cost_model.estimator();
        // best[set] = (cost, tree). Cost is the full Cout of the subplan
        // (base cardinalities + intermediate join results).
        let mut best: HashMap<RelSet, (f64, JoinTree)> = HashMap::new();
        for r in graph.relation_ids() {
            best.insert(RelSet::single(r), (est.base_card(r), JoinTree::Leaf(r)));
        }

        let full = RelSet::first_n(n);
        // Subsets in ascending mask order, so both halves of every split of
        // a set are final before the set itself is visited.
        for set in (1..=full.0).map(RelSet) {
            if set.len() < 2 || !graph.is_connected_subset(set) {
                continue;
            }
            let output = est.join_card(set);
            let mut best_here: Option<(f64, JoinTree)> = None;
            // Every proper subset of `set` as the build side, in descending
            // mask order: each unordered split is seen in both orientations,
            // and both matter for a hash join (build vs probe).
            let mut sub = (set.0 - 1) & set.0;
            while sub > 0 {
                let (build_set, probe_set) = (RelSet(sub), set - RelSet(sub));
                if let (Some((c1, t1)), Some((c2, t2))) =
                    (best.get(&build_set), best.get(&probe_set))
                {
                    if graph.are_joined(build_set, probe_set) {
                        let cost = c1 + c2 + output;
                        if best_here.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
                            best_here = Some((cost, JoinTree::join(t1.clone(), t2.clone())));
                        }
                    }
                }
                sub = (sub - 1) & set.0;
            }
            if let Some(entry) = best_here {
                best.insert(set, entry);
            }
        }
        best.remove(&full)
            .expect("connected graph always has a cross-product-free plan")
            .1
    }
}

/// Greedy optimizer (GOO-style): repeatedly joins the pair of plan fragments
/// with the smallest estimated result, used for queries too large for DP
/// (the CUSTOMER-like workload reaches 80 joins).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyOptimizer;

impl GreedyOptimizer {
    /// Creates the optimizer.
    pub fn new() -> Self {
        GreedyOptimizer
    }

    /// Builds a bushy tree by greedily merging the cheapest connected pair.
    pub fn best_tree(&self, graph: &JoinGraph, cost_model: &CostModel<'_>) -> JoinTree {
        let est = cost_model.estimator();
        assert!(
            graph.num_relations() > 0,
            "cannot optimize an empty join graph"
        );
        let mut fragments: Vec<(RelSet, JoinTree)> = graph
            .relation_ids()
            .map(|r| (RelSet::single(r), JoinTree::Leaf(r)))
            .collect();
        while fragments.len() > 1 {
            let mut best_pair: Option<(usize, usize, f64)> = None;
            for i in 0..fragments.len() {
                for j in i + 1..fragments.len() {
                    if !graph.are_joined(fragments[i].0, fragments[j].0) {
                        continue;
                    }
                    let card = est.join_card(fragments[i].0 | fragments[j].0);
                    if best_pair.map(|(_, _, c)| card < c).unwrap_or(true) {
                        best_pair = Some((i, j, card));
                    }
                }
            }
            let (i, j, _) = best_pair
                .expect("disconnected join graphs require cross products, which are not supported");
            // Keep the smaller side as the hash-join build input.
            let (set_j, tree_j) = fragments.swap_remove(j);
            let (set_i, tree_i) = fragments.swap_remove(i.min(fragments.len()));
            let (build, probe) = if est.join_card(set_i) <= est.join_card(set_j) {
                (tree_i, tree_j)
            } else {
                (tree_j, tree_i)
            };
            fragments.push((set_i | set_j, JoinTree::join(build, probe)));
        }
        fragments.pop().unwrap().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::exhaustive_best_right_deep;
    use bqo_plan::{JoinEdge, RelId, RelationInfo};

    fn star(filters: &[f64]) -> JoinGraph {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        for (i, &sel) in filters.iter().enumerate() {
            let rows = 1000.0;
            let d = g.add_relation(RelationInfo::new(format!("d{i}"), rows, rows * sel));
            g.add_edge(JoinEdge::pkfk(fact, format!("d{i}_sk"), d, "sk", rows));
        }
        g
    }

    fn chain(n: usize) -> JoinGraph {
        let mut g = JoinGraph::new();
        let mut prev = g.add_relation(RelationInfo::new("r0", 200_000.0, 200_000.0));
        for i in 1..n {
            let rows = (200_000.0 / 6f64.powi(i as i32)).max(10.0);
            let r = g.add_relation(RelationInfo::new(format!("r{i}"), rows, rows / 3.0));
            g.add_edge(JoinEdge::pkfk(prev, format!("r{i}_sk"), r, "sk", rows));
            prev = r;
        }
        g
    }

    #[test]
    fn dp_plan_covers_all_relations_without_cross_products() {
        let g = star(&[0.1, 0.5, 1.0, 0.01]);
        let model = CostModel::new(&g);
        let tree = DpOptimizer::new().best_tree(&g, &model);
        assert_eq!(tree.relation_set().len(), 5);
        assert!(tree.has_no_cross_products(&g));
    }

    #[test]
    fn dp_is_at_least_as_good_as_exhaustive_right_deep_without_bitvectors() {
        // The DP searches bushy trees, a superset of right-deep trees, so its
        // plain-Cout optimum can only be better or equal.
        for g in [star(&[0.2, 0.7, 0.05]), chain(5)] {
            let model = CostModel::new(&g);
            let dp_tree = DpOptimizer::new().best_tree(&g, &model);
            let dp_cost = model.cout_join_tree(&dp_tree, false).total;
            let (_, rd_cost) = exhaustive_best_right_deep(&g, &model, false).unwrap();
            assert!(dp_cost <= rd_cost + 1e-6, "dp {dp_cost} vs rd {rd_cost}");
        }
    }

    #[test]
    fn greedy_plan_is_valid_and_close_to_dp_on_small_graphs() {
        let g = star(&[0.1, 0.5, 1.0, 0.01, 0.3]);
        let model = CostModel::new(&g);
        let greedy = GreedyOptimizer::new().best_tree(&g, &model);
        assert_eq!(greedy.relation_set().len(), 6);
        assert!(greedy.has_no_cross_products(&g));
        let dp = DpOptimizer::new().best_tree(&g, &model);
        let greedy_cost = model.cout_join_tree(&greedy, false).total;
        let dp_cost = model.cout_join_tree(&dp, false).total;
        assert!(greedy_cost >= dp_cost - 1e-6);
        assert!(
            greedy_cost <= dp_cost * 3.0,
            "greedy should be within 3x of optimal on a star: {greedy_cost} vs {dp_cost}"
        );
    }

    #[test]
    fn greedy_handles_large_chain() {
        let g = chain(30);
        let model = CostModel::new(&g);
        let tree = GreedyOptimizer::new().best_tree(&g, &model);
        assert_eq!(tree.relation_set().len(), 30);
        assert!(tree.has_no_cross_products(&g));
    }

    #[test]
    fn single_relation_graphs() {
        let mut g = JoinGraph::new();
        g.add_relation(RelationInfo::new("only", 42.0, 42.0));
        let model = CostModel::new(&g);
        assert_eq!(
            DpOptimizer::new().best_tree(&g, &model),
            JoinTree::Leaf(RelId(0))
        );
        assert_eq!(
            GreedyOptimizer::new().best_tree(&g, &model),
            JoinTree::Leaf(RelId(0))
        );
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn dp_rejects_disconnected_graphs() {
        let mut g = JoinGraph::new();
        g.add_relation(RelationInfo::new("a", 10.0, 10.0));
        g.add_relation(RelationInfo::new("b", 10.0, 10.0));
        let model = CostModel::new(&g);
        DpOptimizer::new().best_tree(&g, &model);
    }

    #[test]
    fn two_relation_join_builds_from_smaller_side_in_greedy() {
        let mut g = JoinGraph::new();
        let big = g.add_relation(RelationInfo::new("big", 100_000.0, 100_000.0));
        let small = g.add_relation(RelationInfo::new("small", 100.0, 10.0));
        g.add_edge(JoinEdge::pkfk(big, "s_sk", small, "sk", 100.0));
        let model = CostModel::new(&g);
        let tree = GreedyOptimizer::new().best_tree(&g, &model);
        match tree {
            JoinTree::Join { build, .. } => assert_eq!(*build, JoinTree::Leaf(small)),
            _ => panic!("expected a join"),
        }
    }
}
