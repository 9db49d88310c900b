//! The `Cout` cost model (Eq. 1 of the paper), bitvector-aware.
//!
//! `Cout` sums the cardinalities of every base table (after local predicates
//! and any bitvector filters pushed down to its scan) and every intermediate
//! join result. Two entry points cover the paper's three situations:
//!
//! * [`CostModel::cout`] — the bitvector-aware `Cout` of a [`JoinTree`],
//!   with Algorithm 1's filters routed down it on relation sets alone: what
//!   the BQO algorithm minimizes over its candidate right-deep trees
//!   (Figure 2d) and what the Section 6.4 comparison reads. A bound lets a
//!   search stop costing a candidate once it cannot win.
//! * [`CostModel::cout_physical`] — the `Cout` of a physical plan under
//!   whatever filter placements it carries: none gives plain `Cout`, what a
//!   conventional optimizer minimizes (the paper's baseline costing);
//!   Algorithm 1 run on a plan chosen without considering filters gives the
//!   post-processing treatment (Figure 2c). For a tree this is the
//!   reference `cout` is tested against, bit for bit.
//!
//! Estimated cardinalities come from [`CardinalityEstimator`]; the reduction
//! of a scan or join output by pushed-down filters uses the no-false-positive
//! semi-join semantics of Section 3.2.

use crate::estimator::{semi_reduce, CardinalityEstimator};
use crate::graph::JoinGraph;
use crate::physical::{NodeId, PhysicalNode, PhysicalPlan};
use crate::relset::RelSet;
use crate::tree::{Entry, JoinTree};
use std::cell::RefCell;

/// Per-plan cost report.
#[derive(Debug, Clone, PartialEq)]
pub struct CoutBreakdown {
    /// Total `Cout`: sum of base-table and join-output cardinalities.
    pub total: f64,
    /// Sum over base-table scans (after filters pushed down to them).
    pub base_total: f64,
    /// Sum over join outputs.
    pub join_total: f64,
    /// Estimated output cardinality of every operator, by node id.
    pub per_node: Vec<(NodeId, f64)>,
}

/// Bitvector-aware `Cout` cost model bound to one join graph.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    graph: &'a JoinGraph,
    estimator: CardinalityEstimator<'a>,
    /// The stack [`cout`](CostModel::cout) routes filters on, kept between calls.
    filters: RefCell<Vec<TreeFilter>>,
}

impl<'a> CostModel<'a> {
    /// Creates a cost model for a join graph.
    pub fn new(graph: &'a JoinGraph) -> Self {
        CostModel {
            graph,
            estimator: CardinalityEstimator::new(graph),
            filters: RefCell::default(),
        }
    }

    /// The underlying estimator.
    pub fn estimator(&self) -> &CardinalityEstimator<'a> {
        &self.estimator
    }

    /// Bitvector-aware `Cout` of a join tree, added up only while the running
    /// sum stays below `bound`: the total when it is below `bound` (pass
    /// `f64::INFINITY` for the total), otherwise some partial sum ≥ `bound`.
    /// Every estimate is ≥ 0 and float addition is monotone, so an optimizer
    /// that passes the least cost so far as `bound` and compares with `<`
    /// keeps exactly the candidate a full costing would keep.
    ///
    /// The total is bit for bit that of the reference: lower the tree
    /// ([`PhysicalPlan::from_join_tree`]), run Algorithm 1
    /// ([`push_down_bitvectors`](crate::push_down_bitvectors)), cost it with
    /// [`cout_physical`](CostModel::cout_physical) — which, without the
    /// second step, is also how to get a tree's plain `Cout`. Here no plan is
    /// built and nothing is allocated once the filter stack has grown:
    /// Algorithm 1 routes a filter by the relations its probe columns belong
    /// to, and an estimate depends only on a node's relations and effective
    /// set, so one walk over relation sets (build side before probe side, the
    /// order node ids are assigned in) routes the filters, unions the
    /// effective sets and adds the cardinalities up in the reference's order.
    ///
    /// # Panics
    /// Panics if some join the walk reaches is a cross product.
    pub fn cout(&self, tree: &JoinTree, bound: f64) -> f64 {
        let mut filters = self.filters.borrow_mut();
        filters.clear();
        let mut walk = TreeWalk {
            model: self,
            nodes: &tree.nodes,
            filters: &mut filters,
            base_total: 0.0,
            join_total: 0.0,
            bound,
        };
        walk.visit(tree.root(), 0);
        walk.base_total + walk.join_total
    }

    /// `Cout` of a physical plan, honouring whatever bitvector placements it
    /// carries.
    pub fn cout_physical(&self, plan: &PhysicalPlan) -> CoutBreakdown {
        let effective = effective_sets(plan);
        let mut per_node = Vec::with_capacity(plan.num_nodes());
        let mut base_total = 0.0;
        let mut join_total = 0.0;
        for (id, node) in plan.nodes() {
            let rel_set = plan.relation_set(id);
            let card = self
                .estimator
                .semi_reduced_card(rel_set, effective[id.0] - rel_set);
            per_node.push((id, card));
            match node {
                PhysicalNode::Scan { .. } => base_total += card,
                PhysicalNode::HashJoin { .. } => join_total += card,
            }
        }
        CoutBreakdown {
            total: base_total + join_total,
            base_total,
            join_total,
            per_node,
        }
    }

    /// Estimated fraction of rows each bitvector filter of the plan
    /// eliminates at its target (the paper's λ used by the cost-based filter
    /// selection, Section 6.3), in placement order, from one computation of
    /// the plan's effective sets.
    pub fn estimated_elimination_fractions(&self, plan: &PhysicalPlan) -> Vec<f64> {
        let effective = effective_sets(plan);
        (0..plan.placements.len())
            .map(|index| self.elimination_fraction(plan, &effective, index))
            .collect()
    }

    fn elimination_fraction(
        &self,
        plan: &PhysicalPlan,
        effective: &[RelSet],
        placement_index: usize,
    ) -> f64 {
        let placement = &plan.placements[placement_index];
        // The effective relation set feeding a filter: that of its source
        // join's build side.
        let source_of = |join: NodeId| match plan.node(join) {
            PhysicalNode::HashJoin { build, .. } => Some(effective[build.0]),
            PhysicalNode::Scan { .. } => None,
        };
        let Some(source_set) = source_of(placement.source_join) else {
            return 0.0;
        };
        // Target side: cardinality before this particular filter, i.e. the
        // target's relation set reduced by every *other* filter that reaches
        // it.
        let target_rels = plan.relation_set(placement.target);
        let other_external = plan
            .indexed_placements_at(placement.target)
            .filter(|(i, _)| *i != placement_index)
            .filter_map(|(_, p)| source_of(p.source_join))
            .fold(RelSet::default(), |all, s| all | (s - target_rels));
        let before = self
            .estimator
            .semi_reduced_card(target_rels, other_external);
        let after = self
            .estimator
            .semi_reduced_card(target_rels, other_external | (source_set - target_rels));
        if before <= 0.0 {
            0.0
        } else {
            (1.0 - after / before).clamp(0.0, 1.0)
        }
    }
}

/// A bitvector filter on its way down a join tree: the relations its probe
/// columns belong to, and the effective set of the build side it is created
/// from.
#[derive(Debug, Clone, Copy)]
struct TreeFilter {
    referenced: RelSet,
    source: RelSet,
}

/// The state of one [`CostModel::cout`] call.
struct TreeWalk<'m, 'a, 't> {
    model: &'m CostModel<'a>,
    nodes: &'t [Entry],
    /// A stack: the filters routed into the node being visited are the ones
    /// from the index `visit` was given to the top.
    filters: &'t mut Vec<TreeFilter>,
    base_total: f64,
    join_total: f64,
    bound: f64,
}

/// What visiting a subtree tells its parent.
#[derive(Clone, Copy)]
struct Visited {
    /// The subtree's effective set (see [`effective_sets`]).
    effective: RelSet,
    /// `join_card(effective)`, when the visit looked it up.
    effective_card: Option<f64>,
    /// The neighbours of the subtree's relations.
    neighbors: RelSet,
}

impl TreeWalk<'_, '_, '_> {
    /// Adds up the estimates of the subtree under `node`, given the filters
    /// Algorithm 1 routes into it (`filters[incoming..]`). Leaves the stack
    /// above `incoming` in no particular state. `None` once the running sum
    /// has reached the bound.
    fn visit(&mut self, node: usize, incoming: usize) -> Option<Visited> {
        let Entry { rels, join } = self.nodes[node];
        let mut effective = rels;
        let (neighbors, probe) = match join {
            // Everything that reached a scan is applied there.
            None => {
                for filter in &self.filters[incoming..] {
                    effective = effective | filter.source;
                }
                let neighbors = rels.iter().fold(RelSet::default(), |all, r| {
                    all | self.model.graph.neighbors(r)
                });
                (neighbors, None)
            }
            Some((build, probe)) => {
                let build_rels = self.nodes[build].rels;
                let probe_rels = rels - build_rels;
                // Route the incoming filters as `push_down_bitvectors` does:
                // copies of those bound for the build side go on top of the
                // stack, those bound for the probe side move down in place.
                let top = self.filters.len();
                let mut kept = incoming;
                for i in incoming..top {
                    let filter = self.filters[i];
                    match (
                        filter.referenced.is_subset(build_rels),
                        filter.referenced.is_subset(probe_rels),
                    ) {
                        (true, false) => self.filters.push(filter),
                        (false, true) => {
                            self.filters[kept] = filter;
                            kept += 1;
                        }
                        _ => effective = effective | filter.source,
                    }
                }
                let build = self.visit(build, top)?;
                self.filters.truncate(kept);
                // The filter this join creates checks the probe-side ends of
                // the edges that cross it.
                let referenced = build.neighbors & probe_rels;
                assert!(
                    !referenced.is_empty(),
                    "join between {build_rels:?} and {probe_rels:?} is a cross product"
                );
                self.filters.push(TreeFilter {
                    referenced,
                    source: build.effective,
                });
                let probe = self.visit(probe, incoming)?;
                effective = effective | build.effective | probe.effective;
                (build.neighbors | probe.neighbors, Some(probe))
            }
        };
        // `semi_reduced_card(rels, effective - rels)`, step by step: where a
        // join's effective set is its probe side's (filters pushed to the
        // bottom of a pipeline make it so all the way up), the probe side has
        // already looked up its cardinality.
        let est = &self.model.estimator;
        let core_card = est.join_card(rels);
        let (card, effective_card) = if effective == rels {
            (core_card, Some(core_card))
        } else if core_card <= 0.0 {
            (core_card, None)
        } else {
            let full_card = probe
                .filter(|probe| probe.effective == effective)
                .and_then(|probe| probe.effective_card)
                .unwrap_or_else(|| est.join_card(effective));
            (semi_reduce(core_card, full_card), Some(full_card))
        };
        match join {
            None => self.base_total += card,
            Some(_) => self.join_total += card,
        }
        (self.base_total + self.join_total < self.bound).then_some(Visited {
            effective,
            effective_card,
            neighbors,
        })
    }
}

/// For every node (indexed by [`NodeId`]), the "effective" relation set: the
/// node's own relations plus (transitively) the relations standing behind
/// every bitvector filter applied at or below it. The estimated cardinality
/// of the node is the semi-join-reduced cardinality of its relation set with
/// respect to the external part of this effective set.
fn effective_sets(plan: &PhysicalPlan) -> Vec<RelSet> {
    // Every effective set has a member, so the empty set marks "not yet
    // computed". A filter's source is the build side of an ancestor of its
    // target, which depends on nothing below the target: the recursion ends.
    fn fill(plan: &PhysicalPlan, node: NodeId, sets: &mut [RelSet]) -> RelSet {
        if !sets[node.0].is_empty() {
            return sets[node.0];
        }
        let mut set = match plan.node(node) {
            PhysicalNode::Scan { relation } => RelSet::single(*relation),
            PhysicalNode::HashJoin { build, probe, .. } => {
                fill(plan, *build, sets) | fill(plan, *probe, sets)
            }
        };
        // Filters applied at this node contribute the effective set of the
        // source join's build side.
        for placement in plan.placements.iter().filter(|p| p.target == node) {
            if let PhysicalNode::HashJoin { build, .. } = plan.node(placement.source_join) {
                set = set | fill(plan, *build, sets);
            }
        }
        sets[node.0] = set;
        set
    }
    let mut sets = vec![RelSet::default(); plan.num_nodes()];
    for (id, _) in plan.nodes() {
        fill(plan, id, &mut sets);
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{JoinEdge, JoinGraph, RelId, RelationInfo};
    use crate::pushdown::push_down_bitvectors;

    /// The estimated output cardinality of one operator.
    fn card_of(cost: &CoutBreakdown, node: NodeId) -> Option<f64> {
        cost.per_node
            .iter()
            .find(|(id, _)| *id == node)
            .map(|(_, c)| *c)
    }

    /// The reference: lower the tree, run Algorithm 1 when asked, cost the
    /// physical plan.
    fn lowered_cout(g: &JoinGraph, tree: &JoinTree, with_bitvectors: bool) -> CoutBreakdown {
        let mut plan = PhysicalPlan::from_join_tree(g, tree);
        if with_bitvectors {
            plan = push_down_bitvectors(g, plan);
        }
        CostModel::new(g).cout_physical(&plan)
    }

    /// Star: fact 1M rows; d1 100 rows filtered to 10; d2 1000 rows
    /// unfiltered; d3 10 rows filtered to 2.
    fn star() -> (JoinGraph, RelId, Vec<RelId>) {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        let d1 = g.add_relation(RelationInfo::new("d1", 100.0, 10.0));
        let d2 = g.add_relation(RelationInfo::new("d2", 1000.0, 1000.0));
        let d3 = g.add_relation(RelationInfo::new("d3", 10.0, 2.0));
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 100.0));
        g.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 1000.0));
        g.add_edge(JoinEdge::pkfk(fact, "d3_sk", d3, "sk", 10.0));
        (g, fact, vec![d1, d2, d3])
    }

    #[test]
    fn plain_cout_of_star_plan() {
        let (g, fact, d) = star();
        // T(fact, d1, d2, d3) without bitvectors:
        // base: 1M + 10 + 1000 + 2
        // joins: fact⋈d1 = 100k; ⋈d2 = 100k; ⋈d3 = 20k
        let tree = JoinTree::right_deep(&[fact, d[0], d[1], d[2]]);
        let cost = lowered_cout(&g, &tree, false);
        let expected_base = 1_000_000.0 + 10.0 + 1000.0 + 2.0;
        let expected_joins = 100_000.0 + 100_000.0 + 20_000.0;
        assert!((cost.base_total - expected_base).abs() < 1e-6);
        assert!((cost.join_total - expected_joins).abs() < 1e-6);
        assert!((cost.total - (expected_base + expected_joins)).abs() < 1e-6);
    }

    #[test]
    fn bitvector_cout_reduces_fact_scan_and_intermediates() {
        let (g, fact, d) = star();
        let tree = JoinTree::right_deep(&[fact, d[0], d[1], d[2]]);
        let cost = lowered_cout(&g, &tree, true);
        // With all three dimension filters pushed to the fact scan, the fact
        // contributes |fact ⋈ d1 ⋈ d2 ⋈ d3| = 20k, and every join output is
        // also 20k (Lemma 4).
        let expected_base = 20_000.0 + 10.0 + 1000.0 + 2.0;
        let expected_joins = 3.0 * 20_000.0;
        assert!((cost.base_total - expected_base).abs() < 1e-3);
        assert!((cost.join_total - expected_joins).abs() < 1e-3);
        // And it is much cheaper than the same plan without bitvectors.
        let plain = lowered_cout(&g, &tree, false);
        assert!(cost.total < plain.total / 5.0);
    }

    #[test]
    fn all_dimension_permutations_cost_the_same_with_fact_rightmost() {
        // Lemma 4: with R0 as the right-most leaf, every permutation of the
        // dimensions has the same bitvector-aware cost.
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        let orders = [
            vec![fact, d[0], d[1], d[2]],
            vec![fact, d[2], d[1], d[0]],
            vec![fact, d[1], d[0], d[2]],
            vec![fact, d[2], d[0], d[1]],
        ];
        let costs: Vec<f64> = orders
            .iter()
            .map(|o| model.cout(&JoinTree::right_deep(o), f64::INFINITY))
            .collect();
        for w in costs.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6, "costs differ: {costs:?}");
        }
    }

    #[test]
    fn dimension_first_plans_cost_the_same_regardless_of_remaining_order() {
        // Lemma 5: with R_k as the right-most leaf followed by R0, the order
        // of the remaining dimensions does not matter.
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        let a = JoinTree::right_deep(&[d[0], fact, d[1], d[2]]);
        let b = JoinTree::right_deep(&[d[0], fact, d[2], d[1]]);
        let ca = model.cout(&a, f64::INFINITY);
        let cb = model.cout(&b, f64::INFINITY);
        assert!((ca - cb).abs() < 1e-6);
    }

    #[test]
    fn post_processing_is_worse_than_bitvector_aware_choice() {
        // The motivating observation (Figure 2): the plan that is best
        // without bitvectors is not best once filters are considered. Build
        // an asymmetric star where joining the highly selective dimension
        // first is best without filters, but with filters another right-most
        // leaf wins.
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 4_500_000.0, 4_500_000.0));
        // "title"-like dimension: large, mildly filtered.
        let t = g.add_relation(RelationInfo::new("t", 2_500_000.0, 715_000.0));
        // "keyword"-like dimension: small, selective.
        let k = g.add_relation(RelationInfo::new("k", 134_000.0, 7000.0));
        g.add_edge(JoinEdge::pkfk(fact, "t_sk", t, "sk", 2_500_000.0));
        g.add_edge(JoinEdge::pkfk(fact, "k_sk", k, "sk", 134_000.0));
        let model = CostModel::new(&g);

        let candidates = [
            JoinTree::right_deep(&[fact, t, k]),
            JoinTree::right_deep(&[fact, k, t]),
            JoinTree::right_deep(&[t, fact, k]),
            JoinTree::right_deep(&[k, fact, t]),
        ];
        let plain = |tree: &JoinTree| lowered_cout(&g, tree, false).total;
        let aware = |tree: &JoinTree| model.cout(tree, f64::INFINITY);
        let best_plain = candidates
            .iter()
            .min_by(|a, b| plain(a).total_cmp(&plain(b)))
            .unwrap();
        let best_bv = candidates
            .iter()
            .min_by(|a, b| aware(a).total_cmp(&aware(b)))
            .unwrap();
        // Post-processing the plain-best plan with bitvectors must not beat
        // the bitvector-aware best plan.
        assert!(aware(best_bv) <= aware(best_plain) + 1e-9);
        // And the bitvector-aware best plan would look suboptimal to a
        // conventional optimizer.
        assert!(plain(best_bv) >= plain(best_plain));
    }

    #[test]
    fn estimated_output_matches_full_join_card() {
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        let tree = JoinTree::right_deep(&[fact, d[0], d[1], d[2]]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let out = card_of(&model.cout_physical(&plan), plan.root()).unwrap();
        assert!((out - 20_000.0).abs() < 1e-3);
    }

    #[test]
    fn elimination_fraction_reflects_dimension_selectivity() {
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        let tree = JoinTree::right_deep(&[fact, d[0], d[1], d[2]]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        // Find the placement sourced from the join whose build is d2 (the
        // unfiltered dimension): it eliminates (almost) nothing.
        let lambdas = model.estimated_elimination_fractions(&plan);
        for (p, &lambda) in plan.placements.iter().zip(&lambdas) {
            let src_build = match plan.node(p.source_join) {
                PhysicalNode::HashJoin { build, .. } => *build,
                _ => unreachable!(),
            };
            let src_rels = plan.relation_set(src_build);
            if src_rels.contains(d[1]) {
                assert!(
                    lambda < 0.05,
                    "unfiltered dim should not eliminate: {lambda}"
                );
            }
            if src_rels.contains(d[2]) {
                assert!(lambda > 0.5, "d3 keeps 20%, so λ should be ~0.8: {lambda}");
            }
        }
    }

    /// Every cross-product-free right-deep order and two bushy trees over the
    /// paper's Figure 1 graph (a cycle: the filter from D checks columns of A
    /// and C, so it is a residual at a join) and over a star.
    #[test]
    fn tree_costing_matches_lower_push_down_and_cost_bit_for_bit() {
        let mut figure1 = JoinGraph::new();
        let a = figure1.add_relation(RelationInfo::new("A", 1000.0, 400.0));
        let b = figure1.add_relation(RelationInfo::new("B", 10_000.0, 10_000.0));
        let c = figure1.add_relation(RelationInfo::new("C", 2000.0, 150.0));
        let d = figure1.add_relation(RelationInfo::new("D", 500.0, 20.0));
        for (left, right, distinct) in [(a, b, 10_000.0), (b, c, 2000.0), (d, a, 1000.0)] {
            figure1.add_edge(JoinEdge::new(
                left, right, "l", "r", distinct, distinct, false, true,
            ));
        }
        figure1.add_edge(JoinEdge::new(d, c, "l2", "r2", 2000.0, 2000.0, false, true));
        let (star, ..) = star();

        for graph in [&figure1, &star] {
            let ids: Vec<RelId> = graph.relation_ids().collect();
            let mut trees = Vec::new();
            // All 24 orders of the four relations.
            for first in 0..4 {
                for second in (0..4).filter(|i| *i != first) {
                    for third in (0..4).filter(|i| *i != first && *i != second) {
                        let fourth = 6 - first - second - third;
                        let order = [first, second, third, fourth].map(|i| ids[i]);
                        trees.push(JoinTree::right_deep(&order));
                    }
                }
            }
            let leaf = |i: usize| JoinTree::leaf(ids[i]);
            trees.push(JoinTree::join(
                JoinTree::join(leaf(1), leaf(0)),
                JoinTree::join(leaf(3), leaf(2)),
            ));
            trees.push(JoinTree::join(
                JoinTree::join(JoinTree::join(leaf(2), leaf(0)), leaf(1)),
                leaf(3),
            ));
            trees.retain(|tree| tree.has_no_cross_products(graph));
            assert!(trees.len() >= 8, "{} trees", trees.len());

            let model = CostModel::new(graph);
            for tree in &trees {
                let reference = lowered_cout(graph, tree, true).total;
                let fast = model.cout(tree, f64::INFINITY);
                assert_eq!(fast.to_bits(), reference.to_bits(), "{tree}");
                // Bounded: the total when below the bound, else a sum that
                // has reached it.
                for bound in [reference * 2.0, reference, reference / 2.0, 0.0] {
                    let bounded = model.cout(tree, bound);
                    if reference < bound {
                        assert_eq!(bounded.to_bits(), reference.to_bits(), "{tree}");
                    } else {
                        assert!(bound <= bounded && bounded <= reference, "{tree}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cross product")]
    fn tree_costing_rejects_cross_products() {
        let (g, _, d) = star();
        let tree = JoinTree::join(JoinTree::leaf(d[0]), JoinTree::leaf(d[1]));
        CostModel::new(&g).cout(&tree, f64::INFINITY);
    }

    #[test]
    fn elimination_fractions_match_the_one_at_a_time_estimates() {
        let (g, fact, d) = star();
        let model = CostModel::new(&g);
        let tree = JoinTree::right_deep(&[d[1], fact, d[0], d[2]]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let all = model.estimated_elimination_fractions(&plan);
        assert_eq!(all.len(), plan.placements.len());
        for (index, lambda) in all.iter().enumerate() {
            // A fresh model and fresh effective sets per placement.
            let fresh = CostModel::new(&g);
            let one = fresh.elimination_fraction(&plan, &effective_sets(&plan), index);
            assert_eq!(lambda.to_bits(), one.to_bits(), "placement {index}");
        }
    }

    #[test]
    fn breakdown_card_lookup() {
        let (g, fact, d) = star();
        let tree = JoinTree::right_deep(&[fact, d[0]]);
        let cost = lowered_cout(&g, &tree, false);
        assert_eq!(cost.per_node.len(), 3);
        assert!(card_of(&cost, NodeId(0)).is_some());
        assert!(card_of(&cost, NodeId(99)).is_none());
    }
}
