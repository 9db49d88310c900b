//! Cost-based bitvector filter selection (Section 6.3).
//!
//! Creating and probing a bitvector filter costs CPU. The paper derives the
//! break-even condition `λ > 1 − C_f / C_p` (a filter pays off once it
//! eliminates more than a threshold fraction of the probed tuples, measured
//! at roughly 10% in their micro-benchmark, with 5% chosen as the deployed
//! threshold). This module drops the placements whose estimated elimination
//! fraction falls below the configured threshold.

use bqo_plan::{CostModel, PhysicalPlan};

/// Removes bitvector placements whose estimated eliminated fraction λ is
/// below `lambda_threshold`. Returns the number of placements dropped.
pub fn prune_low_benefit_filters(
    cost_model: &CostModel<'_>,
    plan: &mut PhysicalPlan,
    lambda_threshold: f64,
) -> usize {
    if lambda_threshold <= 0.0 || plan.placements.is_empty() {
        return 0;
    }
    let mut fractions = cost_model.estimated_elimination_fractions(plan).into_iter();
    let before = plan.placements.len();
    plan.placements.retain(|_| {
        fractions
            .next()
            .is_some_and(|lambda| lambda >= lambda_threshold)
    });
    before - plan.placements.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_plan::{
        push_down_bitvectors, JoinEdge, JoinGraph, JoinTree, PhysicalPlan, RelationInfo,
    };

    /// Star where d0 is very selective, d1 is unfiltered and d2 is mildly
    /// selective.
    fn star() -> JoinGraph {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        let d0 = g.add_relation(RelationInfo::new("d0", 1000.0, 10.0));
        let d1 = g.add_relation(RelationInfo::new("d1", 1000.0, 1000.0));
        let d2 = g.add_relation(RelationInfo::new("d2", 1000.0, 900.0));
        g.add_edge(JoinEdge::pkfk(fact, "d0_sk", d0, "sk", 1000.0));
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 1000.0));
        g.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 1000.0));
        g
    }

    fn plan_for(g: &JoinGraph) -> PhysicalPlan {
        let order: Vec<_> = g.relation_ids().collect();
        let tree = JoinTree::right_deep(&order);
        push_down_bitvectors(g, PhysicalPlan::from_join_tree(g, &tree))
    }

    #[test]
    fn zero_threshold_keeps_everything() {
        let g = star();
        let mut plan = plan_for(&g);
        let model = CostModel::new(&g);
        let dropped = prune_low_benefit_filters(&model, &mut plan, 0.0);
        assert_eq!(dropped, 0);
        assert_eq!(plan.placements.len(), 3);
    }

    #[test]
    fn default_threshold_drops_only_useless_filters() {
        let g = star();
        let mut plan = plan_for(&g);
        let model = CostModel::new(&g);
        let dropped = prune_low_benefit_filters(&model, &mut plan, 0.05);
        // The unfiltered dimension's filter (λ = 0) is dropped; the selective
        // one (λ = 0.99) and the mild one (λ = 0.1) stay.
        assert_eq!(dropped, 1);
        assert_eq!(plan.placements.len(), 2);
    }

    #[test]
    fn aggressive_threshold_drops_mild_filters_too() {
        let g = star();
        let mut plan = plan_for(&g);
        let model = CostModel::new(&g);
        let dropped = prune_low_benefit_filters(&model, &mut plan, 0.5);
        assert_eq!(dropped, 2);
        assert_eq!(plan.placements.len(), 1);
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let g = star();
        let mut plan =
            PhysicalPlan::from_join_tree(&g, &JoinTree::leaf(g.relation_by_name("fact").unwrap()));
        let model = CostModel::new(&g);
        assert_eq!(prune_low_benefit_filters(&model, &mut plan, 0.05), 0);
    }
}
