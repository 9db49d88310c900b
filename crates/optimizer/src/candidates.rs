//! The linear candidate plan set of Theorem 5.1/5.2 for clean snowflake
//! queries.
//!
//! For a query with `n + 1` relations, the paper proves that a minimum-cost
//! right-deep tree (under bitvector-aware `Cout` with no false positives) can
//! be found among `n + 1` candidates. For a snowflake with fact `R0` and
//! branches `B_1..B_m` they are the fact-first plan plus, for every branch
//! `i` and every choice of right-most leaf inside that branch, the plan that
//! joins the (rotated) branch first, then the fact, then the remaining
//! branches.
//!
//! The star set of Theorem 4.1 and the branch set of Theorem 5.3 are this
//! set for one-relation branches and for a single branch
//! ([`JoinGraph::clean_snowflake`] returns both shapes as snowflakes):
//!
//! * **Star** (fact `R0`, dimensions `R1..Rn`): `T(R0, R1, ..., Rn)` plus,
//!   for every `k`, `T(Rk, R0, R1, ..., R_{k-1}, R_{k+1}, ..., Rn)`, in
//!   that order.
//! * **Chain** (`R0 -> R1 -> ... -> Rn`): `T(Rn, R_{n-1}, ..., R0)` plus,
//!   for every `k < n`, `T(Rk, R_{k+1}, ..., Rn, R_{k-1}, ..., R0)` — the
//!   same set, listed fact-first.

use bqo_plan::{JoinGraph, JoinTree, RelId};

/// Candidate plans for a snowflake query (Theorem 5.1). `fact` is `R0`;
/// each branch is ordered from the relation adjacent to the fact (`R_{i,1}`)
/// outwards (`R_{i,n_i}`).
pub(crate) fn snowflake_candidates(fact: RelId, branches: &[Vec<RelId>]) -> Vec<JoinTree> {
    let mut plans = Vec::new();

    // Fact-first plan: T(R0, branch_1 ..., branch_2 ..., ...). Within a
    // branch the relations must appear root-to-leaf so the order is partially
    // ordered (Definition 3) and has no cross products.
    let mut fact_first = vec![fact];
    for branch in branches {
        fact_first.extend_from_slice(branch);
    }
    plans.push(JoinTree::right_deep(&fact_first));

    // Branch-first plans: for branch i and right-most leaf R_{i,k}, the
    // branch is joined as (R_{i,k}, R_{i,k+1}, ..., R_{i,n_i}, R_{i,k-1}, ...,
    // R_{i,1}), then the fact, then the remaining branches root-to-leaf.
    for (i, branch) in branches.iter().enumerate() {
        for k in 0..branch.len() {
            let mut order: Vec<RelId> = Vec::new();
            order.extend_from_slice(&branch[k..]);
            order.extend(branch[..k].iter().rev());
            order.push(fact);
            for (j, other) in branches.iter().enumerate() {
                if j != i {
                    order.extend_from_slice(other);
                }
            }
            plans.push(JoinTree::right_deep(&order));
        }
    }
    plans
}

/// The Theorem 5.1 candidate plans of a clean snowflake (stars and chains
/// included). Returns `None` for any other graph (Algorithm 2/3 handle
/// those instead).
pub fn candidate_plans(graph: &JoinGraph) -> Option<Vec<JoinTree>> {
    let (fact, branches) = graph.clean_snowflake()?;
    Some(snowflake_candidates(fact, &branches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate_right_deep, exhaustive_best_right_deep};
    use bqo_plan::{CostModel, JoinEdge, RelationInfo};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn star_graph(filters: &[f64]) -> JoinGraph {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        for (i, &sel) in filters.iter().enumerate() {
            let rows = 1000.0;
            let d = g.add_relation(RelationInfo::new(format!("d{i}"), rows, rows * sel));
            g.add_edge(JoinEdge::pkfk(fact, format!("d{i}_sk"), d, "sk", rows));
        }
        g
    }

    fn snowflake_graph() -> JoinGraph {
        // fact -> a1 -> a2, fact -> b1, fact -> c1 -> c2 -> c3
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 2_000_000.0, 2_000_000.0));
        let a1 = g.add_relation(RelationInfo::new("a1", 50_000.0, 50_000.0));
        let a2 = g.add_relation(RelationInfo::new("a2", 500.0, 50.0));
        let b1 = g.add_relation(RelationInfo::new("b1", 2000.0, 100.0));
        let c1 = g.add_relation(RelationInfo::new("c1", 100_000.0, 100_000.0));
        let c2 = g.add_relation(RelationInfo::new("c2", 1000.0, 1000.0));
        let c3 = g.add_relation(RelationInfo::new("c3", 20.0, 2.0));
        g.add_edge(JoinEdge::pkfk(fact, "a1_sk", a1, "sk", 50_000.0));
        g.add_edge(JoinEdge::pkfk(a1, "a2_sk", a2, "sk", 500.0));
        g.add_edge(JoinEdge::pkfk(fact, "b1_sk", b1, "sk", 2000.0));
        g.add_edge(JoinEdge::pkfk(fact, "c1_sk", c1, "sk", 100_000.0));
        g.add_edge(JoinEdge::pkfk(c1, "c2_sk", c2, "sk", 1000.0));
        g.add_edge(JoinEdge::pkfk(c2, "c3_sk", c3, "sk", 20.0));
        g
    }

    fn chain_graph(n: usize) -> JoinGraph {
        let mut g = JoinGraph::new();
        let mut prev = g.add_relation(RelationInfo::new("r0", 500_000.0, 500_000.0));
        for i in 1..n {
            let rows = (500_000.0 / 8f64.powi(i as i32)).max(20.0);
            let filtered = if i % 2 == 0 { rows / 5.0 } else { rows };
            let r = g.add_relation(RelationInfo::new(format!("r{i}"), rows, filtered));
            g.add_edge(JoinEdge::pkfk(prev, format!("r{i}_sk"), r, "sk", rows));
            prev = r;
        }
        g
    }

    #[test]
    fn star_candidate_count_is_linear() {
        let g = star_graph(&[0.1, 1.0, 0.5, 0.01]);
        let candidates = candidate_plans(&g).unwrap();
        // n + 1 = 5 candidates for 5 relations.
        assert_eq!(candidates.len(), 5);
        for c in &candidates {
            assert!(c.has_no_cross_products(&g));
        }
    }

    #[test]
    fn star_candidates_contain_exhaustive_minimum() {
        // Theorem 4.1: the candidate set contains a minimum-cost plan.
        for filters in [
            vec![0.1, 1.0, 0.5],
            vec![0.001, 0.9, 0.3, 0.7],
            vec![1.0, 1.0, 1.0],
            vec![0.01, 0.02, 0.5, 0.9, 0.04],
        ] {
            let g = star_graph(&filters);
            let model = CostModel::new(&g);
            let (_, best) = exhaustive_best_right_deep(&g, &model, true).unwrap();
            let candidate_best = candidate_plans(&g)
                .unwrap()
                .iter()
                .map(|p| model.cout(p, f64::INFINITY))
                .fold(f64::INFINITY, f64::min);
            assert!(
                candidate_best <= best + best.abs() * 1e-9 + 1e-6,
                "candidates miss the optimum: {candidate_best} vs {best} ({filters:?})"
            );
        }
    }

    #[test]
    fn branch_candidate_count_is_linear() {
        let g = chain_graph(5);
        let candidates = candidate_plans(&g).unwrap();
        assert_eq!(candidates.len(), 5);
        for c in &candidates {
            assert!(c.has_no_cross_products(&g), "{c}");
        }
    }

    #[test]
    fn branch_candidates_contain_exhaustive_minimum() {
        for n in [3usize, 4, 5, 6] {
            let g = chain_graph(n);
            let model = CostModel::new(&g);
            let (_, best) = exhaustive_best_right_deep(&g, &model, true).unwrap();
            let candidate_best = candidate_plans(&g)
                .unwrap()
                .iter()
                .map(|p| model.cout(p, f64::INFINITY))
                .fold(f64::INFINITY, f64::min);
            assert!(
                candidate_best <= best + best.abs() * 1e-9 + 1e-6,
                "n={n}: {candidate_best} vs {best}"
            );
        }
    }

    #[test]
    fn snowflake_candidate_count_is_linear() {
        let g = snowflake_graph();
        let candidates = candidate_plans(&g).unwrap();
        // n + 1 = 7 relations -> 7 candidates (1 fact-first + 2 + 1 + 3).
        assert_eq!(candidates.len(), 7);
        for c in &candidates {
            assert!(c.has_no_cross_products(&g), "{c}");
            assert_eq!(c.relation_set().len(), 7);
        }
    }

    #[test]
    fn snowflake_candidates_contain_exhaustive_minimum() {
        let g = snowflake_graph();
        let model = CostModel::new(&g);
        let (_, best) = exhaustive_best_right_deep(&g, &model, true).unwrap();
        let candidate_best = candidate_plans(&g)
            .unwrap()
            .iter()
            .map(|p| model.cout(p, f64::INFINITY))
            .fold(f64::INFINITY, f64::min);
        assert!(
            candidate_best <= best + best.abs() * 1e-9 + 1e-6,
            "{candidate_best} vs {best}"
        );
    }

    #[test]
    fn candidate_sets_are_subsets_of_the_valid_plan_space() {
        let g = snowflake_graph();
        let all = enumerate_right_deep(&g);
        for c in candidate_plans(&g).unwrap() {
            assert!(all.contains(&c), "{c} not in plan space");
        }
    }

    #[test]
    fn general_graph_has_no_candidate_shortcut() {
        // Two fact tables sharing a dimension: classified General.
        let mut g = JoinGraph::new();
        let f1 = g.add_relation(RelationInfo::new("f1", 1_000_000.0, 1_000_000.0));
        let f2 = g.add_relation(RelationInfo::new("f2", 500_000.0, 500_000.0));
        let d = g.add_relation(RelationInfo::new("d", 100.0, 100.0));
        g.add_edge(JoinEdge::pkfk(f1, "d_sk", d, "sk", 100.0));
        g.add_edge(JoinEdge::pkfk(f2, "d_sk", d, "sk", 100.0));
        assert!(candidate_plans(&g).is_none());
    }

    /// `T(R0, R1, ..., Rn)`, then `T(Rk, R0, R1, ..., Rn)` without `Rk`
    /// for every `k` (Theorem 4.1), in the graph's relation ids.
    fn theorem_4_1_orders(n: usize) -> Vec<Vec<RelId>> {
        let mut orders = vec![(0..=n).map(RelId).collect::<Vec<_>>()];
        for k in 1..=n {
            let rest = (0..=n).filter(|&r| r != k).map(RelId);
            orders.push(std::iter::once(RelId(k)).chain(rest).collect());
        }
        orders
    }

    /// `T(Rn, ..., R0)`, then `T(Rk, ..., Rn, R_{k-1}, ..., R0)` for every
    /// `k < n` (Theorem 5.3), in the graph's relation ids.
    fn theorem_5_3_orders(n: usize) -> BTreeSet<Vec<RelId>> {
        let mut orders = BTreeSet::from([(0..=n).rev().map(RelId).collect::<Vec<_>>()]);
        for k in 0..n {
            orders.insert((k..=n).chain((0..k).rev()).map(RelId).collect());
        }
        orders
    }

    fn orders(candidates: &[JoinTree]) -> Vec<Vec<RelId>> {
        let orders = candidates.iter().map(|c| c.right_deep_order());
        orders
            .collect::<Option<_>>()
            .expect("candidates are right-deep")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Stars get exactly Theorem 4.1's list, in its order.
        #[test]
        fn stars_get_the_theorem_4_1_candidates(
            filters in prop::collection::vec(0.001f64..1.0, 1..8),
        ) {
            let g = star_graph(&filters);
            let candidates = candidate_plans(&g).unwrap();
            prop_assert_eq!(orders(&candidates), theorem_4_1_orders(filters.len()));
        }

        /// Chains get exactly Theorem 5.3's set.
        #[test]
        fn chains_get_the_theorem_5_3_candidates(n in 2usize..9) {
            let g = chain_graph(n);
            let candidates = orders(&candidate_plans(&g).unwrap());
            prop_assert_eq!(candidates.len(), n);
            let set: BTreeSet<Vec<RelId>> = candidates.into_iter().collect();
            prop_assert_eq!(set, theorem_5_3_orders(n - 1));
        }
    }
}
