//! Property-based validation of the paper's plan-space theorems.
//!
//! For randomly generated stars, chains and snowflakes with PKFK joins, the
//! linear candidate sets of Theorems 4.1, 5.1 and 5.3 must contain a
//! minimum-cost plan among all right-deep trees without cross products under
//! the bitvector-aware `Cout`, and the equal-cost lemmas (4, 5 and 8) must
//! hold exactly.

use bqo_integration_tests::{chain_graph, snowflake_graph, star_graph};
use bqo_optimizer::{candidate_plans, enumerate_right_deep, exhaustive_best_right_deep};
use bqo_plan::{CostModel, JoinTree, PhysicalPlan};
use proptest::prelude::*;

/// Strategy for a dimension: base rows in [10, 5000], filtered an arbitrary
/// fraction of that.
fn dim_strategy() -> impl Strategy<Value = (f64, f64)> {
    (10u32..5000, 0.001f64..1.0).prop_map(|(base, sel)| {
        let base = base as f64;
        (base, (base * sel).max(1.0))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 4.1 / 4.2 — star queries.
    #[test]
    fn star_candidates_contain_minimum(
        fact_rows in 10_000u32..5_000_000,
        dims in prop::collection::vec(dim_strategy(), 2..5),
    ) {
        let graph = star_graph(fact_rows as f64, &dims);
        let model = CostModel::new(&graph);
        let (_, best) = exhaustive_best_right_deep(&graph, &model, true).unwrap();
        let candidates = candidate_plans(&graph).unwrap();
        prop_assert_eq!(candidates.len(), graph.num_relations());
        let candidate_best = candidates
            .iter()
            .map(|p| model.cout(p, f64::INFINITY))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(
            candidate_best <= best * (1.0 + 1e-9) + 1e-6,
            "candidates {} vs exhaustive {}", candidate_best, best
        );
    }

    /// Lemma 4 — with the fact as right-most leaf, every dimension
    /// permutation has the same bitvector-aware cost.
    #[test]
    fn star_fact_first_permutations_cost_the_same(
        fact_rows in 10_000u32..5_000_000,
        dims in prop::collection::vec(dim_strategy(), 2..5),
        seed in 0u64..1000,
    ) {
        let graph = star_graph(fact_rows as f64, &dims);
        let model = CostModel::new(&graph);
        let fact = graph.relation_by_name("fact").unwrap();
        let mut dim_ids: Vec<_> = graph.relation_ids().filter(|&r| r != fact).collect();
        let reference = {
            let mut order = vec![fact];
            order.extend(dim_ids.iter().copied());
            model.cout(&JoinTree::right_deep(&order), f64::INFINITY)
        };
        // A deterministic pseudo-random permutation derived from the seed.
        let n = dim_ids.len();
        for i in 0..n {
            let j = i + ((seed as usize + i * 7) % (n - i));
            dim_ids.swap(i, j);
        }
        let mut order = vec![fact];
        order.extend(dim_ids);
        let permuted = model.cout(&JoinTree::right_deep(&order), f64::INFINITY);
        prop_assert!((reference - permuted).abs() <= reference.abs() * 1e-9 + 1e-9);
    }

    /// Theorem 5.3 / 5.4 — chain (branch) queries.
    #[test]
    fn branch_candidates_contain_minimum(
        levels in prop::collection::vec(dim_strategy(), 3..6),
        fact_rows in 50_000u32..2_000_000,
    ) {
        // The chain starts at a large unfiltered relation (the fact-most end).
        let mut chain: Vec<(f64, f64)> = vec![(fact_rows as f64, fact_rows as f64)];
        chain.extend(levels);
        let graph = chain_graph(&chain);
        let model = CostModel::new(&graph);
        let (_, best) = exhaustive_best_right_deep(&graph, &model, true).unwrap();
        let candidates = candidate_plans(&graph).unwrap();
        prop_assert_eq!(candidates.len(), graph.num_relations());
        let candidate_best = candidates
            .iter()
            .map(|p| model.cout(p, f64::INFINITY))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(candidate_best <= best * (1.0 + 1e-9) + 1e-6);
    }

    /// Theorem 5.1 / 5.2 — snowflake queries.
    #[test]
    fn snowflake_candidates_contain_minimum(
        fact_rows in 100_000u32..3_000_000,
        branch_a in prop::collection::vec(dim_strategy(), 1..3),
        branch_b in prop::collection::vec(dim_strategy(), 1..3),
        branch_c in prop::collection::vec(dim_strategy(), 0..2),
    ) {
        let mut branches = vec![branch_a, branch_b];
        if !branch_c.is_empty() {
            branches.push(branch_c);
        }
        let graph = snowflake_graph(fact_rows as f64, &branches);
        // Keep the exhaustive enumeration tractable.
        prop_assume!(graph.num_relations() <= 8);
        let model = CostModel::new(&graph);
        let (_, best) = exhaustive_best_right_deep(&graph, &model, true).unwrap();
        let candidates = candidate_plans(&graph).unwrap();
        prop_assert_eq!(candidates.len(), graph.num_relations());
        let candidate_best = candidates
            .iter()
            .map(|p| model.cout(p, f64::INFINITY))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(candidate_best <= best * (1.0 + 1e-9) + 1e-6);
    }

    /// Lemma 8 — partially-ordered right-deep trees with the fact as
    /// right-most leaf all cost the same for snowflakes.
    #[test]
    fn snowflake_fact_first_orders_cost_the_same(
        fact_rows in 100_000u32..3_000_000,
        branch_a in prop::collection::vec(dim_strategy(), 1..3),
        branch_b in prop::collection::vec(dim_strategy(), 1..3),
    ) {
        let graph = snowflake_graph(fact_rows as f64, &[branch_a, branch_b]);
        let model = CostModel::new(&graph);
        let fact = graph.relation_by_name("fact").unwrap();
        // All enumerated right-deep plans that start at the fact are
        // partially ordered (Lemma 6), so they must share one cost.
        let costs: Vec<f64> = enumerate_right_deep(&graph)
            .into_iter()
            .filter(|p| p.right_deep_order().is_some_and(|order| order[0] == fact))
            .map(|p| model.cout(&p, f64::INFINITY))
            .collect();
        prop_assert!(!costs.is_empty());
        for w in costs.windows(2) {
            prop_assert!((w[0] - w[1]).abs() <= w[0].abs() * 1e-9 + 1e-9);
        }
    }

    /// Reduction property: adding bitvector filters never increases the
    /// estimated cost of a right-deep plan.
    #[test]
    fn bitvectors_never_increase_estimated_cost(
        fact_rows in 10_000u32..1_000_000,
        dims in prop::collection::vec(dim_strategy(), 2..5),
    ) {
        let graph = star_graph(fact_rows as f64, &dims);
        let model = CostModel::new(&graph);
        for plan in enumerate_right_deep(&graph) {
            let with = model.cout(&plan, f64::INFINITY);
            let without = model.cout_physical(&PhysicalPlan::from_join_tree(&graph, &plan)).total;
            prop_assert!(with <= without * (1.0 + 1e-9) + 1e-9);
        }
    }
}
