//! Exhaustive enumeration of right-deep trees without cross products.
//!
//! This is the "original plan space" of Table 2: exponential in the number of
//! relations. It is used (a) by tests to verify that the linear candidate
//! sets of Theorems 4.1, 5.1 and 5.3 contain a minimum-cost plan, and (b) by
//! the Table 2 reproduction to count the plan-space sizes.

use bqo_plan::{CostModel, JoinGraph, JoinTree, PhysicalPlan, RelId, RelSet};

/// Enumerates every right-deep tree without cross products for the graph.
///
/// The number of such plans is exponential in the number of relations, so
/// callers should only use this for small queries (the tests use up to ~9
/// relations).
pub fn enumerate_right_deep(graph: &JoinGraph) -> Vec<JoinTree> {
    let all = RelSet::first_n(graph.num_relations());
    let mut plans = Vec::new();
    for first in all.iter() {
        let remaining = all - RelSet::single(first);
        extend(graph, &mut vec![first], remaining, &mut plans);
    }
    plans
}

/// Appends to `plans` every completion of `order` by the relations of
/// `remaining`.
fn extend(graph: &JoinGraph, order: &mut Vec<RelId>, remaining: RelSet, plans: &mut Vec<JoinTree>) {
    if remaining.is_empty() {
        plans.push(JoinTree::right_deep(order));
        return;
    }
    let prefix: RelSet = order.iter().copied().collect();
    for rel in remaining.iter() {
        if graph.neighbors(rel).intersects(prefix) {
            order.push(rel);
            extend(graph, order, remaining - RelSet::single(rel), plans);
            order.pop();
        }
    }
}

/// Finds a minimum-cost right-deep tree by exhaustive enumeration, under the
/// bitvector-aware `Cout` (or the plain one, of the lowered tree, when
/// `with_bitvectors` is false). Returns the first cheapest tree and its cost.
pub fn exhaustive_best_right_deep(
    graph: &JoinGraph,
    cost_model: &CostModel<'_>,
    with_bitvectors: bool,
) -> Option<(JoinTree, f64)> {
    let mut best: Option<(JoinTree, f64)> = None;
    for plan in enumerate_right_deep(graph) {
        let cost = if with_bitvectors {
            cost_model.cout(&plan, f64::INFINITY)
        } else {
            let lowered = PhysicalPlan::from_join_tree(graph, &plan);
            cost_model.cout_physical(&lowered).total
        };
        match &best {
            Some((_, c)) if *c <= cost => {}
            _ => best = Some((plan, cost)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_plan::{JoinEdge, RelationInfo};

    fn star(n_dims: usize) -> JoinGraph {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        for i in 0..n_dims {
            let rows = 100.0 * (i as f64 + 1.0);
            let d = g.add_relation(RelationInfo::new(
                format!("d{i}"),
                rows,
                rows / (i as f64 + 2.0),
            ));
            g.add_edge(JoinEdge::pkfk(fact, format!("d{i}_sk"), d, "sk", rows));
        }
        g
    }

    fn chain(n: usize) -> JoinGraph {
        let mut g = JoinGraph::new();
        let mut prev = g.add_relation(RelationInfo::new("r0", 100_000.0, 100_000.0));
        for i in 1..n {
            let rows = (100_000.0 / 10f64.powi(i as i32)).max(10.0);
            let r = g.add_relation(RelationInfo::new(format!("r{i}"), rows, rows / 2.0));
            g.add_edge(JoinEdge::pkfk(prev, format!("r{i}_sk"), r, "sk", rows));
            prev = r;
        }
        g
    }

    /// Star with n dimensions: any permutation with the fact as right-most
    /// leaf (n! plans) plus, for each dimension as right-most leaf, the fact
    /// must come second and the rest is free ((n-1)! each): n! + n·(n-1)! =
    /// 2·n! plans.
    #[test]
    fn star_plan_count_is_exponential() {
        for n in 2..=5usize {
            let g = star(n);
            let expected = 2 * (1..=n).product::<usize>();
            assert_eq!(enumerate_right_deep(&g).len(), expected, "n = {n}");
        }
    }

    /// A chain of n relations has exactly n(n-1)/2 + 1 right-deep orders...
    /// actually the count for a path graph is 2^(n-1) (each step of the
    /// incremental construction extends the connected interval at one of its
    /// two ends, except the first pick which is free within the interval).
    #[test]
    fn chain_plan_count_matches_interval_argument() {
        // For a path of n vertices the number of connected-prefix
        // permutations ("right-deep orders without cross products") is
        // 2^(n-1): the prefix is always a contiguous interval containing the
        // first vertex, and each subsequent relation extends it left or right.
        // Summed over all possible first vertices this gives ... simply check
        // against brute force for small n computed independently.
        let expected: [usize; 4] = [2, 4, 8, 16]; // n = 2, 3, 4, 5
        for (i, n) in (2..=5usize).enumerate() {
            let g = chain(n);
            assert_eq!(enumerate_right_deep(&g).len(), expected[i], "n = {n}");
        }
    }

    #[test]
    fn all_enumerated_plans_are_valid() {
        let g = star(4);
        let plans = enumerate_right_deep(&g);
        for p in &plans {
            assert!(p.has_no_cross_products(&g), "{p}");
            assert_eq!(p.relation_set().len(), 5);
        }
        // No duplicates.
        let mut orders: Vec<Vec<RelId>> = plans
            .iter()
            .map(|p| {
                p.right_deep_order()
                    .expect("enumerated plans are right-deep")
            })
            .collect();
        orders.sort();
        orders.dedup();
        assert_eq!(orders.len(), plans.len());
    }

    #[test]
    fn exhaustive_best_finds_cheaper_plan_with_bitvectors() {
        let g = star(3);
        let model = CostModel::new(&g);
        let (_, best_bv) = exhaustive_best_right_deep(&g, &model, true).unwrap();
        let (_, best_plain) = exhaustive_best_right_deep(&g, &model, false).unwrap();
        assert!(best_bv <= best_plain);
    }

    #[test]
    fn single_relation_graph() {
        let mut g = JoinGraph::new();
        g.add_relation(RelationInfo::new("only", 10.0, 10.0));
        assert_eq!(enumerate_right_deep(&g).len(), 1);
        let model = CostModel::new(&g);
        let (plan, cost) = exhaustive_best_right_deep(&g, &model, true).unwrap();
        assert_eq!(plan, JoinTree::leaf(RelId(0)));
        assert!((cost - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_has_no_plans() {
        let g = JoinGraph::new();
        assert!(enumerate_right_deep(&g).is_empty());
        let model = CostModel::new(&g);
        assert!(exhaustive_best_right_deep(&g, &model, true).is_none());
    }
}
