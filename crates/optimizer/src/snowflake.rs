//! Algorithm 2: bitvector-aware join-order construction for an arbitrary
//! snowflake query with a single fact table.
//!
//! The candidate plans of Section 5 assume a clean snowflake with PKFK joins.
//! Real decision-support queries deviate from that pattern (non-key joins
//! with the fact, dimension "branches" joining each other, dimensions larger
//! than the fact table), so Algorithm 2 assigns every branch to one of four
//! priority groups (P0–P3) and uses the resulting order to construct the
//! linear candidate set, evaluating each candidate under the bitvector-aware
//! `Cout`:
//!
//! * **P3** — branches larger than the fact table: joined first (highest
//!   priority) with the build/probe sides swapped, so the fact's filter can
//!   reduce them.
//! * **P2** — groups of branches that connect to the fact through more than
//!   one relation (or branch into trees): joined consecutively so their
//!   internal filters can flow.
//! * **P1** — ordinary smaller-than-fact branches whose filters reach the
//!   fact table.
//! * **P0** — branches without a PKFK join to the fact (e.g. other fact
//!   tables): joined last.
//!
//! Within a group, branches are ordered by how strongly they reduce the fact
//! table (most selective first).
//!
//! Every candidate is built in one reused [`JoinTree`] and costed with
//! [`CostModel::cout`] bounded by the least cost so far: a candidate stops
//! being costed once it cannot win, and only a cheaper one is copied out.

use bqo_plan::{CostModel, JoinGraph, JoinTree, RelId, RelSet};

/// The priority group a branch falls into (Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum BranchGroup {
    /// No PKFK join with the fact table.
    P0,
    /// Ordinary branch, smaller than the fact.
    P1,
    /// Connected to the fact through multiple relations (or branching trees).
    P2,
    /// Contains a relation larger than the fact table.
    P3,
}

/// One branch of the (generalized) snowflake around the fact table:
/// a connected component of the join graph with the fact removed.
#[derive(Debug, Clone)]
pub(crate) struct BranchInfo {
    /// Relations of the branch in a join order that never introduces a cross
    /// product when appended after the fact table (each relation joins an
    /// earlier one or the fact).
    pub members: Vec<RelId>,
    /// Which group the branch belongs to.
    pub group: BranchGroup,
    /// Estimated fraction of fact rows kept after semi-joining with this
    /// branch (smaller = more selective).
    pub fact_keep_fraction: f64,
    /// Relations of the branch that join the fact table directly.
    pub fact_neighbors: Vec<RelId>,
    /// True when the branch is a simple chain hanging off the fact.
    pub is_chain: bool,
}

impl BranchInfo {
    /// Sorting priority: higher joins closer to the fact (earlier in the
    /// probe pipeline). Mirrors the priorities assigned in `SortBranches`.
    fn priority(&self, num_relations: usize) -> usize {
        match self.group {
            BranchGroup::P0 => 0,
            BranchGroup::P1 => 1,
            BranchGroup::P2 => 1 + self.fact_neighbors.len().max(2),
            BranchGroup::P3 => num_relations + 1,
        }
    }
}

/// Analyzes the branches of `subset` around `fact`.
pub(crate) fn analyze_branches(
    graph: &JoinGraph,
    cost_model: &CostModel<'_>,
    subset: RelSet,
    fact: RelId,
) -> Vec<BranchInfo> {
    let est = cost_model.estimator();
    let fact_rows = est.base_card(fact);
    let mut branches = Vec::new();
    for component in graph.components_excluding(fact) {
        let members = component & subset;
        let fact_neighbors: Vec<RelId> = (members & graph.neighbors(fact)).iter().collect();
        if fact_neighbors.is_empty() {
            // Outside the subset: the subsets Algorithm 3 passes are connected
            // through their facts, so the fact reaches all of their members.
            continue;
        }
        let ordered = connected_order(graph, members, &fact_neighbors);
        let keep = est.semijoin_keep_fraction(fact, members);
        let has_pkfk_to_fact = fact_neighbors.iter().any(|&r| graph.points_to(fact, r));
        let larger_than_fact = ordered.iter().any(|&r| est.base_card(r) > fact_rows);
        let is_chain = is_chain_branch(graph, &ordered, members, &fact_neighbors);
        let group = if !has_pkfk_to_fact {
            BranchGroup::P0
        } else if larger_than_fact {
            BranchGroup::P3
        } else if fact_neighbors.len() > 1 || !is_chain {
            BranchGroup::P2
        } else {
            BranchGroup::P1
        };
        branches.push(BranchInfo {
            members: ordered,
            group,
            fact_keep_fraction: keep,
            fact_neighbors,
            is_chain,
        });
    }
    branches
}

/// Orders a branch's relations so that the first relation joins the fact and
/// every later relation joins an earlier one (a "partially ordered" prefix in
/// the paper's terminology).
fn connected_order(graph: &JoinGraph, members: RelSet, fact_neighbors: &[RelId]) -> Vec<RelId> {
    let mut order = Vec::with_capacity(members.len());
    let mut placed = RelSet::default();
    let mut frontier: Vec<RelId> = fact_neighbors.to_vec();
    while let Some(next) = frontier.pop() {
        if !placed.insert(next) {
            continue;
        }
        order.push(next);
        frontier.extend(((graph.neighbors(next) & members) - placed).iter());
    }
    // Members the subset cuts off from the fact's neighbours keep their id
    // order at the end.
    order.extend((members - placed).iter());
    order
}

/// True when the branch is a chain: exactly one relation joins the fact, and
/// the branch's internal graph is a path starting there.
fn is_chain_branch(
    graph: &JoinGraph,
    ordered: &[RelId],
    members: RelSet,
    fact_neighbors: &[RelId],
) -> bool {
    let [root] = fact_neighbors else {
        return false;
    };
    ordered.iter().all(|r| {
        let limit = if r == root || Some(r) == ordered.last() {
            1
        } else {
            2
        };
        (graph.neighbors(*r) & members).len() <= limit
    })
}

/// Chain rotation `k` of Theorem 5.3: for a chain branch ordered
/// root-to-leaf `[R_{i,1}, ..., R_{i,n_i}]`, the prefixes worth trying when
/// the branch is joined *before* the fact are, for each k, `R_{i,k},
/// R_{i,k+1}, ..., R_{i,n_i}, R_{i,k-1}, ..., R_{i,1}`. Rotation 0 is the
/// branch itself.
fn chain_rotation(members: &[RelId], k: usize) -> impl Iterator<Item = RelId> + '_ {
    members[k..]
        .iter()
        .chain(members[..k].iter().rev())
        .copied()
}

/// Joins the branches (in the given order) on top of `plan`, a node of
/// `tree`. Relations larger than the fact table are placed on the probe side
/// instead of the build side (the P3 swap of Algorithm 2, line 12–13).
fn join_branches_onto<'b>(
    tree: &mut JoinTree,
    cost_model: &CostModel<'_>,
    fact: RelId,
    branches: impl Iterator<Item = &'b BranchInfo>,
    mut plan: usize,
) -> usize {
    let est = cost_model.estimator();
    let fact_rows = est.base_card(fact);
    for branch in branches {
        for &table in &branch.members {
            let leaf = tree.add_leaf(table);
            plan = if est.base_card(table) > fact_rows {
                // Larger than the fact: make it the probe side so the
                // accumulated plan (which contains the fact and its filters)
                // builds the hash table and creates the bitvector filter.
                tree.add_join(plan, leaf)
            } else {
                tree.add_join(leaf, plan)
            };
        }
    }
    plan
}

/// Builds every candidate plan Algorithm 2 considers for the relations in
/// `subset` (which must contain `fact` and be connected through it) and hands
/// each to `visit`, in the order [`optimize_snowflake`] costs them: a linear
/// number, one per choice of right-most leaf. Every candidate is built in
/// the same tree, cleared before each.
pub fn for_each_snowflake_candidate(
    graph: &JoinGraph,
    cost_model: &CostModel<'_>,
    subset: RelSet,
    fact: RelId,
    mut visit: impl FnMut(&JoinTree),
) {
    assert!(subset.contains(fact), "subset must contain the fact table");
    let mut branches = analyze_branches(graph, cost_model, subset, fact);
    // Sort by priority (descending), then by selectivity on the fact
    // (most reductive first).
    let n = subset.len();
    branches.sort_by(|a, b| {
        b.priority(n)
            .cmp(&a.priority(n))
            .then(a.fact_keep_fraction.total_cmp(&b.fact_keep_fraction))
    });

    // Candidate 1: fact table as the right-most leaf; all branches join onto
    // it in priority order.
    let mut tree = JoinTree::default();
    let plan = tree.add_leaf(fact);
    join_branches_onto(&mut tree, cost_model, fact, branches.iter(), plan);
    visit(&tree);

    // Candidates 2..: each branch in turn forms the bottom of the probe
    // pipeline (with its chain rotations), then the fact, then the remaining
    // branches in priority order.
    let est = cost_model.estimator();
    let fact_rows = est.base_card(fact);
    for (i, branch) in branches.iter().enumerate() {
        // A branch larger than the fact cannot profitably sit below the fact
        // on the probe side; Algorithm 2 handles it through the P3 swap above.
        if branch.members.iter().any(|&r| est.base_card(r) > fact_rows) {
            continue;
        }
        let rotations = if branch.is_chain {
            branch.members.len()
        } else {
            1
        };
        for k in 0..rotations {
            tree.clear();
            // Probe pipeline bottom: the branch prefix, then the fact table,
            // joined right-deep.
            let mut bottom = chain_rotation(&branch.members, k).chain([fact]);
            let mut plan = tree.add_leaf(bottom.next().expect("a branch has a member"));
            for r in bottom {
                let leaf = tree.add_leaf(r);
                plan = tree.add_join(leaf, plan);
            }
            // Then the remaining branches in priority order.
            let rest = branches
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, b)| b);
            join_branches_onto(&mut tree, cost_model, fact, rest, plan);
            visit(&tree);
        }
    }
}

/// Algorithm 2: constructs a bitvector-aware join order for the relations in
/// `subset` (which must contain `fact` and be connected through it).
/// Returns the first candidate of [`for_each_snowflake_candidate`] with the
/// least bitvector-aware `Cout`.
///
/// Each candidate is costed only until its running sum reaches the least
/// cost so far (the bound of [`CostModel::cout`]); a cheaper candidate is
/// copied into the one tree kept.
pub fn optimize_snowflake(
    graph: &JoinGraph,
    cost_model: &CostModel<'_>,
    subset: RelSet,
    fact: RelId,
) -> JoinTree {
    let mut best = JoinTree::default();
    let mut least: Option<f64> = None;
    for_each_snowflake_candidate(graph, cost_model, subset, fact, |tree| {
        let bound = least.unwrap_or(f64::INFINITY);
        let cost = cost_model.cout(tree, bound);
        if least.is_none() || cost < bound {
            least = Some(cost);
            best.clone_from(tree);
        }
    });
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::exhaustive_best_right_deep;
    use bqo_plan::{JoinEdge, JoinNode, RelationInfo};

    fn full_set(graph: &JoinGraph) -> RelSet {
        RelSet::first_n(graph.num_relations())
    }

    /// Clean star with mixed selectivities.
    fn star() -> (JoinGraph, RelId) {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        for (i, sel) in [0.01f64, 1.0, 0.3].into_iter().enumerate() {
            let rows = 1000.0;
            let d = g.add_relation(RelationInfo::new(format!("d{i}"), rows, rows * sel));
            g.add_edge(JoinEdge::pkfk(fact, format!("d{i}_sk"), d, "sk", rows));
        }
        (g, fact)
    }

    /// Snowflake with two chain branches.
    fn snowflake() -> (JoinGraph, RelId) {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 2_000_000.0, 2_000_000.0));
        let a1 = g.add_relation(RelationInfo::new("a1", 40_000.0, 40_000.0));
        let a2 = g.add_relation(RelationInfo::new("a2", 400.0, 20.0));
        let b1 = g.add_relation(RelationInfo::new("b1", 5000.0, 250.0));
        g.add_edge(JoinEdge::pkfk(fact, "a1_sk", a1, "sk", 40_000.0));
        g.add_edge(JoinEdge::pkfk(a1, "a2_sk", a2, "sk", 400.0));
        g.add_edge(JoinEdge::pkfk(fact, "b1_sk", b1, "sk", 5000.0));
        (g, fact)
    }

    /// Snowflake with a dimension branch larger than the fact (P3) and a
    /// non-PKFK neighbour (P0).
    fn irregular() -> (JoinGraph, RelId) {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 100_000.0, 100_000.0));
        let big = g.add_relation(RelationInfo::new("big_dim", 1_000_000.0, 900_000.0));
        let small = g.add_relation(RelationInfo::new("small_dim", 500.0, 25.0));
        let other_fact = g.add_relation(RelationInfo::new("other_fact", 300_000.0, 300_000.0));
        g.add_edge(JoinEdge::pkfk(fact, "big_sk", big, "sk", 1_000_000.0));
        g.add_edge(JoinEdge::pkfk(fact, "small_sk", small, "sk", 500.0));
        // Non-key join between the two facts.
        g.add_edge(JoinEdge::new(
            fact, other_fact, "k", "k", 10_000.0, 10_000.0, false, false,
        ));
        (g, fact)
    }

    #[test]
    fn star_branches_are_p1_chains() {
        let (g, fact) = star();
        let model = CostModel::new(&g);
        let branches = analyze_branches(&g, &model, full_set(&g), fact);
        assert_eq!(branches.len(), 3);
        for b in &branches {
            assert_eq!(b.group, BranchGroup::P1);
            assert!(b.is_chain);
            assert_eq!(b.members.len(), 1);
        }
        // The selective dimension has the smallest keep fraction.
        let min = branches
            .iter()
            .min_by(|a, b| a.fact_keep_fraction.total_cmp(&b.fact_keep_fraction))
            .unwrap();
        assert_eq!(&*g.relation(min.members[0]).name, "d0");
    }

    #[test]
    fn irregular_branches_get_p0_and_p3() {
        let (g, fact) = irregular();
        let model = CostModel::new(&g);
        let branches = analyze_branches(&g, &model, full_set(&g), fact);
        let group_of = |name: &str| {
            branches
                .iter()
                .find(|b| b.members.iter().any(|&r| *g.relation(r).name == *name))
                .map(|b| b.group)
                .unwrap()
        };
        assert_eq!(group_of("big_dim"), BranchGroup::P3);
        assert_eq!(group_of("small_dim"), BranchGroup::P1);
        assert_eq!(group_of("other_fact"), BranchGroup::P0);
    }

    #[test]
    fn star_result_matches_exhaustive_optimum() {
        let (g, fact) = star();
        let model = CostModel::new(&g);
        let tree = optimize_snowflake(&g, &model, full_set(&g), fact);
        assert!(tree.has_no_cross_products(&g));
        let cost = model.cout(&tree, f64::INFINITY);
        let (_, best) = exhaustive_best_right_deep(&g, &model, true).unwrap();
        assert!(
            cost <= best * (1.0 + 1e-9) + 1e-6,
            "algorithm 2 found {cost}, exhaustive {best}"
        );
    }

    #[test]
    fn snowflake_result_matches_exhaustive_optimum() {
        let (g, fact) = snowflake();
        let model = CostModel::new(&g);
        let tree = optimize_snowflake(&g, &model, full_set(&g), fact);
        assert!(tree.has_no_cross_products(&g));
        let cost = model.cout(&tree, f64::INFINITY);
        let (_, best) = exhaustive_best_right_deep(&g, &model, true).unwrap();
        assert!(cost <= best * (1.0 + 1e-9) + 1e-6);
    }

    #[test]
    fn irregular_graph_still_produces_valid_plan() {
        let (g, fact) = irregular();
        let model = CostModel::new(&g);
        let tree = optimize_snowflake(&g, &model, full_set(&g), fact);
        assert_eq!(tree.relation_set().len(), 4);
        assert!(tree.has_no_cross_products(&g));
    }

    #[test]
    fn large_dimension_is_not_used_as_build_side() {
        let (g, fact) = irregular();
        let model = CostModel::new(&g);
        let tree = optimize_snowflake(&g, &model, full_set(&g), fact);
        // Wherever the oversized dimension appears, it must be on the probe
        // side of its join.
        fn check(tree: &JoinTree, node: usize, g: &JoinGraph) {
            if let JoinNode::Join { build, probe } = tree.node(node) {
                if let JoinNode::Leaf(r) = tree.node(build) {
                    assert_ne!(
                        &*g.relation(r).name,
                        "big_dim",
                        "big_dim used as build side"
                    );
                }
                check(tree, build, g);
                check(tree, probe, g);
            }
        }
        check(&tree, tree.root(), &g);
    }

    #[test]
    fn single_relation_subset() {
        let (g, fact) = star();
        let model = CostModel::new(&g);
        let tree = optimize_snowflake(&g, &model, RelSet::single(fact), fact);
        assert_eq!(tree, JoinTree::leaf(fact));
    }

    #[test]
    fn chain_rotations_cover_every_rightmost_choice() {
        let members = vec![RelId(1), RelId(2), RelId(3)];
        let rotations: Vec<Vec<RelId>> = (0..members.len())
            .map(|k| chain_rotation(&members, k).collect())
            .collect();
        assert_eq!(rotations[0], vec![RelId(1), RelId(2), RelId(3)]);
        assert_eq!(rotations[1], vec![RelId(2), RelId(3), RelId(1)]);
        assert_eq!(rotations[2], vec![RelId(3), RelId(2), RelId(1)]);
    }
}
