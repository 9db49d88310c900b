//! Baseline join-order optimization: dynamic programming over connected
//! subgraphs (exact, exponential) and a greedy fallback for very large
//! queries.
//!
//! This models the paper's baseline ("the original Microsoft SQL Server"
//! without bitvector-aware join ordering): a cost-based optimizer that
//! minimizes plain `Cout` — the effect of bitvector filters is *not* part of
//! the cost — over bushy trees without cross products.
//!
//! # The DP table
//!
//! The DP keeps one dense `Vec<(f64, u32)>` with `2^n` slots, indexed by the
//! subset's membership mask (bit `i` = `RelId(i)`, the bits of a
//! [`RelSet`]). A slot holds the `Cout` of the best subplan for that
//! subset and the mask of that subplan's *build side*; `(INFINITY, 0)` marks a
//! subset with no cross-product-free plan (exactly the disconnected ones), and
//! a single relation is its own build side. A split of a set into build and
//! probe costs `table[build] + table[probe] + join_card(set)`, added in that
//! order. No tree is built while the table fills: the winning splits are
//! pushed into one [`JoinTree`] at the end.
//!
//! # DPccp
//!
//! The table is filled by DPccp (Moerkotte & Neumann, VLDB 2006), which
//! enumerates only *csg-cmp pairs*: two disjoint connected sets joined by an
//! edge, each unordered pair once, every pair after the pairs of its two
//! halves. A set is never visited for a split that would be a cross product,
//! so there is no connectivity test and no walk over submasks: on a
//! snowflake, the pairs are a small fraction of the `3^n` (set, submask)
//! steps of DPsub, the loop it replaced. Join cardinalities go into a second
//! dense table the first time a pair forms their set, so the estimator's memo
//! never sees the DP's sets.
//!
//! **Tie-break.** Plain `Cout` does not tell build from probe, so of a pair
//! the numerically larger mask builds, and among equal-cost splits of a set
//! the numerically larger build mask wins. That is the rule DPsub's visiting
//! order implied (build sides in descending mask order, first of equal costs
//! kept, the walk stopped at the mirror images), so DPccp returns DPsub's
//! tree, not just one of the same cost; the unit test
//! `dp_tree_is_the_dpsub_tree` holds the two to that on random connected
//! graphs of up to 12 relations with tied cardinalities, and `plan_golden`
//! pins the resulting plans. (The rule reads costs as finite, which they are
//! for up to 12 relations of at most `u64::MAX` rows each.)
//!
//! What it costs (`cargo run --release --example optimizer_phases`, 2-thread
//! host, mean over ten 12-relation `[3, 3, 3, 2]` snowflake queries): about
//! 20 µs per call, where DPsub over the same 4 096-slot, 64 KiB table took
//! about 105 µs, and the `HashMap<RelSet, (f64, JoinTree)>` with two tree
//! clones per improving split before that 1.8–2.0 ms.

use bqo_plan::{CardinalityEstimator, CostModel, JoinGraph, JoinTree, RelId, RelSet};

/// Queries with more relations than this get the greedy tree instead of the
/// exact one: the DP table has a slot for every subset of the relations.
///
/// At 12 relations that is a 4 096-slot table and about 20 µs on the
/// benchmark's snowflakes (see the module docs), so time no longer argues for
/// this value. But the limit decides *which* tree the conventional optimizer
/// — and with it the Section 6.4 alternative plan — picks for larger
/// queries: raising it changes plans, so it stays where `plan_golden` was
/// blessed until an issue sets out to move them.
const DP_RELATION_LIMIT: usize = 12;

/// The join tree a conventional optimizer picks: minimum plain `Cout` over
/// bushy trees without cross products, exact up to `DP_RELATION_LIMIT` (12)
/// relations and greedy beyond.
///
/// # Panics
/// Panics if the graph is empty or disconnected (a disconnected query would
/// need cross products).
pub fn conventional_tree(graph: &JoinGraph, cost_model: &CostModel<'_>) -> JoinTree {
    if graph.num_relations() <= DP_RELATION_LIMIT {
        dp_tree(graph, cost_model)
    } else {
        greedy_tree(graph, cost_model)
    }
}

/// The exact minimum: DPccp over connected pairs (see the module docs).
fn dp_tree(graph: &JoinGraph, cost_model: &CostModel<'_>) -> JoinTree {
    let n = graph.num_relations();
    assert!(n > 0, "cannot optimize an empty join graph");
    assert!(
        graph.is_connected(),
        "disconnected join graphs require cross products, which are not supported"
    );

    let est = cost_model.estimator();
    let mut dp = ConnectedPairs {
        est,
        neighbors: graph
            .relation_ids()
            .map(|r| mask_of(graph.neighbors(r)))
            .collect(),
        table: vec![(f64::INFINITY, 0); 1 << n],
        outputs: vec![0.0; 1 << n],
    };
    for r in graph.relation_ids() {
        dp.table[1 << r.0] = (est.base_card(r), 1 << r.0);
    }
    // DPccp: every connected set, grown from its lowest relation, with the
    // relations below that one excluded so each is reached once; starting
    // from the highest relation makes every complement (whose relations all
    // lie above the set's lowest one) final beforehand.
    for v in (0..n).rev() {
        let start = 1 << v;
        dp.pairs_with(start);
        dp.grow(start, (start << 1) - 1, None);
    }
    let full: u32 = (1 << n) - 1;
    assert!(
        dp.table[full as usize].1 != 0,
        "connected graph always has a cross-product-free plan"
    );
    let mut tree = JoinTree::default();
    push_subtree(&dp.table, full, &mut tree);
    tree
}

/// The membership mask of a set of at most 20 relations.
fn mask_of(set: RelSet) -> u32 {
    u32::try_from(set.0).expect("the DP covers at most 20 relations")
}

/// The state of one [`dp_tree`] call: the DPccp enumeration of Moerkotte &
/// Neumann (VLDB 2006) over the dense table.
struct ConnectedPairs<'e, 'a> {
    est: &'e CardinalityEstimator<'a>,
    /// Per relation, the mask of its neighbours.
    neighbors: Vec<u32>,
    /// `table[mask]` = (cost, build side of the best split); see the module
    /// docs.
    table: Vec<(f64, u32)>,
    /// `outputs[mask]` = the join cardinality of the set, computed the first
    /// time a pair forms the set; the estimator's memo never sees the DP's
    /// sets.
    outputs: Vec<f64>,
}

impl ConnectedPairs<'_, '_> {
    /// The relations outside `set` that share an edge with it.
    fn neighborhood(&self, set: u32) -> u32 {
        let (mut all, mut rest) = (0, set);
        while rest != 0 {
            all |= self.neighbors[rest.trailing_zeros() as usize];
            rest &= rest - 1;
        }
        all & !set
    }

    /// EnumerateCsgRec: every connected set that grows `set` by relations
    /// outside `excluded`, each once. Without a `partner` each is a new
    /// connected set, and its pairs are enumerated; with one, each is a
    /// complement of the partner, and the pair is joined. Both loops take the
    /// frontier's subsets in ascending mask order, so a set is reached after
    /// every connected subset of it that contains `set`.
    fn grow(&mut self, set: u32, excluded: u32, partner: Option<u32>) {
        let frontier = self.neighborhood(set) & !excluded;
        let mut sub = 0u32;
        loop {
            sub = sub.wrapping_sub(frontier) & frontier;
            if sub == 0 {
                break;
            }
            match partner {
                None => self.pairs_with(set | sub),
                Some(partner) => self.join(partner, set | sub),
            }
        }
        loop {
            sub = sub.wrapping_sub(frontier) & frontier;
            if sub == 0 {
                break;
            }
            self.grow(set | sub, excluded | frontier, partner);
        }
    }

    /// EnumerateCmp: joins the connected set `set` with every connected,
    /// adjacent complement whose relations all lie above its lowest one.
    fn pairs_with(&mut self, set: u32) {
        let excluded = set | ((2 << set.trailing_zeros()) - 1);
        let frontier = self.neighborhood(set) & !excluded;
        let mut rest = frontier;
        while rest != 0 {
            let start = 1 << (31 - rest.leading_zeros());
            rest &= !start;
            self.join(set, start);
            self.grow(start, excluded | (frontier & ((start << 1) - 1)), Some(set));
        }
    }

    /// Offers the split of `a | b` into `a` and `b`: the larger mask builds,
    /// and among equal costs the larger build mask wins.
    fn join(&mut self, a: u32, b: u32) {
        let (build, probe) = (a.max(b), a.min(b));
        let set = (a | b) as usize;
        if self.table[set].1 == 0 {
            self.outputs[set] = self.est.join_card_uncached(RelSet(u128::from(a | b)));
        }
        let cost = self.table[build as usize].0 + self.table[probe as usize].0 + self.outputs[set];
        let best = &mut self.table[set];
        if best.1 == 0 || cost < best.0 || (cost == best.0 && build > best.1) {
            *best = (cost, build);
        }
    }
}

/// Adds the tree the finished table describes for `mask` to `tree`: a leaf
/// where the subset is its own build side, otherwise the join of its two
/// halves. Returns its node.
fn push_subtree(table: &[(f64, u32)], mask: u32, tree: &mut JoinTree) -> usize {
    let build = table[mask as usize].1;
    if build == mask {
        tree.add_leaf(RelId(mask.trailing_zeros() as usize))
    } else {
        let build_node = push_subtree(table, build, tree);
        let probe_node = push_subtree(table, mask ^ build, tree);
        tree.add_join(build_node, probe_node)
    }
}

/// The greedy tree (GOO-style): repeatedly joins the pair of plan fragments
/// with the smallest estimated result, the first such pair in `(i, j)` order
/// over the fragment list, for queries too large for the DP (the
/// CUSTOMER-like workload reaches 80 joins).
///
/// A fragment keeps its neighbours and its cardinality, and a pair's join
/// cardinality is looked up once, when the later of its two fragments is
/// made, into a table indexed by the two fragments' tree nodes. So a round
/// costs one scan of the fragment pairs, an adjacency test and a table read
/// each, plus one lookup per fragment adjacent to the new one, where every
/// round used to ask the graph and the estimator about every pair.
fn greedy_tree(graph: &JoinGraph, cost_model: &CostModel<'_>) -> JoinTree {
    let est = cost_model.estimator();
    let mut tree = JoinTree::default();
    let mut fragments: Vec<Fragment> = Vec::with_capacity(graph.num_relations());
    // `pairs[a * nodes + b]`: the join cardinality of the fragments at tree
    // nodes `a` and `b`, once both exist, if they are adjacent.
    let nodes = 2 * graph.num_relations();
    let mut pairs = vec![0.0; nodes * nodes];
    let add = |fragments: &mut Vec<Fragment>, pairs: &mut [f64], new: Fragment| {
        for other in fragments.iter() {
            if new.neighbors.intersects(other.rels) {
                let card = est.join_card(new.rels | other.rels);
                pairs[new.node * nodes + other.node] = card;
                pairs[other.node * nodes + new.node] = card;
            }
        }
        fragments.push(new);
    };
    for r in graph.relation_ids() {
        let leaf = Fragment {
            rels: RelSet::single(r),
            neighbors: graph.neighbors(r),
            card: est.base_card(r),
            node: tree.add_leaf(r),
        };
        add(&mut fragments, &mut pairs, leaf);
    }
    while fragments.len() > 1 {
        let mut best_pair: Option<(usize, usize, f64)> = None;
        for (i, fragment) in fragments.iter().enumerate() {
            for (j, other) in fragments.iter().enumerate().skip(i + 1) {
                if !fragment.neighbors.intersects(other.rels) {
                    continue;
                }
                let card = pairs[fragment.node * nodes + other.node];
                if best_pair.map(|(_, _, c)| card < c).unwrap_or(true) {
                    best_pair = Some((i, j, card));
                }
            }
        }
        let (i, j, card) = best_pair
            .expect("disconnected join graphs require cross products, which are not supported");
        let b = fragments.swap_remove(j);
        let a = fragments.swap_remove(i.min(fragments.len()));
        // Keep the smaller side as the hash-join build input.
        let (build, probe) = if a.card <= b.card {
            (a.node, b.node)
        } else {
            (b.node, a.node)
        };
        let joined = Fragment {
            rels: a.rels | b.rels,
            neighbors: a.neighbors | b.neighbors,
            card,
            node: tree.add_join(build, probe),
        };
        add(&mut fragments, &mut pairs, joined);
    }
    tree
}

/// A plan fragment of [`greedy_tree`]: its relations, their neighbours, its
/// estimated cardinality and its node in the tree being built.
struct Fragment {
    rels: RelSet,
    neighbors: RelSet,
    card: f64,
    node: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::exhaustive_best_right_deep;
    use bqo_plan::{JoinEdge, JoinNode, PhysicalPlan, RelationInfo};
    use proptest::prelude::*;

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
        let tree = dp_tree(&g, &model);
        assert_eq!(tree.relation_set().len(), 5);
        assert!(tree.has_no_cross_products(&g));
    }

    #[test]
    fn dp_is_at_least_as_good_as_exhaustive_right_deep_without_bitvectors() {
        // The DP searches bushy trees, a superset of right-deep trees, so its
        // plain-Cout optimum can only be better or equal.
        for g in [star(&[0.2, 0.7, 0.05]), chain(5)] {
            let model = CostModel::new(&g);
            let tree = dp_tree(&g, &model);
            let dp_cost = plain_cout(&g, &tree);
            let (_, rd_cost) = exhaustive_best_right_deep(&g, &model, false).unwrap();
            assert!(dp_cost <= rd_cost + 1e-6, "dp {dp_cost} vs rd {rd_cost}");
        }
    }

    /// The least `Cout` over every cross-product-free bushy tree of `set`, both
    /// build/probe orientations of every split, summed the way the DP sums it;
    /// `None` if `set` has no such tree.
    fn brute_force_min(graph: &JoinGraph, model: &CostModel<'_>, set: RelSet) -> Option<f64> {
        if set.len() == 1 {
            return set.first().map(|r| model.estimator().base_card(r));
        }
        let mut least: Option<f64> = None;
        for sub in 1..set.0 {
            let (build, probe) = (RelSet(sub), set - RelSet(sub));
            if !build.is_subset(set) || !graph.are_joined(build, probe) {
                continue;
            }
            if let (Some(build_cost), Some(probe_cost)) = (
                brute_force_min(graph, model, build),
                brute_force_min(graph, model, probe),
            ) {
                let cost = build_cost + probe_cost + model.estimator().join_card(set);
                least = Some(least.map_or(cost, |l| l.min(cost)));
            }
        }
        least
    }

    /// Plain `Cout` of `tree`: lowered, costed without filters.
    fn plain_cout(graph: &JoinGraph, tree: &JoinTree) -> f64 {
        let model = CostModel::new(graph);
        model
            .cout_physical(&PhysicalPlan::from_join_tree(graph, tree))
            .total
    }

    /// `Cout` of the subtree under `node`, summed the way the DP sums it, and
    /// its relations.
    fn dp_order_cout(model: &CostModel<'_>, tree: &JoinTree, node: usize) -> (f64, RelSet) {
        match tree.node(node) {
            JoinNode::Leaf(r) => (model.estimator().base_card(r), RelSet::single(r)),
            JoinNode::Join { build, probe } => {
                let (build_cost, build_rels) = dp_order_cout(model, tree, build);
                let (probe_cost, probe_rels) = dp_order_cout(model, tree, probe);
                let rels = build_rels | probe_rels;
                (
                    build_cost + probe_cost + model.estimator().join_card(rels),
                    rels,
                )
            }
        }
    }

    /// A connected graph of `cards.len()` relations: a chain, a star, a random
    /// tree (snowflakes included) or a random tree closed into a cycle by one
    /// non-key edge. Cardinalities come from a three-value palette, so equal
    /// relations — and with them exactly tied plans — are the common case.
    fn random_graph(shape: usize, cards: &[(usize, usize)], picks: &[usize]) -> JoinGraph {
        const ROWS: [f64; 3] = [10.0, 1000.0, 100_000.0];
        const KEEP: [f64; 3] = [1.0, 0.5, 0.01];
        let mut g = JoinGraph::new();
        for (i, &(rows, keep)) in cards.iter().enumerate() {
            let rows = ROWS[rows % 3];
            let info = RelationInfo::new(format!("r{i}"), rows, rows * KEEP[keep % 3]);
            let rel = g.add_relation(info);
            if i > 0 {
                let parent = RelId(match shape % 4 {
                    0 => i - 1,
                    1 => 0,
                    _ => picks[i] % i,
                });
                g.add_edge(JoinEdge::pkfk(parent, format!("fk{i}"), rel, "sk", rows));
            }
        }
        if shape % 4 == 3 {
            let n = cards.len();
            let apart = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (RelId(a), RelId(b))))
                .filter(|&(a, b)| !g.are_adjacent(a, b))
                .nth(picks[0] % n);
            if let Some((a, b)) = apart {
                g.add_edge(JoinEdge::new(a, b, "x", "y", 50.0, 50.0, false, false));
            }
        }
        g
    }

    /// DPsub, the conventional DP before DPccp, kept as the reference for its
    /// trees: every subset in ascending mask order, every build side of it in
    /// descending mask order down to the mirror images, the first of equal
    /// costs kept.
    fn dpsub_tree(graph: &JoinGraph, model: &CostModel<'_>) -> JoinTree {
        let (n, est) = (graph.num_relations(), model.estimator());
        let full: u32 = (1 << n) - 1;
        let mut table = vec![(f64::INFINITY, 0u32); 1 << n];
        for r in graph.relation_ids() {
            table[1 << r.0] = (est.base_card(r), 1 << r.0);
        }
        for mask in 1..=full {
            let set = RelSet(u128::from(mask));
            if mask.count_ones() < 2 || !graph.is_connected_subset(set) {
                continue;
            }
            let output = est.join_card(set);
            let mut best_here = (f64::INFINITY, 0u32);
            let mut sub = (mask - 1) & mask;
            while sub > mask ^ sub {
                let rest = mask ^ sub;
                if table[sub as usize].1 != 0
                    && table[rest as usize].1 != 0
                    && graph.are_joined(RelSet(u128::from(sub)), RelSet(u128::from(rest)))
                {
                    let cost = table[sub as usize].0 + table[rest as usize].0 + output;
                    if best_here.1 == 0 || cost < best_here.0 {
                        best_here = (cost, sub);
                    }
                }
                sub = (sub - 1) & mask;
            }
            table[mask as usize] = best_here;
        }
        let mut tree = JoinTree::default();
        push_subtree(&table, full, &mut tree);
        tree
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// DPccp keeps DPsub's tie-break, so it returns DPsub's tree, not
        /// just a tree of the same cost — on the tie-heavy palette, where
        /// equal-cost splits are the common case.
        #[test]
        fn dp_tree_is_the_dpsub_tree(
            shape in 0usize..4,
            cards in prop::collection::vec((0usize..3, 0usize..3), 1..13),
            picks in prop::collection::vec(0usize..1000, 12..13),
        ) {
            let g = random_graph(shape, &cards, &picks);
            let tree = dp_tree(&g, &CostModel::new(&g));
            prop_assert_eq!(tree, dpsub_tree(&g, &CostModel::new(&g)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn dp_tree_is_a_brute_force_minimum(
            shape in 0usize..4,
            cards in prop::collection::vec((0usize..3, 0usize..3), 2..8),
            picks in prop::collection::vec(0usize..1000, 8..9),
        ) {
            let g = random_graph(shape, &cards, &picks);
            let model = CostModel::new(&g);
            let tree = dp_tree(&g, &model);
            let all = RelSet::first_n(g.num_relations());
            prop_assert_eq!(tree.relation_set(), all);
            prop_assert_eq!(tree.num_joins() + 1, g.num_relations());
            prop_assert!(tree.has_no_cross_products(&g));
            let least = brute_force_min(&g, &CostModel::new(&g), all);
            prop_assert_eq!(Some(dp_order_cout(&model, &tree, tree.root()).0), least);
            // The cost model adds the same cardinalities up in another order.
            let reported = plain_cout(&g, &tree);
            let least = least.unwrap_or(f64::NAN);
            prop_assert!((reported - least).abs() <= least * 1e-12, "{reported} vs {least}");
        }
    }

    /// The greedy loop before the pair cache, kept as the reference for its
    /// trees: every round asks the graph whether each fragment pair is
    /// joined and the estimator for each joined pair's cardinality.
    fn reference_greedy_tree(graph: &JoinGraph, cost_model: &CostModel<'_>) -> JoinTree {
        let est = cost_model.estimator();
        let mut tree = JoinTree::default();
        let mut fragments: Vec<(RelSet, usize)> = graph
            .relation_ids()
            .map(|r| (RelSet::single(r), tree.add_leaf(r)))
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
            let (i, j, _) = best_pair.expect("connected");
            let (set_j, node_j) = fragments.swap_remove(j);
            let (set_i, node_i) = fragments.swap_remove(i.min(fragments.len()));
            let (build, probe) = if est.join_card(set_i) <= est.join_card(set_j) {
                (node_i, node_j)
            } else {
                (node_j, node_i)
            };
            fragments.push((set_i | set_j, tree.add_join(build, probe)));
        }
        tree
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The pair cache changes what the greedy looks up, not what it
        /// picks: the same tree as the reference loop, on the tie-heavy
        /// palette where equal pair cardinalities make the `(i, j)` scan
        /// order and the strict `<` decide.
        #[test]
        fn greedy_tree_is_the_reference_greedy(
            shape in 0usize..4,
            cards in prop::collection::vec((0usize..3, 0usize..3), 1..30),
            picks in prop::collection::vec(0usize..1000, 30..31),
        ) {
            let g = random_graph(shape, &cards, &picks);
            let tree = greedy_tree(&g, &CostModel::new(&g));
            prop_assert_eq!(tree, reference_greedy_tree(&g, &CostModel::new(&g)));
        }
    }

    #[test]
    fn greedy_plan_is_valid_and_close_to_dp_on_small_graphs() {
        let g = star(&[0.1, 0.5, 1.0, 0.01, 0.3]);
        let model = CostModel::new(&g);
        let greedy = greedy_tree(&g, &model);
        assert_eq!(greedy.relation_set().len(), 6);
        assert!(greedy.has_no_cross_products(&g));
        let dp = dp_tree(&g, &model);
        let greedy_cost = plain_cout(&g, &greedy);
        let dp_cost = plain_cout(&g, &dp);
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
        let tree = greedy_tree(&g, &model);
        assert_eq!(tree.relation_set().len(), 30);
        assert!(tree.has_no_cross_products(&g));
    }

    #[test]
    fn single_relation_graphs() {
        let mut g = JoinGraph::new();
        g.add_relation(RelationInfo::new("only", 42.0, 42.0));
        let model = CostModel::new(&g);
        assert_eq!(dp_tree(&g, &model), JoinTree::leaf(RelId(0)));
        assert_eq!(greedy_tree(&g, &model), JoinTree::leaf(RelId(0)));
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn dp_rejects_disconnected_graphs() {
        let mut g = JoinGraph::new();
        g.add_relation(RelationInfo::new("a", 10.0, 10.0));
        g.add_relation(RelationInfo::new("b", 10.0, 10.0));
        let model = CostModel::new(&g);
        dp_tree(&g, &model);
    }

    #[test]
    fn two_relation_join_builds_from_smaller_side_in_greedy() {
        let mut g = JoinGraph::new();
        let big = g.add_relation(RelationInfo::new("big", 100_000.0, 100_000.0));
        let small = g.add_relation(RelationInfo::new("small", 100.0, 10.0));
        g.add_edge(JoinEdge::pkfk(big, "s_sk", small, "sk", 100.0));
        let model = CostModel::new(&g);
        let tree = greedy_tree(&g, &model);
        assert_eq!(
            tree,
            JoinTree::join(JoinTree::leaf(small), JoinTree::leaf(big))
        );
    }
}
