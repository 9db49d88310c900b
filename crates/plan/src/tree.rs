//! Join-tree representations.
//!
//! The paper's analysis targets *right-deep trees without cross products*:
//! every hash join's build side is a base relation and the probe side is the
//! rest of the pipeline. [`RightDeepTree`] captures exactly that shape with
//! the paper's `T(X_0, X_1, ..., X_n)` notation (`X_0` is the right-most
//! leaf, i.e. the bottom of the probe pipeline; `X_1..X_n` are the build
//! sides from the bottom join to the top join).
//!
//! [`JoinTree`] is the general binary-tree shape produced by the baseline
//! dynamic-programming optimizer (it can be left-deep, right-deep or bushy).
//!
//! [`TreeArena`] holds join trees flat in one reusable buffer: the optimizers
//! build every candidate plan there, cost it without allocating, and turn only
//! the winner into a [`JoinTree`].

use crate::cost::TreeFilter;
use crate::graph::{JoinGraph, RelId};
use crate::relset::RelSet;
use std::fmt;

/// A right-deep tree in the paper's `T(X_0, ..., X_n)` notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RightDeepTree {
    order: Vec<RelId>,
}

impl RightDeepTree {
    /// Creates a right-deep tree from the paper's order notation.
    ///
    /// # Panics
    /// Panics if the order is empty or contains duplicates.
    pub fn new(order: Vec<RelId>) -> Self {
        assert!(
            !order.is_empty(),
            "a plan must contain at least one relation"
        );
        let distinct: RelSet = order.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            order.len(),
            "duplicate relation in plan order"
        );
        RightDeepTree { order }
    }

    /// The order `X_0, X_1, ..., X_n` (right-most leaf first).
    pub fn order(&self) -> &[RelId] {
        &self.order
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the plan has a single relation (no joins).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of joins in the plan.
    pub fn num_joins(&self) -> usize {
        self.order.len().saturating_sub(1)
    }

    /// The set of relations in the plan.
    pub fn relation_set(&self) -> RelSet {
        self.order.iter().copied().collect()
    }

    /// Checks that the plan has no cross products with respect to a join
    /// graph: every build relation `X_i` (i >= 1) must join with at least one
    /// relation in the prefix `{X_0, ..., X_{i-1}}`.
    pub fn has_no_cross_products(&self, graph: &JoinGraph) -> bool {
        let mut prefix = RelSet::single(self.order[0]);
        for &rel in &self.order[1..] {
            if !graph.neighbors(rel).intersects(prefix) {
                return false;
            }
            prefix.insert(rel);
        }
        true
    }

    /// Converts to the general [`JoinTree`] form: `((...((X_1 ⋈ X_0)) ...)`,
    /// where at each level the new relation is the *left* (build) input.
    pub fn to_join_tree(&self) -> JoinTree {
        let mut tree = JoinTree::Leaf(self.order[0]);
        for &rel in &self.order[1..] {
            tree = JoinTree::join(JoinTree::Leaf(rel), tree);
        }
        tree
    }
}

impl fmt::Display for RightDeepTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T(")?;
        for (i, r) in self.order.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

/// A general binary join tree. The left child of a join is the hash-join
/// build side; the right child is the probe side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinTree {
    /// A base relation.
    Leaf(RelId),
    /// A hash join of two subtrees.
    Join {
        /// Build-side subtree (hashed at open).
        build: Box<JoinTree>,
        /// Probe-side subtree (streamed).
        probe: Box<JoinTree>,
    },
}

impl JoinTree {
    /// Creates a join node.
    pub fn join(build: JoinTree, probe: JoinTree) -> Self {
        JoinTree::Join {
            build: Box::new(build),
            probe: Box::new(probe),
        }
    }

    /// All relations in the subtree.
    pub fn relation_set(&self) -> RelSet {
        match self {
            JoinTree::Leaf(r) => RelSet::single(*r),
            JoinTree::Join { build, probe } => build.relation_set() | probe.relation_set(),
        }
    }

    /// Number of relations in the subtree.
    pub fn num_relations(&self) -> usize {
        match self {
            JoinTree::Leaf(_) => 1,
            JoinTree::Join { build, probe } => build.num_relations() + probe.num_relations(),
        }
    }

    /// Number of join operators in the subtree.
    pub fn num_joins(&self) -> usize {
        match self {
            JoinTree::Leaf(_) => 0,
            JoinTree::Join { build, probe } => 1 + build.num_joins() + probe.num_joins(),
        }
    }

    /// True when the tree is right-deep: every build side is a leaf.
    pub fn is_right_deep(&self) -> bool {
        match self {
            JoinTree::Leaf(_) => true,
            JoinTree::Join { build, probe } => {
                matches!(**build, JoinTree::Leaf(_)) && probe.is_right_deep()
            }
        }
    }

    /// True when the tree is left-deep: every probe side is a leaf.
    pub fn is_left_deep(&self) -> bool {
        match self {
            JoinTree::Leaf(_) => true,
            JoinTree::Join { build, probe } => {
                matches!(**probe, JoinTree::Leaf(_)) && build.is_left_deep()
            }
        }
    }

    /// Checks that no join in the tree is a cross product with respect to the
    /// join graph (each join's two input relation sets must share an edge).
    pub fn has_no_cross_products(&self, graph: &JoinGraph) -> bool {
        match self {
            JoinTree::Leaf(_) => true,
            JoinTree::Join { build, probe } => {
                graph.are_joined(build.relation_set(), probe.relation_set())
                    && build.has_no_cross_products(graph)
                    && probe.has_no_cross_products(graph)
            }
        }
    }
}

impl fmt::Display for JoinTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinTree::Leaf(r) => write!(f, "{r}"),
            JoinTree::Join { build, probe } => write!(f, "({build} ⋈ {probe})"),
        }
    }
}

/// A node of a [`TreeArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaNode(usize);

impl ArenaNode {
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// One node of a tree in a [`TreeArena`]: its shape and its relations.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArenaEntry {
    pub(crate) rels: RelSet,
    pub(crate) join: Option<(ArenaNode, ArenaNode)>,
}

/// Join trees stored flat: nodes are pushed children first and name their
/// children by index, so building a tree allocates nothing once the buffer
/// has grown, and [`TreeArena::clear`] makes it ready for the next tree.
///
/// It also holds the scratch space
/// [`CostModel::cout_with_bitvectors_below`](crate::CostModel::cout_with_bitvectors_below)
/// routes filters through, so costing a tree here allocates nothing either.
#[derive(Debug, Clone, Default)]
pub struct TreeArena {
    pub(crate) nodes: Vec<ArenaEntry>,
    pub(crate) filters: Vec<TreeFilter>,
}

impl TreeArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TreeArena::default()
    }

    /// Forgets every node; the buffers keep their capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Adds a leaf.
    pub fn leaf(&mut self, rel: RelId) -> ArenaNode {
        self.push(RelSet::single(rel), None)
    }

    /// Adds a join of two nodes already in the arena.
    pub fn join(&mut self, build: ArenaNode, probe: ArenaNode) -> ArenaNode {
        let rels = self.nodes[build.0].rels | self.nodes[probe.0].rels;
        self.push(rels, Some((build, probe)))
    }

    /// Adds every node of `tree`; returns its root.
    pub(crate) fn push_tree(&mut self, tree: &JoinTree) -> ArenaNode {
        match tree {
            JoinTree::Leaf(r) => self.leaf(*r),
            JoinTree::Join { build, probe } => {
                let build = self.push_tree(build);
                let probe = self.push_tree(probe);
                self.join(build, probe)
            }
        }
    }

    /// The subtree under `node` as a [`JoinTree`].
    pub fn to_join_tree(&self, node: ArenaNode) -> JoinTree {
        let entry = self.nodes[node.0];
        match entry.join {
            None => JoinTree::Leaf(entry.rels.first().expect("a leaf holds one relation")),
            Some((build, probe)) => {
                JoinTree::join(self.to_join_tree(build), self.to_join_tree(probe))
            }
        }
    }

    fn push(&mut self, rels: RelSet, join: Option<(ArenaNode, ArenaNode)>) -> ArenaNode {
        self.nodes.push(ArenaEntry { rels, join });
        ArenaNode(self.nodes.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{JoinEdge, RelationInfo};

    fn chain_graph() -> JoinGraph {
        // r0 - r1 - r2 (r0 -> r1 -> r2)
        let mut g = JoinGraph::new();
        let r0 = g.add_relation(RelationInfo::new("r0", 1000.0, 1000.0));
        let r1 = g.add_relation(RelationInfo::new("r1", 100.0, 100.0));
        let r2 = g.add_relation(RelationInfo::new("r2", 10.0, 10.0));
        g.add_edge(JoinEdge::pkfk(r0, "a", r1, "pk", 100.0));
        g.add_edge(JoinEdge::pkfk(r1, "b", r2, "pk", 10.0));
        g
    }

    #[test]
    fn right_deep_basics() {
        let t = RightDeepTree::new(vec![RelId(0), RelId(1), RelId(2)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.num_joins(), 2);
        assert_eq!(t.to_string(), "T(R0, R1, R2)");
        assert_eq!(t.relation_set().len(), 3);
        // T(X_0, X_1, X_2) is (X_2 ⋈ (X_1 ⋈ X_0)): each new relation builds.
        let jt = RightDeepTree::new(vec![RelId(2), RelId(0), RelId(1)]).to_join_tree();
        assert!(jt.is_right_deep());
        assert_eq!(jt.to_string(), "(R1 ⋈ (R0 ⋈ R2))");
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_relations_rejected() {
        RightDeepTree::new(vec![RelId(0), RelId(0)]);
    }

    #[test]
    fn cross_product_detection_right_deep() {
        let g = chain_graph();
        let ok = RightDeepTree::new(vec![RelId(0), RelId(1), RelId(2)]);
        assert!(ok.has_no_cross_products(&g));
        // r2 does not join r0 directly, so T(r0, r2, r1) has a cross product.
        let bad = RightDeepTree::new(vec![RelId(0), RelId(2), RelId(1)]);
        assert!(!bad.has_no_cross_products(&g));
    }

    #[test]
    fn join_tree_shapes() {
        let right = JoinTree::join(
            JoinTree::Leaf(RelId(2)),
            JoinTree::join(JoinTree::Leaf(RelId(1)), JoinTree::Leaf(RelId(0))),
        );
        assert!(right.is_right_deep());
        assert!(!right.is_left_deep());

        let left = JoinTree::join(
            JoinTree::join(JoinTree::Leaf(RelId(0)), JoinTree::Leaf(RelId(1))),
            JoinTree::Leaf(RelId(2)),
        );
        assert!(left.is_left_deep());
        assert!(!left.is_right_deep());

        let bushy = JoinTree::join(
            JoinTree::join(JoinTree::Leaf(RelId(0)), JoinTree::Leaf(RelId(1))),
            JoinTree::join(JoinTree::Leaf(RelId(2)), JoinTree::Leaf(RelId(3))),
        );
        assert!(!bushy.is_left_deep());
        assert!(!bushy.is_right_deep());
        assert_eq!(bushy.num_joins(), 3);
    }

    #[test]
    fn join_tree_cross_product_detection() {
        let g = chain_graph();
        // (r2 ⋈ (r1 ⋈ r0)) has no cross product.
        let good = RightDeepTree::new(vec![RelId(0), RelId(1), RelId(2)]).to_join_tree();
        assert!(good.has_no_cross_products(&g));
        // (r2 ⋈ r0) is a cross product.
        let bad = JoinTree::join(JoinTree::Leaf(RelId(2)), JoinTree::Leaf(RelId(0)));
        assert!(!bad.has_no_cross_products(&g));
    }

    #[test]
    fn display_join_tree() {
        let t = JoinTree::join(
            JoinTree::Leaf(RelId(1)),
            JoinTree::join(JoinTree::Leaf(RelId(2)), JoinTree::Leaf(RelId(0))),
        );
        assert_eq!(t.to_string(), "(R1 ⋈ (R2 ⋈ R0))");
    }

    #[test]
    fn single_relation_tree() {
        let t = RightDeepTree::new(vec![RelId(5)]);
        assert_eq!(t.num_joins(), 0);
        let jt = t.to_join_tree();
        assert_eq!(jt, JoinTree::Leaf(RelId(5)));
        assert!(jt.is_right_deep() && jt.is_left_deep());
    }
}
