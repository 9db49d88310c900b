//! The join tree: the one plan shape the optimizers build, the cost model
//! reads and [`PhysicalPlan::from_join_tree`](crate::PhysicalPlan::from_join_tree)
//! lowers.
//!
//! A [`JoinTree`] is a binary tree of hash joins over base relations, build
//! side left, probe side right: left-deep, right-deep or bushy. The paper's
//! analysis targets *right-deep trees without cross products*, written
//! `T(X_0, X_1, ..., X_n)`: `X_0` is the right-most leaf (the bottom of the
//! probe pipeline) and `X_1..X_n` build the joins from the bottom up;
//! [`JoinTree::right_deep`] builds that shape and
//! [`JoinTree::right_deep_order`] reads it back.
//!
//! The tree is stored flat: nodes are pushed children first, each with the
//! set of relations under it, and the last node pushed is the root. An
//! optimizer builds a candidate with [`JoinTree::add_leaf`] and
//! [`JoinTree::add_join`], costs it and [`clear`](JoinTree::clear)s the tree
//! for the next one, allocating nothing once the buffer has grown.

use crate::graph::{JoinGraph, RelId};
use crate::relset::RelSet;
use std::fmt;

/// One node of a [`JoinTree`], as [`JoinTree::node`] reads it. Nodes are
/// named by their index in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinNode {
    /// A base relation.
    Leaf(RelId),
    /// A hash join of two nodes of the same tree.
    Join {
        /// Build-side node (hashed at open).
        build: usize,
        /// Probe-side node (streamed).
        probe: usize,
    },
}

/// One stored node: the relations under it and, for a join, its children.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    pub(crate) rels: RelSet,
    pub(crate) join: Option<(usize, usize)>,
}

/// A binary join tree stored flat, children before parents; the last node
/// pushed is the root. `==` compares shapes, not the order nodes were pushed
/// in.
///
/// A tree made by `default` or emptied by [`clear`](JoinTree::clear) has no
/// root until a node is added; reading it panics.
#[derive(Debug, Clone, Default)]
pub struct JoinTree {
    pub(crate) nodes: Vec<Entry>,
}

impl JoinTree {
    /// The tree of one base relation.
    pub fn leaf(rel: RelId) -> Self {
        let mut tree = JoinTree::default();
        tree.add_leaf(rel);
        tree
    }

    /// The right-deep tree `T(X_0, ..., X_n)` of the paper's order notation:
    /// `X_0` is the right-most leaf and each later relation builds the join
    /// above the previous ones.
    ///
    /// # Panics
    /// Panics if the order is empty or contains duplicates.
    pub fn right_deep(order: &[RelId]) -> Self {
        let (&first, rest) = order
            .split_first()
            .expect("a plan must contain at least one relation");
        let mut tree = JoinTree::leaf(first);
        for &rel in rest {
            let probe = tree.root();
            let build = tree.add_leaf(rel);
            tree.add_join(build, probe);
        }
        tree
    }

    /// The join of two whole trees: `build` is hashed, `probe` streamed.
    ///
    /// # Panics
    /// Panics if the two trees share a relation.
    pub fn join(build: JoinTree, probe: JoinTree) -> Self {
        let mut tree = build;
        let build = tree.root();
        let offset = tree.nodes.len();
        tree.nodes.extend(probe.nodes.iter().map(|entry| Entry {
            rels: entry.rels,
            join: entry.join.map(|(b, p)| (b + offset, p + offset)),
        }));
        let probe = tree.root();
        tree.add_join(build, probe);
        tree
    }

    /// Forgets every node; the buffer keeps its capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Adds a leaf; it is the root until the next node is added.
    pub fn add_leaf(&mut self, rel: RelId) -> usize {
        self.push(RelSet::single(rel), None)
    }

    /// Adds a join of two nodes already in the tree; it is the root until
    /// the next node is added.
    ///
    /// # Panics
    /// Panics if the two sides share a relation.
    pub fn add_join(&mut self, build: usize, probe: usize) -> usize {
        let (build_rels, probe_rels) = (self.nodes[build].rels, self.nodes[probe].rels);
        assert!(
            !build_rels.intersects(probe_rels),
            "duplicate relation in join tree: {build_rels:?} and {probe_rels:?} overlap"
        );
        self.push(build_rels | probe_rels, Some((build, probe)))
    }

    fn push(&mut self, rels: RelSet, join: Option<(usize, usize)>) -> usize {
        self.nodes.push(Entry { rels, join });
        self.nodes.len() - 1
    }

    /// The root: the last node added.
    pub fn root(&self) -> usize {
        self.nodes
            .len()
            .checked_sub(1)
            .expect("an empty join tree has no root")
    }

    /// The node at index `node`.
    pub fn node(&self, node: usize) -> JoinNode {
        let entry = self.nodes[node];
        match entry.join {
            None => JoinNode::Leaf(entry.rels.first().expect("a leaf holds one relation")),
            Some((build, probe)) => JoinNode::Join { build, probe },
        }
    }

    /// All relations in the tree.
    pub fn relation_set(&self) -> RelSet {
        self.nodes[self.root()].rels
    }

    /// Number of join operators in the tree: every relation appears once.
    pub fn num_joins(&self) -> usize {
        self.relation_set().len() - 1
    }

    /// Checks that no join in the tree is a cross product with respect to the
    /// join graph (each join's two input relation sets must share an edge).
    pub fn has_no_cross_products(&self, graph: &JoinGraph) -> bool {
        self.joins_connected(graph, self.root())
    }

    fn joins_connected(&self, graph: &JoinGraph, node: usize) -> bool {
        match self.nodes[node].join {
            None => true,
            Some((build, probe)) => {
                graph.are_joined(self.nodes[build].rels, self.nodes[probe].rels)
                    && self.joins_connected(graph, build)
                    && self.joins_connected(graph, probe)
            }
        }
    }

    /// The order `X_0, X_1, ..., X_n` (right-most leaf first) when the tree
    /// is right-deep — every build side a leaf — and `None` otherwise.
    pub fn right_deep_order(&self) -> Option<Vec<RelId>> {
        let mut order = Vec::with_capacity(self.relation_set().len());
        let mut node = self.root();
        while let JoinNode::Join { build, probe } = self.node(node) {
            let JoinNode::Leaf(rel) = self.node(build) else {
                return None;
            };
            order.push(rel);
            node = probe;
        }
        if let JoinNode::Leaf(rel) = self.node(node) {
            order.push(rel);
        }
        order.reverse();
        Some(order)
    }

    fn same_shape(&self, node: usize, other: &JoinTree, other_node: usize) -> bool {
        let (entry, other_entry) = (self.nodes[node], other.nodes[other_node]);
        match (entry.join, other_entry.join) {
            (None, None) => entry.rels == other_entry.rels,
            (Some((build, probe)), Some((other_build, other_probe))) => {
                self.same_shape(build, other, other_build)
                    && self.same_shape(probe, other, other_probe)
            }
            _ => false,
        }
    }

    fn fmt_node(&self, node: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node(node) {
            JoinNode::Leaf(rel) => write!(f, "{rel}"),
            JoinNode::Join { build, probe } => {
                write!(f, "(")?;
                self.fmt_node(build, f)?;
                write!(f, " ⋈ ")?;
                self.fmt_node(probe, f)?;
                write!(f, ")")
            }
        }
    }
}

impl PartialEq for JoinTree {
    fn eq(&self, other: &JoinTree) -> bool {
        match (self.nodes.is_empty(), other.nodes.is_empty()) {
            (false, false) => self.same_shape(self.root(), other, other.root()),
            (empty, other_empty) => empty == other_empty,
        }
    }
}

impl Eq for JoinTree {}

impl fmt::Display for JoinTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_node(self.root(), f)
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

    fn leaf(i: usize) -> JoinTree {
        JoinTree::leaf(RelId(i))
    }

    #[test]
    fn right_deep_basics() {
        let order = [RelId(0), RelId(1), RelId(2)];
        let t = JoinTree::right_deep(&order);
        assert_eq!(t.num_joins(), 2);
        assert_eq!(t.relation_set().len(), 3);
        assert_eq!(t.right_deep_order(), Some(order.to_vec()));
        // T(X_0, X_1, X_2) is (X_2 ⋈ (X_1 ⋈ X_0)): each new relation builds.
        let t = JoinTree::right_deep(&[RelId(2), RelId(0), RelId(1)]);
        assert_eq!(t.to_string(), "(R1 ⋈ (R0 ⋈ R2))");
        assert_eq!(t, JoinTree::join(leaf(1), JoinTree::join(leaf(0), leaf(2))));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_relations_rejected() {
        JoinTree::right_deep(&[RelId(0), RelId(0)]);
    }

    #[test]
    #[should_panic(expected = "at least one relation")]
    fn empty_order_rejected() {
        JoinTree::right_deep(&[]);
    }

    #[test]
    fn cross_product_detection_right_deep() {
        let g = chain_graph();
        let ok = JoinTree::right_deep(&[RelId(0), RelId(1), RelId(2)]);
        assert!(ok.has_no_cross_products(&g));
        // r2 does not join r0 directly, so T(r0, r2, r1) has a cross product.
        let bad = JoinTree::right_deep(&[RelId(0), RelId(2), RelId(1)]);
        assert!(!bad.has_no_cross_products(&g));
    }

    #[test]
    fn join_tree_shapes() {
        let right = JoinTree::join(leaf(2), JoinTree::join(leaf(1), leaf(0)));
        assert_eq!(
            right.right_deep_order(),
            Some(vec![RelId(0), RelId(1), RelId(2)])
        );

        let left = JoinTree::join(JoinTree::join(leaf(0), leaf(1)), leaf(2));
        assert_eq!(left.right_deep_order(), None);

        let bushy = JoinTree::join(
            JoinTree::join(leaf(0), leaf(1)),
            JoinTree::join(leaf(2), leaf(3)),
        );
        assert_eq!(bushy.right_deep_order(), None);
        assert_eq!(bushy.num_joins(), 3);
        assert_eq!(bushy.relation_set(), RelSet::first_n(4));
        let JoinNode::Join { build, probe } = bushy.node(bushy.root()) else {
            panic!("the root of {bushy} is a join");
        };
        assert!(matches!(bushy.node(build), JoinNode::Join { .. }));
        assert!(matches!(bushy.node(probe), JoinNode::Join { .. }));
    }

    #[test]
    fn join_tree_cross_product_detection() {
        let g = chain_graph();
        // (r2 ⋈ (r1 ⋈ r0)) has no cross product.
        let good = JoinTree::right_deep(&[RelId(0), RelId(1), RelId(2)]);
        assert!(good.has_no_cross_products(&g));
        // (r2 ⋈ r0) is a cross product.
        let bad = JoinTree::join(leaf(2), leaf(0));
        assert!(!bad.has_no_cross_products(&g));
    }

    #[test]
    fn display_join_tree() {
        let t = JoinTree::join(leaf(1), JoinTree::join(leaf(2), leaf(0)));
        assert_eq!(t.to_string(), "(R1 ⋈ (R2 ⋈ R0))");
    }

    #[test]
    fn single_relation_tree() {
        let t = JoinTree::right_deep(&[RelId(5)]);
        assert_eq!(t.num_joins(), 0);
        assert_eq!(t, JoinTree::leaf(RelId(5)));
        assert_eq!(t.right_deep_order(), Some(vec![RelId(5)]));
        assert_eq!(t.node(t.root()), JoinNode::Leaf(RelId(5)));
    }

    /// One bushy tree pushed probe side first and build side first: the
    /// arenas differ, the trees do not.
    #[test]
    fn two_layouts_of_one_tree_are_equal() {
        let build_first = JoinTree::join(
            JoinTree::join(leaf(3), leaf(1)),
            JoinTree::join(leaf(0), leaf(2)),
        );
        let mut probe_first = JoinTree::default();
        let (zero, two) = (
            probe_first.add_leaf(RelId(0)),
            probe_first.add_leaf(RelId(2)),
        );
        let probe = probe_first.add_join(zero, two);
        let (one, three) = (
            probe_first.add_leaf(RelId(1)),
            probe_first.add_leaf(RelId(3)),
        );
        let build = probe_first.add_join(three, one);
        probe_first.add_join(build, probe);

        assert_ne!(format!("{build_first:?}"), format!("{probe_first:?}"));
        assert_eq!(build_first, probe_first);
        assert_eq!(build_first.to_string(), probe_first.to_string());
        assert_eq!(build_first.to_string(), "((R3 ⋈ R1) ⋈ (R0 ⋈ R2))");
        // Mirrored children are another tree.
        let mirrored = JoinTree::join(
            JoinTree::join(leaf(0), leaf(2)),
            JoinTree::join(leaf(3), leaf(1)),
        );
        assert_ne!(build_first, mirrored);
        assert_eq!(JoinTree::default(), JoinTree::default());
        assert_ne!(JoinTree::default(), leaf(0));
    }
}
