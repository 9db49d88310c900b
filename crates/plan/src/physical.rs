//! Physical plans: scans, hash joins and bitvector filter placements.
//!
//! A [`PhysicalPlan`] is an arena of operators plus a list of
//! [`BitvectorPlacement`]s produced by Algorithm 1 (see
//! [`crate::pushdown`]). The executor in `bqo-exec` interprets this structure
//! directly; the cost model in [`crate::cost`] estimates `Cout` over it.

use crate::graph::{JoinGraph, RelId};
use crate::relset::RelSet;
use crate::tree::{JoinNode, JoinTree};
use std::fmt;
use std::sync::Arc;

/// Identifier of a node inside one [`PhysicalPlan`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A fully qualified column reference `relation.column`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// The relation the column belongs to.
    pub relation: RelId,
    /// Column name within that relation.
    pub column: Arc<str>,
}

impl ColumnRef {
    /// Creates a column reference.
    pub fn new(relation: RelId, column: impl Into<Arc<str>>) -> Self {
        ColumnRef {
            relation,
            column: column.into(),
        }
    }
}

/// One equi-join key pair of a hash join: `build.column = probe.column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinKeyPair {
    /// Key column on the build (hashed) side.
    pub build: ColumnRef,
    /// Key column on the probe (streamed) side.
    pub probe: ColumnRef,
}

/// A physical operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysicalNode {
    /// Scan of a base relation, applying its local predicates and any
    /// bitvector filters pushed down to it.
    Scan {
        /// The relation being scanned.
        relation: RelId,
    },
    /// Hash join: build a hash table from `build`, probe with `probe`.
    HashJoin {
        /// Node producing the build side.
        build: NodeId,
        /// Node producing the probe side.
        probe: NodeId,
        /// Equi-join key pairs.
        keys: Vec<JoinKeyPair>,
    },
}

/// Where a bitvector filter created at `source_join` is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitvectorPlacement {
    /// The hash join whose build side creates the filter — from the
    /// equi-join columns of that build side (the join's `keys[..].build`),
    /// as Algorithm 1 has it, so the placement does not repeat them.
    pub source_join: NodeId,
    /// The operator whose output the filter is applied to. When this is a
    /// scan, the filter was pushed all the way down (the interesting case for
    /// `Cout`); when it is a join, the filter is a residual applied between
    /// that join and its parent.
    pub target: NodeId,
    /// The probe-side columns the filter checks (one per join key; composite
    /// keys are hashed together).
    pub probe_columns: Vec<ColumnRef>,
}

/// A physical plan: an operator arena, its root, and bitvector placements.
#[derive(Debug, Clone, Default)]
pub struct PhysicalPlan {
    nodes: Vec<PhysicalNode>,
    /// The base relations under each node, recorded when the node is added.
    rel_sets: Vec<RelSet>,
    root: Option<NodeId>,
    /// Bitvector filter placements chosen by Algorithm 1 for this plan.
    pub placements: Vec<BitvectorPlacement>,
}

impl PhysicalPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        PhysicalPlan::default()
    }

    /// Adds a node and returns its id. The inputs of a join must have been
    /// added before it.
    ///
    /// # Panics
    /// Panics if a join names an input that is not in the plan yet.
    pub fn add_node(&mut self, node: PhysicalNode) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.rel_sets.push(match &node {
            PhysicalNode::Scan { relation } => RelSet::single(*relation),
            PhysicalNode::HashJoin { build, probe, .. } => {
                self.rel_sets[build.0] | self.rel_sets[probe.0]
            }
        });
        self.nodes.push(node);
        id
    }

    /// Sets the root operator.
    pub fn set_root(&mut self, root: NodeId) {
        self.root = Some(root);
    }

    /// The root operator.
    ///
    /// # Panics
    /// Panics if the plan is empty.
    pub fn root(&self) -> NodeId {
        self.root.expect("physical plan has no root")
    }

    /// The node behind an id.
    pub fn node(&self, id: NodeId) -> &PhysicalNode {
        &self.nodes[id.0]
    }

    /// All nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &PhysicalNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Number of operators.
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of hash joins.
    pub fn num_joins(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, PhysicalNode::HashJoin { .. }))
            .count()
    }

    /// The set of base relations under a node.
    pub fn relation_set(&self, id: NodeId) -> RelSet {
        self.rel_sets[id.0]
    }

    /// Placements targeted at `target`, paired with their index in
    /// [`PhysicalPlan::placements`]. The executor keys its published filters
    /// by this index, so plan→pipeline lowering uses this helper to wire a
    /// probe site to the filter its source join will publish — without
    /// cloning placement payloads.
    pub fn indexed_placements_at(
        &self,
        target: NodeId,
    ) -> impl Iterator<Item = (usize, &BitvectorPlacement)> {
        self.placements
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.target == target)
    }

    /// Placements whose filter is created at `source_join`, paired with their
    /// index in [`PhysicalPlan::placements`] (see
    /// [`PhysicalPlan::indexed_placements_at`]).
    pub fn indexed_placements_from(
        &self,
        source_join: NodeId,
    ) -> impl Iterator<Item = (usize, &BitvectorPlacement)> {
        self.placements
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.source_join == source_join)
    }

    /// The same plan with every relation reference renumbered through `map`
    /// (indexed by the old [`RelId`]): scan targets, hash-join key columns
    /// and bitvector-placement columns. Node ids, tree shape and placement
    /// wiring are unchanged.
    ///
    /// Plans reference relations positionally, so a plan optimized against
    /// one join graph is only valid for another graph after remapping the
    /// ids to that graph's numbering of the *same* relations — this is what
    /// lets a plan cache serve one plan to specs that list their tables in
    /// different orders.
    ///
    /// # Panics
    /// Panics if the plan references a relation with no entry in `map`.
    pub fn remap_relations(&self, map: &[RelId]) -> PhysicalPlan {
        let remap_rel = |rel: &RelId| map[rel.0];
        let remap_col = |col: &ColumnRef| ColumnRef {
            relation: remap_rel(&col.relation),
            column: col.column.clone(),
        };
        let mut remapped = PhysicalPlan::new();
        for node in &self.nodes {
            remapped.add_node(match node {
                PhysicalNode::Scan { relation } => PhysicalNode::Scan {
                    relation: remap_rel(relation),
                },
                PhysicalNode::HashJoin { build, probe, keys } => PhysicalNode::HashJoin {
                    build: *build,
                    probe: *probe,
                    keys: keys
                        .iter()
                        .map(|k| JoinKeyPair {
                            build: remap_col(&k.build),
                            probe: remap_col(&k.probe),
                        })
                        .collect(),
                },
            });
        }
        remapped.root = self.root;
        remapped.placements = self
            .placements
            .iter()
            .map(|p| BitvectorPlacement {
                source_join: p.source_join,
                target: p.target,
                probe_columns: p.probe_columns.iter().map(remap_col).collect(),
            })
            .collect();
        remapped
    }

    /// Builds a physical plan (without bitvector placements) from a logical
    /// join tree, deriving the hash-join key pairs from the join graph's
    /// edges that cross each join's build/probe sets.
    ///
    /// # Panics
    /// Panics if some join in the tree is a cross product (no edge between
    /// its inputs); plans enumerated without cross products never hit this.
    pub fn from_join_tree(graph: &JoinGraph, tree: &JoinTree) -> Self {
        let mut plan = PhysicalPlan::new();
        let root = plan.build_node(graph, tree, tree.root());
        plan.set_root(root);
        plan
    }

    fn build_node(&mut self, graph: &JoinGraph, tree: &JoinTree, node: usize) -> NodeId {
        match tree.node(node) {
            JoinNode::Leaf(relation) => self.add_node(PhysicalNode::Scan { relation }),
            JoinNode::Join { build, probe } => {
                let build_id = self.build_node(graph, tree, build);
                let probe_id = self.build_node(graph, tree, probe);
                let build_set = self.relation_set(build_id);
                let probe_set = self.relation_set(probe_id);
                let keys: Vec<JoinKeyPair> = graph
                    .edges_across(build_set, probe_set)
                    .into_iter()
                    .map(|edge| {
                        let (build_rel, probe_rel) = if build_set.contains(edge.left) {
                            (edge.left, edge.right)
                        } else {
                            (edge.right, edge.left)
                        };
                        JoinKeyPair {
                            build: ColumnRef::new(build_rel, edge.column_of(build_rel).clone()),
                            probe: ColumnRef::new(probe_rel, edge.column_of(probe_rel).clone()),
                        }
                    })
                    .collect();
                assert!(
                    !keys.is_empty(),
                    "join between {build_set:?} and {probe_set:?} is a cross product"
                );
                self.add_node(PhysicalNode::HashJoin {
                    build: build_id,
                    probe: probe_id,
                    keys,
                })
            }
        }
    }

    /// Pretty-prints the plan as an indented tree (EXPLAIN-style output used
    /// by the examples and the reproduction binary).
    pub fn explain(&self, graph: &JoinGraph) -> String {
        let mut out = String::new();
        self.explain_node(graph, self.root(), 0, &mut out);
        if !self.placements.is_empty() {
            out.push_str("bitvector filters:\n");
            for p in &self.placements {
                let cols: Vec<String> = p
                    .probe_columns
                    .iter()
                    .map(|c| format!("{}.{}", graph.relation(c.relation).name, c.column))
                    .collect();
                out.push_str(&format!(
                    "  from {} applied at {} on ({})\n",
                    p.source_join,
                    p.target,
                    cols.join(", ")
                ));
            }
        }
        out
    }

    fn explain_node(&self, graph: &JoinGraph, id: NodeId, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        match self.node(id) {
            PhysicalNode::Scan { relation } => {
                let info = graph.relation(*relation);
                out.push_str(&format!(
                    "{indent}{id}: Scan {} [scan={}]\n",
                    info.name, info.backing
                ));
            }
            PhysicalNode::HashJoin { build, probe, keys } => {
                let preds: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        format!(
                            "{}.{} = {}.{}",
                            graph.relation(k.build.relation).name,
                            k.build.column,
                            graph.relation(k.probe.relation).name,
                            k.probe.column
                        )
                    })
                    .collect();
                out.push_str(&format!(
                    "{indent}{id}: HashJoin on {}\n",
                    preds.join(" AND ")
                ));
                self.explain_node(graph, *build, depth + 1, out);
                self.explain_node(graph, *probe, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{JoinEdge, RelationInfo};

    fn star_graph() -> (JoinGraph, RelId, Vec<RelId>) {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        let d1 = g.add_relation(RelationInfo::new("d1", 100.0, 10.0));
        let d2 = g.add_relation(RelationInfo::new("d2", 1000.0, 1000.0));
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 100.0));
        g.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 1000.0));
        (g, fact, vec![d1, d2])
    }

    #[test]
    fn from_right_deep_tree() {
        let (g, fact, dims) = star_graph();
        let tree = JoinTree::right_deep(&[fact, dims[0], dims[1]]);
        let plan = PhysicalPlan::from_join_tree(&g, &tree);
        assert_eq!(plan.num_nodes(), 5);
        assert_eq!(plan.num_joins(), 2);
        assert_eq!(plan.relation_set(plan.root()).len(), 3);
        // Root join's build side must be a scan of d2 (the last element of
        // the order) and its probe side the lower join.
        match plan.node(plan.root()) {
            PhysicalNode::HashJoin { build, keys, .. } => {
                assert_eq!(plan.node(*build), &PhysicalNode::Scan { relation: dims[1] });
                assert_eq!(keys.len(), 1);
                assert_eq!(keys[0].build.relation, dims[1]);
                assert_eq!(keys[0].probe.relation, fact);
                assert_eq!(&*keys[0].probe.column, "d2_sk");
            }
            other => panic!("expected join at root, got {other:?}"),
        }
    }

    #[test]
    fn remap_relations_renumbers_every_reference() {
        use crate::pushdown::push_down_bitvectors;
        let (g, fact, dims) = star_graph();
        let tree = JoinTree::right_deep(&[fact, dims[0], dims[1]]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        assert!(!plan.placements.is_empty());

        // A graph listing the same relations in reverse order: d2, d1, fact.
        let map = [RelId(2), RelId(1), RelId(0)];
        let remapped = plan.remap_relations(&map);
        assert_eq!(remapped.num_nodes(), plan.num_nodes());
        assert_eq!(remapped.root(), plan.root());
        for (id, node) in plan.nodes() {
            match (node, remapped.node(id)) {
                (PhysicalNode::Scan { relation }, PhysicalNode::Scan { relation: r2 }) => {
                    assert_eq!(*r2, map[relation.0]);
                }
                (
                    PhysicalNode::HashJoin { build, probe, keys },
                    PhysicalNode::HashJoin {
                        build: b2,
                        probe: p2,
                        keys: k2,
                    },
                ) => {
                    assert_eq!((build, probe), (b2, p2));
                    for (k, kr) in keys.iter().zip(k2) {
                        assert_eq!(kr.build.relation, map[k.build.relation.0]);
                        assert_eq!(kr.probe.relation, map[k.probe.relation.0]);
                        assert_eq!(kr.build.column, k.build.column);
                        assert_eq!(kr.probe.column, k.probe.column);
                    }
                }
                other => panic!("node kind changed under remap: {other:?}"),
            }
        }
        for (p, pr) in plan.placements.iter().zip(&remapped.placements) {
            assert_eq!((p.source_join, p.target), (pr.source_join, pr.target));
            for (c, cr) in p.probe_columns.iter().zip(&pr.probe_columns) {
                assert_eq!(cr.relation, map[c.relation.0]);
                assert_eq!(cr.column, c.column);
            }
        }
        // Remapping by the identity is a no-op; remapping twice by the
        // involution `map` round-trips.
        let identity = [RelId(0), RelId(1), RelId(2)];
        assert_eq!(plan.remap_relations(&identity).placements, plan.placements);
        assert_eq!(remapped.remap_relations(&map).placements, plan.placements);
    }

    #[test]
    #[should_panic(expected = "cross product")]
    fn cross_product_tree_panics() {
        let (g, _, dims) = star_graph();
        // d1 ⋈ d2 has no edge.
        let tree = JoinTree::join(JoinTree::leaf(dims[0]), JoinTree::leaf(dims[1]));
        PhysicalPlan::from_join_tree(&g, &tree);
    }

    #[test]
    fn relation_set_of_scan_and_join() {
        let (g, fact, dims) = star_graph();
        let tree = JoinTree::right_deep(&[fact, dims[0]]);
        let plan = PhysicalPlan::from_join_tree(&g, &tree);
        let scans: Vec<NodeId> = plan
            .nodes()
            .filter(|(_, n)| matches!(n, PhysicalNode::Scan { .. }))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(scans.len(), 2);
        for s in scans {
            assert_eq!(plan.relation_set(s).len(), 1);
        }
    }

    #[test]
    fn placements_lookup() {
        let (g, fact, dims) = star_graph();
        let tree = JoinTree::right_deep(&[fact, dims[0]]);
        let mut plan = PhysicalPlan::from_join_tree(&g, &tree);
        let root = plan.root();
        let scan_fact = plan
            .nodes()
            .find_map(|(id, n)| match n {
                PhysicalNode::Scan { relation } if *relation == fact => Some(id),
                _ => None,
            })
            .unwrap();
        plan.placements.push(BitvectorPlacement {
            source_join: root,
            target: scan_fact,
            probe_columns: vec![ColumnRef::new(fact, "d1_sk")],
        });
        // The lookups see the placements with their arena index.
        let indexed: Vec<usize> = plan
            .indexed_placements_at(scan_fact)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(indexed, vec![0]);
        assert_eq!(plan.indexed_placements_from(root).count(), 1);
        assert_eq!(plan.indexed_placements_at(root).count(), 0);
    }

    #[test]
    fn explain_mentions_tables_and_filters() {
        let (g, fact, dims) = star_graph();
        let tree = JoinTree::right_deep(&[fact, dims[0], dims[1]]);
        let plan = PhysicalPlan::from_join_tree(&g, &tree);
        let text = plan.explain(&g);
        assert!(text.contains("Scan fact"));
        assert!(text.contains("HashJoin"));
        assert!(text.contains("d1.sk"));
    }

    #[test]
    #[should_panic(expected = "no root")]
    fn empty_plan_root_panics() {
        PhysicalPlan::new().root();
    }
}
