//! The join graph: relations, equi-join edges and PKFK metadata.
//!
//! [`JoinGraph::clean_snowflake`] recognises the one shape the paper's
//! candidate-set theorems need: a snowflake (Definition 2, Theorem 5.1).
//! Stars (Definition 1, Theorem 4.1) and chains (Definition 4, Theorem 5.3)
//! are snowflakes with one-relation branches and with a single branch, so
//! no separate test covers them.

use crate::predicate::ColumnPredicate;
use crate::relset::RelSet;
use std::fmt;
use std::sync::Arc;

/// Identifier of a relation inside one [`JoinGraph`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelId(pub usize);

impl RelId {
    /// The underlying index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Where a scanned relation's rows live. The planner's costs are
/// backing-agnostic (the paper's model counts rows, not pages), but the
/// physical lowering needs to know whether to emit an in-memory scan or a
/// chunked out-of-core file scan, and `explain` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanBacking {
    /// The relation is an in-memory `Table`.
    #[default]
    Memory,
    /// The relation is a `ChunkSource` (on-disk columnar file): scans
    /// stream chunk-aligned morsels and may prune whole chunks via zone
    /// maps.
    File,
}

impl fmt::Display for ScanBacking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanBacking::Memory => write!(f, "memory"),
            ScanBacking::File => write!(f, "file"),
        }
    }
}

/// Statistics and predicates of one relation participating in a query.
///
/// `filtered_rows` is the estimated cardinality after local predicates
/// (before any joins or bitvector filters) — the `|R|` the paper's cost
/// function starts from for base tables.
#[derive(Debug, Clone)]
pub struct RelationInfo {
    /// Table name in the catalog.
    pub name: Arc<str>,
    /// Cardinality of the base table, `|R|`.
    pub base_rows: f64,
    /// Estimated cardinality after local predicates.
    pub filtered_rows: f64,
    /// Local predicates restricting this relation.
    pub predicates: Vec<ColumnPredicate>,
    /// Whether the scan reads memory or a columnar file.
    pub backing: ScanBacking,
}

impl RelationInfo {
    /// Creates relation info without local predicates.
    pub fn new(name: impl Into<Arc<str>>, base_rows: f64, filtered_rows: f64) -> Self {
        RelationInfo {
            name: name.into(),
            base_rows: base_rows.max(1.0),
            filtered_rows: filtered_rows.max(0.0),
            predicates: Vec::new(),
            backing: ScanBacking::Memory,
        }
    }

    /// Attaches executable local predicates (used by the executor; the
    /// planner only looks at `filtered_rows`).
    pub fn with_predicates(mut self, predicates: Vec<ColumnPredicate>) -> Self {
        self.predicates = predicates;
        self
    }

    /// Records where the relation's rows live (defaults to memory).
    pub(crate) fn with_backing(mut self, backing: ScanBacking) -> Self {
        self.backing = backing;
        self
    }

    /// Selectivity of the local predicates.
    pub fn local_selectivity(&self) -> f64 {
        if self.base_rows <= 0.0 {
            1.0
        } else {
            (self.filtered_rows / self.base_rows).clamp(0.0, 1.0)
        }
    }
}

/// An equi-join edge `left.left_column = right.right_column` annotated with
/// the statistics the estimator needs.
#[derive(Debug, Clone)]
pub struct JoinEdge {
    /// Relation on the left-hand side of the equality.
    pub left: RelId,
    /// Relation on the right-hand side of the equality.
    pub right: RelId,
    /// Join column of `left`.
    pub left_column: Arc<str>,
    /// Join column of `right`.
    pub right_column: Arc<str>,
    /// Distinct values of `left_column` in the *base* (unfiltered) relation.
    pub left_distinct: f64,
    /// Distinct values of `right_column` in the *base* (unfiltered) relation.
    pub right_distinct: f64,
    /// True when `left_column` is a key of the left relation.
    pub left_unique: bool,
    /// True when `right_column` is a key of the right relation.
    pub right_unique: bool,
}

impl JoinEdge {
    /// Creates an edge with explicit statistics.
    #[expect(
        clippy::too_many_arguments,
        reason = "an edge is two (relation, column, distinct count, key flag) endpoints"
    )]
    pub fn new(
        left: RelId,
        right: RelId,
        left_column: impl Into<Arc<str>>,
        right_column: impl Into<Arc<str>>,
        left_distinct: f64,
        right_distinct: f64,
        left_unique: bool,
        right_unique: bool,
    ) -> Self {
        JoinEdge {
            left,
            right,
            left_column: left_column.into(),
            right_column: right_column.into(),
            left_distinct: left_distinct.max(1.0),
            right_distinct: right_distinct.max(1.0),
            left_unique,
            right_unique,
        }
    }

    /// Convenience constructor for a PKFK edge `fk_rel.fk_col -> pk_rel.pk_col`
    /// where the PK relation has `pk_rows` rows (its key is dense and unique).
    pub fn pkfk(
        fk_rel: RelId,
        fk_col: impl Into<Arc<str>>,
        pk_rel: RelId,
        pk_col: impl Into<Arc<str>>,
        pk_rows: f64,
    ) -> Self {
        JoinEdge::new(
            fk_rel, pk_rel, fk_col, pk_col, pk_rows, pk_rows, false, true,
        )
    }

    /// True if the edge touches the relation.
    pub fn touches(&self, rel: RelId) -> bool {
        self.left == rel || self.right == rel
    }

    /// The endpoint opposite to `rel`.
    ///
    /// # Panics
    /// Panics if `rel` is not an endpoint of this edge.
    pub fn other(&self, rel: RelId) -> RelId {
        if self.left == rel {
            self.right
        } else if self.right == rel {
            self.left
        } else {
            panic!("relation {rel} is not an endpoint of this edge");
        }
    }

    /// The join column on `rel`'s side.
    pub fn column_of(&self, rel: RelId) -> &Arc<str> {
        if self.left == rel {
            &self.left_column
        } else {
            &self.right_column
        }
    }

    /// True when the join column is unique (a key) on `rel`'s side.
    pub fn unique_on(&self, rel: RelId) -> bool {
        if self.left == rel {
            self.left_unique
        } else {
            self.right_unique
        }
    }

    /// The classic equi-join selectivity `1 / max(d_l, d_r)`.
    pub fn selectivity(&self) -> f64 {
        1.0 / self.left_distinct.max(self.right_distinct)
    }
}

/// A query's join graph together with the statistics the optimizer needs.
#[derive(Debug, Clone, Default)]
pub struct JoinGraph {
    relations: Vec<RelationInfo>,
    edges: Vec<JoinEdge>,
    /// For each relation, the indices of incident edges.
    adjacency: Vec<Vec<usize>>,
    /// For each relation, the relations it shares an edge with.
    neighbors: Vec<RelSet>,
}

impl JoinGraph {
    /// Creates an empty join graph.
    pub fn new() -> Self {
        JoinGraph::default()
    }

    /// Adds a relation and returns its id.
    ///
    /// # Panics
    /// Panics if the graph already holds [`RelSet::CAPACITY`] relations.
    pub fn add_relation(&mut self, info: RelationInfo) -> RelId {
        let id = RelId(self.relations.len());
        assert!(
            id.0 < RelSet::CAPACITY,
            "a join graph holds at most {} relations",
            RelSet::CAPACITY
        );
        self.relations.push(info);
        self.adjacency.push(Vec::new());
        self.neighbors.push(RelSet::default());
        id
    }

    /// Adds an equi-join edge.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or the edge is a self-loop.
    pub fn add_edge(&mut self, edge: JoinEdge) {
        assert!(
            edge.left.0 < self.relations.len(),
            "left endpoint out of range"
        );
        assert!(
            edge.right.0 < self.relations.len(),
            "right endpoint out of range"
        );
        assert_ne!(edge.left, edge.right, "self-joins are not supported");
        let idx = self.edges.len();
        self.adjacency[edge.left.0].push(idx);
        self.adjacency[edge.right.0].push(idx);
        self.neighbors[edge.left.0].insert(edge.right);
        self.neighbors[edge.right.0].insert(edge.left);
        self.edges.push(edge);
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// All relation ids.
    pub fn relation_ids(&self) -> impl Iterator<Item = RelId> {
        (0..self.relations.len()).map(RelId)
    }

    /// Info for one relation.
    pub fn relation(&self, id: RelId) -> &RelationInfo {
        &self.relations[id.0]
    }

    /// Mutable info for one relation (used by workload builders to adjust
    /// estimated cardinalities).
    pub fn relation_mut(&mut self, id: RelId) -> &mut RelationInfo {
        &mut self.relations[id.0]
    }

    /// All relations.
    pub fn relations(&self) -> &[RelationInfo] {
        &self.relations
    }

    /// Looks up a relation by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelId> {
        self.relations
            .iter()
            .position(|r| *r.name == *name)
            .map(RelId)
    }

    /// All edges.
    pub fn edges(&self) -> &[JoinEdge] {
        &self.edges
    }

    /// Edges incident to a relation.
    pub fn edges_of(&self, rel: RelId) -> impl Iterator<Item = &JoinEdge> {
        self.adjacency[rel.0].iter().map(|&i| &self.edges[i])
    }

    /// All edges between two relations (composite join keys produce several).
    pub(crate) fn edges_between(&self, a: RelId, b: RelId) -> Vec<&JoinEdge> {
        self.adjacency[a.0]
            .iter()
            .map(|&i| &self.edges[i])
            .filter(|e| e.touches(b))
            .collect()
    }

    /// True if two relations share at least one join edge.
    pub fn are_adjacent(&self, a: RelId, b: RelId) -> bool {
        self.neighbors[a.0].contains(b)
    }

    /// Neighbouring relations of `rel`.
    pub fn neighbors(&self, rel: RelId) -> RelSet {
        self.neighbors[rel.0]
    }

    /// True if some join edge has one endpoint in `a` and the other in `b`.
    pub fn are_joined(&self, a: RelSet, b: RelSet) -> bool {
        a.iter().any(|r| self.neighbors[r.0].intersects(b))
    }

    /// Edges with exactly one endpoint in `a` and the other in `b`.
    pub fn edges_across(&self, a: RelSet, b: RelSet) -> Vec<&JoinEdge> {
        self.edges
            .iter()
            .filter(|e| {
                (a.contains(e.left) && b.contains(e.right))
                    || (a.contains(e.right) && b.contains(e.left))
            })
            .collect()
    }

    /// The relations of `within` reachable from `start` through edges whose
    /// endpoints both lie in `within` (`start` included).
    pub(crate) fn component_of(&self, start: RelId, within: RelSet) -> RelSet {
        let mut reached = RelSet::single(start);
        let mut frontier = reached;
        while let Some(r) = frontier.first() {
            frontier.remove(r);
            let new = (self.neighbors[r.0] & within) - reached;
            reached = reached | new;
            frontier = frontier | new;
        }
        reached
    }

    /// True if the induced subgraph on `set` is connected (singletons and the
    /// empty set count as connected).
    pub fn is_connected_subset(&self, set: RelSet) -> bool {
        set.first()
            .is_none_or(|start| self.component_of(start, set) == set)
    }

    /// True if the whole graph is connected.
    pub fn is_connected(&self) -> bool {
        self.is_connected_subset(RelSet::first_n(self.num_relations()))
    }

    /// Connected components of the graph with `excluded` removed, ordered by
    /// their smallest relation id.
    pub fn components_excluding(&self, excluded: RelId) -> Vec<RelSet> {
        let mut remaining = RelSet::first_n(self.num_relations());
        remaining.remove(excluded);
        let mut components = Vec::new();
        while let Some(start) = remaining.first() {
            let component = self.component_of(start, remaining);
            remaining = remaining - component;
            components.push(component);
        }
        components
    }

    /// True if the join column of every edge between `a` and `b` is a key of
    /// `b` — the paper's `a -> b` notation (so for PKFK joins, `a` carries the
    /// foreign key and `b` the primary key).
    pub fn points_to(&self, a: RelId, b: RelId) -> bool {
        let edges = self.edges_between(a, b);
        !edges.is_empty() && edges.iter().all(|e| e.unique_on(b))
    }

    /// Fact-table candidates following Section 6.2: a relation is a fact
    /// table if no other relation joins it on its key columns (it is never on
    /// the unique side of an incident edge).
    pub fn fact_tables(&self) -> Vec<RelId> {
        self.relation_ids()
            .filter(|&r| {
                let mut has_edge = false;
                for e in self.edges_of(r) {
                    has_edge = true;
                    if e.unique_on(r) {
                        return false;
                    }
                }
                has_edge
            })
            .collect()
    }

    /// The graph as a clean snowflake (Definition 2): its one Section 6.2
    /// fact table and, for every component left when the fact is removed,
    /// the branch ordered from the relation adjacent to the fact
    /// (`R_{i,1}`) outwards (`R_{i,n_i}`), components by smallest relation
    /// id. A star (Definition 1) is the snowflake whose branches are single
    /// relations, a chain `R_0 -> ... -> R_n` (Definition 4) the one with
    /// the single branch `R_1..R_n`. `None` for anything else: no or several
    /// fact tables, a disconnected graph, a branch that forks, or an edge
    /// that does not point away from the fact.
    pub fn clean_snowflake(&self) -> Option<(RelId, Vec<Vec<RelId>>)> {
        let [fact] = self.fact_tables()[..] else {
            return None;
        };
        let branches = self.components_excluding(fact).into_iter();
        let branches = branches.map(|c| self.order_branch(fact, c));
        Some((fact, branches.collect::<Option<_>>()?))
    }

    /// Orders the relations of one fact-less component into a chain
    /// `R_{i,1}, ..., R_{i,n_i}` starting at the relation adjacent to the
    /// fact. Returns `None` if the component is not a valid snowflake branch.
    fn order_branch(&self, fact: RelId, component: RelSet) -> Option<Vec<RelId>> {
        // Exactly one relation of the branch joins the fact, and the fact
        // must point to it.
        let roots = component & self.neighbors(fact);
        let root = roots.first()?;
        if roots.len() != 1 || !self.points_to(fact, root) {
            return None;
        }
        let mut order = vec![root];
        let mut prev: Option<RelId> = None;
        let mut current = root;
        loop {
            let mut next = self.neighbors(current) & component;
            if let Some(p) = prev {
                next.remove(p);
            }
            match (next.first(), next.len()) {
                (None, _) => break,
                (Some(n), 1) => {
                    if !self.points_to(current, n) {
                        return None;
                    }
                    order.push(n);
                    prev = Some(current);
                    current = n;
                }
                _ => return None, // branching inside a branch: not a chain
            }
        }
        if order.len() != component.len() {
            return None;
        }
        Some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// fact(1M) -> d1(100), d2(1000), d3(10)
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

    /// fact -> b1_1 -> b1_2 ; fact -> b2_1
    fn snowflake() -> (JoinGraph, RelId) {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        let b1_1 = g.add_relation(RelationInfo::new("b1_1", 10_000.0, 1000.0));
        let b1_2 = g.add_relation(RelationInfo::new("b1_2", 100.0, 10.0));
        let b2_1 = g.add_relation(RelationInfo::new("b2_1", 500.0, 500.0));
        g.add_edge(JoinEdge::pkfk(fact, "b1_1_sk", b1_1, "sk", 10_000.0));
        g.add_edge(JoinEdge::pkfk(b1_1, "b1_2_sk", b1_2, "sk", 100.0));
        g.add_edge(JoinEdge::pkfk(fact, "b2_1_sk", b2_1, "sk", 500.0));
        (g, fact)
    }

    #[test]
    fn adjacency_and_neighbors() {
        let (g, fact, dims) = star();
        assert_eq!(g.num_relations(), 4);
        assert!(g.are_adjacent(fact, dims[0]));
        assert!(!g.are_adjacent(dims[0], dims[1]));
        assert_eq!(g.neighbors(fact).len(), 3);
        assert_eq!(g.neighbors(dims[2]), RelSet::single(fact));
        assert_eq!(g.edges_between(fact, dims[1]).len(), 1);
        assert!(g.edges_between(dims[0], dims[1]).is_empty());
    }

    #[test]
    fn pkfk_direction() {
        let (g, fact, dims) = star();
        assert!(g.points_to(fact, dims[0]), "fact -> dim");
        assert!(!g.points_to(dims[0], fact), "dim does not point to fact");
    }

    #[test]
    fn edge_helpers() {
        let e = JoinEdge::pkfk(RelId(0), "fk", RelId(1), "pk", 100.0);
        assert!(e.touches(RelId(0)));
        assert!(!e.touches(RelId(2)));
        assert_eq!(e.other(RelId(0)), RelId(1));
        assert_eq!(&**e.column_of(RelId(0)), "fk");
        assert_eq!(&**e.column_of(RelId(1)), "pk");
        assert!(e.unique_on(RelId(1)));
        assert!(!e.unique_on(RelId(0)));
        assert!((e.selectivity() - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let e = JoinEdge::pkfk(RelId(0), "fk", RelId(1), "pk", 100.0);
        e.other(RelId(5));
    }

    #[test]
    fn connectivity() {
        let (g, fact, dims) = star();
        assert!(g.is_connected());
        let sub: RelSet = [fact, dims[0]].into_iter().collect();
        assert!(g.is_connected_subset(sub));
        let disconnected: RelSet = [dims[0], dims[1]].into_iter().collect();
        assert!(!g.is_connected_subset(disconnected));
        assert!(g.is_connected_subset(RelSet::default()));
    }

    #[test]
    fn components_excluding_fact() {
        let (g, fact) = snowflake();
        let mut comps = g.components_excluding(fact);
        comps.sort_by_key(|c| c.len());
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 1);
        assert_eq!(comps[1].len(), 2);
    }

    #[test]
    fn fact_table_detection() {
        let (g, fact, _) = star();
        assert_eq!(g.fact_tables(), vec![fact]);
        let (g2, fact2) = snowflake();
        assert_eq!(g2.fact_tables(), vec![fact2]);
    }

    #[test]
    fn classify_star() {
        let (g, fact, dims) = star();
        let branches: Vec<Vec<RelId>> = dims.iter().map(|&d| vec![d]).collect();
        assert_eq!(g.clean_snowflake(), Some((fact, branches)));
    }

    #[test]
    fn classify_snowflake() {
        let (g, fact) = snowflake();
        let (f, branches) = g.clean_snowflake().expect("a clean snowflake");
        assert_eq!(f, fact);
        let lens: BTreeSet<usize> = branches.iter().map(|b| b.len()).collect();
        assert_eq!(lens, [1usize, 2].into_iter().collect());
        // The branch of length 2 starts at the relation adjacent to the fact.
        let long = branches.iter().find(|b| b.len() == 2).unwrap();
        assert!(g.are_adjacent(long[0], f));
        assert!(!g.are_adjacent(long[1], f));
    }

    /// r0 -> r1 -> r2; with `one_to_one`, r0's join column is a key too.
    fn chain(one_to_one: bool) -> (JoinGraph, [RelId; 3]) {
        let mut g = JoinGraph::new();
        let r0 = g.add_relation(RelationInfo::new("r0", 10_000.0, 10_000.0));
        let r1 = g.add_relation(RelationInfo::new("r1", 1000.0, 1000.0));
        let r2 = g.add_relation(RelationInfo::new("r2", 100.0, 10.0));
        g.add_edge(JoinEdge::new(
            r0, r1, "r1_sk", "sk", 1000.0, 1000.0, one_to_one, true,
        ));
        g.add_edge(JoinEdge::pkfk(r1, "r2_sk", r2, "sk", 100.0));
        (g, [r0, r1, r2])
    }

    #[test]
    fn classify_branch_chain() {
        let (g, [r0, r1, r2]) = chain(false);
        assert_eq!(g.clean_snowflake(), Some((r0, vec![vec![r1, r2]])));
    }

    #[test]
    fn a_chain_rooted_at_a_key_has_no_fact_table() {
        // A path whose R0 is the key side of a 1:1 edge still points
        // outwards all the way, but no relation qualifies as a Section 6.2
        // fact table, so it is not a clean snowflake.
        let (g, _) = chain(true);
        assert!(g.fact_tables().is_empty());
        assert_eq!(g.clean_snowflake(), None);
    }

    #[test]
    fn classify_general_for_multi_fact() {
        // Two fact tables sharing a dimension.
        let mut g = JoinGraph::new();
        let f1 = g.add_relation(RelationInfo::new("f1", 1_000_000.0, 1_000_000.0));
        let f2 = g.add_relation(RelationInfo::new("f2", 500_000.0, 500_000.0));
        let d = g.add_relation(RelationInfo::new("d", 100.0, 100.0));
        g.add_edge(JoinEdge::pkfk(f1, "d_sk", d, "sk", 100.0));
        g.add_edge(JoinEdge::pkfk(f2, "d_sk", d, "sk", 100.0));
        assert_eq!(g.clean_snowflake(), None);
        assert_eq!(g.fact_tables().len(), 2);
    }

    #[test]
    fn classify_general_for_disconnected() {
        let mut g = JoinGraph::new();
        let _a = g.add_relation(RelationInfo::new("a", 10.0, 10.0));
        let _b = g.add_relation(RelationInfo::new("b", 10.0, 10.0));
        assert_eq!(g.clean_snowflake(), None);
        assert!(!g.is_connected());
        // A star plus a relation joined to nothing is not a snowflake either.
        let (mut g, _, _) = star();
        g.add_relation(RelationInfo::new("loose", 10.0, 10.0));
        assert_eq!(g.clean_snowflake(), None);
    }

    #[test]
    fn classify_general_for_non_key_joins() {
        // fact joined to a "dimension" on a non-unique column.
        let mut g = JoinGraph::new();
        let f = g.add_relation(RelationInfo::new("f", 1000.0, 1000.0));
        let d = g.add_relation(RelationInfo::new("d", 100.0, 100.0));
        g.add_edge(JoinEdge::new(f, d, "x", "y", 50.0, 60.0, false, false));
        assert_eq!(g.clean_snowflake(), None);
    }

    #[test]
    fn two_relation_pkfk_classifies_as_star() {
        let mut g = JoinGraph::new();
        let f = g.add_relation(RelationInfo::new("f", 1000.0, 1000.0));
        let d = g.add_relation(RelationInfo::new("d", 100.0, 100.0));
        g.add_edge(JoinEdge::pkfk(f, "d_sk", d, "sk", 100.0));
        assert_eq!(g.clean_snowflake(), Some((f, vec![vec![d]])));
    }

    #[test]
    fn relation_lookup_by_name() {
        let (g, fact, _) = star();
        assert_eq!(g.relation_by_name("fact"), Some(fact));
        assert_eq!(g.relation_by_name("nope"), None);
        assert_eq!(&*g.relation(fact).name, "fact");
    }

    #[test]
    fn local_selectivity() {
        let r = RelationInfo::new("r", 100.0, 25.0);
        assert!((r.local_selectivity() - 0.25).abs() < 1e-12);
        let full = RelationInfo::new("r", 100.0, 100.0);
        assert_eq!(full.local_selectivity(), 1.0);
    }

    #[test]
    fn edges_across_sets() {
        let (g, fact, dims) = star();
        let left = RelSet::single(fact);
        let right: RelSet = [dims[0], dims[1]].into_iter().collect();
        assert_eq!(g.edges_across(left, right).len(), 2);
        assert!(g.are_joined(left, right) && g.are_joined(right, left));
        let none = RelSet::single(dims[2]);
        assert_eq!(g.edges_across(right, none).len(), 0);
        assert!(!g.are_joined(right, none));
    }

    #[test]
    #[should_panic(expected = "at most 128 relations")]
    fn a_graph_holds_at_most_capacity_relations() {
        let mut g = JoinGraph::new();
        for i in 0..=RelSet::CAPACITY {
            g.add_relation(RelationInfo::new(format!("r{i}"), 1.0, 1.0));
        }
    }
}
