//! Algorithm 1 of the paper: bitvector filter creation and push-down.
//!
//! Every hash join creates a single bitvector filter from the equi-join
//! columns of its build side. The filter is then pushed down the probe side
//! to the lowest operator whose output still contains *all* of the filter's
//! probe-side columns:
//!
//! * if exactly one child of the current operator contains all the columns,
//!   the filter descends into that child;
//! * otherwise it becomes a *residual* filter applied to the current
//!   operator's output.
//!
//! The result is recorded as [`BitvectorPlacement`]s on the physical plan; the
//! executor applies them at run time and the cost model uses them to compute
//! the bitvector-aware `Cout`.

use crate::graph::JoinGraph;
use crate::physical::{BitvectorPlacement, ColumnRef, NodeId, PhysicalNode, PhysicalPlan};
use crate::relset::RelSet;

/// A filter travelling down the plan during push-down.
#[derive(Debug, Clone)]
struct PendingFilter {
    source_join: NodeId,
    probe_columns: Vec<ColumnRef>,
}

impl PendingFilter {
    /// Relations referenced by the filter's probe-side columns.
    fn referenced(&self) -> RelSet {
        self.probe_columns.iter().map(|c| c.relation).collect()
    }
}

/// Runs Algorithm 1 on a physical plan, returning the same plan with
/// `placements` populated. Any placements already present are replaced.
pub fn push_down_bitvectors(_graph: &JoinGraph, mut plan: PhysicalPlan) -> PhysicalPlan {
    let mut placements = Vec::new();
    let root = plan.root();
    push_down_node(&plan, root, Vec::new(), &mut placements);
    plan.placements = placements;
    plan
}

fn push_down_node(
    plan: &PhysicalPlan,
    node: NodeId,
    incoming: Vec<PendingFilter>,
    out: &mut Vec<BitvectorPlacement>,
) {
    match plan.node(node) {
        PhysicalNode::Scan { .. } => {
            // Everything that reached a scan is applied there.
            for f in incoming {
                out.push(BitvectorPlacement {
                    source_join: f.source_join,
                    target: node,
                    probe_columns: f.probe_columns,
                });
            }
        }
        PhysicalNode::HashJoin { build, probe, keys } => {
            let build_set = plan.relation_set(*build);
            let probe_set = plan.relation_set(*probe);

            let mut to_build: Vec<PendingFilter> = Vec::new();
            let mut to_probe: Vec<PendingFilter> = Vec::new();

            // The filter this join creates from its build side, destined for
            // the probe side (line 8-10 of Algorithm 1).
            to_probe.push(PendingFilter {
                source_join: node,
                probe_columns: keys.iter().map(|k| k.probe.clone()).collect(),
            });

            // Route the incoming filters (line 12-23).
            for f in incoming {
                let referenced = f.referenced();
                let in_build = referenced.is_subset(build_set);
                let in_probe = referenced.is_subset(probe_set);
                match (in_build, in_probe) {
                    (true, false) => to_build.push(f),
                    (false, true) => to_probe.push(f),
                    // Spans both children (or neither, which cannot happen for
                    // well-formed filters): residual at this join.
                    _ => out.push(BitvectorPlacement {
                        source_join: f.source_join,
                        target: node,
                        probe_columns: f.probe_columns,
                    }),
                }
            }

            push_down_node(plan, *build, to_build, out);
            push_down_node(plan, *probe, to_probe, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{JoinEdge, JoinGraph, RelId, RelationInfo};
    use crate::tree::JoinTree;
    use std::collections::BTreeSet;

    fn scan_of(plan: &PhysicalPlan, rel: RelId) -> NodeId {
        plan.nodes()
            .find_map(|(id, n)| match n {
                PhysicalNode::Scan { relation } if *relation == rel => Some(id),
                _ => None,
            })
            .unwrap()
    }

    /// The placements targeted at `node`.
    fn at(plan: &PhysicalPlan, node: NodeId) -> Vec<&BitvectorPlacement> {
        let placements = plan.indexed_placements_at(node);
        placements.map(|(_, p)| p).collect()
    }

    /// Star: fact joins d1, d2; plan T(fact, d1, d2).
    #[test]
    fn star_filters_all_reach_the_fact_scan() {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        let d1 = g.add_relation(RelationInfo::new("d1", 100.0, 10.0));
        let d2 = g.add_relation(RelationInfo::new("d2", 1000.0, 500.0));
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 100.0));
        g.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 1000.0));

        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));

        let fact_scan = scan_of(&plan, fact);
        let at_fact = at(&plan, fact_scan);
        assert_eq!(
            at_fact.len(),
            2,
            "both dimension filters reach the fact scan"
        );
        assert_eq!(plan.placements.len(), 2);
        // Each filter checks the fact's foreign-key column.
        let cols: BTreeSet<&str> = at_fact
            .iter()
            .flat_map(|p| p.probe_columns.iter().map(|c| &*c.column))
            .collect();
        assert_eq!(cols, ["d1_sk", "d2_sk"].into_iter().collect());
    }

    /// Snowflake chain fact -> r1 -> r2, plan T(fact, r1, r2): the filter from
    /// r2 lands on r1's scan, the filter from r1 lands on the fact's scan
    /// (paper Lemma 7).
    #[test]
    fn snowflake_filters_follow_the_chain() {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        let r1 = g.add_relation(RelationInfo::new("r1", 10_000.0, 10_000.0));
        let r2 = g.add_relation(RelationInfo::new("r2", 100.0, 10.0));
        g.add_edge(JoinEdge::pkfk(fact, "r1_sk", r1, "sk", 10_000.0));
        g.add_edge(JoinEdge::pkfk(r1, "r2_sk", r2, "sk", 100.0));

        let tree = JoinTree::right_deep(&[fact, r1, r2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));

        let fact_scan = scan_of(&plan, fact);
        let r1_scan = scan_of(&plan, r1);
        assert_eq!(at(&plan, fact_scan).len(), 1);
        assert_eq!(at(&plan, r1_scan).len(), 1);
        assert_eq!(&*at(&plan, r1_scan)[0].probe_columns[0].column, "r2_sk");
    }

    /// The Figure 1 example: join graph A-B, B-C, A-D, C-D and the plan
    /// T(B, A, C, D). The filter from D references columns of both A and C,
    /// so it cannot reach a scan and stays as a residual at the join of
    /// {A, B, C}; the filter from C bypasses the lower join and reaches B's
    /// scan; the filter from A reaches B's scan.
    #[test]
    fn figure1_composite_filter_stops_at_join() {
        let mut g = JoinGraph::new();
        let a = g.add_relation(RelationInfo::new("A", 1000.0, 1000.0));
        let b = g.add_relation(RelationInfo::new("B", 10_000.0, 10_000.0));
        let c = g.add_relation(RelationInfo::new("C", 2000.0, 2000.0));
        let d = g.add_relation(RelationInfo::new("D", 500.0, 500.0));
        g.add_edge(JoinEdge::new(
            a, b, "b_id", "id", 10_000.0, 10_000.0, false, true,
        ));
        g.add_edge(JoinEdge::new(
            b, c, "c_id", "id", 2000.0, 2000.0, false, true,
        ));
        g.add_edge(JoinEdge::new(
            d, a, "a_id", "id", 1000.0, 1000.0, false, true,
        ));
        g.add_edge(JoinEdge::new(
            d, c, "c_id2", "id2", 2000.0, 2000.0, false, true,
        ));

        // T(B, A, C, D): bottom probe B, then builds A, C, D.
        let tree = JoinTree::right_deep(&[b, a, c, d]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));

        let b_scan = scan_of(&plan, b);
        // Filters from A (on B.?) and from C (on B.?) reach B's scan.
        assert_eq!(at(&plan, b_scan).len(), 2);

        // The filter from D is residual at the join whose output is {A, B, C}.
        let residual: Vec<_> = plan
            .placements
            .iter()
            .filter(|p| matches!(plan.node(p.target), PhysicalNode::HashJoin { .. }))
            .collect();
        assert_eq!(residual.len(), 1);
        let target_set = plan.relation_set(residual[0].target);
        assert_eq!(target_set, [a, b, c].into_iter().collect());
        assert_eq!(residual[0].probe_columns.len(), 2);
    }

    /// Filters can also be pushed into the *build* side of a lower join when
    /// all referenced columns live there.
    #[test]
    fn filter_pushed_into_build_side() {
        // Star with plan T(d1, fact, d2): the filter from d2 references
        // fact.d2_sk; at the lower join (build fact, probe d1) the column
        // lives in the build child, so it must be applied at the fact scan.
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        let d1 = g.add_relation(RelationInfo::new("d1", 100.0, 10.0));
        let d2 = g.add_relation(RelationInfo::new("d2", 1000.0, 500.0));
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 100.0));
        g.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 1000.0));

        let tree = JoinTree::right_deep(&[d1, fact, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));

        let fact_scan = scan_of(&plan, fact);
        let d1_scan = scan_of(&plan, d1);
        // d2's filter reaches the fact scan (through the lower join's build
        // side); the lower join's own filter (from fact) reaches d1's scan.
        assert_eq!(at(&plan, fact_scan).len(), 1);
        assert_eq!(&*at(&plan, fact_scan)[0].probe_columns[0].column, "d2_sk");
        assert_eq!(at(&plan, d1_scan).len(), 1);
        assert_eq!(&*at(&plan, d1_scan)[0].probe_columns[0].column, "sk");
    }

    /// Push-down also works for bushy trees produced by the baseline
    /// optimizer (post-processing integration).
    #[test]
    fn bushy_tree_gets_filters() {
        let mut g = JoinGraph::new();
        let f1 = g.add_relation(RelationInfo::new("f1", 100_000.0, 100_000.0));
        let d1 = g.add_relation(RelationInfo::new("d1", 100.0, 10.0));
        let f2 = g.add_relation(RelationInfo::new("f2", 50_000.0, 50_000.0));
        let d2 = g.add_relation(RelationInfo::new("d2", 200.0, 20.0));
        g.add_edge(JoinEdge::pkfk(f1, "d1_sk", d1, "sk", 100.0));
        g.add_edge(JoinEdge::pkfk(f2, "d2_sk", d2, "sk", 200.0));
        g.add_edge(JoinEdge::new(
            f1, f2, "k", "k", 1000.0, 1000.0, false, false,
        ));

        let bushy = JoinTree::join(
            JoinTree::join(JoinTree::leaf(d1), JoinTree::leaf(f1)),
            JoinTree::join(JoinTree::leaf(d2), JoinTree::leaf(f2)),
        );
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &bushy));
        // Three joins -> three filters, each pushed to a scan (all single
        // column, single relation references).
        assert_eq!(plan.placements.len(), 3);
        for p in &plan.placements {
            assert!(matches!(plan.node(p.target), PhysicalNode::Scan { .. }));
        }
    }

    #[test]
    fn single_scan_plan_has_no_placements() {
        let mut g = JoinGraph::new();
        let r = g.add_relation(RelationInfo::new("r", 10.0, 10.0));
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &JoinTree::leaf(r)));
        assert!(plan.placements.is_empty());
    }
}
