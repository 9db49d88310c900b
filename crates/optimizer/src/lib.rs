//! Query optimizers for the BQO reproduction.
//!
//! Two optimizers are provided behind the [`Optimizer`] trait:
//!
//! * [`BaselineOptimizer`] — a conventional cost-based join-order optimizer
//!   (dynamic programming over connected subgraphs, greedy fallback for very
//!   large queries) that minimizes `Cout` **without** considering bitvector
//!   filters. Filters are added afterwards by Algorithm 1 exactly like the
//!   "post-processing" treatment the paper describes for the original
//!   Microsoft SQL Server.
//! * [`BqoOptimizer`] — the paper's contribution: construct the join order
//!   with the impact of bitvector filters taken into account, by evaluating a
//!   *linear* number of candidate right-deep plans (Sections 4–5) through
//!   Algorithm 2 (single fact table) and Algorithm 3 (arbitrary join graphs),
//!   then selecting bitvector filters cost-based (Section 6.3).
//!
//! [`enumerate_right_deep`] and [`exhaustive_best_right_deep`] are the
//! exhaustive right-deep enumeration used by the tests and the Table 2
//! experiment to verify that the candidate sets really contain a
//! minimum-cost plan.

#![forbid(unsafe_code)]

mod candidates;
mod costed_bv;
mod dp;
mod enumerate;
mod general;
mod snowflake;

use bqo_plan::{push_down_bitvectors, CostModel, JoinGraph, PhysicalPlan};

pub use candidates::candidate_plans;
pub use costed_bv::prune_low_benefit_filters;
pub use dp::conventional_tree;
pub use enumerate::{enumerate_right_deep, exhaustive_best_right_deep};
pub use general::optimize_join_graph;

// Algorithm 3's parts, which the costing suite (`costing_oracle`) holds to a
// full reference costing one candidate at a time.
pub use general::extract_snowflakes;
pub use snowflake::{for_each_snowflake_candidate, optimize_snowflake};

/// A join-order optimizer: join graph in, physical plan (with bitvector
/// placements) out.
pub trait Optimizer {
    /// Human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// Produces an executable physical plan for the query.
    fn optimize(&self, graph: &JoinGraph) -> PhysicalPlan;
}

/// The default λ threshold (Section 6.3): the minimum estimated eliminated
/// fraction a bitvector filter must achieve to be kept. The paper profiles
/// ~10% as the break-even and uses 5% in the implementation. Reports that
/// print the threshold (e.g. `OptimizerChoice::display_label`) read this
/// constant so they cannot drift from the optimizer's behaviour.
pub const DEFAULT_LAMBDA_THRESHOLD: f64 = 0.05;

/// The paper's bitvector-aware query optimizer.
#[derive(Debug, Clone, Copy)]
pub struct BqoOptimizer {
    /// Minimum estimated eliminated fraction (λ) a bitvector filter must
    /// achieve to be kept (Section 6.3). The paper profiles ~10% as the
    /// break-even and uses 5% in the implementation.
    pub lambda_threshold: f64,
}

impl Default for BqoOptimizer {
    fn default() -> Self {
        BqoOptimizer::with_threshold(DEFAULT_LAMBDA_THRESHOLD)
    }
}

impl BqoOptimizer {
    /// Creates the optimizer with the default λ threshold.
    pub fn new() -> Self {
        BqoOptimizer::default()
    }

    /// Creates the optimizer with an explicit λ threshold.
    pub fn with_threshold(lambda_threshold: f64) -> Self {
        BqoOptimizer { lambda_threshold }
    }
}

impl Optimizer for BqoOptimizer {
    fn name(&self) -> &'static str {
        "bqo"
    }

    fn optimize(&self, graph: &JoinGraph) -> PhysicalPlan {
        let cost_model = CostModel::new(graph);
        let mut tree = optimize_join_graph(graph, &cost_model);
        if graph.num_relations() > 1 {
            // Section 6.4, alternative-plan integration: also evaluate the
            // plan the conventional optimizer would have produced under the
            // bitvector-aware cost, and keep whichever is cheaper. This is
            // how the technique avoids regressions when the original plan is
            // already good (e.g. bushy plans for queries with weakly
            // filtered dimensions).
            let conventional = conventional_tree(graph, &cost_model);
            let bqo_cost = cost_model.cout(&tree, f64::INFINITY);
            if cost_model.cout(&conventional, bqo_cost) < bqo_cost {
                tree = conventional;
            }
        }
        let plan = PhysicalPlan::from_join_tree(graph, &tree);
        let mut plan = push_down_bitvectors(graph, plan);
        prune_low_benefit_filters(&cost_model, &mut plan, self.lambda_threshold);
        plan
    }
}

/// The conventional optimizer used as the paper's baseline ("Original").
#[derive(Debug, Clone, Copy)]
pub struct BaselineOptimizer {
    /// When true (the default, matching SQL Server), bitvector filters are
    /// added to the chosen plan as a post-processing step and, like SQL
    /// Server's, dropped again where they are not expected to eliminate more
    /// than [`DEFAULT_LAMBDA_THRESHOLD`]. When false the plan executes
    /// without any bitvector filters (the Table 4 ablation).
    pub add_bitvectors: bool,
}

impl Default for BaselineOptimizer {
    fn default() -> Self {
        BaselineOptimizer {
            add_bitvectors: true,
        }
    }
}

impl BaselineOptimizer {
    /// Creates the baseline with default configuration.
    pub fn new() -> Self {
        BaselineOptimizer::default()
    }

    /// Baseline that never adds bitvector filters.
    pub fn without_bitvectors() -> Self {
        BaselineOptimizer {
            add_bitvectors: false,
        }
    }
}

impl Optimizer for BaselineOptimizer {
    fn name(&self) -> &'static str {
        if self.add_bitvectors {
            "baseline+bv"
        } else {
            "baseline"
        }
    }

    fn optimize(&self, graph: &JoinGraph) -> PhysicalPlan {
        let cost_model = CostModel::new(graph);
        let tree = conventional_tree(graph, &cost_model);
        let mut plan = PhysicalPlan::from_join_tree(graph, &tree);
        if self.add_bitvectors {
            plan = push_down_bitvectors(graph, plan);
            prune_low_benefit_filters(&cost_model, &mut plan, DEFAULT_LAMBDA_THRESHOLD);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_plan::{JoinEdge, RelationInfo};

    fn star_graph() -> JoinGraph {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 1_000_000.0, 1_000_000.0));
        let d1 = g.add_relation(RelationInfo::new("d1", 100.0, 10.0));
        let d2 = g.add_relation(RelationInfo::new("d2", 1000.0, 1000.0));
        let d3 = g.add_relation(RelationInfo::new("d3", 50.0, 5.0));
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 100.0));
        g.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 1000.0));
        g.add_edge(JoinEdge::pkfk(fact, "d3_sk", d3, "sk", 50.0));
        g
    }

    #[test]
    fn both_optimizers_produce_executable_plans() {
        let g = star_graph();
        for opt in [
            &BqoOptimizer::new() as &dyn Optimizer,
            &BaselineOptimizer::new(),
        ] {
            let plan = opt.optimize(&g);
            assert_eq!(plan.relation_set(plan.root()).len(), 4, "{}", opt.name());
            assert_eq!(plan.num_joins(), 3);
        }
    }

    #[test]
    fn bqo_cost_never_worse_than_postprocessed_baseline() {
        let g = star_graph();
        let model = CostModel::new(&g);
        let bqo_plan = BqoOptimizer::new().optimize(&g);
        let base_plan = BaselineOptimizer::new().optimize(&g);
        let bqo_cost = model.cout_physical(&bqo_plan).total;
        let base_cost = model.cout_physical(&base_plan).total;
        assert!(
            bqo_cost <= base_cost + 1e-6,
            "bqo {bqo_cost} vs baseline {base_cost}"
        );
    }

    #[test]
    fn baseline_without_bitvectors_has_no_placements() {
        let g = star_graph();
        let plan = BaselineOptimizer::without_bitvectors().optimize(&g);
        assert!(plan.placements.is_empty());
        let with = BaselineOptimizer::new().optimize(&g);
        assert!(!with.placements.is_empty());
    }

    #[test]
    fn cost_based_pruning_drops_useless_filters() {
        let g = star_graph();
        // d2 is unfiltered: its bitvector filter eliminates nothing, so the
        // cost-based configuration drops it while a zero-threshold
        // configuration keeps all three.
        let keep_all = BqoOptimizer::with_threshold(0.0).optimize(&g);
        let pruned = BqoOptimizer::new().optimize(&g);
        assert!(pruned.placements.len() < keep_all.placements.len());
        assert!(!pruned.placements.is_empty());
    }

    #[test]
    fn optimizer_names() {
        assert_eq!(BqoOptimizer::new().name(), "bqo");
        assert_eq!(BaselineOptimizer::new().name(), "baseline+bv");
        assert_eq!(BaselineOptimizer::without_bitvectors().name(), "baseline");
    }
}
