//! One driver function per table / figure of the paper's evaluation.

use bqo_core::bitvector::FilterKind;
use bqo_core::exec::ExecConfig;
use bqo_core::experiment::{
    bitvector_effect, run_workload, BitvectorEffectReport, ExperimentOptions, WorkloadReport,
};
use bqo_core::optimizer::{candidate_plans, count_right_deep_plans, exhaustive_best_right_deep};
use bqo_core::plan::{push_down_bitvectors, CostModel, PhysicalPlan, RightDeepTree};
use bqo_core::workloads::{
    customer_like, job_like, microbench, snowflake, star, tpcds_like, Scale, Workload,
    WorkloadStats,
};
use bqo_core::{Engine, OptimizerChoice, RunOptions};

/// Measurements for one plan of the Figure 2 motivating example.
#[derive(Debug, Clone)]
pub struct Figure2Plan {
    pub label: String,
    pub order: String,
    pub estimated_cout: f64,
    pub executed_work: u64,
    pub elapsed_secs: f64,
    pub output_rows: u64,
}

/// The Figure 2 experiment: the best conventional plan with and without
/// post-processed bitvector filters versus the bitvector-aware best plan.
#[derive(Debug, Clone)]
pub struct Figure2Result {
    pub plans: Vec<Figure2Plan>,
}

/// Runs the Figure 2 motivating example.
pub fn run_figure2(scale: Scale) -> Figure2Result {
    let workload = job_like::figure2_workload(scale, 7);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let query = &workload.queries[0];
    let graph = query
        .to_join_graph(engine.catalog())
        .expect("figure 2 query resolves");
    let model = CostModel::new(&graph);

    let (p1, _) = exhaustive_best_right_deep(&graph, &model, false).expect("plan space non-empty");
    let (p2, _) = exhaustive_best_right_deep(&graph, &model, true).expect("plan space non-empty");

    let describe = |tree: &RightDeepTree| -> String {
        let names: Vec<&str> = tree
            .order()
            .iter()
            .map(|&r| graph.relation(r).name.as_str())
            .collect();
        format!("T({})", names.join(", "))
    };

    let session = engine.session();
    let mut plans = Vec::new();
    let mut measure = |label: &str, tree: &RightDeepTree, with_bitvectors: bool| {
        let plan = PhysicalPlan::from_join_tree(&graph, &tree.to_join_tree());
        let plan = if with_bitvectors {
            push_down_bitvectors(&graph, plan)
        } else {
            plan
        };
        let config = if with_bitvectors {
            ExecConfig::default()
        } else {
            ExecConfig::without_bitvectors()
        };
        let stmt = engine.prepare_plan(&query.name, graph.clone(), plan);
        let result = session
            .execute(&stmt, RunOptions::new().with_exec_config(config))
            .expect("figure 2 plan executes")
            .result;
        plans.push(Figure2Plan {
            label: label.to_string(),
            order: describe(tree),
            estimated_cout: stmt.estimated_cost().total,
            executed_work: result.metrics.logical_work(),
            elapsed_secs: result.metrics.elapsed_secs(),
            output_rows: result.output_rows,
        });
    };

    measure("P1 (best w/o bitvectors), no filters", &p1, false);
    measure("P1 + post-processed bitvector filters", &p1, true);
    measure("P2 (bitvector-aware best), with filters", &p2, true);
    measure("P2 without bitvector filters", &p2, false);

    Figure2Result { plans }
}

/// One row of the Table 2 plan-space complexity summary.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub shape: String,
    pub relations: usize,
    pub total_plans: u64,
    pub candidate_plans: usize,
    pub candidates_contain_optimum: bool,
}

/// Runs the Table 2 experiment: plan-space sizes and candidate-set
/// optimality for stars, branches and snowflakes of growing size.
pub fn run_table2() -> Vec<Table2Row> {
    let mut rows = Vec::new();

    for n in 2..=7usize {
        let catalog = star::build_catalog(Scale(0.01), n, 11);
        let predicates: Vec<(usize, i64)> = (0..n).map(|i| (i, 1 + (i as i64 * 7) % 20)).collect();
        let query = star::build_query(format!("star{n}"), n, &predicates);
        let graph = query.to_join_graph(&catalog).expect("star resolves");
        rows.push(table2_row(format!("star ({n} dims)"), &graph));
    }

    for lengths in [vec![1usize, 2], vec![2, 2], vec![1, 2, 3], vec![2, 3, 2]] {
        let catalog = snowflake::build_catalog(Scale(0.01), &lengths, 13);
        let predicates: Vec<(usize, usize, i64)> = lengths
            .iter()
            .enumerate()
            .map(|(i, &len)| (i, len, 1 + (i as i64 * 5) % 20))
            .collect();
        let query = snowflake::build_query(format!("snow{lengths:?}"), &lengths, &predicates);
        let graph = query.to_join_graph(&catalog).expect("snowflake resolves");
        rows.push(table2_row(format!("snowflake {lengths:?}"), &graph));
    }

    rows
}

fn table2_row(shape: String, graph: &bqo_core::JoinGraph) -> Table2Row {
    let model = CostModel::new(graph);
    let total = count_right_deep_plans(graph);
    let candidates = candidate_plans(graph).expect("clean shapes classify");
    let best_candidate = candidates
        .iter()
        .map(|p| model.cout_right_deep_total(p, true))
        .fold(f64::INFINITY, f64::min);
    let (_, best) = exhaustive_best_right_deep(graph, &model, true).expect("non-empty");
    Table2Row {
        shape,
        relations: graph.num_relations(),
        total_plans: total,
        candidate_plans: candidates.len(),
        candidates_contain_optimum: best_candidate <= best * (1.0 + 1e-9) + 1e-6,
    }
}

/// Builds the three benchmark workloads at the given scale (Table 3).
pub fn build_workloads(scale: Scale, queries: usize) -> Vec<Workload> {
    vec![
        tpcds_like::generate(scale, queries, 1),
        job_like::generate(scale, queries, 2),
        customer_like::generate(Scale(scale.0 * 0.5), queries.min(20), 3),
    ]
}

/// Runs the Table 3 experiment: workload statistics.
pub fn run_table3(scale: Scale, queries: usize) -> Vec<WorkloadStats> {
    build_workloads(scale, queries)
        .iter()
        .map(|w| w.stats())
        .collect()
}

/// One point of the Figure 7 bitvector-overhead profile.
#[derive(Debug, Clone)]
pub struct Figure7Point {
    /// Fraction of build-side keys kept (the paper's "selectivity of bitmap").
    pub keep_fraction: f64,
    /// Observed fraction of probe tuples eliminated by the filter.
    pub eliminated_fraction: f64,
    /// Wall-clock seconds with bitvector filtering.
    pub secs_with_filter: f64,
    /// Wall-clock seconds without bitvector filtering (same plan).
    pub secs_without_filter: f64,
    /// Logical work with bitvector filtering.
    pub work_with_filter: u64,
    /// Logical work without bitvector filtering.
    pub work_without_filter: u64,
}

/// Runs the Figure 7 micro-benchmark: one PKFK hash join whose build-side
/// predicate selectivity is swept, executed with and without the bitvector
/// filter.
pub fn run_figure7(scale: Scale, repetitions: usize) -> Vec<Figure7Point> {
    let catalog = microbench::build_catalog(scale, 5);
    let engine = Engine::from_catalog(catalog);
    let mut points = Vec::new();
    let session = engine.session();
    for &keep in &microbench::FIGURE7_SELECTIVITIES {
        let query = microbench::query_with_selectivity(keep);
        let prepared = engine
            .prepare(&query, OptimizerChoice::BqoWithThreshold(0.0))
            .expect("micro query optimizes");
        let mut best_with = f64::INFINITY;
        let mut best_without = f64::INFINITY;
        let mut work_with = 0;
        let mut work_without = 0;
        let mut eliminated = 0.0;
        for _ in 0..repetitions.max(1) {
            let with = session
                .execute(
                    &prepared,
                    RunOptions::new().with_exec_config(ExecConfig::default()),
                )
                .expect("micro query executes")
                .result;
            let without = session
                .execute(
                    &prepared,
                    RunOptions::new().with_exec_config(ExecConfig::without_bitvectors()),
                )
                .expect("micro query executes")
                .result;
            if with.metrics.elapsed_secs() < best_with {
                best_with = with.metrics.elapsed_secs();
                work_with = with.metrics.logical_work();
                eliminated = with.metrics.filter_stats.elimination_rate();
            }
            if without.metrics.elapsed_secs() < best_without {
                best_without = without.metrics.elapsed_secs();
                work_without = without.metrics.logical_work();
            }
        }
        points.push(Figure7Point {
            keep_fraction: keep,
            eliminated_fraction: eliminated,
            secs_with_filter: best_with,
            secs_without_filter: best_without,
            work_with_filter: work_with,
            work_without_filter: work_without,
        });
    }
    points
}

/// Runs the Figure 8/9/10 workload comparison for every benchmark workload.
pub fn run_workload_comparisons(scale: Scale, queries: usize) -> Vec<WorkloadReport> {
    build_workloads(scale, queries)
        .iter()
        .map(|w| run_workload(w, ExperimentOptions::default()).expect("workload runs"))
        .collect()
}

/// Runs the Table 4 experiment (same plans with and without bitvector
/// filtering) for every benchmark workload.
pub fn run_table4(scale: Scale, queries: usize) -> Vec<BitvectorEffectReport> {
    build_workloads(scale, queries)
        .iter()
        .map(|w| bitvector_effect(w, ExperimentOptions::default()).expect("workload runs"))
        .collect()
}

/// One row of the λ-threshold ablation (Section 6.3 / 7.3).
#[derive(Debug, Clone)]
pub struct ThresholdAblationRow {
    pub lambda_threshold: f64,
    pub total_work: u64,
    pub total_secs: f64,
    pub filters_created: usize,
}

/// Sweeps the cost-based filter threshold λ on the TPC-DS-like workload.
pub fn run_ablation_threshold(scale: Scale, queries: usize) -> Vec<ThresholdAblationRow> {
    let workload = tpcds_like::generate(scale, queries, 1);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let session = engine.session();
    let mut rows = Vec::new();
    for &threshold in &[0.0, 0.05, 0.1, 0.2, 0.5, 0.9] {
        let mut total_work = 0u64;
        let mut total_secs = 0.0;
        let mut filters = 0usize;
        for query in &workload.queries {
            let prepared = engine
                .prepare(query, OptimizerChoice::BqoWithThreshold(threshold))
                .expect("query optimizes");
            let result = session
                .execute(&prepared, RunOptions::new())
                .expect("query executes")
                .result;
            total_work += result.metrics.logical_work();
            total_secs += result.metrics.elapsed_secs();
            filters += result.metrics.filters_created;
        }
        rows.push(ThresholdAblationRow {
            lambda_threshold: threshold,
            total_work,
            total_secs,
            filters_created: filters,
        });
    }
    rows
}

/// One row of the filter-implementation ablation.
#[derive(Debug, Clone)]
pub struct FilterKindAblationRow {
    pub label: String,
    pub total_work: u64,
    pub total_secs: f64,
    pub filter_false_pass: u64,
}

/// Compares exact filters against Bloom filters of different sizes on the
/// TPC-DS-like workload (the "no false positives" assumption of the
/// analysis versus practical filters).
pub fn run_ablation_filter_kind(scale: Scale, queries: usize) -> Vec<FilterKindAblationRow> {
    let workload = tpcds_like::generate(scale, queries, 1);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let session = engine.session();
    let kinds = [
        ("exact".to_string(), FilterKind::Exact),
        (
            "bloom 4 bits/key".to_string(),
            FilterKind::Bloom { bits_per_key: 4 },
        ),
        (
            "bloom 8 bits/key".to_string(),
            FilterKind::Bloom { bits_per_key: 8 },
        ),
        (
            "bloom 16 bits/key".to_string(),
            FilterKind::Bloom { bits_per_key: 16 },
        ),
        (
            "blocked bloom 8 bits/key".to_string(),
            FilterKind::BlockedBloom { bits_per_key: 8 },
        ),
    ];
    let mut rows = Vec::new();
    for (label, kind) in kinds {
        let config = ExecConfig {
            filter_kind: kind,
            ..ExecConfig::default()
        };
        let mut total_work = 0u64;
        let mut total_secs = 0.0;
        let mut exact_passed = 0u64;
        let mut this_passed = 0u64;
        for query in &workload.queries {
            let prepared = engine
                .prepare(query, OptimizerChoice::Bqo)
                .expect("optimizes");
            let result = session
                .execute(&prepared, RunOptions::new().with_exec_config(config))
                .expect("executes")
                .result;
            let exact = session
                .execute(
                    &prepared,
                    RunOptions::new().with_exec_config(ExecConfig::exact_filters()),
                )
                .expect("executes")
                .result;
            total_work += result.metrics.logical_work();
            total_secs += result.metrics.elapsed_secs();
            this_passed += result.metrics.filter_stats.passed();
            exact_passed += exact.metrics.filter_stats.passed();
        }
        rows.push(FilterKindAblationRow {
            label,
            total_work,
            total_secs,
            filter_false_pass: this_passed.saturating_sub(exact_passed),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale(0.01);

    #[test]
    fn figure2_shape_holds() {
        let result = run_figure2(Scale(0.02));
        assert_eq!(result.plans.len(), 4);
        let by_label = |needle: &str| {
            result
                .plans
                .iter()
                .find(|p| p.label.contains(needle))
                .unwrap()
        };
        let p1_plain = by_label("no filters");
        let p1_post = by_label("post-processed");
        let p2_bv = by_label("bitvector-aware");
        // All plans compute the same answer.
        for p in &result.plans {
            assert_eq!(p.output_rows, result.plans[0].output_rows);
        }
        // Post-processing helps P1, and the bitvector-aware plan is at least
        // as good as the post-processed conventional plan (measured work).
        assert!(p1_post.executed_work < p1_plain.executed_work);
        assert!(p2_bv.executed_work <= p1_post.executed_work);
        // The bitvector-aware estimate also orders them this way.
        assert!(p2_bv.estimated_cout <= p1_post.estimated_cout);
    }

    #[test]
    fn table2_candidates_always_contain_optimum() {
        for row in run_table2() {
            assert!(row.candidates_contain_optimum, "{}", row.shape);
            assert!(row.candidate_plans as u64 <= row.total_plans);
            assert_eq!(row.candidate_plans, row.relations);
        }
    }

    #[test]
    fn table3_reports_three_workloads() {
        let stats = run_table3(TINY, 4);
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().any(|s| s.name == "TPC-DS"));
        assert!(stats.iter().any(|s| s.name == "JOB"));
        assert!(stats.iter().any(|s| s.name == "CUSTOMER"));
        let customer = stats.iter().find(|s| s.name == "CUSTOMER").unwrap();
        assert!(customer.avg_joins > 15.0);
    }

    #[test]
    fn figure7_benefit_grows_with_elimination() {
        let points = run_figure7(Scale(0.05), 1);
        assert_eq!(points.len(), microbench::FIGURE7_SELECTIVITIES.len());
        // At keep = 1.0 nothing is eliminated; at keep = 0.001 nearly all
        // probe tuples are eliminated and the filtered run does less work.
        let full = &points[0];
        let tiny = points.last().unwrap();
        assert!(full.eliminated_fraction < 0.05);
        assert!(tiny.eliminated_fraction > 0.9);
        assert!(tiny.work_with_filter < tiny.work_without_filter);
    }

    #[test]
    fn threshold_ablation_is_monotone_in_filters() {
        let rows = run_ablation_threshold(TINY, 4);
        assert_eq!(rows.len(), 6);
        for pair in rows.windows(2) {
            assert!(
                pair[0].filters_created >= pair[1].filters_created,
                "higher thresholds must not create more filters"
            );
        }
    }

    #[test]
    fn filter_kind_ablation_exact_has_no_false_passes() {
        let rows = run_ablation_filter_kind(TINY, 3);
        let exact = rows.iter().find(|r| r.label == "exact").unwrap();
        assert_eq!(exact.filter_false_pass, 0);
        // Small bloom filters let some extra tuples through.
        let bloom4 = rows.iter().find(|r| r.label.contains("4 bits")).unwrap();
        assert!(bloom4.filter_false_pass >= exact.filter_false_pass);
    }
}
