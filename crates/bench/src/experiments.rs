//! One driver function per table / figure of the paper's evaluation.
//!
//! Every driver measures through `measure`: one execution of one prepared
//! statement, read into a [`RunRecord`]. Figures 2 and 7–10, Table 4 and the
//! filter-kind ablation run each query more than one way (baseline vs
//! bitvector-aware optimizer, with vs without filters, exact vs Bloom
//! filters); every such run must return the same number of rows, or the
//! driver panics naming the section and the query. The `logical_work`
//! counter (tuples built, probed and produced) is deterministic;
//! `elapsed_secs` is a single-shot reading.

use bqo_core::bitvector::{FilterKind, FilterStats};
use bqo_core::exec::ExecConfig;
use bqo_core::optimizer::{candidate_plans, enumerate_right_deep, exhaustive_best_right_deep};
use bqo_core::plan::{push_down_bitvectors, CostModel, JoinTree, PhysicalPlan};
use bqo_core::workloads::{
    customer_like, job_like, microbench, snowflake, star, tpcds_like, Scale, Workload,
    WorkloadStats,
};
use bqo_core::{
    BqoError, Engine, OperatorKind, OptimizerChoice, PreparedStatement, QuerySpec, RunOptions,
    Session,
};

/// Measurements of one execution of one statement.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunRecord {
    /// Estimated bitvector-aware `Cout` of the executed plan.
    pub estimated_cost: f64,
    /// Wall-clock execution time in seconds (single shot).
    pub elapsed_secs: f64,
    /// Deterministic work proxy: tuples built + probed + produced (+ filter
    /// probes at reduced weight).
    pub logical_work: u64,
    /// Tuples output by scans.
    pub leaf_tuples: u64,
    /// Tuples output by hash joins.
    pub join_tuples: u64,
    /// Tuples output by residual filter operators.
    pub other_tuples: u64,
    /// Rows in the final result.
    pub output_rows: u64,
    /// Number of bitvector filters created during execution.
    pub filters_created: usize,
    /// Tuples probed against and eliminated by bitvector filters.
    pub filters: FilterStats,
}

impl RunRecord {
    /// Total tuples output by all operators.
    pub fn total_tuples(&self) -> u64 {
        self.leaf_tuples + self.join_tuples + self.other_tuples
    }
}

impl std::iter::Sum for RunRecord {
    fn sum<I: Iterator<Item = RunRecord>>(records: I) -> RunRecord {
        records.fold(RunRecord::default(), |mut total, r| {
            total.estimated_cost += r.estimated_cost;
            total.elapsed_secs += r.elapsed_secs;
            total.logical_work += r.logical_work;
            total.leaf_tuples += r.leaf_tuples;
            total.join_tuples += r.join_tuples;
            total.other_tuples += r.other_tuples;
            total.output_rows += r.output_rows;
            total.filters_created += r.filters_created;
            total.filters.merge(&r.filters);
            total
        })
    }
}

/// Executes `stmt` once under `config`. The one place a driver reads
/// `ExecutionMetrics`.
fn measure(
    session: &Session,
    stmt: &PreparedStatement,
    config: ExecConfig,
) -> Result<RunRecord, BqoError> {
    let result = session
        .execute(stmt, RunOptions::new().with_exec_config(config))?
        .result;
    let metrics = &result.metrics;
    Ok(RunRecord {
        estimated_cost: stmt.estimated_cost().total,
        elapsed_secs: metrics.elapsed_secs(),
        logical_work: metrics.logical_work(),
        leaf_tuples: metrics.tuples_by_kind(OperatorKind::Leaf),
        join_tuples: metrics.tuples_by_kind(OperatorKind::Join),
        other_tuples: metrics.tuples_by_kind(OperatorKind::Other),
        output_rows: result.output_rows,
        filters_created: metrics.filters_created,
        filters: metrics.filter_stats,
    })
}

/// Prepares every query with `choice` and measures it once under `config`.
fn measure_all(
    engine: &Engine,
    queries: &[QuerySpec],
    choice: OptimizerChoice,
    config: ExecConfig,
) -> Result<Vec<RunRecord>, BqoError> {
    let session = engine.session();
    queries
        .iter()
        .map(|query| measure(&session, &engine.prepare(query, choice)?, config))
        .collect()
}

/// Panics unless two runs of one query returned the same number of rows:
/// neither the optimizer nor bitvector filtering may change an answer.
fn check_same_answer(section: &str, query: &str, a: &RunRecord, b: &RunRecord) {
    assert_eq!(
        a.output_rows, b.output_rows,
        "{section}: two runs of query {query} returned different row counts"
    );
}

/// `num / den`, or 1.0 (no change) when there is nothing to compare against.
fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        1.0
    } else {
        num / den
    }
}

/// One plan of the Figure 2 motivating example.
#[derive(Debug, Clone)]
pub struct Figure2Plan {
    pub label: String,
    pub order: String,
    pub run: RunRecord,
}

/// Runs the Figure 2 motivating example: the best conventional plan with and
/// without post-processed bitvector filters versus the bitvector-aware best
/// plan.
pub fn run_figure2(scale: Scale) -> Vec<Figure2Plan> {
    let workload = job_like::figure2_workload(scale, 7);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let query = &workload.queries[0];
    let graph = query
        .to_join_graph(engine.catalog())
        .expect("figure 2 query resolves");
    let model = CostModel::new(&graph);

    let (p1, _) = exhaustive_best_right_deep(&graph, &model, false).expect("plan space non-empty");
    let (p2, _) = exhaustive_best_right_deep(&graph, &model, true).expect("plan space non-empty");

    let session = engine.session();
    let run = |label: &str, tree: &JoinTree, with_bitvectors: bool| {
        let mut plan = PhysicalPlan::from_join_tree(&graph, tree);
        if with_bitvectors {
            plan = push_down_bitvectors(&graph, plan);
        }
        let stmt = engine.prepare_plan(&query.name, graph.clone(), plan);
        let names: Vec<&str> = tree
            .right_deep_order()
            .expect("the plan space is right-deep")
            .into_iter()
            .map(|r| &*graph.relation(r).name)
            .collect();
        Figure2Plan {
            label: label.to_string(),
            order: format!("T({})", names.join(", ")),
            run: measure(&session, &stmt, ExecConfig::default()).expect("figure 2 plan executes"),
        }
    };

    let plans = vec![
        run("P1 (best w/o bitvectors), no filters", &p1, false),
        run("P1 + post-processed bitvector filters", &p1, true),
        run("P2 (bitvector-aware best), with filters", &p2, true),
        run("P2 without bitvector filters", &p2, false),
    ];
    for plan in &plans {
        check_same_answer("fig2", &query.name, &plans[0].run, &plan.run);
    }
    plans
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
    let total = enumerate_right_deep(graph).len() as u64;
    let candidates = candidate_plans(graph).expect("clean shapes classify");
    let best_candidate = candidates
        .iter()
        .map(|p| model.cout(p, f64::INFINITY))
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
    /// The plan executed with its bitvector filter.
    pub with_filter: RunRecord,
    /// The same plan with bitvector filtering disabled.
    pub without_filter: RunRecord,
}

/// Runs the Figure 7 micro-benchmark: one PKFK hash join whose build-side
/// predicate selectivity is swept, executed with and without the bitvector
/// filter.
pub fn run_figure7(scale: Scale) -> Vec<Figure7Point> {
    let engine = Engine::from_catalog(microbench::build_catalog(scale, 5));
    let session = engine.session();
    let mut points = Vec::new();
    for &keep in &microbench::FIGURE7_SELECTIVITIES {
        let query = microbench::query_with_selectivity(keep);
        let stmt = engine
            .prepare(&query, OptimizerChoice::BqoWithThreshold(0.0))
            .expect("micro query optimizes");
        // The same plan with its placements cleared runs without the filter.
        let mut bare = stmt.plan().clone();
        bare.placements.clear();
        let bare = engine.prepare_plan(&query.name, stmt.graph().clone(), bare);
        let run =
            |stmt| measure(&session, stmt, ExecConfig::default()).expect("micro query executes");
        let point = Figure7Point {
            keep_fraction: keep,
            with_filter: run(&stmt),
            without_filter: run(&bare),
        };
        check_same_answer(
            "fig7",
            &query.name,
            &point.with_filter,
            &point.without_filter,
        );
        points.push(point);
    }
    points
}

/// Comparison of one query under the baseline and the BQO optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryComparison {
    pub name: String,
    pub baseline: RunRecord,
    pub bqo: RunRecord,
}

impl QueryComparison {
    /// BQO work as a fraction of baseline work (< 1 means BQO wins).
    pub fn work_ratio(&self) -> f64 {
        ratio(
            self.bqo.logical_work as f64,
            self.baseline.logical_work as f64,
        )
    }
}

/// The selectivity groups of Figure 8: the cheapest third of the queries
/// (by baseline cost) is `S` (highly selective), the most expensive third is
/// `L` (low selectivity), the rest is `M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectivityGroup {
    S,
    M,
    L,
}

impl SelectivityGroup {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SelectivityGroup::S => "S",
            SelectivityGroup::M => "M",
            SelectivityGroup::L => "L",
        }
    }
}

/// Aggregate of one selectivity group.
#[derive(Debug, Clone)]
pub struct GroupSummary {
    pub group: SelectivityGroup,
    pub queries: usize,
    pub baseline_work: u64,
    pub bqo_work: u64,
}

impl GroupSummary {
    /// BQO / baseline work ratio for the group.
    pub fn work_ratio(&self) -> f64 {
        ratio(self.bqo_work as f64, self.baseline_work as f64)
    }
}

/// Result of running one workload under both optimizers.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub workload: String,
    pub queries: Vec<QueryComparison>,
}

impl WorkloadReport {
    /// Total BQO work divided by total baseline work (Figure 8's headline
    /// number; < 1 means the bitvector-aware optimizer reduced total cost).
    pub fn total_work_ratio(&self) -> f64 {
        let totals = self.tuple_breakdown();
        ratio(
            totals.bqo.logical_work as f64,
            totals.baseline.logical_work as f64,
        )
    }

    /// Total BQO wall time divided by total baseline wall time.
    pub fn total_time_ratio(&self) -> f64 {
        let totals = self.tuple_breakdown();
        ratio(totals.bqo.elapsed_secs, totals.baseline.elapsed_secs)
    }

    /// Assigns each query to a selectivity group by its baseline cost
    /// (cheapest third S, most expensive third L) and aggregates.
    pub fn selectivity_groups(&self) -> Vec<GroupSummary> {
        let mut order: Vec<&QueryComparison> = self.queries.iter().collect();
        order.sort_by_key(|q| q.baseline.logical_work);
        let third = order.len() / 3;
        let (s, rest) = order.split_at(third);
        let (m, l) = rest.split_at(rest.len() - third);
        [
            (SelectivityGroup::S, s),
            (SelectivityGroup::M, m),
            (SelectivityGroup::L, l),
        ]
        .into_iter()
        .map(|(group, queries)| GroupSummary {
            group,
            queries: queries.len(),
            baseline_work: queries.iter().map(|q| q.baseline.logical_work).sum(),
            bqo_work: queries.iter().map(|q| q.bqo.logical_work).sum(),
        })
        .collect()
    }

    /// The baseline and the BQO records of every query, summed (Figure 9).
    pub fn tuple_breakdown(&self) -> TupleBreakdown {
        TupleBreakdown {
            baseline: self.queries.iter().map(|q| q.baseline).sum(),
            bqo: self.queries.iter().map(|q| q.bqo).sum(),
        }
    }

    /// Queries sorted by descending baseline work (the Figure 10 x-axis).
    pub fn sorted_by_baseline_cost(&self) -> Vec<&QueryComparison> {
        let mut refs: Vec<&QueryComparison> = self.queries.iter().collect();
        refs.sort_by_key(|q| std::cmp::Reverse(q.baseline.logical_work));
        refs
    }
}

/// Figure 9 aggregate: the summed records of both systems, whose tuple
/// counts are reported per operator class.
#[derive(Debug, Clone, Copy)]
pub struct TupleBreakdown {
    pub baseline: RunRecord,
    pub bqo: RunRecord,
}

impl TupleBreakdown {
    /// Total tuples output by the baseline plans.
    pub fn baseline_total(&self) -> u64 {
        self.baseline.total_tuples()
    }

    /// Total tuples output by the BQO plans.
    pub fn bqo_total(&self) -> u64 {
        self.bqo.total_tuples()
    }
}

/// Runs every query of the workload under the baseline and the BQO optimizer
/// and returns the comparison report (Figures 8–10).
pub fn run_workload(workload: &Workload) -> Result<WorkloadReport, BqoError> {
    let engine = Engine::from_catalog(workload.catalog.clone());
    let run = |choice| measure_all(&engine, &workload.queries, choice, ExecConfig::default());
    let (baseline, bqo) = (run(OptimizerChoice::Baseline)?, run(OptimizerChoice::Bqo)?);
    let queries = workload
        .queries
        .iter()
        .zip(baseline.into_iter().zip(bqo))
        .map(|(query, (baseline, bqo))| {
            check_same_answer("fig8-10", &query.name, &baseline, &bqo);
            QueryComparison {
                name: query.name.clone(),
                baseline,
                bqo,
            }
        })
        .collect();
    Ok(WorkloadReport {
        workload: workload.name.clone(),
        queries,
    })
}

/// Runs the Figure 8/9/10 workload comparison for every benchmark workload.
pub fn run_workload_comparisons(scale: Scale, queries: usize) -> Vec<WorkloadReport> {
    build_workloads(scale, queries)
        .iter()
        .map(|w| run_workload(w).expect("workload runs"))
        .collect()
}

/// Table 4 aggregate: the same (baseline) plans executed with and without
/// bitvector filtering.
#[derive(Debug, Clone, PartialEq)]
pub struct BitvectorEffectReport {
    pub workload: String,
    /// Work with bitvectors / work without (the paper's "CPU ratio").
    pub work_ratio: f64,
    /// Wall-time ratio (with / without).
    pub time_ratio: f64,
    /// Fraction of queries whose plans contain at least one bitvector filter.
    pub queries_with_bitvectors: f64,
    /// Fraction of queries improved by more than 20%.
    pub improved: f64,
    /// Fraction of queries regressed by more than 20%.
    pub regressed: f64,
}

/// Runs the baseline plans with and without bitvector filtering (Table 4 /
/// Appendix A).
pub fn bitvector_effect(workload: &Workload) -> Result<BitvectorEffectReport, BqoError> {
    let engine = Engine::from_catalog(workload.catalog.clone());
    let run = |choice| measure_all(&engine, &workload.queries, choice, ExecConfig::default());
    let (with, without) = (
        run(OptimizerChoice::Baseline)?,
        run(OptimizerChoice::BaselineNoBitvectors)?,
    );
    let mut with_bitvectors = 0;
    for ((query, w), wo) in workload.queries.iter().zip(&with).zip(&without) {
        check_same_answer("table4", &query.name, w, wo);
        let stmt = engine.prepare(query, OptimizerChoice::Baseline)?;
        with_bitvectors += usize::from(!stmt.plan().placements.is_empty());
    }
    let share = |count: usize| count as f64 / workload.queries.len().max(1) as f64;
    let count = |changed: fn(f64, f64) -> bool| {
        (with.iter().zip(&without))
            .filter(|(w, wo)| changed(w.logical_work as f64, wo.logical_work as f64))
            .count()
    };
    let total_with: RunRecord = with.iter().copied().sum();
    let total_without: RunRecord = without.iter().copied().sum();
    Ok(BitvectorEffectReport {
        workload: workload.name.clone(),
        work_ratio: ratio(
            total_with.logical_work as f64,
            total_without.logical_work as f64,
        ),
        time_ratio: ratio(total_with.elapsed_secs, total_without.elapsed_secs),
        queries_with_bitvectors: share(with_bitvectors),
        improved: share(count(|w, wo| w < 0.8 * wo)),
        regressed: share(count(|w, wo| w > 1.2 * wo)),
    })
}

/// Runs the Table 4 experiment (same plans with and without bitvector
/// filtering) for every benchmark workload.
pub fn run_table4(scale: Scale, queries: usize) -> Vec<BitvectorEffectReport> {
    build_workloads(scale, queries)
        .iter()
        .map(|w| bitvector_effect(w).expect("workload runs"))
        .collect()
}

/// One row of the λ-threshold ablation (Section 6.3 / 7.3): the workload's
/// records summed.
#[derive(Debug, Clone)]
pub struct ThresholdAblationRow {
    pub lambda_threshold: f64,
    pub total: RunRecord,
}

/// Sweeps the cost-based filter threshold λ on the TPC-DS-like workload.
pub fn run_ablation_threshold(scale: Scale, queries: usize) -> Vec<ThresholdAblationRow> {
    let workload = tpcds_like::generate(scale, queries, 1);
    let engine = Engine::from_catalog(workload.catalog.clone());
    [0.0, 0.05, 0.1, 0.2, 0.5, 0.9]
        .into_iter()
        .map(|threshold| {
            let choice = OptimizerChoice::BqoWithThreshold(threshold);
            let records = measure_all(&engine, &workload.queries, choice, ExecConfig::default())
                .expect("workload runs");
            ThresholdAblationRow {
                lambda_threshold: threshold,
                total: records.into_iter().sum(),
            }
        })
        .collect()
}

/// One row of the filter-implementation ablation: the workload's records
/// summed.
#[derive(Debug, Clone)]
pub struct FilterKindAblationRow {
    pub label: String,
    pub total: RunRecord,
    /// Tuples this filter passed that the exact filter eliminated.
    pub filter_false_pass: u64,
}

/// Compares exact filters against Bloom filters of different sizes on the
/// TPC-DS-like workload (the "no false positives" assumption of the
/// analysis versus practical filters).
pub fn run_ablation_filter_kind(scale: Scale, queries: usize) -> Vec<FilterKindAblationRow> {
    let workload = tpcds_like::generate(scale, queries, 1);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let run = |config| {
        measure_all(&engine, &workload.queries, OptimizerChoice::Bqo, config)
            .expect("workload runs")
    };
    let exact = run(ExecConfig::exact_filters());
    let exact_passed = exact.iter().copied().sum::<RunRecord>().filters.passed();
    let kinds = [
        ("exact", FilterKind::Exact),
        ("bloom 4 bits/key", FilterKind::Bloom { bits_per_key: 4 }),
        ("bloom 8 bits/key", FilterKind::Bloom { bits_per_key: 8 }),
        ("bloom 16 bits/key", FilterKind::Bloom { bits_per_key: 16 }),
        (
            "blocked bloom 8 bits/key",
            FilterKind::BlockedBloom { bits_per_key: 8 },
        ),
    ];
    kinds
        .into_iter()
        .map(|(label, filter_kind)| {
            let records = run(ExecConfig {
                filter_kind,
                ..ExecConfig::default()
            });
            for ((query, r), e) in workload.queries.iter().zip(&records).zip(&exact) {
                check_same_answer("ablation_fpr", &query.name, r, e);
            }
            let total: RunRecord = records.into_iter().sum();
            FilterKindAblationRow {
                label: label.to_string(),
                filter_false_pass: total.filters.passed().saturating_sub(exact_passed),
                total,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale(0.01);

    #[test]
    fn figure2_shape_holds() {
        let plans = run_figure2(Scale(0.02));
        assert_eq!(plans.len(), 4);
        let by_label = |needle: &str| &plans.iter().find(|p| p.label.contains(needle)).unwrap().run;
        let p1_plain = by_label("no filters");
        let p1_post = by_label("post-processed");
        let p2_bv = by_label("bitvector-aware");
        // All plans compute the same answer.
        for p in &plans {
            assert_eq!(p.run.output_rows, plans[0].run.output_rows);
        }
        // Post-processing helps P1, and the bitvector-aware plan is at least
        // as good as the post-processed conventional plan (measured work).
        assert!(p1_post.logical_work < p1_plain.logical_work);
        assert!(p2_bv.logical_work <= p1_post.logical_work);
        // The bitvector-aware estimate also orders them this way.
        assert!(p2_bv.estimated_cost <= p1_post.estimated_cost);
    }

    /// Table 2 as `EXPERIMENTS.md` records it: plans in space from 4 to
    /// 10 080, the candidate counts and "optimum in candidates".
    const TABLE2: &str = "\
Table 2 — plan space complexity (right-deep trees without cross products)
query shape               relations   plans in space   candidates  optimum in candidates
star (2 dims)                     3                4            3                    yes
star (3 dims)                     4               12            4                    yes
star (4 dims)                     5               48            5                    yes
star (5 dims)                     6              240            6                    yes
star (6 dims)                     7             1440            7                    yes
star (7 dims)                     8            10080            8                    yes
snowflake [1, 2]                  4                8            4                    yes
snowflake [2, 2]                  5               16            5                    yes
snowflake [1, 2, 3]               7              164            7                    yes
snowflake [2, 3, 2]               8              544            8                    yes

";

    #[test]
    fn table2_candidates_always_contain_optimum() {
        let rows = run_table2();
        for row in &rows {
            assert!(row.candidates_contain_optimum, "{}", row.shape);
            assert!(row.candidate_plans as u64 <= row.total_plans);
            assert_eq!(row.candidate_plans, row.relations);
        }
        assert_eq!(crate::report::render_table2(&rows), TABLE2);
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
        let points = run_figure7(Scale(0.05));
        assert_eq!(points.len(), microbench::FIGURE7_SELECTIVITIES.len());
        // At keep = 1.0 nothing is eliminated; at keep = 0.001 nearly all
        // probe tuples are eliminated and the filtered run does less work.
        let full = &points[0];
        let tiny = points.last().unwrap();
        assert!(full.with_filter.filters.elimination_rate() < 0.05);
        assert!(tiny.with_filter.filters.elimination_rate() > 0.9);
        assert!(tiny.with_filter.logical_work < tiny.without_filter.logical_work);
    }

    fn small_report() -> WorkloadReport {
        let w = tpcds_like::generate(Scale(0.01), 6, 12);
        run_workload(&w).unwrap()
    }

    #[test]
    fn report_covers_all_queries_and_bqo_does_not_lose() {
        let report = small_report();
        assert_eq!(report.queries.len(), 6);
        // On decision-support shapes BQO should not do more total work than
        // the baseline (individual queries may tie).
        assert!(
            report.total_work_ratio() <= 1.05,
            "ratio {}",
            report.total_work_ratio()
        );
    }

    #[test]
    fn selectivity_groups_partition_the_queries() {
        let report = small_report();
        let groups = report.selectivity_groups();
        assert_eq!(groups.len(), 3);
        let total: usize = groups.iter().map(|g| g.queries).sum();
        assert_eq!(total, report.queries.len());
        // With six queries each group holds exactly two.
        assert!(groups.iter().all(|g| g.queries == 2));
    }

    #[test]
    fn tuple_breakdown_sums_to_per_query_totals() {
        let report = small_report();
        let breakdown = report.tuple_breakdown();
        let expected: u64 = report
            .queries
            .iter()
            .map(|q| q.baseline.total_tuples())
            .sum();
        assert_eq!(breakdown.baseline_total(), expected);
        assert!(breakdown.bqo_total() > 0);
    }

    #[test]
    fn sorted_by_baseline_cost_is_descending() {
        let report = small_report();
        let sorted = report.sorted_by_baseline_cost();
        for pair in sorted.windows(2) {
            assert!(pair[0].baseline.logical_work >= pair[1].baseline.logical_work);
        }
    }

    #[test]
    fn bitvector_effect_reduces_work() {
        let w = star::generate(Scale(0.05), 4, 5, 21);
        let report = bitvector_effect(&w).unwrap();
        assert!(report.queries_with_bitvectors > 0.9);
        assert!(
            report.work_ratio < 1.0,
            "bitvector filtering should reduce work: {}",
            report.work_ratio
        );
        assert!(report.regressed <= 0.2);
    }

    #[test]
    fn harness_counters_are_stable_from_run_to_run() {
        // Everything but wall time must repeat exactly: the property a
        // checked-in EXPERIMENTS.md golden would rest on.
        let counters = || {
            let mut reports = run_workload_comparisons(TINY, 4);
            for q in reports.iter_mut().flat_map(|r| &mut r.queries) {
                q.baseline.elapsed_secs = 0.0;
                q.bqo.elapsed_secs = 0.0;
            }
            let mut effects = run_table4(TINY, 4);
            for e in &mut effects {
                e.time_ratio = 0.0;
            }
            (reports, effects)
        };
        assert_eq!(counters(), counters());
    }

    #[test]
    fn threshold_ablation_is_monotone_in_filters() {
        let rows = run_ablation_threshold(TINY, 4);
        assert_eq!(rows.len(), 6);
        for pair in rows.windows(2) {
            assert!(
                pair[0].total.filters_created >= pair[1].total.filters_created,
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
