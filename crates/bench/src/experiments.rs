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
use bqo_core::{
    Engine, OptimizerChoice, Request, RunOptions, SchedulingPolicy, Server, ServerConfig,
};
use std::time::Duration;

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

    let mut plans = Vec::new();
    let mut measure = |label: &str, tree: &RightDeepTree, with_bitvectors: bool| {
        let plan = PhysicalPlan::from_join_tree(&graph, &tree.to_join_tree());
        let plan = if with_bitvectors {
            push_down_bitvectors(&graph, plan)
        } else {
            plan
        };
        let cost = model.cout_physical(&plan).total;
        let config = if with_bitvectors {
            ExecConfig::default()
        } else {
            ExecConfig::without_bitvectors()
        };
        let result = engine
            .execute_plan_named_with(&query.name, &graph, &plan, config)
            .expect("figure 2 plan executes");
        plans.push(Figure2Plan {
            label: label.to_string(),
            order: describe(tree),
            estimated_cout: cost,
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
            let result = session.run(&prepared).expect("query executes");
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

/// One thread count of the morsel-parallel scaling experiment.
#[derive(Debug, Clone)]
pub struct ParallelScalingPoint {
    pub num_threads: usize,
    pub elapsed_secs: f64,
    /// Serial wall time divided by this point's wall time.
    pub speedup: f64,
    pub output_rows: u64,
}

/// The morsel-parallel scaling experiment: one workload executed with the
/// same plans under increasing `ExecConfig::num_threads`.
#[derive(Debug, Clone)]
pub struct ParallelScalingResult {
    pub workload: String,
    /// Hardware threads the host exposes (scaling flattens beyond this).
    pub available_parallelism: usize,
    pub points: Vec<ParallelScalingPoint>,
}

/// Runs the parallel scaling experiment: the star workload's BQO plans,
/// executed unbatched with 4096-row scan morsels so the bitvector probe and
/// hash probe loops dominate, swept over {1, 2, 4, 8} worker threads. Rows
/// are asserted identical across thread counts (the cheap in-harness cousin
/// of the `parallel_oracle` differential tests); wall time is the best of
/// three sweeps to damp scheduler noise.
pub fn run_parallel_scaling(scale: Scale, num_queries: usize) -> ParallelScalingResult {
    let workload = star::generate(scale, 4, num_queries.max(1), 11);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let session = engine.session();
    let prepared: Vec<_> = workload
        .queries
        .iter()
        .map(|q| engine.prepare(q, OptimizerChoice::Bqo).expect("optimizes"))
        .collect();
    let base = ExecConfig::default()
        .with_batch_size(usize::MAX)
        .with_morsel_size(4096);

    let mut points: Vec<ParallelScalingPoint> = Vec::new();
    let mut serial_secs = f64::NAN;
    for num_threads in [1usize, 2, 4, 8] {
        let config = base.with_num_threads(num_threads);
        let mut best = f64::INFINITY;
        let mut output_rows = 0u64;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            output_rows = prepared
                .iter()
                .map(|p| {
                    session
                        .execute(p, RunOptions::new().with_exec_config(config))
                        .expect("executes")
                        .result
                        .output_rows
                })
                .sum();
            best = best.min(start.elapsed().as_secs_f64());
        }
        if let Some(first) = points.first() {
            assert_eq!(
                output_rows, first.output_rows,
                "parallel execution changed the answer at {num_threads} threads"
            );
        } else {
            serial_secs = best;
        }
        points.push(ParallelScalingPoint {
            num_threads,
            elapsed_secs: best,
            speedup: serial_secs / best.max(1e-12),
            output_rows,
        });
    }
    ParallelScalingResult {
        workload: "STAR".to_string(),
        available_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
        points,
    }
}

/// One mode of the serving-throughput experiment.
#[derive(Debug, Clone)]
pub struct ServingThroughputMode {
    pub label: String,
    pub elapsed_secs: f64,
    pub queries_per_sec: f64,
}

/// The serving-throughput experiment: the same small-query request stream
/// (a) executed through a session over the engine's persistent worker pool,
/// and (b) burst-submitted through the `Server` front end under a saturating
/// vs an admission-limited concurrency cap.
#[derive(Debug, Clone)]
pub struct ServingThroughputResult {
    pub workload: String,
    /// Requests per measured mode.
    pub num_requests: usize,
    /// Hardware threads the host exposes.
    pub available_parallelism: usize,
    /// Direct session execution over the engine's persistent pool.
    pub session_mode: ServingThroughputMode,
    /// Burst submission through `Server::submit`: saturating vs
    /// admission-limited `max_concurrent_queries`.
    pub submit_modes: Vec<ServingThroughputMode>,
    /// Total output rows of one request stream (identical across all modes —
    /// asserted).
    pub output_rows: u64,
}

/// Runs the serving-throughput experiment. Small-query traffic is simulated
/// by a low `parallel_threshold` (64), so every query opens parallel
/// sections and the fixed cost per section (a pool unpark) dominates;
/// `num_requests` requests round-robin over the workload's
/// prepared statements. Wall time is the best of three sweeps.
pub fn run_serving_throughput(scale: Scale, num_requests: usize) -> ServingThroughputResult {
    let workload = star::generate(scale, 3, 2, 33);
    let num_requests = num_requests.max(8);
    let config = ExecConfig::default()
        .with_num_threads(4)
        .with_parallel_threshold(64);

    let engine = Engine::builder()
        .catalog(workload.catalog.clone())
        .exec_config(config)
        .build()
        .expect("engine builds");
    let session = engine.session();
    let prepared: Vec<_> = workload
        .queries
        .iter()
        .map(|q| engine.prepare(q, OptimizerChoice::Bqo).expect("optimizes"))
        .collect();
    let mut best = f64::INFINITY;
    let mut output_rows = 0u64;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        output_rows = (0..num_requests)
            .map(|i| {
                session
                    .run(&prepared[i % prepared.len()])
                    .expect("executes")
                    .output_rows
            })
            .sum();
        best = best.min(start.elapsed().as_secs_f64());
    }
    let session_mode = ServingThroughputMode {
        label: "persistent pool".to_string(),
        elapsed_secs: best,
        queries_per_sec: num_requests as f64 / best.max(1e-12),
    };

    // Burst submission through the Server front end. Both modes share the
    // engine above (and therefore one warm plan cache and worker pool); only
    // the admission cap differs.
    let mut submit_modes = Vec::new();
    for (label, max_concurrent) in [
        ("saturating (8 concurrent)", 8),
        ("admission-limited (2)", 2),
    ] {
        let server = Server::new(
            engine.clone(),
            ServerConfig::default()
                .with_max_concurrent_queries(max_concurrent)
                .with_queue_capacity(num_requests),
        );
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            let tickets: Vec<_> = (0..num_requests)
                .map(|i| {
                    let request = Request::builder()
                        .query(&workload.queries[i % workload.queries.len()])
                        .optimizer(OptimizerChoice::Bqo)
                        .build()
                        .expect("request is well-formed");
                    server
                        .submit(request)
                        .expect("queue capacity covers the burst")
                })
                .collect();
            let rows: u64 = tickets
                .into_iter()
                .map(|t| t.wait().expect("request serves").result.output_rows)
                .sum();
            assert_eq!(rows, output_rows, "{label} changed the answers");
            best = best.min(start.elapsed().as_secs_f64());
        }
        server.shutdown();
        submit_modes.push(ServingThroughputMode {
            label: label.to_string(),
            elapsed_secs: best,
            queries_per_sec: num_requests as f64 / best.max(1e-12),
        });
    }

    ServingThroughputResult {
        workload: "STAR".to_string(),
        num_requests,
        available_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
        session_mode,
        submit_modes,
        output_rows,
    }
}

/// One scheduling policy of the multi-tenant scheduling experiment.
#[derive(Debug, Clone)]
pub struct SchedulingPolicyRow {
    pub policy: String,
    /// Mean queue wait of the high-priority probes, milliseconds.
    pub high_queue_wait_ms: f64,
    /// Mean submit-to-completion wall time of the probes, milliseconds.
    pub high_total_ms: f64,
    /// Low-priority backlog requests already finished when the last probe
    /// completed (FIFO drains the whole backlog first; priority dispatch
    /// lets at most the in-flight query finish).
    pub lows_finished_before_high: usize,
    /// Total output rows across the backlog and the probes (identical
    /// across policies — asserted).
    pub output_rows: u64,
}

/// The multi-tenant scheduling experiment: high-priority probe latency under
/// a low-priority backlog, FIFO vs priority/deadline dispatch.
#[derive(Debug, Clone)]
pub struct SchedulingResult {
    pub workload: String,
    pub low_backlog: usize,
    pub high_probes: usize,
    pub policies: Vec<SchedulingPolicyRow>,
}

/// Runs the scheduling experiment. A single-slot `Server` is paused, loaded
/// with `low_backlog` deliberately slow low-priority requests (per-morsel
/// scan throttling stands in for expensive scans) plus two fast
/// high-priority probes, then resumed. Under FIFO the probes drain behind
/// the whole backlog; under the priority/deadline policy they dispatch as
/// soon as the one in-flight query finishes. Answers are asserted identical
/// across policies.
pub fn run_scheduling(scale: Scale, low_backlog: usize) -> SchedulingResult {
    let workload = star::generate(scale, 3, 2, 47);
    let low_backlog = low_backlog.max(2);
    let high_probes = 2usize;
    let slow = ExecConfig::default()
        .with_num_threads(1)
        .with_morsel_size(64)
        .with_scan_throttle(Duration::from_millis(4));

    let mut policies = Vec::new();
    let mut expected_rows: Option<u64> = None;
    for policy in [SchedulingPolicy::Fifo, SchedulingPolicy::PriorityDeadline] {
        let engine = Engine::from_catalog(workload.catalog.clone());
        let server = Server::new(
            engine,
            ServerConfig::default()
                .with_max_concurrent_queries(1)
                .with_queue_capacity(low_backlog + high_probes + 2)
                .with_policy(policy),
        );
        // Build the whole burst while dispatch is paused so arrival order
        // cannot race admission: the backlog is queued ahead of the probes.
        server.pause();
        let lows: Vec<_> = (0..low_backlog)
            .map(|i| {
                let request = Request::builder()
                    .query(&workload.queries[i % workload.queries.len()])
                    .optimizer(OptimizerChoice::Bqo)
                    .tenant("batch-reports")
                    .priority(0)
                    .exec_config(slow)
                    .build()
                    .expect("request is well-formed");
                server.submit(request).expect("burst fits the queue")
            })
            .collect();
        let highs: Vec<_> = (0..high_probes)
            .map(|i| {
                let request = Request::builder()
                    .query(&workload.queries[i % workload.queries.len()])
                    .optimizer(OptimizerChoice::Bqo)
                    .tenant("dashboards")
                    .priority(10)
                    .deadline(Duration::from_secs(300))
                    .build()
                    .expect("request is well-formed");
                server.submit(request).expect("burst fits the queue")
            })
            .collect();
        server.resume();

        let mut queue_wait = Duration::ZERO;
        let mut total_wall = Duration::ZERO;
        let mut rows = 0u64;
        for ticket in &highs {
            let output = ticket.wait().expect("probe serves");
            queue_wait += output.queue_wait;
            total_wall += output.total_wall;
            rows += output.result.output_rows;
        }
        let lows_finished = lows.iter().filter(|t| t.is_finished()).count();
        for ticket in &lows {
            rows += ticket.wait().expect("backlog serves").result.output_rows;
        }
        server.shutdown();

        match expected_rows {
            Some(expected) => assert_eq!(rows, expected, "{policy:?} changed the answers"),
            None => expected_rows = Some(rows),
        }
        policies.push(SchedulingPolicyRow {
            policy: format!("{policy:?}"),
            high_queue_wait_ms: queue_wait.as_secs_f64() * 1e3 / high_probes as f64,
            high_total_ms: total_wall.as_secs_f64() * 1e3 / high_probes as f64,
            lows_finished_before_high: lows_finished,
            output_rows: rows,
        });
    }

    SchedulingResult {
        workload: "STAR".to_string(),
        low_backlog,
        high_probes,
        policies,
    }
}

/// One kernel of the probe-throughput comparison: the same work done by the
/// scalar row-at-a-time loop and the vectorized word-level path.
#[derive(Debug, Clone)]
pub struct ProbeKernelPoint {
    /// Kernel label, e.g. `bitmap(dense)` or `end_to_end(scan+probe)`.
    pub kernel: String,
    /// Million rows (keys) probed per second, scalar reference.
    pub scalar_mrows_per_sec: f64,
    /// Million rows (keys) probed per second, vectorized kernels.
    pub vectorized_mrows_per_sec: f64,
    /// `vectorized / scalar` throughput ratio.
    pub speedup: f64,
    /// Keys the filter let through (identical in both shapes by
    /// construction; asserted during the run).
    pub survivors: u64,
}

/// The probe-throughput experiment: per-filter-kind kernel microbenchmarks
/// plus an end-to-end scan+probe differential under the two kernel modes.
#[derive(Debug, Clone)]
pub struct ProbeThroughputResult {
    /// Keys probed per kernel measurement round.
    pub keys_per_round: usize,
    pub kernels: Vec<ProbeKernelPoint>,
    /// End-to-end star-workload execution (`KernelMode::Scalar` vs
    /// `KernelMode::Vectorized`), rows/sec measured as bitvector-probed
    /// tuples per wall-clock second.
    pub end_to_end: ProbeKernelPoint,
}

/// Times `f` and returns the best (minimum) of `rounds` wall-clock runs —
/// the standard noise-damping shape used by the other experiments.
fn best_of<T>(rounds: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..rounds {
        let start = std::time::Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (best, last.expect("at least one round"))
}

/// Runs the `fig_probe_throughput` experiment (ISSUE 8 acceptance: the
/// word-level scan+probe kernels must clear 2x scalar rows/sec at scale
/// 0.1).
///
/// Kernel level: for each filter shape — dense bitmap, sparse-fallback
/// bitmap, exact hash set, Bloom, blocked Bloom — one key column is probed
/// with the scalar `maybe_contains` loop and with
/// [`bqo_core::bitvector::BitvectorFilter::probe_words`], counting
/// survivors both ways (and asserting they agree, so the speedup is never
/// bought with a wrong answer). End to end: the star workload's BQO plans
/// execute under `KernelMode::Scalar` and `KernelMode::Vectorized` with
/// rows and counters asserted identical.
pub fn run_probe_throughput(scale: Scale) -> ProbeThroughputResult {
    use bqo_core::bitvector::{AnyFilter, BitvectorFilter};
    use bqo_core::exec::KernelMode;

    let keys_per_round = ((scale.0 * 10_000_000.0) as usize).clamp(100_000, 20_000_000);
    // Deterministic keys over a 100k-value domain, ~40% of which is in the
    // filter: selective enough that the probe loop dominates, dense enough
    // that both branch outcomes stay hot.
    let domain = 100_000i64;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let keys: Vec<i64> = (0..keys_per_round)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % domain as u64) as i64
        })
        .collect();
    let members: Vec<i64> = (0..domain * 2 / 5).collect();

    let shapes: Vec<(String, AnyFilter)> = vec![
        (
            "bitmap(dense)".into(),
            AnyFilter::from_keys(FilterKind::Bitmap, &members),
        ),
        (
            "bitmap(sparse)".into(),
            AnyFilter::from_keys(
                FilterKind::Bitmap,
                &members
                    .iter()
                    .map(|&k| k.wrapping_mul(1_000_003))
                    .collect::<Vec<i64>>(),
            ),
        ),
        (
            "exact".into(),
            AnyFilter::from_keys(FilterKind::Exact, &members),
        ),
        (
            "bloom(8 bits/key)".into(),
            AnyFilter::from_keys(FilterKind::Bloom { bits_per_key: 8 }, &members),
        ),
        (
            "blocked_bloom(8 bits/key)".into(),
            AnyFilter::from_keys(FilterKind::BlockedBloom { bits_per_key: 8 }, &members),
        ),
    ];

    let mut kernels = Vec::new();
    for (label, filter) in &shapes {
        let probe_keys: Vec<i64> = if label == "bitmap(sparse)" {
            keys.iter().map(|&k| k.wrapping_mul(1_000_003)).collect()
        } else {
            keys.clone()
        };
        let (scalar_secs, scalar_survivors) = best_of(3, || {
            let mut kept = 0u64;
            for &k in &probe_keys {
                kept += filter.maybe_contains(k) as u64;
            }
            kept
        });
        let mut words: Vec<u64> = Vec::new();
        let (vector_secs, vector_survivors) = best_of(3, || {
            filter.probe_words(&probe_keys, &mut words);
            words.iter().map(|w| w.count_ones() as u64).sum::<u64>()
        });
        assert_eq!(
            scalar_survivors, vector_survivors,
            "word probe changed the {label} answer"
        );
        let scalar_mrows = keys_per_round as f64 / scalar_secs.max(1e-12) / 1e6;
        let vector_mrows = keys_per_round as f64 / vector_secs.max(1e-12) / 1e6;
        kernels.push(ProbeKernelPoint {
            kernel: label.clone(),
            scalar_mrows_per_sec: scalar_mrows,
            vectorized_mrows_per_sec: vector_mrows,
            speedup: vector_mrows / scalar_mrows.max(1e-12),
            survivors: scalar_survivors,
        });
    }

    // End to end: the same star-workload setup the parallel-scaling
    // experiment uses, single-threaded and unbatched so the kernel shape is
    // the only variable.
    let workload = star::generate(scale, 4, 6, 11);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let session = engine.session();
    let prepared: Vec<_> = workload
        .queries
        .iter()
        .map(|q| engine.prepare(q, OptimizerChoice::Bqo).expect("optimizes"))
        .collect();
    let run_mode = |mode: KernelMode| {
        let config = ExecConfig::default()
            .with_batch_size(usize::MAX)
            .with_num_threads(1)
            .with_kernel_mode(mode);
        best_of(3, || {
            let mut rows = 0u64;
            let mut probed = 0u64;
            for p in &prepared {
                let out = session
                    .execute(p, RunOptions::new().with_exec_config(config))
                    .expect("executes");
                rows += out.result.output_rows;
                probed += out.result.metrics.filter_stats.probed;
            }
            (rows, probed)
        })
    };
    let (scalar_secs, (scalar_rows, scalar_probed)) = run_mode(KernelMode::Scalar);
    let (vector_secs, (vector_rows, vector_probed)) = run_mode(KernelMode::Vectorized);
    assert_eq!(scalar_rows, vector_rows, "kernel mode changed the answer");
    assert_eq!(
        scalar_probed, vector_probed,
        "kernel mode changed the probe accounting"
    );
    let scalar_mrows = scalar_probed as f64 / scalar_secs.max(1e-12) / 1e6;
    let vector_mrows = vector_probed as f64 / vector_secs.max(1e-12) / 1e6;
    let end_to_end = ProbeKernelPoint {
        kernel: "end_to_end(scan+probe)".into(),
        scalar_mrows_per_sec: scalar_mrows,
        vectorized_mrows_per_sec: vector_mrows,
        speedup: vector_mrows / scalar_mrows.max(1e-12),
        survivors: scalar_rows,
    };

    ProbeThroughputResult {
        keys_per_round,
        kernels,
        end_to_end,
    }
}

/// One measured configuration of the storage-scan experiment: the TPC-DS-like
/// pushdown workload executed against one table backing.
#[derive(Debug, Clone)]
pub struct StorageScanPoint {
    /// `memory`, `file(buffered)`, `file(mmap)` or `file(buffered, no pruning)`.
    pub backing: String,
    /// Best-of-rounds wall-clock seconds for the whole workload.
    pub secs: f64,
    /// Total output rows across the workload (asserted identical everywhere).
    pub output_rows: u64,
    pub chunks_read: u64,
    pub chunks_pruned: u64,
    pub bytes_read: u64,
}

/// The storage-scan experiment: out-of-core TPC-DS-like pushdown runs
/// (memory vs buffered vs mmap; zone-map pruning on vs off) plus a clustered
/// selective scan isolating the pruning effect.
#[derive(Debug, Clone)]
pub struct StorageScanResult {
    pub scale: f64,
    pub queries: usize,
    /// Rows written across all `.bqo` files.
    pub rows_written: u64,
    /// Bytes of all `.bqo` files on disk.
    pub file_bytes: u64,
    /// Seconds spent writing the files.
    pub write_secs: f64,
    /// Workload runs, one per backing configuration.
    pub workload: Vec<StorageScanPoint>,
    /// The clustered selective scan, pruned then unpruned.
    pub clustered: Vec<StorageScanPoint>,
    /// Chunk-pruning ratio observed on the clustered pruned run.
    pub clustered_pruning_ratio: f64,
}

/// Runs the storage-scan experiment: writes the TPC-DS-like tables to
/// `.bqo` files, re-runs the pushdown workload from disk (buffered and
/// mmap) against the in-memory baseline, and isolates zone-map pruning on a
/// fact table clustered by its join key. Answers are asserted identical
/// across every backing and pruning setting.
pub fn run_storage_scan(scale: Scale, queries: usize) -> StorageScanResult {
    use bqo_core::format::{write_table, AccessMode, CatalogExt};
    use bqo_core::storage::Catalog;
    use bqo_core::{ColumnPredicate, CompareOp, QuerySpec, TableBuilder};

    let dir = std::env::temp_dir().join(format!("bqo-storage-scan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create storage-scan dir");

    // 8Ki-row chunks keep the fact tables multi-chunk at small scales while
    // staying a realistic out-of-core granularity.
    let chunk_rows = 8192;
    let workload = tpcds_like::generate(scale, queries, 11);
    let mut names: Vec<String> = workload
        .catalog
        .table_names()
        .into_iter()
        .map(String::from)
        .collect();
    names.sort();

    let write_start = std::time::Instant::now();
    let mut rows_written = 0u64;
    let mut file_bytes = 0u64;
    for name in &names {
        let table = workload.catalog.table(name).expect("memory table");
        let path = dir.join(format!("{name}.bqo"));
        let summary = write_table(&path, &table, chunk_rows).expect("write table");
        rows_written += summary.rows as u64;
        file_bytes += summary.bytes;
    }
    let write_secs = write_start.elapsed().as_secs_f64();

    let file_catalog = |mode: AccessMode| -> Catalog {
        let mut catalog = Catalog::new();
        for name in &names {
            catalog
                .register_file_with(dir.join(format!("{name}.bqo")), mode)
                .expect("register file");
            if let Some(pk) = workload.catalog.primary_key(name) {
                catalog.declare_primary_key(name, pk).expect("copy pk");
            }
        }
        for fk in workload.catalog.foreign_keys() {
            catalog.declare_foreign_key(fk.clone()).expect("copy fk");
        }
        catalog
    };

    let run_workload_on = |engine: &Engine, backing: &str, config: ExecConfig| {
        let session = engine.session();
        let prepared: Vec<_> = workload
            .queries
            .iter()
            .map(|q| engine.prepare(q, OptimizerChoice::Bqo).expect("optimizes"))
            .collect();
        let (secs, (rows, read, pruned, bytes)) = best_of(2, || {
            let (mut rows, mut read, mut pruned, mut bytes) = (0u64, 0u64, 0u64, 0u64);
            for p in &prepared {
                let out = session
                    .execute(p, RunOptions::new().with_exec_config(config))
                    .expect("executes");
                rows += out.result.output_rows;
                read += out.result.metrics.chunks_read;
                pruned += out.result.metrics.chunks_pruned;
                bytes += out.result.metrics.bytes_read;
            }
            (rows, read, pruned, bytes)
        });
        StorageScanPoint {
            backing: backing.to_string(),
            secs,
            output_rows: rows,
            chunks_read: read,
            chunks_pruned: pruned,
            bytes_read: bytes,
        }
    };

    let config = ExecConfig::default();
    let memory_engine = Engine::from_catalog(workload.catalog.clone());
    let buffered_engine = Engine::from_catalog(file_catalog(AccessMode::Buffered));
    let mapped_engine = Engine::from_catalog(file_catalog(AccessMode::Mmap));
    let points = vec![
        run_workload_on(&memory_engine, "memory", config),
        run_workload_on(&buffered_engine, "file(buffered)", config),
        run_workload_on(&mapped_engine, "file(mmap)", config),
        run_workload_on(
            &buffered_engine,
            "file(buffered, no pruning)",
            config.with_zone_map_pruning(false),
        ),
    ];
    for p in &points[1..] {
        assert_eq!(
            p.output_rows, points[0].output_rows,
            "{}: backing changed the workload answer",
            p.backing
        );
        assert!(p.chunks_read > 0, "{}: no chunks read", p.backing);
    }

    // Clustered selective scan: fact sorted by its join key, so the filter
    // pushed down from the selective dimension empties most chunk key
    // ranges and zone maps skip the chunks outright.
    let fact_rows = ((scale.0 * 640_000.0) as usize).max(64_000);
    let dim_rows = 1000usize;
    let per_key = fact_rows / dim_rows;
    let mut clustered = Catalog::new();
    clustered.register_table(
        TableBuilder::new("dim")
            .with_i64("sk", (0..dim_rows as i64).collect())
            .build()
            .expect("dim"),
    );
    clustered.register_table(
        TableBuilder::new("fact")
            .with_i64("fk", (0..fact_rows).map(|i| (i / per_key) as i64).collect())
            .build()
            .expect("fact"),
    );
    clustered.declare_primary_key("dim", "sk").expect("pk");
    let cdir = dir.join("clustered");
    std::fs::create_dir_all(&cdir).expect("clustered dir");
    for name in ["dim", "fact"] {
        write_table(
            cdir.join(format!("{name}.bqo")),
            &clustered.table(name).expect("table"),
            1024,
        )
        .expect("write clustered");
    }
    let mut file_clustered = Catalog::new();
    file_clustered.attach_dir(&cdir).expect("attach clustered");
    file_clustered.declare_primary_key("dim", "sk").expect("pk");
    let clustered_engine = Engine::from_catalog(file_clustered);
    let selective = QuerySpec::new("clustered_selective")
        .table("fact")
        .table("dim")
        .join("fact", "fk", "dim", "sk")
        .predicate("dim", ColumnPredicate::new("sk", CompareOp::Lt, 100i64));
    let stmt = clustered_engine
        .prepare(&selective, OptimizerChoice::Bqo)
        .expect("optimizes");
    let run_clustered = |backing: &str, config: ExecConfig| {
        let session = clustered_engine.session();
        let (secs, out) = best_of(3, || {
            session
                .execute(&stmt, RunOptions::new().with_exec_config(config))
                .expect("executes")
        });
        StorageScanPoint {
            backing: backing.to_string(),
            secs,
            output_rows: out.result.output_rows,
            chunks_read: out.result.metrics.chunks_read,
            chunks_pruned: out.result.metrics.chunks_pruned,
            bytes_read: out.result.metrics.bytes_read,
        }
    };
    let pruned = run_clustered("clustered file(pruned)", config);
    let unpruned = run_clustered(
        "clustered file(unpruned)",
        config.with_zone_map_pruning(false),
    );
    assert_eq!(
        pruned.output_rows, unpruned.output_rows,
        "pruning changed the clustered answer"
    );
    assert!(
        pruned.chunks_pruned * 2 >= pruned.chunks_read + pruned.chunks_pruned,
        "clustered scan should prune ≥50% of chunks (read {}, pruned {})",
        pruned.chunks_read,
        pruned.chunks_pruned
    );
    let clustered_pruning_ratio =
        pruned.chunks_pruned as f64 / (pruned.chunks_read + pruned.chunks_pruned).max(1) as f64;
    let clustered_points = vec![pruned, unpruned];

    let _ = std::fs::remove_dir_all(&dir);
    StorageScanResult {
        scale: scale.0,
        queries: workload.queries.len(),
        rows_written,
        file_bytes,
        write_secs,
        workload: points,
        clustered: clustered_points,
        clustered_pruning_ratio,
    }
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
    fn parallel_scaling_keeps_answers_and_reports_all_thread_counts() {
        let result = run_parallel_scaling(TINY, 2);
        assert_eq!(result.points.len(), 4);
        assert_eq!(
            result
                .points
                .iter()
                .map(|p| p.num_threads)
                .collect::<Vec<_>>(),
            vec![1, 2, 4, 8]
        );
        assert!(result.available_parallelism >= 1);
        // run_parallel_scaling asserts identical rows internally; spot-check
        // the invariant is visible in the report too.
        for p in &result.points {
            assert_eq!(p.output_rows, result.points[0].output_rows);
            assert!(p.elapsed_secs > 0.0);
            assert!(p.speedup > 0.0);
        }
        assert_eq!(result.points[0].speedup, 1.0);
    }

    #[test]
    fn serving_throughput_keeps_answers_and_reports_all_modes() {
        let result = run_serving_throughput(TINY, 8);
        assert_eq!(result.num_requests, 8);
        assert_eq!(result.submit_modes.len(), 2);
        // run_serving_throughput asserts identical rows across every mode
        // internally; spot-check the report fields.
        assert!(result.output_rows > 0);
        for mode in std::iter::once(&result.session_mode).chain(&result.submit_modes) {
            assert!(mode.elapsed_secs > 0.0, "{}", mode.label);
            assert!(mode.queries_per_sec > 0.0, "{}", mode.label);
        }
    }

    #[test]
    fn scheduling_priority_dispatch_beats_fifo_for_high_priority_probes() {
        let result = run_scheduling(TINY, 3);
        assert_eq!(result.policies.len(), 2);
        let fifo = &result.policies[0];
        let priority = &result.policies[1];
        assert_eq!(fifo.policy, "Fifo");
        assert_eq!(priority.policy, "PriorityDeadline");
        // Identical answers are asserted inside run_scheduling; the report
        // carries the invariant too.
        assert_eq!(fifo.output_rows, priority.output_rows);
        // FIFO drains the whole slow backlog before the probes; the
        // priority policy dispatches the probes past it.
        assert!(
            priority.high_queue_wait_ms < fifo.high_queue_wait_ms,
            "priority dispatch must cut probe queue wait (fifo {:.1} ms vs priority {:.1} ms)",
            fifo.high_queue_wait_ms,
            priority.high_queue_wait_ms
        );
        assert!(priority.lows_finished_before_high <= fifo.lows_finished_before_high);
        assert_eq!(fifo.lows_finished_before_high, result.low_backlog);
    }

    #[test]
    fn probe_throughput_reports_identical_answers() {
        let result = run_probe_throughput(TINY);
        assert_eq!(result.kernels.len(), 5, "one point per filter shape");
        for point in result.kernels.iter().chain([&result.end_to_end]) {
            assert!(
                point.scalar_mrows_per_sec > 0.0 && point.vectorized_mrows_per_sec > 0.0,
                "{}: throughput must be positive",
                point.kernel
            );
        }
        // Survivor equality between the shapes is asserted inside the run;
        // here we pin that the filters actually filtered something.
        let dense = &result.kernels[0];
        assert!(dense.survivors > 0);
        assert!((dense.survivors as usize) < result.keys_per_round);
        assert!(result.end_to_end.survivors > 0);
    }

    #[test]
    fn storage_scan_keeps_answers_and_prunes_clustered_chunks() {
        let result = run_storage_scan(TINY, 3);
        assert_eq!(result.workload.len(), 4);
        assert!(result.rows_written > 0 && result.file_bytes > 0);
        // Answer identity across backings is asserted inside the run;
        // spot-check the report fields and the backing labels.
        let memory = &result.workload[0];
        assert_eq!(memory.backing, "memory");
        assert_eq!(memory.chunks_read, 0, "memory scans read no file chunks");
        for p in &result.workload[1..] {
            assert!(p.backing.starts_with("file"), "{}", p.backing);
            assert_eq!(p.output_rows, memory.output_rows);
            assert!(p.bytes_read > 0, "{}", p.backing);
        }
        // The acceptance bar: the clustered selective scan skips ≥50% of
        // chunks via zone maps while answers stay identical.
        assert!(result.clustered_pruning_ratio >= 0.5);
        assert_eq!(
            result.clustered[0].output_rows,
            result.clustered[1].output_rows
        );
        assert_eq!(result.clustered[1].chunks_pruned, 0);
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
