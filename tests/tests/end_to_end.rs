//! End-to-end correctness: for every generated workload, every optimizer and
//! every execution configuration must return exactly the same query answers
//! (and one plan the same filter counters under both exact filter kinds),
//! and the bitvector-aware optimizer must never be estimated worse than the
//! post-processed baseline.

use bqo_core::exec::ExecConfig;
use bqo_core::workloads::{
    customer_like, job_like, microbench, snowflake, star, tpcds_like, Scale,
};
use bqo_core::{Engine, OptimizerChoice, RunOptions};

const CHOICES: [OptimizerChoice; 4] = [
    OptimizerChoice::Baseline,
    OptimizerChoice::BaselineNoBitvectors,
    OptimizerChoice::Bqo,
    OptimizerChoice::BqoWithThreshold(0.0),
];

fn assert_consistent(workload: &bqo_core::workloads::Workload) {
    let engine = Engine::from_catalog(workload.catalog.clone());
    let session = engine.session();
    for query in &workload.queries {
        let mut expected: Option<u64> = None;
        for choice in CHOICES {
            let prepared = engine
                .prepare(query, choice)
                .unwrap_or_else(|e| panic!("{}: optimize failed: {e}", query.name));
            // The same plan with its placements cleared runs without filters.
            let mut bare = prepared.plan().clone();
            bare.placements.clear();
            let bare = engine.prepare_plan(&query.name, prepared.graph().clone(), bare);
            // The filter counters of `prepared` under each filter
            // representation it runs with.
            let mut filter_stats = Vec::new();
            for (stmt, config) in [
                (&prepared, ExecConfig::default()),
                (&prepared, ExecConfig::exact_filters()),
                (&bare, ExecConfig::default()),
            ] {
                let result = session
                    .execute(stmt, RunOptions::new().with_exec_config(config))
                    .unwrap_or_else(|e| panic!("{}: execute failed: {e}", query.name))
                    .result;
                if std::ptr::eq(stmt, &prepared) {
                    filter_stats.push(result.metrics.filter_stats);
                }
                match expected {
                    None => expected = Some(result.output_rows),
                    Some(rows) => assert_eq!(
                        rows,
                        result.output_rows,
                        "{} under {:?}/{:?} ({} placements) returned a different answer",
                        query.name,
                        choice,
                        config,
                        stmt.plan().placements.len()
                    ),
                }
            }
            // The default range bitmap (a bitmap or a hashed key index by
            // key span) and the always-hashed exact filter are both exact,
            // so the same plan probes and eliminates the same rows.
            assert_eq!(
                filter_stats[0], filter_stats[1],
                "{} under {choice:?}: filter counters depend on the filter representation",
                query.name
            );
        }
    }
}

#[test]
fn star_workload_answers_are_plan_invariant() {
    assert_consistent(&star::generate(Scale(0.02), 4, 4, 101));
}

#[test]
fn snowflake_workload_answers_are_plan_invariant() {
    assert_consistent(&snowflake::generate(Scale(0.02), &[1, 2, 2], 4, 102));
}

#[test]
fn tpcds_workload_answers_are_plan_invariant() {
    assert_consistent(&tpcds_like::generate(Scale(0.01), 6, 103));
}

#[test]
fn job_workload_answers_are_plan_invariant() {
    assert_consistent(&job_like::generate(Scale(0.01), 6, 104));
}

#[test]
fn customer_workload_answers_are_plan_invariant() {
    // Wide queries (19-37 relations) exercise the greedy baseline and the
    // snowflake stitching of Algorithm 3.
    assert_consistent(&customer_like::generate(Scale(0.01), 2, 105));
}

#[test]
fn microbench_answers_are_plan_invariant() {
    assert_consistent(&microbench::generate(Scale(0.01), 106));
}

#[test]
fn bqo_estimated_cost_never_worse_than_baseline() {
    for workload in [
        star::generate(Scale(0.02), 4, 4, 7),
        snowflake::generate(Scale(0.02), &[2, 2], 4, 8),
        tpcds_like::generate(Scale(0.01), 8, 9),
    ] {
        let engine = Engine::from_catalog(workload.catalog.clone());
        for query in &workload.queries {
            let baseline = engine.prepare(query, OptimizerChoice::Baseline).unwrap();
            let bqo = engine.prepare(query, OptimizerChoice::Bqo).unwrap();
            assert!(
                bqo.estimated_cost().total <= baseline.estimated_cost().total * (1.0 + 1e-9) + 1e-6,
                "{}: bqo {} vs baseline {}",
                query.name,
                bqo.estimated_cost().total,
                baseline.estimated_cost().total
            );
        }
    }
}

#[test]
fn plans_cover_every_query_relation_exactly_once() {
    let workload = tpcds_like::generate(Scale(0.01), 8, 11);
    let engine = Engine::from_catalog(workload.catalog.clone());
    for query in &workload.queries {
        for choice in CHOICES {
            let prepared = engine.prepare(query, choice).unwrap();
            let rels = prepared.plan().relation_set(prepared.plan().root());
            assert_eq!(rels.len(), query.tables.len(), "{}", query.name);
            assert_eq!(prepared.plan().num_joins(), query.tables.len() - 1);
        }
    }
}

#[test]
fn filter_elimination_counts_are_consistent_with_scan_outputs() {
    // With exact filters, the tuples eliminated at scans plus the tuples
    // surviving equal the tuples that entered the filters.
    let workload = star::generate(Scale(0.02), 3, 3, 33);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let session = engine.session();
    for query in &workload.queries {
        let prepared = engine
            .prepare(query, OptimizerChoice::BqoWithThreshold(0.0))
            .unwrap();
        let result = session
            .execute(
                &prepared,
                RunOptions::new().with_exec_config(ExecConfig::exact_filters()),
            )
            .unwrap()
            .result;
        let stats = result.metrics.filter_stats;
        assert_eq!(stats.passed() + stats.eliminated, stats.probed);
    }
}
