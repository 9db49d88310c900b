//! Concurrent-serving oracle: one `Arc<Engine>` shared across ≥ 4 threads,
//! each serving a mixed stream of cached and uncached parameterized queries,
//! must return answers identical to fresh single-threaded prepares.
//!
//! Two comparison levels:
//!
//! * **Bit-identical rows** for requests whose plan is deterministic across
//!   serving and oracle (literal ad-hoc queries and the first-bound template
//!   values): concatenated output batches compared with `==`.
//! * **Canonical row multisets** for every request: a cache-hit bind may
//!   legitimately serve a plan optimized for a *different* in-envelope bind,
//!   whose join order permutes row and column order — the set of result rows
//!   (and the row count) must still be identical to the fresh prepare.

use bqo_core::exec::{Batch, ExecConfig};
use bqo_core::workloads::{star, Scale};
use bqo_core::{Engine, OptimizerChoice, Params, QuerySpec, RunOptions};
use bqo_integration_tests::env_threads;
use std::sync::Arc;

const DIMS: usize = 3;
const ROUNDS: usize = 3;

/// One serving request: a spec plus its parameters (None = literal ad-hoc).
struct Request {
    spec: QuerySpec,
    params: Option<Params>,
    /// Whether the serving plan is guaranteed to equal the oracle plan, so
    /// rows can be compared bit for bit instead of as canonical multisets.
    deterministic_plan: bool,
}

fn requests() -> Vec<Request> {
    let template = star::build_param_query("serve_by_bound", DIMS, &[0]);
    let wide = star::build_param_query("serve_two_params", DIMS, &[0, 2]);
    let mut out = Vec::new();
    // Parameterized binds of two templates, sweeping selectivity inside one
    // envelope per template (so every thread serves the same plan).
    for bound in [2i64, 3, 4] {
        out.push(Request {
            spec: template.clone(),
            params: Some(Params::new().set("bound0", bound)),
            // In-envelope binds may reuse a plan optimized for a sibling
            // bound; only the first-resolved value's plan is deterministic.
            deterministic_plan: false,
        });
    }
    for bound in [5i64, 8] {
        out.push(Request {
            spec: wide.clone(),
            params: Some(Params::new().set("bound0", bound).set("bound2", bound)),
            deterministic_plan: false,
        });
    }
    // Literal ad-hoc queries: always their own cache entry, deterministic.
    out.push(Request {
        spec: star::build_query("adhoc_selective", DIMS, &[(2, 1)]),
        params: None,
        deterministic_plan: true,
    });
    out.push(Request {
        spec: star::build_query("adhoc_mixed", DIMS, &[(0, 7), (1, 12)]),
        params: None,
        deterministic_plan: true,
    });
    out
}

fn prepare_and_run(engine: &Engine, request: &Request, config: ExecConfig) -> (u64, Batch) {
    let stmt = match &request.params {
        Some(params) => engine
            .bind(&request.spec, params, OptimizerChoice::Bqo)
            .unwrap(),
        None => engine.prepare(&request.spec, OptimizerChoice::Bqo).unwrap(),
    };
    let out = engine
        .session()
        .execute(
            &stmt,
            RunOptions::new().with_exec_config(config).collecting_rows(),
        )
        .unwrap();
    (out.result.output_rows, out.rows.unwrap())
}

/// Rows as a plan-order-independent canonical form: each row becomes its
/// sorted `(qualified column, value)` pairs, and the rows are sorted.
fn canonical_rows(batch: &Batch) -> Vec<Vec<(String, String)>> {
    let schema: Vec<String> = batch
        .schema()
        .iter()
        .map(|c| format!("{}.{}", c.relation, c.column))
        .collect();
    let mut rows: Vec<Vec<(String, String)>> = (0..batch.num_rows())
        .map(|r| {
            let physical = batch.physical_row(r);
            let mut row: Vec<(String, String)> = schema
                .iter()
                .zip(batch.columns())
                .map(|(name, col)| (name.clone(), col.value(physical).to_string()))
                .collect();
            row.sort();
            row
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn concurrent_serving_matches_fresh_single_threaded_prepares() {
    let catalog = star::build_catalog(Scale(0.02), DIMS, 99);
    let engine = Arc::new(Engine::from_catalog(catalog.clone()));
    let requests = requests();

    // Oracle: every request prepared fresh on a single thread against its
    // own engine (empty cache -> the optimizer runs for exactly this bind).
    let oracle: Vec<(u64, Batch)> = requests
        .iter()
        .map(|r| {
            prepare_and_run(
                &Engine::from_catalog(catalog.clone()),
                r,
                ExecConfig::default(),
            )
        })
        .collect();

    let num_threads = env_threads().max(4);
    std::thread::scope(|scope| {
        for worker in 0..num_threads {
            let engine = Arc::clone(&engine);
            let requests = &requests;
            let oracle = &oracle;
            scope.spawn(move || {
                // Each worker uses a different batch size (results are
                // config-invariant) and a rotated request order (so cache
                // misses, hits and concurrent first-resolutions interleave).
                let config = ExecConfig::default().with_batch_size(257 + worker * 119);
                for round in 0..ROUNDS {
                    for i in 0..requests.len() {
                        let idx = (i + worker + round) % requests.len();
                        let request = &requests[idx];
                        let (rows, batch) = prepare_and_run(&engine, request, config);
                        let (oracle_rows, oracle_batch) = &oracle[idx];
                        let label = format!("worker {worker} round {round} request {idx}");
                        assert_eq!(rows, *oracle_rows, "{label}");
                        if request.deterministic_plan {
                            assert_eq!(&batch, oracle_batch, "{label}");
                        }
                        assert_eq!(
                            canonical_rows(&batch),
                            canonical_rows(oracle_batch),
                            "{label}"
                        );
                    }
                }
            });
        }
    });

    // Every serve resolved against the shared cache exactly once, the bulk
    // of the traffic was served optimizer-free, and the cache holds exactly
    // one entry per template/ad-hoc fingerprint (binds of one template
    // share an entry).
    let cache = engine.plan_cache();
    let total = (num_threads * ROUNDS * requests.len()) as u64;
    assert_eq!(
        cache.cache_stats().hits + cache.cache_stats().misses + cache.cache_stats().reoptimizations,
        total
    );
    assert!(cache.cache_stats().hits > 0, "cached serving must hit");
    assert!(
        cache.cache_stats().misses >= 4,
        "each distinct fingerprint misses at least once: {}",
        cache.cache_stats().misses
    );
    assert_eq!(cache.cache_stats().len, 4);
}
