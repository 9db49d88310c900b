//! Serving throughput — small-query traffic through a session over the
//! engine's persistent worker pool, and `Server` burst submission under a
//! saturating vs an admission-limited concurrency cap.
//!
//! Small queries are simulated with `parallel_threshold = 64` and
//! `num_threads = 4`: every query opens several parallel sections, so the
//! fixed cost per section (a pool unpark) dominates the probe work. `cargo
//! run -p bqo-bench --bin reproduce -- serving_throughput` prints the same
//! rows.

use bqo_core::exec::ExecConfig;
use bqo_core::workloads::{star, Scale};
use bqo_core::{Engine, OptimizerChoice, Request, Server, ServerConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const REQUESTS: usize = 16;

fn bench_serving_throughput(c: &mut Criterion) {
    let workload = star::generate(Scale(0.05), 3, 2, 33);
    let config = ExecConfig::default()
        .with_num_threads(4)
        .with_parallel_threshold(64);

    let mut group = c.benchmark_group("fig_serving_throughput");
    group.sample_size(10);

    // Part 1: the request stream through a session, helper workers drawn
    // from the engine's persistent pool.
    let engine = Engine::builder()
        .catalog(workload.catalog.clone())
        .exec_config(config)
        .build()
        .expect("engine builds");
    let session = engine.session();
    let prepared: Vec<_> = workload
        .queries
        .iter()
        .map(|q| engine.prepare(q, OptimizerChoice::Bqo).unwrap())
        .collect();
    let stream = || -> u64 {
        (0..REQUESTS)
            .map(|i| {
                session
                    .run(&prepared[i % prepared.len()])
                    .unwrap()
                    .output_rows
            })
            .sum()
    };
    let expected = stream();
    group.bench_function("exec/persistent_pool", |b| b.iter(|| black_box(stream())));

    // Part 2: the same burst through the Server front end — saturating
    // concurrency vs an admission-limited cap over the same engine.
    for (label, max_concurrent) in [
        ("submit/saturating_8", 8),
        ("submit/admission_limited_2", 2),
    ] {
        let server = Server::new(
            engine.clone(),
            ServerConfig::default()
                .with_max_concurrent_queries(max_concurrent)
                .with_queue_capacity(REQUESTS),
        );
        group.bench_function(label, |b| {
            b.iter(|| {
                let tickets: Vec<_> = (0..REQUESTS)
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
                    .map(|t| t.wait().expect("serves").result.output_rows)
                    .sum();
                assert_eq!(rows, expected, "{label} changed the answers");
                black_box(rows)
            })
        });
        server.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_serving_throughput);
criterion_main!(benches);
