//! Quickstart: build a tiny warehouse by hand with the [`Engine`] builder,
//! prepare a *parameterized* query once, serve it for several parameter
//! bindings through a [`Session`] — repeated binds skip the optimizer via the
//! engine's plan cache — then serve the same template as *SQL text* (landing
//! on the same cached plan), and finally shape a concurrent burst of requests
//! through the admission-controlled [`Server`] front end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bqo_core::{
    CompareOp, Engine, ForeignKey, OptimizerChoice, Params, QuerySpec, Request, RunOptions, Server,
    ServerConfig, Session, TableBuilder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // A small sales warehouse: one fact table, two dimensions.
    let num_products = 2_000usize;
    let num_stores = 200usize;
    let num_sales = 500_000usize;

    let engine = Engine::builder()
        .table(
            TableBuilder::new("product")
                .with_i64("product_sk", (0..num_products as i64).collect())
                .with_i64(
                    "category",
                    (0..num_products).map(|_| rng.gen_range(0..40)).collect(),
                )
                .build()
                .expect("product table"),
        )
        .table(
            TableBuilder::new("store")
                .with_i64("store_sk", (0..num_stores as i64).collect())
                .with_i64(
                    "region",
                    (0..num_stores).map(|_| rng.gen_range(0..10)).collect(),
                )
                .build()
                .expect("store table"),
        )
        .table(
            TableBuilder::new("sales")
                .with_i64(
                    "product_sk",
                    (0..num_sales)
                        .map(|_| rng.gen_range(0..num_products as i64))
                        .collect(),
                )
                .with_i64(
                    "store_sk",
                    (0..num_sales)
                        .map(|_| rng.gen_range(0..num_stores as i64))
                        .collect(),
                )
                .with_f64(
                    "amount",
                    (0..num_sales).map(|_| rng.gen_range(1.0..500.0)).collect(),
                )
                .build()
                .expect("sales table"),
        )
        .primary_key("product", "product_sk")
        .primary_key("store", "store_sk")
        .foreign_key(ForeignKey::new(
            "sales",
            "product_sk",
            "product",
            "product_sk",
        ))
        .foreign_key(ForeignKey::new("sales", "store_sk", "store", "store_sk"))
        .build()
        .expect("engine builds");

    // "How many sales of category-$category products happened in
    // region-$region stores?" — one template, bound per request.
    let template = QuerySpec::new("quickstart")
        .table("sales")
        .table("product")
        .table("store")
        .join("sales", "product_sk", "product", "product_sk")
        .join("sales", "store_sk", "store", "store_sk")
        .param_predicate("product", "category", CompareOp::Eq, "category")
        .param_predicate("store", "region", CompareOp::Eq, "region");

    let session = engine.session();
    for choice in [OptimizerChoice::Baseline, OptimizerChoice::Bqo] {
        let params = Params::new().set("category", 3i64).set("region", 0i64);
        let stmt = engine
            .bind(&template, &params, choice)
            .expect("query binds");
        println!("=== {} ===", choice.label());
        println!("{}", stmt.explain());
        serve(&session, choice.label(), &stmt);
    }

    // Serve more bindings of the same template: the plans above are reused
    // straight from the plan cache — no optimizer run, as the counters show.
    for (category, region) in [(7i64, 4i64), (12, 9), (3, 0)] {
        let params = Params::new()
            .set("category", category)
            .set("region", region);
        let stmt = engine
            .bind(&template, &params, OptimizerChoice::Bqo)
            .expect("query binds");
        serve(
            &session,
            &format!(
                "BQO bind category={category} region={region} ({:?})",
                stmt.cache_status()
            ),
            &stmt,
        );
    }
    // The engine's plan cache: one consistent snapshot of its traffic
    // counters and occupancy.
    let cache = engine.plan_cache().cache_stats();
    println!(
        "plan cache          : {} hits, {} misses, {} re-optimizations ({} evictions, {}/{} entries)",
        cache.hits, cache.misses, cache.reoptimizations, cache.evictions, cache.len, cache.capacity
    );

    // The same template as SQL text: `$category` / `$region` are named
    // placeholders, and the lowered query normalizes to the *same*
    // plan-cache fingerprint as the hand-built spec above — the very first
    // SQL bind is already a cache hit.
    let sql = "SELECT * FROM sales \
               JOIN product ON sales.product_sk = product.product_sk \
               JOIN store ON sales.store_sk = store.store_sk \
               WHERE product.category = $category AND store.region = $region";
    for (category, region) in [(3i64, 0i64), (21, 7), (38, 2)] {
        let params = Params::new()
            .set("category", category)
            .set("region", region);
        let stmt = engine
            .bind_sql(sql, &params, OptimizerChoice::Bqo)
            .expect("SQL binds");
        serve(
            &session,
            &format!(
                "SQL bind category={category} region={region} ({:?})",
                stmt.cache_status()
            ),
            &stmt,
        );
    }
    let cache = engine.plan_cache().cache_stats();
    println!(
        "plan cache after SQL: {} hits, {} misses, {} re-optimizations",
        cache.hits, cache.misses, cache.reoptimizations
    );

    // Production-style serving: a burst of binds from two tenants submitted
    // through the multi-tenant Server (priority/deadline scheduling, at most
    // 2 queries executing concurrently, backpressure past 32 pending, the
    // interactive tenant dispatching ahead of the batch one). Execution
    // reuses the engine's plan cache and persistent worker pool.
    let server = Server::new(
        engine.clone(),
        ServerConfig::default()
            .with_max_concurrent_queries(2)
            .with_queue_capacity(32),
    );
    let tickets: Vec<_> = (0..10)
        .map(|i| {
            let params = Params::new().set("category", i % 40).set("region", i % 10);
            let (tenant, priority) = if i % 2 == 0 {
                ("dashboards", 1) // interactive: dispatch first
            } else {
                ("batch-reports", 0)
            };
            let request = Request::builder()
                .query(&template)
                .params(&params)
                .optimizer(OptimizerChoice::Bqo)
                .tenant(tenant)
                .priority(priority)
                .deadline(Duration::from_secs(30))
                .build()
                .expect("request is well-formed");
            server.submit(request).expect("burst fits the queue")
        })
        .collect();
    let served: u64 = tickets
        .into_iter()
        .map(|t| t.wait().expect("request serves").result.output_rows)
        .sum();
    let stats = server.stats();
    println!(
        "server burst        : {} requests -> {} rows ({} completed, {} rejected, {:.2} ms total wall, p99 run {:?})",
        stats.admitted,
        served,
        stats.completed,
        stats.rejected,
        stats.total_wall.as_secs_f64() * 1e3,
        stats.run_time.p99
    );
    for tenant in ["dashboards", "batch-reports"] {
        let t = server.stats_for(tenant);
        println!(
            "tenant {tenant:<13}: {} admitted, {} completed, mean queue wait {:?}",
            t.admitted, t.completed, t.queue_wait.mean
        );
    }
    server.shutdown();
}

fn serve(session: &Session, label: &str, stmt: &bqo_core::PreparedStatement) {
    let result = session
        .execute(stmt, RunOptions::new())
        .expect("query runs")
        .result;
    println!("--- {label} ---");
    println!("estimated Cout      : {:.0}", stmt.estimated_cost().total);
    println!("result rows         : {}", result.output_rows);
    println!(
        "tuples through joins: {}",
        result.metrics.tuples_by_kind(bqo_core::OperatorKind::Join)
    );
    println!(
        "bitvector filters   : {} created, {} tuples eliminated",
        result.metrics.filters_created, result.metrics.filter_stats.eliminated
    );
    println!(
        "wall time           : {:.2} ms\n",
        result.metrics.elapsed_secs() * 1e3
    );
}
