//! Serving-runtime oracle for the multi-tenant `Server` front end: results
//! served through `Server::submit` from many concurrent client threads must
//! be identical to fresh single-threaded `Session` runs, and the
//! traffic-shaping contract (bounded queue, per-tenant accounting,
//! priority/deadline scheduling, mid-flight cancellation, wait timeouts,
//! panic containment, graceful shutdown) must hold under load.
//!
//! Comparison levels mirror `serving_oracle.rs`: bit-identical rows for
//! requests whose plan is deterministic across serving and oracle, canonical
//! row multisets (and exact row counts) for every request.
//!
//! What needs no execution — dispatch order, the queue bound, the
//! queued-deadline sweep — is tested on the
//! scheduler state machine itself, with a hand-advanced clock
//! (`crates/core/src/server/queue.rs`); this suite keeps what needs real
//! execution or the `Ticket` API.

use bqo_core::exec::{Batch, CancelToken, ExecConfig};
use bqo_core::workloads::{star, Scale};
use bqo_core::{
    CacheStatus, Engine, KernelMode, OptimizerChoice, Params, QuerySpec, Request, RunOptions,
    ServeError, Server, ServerConfig, ServerStats, SubmitError, Table,
};
use bqo_integration_tests::{env_threads, Rechunked};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIMS: usize = 3;
const ROUNDS: usize = 3;

struct TrafficCase {
    spec: QuerySpec,
    params: Option<Params>,
    /// Whether the serving plan is guaranteed to equal the oracle plan, so
    /// rows can be compared bit for bit instead of as canonical multisets.
    deterministic_plan: bool,
}

fn traffic() -> Vec<TrafficCase> {
    let template = star::build_param_query("serve_by_bound", DIMS, &[0]);
    let wide = star::build_param_query("serve_two_params", DIMS, &[0, 2]);
    let mut out = Vec::new();
    for bound in [2i64, 3, 4] {
        out.push(TrafficCase {
            spec: template.clone(),
            params: Some(Params::new().set("bound0", bound)),
            // In-envelope binds may reuse a plan optimized for a sibling
            // bound; only the first-resolved value's plan is deterministic.
            deterministic_plan: false,
        });
    }
    for bound in [5i64, 8] {
        out.push(TrafficCase {
            spec: wide.clone(),
            params: Some(Params::new().set("bound0", bound).set("bound2", bound)),
            deterministic_plan: false,
        });
    }
    out.push(TrafficCase {
        spec: star::build_query("adhoc_selective", DIMS, &[(2, 1)]),
        params: None,
        deterministic_plan: true,
    });
    out.push(TrafficCase {
        spec: star::build_query("adhoc_mixed", DIMS, &[(0, 7), (1, 12)]),
        params: None,
        deterministic_plan: true,
    });
    out
}

/// A plain spec request with default options.
fn plain_request(spec: &QuerySpec) -> Request {
    Request::builder()
        .query(spec)
        .optimizer(OptimizerChoice::Bqo)
        .build()
        .unwrap()
}

/// The slow-query fixture of the cancellation and deadline tests: the star
/// catalog with its fact table re-registered as a [`Rechunked`] source of
/// 16-row chunks that sleeps 4 ms per chunk. Under [`slow_config`] a star
/// query reads ~250 chunks one after another — about a second instead of
/// microseconds, a wide cancel window — and stops within a chunk of an
/// abort. The fact keys are unclustered, so no chunk's zone maps prove it
/// empty: the same chunks without the delay answer `spec` pruning none.
fn slow_engine(seed: u64, spec: &QuerySpec) -> Engine {
    let mut catalog = star::build_catalog(Scale(0.02), 2, seed);
    let fact = catalog.table("fact").unwrap();
    let mut quick = catalog.clone();
    quick.register_source(Arc::new(Rechunked::new(Arc::clone(&fact), 16)));
    let quick = Engine::from_catalog(quick);
    let stmt = quick.prepare(spec, OptimizerChoice::Bqo).unwrap();
    let options = RunOptions::new().with_exec_config(slow_config());
    let metrics = quick
        .session()
        .execute(&stmt, options)
        .unwrap()
        .result
        .metrics;
    assert_eq!(metrics.chunks_read, fact.num_rows().div_ceil(16) as u64);
    assert_eq!(metrics.chunks_pruned, 0, "the slow scan would skip a chunk");

    let slow = Rechunked::new(fact, 16).with_delay(Duration::from_millis(4));
    catalog.register_source(Arc::new(slow));
    Engine::from_catalog(catalog)
}

/// One thread: the slow scan's chunks are read one after another.
fn slow_config() -> ExecConfig {
    ExecConfig::default().with_num_threads(1)
}

/// A query that never touches the slow fact table.
fn quick_request() -> Request {
    let spec = QuerySpec::new("quick").table("dim0");
    Request::builder().query(&spec).build().unwrap()
}

/// `admitted = completed + cancelled + deadline_expired + failed + panicked +
/// queue_depth + running`: every admitted request is in exactly one place —
/// for the server and for each tenant alike.
fn reconciles(s: &ServerStats) -> bool {
    let ended = s.completed + s.cancelled + s.deadline_expired + s.failed + s.panicked;
    s.admitted == ended + (s.queue_depth + s.running) as u64
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

/// Fresh single-threaded prepare+run of every traffic case against its own
/// engine (empty cache -> the optimizer runs for exactly this bind).
fn oracle_outputs(catalog: &bqo_core::Catalog, cases: &[TrafficCase]) -> Vec<(u64, Batch)> {
    cases
        .iter()
        .map(|r| {
            let engine = Engine::from_catalog(catalog.clone());
            let stmt = match &r.params {
                Some(params) => engine.bind(&r.spec, params, OptimizerChoice::Bqo).unwrap(),
                None => engine.prepare(&r.spec, OptimizerChoice::Bqo).unwrap(),
            };
            let out = engine
                .session()
                .execute(&stmt, RunOptions::new().collecting_rows())
                .unwrap();
            (out.result.output_rows, out.rows.expect("rows collected"))
        })
        .collect()
}

/// ≥ 4 client threads hammer one `Server` with mixed cached/uncached
/// parameterized traffic; every ticket's output must match a fresh
/// single-threaded prepare+run against a fresh engine.
#[test]
fn server_matches_fresh_single_threaded_sessions() {
    let catalog = star::build_catalog(Scale(0.02), DIMS, 99);
    let engine = Engine::from_catalog(catalog.clone());
    let server = Server::new(
        engine.clone(),
        ServerConfig::default()
            .with_max_concurrent_queries(3)
            .with_queue_capacity(256),
    );
    let cases = traffic();
    let oracle = oracle_outputs(&catalog, &cases);

    let num_clients = env_threads().max(4);
    std::thread::scope(|scope| {
        for worker in 0..num_clients {
            let server = server.clone();
            let cases = &cases;
            let oracle = &oracle;
            scope.spawn(move || {
                // Each client submits with a different batch size and, on
                // every other client, the scalar kernels (results are
                // config-invariant; the oracle ran vectorized) and a rotated
                // request order, so queued, running and cache-hit requests
                // interleave.
                let kernels = [KernelMode::Vectorized, KernelMode::Scalar][worker % 2];
                let config = ExecConfig::default()
                    .with_batch_size(257 + worker * 119)
                    .with_num_threads(1 + worker % 3)
                    .with_parallel_threshold(1)
                    .with_kernel_mode(kernels);
                for round in 0..ROUNDS {
                    // Submit the whole round first (tickets outstanding
                    // concurrently), then collect.
                    let tickets: Vec<(usize, _)> = (0..cases.len())
                        .map(|i| {
                            let idx = (i + worker + round) % cases.len();
                            let case = &cases[idx];
                            let mut builder = Request::builder()
                                .query(&case.spec)
                                .optimizer(OptimizerChoice::Bqo)
                                .exec_config(config)
                                .collect_rows();
                            if let Some(params) = &case.params {
                                builder = builder.params(params);
                            }
                            let ticket = server
                                .submit(builder.build().unwrap())
                                .expect("queue capacity covers a full round");
                            (idx, ticket)
                        })
                        .collect();
                    for (idx, ticket) in tickets {
                        let output = ticket.wait().expect("request serves");
                        let (oracle_rows, oracle_batch) = &oracle[idx];
                        let label = format!("worker {worker} round {round} request {idx}");
                        assert_eq!(output.result.output_rows, *oracle_rows, "{label}");
                        let batch = output.rows.expect("rows were collected");
                        if cases[idx].deterministic_plan {
                            assert_eq!(&batch, oracle_batch, "{label}");
                        }
                        assert_eq!(
                            canonical_rows(&batch),
                            canonical_rows(oracle_batch),
                            "{label}"
                        );
                        assert_ne!(output.cache_status, CacheStatus::Bypassed, "{label}");
                        assert!(output.total_wall >= output.queue_wait, "{label}");
                    }
                }
            });
        }
    });

    let total = (num_clients * ROUNDS * cases.len()) as u64;
    let stats = server.stats();
    assert_eq!(stats.admitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(
        stats.rejected + stats.cancelled + stats.failed + stats.panicked,
        0
    );
    assert_eq!(stats.queue_depth, 0);
    // Every dispatched request fed the latency histograms.
    assert_eq!(stats.queue_wait.count, total);
    assert_eq!(stats.run_time.count, total);
    assert!(stats.run_time.p50 <= stats.run_time.p99);
    assert!(stats.run_time.max >= stats.run_time.mean);
    // The server's traffic resolved against the engine's shared plan cache:
    // one entry per template/ad-hoc fingerprint, mostly optimizer-free.
    let cache = engine.plan_cache();
    assert_eq!(
        cache.cache_stats().hits + cache.cache_stats().misses + cache.cache_stats().reoptimizations,
        total
    );
    assert!(cache.cache_stats().hits > 0, "cached serving must hit");
    assert_eq!(cache.cache_stats().len, 4);

    server.shutdown();
    // Shutdown rejects new traffic but preserves stats.
    let spec = star::build_query("late", DIMS, &[(0, 3)]);
    assert_eq!(
        server.submit(plain_request(&spec)).unwrap_err(),
        SubmitError::ShutDown
    );
    assert_eq!(server.stats().completed, total);
    assert_eq!(server.stats().rejected, 1);
}

/// Mixed-tenant scheduling traffic: clients submit with different tenants,
/// priorities and (generous) deadlines, plus a sprinkle of queued
/// cancellations. Every completed request must still match the fresh
/// single-threaded oracle bit for bit / as a canonical multiset, and the
/// per-tenant counters must reconcile with the global ones.
#[test]
fn mixed_scheduling_traffic_matches_oracle() {
    let catalog = star::build_catalog(Scale(0.02), DIMS, 101);
    let engine = Engine::from_catalog(catalog.clone());
    let server = Server::new(
        engine,
        ServerConfig::default()
            .with_max_concurrent_queries(3)
            .with_queue_capacity(256),
    );
    let cases = traffic();
    let oracle = oracle_outputs(&catalog, &cases);
    let tenants = ["analytics", "dashboards"];

    let num_clients = env_threads().max(4);
    std::thread::scope(|scope| {
        for worker in 0..num_clients {
            let server = server.clone();
            let cases = &cases;
            let oracle = &oracle;
            scope.spawn(move || {
                let config = ExecConfig::default()
                    .with_batch_size(193 + worker * 67)
                    .with_num_threads(1 + worker % 2)
                    .with_parallel_threshold(1);
                for round in 0..ROUNDS {
                    let tickets: Vec<(usize, _)> = (0..cases.len())
                        .map(|i| {
                            let idx = (i + worker + round) % cases.len();
                            let case = &cases[idx];
                            let mut builder = Request::builder()
                                .query(&case.spec)
                                .optimizer(OptimizerChoice::Bqo)
                                .exec_config(config)
                                .collect_rows()
                                .tenant(tenants[(worker + i) % tenants.len()])
                                .priority(((worker + i) % 3) as i32);
                            if i % 2 == 0 {
                                // Generous: scheduling pressure without drops.
                                builder = builder.deadline(Duration::from_secs(300));
                            }
                            if let Some(params) = &case.params {
                                builder = builder.params(params);
                            }
                            let ticket = server
                                .submit(builder.build().unwrap())
                                .expect("queue capacity covers a full round");
                            (idx, ticket)
                        })
                        .collect();
                    for (idx, ticket) in tickets {
                        let output = ticket.wait().expect("request serves");
                        let (oracle_rows, oracle_batch) = &oracle[idx];
                        let label = format!("worker {worker} round {round} request {idx}");
                        assert_eq!(output.result.output_rows, *oracle_rows, "{label}");
                        let batch = output.rows.expect("rows were collected");
                        if cases[idx].deterministic_plan {
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

    let total = (num_clients * ROUNDS * cases.len()) as u64;
    let stats = server.stats();
    assert!(reconciles(&stats), "{stats:?}");
    assert_eq!(stats.admitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.deadline_expired, 0, "deadlines were generous");
    // Per-tenant accounting reconciles with the global counters.
    let per_tenant: Vec<_> = tenants.iter().map(|t| server.stats_for(t)).collect();
    assert_eq!(
        per_tenant.iter().map(|s| s.admitted).sum::<u64>(),
        total,
        "every request was accounted to a tenant"
    );
    assert_eq!(per_tenant.iter().map(|s| s.completed).sum::<u64>(), total);
    for (tenant, s) in tenants.iter().zip(&per_tenant) {
        assert!(s.admitted > 0, "tenant {tenant} saw traffic");
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.running, 0);
        assert_eq!(s.queue_wait.count, s.completed, "{tenant}");
        assert_eq!(s.run_time.count, s.completed, "{tenant}");
    }
    // A tenant the server never saw reports zeros.
    assert_eq!(server.stats_for("nobody").admitted, 0);
}

/// Mid-flight cancellation: a cancel issued after execution starts aborts
/// the query cooperatively (within roughly one chunk — far sooner than the
/// slow query would take to finish), returns the partial metrics, and
/// frees the execution slot for the next request.
#[test]
fn midflight_cancel_aborts_and_frees_the_slot() {
    let spec = star::build_query("long_running", 2, &[(0, 4)]);
    let server = Server::new(
        slow_engine(37, &spec),
        ServerConfig::default().with_max_concurrent_queries(1),
    );
    // ~250 fact chunks x 4ms >= 1s of scan time.
    let slow = Request::builder()
        .query(&spec)
        .exec_config(slow_config())
        .build()
        .unwrap();
    let ticket = server.submit(slow).unwrap();

    // Wait until the request is actually executing (not just queued).
    let started = Instant::now();
    while server.stats().running == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "request never started"
        );
        std::thread::yield_now();
    }
    let cancelled_at = Instant::now();
    assert!(ticket.cancel(), "running requests accept cancellation");
    let err = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect_err("cancelled request yields no output");
    match err {
        ServeError::Cancelled { partial } => {
            let partial = partial.expect("mid-flight cancel keeps partial metrics");
            assert!(partial.elapsed > Duration::ZERO);
        }
        other => panic!("expected mid-flight cancellation, got {other:?}"),
    }
    // The abort was cooperative, not a run-to-completion: the full slow scan
    // takes >= 1s, the abort is bounded by a few chunks.
    assert!(
        cancelled_at.elapsed() < Duration::from_millis(500),
        "cancel aborted mid-flight in {:?}",
        cancelled_at.elapsed()
    );

    // The dispatcher slot is free: the very next request serves normally.
    let next = server.submit(quick_request()).unwrap();
    assert!(next.wait().expect("slot was freed").result.output_rows > 0);
    let stats = server.stats();
    assert_eq!((stats.cancelled, stats.completed), (1, 1));
}

/// A run cancelled mid-scan reports the chunks it fetched: its partial
/// metrics count exactly the reads the source answered and their bytes.
#[test]
fn a_cancelled_scan_reports_the_chunks_it_read() {
    let spec = star::build_query("long_running", 2, &[(0, 4)]);
    let mut catalog = star::build_catalog(Scale(0.02), 2, 41);
    let fact = catalog.table("fact").unwrap();
    let source = Arc::new(Rechunked::new(fact, 16).with_delay(Duration::from_millis(4)));
    catalog.register_source(Arc::clone(&source) as _);
    let engine = Engine::from_catalog(catalog);
    let stmt = engine.prepare(&spec, OptimizerChoice::Bqo).unwrap();
    let token = CancelToken::new();
    let canceller = {
        let (source, token) = (Arc::clone(&source), token.clone());
        std::thread::spawn(move || {
            let started = Instant::now();
            while source.served().0 < 3 && started.elapsed() < Duration::from_secs(30) {
                std::thread::sleep(Duration::from_millis(1));
            }
            token.cancel();
        })
    };
    let options = RunOptions::new()
        .with_exec_config(slow_config())
        .with_cancel_token(token);
    let err = engine
        .session()
        .execute(&stmt, options)
        .expect_err("the scan is cancelled after three reads");
    canceller.join().unwrap();
    assert!(err.is_cancelled(), "{err}");
    let partial = err
        .partial_metrics()
        .expect("a cancelled run keeps its metrics");
    let (reads, bytes) = source.served();
    assert!(reads >= 3, "{reads} reads");
    assert_eq!(partial.chunks_read, reads);
    assert_eq!(partial.bytes_read, bytes);
}

/// A deadline that expires mid-execution aborts the query cooperatively and
/// surfaces as `DeadlineExceeded` with the partial metrics.
#[test]
fn deadline_aborts_a_running_request_with_partial_metrics() {
    let spec = star::build_query("deadlined", 2, &[(0, 4)]);
    let server = Server::new(
        slow_engine(41, &spec),
        ServerConfig::default().with_max_concurrent_queries(1),
    );
    // The slow query needs >= 1s; the deadline is far shorter but still
    // leaves plenty of time to be dispatched.
    let request = Request::builder()
        .query(&spec)
        .exec_config(slow_config())
        .deadline(Duration::from_millis(200))
        .build()
        .unwrap();
    let ticket = server.submit(request).unwrap();
    let err = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect_err("expired request yields no output");
    match err {
        ServeError::DeadlineExceeded { partial } => {
            // Dispatch latency is microseconds here, so the deadline fires
            // mid-execution and the partial metrics survive the abort.
            let partial = partial.expect("mid-flight expiry keeps partial metrics");
            assert!(partial.elapsed > Duration::ZERO);
        }
        other => panic!("expected a deadline abort, got {other:?}"),
    }
    assert_eq!(server.stats().deadline_expired, 1);

    // The dispatcher survived; the next request serves normally.
    let next = server.submit(quick_request()).unwrap();
    assert!(next.wait().expect("server still serves").result.output_rows > 0);
}

/// Regression: `wait_timeout` on a request whose deadline already passed
/// while it sat queued must return `DeadlineExceeded` immediately — not
/// block for the full wait bound.
#[test]
fn expired_queued_deadline_resolves_wait_immediately() {
    let catalog = star::build_catalog(Scale(0.02), 2, 43);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default().with_max_concurrent_queries(1),
    );
    let spec = star::build_query("expired", 2, &[(0, 4)]);

    server.pause(); // nothing dispatches -> the deadline expires in-queue
    let request = Request::builder()
        .query(&spec)
        .deadline(Duration::from_millis(10))
        .build()
        .unwrap();
    let ticket = server.submit(request).unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let waited = Instant::now();
    let err = ticket
        .wait_timeout(Duration::from_secs(60))
        .expect_err("expired request yields no output");
    assert_eq!(err, ServeError::DeadlineExceeded { partial: None });
    assert!(
        waited.elapsed() < Duration::from_secs(5),
        "wait returned immediately, not after the 60s bound (took {:?})",
        waited.elapsed()
    );
    // The dead request's admission slot was freed and the expiry counted.
    assert_eq!(server.stats().queue_depth, 0);
    assert_eq!(server.stats().deadline_expired, 1);

    // Repeated waits keep returning the retained outcome.
    assert_eq!(
        ticket.wait().unwrap_err(),
        ServeError::DeadlineExceeded { partial: None }
    );
    server.resume();
}

/// A statement that panics on the dispatcher (its fact table a
/// [`Rechunked`] source armed to panic on a chunk read) must surface through
/// `Ticket::wait` as `ServeError::Panicked` — and the dispatcher must
/// survive to serve the next request. The panic is booked to the request's
/// tenant too (it used to be counted only globally, so a tenant's ledger
/// stopped adding up).
#[test]
fn worker_panic_propagates_through_ticket_wait() {
    let mut catalog = star::build_catalog(Scale(0.02), 2, 7);
    let fact = Rechunked::new(catalog.table("fact").unwrap(), 64);
    let fact = Arc::new(fact);
    catalog.register_source(fact.clone());
    let server = Server::new(
        Engine::from_catalog(catalog),
        ServerConfig::default().with_max_concurrent_queries(1),
    );

    // A serial run reads every chunk on the dispatcher thread itself.
    let spec = star::build_query("panicking", 2, &[(0, 3)]);
    let serial = ExecConfig::default().with_num_threads(1);
    let request = || {
        Request::builder()
            .query(&spec)
            .exec_config(serial)
            .tenant("a")
    };
    fact.panic_next_read(0);
    let ticket = server.submit(request().build().unwrap()).unwrap();
    match ticket.wait() {
        Err(ServeError::Panicked(message)) => {
            assert!(message.contains("injected panic in chunk 0"), "{message}");
            assert!(message.contains("bqo-dispatch"), "{message}");
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
    let stats = server.stats();
    assert!(reconciles(&stats), "{stats:?}");
    assert_eq!(stats.panicked, 1);
    let tenant = server.stats_for("a");
    assert!(reconciles(&tenant), "{tenant:?}");
    assert_eq!((tenant.admitted, tenant.panicked), (1, 1));

    // The dispatcher survived: the very next request is served normally.
    let output = server.submit(request().build().unwrap()).unwrap().wait();
    let output = output.expect("server still serves after a panic");
    assert!(output.result.output_rows > 0);
    assert_eq!(output.cache_status, CacheStatus::Hit);
    let stats = server.stats();
    assert!(reconciles(&stats), "{stats:?}");
    assert_eq!(stats.completed, 1);
    let tenant = server.stats_for("a");
    assert!(reconciles(&tenant), "{tenant:?}");
    assert_eq!((tenant.admitted, tenant.completed), (2, 1));
}

/// A kernel panic on one of the engine's pool workers, amid concurrent
/// traffic, is contained to its own request. The fact table is registered a
/// second time, as `boom`: a [`Rechunked`] source of 16 chunks whose armed
/// chunk panics when read. `boom` scans run at four threads with the
/// parallel gate forced open, so pool workers read its chunks while the
/// dispatcher thread reads its first. Panicking requests resolve
/// `Panicked` (until one panic has been seen on a pool worker); every good
/// request, interleaved on other dispatchers, returns the fresh
/// single-threaded oracle's rows; every tenant ledger reconciles; and
/// parallel queries after the burst still serve.
#[test]
fn pool_worker_panic_under_concurrent_traffic_is_contained() {
    const CHUNKS: usize = 16;
    const MIN_PANICS: usize = 4;
    const MAX_PANICS: usize = 64;
    let mut catalog = star::build_catalog(Scale(0.02), DIMS, 53);
    let cases = traffic();
    let oracle = oracle_outputs(&catalog, &cases);
    let fact = catalog.table("fact").unwrap();
    let columns = fact.columns().iter().map(|c| c.as_ref().clone()).collect();
    let copy = Table::new("boom", fact.schema().clone(), columns).unwrap();
    let chunk_rows = fact.num_rows().div_ceil(CHUNKS);
    let boom = Rechunked::new(Arc::new(copy), chunk_rows).with_delay(Duration::from_millis(1));
    let boom = Arc::new(boom);
    catalog.register_source(boom.clone());
    let server = Server::new(
        Engine::from_catalog(catalog),
        ServerConfig::default()
            .with_max_concurrent_queries(3)
            .with_queue_capacity(256),
    );
    let parallel = ExecConfig::default()
        .with_num_threads(4)
        .with_parallel_threshold(1);
    let tenants = ["steady", "risky"];
    let good_request = |case: &TrafficCase, tenant: &str| {
        let mut builder = Request::builder()
            .query(&case.spec)
            .optimizer(OptimizerChoice::Bqo)
            .exec_config(parallel)
            .collect_rows()
            .tenant(tenant);
        if let Some(params) = &case.params {
            builder = builder.params(params);
        }
        builder.build().unwrap()
    };
    let boom_spec = QuerySpec::new("boom").table("boom");
    let boom_request = || {
        let builder = Request::builder().query(&boom_spec).exec_config(parallel);
        builder.tenant("risky").build().unwrap()
    };

    let num_clients = env_threads().max(2);
    let panics = std::thread::scope(|scope| {
        for worker in 0..num_clients {
            let (server, cases, oracle) = (&server, &cases, &oracle);
            let good_request = &good_request;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for (idx, case) in cases.iter().enumerate() {
                        let tenant = tenants[(worker + idx) % tenants.len()];
                        let ticket = server.submit(good_request(case, tenant)).unwrap();
                        let output = ticket.wait().expect("a good request serves");
                        let label = format!("worker {worker} round {round} request {idx}");
                        let (oracle_rows, oracle_batch) = &oracle[idx];
                        assert_eq!(output.result.output_rows, *oracle_rows, "{label}");
                        let batch = output.rows.expect("rows were collected");
                        assert_eq!(
                            canonical_rows(&batch),
                            canonical_rows(oracle_batch),
                            "{label}"
                        );
                    }
                }
            });
        }
        // The panicking client keeps one `boom` request in flight at a time,
        // so each armed chunk panics its own request and nothing else.
        let mut messages = Vec::new();
        while messages.len() < MIN_PANICS
            || !messages.iter().any(|m: &String| m.contains("bqo-worker"))
        {
            assert!(
                messages.len() < MAX_PANICS,
                "no panic reached a pool worker: {messages:?}"
            );
            let chunk = 1 + messages.len() % (CHUNKS - 1);
            boom.panic_next_read(chunk);
            match server.submit(boom_request()).unwrap().wait() {
                Err(ServeError::Panicked(message)) => {
                    let armed = format!("injected panic in chunk {chunk} ");
                    assert!(message.contains(&armed), "{message}");
                    messages.push(message);
                }
                other => panic!("chunk {chunk}: expected a contained panic, got {other:?}"),
            }
        }
        messages.len() as u64
    });

    let good = (num_clients * ROUNDS * cases.len()) as u64;
    let stats = server.stats();
    assert!(reconciles(&stats), "{stats:?}");
    assert_eq!((stats.panicked, stats.completed), (panics, good));
    assert_eq!(stats.failed + stats.cancelled + stats.deadline_expired, 0);
    for tenant in tenants {
        let ledger = server.stats_for(tenant);
        assert!(reconciles(&ledger), "{tenant}: {ledger:?}");
    }
    assert_eq!(server.stats_for("risky").panicked, panics);

    // After the burst the pool still serves parallel queries: a good one
    // returns the oracle's rows, and a disarmed `boom` scan reads every row.
    let output = server.submit(good_request(&cases[0], "steady")).unwrap();
    let output = output.wait().expect("parallel query after the burst");
    assert_eq!(output.result.output_rows, oracle[0].0);
    let rows = output.rows.expect("rows were collected");
    assert_eq!(canonical_rows(&rows), canonical_rows(&oracle[0].1));
    let scan = server.submit(boom_request()).unwrap().wait();
    let scan = scan.expect("a disarmed boom scan serves");
    assert_eq!(scan.result.output_rows, fact.num_rows() as u64);
}

/// A bound too far to represent as an instant is no bound: with an optional
/// request `deadline` and `wait_timeout` bound, the request serves the fresh
/// oracle's rows. Each `Duration::MAX` case below used to overflow
/// `Instant + Duration` and panic on the client thread.
fn serves_under_far_bounds(deadline: Option<Duration>, wait: Option<Duration>) {
    let catalog = star::build_catalog(Scale(0.02), DIMS, 67);
    let cases = traffic();
    let case = &cases[cases.len() - 1];
    let (oracle_rows, oracle_batch) = &oracle_outputs(&catalog, std::slice::from_ref(case))[0];
    let server = Server::new(Engine::from_catalog(catalog), ServerConfig::default());
    let mut builder = Request::builder().query(&case.spec).collect_rows();
    if let Some(deadline) = deadline {
        builder = builder.deadline(deadline);
    }
    let ticket = server.submit(builder.build().unwrap()).unwrap();
    let output = match wait {
        Some(timeout) => ticket.wait_timeout(timeout),
        None => ticket.wait(),
    };
    let output = output.expect("a far bound is no bound");
    assert_eq!(output.result.output_rows, *oracle_rows);
    assert_eq!(output.rows.as_ref(), Some(oracle_batch));
    assert_eq!(server.stats().completed, 1);
}

#[test]
fn a_duration_max_deadline_is_no_deadline() {
    serves_under_far_bounds(Some(Duration::MAX), None);
}

#[test]
fn wait_timeout_of_duration_max_waits_for_the_output() {
    serves_under_far_bounds(None, Some(Duration::MAX));
}

/// Cancelling a queued request resolves its ticket with `Cancelled` without
/// executing it; finished requests refuse cancellation.
#[test]
fn cancel_resolves_queued_requests_immediately() {
    let catalog = star::build_catalog(Scale(0.02), 2, 11);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default().with_max_concurrent_queries(1),
    );
    let spec = star::build_query("cancellable", 2, &[(1, 5)]);

    server.pause();
    let keep = server.submit(plain_request(&spec)).unwrap();
    let drop_me = server.submit(plain_request(&spec)).unwrap();
    assert_eq!(server.stats().queue_depth, 2);
    assert!(drop_me.cancel(), "queued requests are cancellable");
    assert!(!drop_me.cancel(), "cancel is not double-counted");
    assert_eq!(
        drop_me.wait().unwrap_err(),
        ServeError::Cancelled { partial: None }
    );
    // Cancellation frees the admission slot immediately — it never waits for
    // a dispatcher to reach the dead request.
    assert_eq!(server.stats().queue_depth, 1);
    assert_eq!(server.stats().cancelled, 1);
    server.resume();

    let output = keep.wait().expect("uncancelled request serves");
    assert!(output.result.output_rows > 0);
    assert!(!keep.cancel(), "finished requests refuse cancellation");
    server.shutdown();
    let stats = server.stats();
    assert_eq!((stats.completed, stats.cancelled), (1, 1));
}

/// Cancelling queued requests relieves `QueueFull` backpressure at once: a
/// full queue of cancelled requests accepts new submissions immediately.
#[test]
fn cancel_relieves_queue_backpressure() {
    let catalog = star::build_catalog(Scale(0.02), 2, 19);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default()
            .with_max_concurrent_queries(1)
            .with_queue_capacity(2),
    );
    let spec = star::build_query("relief", 2, &[(0, 5)]);

    server.pause();
    let tickets: Vec<_> = (0..2)
        .map(|_| server.submit(plain_request(&spec)).unwrap())
        .collect();
    assert_eq!(
        server.submit(plain_request(&spec)).unwrap_err(),
        SubmitError::QueueFull { capacity: 2 }
    );
    for ticket in &tickets {
        assert!(ticket.cancel());
    }
    // Both slots freed without any dispatcher involvement.
    assert_eq!(server.stats().queue_depth, 0);
    let live = server.submit(plain_request(&spec)).unwrap();
    server.resume();
    assert!(
        live.wait()
            .expect("admitted request serves")
            .result
            .output_rows
            > 0
    );
    let stats = server.stats();
    assert_eq!(
        (stats.completed, stats.cancelled, stats.rejected),
        (1, 2, 1)
    );
}

/// `Ticket::wait_timeout` bounds the wait, not the request: it keeps
/// running and a later wait still collects the result.
#[test]
fn wait_timeout_bounds_wait_without_killing_the_request() {
    let catalog = star::build_catalog(Scale(0.02), 2, 13);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default().with_max_concurrent_queries(1),
    );
    let spec = star::build_query("timed", 2, &[(0, 6)]);

    server.pause(); // nothing dispatches -> the bounded wait must time out
    let ticket = server.submit(plain_request(&spec)).unwrap();
    let timed_out = ticket.wait_timeout(Duration::from_millis(1));
    assert_eq!(timed_out.unwrap_err(), ServeError::TimedOut);
    assert!(ticket.try_wait().is_none());
    server.resume();

    let output = ticket
        .wait()
        .expect("request finishes once dispatching resumes");
    assert!(output.result.output_rows > 0);
    // The retained outcome can be collected again, now within any bound.
    assert!(ticket.wait_timeout(Duration::ZERO).is_ok());
}

/// Graceful shutdown drains the backlog: every admitted ticket resolves.
#[test]
fn shutdown_drains_queued_requests() {
    let catalog = star::build_catalog(Scale(0.02), 2, 17);
    let engine = Engine::from_catalog(catalog);
    let server = Server::new(
        engine,
        ServerConfig::default()
            .with_max_concurrent_queries(2)
            .with_queue_capacity(32),
    );
    let spec = star::build_query("draining", 2, &[(0, 8)]);

    server.pause();
    let tickets: Vec<_> = (0..8)
        .map(|_| server.submit(plain_request(&spec)).unwrap())
        .collect();
    // Shutdown while paused: the backlog still drains before the
    // dispatchers exit.
    server.shutdown();
    for ticket in tickets {
        assert!(ticket.wait().is_ok());
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.running, 0);
}
