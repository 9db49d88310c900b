//! Runtime tests for the persistent `bqo_exec::WorkerPool` behind the
//! pool-backed executor: shutdown/drop idempotence, panic containment, and
//! bit-identical execution against the serial/inline path when the pool
//! supplies the helper workers.

use bqo_core::exec::{morsels, run_morsels_with, ExecConfig, WorkerPool};
use bqo_core::workloads::{star, Scale};
use bqo_core::{Engine, OptimizerChoice, RunOptions};
use bqo_integration_tests::{env_threads, Rechunked};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn pool_shutdown_and_drop_are_idempotent() {
    let pool = WorkerPool::new(2);
    let clone = pool.clone();
    assert_eq!(pool.num_workers(), 2);
    pool.shutdown();
    pool.shutdown(); // second explicit shutdown is a no-op
    clone.shutdown(); // via a clone too
    assert_eq!(clone.num_workers(), 0);
    // Work after shutdown degrades to the caller's inline copy.
    let runs = AtomicUsize::new(0);
    clone.run_mirrored(4, &|| {
        runs.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(runs.load(Ordering::Relaxed), 1);
    drop(pool); // drop after shutdown: no double-join, no hang
    drop(clone);
}

#[test]
fn dropping_the_last_handle_joins_the_workers() {
    // No explicit shutdown: the implicit one on the last drop must join the
    // parked threads without hanging (this test times out otherwise).
    let pool = WorkerPool::new(3);
    let sum = AtomicUsize::new(0);
    pool.run_mirrored(3, &|| {
        sum.fetch_add(1, Ordering::Relaxed);
    });
    // The caller's copy always runs; helper copies may be withdrawn when the
    // caller finishes first.
    let runs = sum.load(Ordering::Relaxed);
    assert!((1..=4).contains(&runs), "{runs}");
    let clone = pool.clone();
    drop(pool);
    // The pool survives as long as any handle does.
    assert_eq!(clone.num_workers(), 3);
    drop(clone);
}

#[test]
fn kernel_panics_propagate_and_workers_survive() {
    let pool = WorkerPool::new(2);
    let ms = morsels(256, 1);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_morsels_with(Some(&pool), None, 3, &ms, |m| {
            if m.index == 200 {
                panic!("poisoned morsel");
            }
            Ok(m.len())
        })
    }));
    assert!(outcome.is_err(), "kernel panic must reach the caller");
    // The pool is still fully operational for the next section.
    assert_eq!(pool.num_workers(), 2);
    let ok = run_morsels_with(Some(&pool), None, 3, &ms, |m| Ok(m.len())).expect("nothing fails");
    assert_eq!(ok.len(), ms.len());
    pool.shutdown();
}

#[test]
fn pooled_morsel_runs_match_serial_and_inline() {
    let pool = WorkerPool::new(3);
    let ms = morsels(10_000, 17);
    let kernel = |m: &bqo_core::exec::Morsel| Ok(m.rows().map(|r| r * r).sum::<usize>());
    let serial = run_morsels_with(None, None, 1, &ms, kernel).expect("nothing fails");
    for threads in [2usize, 4, env_threads().max(2)] {
        // No pool: the section runs inline whatever the thread count.
        let inline = run_morsels_with(None, None, threads, &ms, kernel).expect("nothing fails");
        let pooled =
            run_morsels_with(Some(&pool), None, threads, &ms, kernel).expect("nothing fails");
        assert_eq!(serial, inline, "inline threads {threads}");
        assert_eq!(serial, pooled, "pooled threads {threads}");
    }
}

#[test]
fn engine_pool_is_shared_lazy_and_query_results_are_identical() {
    let workload = star::generate(Scale(0.02), 3, 2, 19);
    let engine = Engine::from_catalog(workload.catalog);
    let session = engine.session();
    let threads = env_threads().max(4);

    for query in &workload.queries {
        let stmt = engine.prepare(query, OptimizerChoice::Bqo).unwrap();
        let serial = session
            .execute(&stmt, RunOptions::new().collecting_rows())
            .unwrap();
        // 97-row morsels make every scan of over 97 rows fan out through the
        // engine-owned pool, which must reproduce the serial run bit for bit.
        let config = ExecConfig::default()
            .with_num_threads(threads)
            .with_batch_size(97);
        let out = session
            .execute(
                &stmt,
                RunOptions::new().with_exec_config(config).collecting_rows(),
            )
            .unwrap();
        assert_eq!(
            out.result.output_rows, serial.result.output_rows,
            "{}",
            query.name
        );
        assert_eq!(
            out.result.metrics.operators,
            serial.result.metrics.operators
        );
        assert_eq!(
            out.result.metrics.filter_stats,
            serial.result.metrics.filter_stats
        );
        assert_eq!(out.rows, serial.rows, "{}", query.name);
    }

    // The pool was spawned lazily by the parallel runs above and is shared:
    // every engine clone sees the same workers.
    assert!(engine.worker_pool().num_workers() >= 3);
    let clone = engine.clone();
    assert_eq!(
        clone.worker_pool().num_workers(),
        engine.worker_pool().num_workers()
    );
}

#[test]
fn concurrent_sessions_share_the_engine_pool() {
    let workload = star::generate(Scale(0.02), 2, 1, 23);
    let engine = Arc::new(Engine::from_catalog(workload.catalog));
    let query = &workload.queries[0];
    let stmt = Arc::new(engine.prepare(query, OptimizerChoice::Bqo).unwrap());
    let expected = engine
        .session()
        .execute(&stmt, RunOptions::new())
        .unwrap()
        .result
        .output_rows;

    let clients = env_threads().max(4);
    std::thread::scope(|scope| {
        for worker in 0..clients {
            let engine = Arc::clone(&engine);
            let stmt = Arc::clone(&stmt);
            scope.spawn(move || {
                let config = ExecConfig::default()
                    .with_num_threads(2 + worker % 3)
                    .with_batch_size(119 + worker * 61);
                let session = engine.session();
                for _ in 0..5 {
                    assert_eq!(
                        session
                            .execute(&stmt, RunOptions::new().with_exec_config(config))
                            .unwrap()
                            .result
                            .output_rows,
                        expected
                    );
                }
            });
        }
    });
}

#[test]
fn worker_threads_zero_disables_the_pool_and_runs_inline() {
    let workload = star::generate(Scale(0.02), 2, 1, 29);
    let engine = Engine::builder()
        .catalog(workload.catalog)
        .worker_threads(0)
        .build()
        .unwrap();
    assert_eq!(engine.worker_pool().num_workers(), 0);
    let stmt = engine
        .prepare(&workload.queries[0], OptimizerChoice::Bqo)
        .unwrap();
    let session = engine.session();
    let serial = session
        .execute(&stmt, RunOptions::new().collecting_rows())
        .unwrap();
    // "Parallel" configurations over many 97-row morsels run inline and
    // stay bit-identical.
    let parallel = ExecConfig::default()
        .with_num_threads(4)
        .with_batch_size(97);
    let out = session
        .execute(
            &stmt,
            RunOptions::new()
                .with_exec_config(parallel)
                .collecting_rows(),
        )
        .unwrap();
    assert_eq!(out.result.output_rows, serial.result.output_rows);
    assert_eq!(out.rows, serial.rows);
}

/// A scan runs one worker per morsel, at most `num_threads`: the star's
/// 4 000-row fact served as one chunk is read on the calling thread alone,
/// and served as eight chunks its reads overlap on more than two workers (a
/// gate of 2 048 rows per worker would cap it at two). Every read sleeps
/// 1 ms so the workers' reads overlap; a loaded host can still serialise
/// them, so the eight-chunk scan may start over a bounded number of times.
#[test]
fn a_scan_runs_one_worker_per_morsel_up_to_num_threads() {
    let workload = star::generate(Scale(0.02), 2, 1, 31);
    let fact = workload.catalog.table("fact").unwrap();
    assert_eq!(fact.num_rows(), 4_000);
    let config = ExecConfig::default().with_num_threads(4);
    let scan = |chunk_rows: usize| {
        let source = Rechunked::new(Arc::clone(&fact), chunk_rows);
        let source = Arc::new(source.with_delay(Duration::from_millis(1)));
        let mut catalog = workload.catalog.clone();
        catalog.register_source(Arc::clone(&source) as _);
        let engine = Engine::builder()
            .catalog(catalog)
            .worker_threads(3)
            .build()
            .unwrap();
        let stmt = engine
            .prepare(&workload.queries[0], OptimizerChoice::Bqo)
            .unwrap();
        let options = RunOptions::new().with_exec_config(config);
        engine.session().execute(&stmt, options).unwrap();
        source
    };

    let one = scan(4_000);
    assert_eq!((one.served().0, one.peak_reads()), (1, 1));
    let readers = one.readers();
    assert!(
        readers.iter().all(|name| !name.starts_with("bqo-worker")),
        "a one-chunk scan ran on a pool worker: {readers:?}"
    );
    for attempt in 0.. {
        assert!(
            attempt < 16,
            "an eight-chunk scan never ran three reads at once"
        );
        if scan(500).peak_reads() > 2 {
            break;
        }
    }
}
