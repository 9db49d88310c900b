//! Allocation budgets of one cold query: SQL text in, plan prepared on an
//! empty plan cache, plan run count-only (no rows collected) — the
//! `plan-cold` benchmark op, where allocation is a large share of the time.
//!
//! A counting global allocator tallies every allocation the test thread
//! makes, and byte buffers (align-1 blocks: `String`s and `Vec<u8>`s)
//! separately — the kind a copied table or column name is. A name is
//! allocated once, by the catalog's schema, and shared as an `Arc<str>` by
//! the lowered spec, the join graph, the plan and every operator schema, so
//! a change that starts copying names again shows up here as byte buffers
//! that scale with the query's relations.
//!
//! The engine runs with one thread, so every allocation of the run happens
//! on the calling thread. Run in debug and in release.

use bqo_core::exec::ExecConfig;
use bqo_core::workloads::{customer_like, snowflake, Scale};
use bqo_core::{Catalog, Engine, OptimizerChoice, RunOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations made by one thread: every `alloc`, `alloc_zeroed` and
/// `realloc`, and the align-1 ones among them.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    all: u64,
    bytes: u64,
}

thread_local! {
    /// Const-initialized and without a destructor, so reading or updating
    /// it never allocates; one per thread, so tests running concurrently
    /// never see each other's allocations.
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { all: 0, bytes: 0 }) };
}

fn record(layout: Layout) {
    // A thread being torn down has no counter left; what it allocates then
    // is no test's.
    let _ = COUNTS.try_with(|counts| {
        let mut c = counts.get();
        c.all += 1;
        c.bytes += u64::from(layout.align() == 1);
        counts.set(c);
    });
}

/// Forwards every call to [`System`] and counts it.
struct CountingAlloc;

#[expect(
    unsafe_op_in_unsafe_fn,
    reason = "each method body is one call to `System` under the method's own contract"
)]
// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only updates a thread-local
// `Cell` and neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's layout goes to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout);
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
    // `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(layout);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The catalogs and queries are those of `plan-cold`'s widest families,
/// at the query templates' own tiny scale.
const SCALE: Scale = Scale(0.001);
const SEED: u64 = 1;
/// `1 + 4 + 4 + 3 + 3 + 2` = 17 relations.
const SNOWFLAKE_BRANCHES: [usize; 5] = [4, 4, 3, 3, 2];

/// The allocations of lowering, preparing (on an empty plan cache) and
/// running `sql` count-only on a fresh one-thread engine over `catalog`.
fn cold_run(catalog: &Catalog, sql: &str) -> Counts {
    // Pinned: the test thread must be the only one that works.
    let config = ExecConfig::default().with_num_threads(1);
    let engine = Engine::builder()
        .catalog(catalog.clone())
        .exec_config(config)
        .build()
        .expect("engine");
    let before = COUNTS.with(Cell::get);
    let stmt = engine
        .prepare_sql(sql, OptimizerChoice::Bqo)
        .expect("prepare");
    let out = engine
        .session()
        .execute(&stmt, RunOptions::new())
        .expect("execute");
    let after = COUNTS.with(Cell::get);
    assert!(out.rows.is_none(), "count-only runs collect no rows");
    Counts {
        all: after.all - before.all,
        bytes: after.bytes - before.bytes,
    }
}

/// Runs `sql` once to warm process-wide lazies, then returns the counts of
/// a second run on another fresh engine.
fn measure(catalog: &Catalog, sql: &str) -> Counts {
    cold_run(catalog, sql);
    let counts = cold_run(catalog, sql);
    println!("{counts:?}");
    counts
}

/// Budgets are the counts this test measured when written (identical in
/// debug and release) plus 15 %, rounded up: room for a small change to the
/// plan or the exec path, none for a name copy per relation.
fn assert_within(counts: Counts, all: u64, bytes: u64) {
    assert!(
        counts.bytes <= bytes,
        "{} byte-buffer allocations, budget {bytes}",
        counts.bytes
    );
    assert!(
        counts.all <= all,
        "{} allocations, budget {all}",
        counts.all
    );
}

#[test]
fn seventeen_relation_snowflake_stays_within_budget() {
    let workload = snowflake::generate(SCALE, &SNOWFLAKE_BRANCHES, 1, SEED);
    let spec = &workload.queries[0];
    assert_eq!(spec.tables.len(), 17);
    // 911 allocations, 23 of them byte buffers (915 and 27 while each scan
    // predicate built a `Vec<bool>` mask). When every layer copied names as
    // `String`s: 1 889 and 959.
    assert_within(measure(&workload.catalog, &spec.to_sql()), 1_048, 27);
}

#[test]
fn widest_customer_like_query_stays_within_budget() {
    let workload = customer_like::generate(SCALE, 10, SEED);
    let spec = workload
        .queries
        .iter()
        .max_by_key(|q| q.tables.len())
        .expect("queries");
    assert!(spec.tables.len() > 17, "{} relations", spec.tables.len());
    // 1 592 allocations, 25 of them byte buffers (1 602 and 35 with the
    // per-predicate masks). When every layer copied names as `String`s:
    // 5 420 and 3 836.
    assert_within(measure(&workload.catalog, &spec.to_sql()), 1_831, 29);
}
