//! Semantics of an engine's plan cache: fingerprint stability under spec
//! reordering, one entry per optimizer choice, and selectivity-envelope
//! exits that provably re-optimize into a different bitvector placement.
//! The LRU capacity bound is checked by the cache's own unit tests.

use bqo_core::workloads::{star, Scale};
use bqo_core::{
    CacheStatus, ColumnPredicate, CompareOp, Engine, OptimizerChoice, Params, QuerySpec,
    RunOptions, TableBuilder,
};
use std::sync::Arc;

const DIMS: usize = 3;

fn star_engine(seed: u64) -> Engine {
    Engine::from_catalog(star::build_catalog(Scale(0.02), DIMS, seed))
}

/// The same query written with tables, join sides and predicates in a
/// different order must fingerprint identically and therefore hit.
#[test]
fn fingerprint_is_stable_under_spec_reordering() {
    let engine = star_engine(7);
    let a = QuerySpec::new("order_a")
        .table("fact")
        .table("dim0")
        .table("dim1")
        .join("fact", "dim0_sk", "dim0", "dim0_sk")
        .join("fact", "dim1_sk", "dim1", "dim1_sk")
        .predicate(
            "dim0",
            ColumnPredicate::new("dim0_category", CompareOp::Lt, 3i64),
        )
        .predicate(
            "dim1",
            ColumnPredicate::new("dim1_category", CompareOp::Lt, 9i64),
        );
    // Different name, table order, join order and join side order.
    let b = QuerySpec::new("order_b")
        .table("dim1")
        .table("dim0")
        .table("fact")
        .join("dim1", "dim1_sk", "fact", "dim1_sk")
        .join("fact", "dim0_sk", "dim0", "dim0_sk")
        .predicate(
            "dim1",
            ColumnPredicate::new("dim1_category", CompareOp::Lt, 9i64),
        )
        .predicate(
            "dim0",
            ColumnPredicate::new("dim0_category", CompareOp::Lt, 3i64),
        );

    let first = engine.prepare(&a, OptimizerChoice::Bqo).unwrap();
    assert_eq!(first.cache_status(), CacheStatus::Miss);
    let second = engine.prepare(&b, OptimizerChoice::Bqo).unwrap();
    assert_eq!(second.cache_status(), CacheStatus::Hit);
    assert_eq!(engine.plan_cache().cache_stats().hits, 1);
    assert_eq!(engine.plan_cache().cache_stats().misses, 1);
    assert_eq!(engine.plan_cache().cache_stats().len, 1);

    // The hit is only legitimate if the served plan actually *executes*
    // correctly for the reordered spec: the cached plan is renumbered to
    // spec B's relation ids, so both statements run the same join tree and
    // must return identical rows. Relation *ids* in the output schema follow
    // each spec's own table order, so compare by qualified name + data.
    let session = engine.session();
    let config = bqo_core::ExecConfig::default();
    let first_out = session
        .execute(
            &first,
            bqo_core::RunOptions::new()
                .with_exec_config(config)
                .collecting_rows(),
        )
        .unwrap();
    let second_out = session
        .execute(
            &second,
            bqo_core::RunOptions::new()
                .with_exec_config(config)
                .collecting_rows(),
        )
        .unwrap();
    let (first_result, first_rows) = (first_out.result, first_out.rows.unwrap());
    let (second_result, second_rows) = (second_out.result, second_out.rows.unwrap());
    assert_eq!(first_result.output_rows, second_result.output_rows);
    assert_eq!(first_rows.num_rows(), second_rows.num_rows());
    assert_eq!(first_rows.num_columns(), second_rows.num_columns());
    let qualified = |stmt: &bqo_core::PreparedStatement, rows: &bqo_core::exec::Batch| {
        rows.schema()
            .iter()
            .map(|c| format!("{}.{}", stmt.graph().relation(c.relation).name, c.column))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        qualified(&first, &first_rows),
        qualified(&second, &second_rows)
    );
    assert_eq!(first_rows.columns(), second_rows.columns());
    // And both agree with an uncached engine preparing spec B directly.
    let fresh_engine = star_engine(7);
    let fresh = fresh_engine.prepare(&b, OptimizerChoice::Bqo).unwrap();
    assert_eq!(
        fresh_engine
            .session()
            .execute(&fresh, RunOptions::new())
            .unwrap()
            .result
            .output_rows,
        second_result.output_rows
    );

    // A genuinely different literal is a different entry.
    let c = QuerySpec::new("order_c")
        .table("fact")
        .table("dim0")
        .table("dim1")
        .join("fact", "dim0_sk", "dim0", "dim0_sk")
        .join("fact", "dim1_sk", "dim1", "dim1_sk")
        .predicate(
            "dim0",
            ColumnPredicate::new("dim0_category", CompareOp::Lt, 4i64),
        )
        .predicate(
            "dim1",
            ColumnPredicate::new("dim1_category", CompareOp::Lt, 9i64),
        );
    assert_eq!(
        engine
            .prepare(&c, OptimizerChoice::Bqo)
            .unwrap()
            .cache_status(),
        CacheStatus::Miss
    );
}

/// Column names may contain the characters the fingerprint renders joins
/// with. `t."a=u.b" = u."c"` and `t."a" = u."b=u.c"` are different queries,
/// so they are two cache entries, and each gets its own answer.
#[test]
fn delimiters_in_column_names_do_not_share_a_cache_entry() {
    let table = |name: &str, columns: [(&str, Vec<i64>); 2]| {
        let [(first, first_values), (second, second_values)] = columns;
        TableBuilder::new(name)
            .with_i64(first, first_values)
            .with_i64(second, second_values)
            .build()
            .unwrap()
    };
    let engine = Engine::builder()
        .table(table(
            "t",
            [("a", vec![1, 2, 3]), ("a=u.b", vec![10, 20, 30])],
        ))
        .table(table(
            "u",
            [("c", vec![10, 20, 99]), ("b=u.c", vec![1, 2, 3])],
        ))
        .build()
        .unwrap();
    let prepare_and_count = |spec: &QuerySpec| {
        let stmt = engine.prepare(spec, OptimizerChoice::Bqo).unwrap();
        let output = engine.session().execute(&stmt, RunOptions::new()).unwrap();
        (stmt.cache_status(), output.result.output_rows)
    };
    let first = QuerySpec::new("first")
        .table("t")
        .table("u")
        .join("t", "a=u.b", "u", "c");
    let second = QuerySpec::new("second")
        .table("t")
        .table("u")
        .join("t", "a", "u", "b=u.c");
    assert_eq!(prepare_and_count(&first), (CacheStatus::Miss, 2));
    assert_eq!(prepare_and_count(&second), (CacheStatus::Miss, 3));
    assert_eq!(prepare_and_count(&first), (CacheStatus::Hit, 2));
    assert_eq!(engine.plan_cache().cache_stats().len, 2);
}

/// The optimizer choice is the only part of the cache key besides the
/// fingerprint: one spec prepared on one engine under four choices gets
/// four entries, and each choice is served its own plan back.
#[test]
fn optimizer_choices_get_separate_entries() {
    let engine = star_engine(7);
    let query = star::build_query("choices", DIMS, &[(0, 1), (DIMS - 1, 1)]);
    let choices = [
        OptimizerChoice::Baseline,
        OptimizerChoice::BaselineNoBitvectors,
        OptimizerChoice::Bqo,
        OptimizerChoice::BqoWithThreshold(0.0),
    ];
    let first: Vec<_> = choices
        .iter()
        .map(|&choice| engine.prepare(&query, choice).unwrap())
        .collect();
    for stmt in &first {
        assert_eq!(stmt.cache_status(), CacheStatus::Miss);
    }
    assert_eq!(engine.plan_cache().cache_stats().len, 4);
    assert!(first[1].plan().placements.is_empty());
    assert!(!first[0].plan().placements.is_empty());

    for (&choice, earlier) in choices.iter().zip(&first) {
        let again = engine.prepare(&query, choice).unwrap();
        assert_eq!(again.cache_status(), CacheStatus::Hit, "{choice:?}");
        assert!(
            Arc::ptr_eq(&again.shared_plan(), &earlier.shared_plan()),
            "{choice:?}"
        );
    }
}

/// The paper's core observation, enforced at the cache boundary: binds whose
/// selectivities stay inside the stored envelope reuse the plan (optimizer
/// skipped, asserted via counters and pointer-shared plans), while a bind
/// that leaves the envelope re-optimizes into a *different* bitvector
/// placement — serving the stale plan would have kept a filter the λ
/// threshold no longer justifies.
#[test]
fn envelope_exit_reoptimizes_and_changes_the_bitvector_placement() {
    let engine = star_engine(11);
    let session = engine.session();
    let template = star::build_param_query("swing", DIMS, &[DIMS - 1]);
    let param = format!("bound{}", DIMS - 1);
    let cache = engine.plan_cache();

    // Highly selective bind: 1 of 20 categories survives the biggest
    // dimension, so BQO pushes that dimension's bitvector filter down.
    let selective = engine
        .bind(
            &template,
            &Params::new().set(&*param, 1i64),
            OptimizerChoice::Bqo,
        )
        .unwrap();
    assert_eq!(selective.cache_status(), CacheStatus::Miss);
    assert!(
        !selective.plan().placements.is_empty(),
        "selective bind should place bitvector filters"
    );

    // Nearby bind (2/20 instead of 1/20): inside the 4x envelope — served
    // from the cache without optimization, sharing the plan allocation.
    let nearby = engine
        .bind(
            &template,
            &Params::new().set(&*param, 2i64),
            OptimizerChoice::Bqo,
        )
        .unwrap();
    assert_eq!(nearby.cache_status(), CacheStatus::Hit);
    assert!(Arc::ptr_eq(&selective.shared_plan(), &nearby.shared_plan()));
    assert_eq!(
        (
            cache.cache_stats().hits,
            cache.cache_stats().misses,
            cache.cache_stats().reoptimizations
        ),
        (1, 1, 0)
    );

    // Unselective bind (20/20 = selectivity 1.0): leaves the envelope, the
    // λ-threshold regime flips, and re-optimization drops/moves placements.
    let unselective = engine
        .bind(
            &template,
            &Params::new().set(&*param, star::CATEGORIES as i64),
            OptimizerChoice::Bqo,
        )
        .unwrap();
    assert_eq!(unselective.cache_status(), CacheStatus::Reoptimized);
    assert_ne!(
        unselective.plan().placements,
        selective.plan().placements,
        "envelope exit must change the bitvector placement"
    );
    assert_eq!(
        (
            cache.cache_stats().hits,
            cache.cache_stats().misses,
            cache.cache_stats().reoptimizations
        ),
        (1, 1, 1)
    );

    // All three binds still compute correct (plan-invariant) answers, and
    // the re-optimized entry now serves the unselective regime.
    for (stmt, bound) in [(&selective, 1i64), (&nearby, 2), (&unselective, 20)] {
        let fresh_engine = star_engine(11);
        let fresh = fresh_engine
            .bind(
                &template,
                &Params::new().set(&*param, bound),
                OptimizerChoice::Bqo,
            )
            .unwrap();
        assert_eq!(
            session
                .execute(stmt, RunOptions::new())
                .unwrap()
                .result
                .output_rows,
            fresh_engine
                .session()
                .execute(&fresh, RunOptions::new())
                .unwrap()
                .result
                .output_rows,
            "bound={bound}"
        );
    }
    let again = engine
        .bind(
            &template,
            &Params::new().set(&*param, (star::CATEGORIES - 1) as i64),
            OptimizerChoice::Bqo,
        )
        .unwrap();
    assert_eq!(again.cache_status(), CacheStatus::Hit);
}
