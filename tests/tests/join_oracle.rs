//! Join oracle: the row-id hash join and its flat `JoinTable` against a
//! naive nested-loop reference.
//!
//! Every scenario is a hand-built catalog, join graph and join tree chosen
//! to hit one corner of the join: an empty build or probe side, keys that
//! all miss, heavy duplicates on both sides, negative and `i64::MIN`/`MAX`
//! keys, key spans on either side of the direct-addressing density
//! threshold, composite and `Utf8` keys (matched through digests), a build
//! side that is itself a join output (multi-relation row ids, with a
//! composite key whose columns come from two different relations), four
//! join levels, and a cyclic graph whose composite filter Algorithm 1 leaves
//! residual at a join. The reference evaluates the same tree with nested loops in
//! the order a hash join emits (probe rows in order, each one's build
//! matches in order; build columns first).
//!
//! Each scenario runs — with and without bitvector filters — through
//! {1, 4} threads × {vectorized, scalar} kernels × {memory, `.bqo`} backing
//! × two batch sizes, and every cell must give the reference rows **in
//! order**, the oracle cell's batch boundaries and counters, and root batches
//! that copied nothing: row ids over the sources' own columns (for memory
//! backing, the catalog's very `Arc`s), read through `Batch::concat`. The
//! collected answer gathers each join's key once where the match is exact —
//! one `Int64` key column per side, so FK and PK columns share one `Arc` —
//! and shares nothing for composite, `Utf8` or mixed `Int64`↔`Float64`
//! keys, which match on digests.
//!
//! The last test is the engine-level regression for the composite-key abort
//! (`RangeBitmapFilter::from_keys` span overflow).

use bqo_core::bitvector::{AnyFilter, RangeBitmapFilter};
use bqo_core::{Engine, OptimizerChoice, QuerySpec, RunOptions};
use bqo_exec::{
    Batch, ExecConfig, ExecContext, ExecutionMetrics, JoinTable, KernelMode, OperatorKind,
    PipelineBuilder, WorkerPool,
};
use bqo_format::{write_table, CatalogExt};
use bqo_integration_tests::{env_threads, Rechunked};
use bqo_plan::{
    push_down_bitvectors, ColumnPredicate, ColumnRef, CompareOp, JoinEdge, JoinGraph, JoinNode,
    JoinTree, PhysicalNode, PhysicalPlan, RelId, RelSet, RelationInfo,
};
use bqo_storage::{Catalog, Column, Table, TableBuilder, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One hand-built join: tables, the graph joining them and the tree to run.
struct Scenario {
    name: &'static str,
    tables: Vec<Table>,
    graph: JoinGraph,
    tree: JoinTree,
}

impl Scenario {
    /// Registers `tables` as relations `RelId(0..)` in order; `edges` are
    /// `(left relation, left column, right relation, right column)`.
    fn new(
        name: &'static str,
        tables: Vec<(Table, Vec<ColumnPredicate>)>,
        edges: &[(usize, &str, usize, &str)],
        tree: JoinTree,
    ) -> Scenario {
        let mut graph = JoinGraph::new();
        let mut registered = Vec::new();
        for (table, predicates) in tables {
            let rows = table.num_rows() as f64;
            let info = RelationInfo::new(table.name(), rows, rows).with_predicates(predicates);
            graph.add_relation(info);
            registered.push(table);
        }
        for &(left, left_column, right, right_column) in edges {
            let edge = JoinEdge::new(
                RelId(left),
                RelId(right),
                left_column,
                right_column,
                8.0,
                8.0,
                false,
                false,
            );
            graph.add_edge(edge);
        }
        Scenario {
            name,
            tables: registered,
            graph,
            tree,
        }
    }

    fn memory_catalog(&self) -> Catalog {
        let mut catalog = Catalog::new();
        for table in &self.tables {
            catalog.register_table(table.clone());
        }
        catalog
    }

    /// The same tables fetched in 2-row chunks: scan morsels are chunks, so
    /// 4 threads fan out over morsels that disagree with batch boundaries.
    fn fetched_catalog(&self) -> Catalog {
        let mut catalog = Catalog::new();
        for table in &self.tables {
            catalog.register_source(Arc::new(Rechunked::new(Arc::new(table.clone()), 2)));
        }
        catalog
    }

    /// The same tables served from `.bqo` files of 7-row chunks.
    fn file_catalog(&self, dir: &std::path::Path) -> Catalog {
        let mut catalog = Catalog::new();
        for table in &self.tables {
            let path = dir.join(format!("{}-{}.bqo", self.name, table.name()));
            write_table(&path, table, 7).expect("write table file");
            catalog.register_file(&path).expect("register file");
        }
        catalog
    }
}

fn leaf(relation: usize) -> JoinTree {
    JoinTree::leaf(RelId(relation))
}

/// The relations under `node`.
fn relations(tree: &JoinTree, node: usize) -> RelSet {
    match tree.node(node) {
        JoinNode::Leaf(relation) => RelSet::single(relation),
        JoinNode::Join { build, probe } => relations(tree, build) | relations(tree, probe),
    }
}

/// Schema and rows of the subtree under `node` by nested loops, in hash-join
/// emission order.
fn reference(s: &Scenario, node: usize) -> (Vec<ColumnRef>, Vec<Vec<Value>>) {
    match s.tree.node(node) {
        JoinNode::Leaf(relation) => {
            let table = &s.tables[relation.0];
            let mut keep: Vec<usize> = (0..table.num_rows()).collect();
            for predicate in &s.graph.relation(relation).predicates {
                let column = table.column(&predicate.column).expect("predicate column");
                let selected = predicate.select(column, 0..column.len());
                keep.retain(|row| selected.contains(row));
            }
            let fields = table.schema().fields();
            let schema = fields
                .iter()
                .map(|f| ColumnRef::new(relation, f.name.clone()));
            let rows = (keep.into_iter())
                .map(|row| table.columns().iter().map(|c| c.value(row)).collect());
            (schema.collect(), rows.collect())
        }
        JoinNode::Join { build, probe } => {
            let (build_schema, build_rows) = reference(s, build);
            let (probe_schema, probe_rows) = reference(s, probe);
            let index_in = |schema: &[ColumnRef], relation: RelId, column: &str| {
                let wanted = ColumnRef::new(relation, column);
                schema
                    .iter()
                    .position(|c| *c == wanted)
                    .expect("key column")
            };
            let (build_set, probe_set) = (relations(&s.tree, build), relations(&s.tree, probe));
            let key_pairs: Vec<(usize, usize)> = s
                .graph
                .edges_across(build_set, probe_set)
                .into_iter()
                .map(|edge| {
                    let (b, p) = if build_set.contains(edge.left) {
                        (edge.left, edge.right)
                    } else {
                        (edge.right, edge.left)
                    };
                    (
                        index_in(&build_schema, b, edge.column_of(b)),
                        index_in(&probe_schema, p, edge.column_of(p)),
                    )
                })
                .collect();
            let mut rows = Vec::new();
            for probe_row in &probe_rows {
                for build_row in &build_rows {
                    if key_pairs.iter().all(|&(b, p)| build_row[b] == probe_row[p]) {
                        rows.push(build_row.iter().chain(probe_row).cloned().collect());
                    }
                }
            }
            let schema = build_schema.into_iter().chain(probe_schema).collect();
            (schema, rows)
        }
    }
}

/// For every column of `s.tree`'s output, the lowest column it must share its
/// `Arc` with in a collected answer (itself when none): a join on one
/// `Int64` column per side records its key columns as equal, so the gather
/// copies them once; every other key shape (composite, `Utf8`, mixed types)
/// matches on a digest and shares nothing.
fn shared_columns(s: &Scenario, schema: &[ColumnRef]) -> Vec<usize> {
    let mut class: Vec<usize> = (0..schema.len()).collect();
    let mut joins = vec![s.tree.root()];
    while let Some(node) = joins.pop() {
        let JoinNode::Join { build, probe } = s.tree.node(node) else {
            continue;
        };
        joins.extend([build, probe]);
        let (build_set, probe_set) = (relations(&s.tree, build), relations(&s.tree, probe));
        let [edge] = &s.graph.edges_across(build_set, probe_set)[..] else {
            continue;
        };
        let column = |relation: RelId| {
            let name = edge.column_of(relation);
            let table = &s.tables[relation.0];
            let is_int = table.column(name).expect("key column").as_i64().is_some();
            let at = schema
                .iter()
                .position(|c| *c == ColumnRef::new(relation, name.clone()));
            (is_int, at.expect("key column in the output"))
        };
        let ((left_int, a), (right_int, b)) = (column(edge.left), column(edge.right));
        if left_int && right_int {
            let (keep, merge) = (class[a].min(class[b]), class[a].max(class[b]));
            class
                .iter_mut()
                .filter(|c| **c == merge)
                .for_each(|c| *c = keep);
        }
    }
    class
}

/// How many of `s`'s output columns share their `Arc` with an earlier one.
fn shared_count(s: &Scenario) -> usize {
    let (schema, _) = reference(s, s.tree.root());
    let shared = shared_columns(s, &schema);
    shared.iter().enumerate().filter(|&(i, &c)| c < i).count()
}

/// `answer`'s columns share an `Arc` exactly where `shared` says.
fn assert_shares(answer: &Batch, shared: &[usize], cell: &str) {
    let columns = answer.columns();
    for i in 0..columns.len() {
        for j in i + 1..columns.len() {
            assert_eq!(
                Arc::ptr_eq(&columns[i], &columns[j]),
                shared[i] == shared[j],
                "{cell}: columns {i} and {j} of the collected answer"
            );
        }
    }
}

/// What one execution exposes: the root's batches as emitted, and counters.
struct Run {
    batches: Vec<Batch>,
    metrics: ExecutionMetrics,
}

fn run(catalog: &Catalog, s: &Scenario, plan: &PhysicalPlan, config: ExecConfig) -> Run {
    let pool = (config.num_threads > 1).then(|| WorkerPool::new(config.num_threads - 1));
    let mut ctx = ExecContext::with_pool(config, pool);
    let mut root = PipelineBuilder::new(catalog, &s.graph, plan, config)
        .build()
        .expect("lowering");
    root.open(&mut ctx).expect("open");
    let mut batches = Vec::new();
    while let Some(batch) = root.next_batch(&mut ctx).expect("next_batch") {
        batches.push(batch);
    }
    root.close(&mut ctx);
    Run {
        batches,
        metrics: ctx.into_metrics(),
    }
}

/// The logical rows of a root batch, read the way callers read them:
/// gathered by `Batch::concat`.
fn rows_of(batch: &Batch) -> Vec<Vec<Value>> {
    let dense = Batch::concat(vec![batch.clone()]);
    assert!(dense.is_dense());
    assert!(dense.columns().iter().all(|c| c.len() == batch.num_rows()));
    let cells = |row: usize| dense.columns().iter().map(move |c| c.value(row));
    (0..dense.num_rows())
        .map(|row| cells(row).collect())
        .collect()
}

/// Runs the whole matrix over `s`; returns the number of reference rows so
/// each test can pin that its scenario is not vacuous.
fn assert_matches_reference(s: &Scenario) -> usize {
    let dir = std::env::temp_dir().join(format!("bqo-join-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let memory = s.memory_catalog();
    let file = s.file_catalog(&dir);
    let fetched = s.fetched_catalog();
    let (schema, expected) = reference(s, s.tree.root());
    // The catalog's own handle of each output column.
    let resident: Vec<Arc<Column>> = schema
        .iter()
        .map(|c| {
            let table = memory.table(s.tables[c.relation.0].name()).expect("table");
            let index = table.schema().index_of(&c.column).expect("column");
            Arc::clone(&table.columns()[index])
        })
        .collect();
    let shared = shared_columns(s, &schema);
    let bare = PhysicalPlan::from_join_tree(&s.graph, &s.tree);
    let filtered = push_down_bitvectors(&s.graph, bare.clone());
    let mut threads = vec![1, 4];
    if !threads.contains(&env_threads()) {
        threads.push(env_threads());
    }

    for (plan, bitvectors) in [(&filtered, true), (&bare, false)] {
        for batch_size in [3, 4096] {
            // A scan runs one worker per morsel: at batch 3 an in-memory
            // scan of more than 3 rows fans out at 4 threads, and at 4 096 a
            // table of at most 4 096 rows is one morsel and runs inline.
            let base = ExecConfig::default().with_batch_size(batch_size);
            let oracle_config = base
                .with_num_threads(1)
                .with_kernel_mode(KernelMode::Scalar);
            let oracle = run(&memory, s, plan, oracle_config);
            let backings = [("memory", &memory), ("file", &file), ("fetched", &fetched)];
            for (backing, catalog) in backings {
                for &num_threads in &threads {
                    for kernel_mode in [KernelMode::Vectorized, KernelMode::Scalar] {
                        let config = base
                            .with_num_threads(num_threads)
                            .with_kernel_mode(kernel_mode);
                        let got = run(catalog, s, plan, config);
                        let cell = format!(
                            "{} [{backing}, {num_threads} thread(s), {kernel_mode:?}, \
                             batch {batch_size}, bitvectors {bitvectors}]",
                            s.name
                        );

                        // The root join copied nothing: its batches are row
                        // ids, one vector per relation, over the sources'
                        // columns — the catalog's own when they are resident.
                        for batch in &got.batches {
                            assert!(!batch.is_dense(), "{cell}: the root densified");
                            assert_eq!(batch.num_sources(), s.tables.len(), "{cell}");
                            assert_eq!(batch.schema(), &schema[..], "{cell}: schema");
                            let shared = batch.columns().iter().zip(&resident);
                            assert!(
                                backing != "memory"
                                    || shared.into_iter().all(|(c, r)| Arc::ptr_eq(c, r)),
                                "{cell}: a resident column was copied"
                            );
                        }
                        // Rows, in order, through the root batches as emitted.
                        let rows: Vec<_> = got.batches.iter().flat_map(rows_of).collect();
                        assert_eq!(rows, expected, "{cell}: rows");
                        // The collected answer: rows in order, and each
                        // exact key's two columns gathered once, shared.
                        let answer = Batch::concat(got.batches.clone());
                        assert_eq!(rows_of(&answer), expected, "{cell}: concatenated rows");
                        assert_shares(&answer, &shared, &cell);

                        // Batch boundaries and every counter, against the
                        // serial scalar in-memory cell.
                        let sizes = |run: &Run| -> Vec<usize> {
                            run.batches.iter().map(Batch::num_rows).collect()
                        };
                        assert_eq!(sizes(&got), sizes(&oracle), "{cell}: batch boundaries");
                        let (m, o) = (&got.metrics, &oracle.metrics);
                        assert_eq!(m.operators, o.operators, "{cell}: operator counters");
                        assert_eq!(m.filter_stats, o.filter_stats, "{cell}: FilterStats");
                        assert_eq!(m.filters_created, o.filters_created, "{cell}: filters");
                        assert_eq!(m.logical_work(), o.logical_work(), "{cell}: logical work");
                    }
                }
            }
        }
    }
    // Files are named per scenario; the directory is shared by the suite's
    // concurrently running tests, so only this scenario's files go.
    for table in &s.tables {
        let _ = std::fs::remove_file(dir.join(format!("{}-{}.bqo", s.name, table.name())));
    }
    expected.len()
}

fn int_table(name: &str, columns: &[(&str, Vec<i64>)]) -> Table {
    let mut builder = TableBuilder::new(name);
    for (column, values) in columns {
        builder = builder.with_i64(*column, values.clone());
    }
    builder.build().expect("well-formed table")
}

/// `probe(k, tag) ⋈ build(k, label)` on `k`, `build` hashed.
fn two_way(
    name: &'static str,
    build_keys: Vec<i64>,
    build_predicates: Vec<ColumnPredicate>,
    probe_keys: Vec<i64>,
    probe_predicates: Vec<ColumnPredicate>,
) -> Scenario {
    let labels = (0..build_keys.len())
        .map(|i| format!("label-{i}"))
        .collect();
    let build = TableBuilder::new("build")
        .with_i64("k", build_keys)
        .with_utf8("label", labels)
        .build()
        .expect("build table");
    let tags = (0..probe_keys.len() as i64).collect();
    let probe = int_table("probe", &[("k", probe_keys), ("tag", tags)]);
    Scenario::new(
        name,
        vec![(build, build_predicates), (probe, probe_predicates)],
        &[(1, "k", 0, "k")],
        JoinTree::join(leaf(0), leaf(1)),
    )
}

fn none() -> Vec<ColumnPredicate> {
    Vec::new()
}

#[test]
fn empty_build_side() {
    let nothing = vec![ColumnPredicate::new("k", CompareOp::Lt, -100i64)];
    let rows = assert_matches_reference(&two_way(
        "empty-build",
        vec![1, 2, 3],
        nothing,
        (0..20).collect(),
        none(),
    ));
    assert!(rows == 0, "{rows} reference rows");
}

#[test]
fn empty_probe_side() {
    let nothing = vec![ColumnPredicate::new("k", CompareOp::Gt, 1000i64)];
    let rows = assert_matches_reference(&two_way(
        "empty-probe",
        (0..20).collect(),
        none(),
        vec![1, 2, 3],
        nothing,
    ));
    assert!(rows == 0, "{rows} reference rows");
}

#[test]
fn every_probe_key_misses() {
    let rows = assert_matches_reference(&two_way(
        "all-miss",
        (0..30).map(|i| i * 2).collect(),
        none(),
        (0..30).map(|i| i * 2 + 1).collect(),
        none(),
    ));
    assert!(rows == 0, "{rows} reference rows");
}

#[test]
fn heavy_duplicates_on_both_sides() {
    let rows = assert_matches_reference(&two_way(
        "duplicates",
        (0..30).map(|i| i % 3).collect(),
        vec![ColumnPredicate::new("label", CompareOp::Gt, "label-14")],
        (0..40).map(|i| (i * 7) % 4).collect(),
        none(),
    ));
    assert!(rows > 0, "{rows} reference rows");
}

#[test]
fn negative_and_extreme_keys() {
    let build = vec![i64::MAX, -7, i64::MIN, 0, -7, i64::MAX, i64::MIN + 1, 42];
    let probe = vec![
        0,
        i64::MIN,
        5,
        -7,
        i64::MAX,
        i64::MAX - 1,
        i64::MIN,
        -8,
        42,
        -7,
    ];
    assert!(assert_matches_reference(&two_way("extreme-keys", build, none(), probe, none())) > 0);
    let negatives: Vec<i64> = (-30..-10).collect();
    let probe = (-40..0).map(|i| i / 2 * 2).collect();
    assert!(
        assert_matches_reference(&two_way("negative-keys", negatives, none(), probe, none())) > 0
    );
}

#[test]
fn key_spans_on_both_sides_of_the_density_threshold() {
    // 4 build rows: a span of 256 is the last direct-addressed one.
    for (name, top) in [("dense-span", 255), ("sparse-span", 256)] {
        let build = vec![0, 17, 17, top];
        let table = JoinTable::build(&build).expect("table");
        assert_eq!(table.is_direct(), top == 255, "{name}");
        let probe = (-5..270).step_by(3).chain([17, top, 0]).collect();
        assert!(assert_matches_reference(&two_way(name, build, none(), probe, none())) > 0);
    }
}

/// At most one key index per join: when a hashed table's keys span more
/// than the bitmap filter's 2^20 bits, its filter views, and the filter the
/// join publishes, hold the table's own `KeyIndex` allocation — the second
/// index cannot grow back unnoticed.
#[test]
fn hashed_table_and_its_published_filter_share_one_index() {
    let sparse = |filter: &RangeBitmapFilter| match filter {
        RangeBitmapFilter::Sparse(index) => Arc::clone(index),
        RangeBitmapFilter::Bitmap { .. } => panic!("sparse keys took the dense bitmap"),
    };
    let build = vec![0, 1 << 40, -(1 << 50), 1 << 40];
    let table = JoinTable::build(&build).expect("table");
    assert!(!table.is_direct());
    let (first, second) = (sparse(&table.filter(&build)), sparse(&table.filter(&build)));
    assert!(Arc::ptr_eq(&first, &second));
    // The table and the two handles above: the views were not copies.
    assert_eq!(Arc::strong_count(&first), 3);

    // Through the operator: once `open` returns, the join's table, the
    // filter it published and the handle taken here hold the one index.
    let s = two_way("shared-index", build, none(), vec![1 << 40, 5], none());
    let plan = PhysicalPlan::from_join_tree(&s.graph, &s.tree);
    let plan = push_down_bitvectors(&s.graph, plan);
    let catalog = s.memory_catalog();
    let config = ExecConfig::default();
    let mut ctx = ExecContext::new(config);
    let mut root = PipelineBuilder::new(&catalog, &s.graph, &plan, config)
        .build()
        .expect("lowering");
    root.open(&mut ctx).expect("open");
    assert_eq!(ctx.metrics.filters_created, 1);
    let Some(AnyFilter::Bitmap(published)) = ctx.filter(0) else {
        panic!("the join published no range-bitmap filter");
    };
    assert_eq!(Arc::strong_count(&sparse(published)), 3);
    root.close(&mut ctx);
}

#[test]
fn composite_key() {
    let dims = int_table(
        "dims",
        &[
            ("a", (0..24).map(|i| i % 6).collect()),
            ("b", (0..24).map(|i| i / 6).collect()),
        ],
    );
    let facts = int_table(
        "facts",
        &[
            ("a", (0..50).map(|i| (i * 5) % 7).collect()),
            ("b", (0..50).map(|i| (i * 3) % 5).collect()),
            ("amount", (0..50).collect()),
        ],
    );
    let s = Scenario::new(
        "composite",
        vec![(dims, none()), (facts, none())],
        &[(1, "a", 0, "a"), (1, "b", 0, "b")],
        JoinTree::join(leaf(0), leaf(1)),
    );
    assert_eq!(shared_count(&s), 0, "a composite key matches on a digest");
    let rows = assert_matches_reference(&s);
    assert!(rows > 0, "{rows} reference rows");
}

#[test]
fn utf8_key() {
    let name_of = |i: i64| format!("city-{}", i % 9);
    let cities = TableBuilder::new("cities")
        .with_utf8("name", (0..12).map(name_of).collect())
        .with_i64("population", (0..12).map(|i| i * 1000).collect())
        .build()
        .expect("cities");
    let visits = TableBuilder::new("visits")
        .with_utf8("city", (0..35).map(|i| name_of(i * 4 + 1)).collect())
        .with_i64("day", (0..35).collect())
        .build()
        .expect("visits");
    let s = Scenario::new(
        "utf8",
        vec![(cities, none()), (visits, none())],
        &[(1, "city", 0, "name")],
        JoinTree::join(leaf(0), leaf(1)),
    );
    assert_eq!(shared_count(&s), 0, "a Utf8 key matches on a digest");
    let rows = assert_matches_reference(&s);
    assert!(rows > 0, "{rows} reference rows");
}

/// An `Int64` build key against a `Float64` probe key matches on a digest
/// (the float's bit pattern), never on the value: the join records no
/// equality, so the collected answer shares no column. No float here has
/// the bit pattern of a build key, so nothing matches.
#[test]
fn int_key_against_float_key() {
    let build = int_table(
        "ints",
        &[("k", (0..20).collect()), ("w", (0..20).collect())],
    );
    let probe = TableBuilder::new("floats")
        .with_f64("k", (0..30).map(|i| f64::from(i) + 0.5).collect())
        .with_i64("tag", (0..30).collect())
        .build()
        .expect("floats");
    let s = Scenario::new(
        "int-float",
        vec![(build, none()), (probe, none())],
        &[(1, "k", 0, "k")],
        JoinTree::join(leaf(0), leaf(1)),
    );
    assert_eq!(shared_count(&s), 0, "mixed key types match on a digest");
    assert_eq!(assert_matches_reference(&s), 0);
}

#[test]
fn build_side_is_a_join_output() {
    // (regions ⋈ stores) is hashed as one multi-relation row-id batch and
    // probed by sales on a composite key with one column from each of them.
    let regions = TableBuilder::new("regions")
        .with_i64("region", (0..5).collect())
        .with_utf8("region_name", (0..5).map(|i| format!("r{i}")).collect())
        .build()
        .expect("regions");
    let stores = int_table(
        "stores",
        &[
            ("store", (0..18).collect()),
            ("region", (0..18).map(|i| i % 6).collect()),
        ],
    );
    let sales = int_table(
        "sales",
        &[
            ("store", (0..60).map(|i| (i * 7) % 20).collect()),
            ("region", (0..60).map(|i| (i * 7) % 20 % 6).collect()),
            ("qty", (0..60).map(|i| i % 4).collect()),
        ],
    );
    let rows = assert_matches_reference(&Scenario::new(
        "bushy",
        vec![
            (regions, none()),
            (
                stores,
                vec![ColumnPredicate::new("store", CompareOp::Ge, 3i64)],
            ),
            (
                sales,
                vec![ColumnPredicate::new("qty", CompareOp::Gt, 0i64)],
            ),
        ],
        &[
            (1, "region", 0, "region"),
            (2, "store", 1, "store"),
            (2, "region", 0, "region"),
        ],
        JoinTree::join(JoinTree::join(leaf(0), leaf(1)), leaf(2)),
    ));
    assert!(rows > 0, "{rows} reference rows");
}

#[test]
fn four_join_levels() {
    // Right-deep: every level's probe side is the join output below it, so
    // the root batch carries five relations' row ids.
    let dim = |name: &str, rows: i64, modulus: i64| {
        TableBuilder::new(name)
            .with_i64("sk", (0..rows).collect())
            .with_utf8(
                "label",
                (0..rows)
                    .map(|i| format!("{name}-{}", i % modulus))
                    .collect(),
            )
            .build()
            .expect("dimension")
    };
    let fact = int_table(
        "fact",
        &[
            ("d0_sk", (0..80).map(|i| i % 11).collect()),
            ("d1_sk", (0..80).map(|i| (i * 3) % 8).collect()),
            ("d2_sk", (0..80).map(|i| (i * 5) % 13).collect()),
            ("d3_sk", (0..80).map(|i| i % 4).collect()),
        ],
    );
    let edges = [
        (0, "d0_sk", 1, "sk"),
        (0, "d1_sk", 2, "sk"),
        (0, "d2_sk", 3, "sk"),
        (0, "d3_sk", 4, "sk"),
    ];
    let tree = (1..=4).fold(leaf(0), |probe, d| JoinTree::join(leaf(d), probe));
    let s = Scenario::new(
        "four-levels",
        vec![
            (fact, none()),
            (
                dim("d0", 9, 3),
                vec![ColumnPredicate::new("sk", CompareOp::Lt, 7i64)],
            ),
            (dim("d1", 8, 8), none()),
            (
                dim("d2", 10, 2),
                vec![ColumnPredicate::new("label", CompareOp::Eq, "d2-1")],
            ),
            (dim("d3", 4, 4), none()),
        ],
        &edges,
        tree,
    );
    // A single-`Int64`-key star: each FK column shares its PK's `Arc`.
    assert_eq!(shared_count(&s), 4);
    let rows = assert_matches_reference(&s);
    assert!(rows > 0, "{rows} reference rows");
}

/// Figure 1's cycle: `d` joins `a` on `x` and `b` on `y`, and `b` joins `a`
/// on `a`. Under `d ⋈ (a ⋈ b)` the root's filter probes `(a.x, b.y)`, which
/// no one scan holds, so Algorithm 1 leaves it residual at `a ⋈ b`: that
/// join narrows its own output batches with it, and the run records one
/// `Other` operator for it.
#[test]
fn a_cyclic_graph_leaves_one_residual_filter_at_a_join() {
    let a = int_table(
        "a",
        &[
            ("a", (0..12).collect()),
            ("x", (0..12).map(|i| i % 4).collect()),
        ],
    );
    let b = int_table(
        "b",
        &[
            ("a", (0..40).map(|i| (i * 7) % 15).collect()),
            ("y", (0..40).map(|i| i % 5).collect()),
        ],
    );
    // Nine distinct (x, y) pairs out of the twenty that `a ⋈ b` can carry.
    let d = int_table(
        "d",
        &[
            ("x", (0..9).map(|i| i % 4).collect()),
            ("y", (0..9).map(|i| (i * 2) % 5).collect()),
        ],
    );
    let s = Scenario::new(
        "residual",
        vec![(a, none()), (b, none()), (d, none())],
        &[(1, "a", 0, "a"), (2, "x", 0, "x"), (2, "y", 1, "y")],
        JoinTree::join(leaf(2), JoinTree::join(leaf(0), leaf(1))),
    );
    let plan = PhysicalPlan::from_join_tree(&s.graph, &s.tree);
    let plan = push_down_bitvectors(&s.graph, plan);
    let at_joins = plan
        .placements
        .iter()
        .filter(|p| matches!(plan.node(p.target), PhysicalNode::HashJoin { .. }));
    assert_eq!(at_joins.count(), 1, "{:?}", plan.placements);

    let oracle_config = ExecConfig::default()
        .with_num_threads(1)
        .with_kernel_mode(KernelMode::Scalar);
    let oracle = run(&s.memory_catalog(), &s, &plan, oracle_config);
    let others = oracle.metrics.operators.iter();
    let others: Vec<_> = others.filter(|o| o.kind == OperatorKind::Other).collect();
    assert_eq!(others.len(), 1, "{:?}", oracle.metrics.operators);
    let rows = assert_matches_reference(&s);
    assert_eq!(
        others[0].output_rows, rows as u64,
        "the residual keeps exactly the answer"
    );
    assert!(rows > 0, "{rows} reference rows");
}

/// `f.a = d.a AND f.b = d.b` through the engine with the default (bitmap)
/// filter kind used to abort the process: the composite-key digests span
/// more than `i64::MAX`, `max - min` wrapped negative and passed the bitmap
/// density check. It must return what the filter-free baseline returns.
#[test]
fn composite_key_join_through_the_engine_matches_the_baseline() {
    let dims = int_table(
        "d",
        &[
            ("a", (0..1_000).map(|i| i % 50).collect()),
            ("b", (0..1_000).map(|i| i / 50).collect()),
            ("weight", (0..1_000).map(|i| i % 7).collect()),
        ],
    );
    let facts = int_table(
        "f",
        &[
            ("a", (0..20_000).map(|i| (i * 31) % 60).collect()),
            ("b", (0..20_000).map(|i| (i * 17) % 25).collect()),
            ("amount", (0..20_000).collect()),
        ],
    );
    let mut catalog = Catalog::new();
    catalog.register_table(dims);
    catalog.register_table(facts);
    let engine = Engine::builder()
        .catalog(catalog)
        .worker_threads(4)
        .build()
        .expect("engine");
    let query = QuerySpec::new("composite")
        .table("f")
        .table("d")
        .join("f", "a", "d", "a")
        .join("f", "b", "d", "b")
        .predicate("d", ColumnPredicate::new("weight", CompareOp::Lt, 3i64));

    // Join orders may differ between the optimizers: compare row multisets
    // with the columns put in one canonical order.
    let canonical_rows = |choice: OptimizerChoice, num_threads: usize| {
        let stmt = engine.prepare(&query, choice).expect("prepare");
        let config = ExecConfig::default().with_num_threads(num_threads);
        let options = RunOptions::new().with_exec_config(config).collecting_rows();
        let out = engine.session().execute(&stmt, options).expect("execute");
        let batch = out.rows.expect("rows were collected");
        let mut order: Vec<usize> = (0..batch.num_columns()).collect();
        order.sort_by_key(|&i| format!("{:?}", batch.schema()[i]));
        let mut rows: Vec<String> = rows_of(&batch)
            .iter()
            .map(|row| format!("{:?}", order.iter().map(|&i| &row[i]).collect::<Vec<_>>()))
            .collect();
        rows.sort();
        (out.result.output_rows, rows)
    };
    let (expected_count, expected) = canonical_rows(OptimizerChoice::BaselineNoBitvectors, 1);
    assert!(expected_count > 0, "the join must match something");
    let threads: BTreeSet<usize> = [1, 4, env_threads()].into_iter().collect();
    for num_threads in threads {
        let (count, rows) = canonical_rows(OptimizerChoice::Bqo, num_threads);
        assert_eq!(count, expected_count, "{num_threads} thread(s)");
        assert_eq!(rows, expected, "{num_threads} thread(s)");
    }
}
