//! The four named workloads: what data each generates from the seed and
//! which operations it runs over it.
//!
//! The *seed* drives the inputs: the contents of every fact table, the order
//! of the op list, the `Params` sweep (which parameter is swept innermost, and
//! in which direction) and the tenant of each request.
//!
//! Two things are frozen under [`DEFINITION_SEED`], as parts of the
//! benchmark's definition (the way TPC-DS fixes its templates):
//!
//! * the *query templates* — which tables a query joins and which category
//!   bounds it filters on — drawn from the `bqo_workloads` generators;
//! * the *dimension tables* (every table with a declared primary key). The
//!   generators give some dimensions a handful of rows (`company_type` has 4),
//!   so which of them a `category < k` predicate keeps is a coin flip per
//!   seed, and with it a query's work: measured over ten seeds, logical work
//!   per op varied by 4 % (`dss-*`) to 22 % (`serve-param`) between seeds.
//!
//! Fact tables (no primary key; ≥ 95 % of the bytes) are regenerated from the
//! seed: their foreign keys are uniform over dimension row counts, which do
//! not depend on the seed, so any seed's fact table joins the frozen
//! dimensions, and with tens of thousands of rows two seeds do statistically
//! equal work per template. A timing therefore compares across seeds, which
//! a per-seed query mix or per-seed dimensions do not allow (one op's cost
//! varies ~10x across random predicates).

use bqo_core::plan::QuerySpec;
use bqo_core::storage::Table;
use bqo_core::workloads::{customer_like, job_like, snowflake, star, tpcds_like, Scale};
use bqo_core::{Catalog, ColumnPredicate, CompareOp, Params};
use std::time::Instant;

/// Seed of the query templates and the dimension tables; changing it
/// redefines the benchmark.
pub const DEFINITION_SEED: u64 = 0x00b9_05ee_d7e3_91a7;

/// Templates only read table and column names, so the catalog they are
/// generated against is as small as the generators allow.
const TEMPLATE_SCALE: Scale = Scale(0.001);

/// Dimensions of the star schema (`dss-*` and `serve-param`).
const STAR_DIMS: usize = 4;
/// The star dimension the fact table is clustered on.
const CLUSTER_DIM: usize = STAR_DIMS - 1;
/// Branch lengths of the `dss-*` snowflake (the paper's Figure 5 shape).
const DSS_SNOWFLAKE: [usize; 3] = [1, 2, 3];
/// Branch lengths of the three `plan-cold` snowflakes: 12, 15 and 17
/// relations. Each shape's queries cost about the same, so per-query
/// latencies form one cluster per shape; with three shapes the median op falls
/// inside the middle cluster. With two it fell in the gap between them, where
/// one rank of jitter moved `latency_p50_ms` by 15 %.
const COLD_SNOWFLAKES: [&[usize]; 3] = [&[3, 3, 3, 2], &[3, 3, 3, 3, 2], &[4, 4, 3, 3, 2]];
/// Dimensions carrying a `$bound{i}` placeholder in the `serve-param`
/// template: the two largest, whose selectivity estimates move smoothly with
/// the bound (an 8-row dimension's jump between 0, 1/8, 2/8, … and leave the
/// cached plan's envelope on almost every step).
const SERVE_PARAM_DIMS: [usize; 2] = [2, 3];

/// Tenants of `serve-param` requests, with their priorities.
pub const TENANTS: [(&str, i32); 2] = [("interactive", 10), ("batch", 0)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DssMem,
    DssFile,
    PlanCold,
    ServeParam,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::DssMem,
        Kind::DssFile,
        Kind::PlanCold,
        Kind::ServeParam,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::DssMem => "dss-mem",
            Kind::DssFile => "dss-file",
            Kind::PlanCold => "plan-cold",
            Kind::ServeParam => "serve-param",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The frozen sizes of a run. `FULL` is what `BENCHMARK.json` measures;
/// `SMOKE` exercises the same code in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Scale of the four `dss-*` catalogs.
    pub dss_scale: f64,
    /// Distinct queries per `dss-*` family (4 families).
    pub dss_queries: usize,
    /// Scale of the five `plan-cold` catalogs.
    pub cold_scale: f64,
    /// Distinct queries per `plan-cold` family (5 families).
    pub cold_queries: usize,
    /// Scale of the `serve-param` star catalog.
    pub serve_scale: f64,
    /// Every `serve_stride`-th category bound is bound per parameter.
    pub serve_stride: usize,
    /// Rows per chunk of the `.bqo` files.
    pub chunk_rows: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        dss_scale: 0.25,
        dss_queries: 12,
        cold_scale: 0.01,
        cold_queries: 10,
        serve_scale: 0.05,
        serve_stride: 1,
        chunk_rows: 8192,
    };

    pub const SMOKE: Sizes = Sizes {
        dss_scale: 0.02,
        dss_queries: 3,
        cold_scale: 0.01,
        cold_queries: 2,
        serve_scale: 0.02,
        serve_stride: 5,
        chunk_rows: 512,
    };
}

/// splitmix64: the benchmark's own generator for everything it draws itself
/// (op order, tenants), so `--seed` is the only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One distinct query: SQL text against one of the workload's databases,
/// plus the parameters a template is bound with.
#[derive(Debug, Clone)]
pub struct Query {
    pub database: usize,
    pub sql: String,
    pub params: Option<Params>,
}

/// One entry of the op list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into [`Inputs::queries`].
    pub query: usize,
    /// Index into [`TENANTS`] (`serve-param` only).
    pub tenant: usize,
}

/// Everything a workload's run is made from.
#[derive(Debug)]
pub struct Inputs {
    pub kind: Kind,
    /// In-memory catalogs, one per schema family (several families reuse the
    /// table name `fact`, so each is its own database).
    pub databases: Vec<Catalog>,
    pub queries: Vec<Query>,
    /// The fixed op list every pass runs, in seeded order.
    pub ops: Vec<Op>,
    /// Client threads driving the op list (closed loop).
    pub clients: usize,
    /// Rows generated across all tables, and how long that took.
    pub rows_generated: usize,
    pub generate_s: f64,
}

impl Inputs {
    pub fn catalog_bytes(&self) -> usize {
        self.databases.iter().map(Catalog::total_byte_size).sum()
    }
}

/// Client threads (and server concurrency, and per-query workers) of
/// `serve-param`: the hardware width, capped so results stay comparable
/// between small hosts.
pub fn serve_clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(4)
}

fn total_rows(databases: &[Catalog]) -> usize {
    databases
        .iter()
        .map(|c| {
            c.table_names()
                .iter()
                .map(|t| c.table_meta(t).map_or(0, |m| m.num_rows()))
                .sum::<usize>()
        })
        .sum()
}

/// Re-registers `table` of `catalog` sorted by `column`, so `.bqo` chunks of
/// the table cover narrow key ranges and zone maps can prune them.
fn cluster_table(catalog: &mut Catalog, table: &str, column: &str) {
    let original = catalog.table(table).expect("generated table");
    let keys = original
        .column(column)
        .expect("generated column")
        .as_i64()
        .expect("integer join key");
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&row| (keys[row], row));
    let columns = original.columns().iter().map(|c| c.take(&order)).collect();
    let clustered =
        Table::new(table, original.schema().clone(), columns).expect("same schema, same lengths");
    catalog.register_table(clustered);
}

/// Builds a catalog with `build(seed)`: dimension tables as of
/// [`DEFINITION_SEED`], fact tables (the ones without a primary key) as of
/// `seed`.
fn seeded_facts(seed: u64, build: impl Fn(u64) -> Catalog) -> Catalog {
    let mut catalog = build(DEFINITION_SEED);
    let seeded = build(seed);
    for name in seeded.table_names() {
        if seeded.primary_key(name).is_none() {
            let fact = seeded.table(name).expect("generated in memory");
            catalog.register_table(fact.as_ref().clone());
        }
    }
    catalog
}

/// The star catalog of `dss-*` and `serve-param`: fact clustered on its
/// largest dimension's key.
fn star_catalog(scale: f64, seed: u64) -> Catalog {
    let mut catalog = seeded_facts(seed, |s| star::build_catalog(Scale(scale), STAR_DIMS, s));
    cluster_table(&mut catalog, "fact", &format!("dim{CLUSTER_DIM}_sk"));
    catalog
}

/// Star templates; every second one additionally restricts the clustered
/// dimension to a key prefix (a date-range predicate on a fact table
/// clustered by date), the shape zone maps prune on.
fn star_templates(count: usize, catalog: &Catalog) -> Vec<QuerySpec> {
    let dim = format!("dim{CLUSTER_DIM}");
    let dim_rows = catalog
        .table_meta(&dim)
        .expect("generated dimension")
        .num_rows() as i64;
    star::generate(TEMPLATE_SCALE, STAR_DIMS, count, DEFINITION_SEED)
        .queries
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            if i % 2 == 1 {
                // Prefixes of 1/8 .. 1/2 of the key range, cycling.
                let eighths = 1 + (i / 2 % 4) as i64;
                spec.predicate(
                    dim.clone(),
                    ColumnPredicate::new(
                        format!("{dim}_sk"),
                        CompareOp::Lt,
                        (dim_rows * eighths / 8).max(1),
                    ),
                )
            } else {
                spec
            }
        })
        .collect()
}

fn literal_queries(database: usize, specs: Vec<QuerySpec>) -> impl Iterator<Item = Query> {
    specs.into_iter().map(move |spec| Query {
        database,
        sql: spec.to_sql(),
        params: None,
    })
}

fn dss(sizes: Sizes, seed: u64) -> (Vec<Catalog>, Vec<Query>) {
    let scale = Scale(sizes.dss_scale);
    let n = sizes.dss_queries;
    let databases = vec![
        star_catalog(sizes.dss_scale, seed),
        seeded_facts(seed, |s| snowflake::build_catalog(scale, &DSS_SNOWFLAKE, s)),
        seeded_facts(seed, |s| tpcds_like::build_catalog(scale, s)),
        seeded_facts(seed, |s| job_like::build_catalog(scale, s)),
    ];
    let mut queries = Vec::new();
    queries.extend(literal_queries(0, star_templates(n, &databases[0])));
    queries.extend(literal_queries(
        1,
        snowflake::generate(TEMPLATE_SCALE, &DSS_SNOWFLAKE, n, DEFINITION_SEED).queries,
    ));
    queries.extend(literal_queries(
        2,
        tpcds_like::generate(TEMPLATE_SCALE, n, DEFINITION_SEED).queries,
    ));
    queries.extend(literal_queries(
        3,
        job_like::generate(TEMPLATE_SCALE, n, DEFINITION_SEED).queries,
    ));
    (databases, queries)
}

fn plan_cold(sizes: Sizes, seed: u64) -> (Vec<Catalog>, Vec<Query>) {
    let scale = Scale(sizes.cold_scale);
    let n = sizes.cold_queries;
    let mut databases = Vec::new();
    let mut queries = Vec::new();
    for branches in COLD_SNOWFLAKES {
        queries.extend(literal_queries(
            databases.len(),
            snowflake::generate(TEMPLATE_SCALE, branches, n, DEFINITION_SEED).queries,
        ));
        databases.push(seeded_facts(seed, |s| {
            snowflake::build_catalog(scale, branches, s)
        }));
    }
    queries.extend(literal_queries(
        databases.len(),
        job_like::generate(TEMPLATE_SCALE, n, DEFINITION_SEED).queries,
    ));
    databases.push(seeded_facts(seed, |s| job_like::build_catalog(scale, s)));
    queries.extend(literal_queries(
        databases.len(),
        customer_like::generate(TEMPLATE_SCALE, n, DEFINITION_SEED).queries,
    ));
    databases.push(seeded_facts(seed, |s| {
        customer_like::build_catalog(scale, customer_like::CustomerSchema::default(), s)
    }));
    (databases, queries)
}

/// One parameterized star template bound with every combination of the
/// swept category bounds, in sweep order: the outer bound steps once per
/// full sweep of the inner one, which reverses direction each time, so
/// consecutive binds are neighbours in selectivity. Binds therefore mostly
/// hit the cached plan and re-optimize only where the sweep crosses the edge
/// of its selectivity envelope. The seed picks which parameter is the inner
/// one and the direction each sweep starts in.
fn serve_param(sizes: Sizes, seed: u64) -> (Vec<Catalog>, Vec<Query>) {
    let sql = star::build_param_query("serve", STAR_DIMS, &SERVE_PARAM_DIMS).to_sql();
    let mut rng = Rng::new(seed ^ 0x7377_6565_7021);
    let mut names = SERVE_PARAM_DIMS.map(|dim| format!("bound{dim}"));
    if rng.below(2) == 1 {
        names.swap(0, 1);
    }
    let [outer_name, inner_name] = names;
    let bounds = |rng: &mut Rng| -> Vec<i64> {
        let mut bounds: Vec<i64> = (1..=star::CATEGORIES as i64)
            .step_by(sizes.serve_stride.max(1))
            .collect();
        if rng.below(2) == 1 {
            bounds.reverse();
        }
        bounds
    };
    let (outer, mut inner) = (bounds(&mut rng), bounds(&mut rng));
    let mut queries = Vec::new();
    for &outer_bound in &outer {
        for &inner_bound in &inner {
            queries.push(Query {
                database: 0,
                sql: sql.clone(),
                params: Some(
                    Params::new()
                        .set(outer_name.as_str(), outer_bound)
                        .set(inner_name.as_str(), inner_bound),
                ),
            });
        }
        inner.reverse();
    }
    (vec![star_catalog(sizes.serve_scale, seed)], queries)
}

/// Generates the workload's inputs from `seed`.
pub fn generate(kind: Kind, sizes: Sizes, seed: u64) -> Inputs {
    let started = Instant::now();
    let (databases, queries) = match kind {
        Kind::DssMem | Kind::DssFile => dss(sizes, seed),
        Kind::PlanCold => plan_cold(sizes, seed),
        Kind::ServeParam => serve_param(sizes, seed),
    };
    let generate_s = started.elapsed().as_secs_f64();
    let mut rng = Rng::new(seed ^ 0x6f70_5f6c_6973_7421);
    let mut ops: Vec<Op> = (0..queries.len())
        .map(|query| Op {
            query,
            tenant: if kind == Kind::ServeParam {
                rng.below(TENANTS.len())
            } else {
                0
            },
        })
        .collect();
    // `serve-param` keeps its sweep order; everything else is shuffled.
    if kind != Kind::ServeParam {
        rng.shuffle(&mut ops);
    }
    Inputs {
        kind,
        rows_generated: total_rows(&databases),
        databases,
        queries,
        ops,
        clients: if kind == Kind::ServeParam {
            serve_clients()
        } else {
            1
        },
        generate_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_order_and_data() {
        for kind in Kind::ALL {
            let a = generate(kind, Sizes::SMOKE, 7);
            let b = generate(kind, Sizes::SMOKE, 7);
            let c = generate(kind, Sizes::SMOKE, 8);
            assert_eq!(a.ops, b.ops, "{}", kind.name());
            assert_ne!(
                a.ops,
                c.ops,
                "{}: op order must follow the seed",
                kind.name()
            );
            assert_eq!(a.rows_generated, c.rows_generated);
            for (qa, qb) in a.queries.iter().zip(&b.queries) {
                assert_eq!(qa.sql, qb.sql);
                assert_eq!(qa.params, qb.params);
            }
            // Same templates under every seed; the fact data differs.
            assert_eq!(a.queries.len(), c.queries.len());
            let fact = |inputs: &Inputs| {
                let catalog = &inputs.databases[0];
                catalog.table("fact").unwrap().columns()[1].clone()
            };
            assert_eq!(fact(&a), fact(&b));
            assert_ne!(
                fact(&a),
                fact(&c),
                "{}: data must follow the seed",
                kind.name()
            );
        }
    }

    #[test]
    fn every_query_resolves_against_its_database() {
        for kind in Kind::ALL {
            let inputs = generate(kind, Sizes::SMOKE, 3);
            assert_eq!(inputs.ops.len(), inputs.queries.len());
            for query in &inputs.queries {
                let catalog = &inputs.databases[query.database];
                let spec = bqo_core::sql::lower(&query.sql, catalog)
                    .unwrap_or_else(|e| panic!("{}: {e}", query.sql));
                let spec = match &query.params {
                    Some(params) => spec.bind(params).unwrap(),
                    None => spec,
                };
                let graph = spec.to_join_graph(catalog).unwrap();
                assert!(graph.is_connected(), "{}", query.sql);
            }
        }
    }

    #[test]
    fn plan_cold_queries_are_many_relation_queries() {
        let inputs = generate(Kind::PlanCold, Sizes::SMOKE, 3);
        let relations: Vec<usize> = inputs
            .queries
            .iter()
            .map(|q| {
                bqo_core::sql::lower(&q.sql, &inputs.databases[q.database])
                    .unwrap()
                    .tables
                    .len()
            })
            .collect();
        for snowflake in [12, 15, 17] {
            assert!(relations.contains(&snowflake));
        }
        assert!(relations.iter().any(|&n| n > 17), "customer_like is wider");
    }

    #[test]
    fn star_fact_is_clustered_on_its_largest_dimension() {
        let catalog = star_catalog(0.02, 5);
        let fact = catalog.table("fact").unwrap();
        let keys = fact
            .column(&format!("dim{CLUSTER_DIM}_sk"))
            .unwrap()
            .as_i64()
            .unwrap();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // Clustering permutes rows, it does not change them.
        let plain = seeded_facts(5, |s| star::build_catalog(Scale(0.02), STAR_DIMS, s));
        let mut a: Vec<i64> = fact.column("fact_id").unwrap().as_i64().unwrap().to_vec();
        a.sort_unstable();
        let b = plain.table("fact").unwrap();
        assert_eq!(a, b.column("fact_id").unwrap().as_i64().unwrap());
    }

    #[test]
    fn facts_follow_the_seed_and_dimensions_are_frozen() {
        let build = |seed| seeded_facts(seed, |s| tpcds_like::build_catalog(Scale(0.01), s));
        let (a, b) = (build(1), build(2));
        let frozen = tpcds_like::build_catalog(Scale(0.01), DEFINITION_SEED);
        for name in a.table_names() {
            let (ta, tb) = (a.table(name).unwrap(), b.table(name).unwrap());
            if a.primary_key(name).is_some() {
                assert_eq!(ta.columns(), tb.columns(), "{name} is a dimension");
                assert_eq!(ta.columns(), frozen.table(name).unwrap().columns());
            } else {
                assert_eq!(ta.num_rows(), tb.num_rows());
                assert_ne!(ta.columns(), tb.columns(), "{name} is a fact table");
            }
        }
        assert_eq!(a.foreign_keys().len(), frozen.foreign_keys().len());
    }

    #[test]
    fn serve_param_sweeps_the_whole_category_range() {
        let inputs = generate(Kind::ServeParam, Sizes::FULL.with_serve_scale(0.01), 1);
        assert_eq!(inputs.queries.len(), star::CATEGORIES * star::CATEGORIES);
        let tenants: std::collections::BTreeSet<usize> =
            inputs.ops.iter().map(|op| op.tenant).collect();
        assert_eq!(tenants.len(), TENANTS.len());
    }

    impl Sizes {
        fn with_serve_scale(mut self, scale: f64) -> Self {
            self.serve_scale = scale;
            self
        }
    }
}
