//! TPC-DS-like workload.
//!
//! A retail-warehouse snowflake: three sales fact tables (store, web,
//! catalog) sharing first-level dimensions (date, item, customer, store /
//! web_site / call_center, promotion), with second-level dimensions hanging
//! off customer (customer_address, customer_demographics) and item
//! (manufacturer) — the schema shape TPC-DS queries exercise. Queries are
//! generated from star / snowflake / multi-channel templates with predicates
//! of varying selectivity, mirroring how the paper's TPC-DS runs cover a wide
//! selectivity range (the L/M/S breakdown of Figure 8).

use crate::{Scale, Workload};
use bqo_plan::{ColumnPredicate, CompareOp, QuerySpec};
use bqo_storage::DataGenerator;
use bqo_storage::{Catalog, TableBuilder};
use rand::Rng;

/// Distinct category values per dimension attribute.
pub const CATEGORIES: usize = 50;

/// Builds the TPC-DS-like catalog.
pub fn build_catalog(scale: Scale, seed: u64) -> Catalog {
    let gen = DataGenerator::new(seed);
    let mut catalog = Catalog::new();

    // Second-level dimensions first so first-level tables can reference them.
    let address_rows = scale.rows(25_000, 20);
    catalog.register_table(gen.dimension_table("customer_address", address_rows, CATEGORIES));
    catalog
        .declare_primary_key("customer_address", "customer_address_sk")
        .unwrap();

    let demo_rows = scale.rows(9600, 16);
    catalog.register_table(gen.dimension_table("customer_demographics", demo_rows, CATEGORIES));
    catalog
        .declare_primary_key("customer_demographics", "customer_demographics_sk")
        .unwrap();

    let manufacturer_rows = scale.rows(1000, 10);
    catalog.register_table(gen.dimension_table("manufacturer", manufacturer_rows, CATEGORIES));
    catalog
        .declare_primary_key("manufacturer", "manufacturer_sk")
        .unwrap();

    // First-level dimensions.
    let date_rows = scale.rows(36_500, 30);
    catalog.register_table(
        TableBuilder::new("date_dim")
            .with_i64("date_dim_sk", gen.sequential_keys(date_rows))
            .with_i64("year", gen.uniform_ints("date/year", date_rows, 1998, 2003))
            .with_i64("month", gen.uniform_ints("date/month", date_rows, 1, 13))
            .with_i64(
                "date_dim_category",
                gen.categories("date/cat", date_rows, CATEGORIES),
            )
            .build()
            .unwrap(),
    );
    catalog
        .declare_primary_key("date_dim", "date_dim_sk")
        .unwrap();

    let customer_rows = scale.rows(100_000, 50);
    catalog.register_table(
        TableBuilder::new("customer")
            .with_i64("customer_sk", gen.sequential_keys(customer_rows))
            .with_i64(
                "customer_address_sk",
                gen.uniform_fk("customer/address", customer_rows, address_rows),
            )
            .with_i64(
                "customer_demographics_sk",
                gen.uniform_fk("customer/demo", customer_rows, demo_rows),
            )
            .with_i64(
                "customer_category",
                gen.categories("customer/cat", customer_rows, CATEGORIES),
            )
            .build()
            .unwrap(),
    );
    catalog
        .declare_primary_key("customer", "customer_sk")
        .unwrap();

    let item_rows = scale.rows(18_000, 30);
    catalog.register_table(
        TableBuilder::new("item")
            .with_i64("item_sk", gen.sequential_keys(item_rows))
            .with_i64(
                "manufacturer_sk",
                gen.uniform_fk("item/manufacturer", item_rows, manufacturer_rows),
            )
            .with_i64(
                "item_category",
                gen.categories("item/cat", item_rows, CATEGORIES),
            )
            .build()
            .unwrap(),
    );
    catalog.declare_primary_key("item", "item_sk").unwrap();

    for (name, rows) in [
        ("store", 400),
        ("web_site", 30),
        ("call_center", 30),
        ("promotion", 1000),
    ] {
        let rows = scale.rows(rows, 4);
        catalog.register_table(gen.dimension_table(name, rows, CATEGORIES.min(rows)));
        catalog
            .declare_primary_key(name, &format!("{name}_sk"))
            .unwrap();
    }

    // Fact tables: (name, unscaled rows, channel dimension).
    let facts = [
        ("store_sales", 600_000usize, "store"),
        ("web_sales", 150_000, "web_site"),
        ("catalog_sales", 300_000, "call_center"),
    ];
    for (name, rows, channel) in facts {
        let rows = scale.rows(rows, 300);
        let channel_rows = catalog.table(channel).unwrap().num_rows();
        catalog.register_table(
            TableBuilder::new(name)
                .with_i64(format!("{name}_id"), gen.sequential_keys(rows))
                .with_i64(
                    "date_dim_sk",
                    gen.uniform_fk(&format!("{name}/date"), rows, date_rows),
                )
                .with_i64(
                    "customer_sk",
                    gen.zipf_fk(&format!("{name}/customer"), rows, customer_rows, 0.5),
                )
                .with_i64(
                    "item_sk",
                    gen.zipf_fk(&format!("{name}/item"), rows, item_rows, 0.5),
                )
                .with_i64(
                    format!("{channel}_sk"),
                    gen.uniform_fk(&format!("{name}/{channel}"), rows, channel_rows),
                )
                .with_i64(
                    "promotion_sk",
                    gen.uniform_fk(
                        &format!("{name}/promotion"),
                        rows,
                        catalog.table("promotion").unwrap().num_rows(),
                    ),
                )
                .with_f64(
                    "sales_price",
                    gen.uniform_floats(&format!("{name}/price"), rows, 1.0, 300.0),
                )
                .build()
                .unwrap(),
        );
    }
    catalog
}

/// Description of the channel (fact) used by a query template.
struct Channel {
    fact: &'static str,
    channel_dim: &'static str,
}

const CHANNELS: [Channel; 3] = [
    Channel {
        fact: "store_sales",
        channel_dim: "store",
    },
    Channel {
        fact: "web_sales",
        channel_dim: "web_site",
    },
    Channel {
        fact: "catalog_sales",
        channel_dim: "call_center",
    },
];

fn add_dimension_with_predicate(
    mut spec: QuerySpec,
    fact: &str,
    dim: &str,
    predicate: Option<ColumnPredicate>,
) -> QuerySpec {
    spec = spec
        .table(dim)
        .join(fact, format!("{dim}_sk"), dim, format!("{dim}_sk"));
    if let Some(p) = predicate {
        spec = spec.predicate(dim, p);
    }
    spec
}

/// Generates the TPC-DS-like workload.
pub fn generate(scale: Scale, num_queries: usize, seed: u64) -> Workload {
    let catalog = build_catalog(scale, seed);
    let gen = DataGenerator::new(seed ^ 0x5450_4344);
    let mut rng = gen.rng("tpcds/queries");
    let mut queries = Vec::with_capacity(num_queries);

    for q in 0..num_queries {
        let name = format!("tpcds_q{q:02}");
        let channel = &CHANNELS[rng.gen_range(0..CHANNELS.len())];
        let fact = channel.fact;
        let mut spec = QuerySpec::new(name).table(fact);

        // date_dim is joined by (almost) every decision-support query; its
        // predicate selectivity drives the L/M/S split.
        let date_bound = rng.gen_range(1..=CATEGORIES as i64);
        spec = add_dimension_with_predicate(
            spec,
            fact,
            "date_dim",
            Some(ColumnPredicate::new(
                "date_dim_category",
                CompareOp::Lt,
                date_bound,
            )),
        );

        // Item, with optional snowflake extension to manufacturer.
        if rng.gen_bool(0.8) {
            let item_pred = rng.gen_bool(0.6).then(|| {
                ColumnPredicate::new(
                    "item_category",
                    CompareOp::Lt,
                    rng.gen_range(1..=CATEGORIES as i64),
                )
            });
            spec = add_dimension_with_predicate(spec, fact, "item", item_pred);
            if rng.gen_bool(0.5) {
                let pred = rng.gen_bool(0.7).then(|| {
                    ColumnPredicate::new(
                        "manufacturer_category",
                        CompareOp::Lt,
                        rng.gen_range(1..=CATEGORIES as i64 / 2),
                    )
                });
                spec = spec.table("manufacturer").join(
                    "item",
                    "manufacturer_sk",
                    "manufacturer",
                    "manufacturer_sk",
                );
                if let Some(p) = pred {
                    spec = spec.predicate("manufacturer", p);
                }
            }
        }

        // Customer, with optional snowflake extension to address/demographics.
        if rng.gen_bool(0.7) {
            let cust_pred = rng.gen_bool(0.4).then(|| {
                ColumnPredicate::new(
                    "customer_category",
                    CompareOp::Lt,
                    rng.gen_range(5..=CATEGORIES as i64),
                )
            });
            spec = add_dimension_with_predicate(spec, fact, "customer", cust_pred);
            if rng.gen_bool(0.5) {
                let pred = ColumnPredicate::new(
                    "customer_address_category",
                    CompareOp::Lt,
                    rng.gen_range(1..=CATEGORIES as i64 / 2),
                );
                spec = spec
                    .table("customer_address")
                    .join(
                        "customer",
                        "customer_address_sk",
                        "customer_address",
                        "customer_address_sk",
                    )
                    .predicate("customer_address", pred);
            }
            if rng.gen_bool(0.3) {
                spec = spec.table("customer_demographics").join(
                    "customer",
                    "customer_demographics_sk",
                    "customer_demographics",
                    "customer_demographics_sk",
                );
            }
        }

        // Channel dimension and promotion.
        if rng.gen_bool(0.5) {
            let pred = rng.gen_bool(0.5).then(|| {
                ColumnPredicate::new(
                    format!("{}_category", channel.channel_dim),
                    CompareOp::Lt,
                    rng.gen_range(1..=CATEGORIES as i64),
                )
            });
            spec = add_dimension_with_predicate(spec, fact, channel.channel_dim, pred);
        }
        if rng.gen_bool(0.4) {
            let pred = rng.gen_bool(0.5).then(|| {
                ColumnPredicate::new(
                    "promotion_category",
                    CompareOp::Lt,
                    rng.gen_range(1..=CATEGORIES as i64 / 2),
                )
            });
            spec = add_dimension_with_predicate(spec, fact, "promotion", pred);
        }

        queries.push(spec);
    }
    Workload::new("TPC-DS", catalog, queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_shape() {
        let catalog = build_catalog(Scale(0.01), 3);
        assert_eq!(catalog.len(), 13);
        let ss = catalog.table("store_sales").unwrap();
        for col in [
            "date_dim_sk",
            "customer_sk",
            "item_sk",
            "store_sk",
            "promotion_sk",
        ] {
            assert!(ss.schema().contains(col), "missing {col}");
        }
        assert!(catalog
            .table("customer")
            .unwrap()
            .schema()
            .contains("customer_address_sk"));
    }

    #[test]
    fn queries_resolve_and_classify_sensibly() {
        let w = generate(Scale(0.01), 20, 3);
        assert_eq!(w.queries.len(), 20);
        let mut star_or_snowflake = 0;
        for q in &w.queries {
            let graph = q.to_join_graph(&w.catalog).unwrap();
            assert!(graph.is_connected(), "{}", q.name);
            assert_eq!(graph.fact_tables().len(), 1, "{}", q.name);
            star_or_snowflake += usize::from(graph.clean_snowflake().is_some());
        }
        // Most TPC-DS-like queries are clean stars/snowflakes.
        assert!(star_or_snowflake >= w.queries.len() / 2);
    }

    #[test]
    fn join_counts_vary_across_queries() {
        let w = generate(Scale(0.01), 30, 9);
        let joins: Vec<usize> = w.queries.iter().map(|q| q.num_joins()).collect();
        let min = joins.iter().min().unwrap();
        let max = joins.iter().max().unwrap();
        assert!(min >= &1);
        assert!(max >= &5, "expected some wide queries, max={max}");
        assert!(max <= &9);
    }

    #[test]
    fn workload_stats_match_expectation() {
        let w = generate(Scale(0.01), 15, 4);
        let stats = w.stats();
        assert_eq!(stats.tables, 13);
        assert_eq!(stats.queries, 15);
        assert!(stats.avg_joins >= 2.0);
    }
}
