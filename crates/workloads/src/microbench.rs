//! The Figure 7 micro-benchmark: profile the overhead and benefit of a single
//! bitvector filter as a function of its selectivity.
//!
//! The paper runs
//! `SELECT COUNT(*) FROM store_sales, customer WHERE ss_customer_sk =
//! c_customer_sk AND c_customer_sk % 1000 < @P` and varies `@P` so the
//! bitvector filter built from `customer` eliminates between 0% and 99.9% of
//! `store_sales`. Here `customer` carries an explicit `bucket` column with
//! 1000 distinct values so the same selectivity dial is available through an
//! ordinary comparison predicate.

use crate::{Scale, Workload};
use bqo_plan::{ColumnPredicate, CompareOp, QuerySpec};
use bqo_storage::DataGenerator;
use bqo_storage::{Catalog, TableBuilder};

/// Number of buckets the selectivity dial is quantized into.
pub const BUCKETS: i64 = 1000;

/// The selectivity points of Figure 7 (fraction of customers *kept*).
pub const FIGURE7_SELECTIVITIES: [f64; 8] = [1.0, 0.9, 0.8, 0.5, 0.1, 0.05, 0.01, 0.001];

/// Builds the two-table micro-benchmark catalog.
pub fn build_catalog(scale: Scale, seed: u64) -> Catalog {
    let gen = DataGenerator::new(seed);
    let mut catalog = Catalog::new();
    let customer_rows = scale.rows(100_000, 1000);
    catalog.register_table(
        TableBuilder::new("customer")
            .with_i64("customer_sk", gen.sequential_keys(customer_rows))
            .with_i64(
                "bucket",
                gen.uniform_ints("micro/bucket", customer_rows, 0, BUCKETS),
            )
            .build()
            .expect("customer table"),
    );
    catalog
        .declare_primary_key("customer", "customer_sk")
        .unwrap();

    // store_sales carries several measure columns like the real TPC-DS fact
    // table; the width is what makes early elimination at the scan worthwhile
    // (every surviving tuple has to be materialized and carried through the
    // probe pipeline).
    let sales_rows = scale.rows(2_000_000, 5000);
    catalog.register_table(
        TableBuilder::new("store_sales")
            .with_i64("ss_id", gen.sequential_keys(sales_rows))
            .with_i64(
                "customer_sk",
                gen.uniform_fk("micro/ss_customer", sales_rows, customer_rows),
            )
            .with_f64(
                "ss_price",
                gen.uniform_floats("micro/price", sales_rows, 1.0, 100.0),
            )
            .with_f64(
                "ss_discount",
                gen.uniform_floats("micro/discount", sales_rows, 0.0, 0.4),
            )
            .with_f64(
                "ss_tax",
                gen.uniform_floats("micro/tax", sales_rows, 0.0, 0.2),
            )
            .with_f64(
                "ss_net_paid",
                gen.uniform_floats("micro/net", sales_rows, 1.0, 120.0),
            )
            .with_i64(
                "ss_quantity",
                gen.uniform_ints("micro/qty", sales_rows, 1, 100),
            )
            .with_i64(
                "ss_ticket",
                gen.uniform_ints("micro/ticket", sales_rows, 0, 1_000_000),
            )
            .build()
            .expect("store_sales table"),
    );
    catalog
}

/// The probe query with the given fraction of customers kept (the bitvector
/// filter's pass rate; the paper's "selectivity of bitmap").
pub fn query_with_selectivity(keep_fraction: f64) -> QuerySpec {
    let bound = ((keep_fraction.clamp(0.0, 1.0) * BUCKETS as f64).round() as i64).max(0);
    QuerySpec::new(format!("micro_sel_{keep_fraction}"))
        .table("store_sales")
        .table("customer")
        .join("store_sales", "customer_sk", "customer", "customer_sk")
        .predicate(
            "customer",
            ColumnPredicate::new("bucket", CompareOp::Lt, bound),
        )
}

/// The full Figure 7 workload: one query per selectivity point.
pub fn generate(scale: Scale, seed: u64) -> Workload {
    let catalog = build_catalog(scale, seed);
    let queries = FIGURE7_SELECTIVITIES
        .iter()
        .map(|&s| query_with_selectivity(s))
        .collect();
    Workload::new("MICRO", catalog, queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_contains_both_tables() {
        let catalog = build_catalog(Scale(0.01), 5);
        assert!(catalog.table("customer").unwrap().num_rows() >= 1000);
        assert!(catalog.table("store_sales").unwrap().num_rows() >= 5000);
        assert!(catalog.is_unique_column("customer", "customer_sk"));
    }

    #[test]
    fn selectivity_dial_translates_to_predicate_bound() {
        let q = query_with_selectivity(0.05);
        let preds = q.predicates.get("customer").unwrap();
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].to_string(), "bucket < 50");
        let full = query_with_selectivity(1.0);
        assert_eq!(
            full.predicates.get("customer").unwrap()[0].to_string(),
            "bucket < 1000"
        );
    }

    #[test]
    fn resolved_graph_matches_requested_selectivity() {
        let catalog = build_catalog(Scale(0.02), 5);
        for keep in [1.0, 0.5, 0.1, 0.01] {
            let graph = query_with_selectivity(keep)
                .to_join_graph(&catalog)
                .unwrap();
            let customer = graph.relation_by_name("customer").unwrap();
            let sel = graph.relation(customer).local_selectivity();
            assert!(
                (sel - keep).abs() < 0.05 + keep * 0.2,
                "requested {keep}, estimated {sel}"
            );
        }
    }

    #[test]
    fn workload_covers_all_figure7_points() {
        let w = generate(Scale(0.01), 5);
        assert_eq!(w.queries.len(), FIGURE7_SELECTIVITIES.len());
    }
}
