//! JOB-like workload (synthetic stand-in for the IMDB Join Order Benchmark).
//!
//! The paper singles JOB out as the workload with the most complex join
//! graphs: multiple fact tables, a very large dimension (`title`) shared by
//! all of them, dimension–dimension joins and non-PKFK joins. This module
//! generates a schema with the same structure and a query set mixing
//! single-fact star queries with multi-fact queries (which exercise
//! Algorithm 3), plus the Figure 2 motivating query with the paper's
//! cardinality profile.
//!
//! Relative table sizes follow IMDB's proportions (titles ≈ 2.5M,
//! movie_keyword ≈ 4.5M, keyword ≈ 134K, ...), scaled down by the `Scale`
//! parameter so the default workload fits comfortably in memory.

use crate::{Scale, Workload};
use bqo_plan::{ColumnPredicate, CompareOp, QuerySpec};
use bqo_storage::DataGenerator;
use bqo_storage::{Catalog, TableBuilder};
use rand::Rng;

/// Distinct "category" buckets on every dimension used for predicates.
pub const CATEGORIES: usize = 100;

/// Builds the JOB-like catalog.
pub fn build_catalog(scale: Scale, seed: u64) -> Catalog {
    let gen = DataGenerator::new(seed);
    let mut catalog = Catalog::new();

    // Plain dimensions: (name, unscaled rows).
    let dims: [(&str, usize); 6] = [
        ("keyword", 26_800),
        ("company_name", 47_000),
        ("name", 83_000),
        ("info_type", 113),
        ("company_type", 4),
        ("role_type", 12),
    ];
    for (name, rows) in dims {
        let rows = scale.rows(rows, 4);
        catalog.register_table(gen.dimension_table(name, rows, CATEGORIES.min(rows)));
        catalog
            .declare_primary_key(name, &format!("{name}_sk"))
            .expect("dimension key");
    }

    // The shared large dimension: title. Joined on its key by every fact.
    let title_rows = scale.rows(500_000, 100);
    catalog.register_table(
        TableBuilder::new("title")
            .with_i64("title_sk", gen.sequential_keys(title_rows))
            .with_i64(
                "title_category",
                gen.categories("title/cat", title_rows, CATEGORIES),
            )
            .with_i64(
                "production_year",
                gen.uniform_ints("title/year", title_rows, 1930, 2020),
            )
            .build()
            .expect("title table"),
    );
    catalog
        .declare_primary_key("title", "title_sk")
        .expect("title key");

    // Fact tables: each references title plus one or two dimensions.
    // (name, unscaled rows, referenced dimensions)
    let facts: [(&str, usize, &[&str]); 4] = [
        ("movie_keyword", 900_000, &["keyword"]),
        (
            "movie_companies",
            520_000,
            &["company_name", "company_type"],
        ),
        ("cast_info", 700_000, &["name", "role_type"]),
        ("movie_info", 450_000, &["info_type"]),
    ];
    for (name, rows, fact_dims) in facts {
        let rows = scale.rows(rows, 200);
        let mut builder = TableBuilder::new(name)
            .with_i64(format!("{name}_id"), gen.sequential_keys(rows))
            .with_i64(
                "title_sk",
                gen.zipf_fk(&format!("{name}/title"), rows, title_rows, 0.4),
            );
        for dim in fact_dims {
            let dim_rows = catalog.table(dim).expect("dimension registered").num_rows();
            builder = builder.with_i64(
                format!("{dim}_sk"),
                gen.uniform_fk(&format!("{name}/{dim}"), rows, dim_rows),
            );
        }
        // A shared non-key attribute used for fact-to-fact non-PKFK joins.
        builder = builder.with_i64(
            "link_code",
            gen.uniform_ints(&format!("{name}/link"), rows, 0, 1000),
        );
        catalog.register_table(builder.build().expect("fact table"));
    }
    catalog
}

/// A single-fact star/snowflake query: one fact, title, and the fact's
/// dimensions, with predicates on the given tables.
fn single_fact_query(
    name: String,
    fact: &str,
    fact_dims: &[&str],
    predicates: Vec<(String, ColumnPredicate)>,
) -> QuerySpec {
    let mut spec = QuerySpec::new(name)
        .table(fact)
        .table("title")
        .join(fact, "title_sk", "title", "title_sk");
    for dim in fact_dims {
        spec = spec
            .table(*dim)
            .join(fact, format!("{dim}_sk"), *dim, format!("{dim}_sk"));
    }
    for (table, predicate) in predicates {
        spec = spec.predicate(table, predicate);
    }
    spec
}

/// A multi-fact query: several facts share `title` (PKFK) and are also
/// linked pairwise through the non-key `link_code` column, plus their own
/// dimensions — the JOB trait the paper calls out (multiple fact tables,
/// non-PKFK joins).
fn multi_fact_query(
    name: String,
    facts: &[(&str, &[&str])],
    predicates: Vec<(String, ColumnPredicate)>,
) -> QuerySpec {
    let mut spec = QuerySpec::new(name).table("title");
    for (fact, dims) in facts {
        spec = spec
            .table(*fact)
            .join(*fact, "title_sk", "title", "title_sk");
        for dim in *dims {
            spec = spec
                .table(*dim)
                .join(*fact, format!("{dim}_sk"), *dim, format!("{dim}_sk"));
        }
    }
    for (table, predicate) in predicates {
        spec = spec.predicate(table, predicate);
    }
    spec
}

/// Generates the JOB-like workload: a mix of single-fact and multi-fact
/// queries with predicates of widely varying selectivity.
pub fn generate(scale: Scale, num_queries: usize, seed: u64) -> Workload {
    let catalog = build_catalog(scale, seed);
    let gen = DataGenerator::new(seed ^ 0x4a4f_4221);
    let mut rng = gen.rng("job/queries");

    let fact_specs: [(&str, &[&str]); 4] = [
        ("movie_keyword", &["keyword"]),
        ("movie_companies", &["company_name", "company_type"]),
        ("cast_info", &["name", "role_type"]),
        ("movie_info", &["info_type"]),
    ];

    let mut queries = Vec::with_capacity(num_queries);
    for q in 0..num_queries {
        let name = format!("job_q{q:02}");
        // One third of the queries join multiple facts.
        let multi = q % 3 == 2;
        let mut predicates: Vec<(String, ColumnPredicate)> = Vec::new();
        // Title predicate with varying selectivity.
        if rng.gen_bool(0.7) {
            let bound = rng.gen_range(2..=CATEGORIES as i64);
            predicates.push((
                "title".to_string(),
                ColumnPredicate::new("title_category", CompareOp::Lt, bound),
            ));
        }
        if multi {
            let first = rng.gen_range(0..fact_specs.len());
            let second = (first + 1 + rng.gen_range(0..fact_specs.len() - 1)) % fact_specs.len();
            let selected = [fact_specs[first], fact_specs[second]];
            for (_, dims) in &selected {
                for dim in *dims {
                    if rng.gen_bool(0.6) {
                        let bound = rng.gen_range(1..=CATEGORIES as i64 / 2);
                        predicates.push((
                            dim.to_string(),
                            ColumnPredicate::new(format!("{dim}_category"), CompareOp::Lt, bound),
                        ));
                    }
                }
            }
            queries.push(multi_fact_query(name, &selected, predicates));
        } else {
            let (fact, dims) = fact_specs[rng.gen_range(0..fact_specs.len())];
            for dim in dims {
                if rng.gen_bool(0.75) {
                    let bound = rng.gen_range(1..=CATEGORIES as i64 / 2);
                    predicates.push((
                        dim.to_string(),
                        ColumnPredicate::new(format!("{dim}_category"), CompareOp::Lt, bound),
                    ));
                }
            }
            queries.push(single_fact_query(name, fact, dims, predicates));
        }
    }
    Workload::new("JOB", catalog, queries)
}

/// The Figure 2 motivating query: `movie_keyword ⋈ title ⋈ keyword` with a
/// mildly selective predicate on `title` and a selective predicate on
/// `keyword`, matching the cardinality profile reported in the paper
/// (|mk| = 4.5M, |title σ| ≈ 715K of 2.5M, |keyword σ| ≈ 7K of 134K).
/// The scale parameter shrinks every table proportionally.
pub fn figure2_workload(scale: Scale, seed: u64) -> Workload {
    let gen = DataGenerator::new(seed);
    let mut catalog = Catalog::new();

    let title_rows = scale.rows(2_528_000, 1000);
    let keyword_rows = scale.rows(134_000, 100);
    let mk_rows = scale.rows(4_524_000, 2000);

    // title: predicate `title_category < 28` keeps ~28.3% ≈ 715K / 2528K.
    catalog.register_table(
        TableBuilder::new("title")
            .with_i64("title_sk", gen.sequential_keys(title_rows))
            .with_i64(
                "title_category",
                gen.categories("fig2/title_cat", title_rows, 99),
            )
            .build()
            .expect("title"),
    );
    catalog.declare_primary_key("title", "title_sk").unwrap();

    // keyword: predicate `keyword_category < 5` keeps ~5.2% ≈ 7K / 134K.
    catalog.register_table(
        TableBuilder::new("keyword")
            .with_i64("keyword_sk", gen.sequential_keys(keyword_rows))
            .with_i64(
                "keyword_category",
                gen.categories("fig2/keyword_cat", keyword_rows, 96),
            )
            .build()
            .expect("keyword"),
    );
    catalog
        .declare_primary_key("keyword", "keyword_sk")
        .unwrap();

    catalog.register_table(
        TableBuilder::new("movie_keyword")
            .with_i64("mk_id", gen.sequential_keys(mk_rows))
            .with_i64(
                "title_sk",
                gen.uniform_fk("fig2/mk_title", mk_rows, title_rows),
            )
            .with_i64(
                "keyword_sk",
                gen.zipf_fk("fig2/mk_keyword", mk_rows, keyword_rows, 0.3),
            )
            .build()
            .expect("movie_keyword"),
    );

    let query = QuerySpec::new("figure2")
        .table("movie_keyword")
        .table("title")
        .table("keyword")
        .join("movie_keyword", "title_sk", "title", "title_sk")
        .join("movie_keyword", "keyword_sk", "keyword", "keyword_sk")
        .predicate(
            "title",
            ColumnPredicate::new("title_category", CompareOp::Lt, 28i64),
        )
        .predicate(
            "keyword",
            ColumnPredicate::new("keyword_category", CompareOp::Lt, 5i64),
        );

    Workload::new("FIGURE2", catalog, vec![query])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_tables() {
        let catalog = build_catalog(Scale(0.01), 17);
        assert_eq!(catalog.len(), 11);
        assert!(catalog.table("title").unwrap().num_rows() >= 100);
        assert!(catalog
            .table("movie_keyword")
            .unwrap()
            .schema()
            .contains("title_sk"));
        assert!(catalog
            .table("movie_companies")
            .unwrap()
            .schema()
            .contains("company_name_sk"));
    }

    #[test]
    fn facts_are_detected_as_fact_tables() {
        let catalog = build_catalog(Scale(0.01), 17);
        let w = generate(Scale(0.01), 6, 17);
        // A multi-fact query must classify as General and expose >= 2 fact
        // tables.
        let multi = w
            .queries
            .iter()
            .find(|q| q.name.ends_with("q02"))
            .expect("query 2 is multi-fact by construction");
        let graph = multi.to_join_graph(&catalog).unwrap();
        assert!(graph.fact_tables().len() >= 2);
        assert_eq!(graph.clean_snowflake(), None);
    }

    #[test]
    fn single_fact_queries_form_stars_or_snowflakes() {
        let w = generate(Scale(0.01), 6, 23);
        let single = w
            .queries
            .iter()
            .find(|q| q.name.ends_with("q00"))
            .expect("query 0 is single-fact by construction");
        let graph = single.to_join_graph(&w.catalog).unwrap();
        assert!(graph.is_connected());
        // At seed 23, q00 is a 3-dimension star.
        let (_, branches) = graph.clean_snowflake().expect("a clean snowflake");
        assert_eq!(branches.iter().map(Vec::len).collect::<Vec<_>>(), [1, 1, 1]);
        assert_eq!(graph.fact_tables().len(), 1);
    }

    #[test]
    fn all_generated_queries_resolve() {
        let w = generate(Scale(0.01), 12, 5);
        assert_eq!(w.queries.len(), 12);
        for q in &w.queries {
            let graph = q.to_join_graph(&w.catalog).unwrap();
            assert!(graph.is_connected(), "{} is disconnected", q.name);
            assert!(graph.num_relations() >= 2);
        }
    }

    #[test]
    fn figure2_cardinality_profile() {
        let w = figure2_workload(Scale(0.02), 7);
        let graph = w.queries[0].to_join_graph(&w.catalog).unwrap();
        let title = graph.relation_by_name("title").unwrap();
        let keyword = graph.relation_by_name("keyword").unwrap();
        let mk = graph.relation_by_name("movie_keyword").unwrap();
        // Selectivity of the title predicate ~28%, keyword ~5%.
        let t_sel = graph.relation(title).local_selectivity();
        let k_sel = graph.relation(keyword).local_selectivity();
        assert!((t_sel - 0.283).abs() < 0.08, "title selectivity {t_sel}");
        assert!((k_sel - 0.052).abs() < 0.04, "keyword selectivity {k_sel}");
        // movie_keyword is the fact table and the largest relation.
        assert!(graph.relation(mk).base_rows > graph.relation(title).base_rows);
        assert_eq!(graph.fact_tables(), vec![mk]);
    }

    #[test]
    fn figure2_workload_is_deterministic() {
        let a = figure2_workload(Scale(0.01), 7);
        let b = figure2_workload(Scale(0.01), 7);
        assert_eq!(
            a.catalog
                .table("movie_keyword")
                .unwrap()
                .column("keyword_sk")
                .unwrap(),
            b.catalog
                .table("movie_keyword")
                .unwrap()
                .column("keyword_sk")
                .unwrap()
        );
    }
}
