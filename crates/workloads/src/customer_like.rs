//! CUSTOMER-like workload.
//!
//! The paper's proprietary customer workload is characterized by very wide
//! queries (30 joins on average, up to 80) over hundreds of tables with
//! B-tree indexes. This module generates a synthetic analogue: a catalog
//! with many small-to-medium dimension chains around a handful of fact
//! tables, and queries that join a few dozen relations at a time.

use crate::{Scale, Workload};
use bqo_plan::{ColumnPredicate, CompareOp, QuerySpec};
use bqo_storage::DataGenerator;
use bqo_storage::{Catalog, TableBuilder};
use rand::Rng;

/// Distinct category values per dimension.
pub const CATEGORIES: usize = 25;

/// Layout of the generated schema.
#[derive(Debug, Clone, Copy)]
pub struct CustomerSchema {
    /// Number of fact tables.
    pub facts: usize,
    /// Dimension chains per fact.
    pub chains_per_fact: usize,
    /// Length of each dimension chain.
    pub chain_length: usize,
}

impl Default for CustomerSchema {
    fn default() -> Self {
        CustomerSchema {
            facts: 3,
            chains_per_fact: 12,
            chain_length: 3,
        }
    }
}

fn chain_table_name(fact: usize, chain: usize, level: usize) -> String {
    format!("f{fact}_c{chain}_d{level}")
}

/// Builds the CUSTOMER-like catalog.
pub fn build_catalog(scale: Scale, schema: CustomerSchema, seed: u64) -> Catalog {
    let gen = DataGenerator::new(seed);
    let mut catalog = Catalog::new();
    for f in 0..schema.facts {
        let mut fact_dims = Vec::new();
        for c in 0..schema.chains_per_fact {
            let mut child_rows = 0usize;
            for level in (1..=schema.chain_length).rev() {
                let name = chain_table_name(f, c, level);
                let rows = scale.rows(200 * 6usize.pow((schema.chain_length - level) as u32), 6);
                let mut builder = TableBuilder::new(name.as_str())
                    .with_i64(format!("{name}_sk"), gen.sequential_keys(rows))
                    .with_i64(
                        format!("{name}_category"),
                        gen.categories(&format!("{name}/cat"), rows, CATEGORIES),
                    );
                if level < schema.chain_length {
                    let parent = chain_table_name(f, c, level + 1);
                    builder = builder.with_i64(
                        format!("{parent}_sk"),
                        gen.uniform_fk(&format!("{name}/{parent}"), rows, child_rows),
                    );
                }
                catalog.register_table(builder.build().expect("customer dimension"));
                catalog
                    .declare_primary_key(&name, &format!("{name}_sk"))
                    .expect("customer dimension key");
                child_rows = rows;
            }
            fact_dims.push((chain_table_name(f, c, 1), child_rows, 0.0));
        }
        let fact_rows = scale.rows(120_000, 200);
        catalog.register_table(gen.fact_table(&format!("fact{f}"), fact_rows, &fact_dims));
    }
    catalog
}

/// Builds one wide query: a fact table, a subset of its chains (joined to
/// their full depth), and predicates sprinkled over the outer dimensions.
fn build_query(
    name: String,
    schema: CustomerSchema,
    fact: usize,
    chains: &[usize],
    rng: &mut impl Rng,
) -> QuerySpec {
    let fact_name = format!("fact{fact}");
    let mut spec = QuerySpec::new(name).table(fact_name.clone());
    for &c in chains {
        for level in 1..=schema.chain_length {
            let table = chain_table_name(fact, c, level);
            spec = spec.table(table.clone());
            if level == 1 {
                spec = spec.join(
                    fact_name.clone(),
                    format!("{table}_sk"),
                    table.clone(),
                    format!("{table}_sk"),
                );
            } else {
                let child = chain_table_name(fact, c, level - 1);
                spec = spec.join(
                    child,
                    format!("{table}_sk"),
                    table.clone(),
                    format!("{table}_sk"),
                );
            }
            // Predicates sit on the outer (small) levels of the chains, the
            // way reporting queries slice on a handful of categories; most
            // are fairly selective.
            if level == schema.chain_length && rng.gen_bool(0.7) {
                let bound = rng.gen_range(1..=CATEGORIES as i64 / 3);
                spec = spec.predicate(
                    table.clone(),
                    ColumnPredicate::new(format!("{table}_category"), CompareOp::Lt, bound),
                );
            }
        }
    }
    spec
}

/// Generates the CUSTOMER-like workload.
pub fn generate(scale: Scale, num_queries: usize, seed: u64) -> Workload {
    let schema = CustomerSchema::default();
    let catalog = build_catalog(scale, schema, seed);
    let gen = DataGenerator::new(seed ^ 0x4355_5354);
    let mut rng = gen.rng("customer/queries");
    let mut queries = Vec::with_capacity(num_queries);
    for q in 0..num_queries {
        let fact = rng.gen_range(0..schema.facts);
        // Join between half and all of the fact's chains: 18..=36 joins for
        // the default schema, matching the paper's "30 joins on average".
        let num_chains = rng.gen_range(schema.chains_per_fact / 2..=schema.chains_per_fact);
        let mut chains: Vec<usize> = (0..schema.chains_per_fact).collect();
        while chains.len() > num_chains {
            let idx = rng.gen_range(0..chains.len());
            chains.swap_remove(idx);
        }
        queries.push(build_query(
            format!("customer_q{q:02}"),
            schema,
            fact,
            &chains,
            &mut rng,
        ));
    }
    Workload::new("CUSTOMER", catalog, queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_table_count() {
        let catalog = build_catalog(
            Scale(0.01),
            CustomerSchema {
                facts: 1,
                chains_per_fact: 2,
                chain_length: 2,
            },
            3,
        );
        assert_eq!(catalog.len(), 1 + 2 * 2);
    }

    #[test]
    fn queries_are_wide_snowflakes() {
        let w = generate(Scale(0.01), 5, 11);
        for q in &w.queries {
            assert!(
                q.num_joins() >= 18,
                "{} has only {} joins",
                q.name,
                q.num_joins()
            );
            assert!(q.num_joins() <= 36);
            let graph = q.to_join_graph(&w.catalog).unwrap();
            assert!(graph.is_connected());
            let (_, branches) = graph.clean_snowflake().expect("a snowflake");
            assert!(branches.iter().any(|b| b.len() > 1), "{} is a star", q.name);
        }
    }

    #[test]
    fn stats_match_paper_profile() {
        let w = generate(Scale(0.01), 8, 11);
        let stats = w.stats();
        assert_eq!(stats.tables, 3 * (1 + 12 * 3));
        assert!(
            stats.avg_joins >= 20.0 && stats.avg_joins <= 36.0,
            "avg {}",
            stats.avg_joins
        );
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(Scale(0.01), 3, 5);
        let b = generate(Scale(0.01), 3, 5);
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.tables, qb.tables);
        }
    }
}
