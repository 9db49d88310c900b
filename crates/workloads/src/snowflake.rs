//! Parametric snowflake-schema workload.
//!
//! One fact table and `m` branches of dimensions, each branch a chain
//! `fact -> b_i_1 -> b_i_2 -> ...` (Definition 2 of the paper). Used by the
//! Table 2 plan-space experiment and the snowflake examples.

use crate::{Scale, Workload};
use bqo_plan::{ColumnPredicate, CompareOp, QuerySpec};
use bqo_storage::DataGenerator;
use bqo_storage::{Catalog, TableBuilder};
use rand::Rng;

/// Distinct category values in every generated dimension.
pub const CATEGORIES: usize = 20;

/// Builds a snowflake catalog. `branch_lengths[i]` is the number of chained
/// dimensions in branch `i` (e.g. `[1, 2, 3]` builds the Figure 5 shape).
///
/// Table naming: branch `i`, level `j` (1-based) is `b{i}_{j}`; the fact
/// table references `b{i}_1`, and `b{i}_j` references `b{i}_{j+1}`.
pub fn build_catalog(scale: Scale, branch_lengths: &[usize], seed: u64) -> Catalog {
    let gen = DataGenerator::new(seed);
    let mut catalog = Catalog::new();
    let mut fact_dims = Vec::new();
    for (i, &len) in branch_lengths.iter().enumerate() {
        // Outermost dimension is the smallest; each level towards the fact is
        // ~8x larger.
        let mut child_rows = 0usize;
        for j in (1..=len).rev() {
            let name = format!("b{i}_{j}");
            let rows = scale.rows(40 * 8usize.pow((len - j) as u32), 8);
            let mut builder = TableBuilder::new(name.as_str())
                .with_i64(format!("{name}_sk"), gen.sequential_keys(rows))
                .with_i64(
                    format!("{name}_category"),
                    gen.categories(&format!("{name}/cat"), rows, CATEGORIES),
                );
            if j < len {
                // Reference the next (outer) level of the chain.
                let parent = format!("b{i}_{}", j + 1);
                builder = builder.with_i64(
                    format!("{parent}_sk"),
                    gen.uniform_fk(&format!("{name}/{parent}"), rows, child_rows),
                );
            }
            let table = builder.build().expect("generated snowflake dimension");
            catalog.register_table(table);
            catalog
                .declare_primary_key(&name, &format!("{name}_sk"))
                .expect("snowflake dimension key");
            child_rows = rows;
        }
        fact_dims.push((format!("b{i}_1"), child_rows, 0.0));
    }
    let fact_rows = scale.rows(300_000, 300);
    catalog.register_table(gen.fact_table("fact", fact_rows, &fact_dims));
    catalog
}

/// Builds a query joining the fact with every dimension of every branch,
/// placing `category < bound` predicates on the listed `(branch, level)`
/// positions.
pub fn build_query(
    name: impl Into<String>,
    branch_lengths: &[usize],
    predicates: &[(usize, usize, i64)],
) -> QuerySpec {
    let mut spec = QuerySpec::new(name).table("fact");
    for (i, &len) in branch_lengths.iter().enumerate() {
        for j in 1..=len {
            let table = format!("b{i}_{j}");
            spec = spec.table(table.clone());
            if j == 1 {
                spec = spec.join(
                    "fact",
                    format!("{table}_sk"),
                    table.clone(),
                    format!("{table}_sk"),
                );
            } else {
                let child = format!("b{i}_{}", j - 1);
                spec = spec.join(
                    child,
                    format!("{table}_sk"),
                    table.clone(),
                    format!("{table}_sk"),
                );
            }
        }
    }
    for &(branch, level, bound) in predicates {
        let table = format!("b{branch}_{level}");
        spec = spec.predicate(
            table.clone(),
            ColumnPredicate::new(format!("{table}_category"), CompareOp::Lt, bound),
        );
    }
    spec
}

/// Generates a snowflake workload with `num_queries` random queries.
pub fn generate(scale: Scale, branch_lengths: &[usize], num_queries: usize, seed: u64) -> Workload {
    let catalog = build_catalog(scale, branch_lengths, seed);
    let gen = DataGenerator::new(seed ^ 0x534e_4f57);
    let mut rng = gen.rng("snowflake/queries");
    let mut queries = Vec::with_capacity(num_queries);
    for q in 0..num_queries {
        let mut predicates = Vec::new();
        for (i, &len) in branch_lengths.iter().enumerate() {
            // Each branch gets a predicate on a random level with 80%
            // probability; bounds are biased towards selective values, the
            // way decision-support dashboards slice on a few categories.
            if rng.gen_bool(0.8) {
                let level = rng.gen_range(1..=len);
                let bound = rng.gen_range(1..=CATEGORIES as i64 / 2);
                predicates.push((i, level, bound));
            }
        }
        queries.push(build_query(
            format!("snowflake_q{q:02}"),
            branch_lengths,
            &predicates,
        ));
    }
    Workload::new("SNOWFLAKE", catalog, queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_builds_chained_dimensions() {
        let catalog = build_catalog(Scale(0.05), &[1, 2, 3], 5);
        // 1 + 2 + 3 dimensions + fact.
        assert_eq!(catalog.len(), 7);
        // The middle of branch 2 references its outer neighbour.
        let b2_2 = catalog.table("b2_2").unwrap();
        assert!(b2_2.schema().contains("b2_3_sk"));
        let b2_3 = catalog.table("b2_3").unwrap();
        assert!(b2_3.num_rows() < b2_2.num_rows());
        // The fact references each branch root.
        let fact = catalog.table("fact").unwrap();
        for root in ["b0_1_sk", "b1_1_sk", "b2_1_sk"] {
            assert!(fact.schema().contains(root), "missing {root}");
        }
    }

    #[test]
    fn query_classifies_as_snowflake() {
        let lengths = [1usize, 2, 2];
        let catalog = build_catalog(Scale(0.05), &lengths, 5);
        let spec = build_query("q", &lengths, &[(1, 2, 3), (2, 1, 10)]);
        let graph = spec.to_join_graph(&catalog).unwrap();
        let (_, branches) = graph.clean_snowflake().expect("a snowflake");
        let mut sizes: Vec<usize> = branches.iter().map(|b| b.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 2]);
    }

    #[test]
    fn foreign_keys_reference_existing_parents() {
        let catalog = build_catalog(Scale(0.05), &[2], 9);
        let b0_1 = catalog.table("b0_1").unwrap();
        let parent_rows = catalog.table("b0_2").unwrap().num_rows() as i64;
        let fks = b0_1.column("b0_2_sk").unwrap().as_i64().unwrap();
        assert!(fks.iter().all(|&v| v >= 0 && v < parent_rows));
    }

    #[test]
    fn generated_queries_resolve() {
        let lengths = [2usize, 3];
        let w = generate(Scale(0.03), &lengths, 4, 21);
        assert_eq!(w.queries.len(), 4);
        for q in &w.queries {
            let graph = q.to_join_graph(&w.catalog).unwrap();
            assert_eq!(graph.num_relations(), 6);
            assert!(graph.is_connected());
        }
    }
}
