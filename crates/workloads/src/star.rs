//! Parametric star-schema workload.
//!
//! A single fact table with `n` dimensions, PKFK joins only. Used by the
//! plan-space experiments (Table 2), the property-based tests and the
//! quickstart example.

use crate::{Scale, Workload};
use bqo_plan::{ColumnPredicate, CompareOp, QuerySpec};
use bqo_storage::Catalog;
use bqo_storage::DataGenerator;
use rand::Rng;

/// Number of distinct category values every generated dimension has;
/// predicates of the form `category < k` then have selectivity `k / CATEGORIES`.
pub const CATEGORIES: usize = 20;

/// Builds a star-schema catalog with `num_dims` dimensions.
///
/// Dimension `i` has `50 * 4^i` rows (scaled); the fact table has 200k rows
/// (scaled) with uniformly distributed foreign keys.
pub fn build_catalog(scale: Scale, num_dims: usize, seed: u64) -> Catalog {
    let gen = DataGenerator::new(seed);
    let mut catalog = Catalog::new();
    let mut dims = Vec::new();
    for i in 0..num_dims {
        let name = format!("dim{i}");
        let rows = scale.rows(50 * 4usize.pow(i as u32), 8);
        catalog.register_table(gen.dimension_table(&name, rows, CATEGORIES));
        catalog
            .declare_primary_key(&name, &format!("{name}_sk"))
            .expect("generated dimension has its surrogate key");
        dims.push((name, rows, 0.0));
    }
    let fact_rows = scale.rows(200_000, 200);
    catalog.register_table(gen.fact_table("fact", fact_rows, &dims));
    catalog
}

/// Builds a query over the star catalog: all dimensions joined, a subset of
/// them carrying a `category < k` predicate.
pub fn build_query(
    name: impl Into<String>,
    num_dims: usize,
    predicates: &[(usize, i64)],
) -> QuerySpec {
    let mut spec = QuerySpec::new(name).table("fact");
    for i in 0..num_dims {
        let dim = format!("dim{i}");
        spec = spec.table(dim.clone()).join(
            "fact",
            format!("{dim}_sk"),
            dim.clone(),
            format!("{dim}_sk"),
        );
    }
    for &(dim_idx, bound) in predicates {
        let dim = format!("dim{dim_idx}");
        spec = spec.predicate(
            dim.clone(),
            ColumnPredicate::new(format!("{dim}_category"), CompareOp::Lt, bound),
        );
    }
    spec
}

/// Builds a parameterized query template over the star catalog: all
/// dimensions joined, each dimension listed in `param_dims` carrying a
/// `category < $bound{i}` placeholder predicate.
///
/// Bind it with `Params::new().set("bound0", k)` (one entry per listed
/// dimension); the bound selectivity is `k / CATEGORIES`, so a serving
/// workload can sweep one template from highly selective (`k = 1`) to
/// unselective (`k = CATEGORIES`) binds — the sweep that drives a plan
/// cache's selectivity-envelope re-optimization.
pub fn build_param_query(
    name: impl Into<String>,
    num_dims: usize,
    param_dims: &[usize],
) -> QuerySpec {
    let mut spec = QuerySpec::new(name).table("fact");
    for i in 0..num_dims {
        let dim = format!("dim{i}");
        spec = spec.table(dim.clone()).join(
            "fact",
            format!("{dim}_sk"),
            dim.clone(),
            format!("{dim}_sk"),
        );
    }
    for &dim_idx in param_dims {
        let dim = format!("dim{dim_idx}");
        spec = spec.param_predicate(
            dim.clone(),
            format!("{dim}_category"),
            CompareOp::Lt,
            format!("bound{dim_idx}"),
        );
    }
    spec
}

/// Generates a full star workload with `num_queries` random queries of
/// varying dimension-predicate selectivity.
pub fn generate(scale: Scale, num_dims: usize, num_queries: usize, seed: u64) -> Workload {
    let catalog = build_catalog(scale, num_dims, seed);
    let gen = DataGenerator::new(seed ^ 0x5741_5254);
    let mut rng = gen.rng("star/queries");
    let mut queries = Vec::with_capacity(num_queries);
    for q in 0..num_queries {
        // Between 1 and num_dims dimensions carry predicates; bounds vary
        // from very selective (1 category) to non-selective.
        let num_preds = rng.gen_range(1..=num_dims.max(1));
        let mut predicates = Vec::new();
        let mut dims: Vec<usize> = (0..num_dims).collect();
        for _ in 0..num_preds {
            let pick = rng.gen_range(0..dims.len());
            let dim = dims.swap_remove(pick);
            let bound = rng.gen_range(1..=CATEGORIES as i64);
            predicates.push((dim, bound));
        }
        queries.push(build_query(format!("star_q{q:02}"), num_dims, &predicates));
    }
    Workload::new("STAR", catalog, queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_plan::Params;

    #[test]
    fn catalog_has_fact_and_dimensions() {
        let catalog = build_catalog(Scale(0.02), 3, 7);
        assert_eq!(catalog.len(), 4);
        let fact = catalog.table("fact").unwrap();
        assert!(fact.schema().contains("dim0_sk"));
        assert!(fact.schema().contains("dim2_sk"));
        assert!(fact.num_rows() >= 200);
        // Dimensions grow geometrically.
        assert!(
            catalog.table("dim2").unwrap().num_rows() > catalog.table("dim0").unwrap().num_rows()
        );
    }

    #[test]
    fn query_resolves_to_star_graph() {
        let catalog = build_catalog(Scale(0.02), 3, 7);
        let spec = build_query("q", 3, &[(0, 5), (2, 1)]);
        let graph = spec.to_join_graph(&catalog).unwrap();
        let (_, branches) = graph.clean_snowflake().expect("a star");
        assert!(branches.iter().all(|b| b.len() == 1));
        // The predicate on dim0 keeps roughly 5/20 of the rows.
        let dim0 = graph.relation_by_name("dim0").unwrap();
        let sel = graph.relation(dim0).local_selectivity();
        assert!(sel > 0.1 && sel < 0.45, "selectivity {sel}");
    }

    #[test]
    fn param_query_binds_to_the_literal_equivalent() {
        let catalog = build_catalog(Scale(0.02), 3, 7);
        let template = build_param_query("pq", 3, &[0, 2]);
        assert!(template.is_parameterized());
        assert_eq!(template.param_names(), vec!["bound0", "bound2"]);
        // Unbound templates don't resolve; bound ones match build_query.
        assert!(template.to_join_graph(&catalog).is_err());
        let bound = template
            .bind(&Params::new().set("bound0", 5i64).set("bound2", 1i64))
            .unwrap();
        let literal = build_query("pq", 3, &[(0, 5), (2, 1)]);
        assert_eq!(bound.fingerprint(), literal.fingerprint());
        assert!(bound.to_join_graph(&catalog).is_ok());
    }

    #[test]
    fn generated_workload_is_deterministic() {
        let a = generate(Scale(0.02), 3, 5, 11);
        let b = generate(Scale(0.02), 3, 5, 11);
        assert_eq!(a.queries.len(), b.queries.len());
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.tables, qb.tables);
            assert_eq!(qa.predicates.len(), qb.predicates.len());
        }
        let c = generate(Scale(0.02), 3, 5, 12);
        // Different seed should change at least one predicate bound.
        let bounds = |w: &Workload| -> Vec<String> {
            w.queries
                .iter()
                .flat_map(|q| q.predicates.values().flatten().map(|p| p.to_string()))
                .collect()
        };
        assert_ne!(bounds(&a), bounds(&c));
    }

    #[test]
    fn every_query_is_resolvable_and_executable_shape() {
        let w = generate(Scale(0.02), 4, 6, 3);
        for q in &w.queries {
            let graph = q.to_join_graph(&w.catalog).unwrap();
            assert_eq!(graph.num_relations(), 5);
            assert!(graph.is_connected());
        }
    }
}
