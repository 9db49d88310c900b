//! Builds statistics-annotated join graphs from a catalog and a query
//! specification.
//!
//! The workload crates describe queries as a [`QuerySpec`] (tables, equi-join
//! conditions and local predicates). [`QuerySpec::to_join_graph`] resolves it
//! against a [`Catalog`]: base cardinalities, per-predicate selectivities and
//! join-column distinct/uniqueness statistics are read from the catalog's
//! statistics, exactly the information the paper's host system (SQL Server's
//! cardinality estimator) provides to its optimizer.

use crate::graph::{JoinEdge, JoinGraph, RelationInfo};
use crate::predicate::{ColumnPredicate, Params};
use crate::relset::RelSet;
use bqo_storage::{Catalog, StorageError};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// One equi-join condition `left_table.left_column = right_table.right_column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCondition {
    /// Table on the left-hand side of the equality.
    pub left_table: Arc<str>,
    /// Column of `left_table` being joined.
    pub left_column: Arc<str>,
    /// Table on the right-hand side of the equality.
    pub right_table: Arc<str>,
    /// Column of `right_table` being joined.
    pub right_column: Arc<str>,
}

impl JoinCondition {
    /// Creates a join condition.
    pub fn new(
        left_table: impl Into<Arc<str>>,
        left_column: impl Into<Arc<str>>,
        right_table: impl Into<Arc<str>>,
        right_column: impl Into<Arc<str>>,
    ) -> Self {
        JoinCondition {
            left_table: left_table.into(),
            left_column: left_column.into(),
            right_table: right_table.into(),
            right_column: right_column.into(),
        }
    }
}

/// A declarative query: which tables are joined how, and which local
/// predicates restrict them.
///
/// Table and column names are `Arc<str>`: a spec bound from SQL holds the
/// catalog's own names, and everything lowered from it — join graph, plan,
/// operator schemas — clones those `Arc`s rather than the text.
#[derive(Debug, Clone, Default)]
pub struct QuerySpec {
    /// Query name (used for plan-cache keys and reporting).
    pub name: String,
    /// Tables referenced by the query.
    pub tables: Vec<Arc<str>>,
    /// Equi-join conditions between the tables.
    pub joins: Vec<JoinCondition>,
    /// Local predicates, keyed by table name.
    pub predicates: HashMap<Arc<str>, Vec<ColumnPredicate>>,
}

impl QuerySpec {
    /// Creates an empty query spec with a name.
    pub fn new(name: impl Into<String>) -> Self {
        QuerySpec {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a table to the query.
    pub fn table(mut self, name: impl Into<Arc<str>>) -> Self {
        self.tables.push(name.into());
        self
    }

    /// Adds an equi-join condition.
    pub fn join(
        mut self,
        left_table: impl Into<Arc<str>>,
        left_column: impl Into<Arc<str>>,
        right_table: impl Into<Arc<str>>,
        right_column: impl Into<Arc<str>>,
    ) -> Self {
        self.joins.push(JoinCondition::new(
            left_table,
            left_column,
            right_table,
            right_column,
        ));
        self
    }

    /// Adds a local predicate to one of the tables.
    pub fn predicate(mut self, table: impl Into<Arc<str>>, predicate: ColumnPredicate) -> Self {
        self.predicates
            .entry(table.into())
            .or_default()
            .push(predicate);
        self
    }

    /// Adds a parameterized local predicate `table.column <op> $param` to one
    /// of the tables. The spec must be bound with [`QuerySpec::bind`] before
    /// it can be resolved against a catalog.
    pub fn param_predicate(
        self,
        table: impl Into<Arc<str>>,
        column: impl Into<Arc<str>>,
        op: crate::predicate::CompareOp,
        param: impl Into<String>,
    ) -> Self {
        self.predicate(table, ColumnPredicate::param(column, op, param))
    }

    /// Number of joins in the query.
    pub fn num_joins(&self) -> usize {
        self.joins.len()
    }

    /// True if any predicate still carries a parameter placeholder.
    pub fn is_parameterized(&self) -> bool {
        self.predicates
            .values()
            .flatten()
            .any(|p| p.is_parameterized())
    }

    /// The distinct parameter names referenced by this spec, sorted.
    pub fn param_names(&self) -> Vec<&str> {
        let names: BTreeSet<&str> = self
            .predicates
            .values()
            .flatten()
            .filter_map(|p| p.value.param_name())
            .collect();
        names.into_iter().collect()
    }

    /// Substitutes every parameter placeholder with its value from `params`,
    /// returning the executable literal spec.
    ///
    /// # Errors
    /// [`StorageError::UnboundParameter`] if a referenced parameter is
    /// missing from `params`, and [`StorageError::InvalidArgument`] if
    /// `params` carries a name the query never references (catching typos at
    /// the bind boundary instead of silently ignoring them).
    pub fn bind(&self, params: &Params) -> Result<QuerySpec, StorageError> {
        let referenced: BTreeSet<&str> = self.param_names().into_iter().collect();
        for name in params.names() {
            if !referenced.contains(name) {
                return Err(StorageError::InvalidArgument(format!(
                    "parameter `${name}` does not appear in query `{}`",
                    self.name
                )));
            }
        }
        let mut bound = self.clone();
        for predicates in bound.predicates.values_mut() {
            for p in predicates.iter_mut() {
                *p = p.bind(params)?;
            }
        }
        Ok(bound)
    }

    /// Resolves the query against a catalog into a statistics-annotated
    /// [`JoinGraph`].
    ///
    /// This is where a query's shape is validated: the optimizers assume a
    /// connected graph of at most [`RelSet::CAPACITY`] distinct relations
    /// without self-joins and panic on anything else.
    ///
    /// # Errors
    /// [`StorageError::InvalidArgument`], naming the query and the offending
    /// tables, if a table is listed twice, a join has the same table on both
    /// sides, there are more than [`RelSet::CAPACITY`] tables, or some table
    /// is not connected to the others by join conditions (a cross product);
    /// the catalog's own errors for unknown tables and columns.
    pub fn to_join_graph(&self, catalog: &Catalog) -> Result<JoinGraph, StorageError> {
        let invalid =
            |what: String| StorageError::InvalidArgument(format!("query `{}` {what}", self.name));
        if self.tables.len() > RelSet::CAPACITY {
            return Err(invalid(format!(
                "joins {} tables; at most {} are supported",
                self.tables.len(),
                RelSet::CAPACITY
            )));
        }
        let mut graph = JoinGraph::new();
        let mut ids: HashMap<&str, _> = HashMap::with_capacity(self.tables.len());
        for table_name in &self.tables {
            if ids.contains_key(&**table_name) {
                return Err(invalid(format!("lists table `{table_name}` twice")));
            }
            let meta = catalog.table_meta(table_name)?;
            let base_rows = meta.stats.row_count as f64;
            let predicates = self.predicates.get(table_name).cloned().unwrap_or_default();
            let mut selectivity = 1.0;
            for p in &predicates {
                if let Some(param) = p.value.param_name() {
                    return Err(StorageError::UnboundParameter {
                        name: param.to_string(),
                    });
                }
                let col_stats =
                    meta.stats
                        .column(&p.column)
                        .ok_or_else(|| StorageError::ColumnNotFound {
                            table: table_name.to_string(),
                            column: p.column.to_string(),
                        })?;
                selectivity *= p.estimate_selectivity(col_stats);
            }
            let filtered = (base_rows * selectivity).max(1.0).min(base_rows.max(1.0));
            let backing = if meta.is_file_backed() {
                crate::graph::ScanBacking::File
            } else {
                crate::graph::ScanBacking::Memory
            };
            let info = RelationInfo::new(Arc::clone(&meta.name), base_rows, filtered)
                .with_predicates(predicates)
                .with_backing(backing);
            ids.insert(&**table_name, graph.add_relation(info));
        }
        for join in &self.joins {
            let left = *ids
                .get(&*join.left_table)
                .ok_or_else(|| StorageError::TableNotFound {
                    table: join.left_table.to_string(),
                })?;
            let right =
                *ids.get(&*join.right_table)
                    .ok_or_else(|| StorageError::TableNotFound {
                        table: join.right_table.to_string(),
                    })?;
            if left == right {
                return Err(invalid(format!(
                    "joins table `{}` with itself; self-joins are not supported",
                    join.left_table
                )));
            }
            let left_stats = catalog.stats(&join.left_table)?;
            let right_stats = catalog.stats(&join.right_table)?;
            let left_col = left_stats.column(&join.left_column).ok_or_else(|| {
                StorageError::ColumnNotFound {
                    table: join.left_table.to_string(),
                    column: join.left_column.to_string(),
                }
            })?;
            let right_col = right_stats.column(&join.right_column).ok_or_else(|| {
                StorageError::ColumnNotFound {
                    table: join.right_table.to_string(),
                    column: join.right_column.to_string(),
                }
            })?;
            let left_unique = catalog.is_unique_column(&join.left_table, &join.left_column);
            let right_unique = catalog.is_unique_column(&join.right_table, &join.right_column);
            graph.add_edge(JoinEdge::new(
                left,
                right,
                join.left_column.clone(),
                join.right_column.clone(),
                left_col.distinct_count as f64,
                right_col.distinct_count as f64,
                left_unique,
                right_unique,
            ));
        }
        let all = RelSet::first_n(graph.num_relations());
        if let Some(first) = all.first() {
            let stranded = all - graph.component_of(first, all);
            if !stranded.is_empty() {
                let names: Vec<&str> = stranded.iter().map(|r| &*self.tables[r.0]).collect();
                return Err(invalid(format!(
                    "has no join condition connecting `{}` to `{}`; cross products are not supported",
                    names.join("`, `"),
                    self.tables[first.0]
                )));
            }
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CompareOp;
    use bqo_storage::Catalog;
    use bqo_storage::DataGenerator;

    fn catalog() -> Catalog {
        let gen = DataGenerator::new(7);
        let mut catalog = Catalog::new();
        let dim_a = gen.dimension_table("dim_a", 100, 10);
        let dim_b = gen.dimension_table("dim_b", 50, 5);
        let fact = gen.fact_table(
            "fact",
            10_000,
            &[
                ("dim_a".to_string(), 100, 0.0),
                ("dim_b".to_string(), 50, 0.0),
            ],
        );
        catalog.register_table(dim_a);
        catalog.register_table(dim_b);
        catalog.register_table(fact);
        catalog.declare_primary_key("dim_a", "dim_a_sk").unwrap();
        catalog.declare_primary_key("dim_b", "dim_b_sk").unwrap();
        catalog
    }

    fn spec() -> QuerySpec {
        QuerySpec::new("q1")
            .table("fact")
            .table("dim_a")
            .table("dim_b")
            .join("fact", "dim_a_sk", "dim_a", "dim_a_sk")
            .join("fact", "dim_b_sk", "dim_b", "dim_b_sk")
            .predicate(
                "dim_a",
                ColumnPredicate::new("dim_a_category", CompareOp::Eq, 3i64),
            )
    }

    #[test]
    fn builds_star_graph_with_stats() {
        let catalog = catalog();
        let graph = spec().to_join_graph(&catalog).unwrap();
        assert_eq!(graph.num_relations(), 3);
        assert_eq!(graph.edges().len(), 2);
        let fact = graph.relation_by_name("fact").unwrap();
        let dim_a = graph.relation_by_name("dim_a").unwrap();
        assert_eq!(graph.relation(fact).base_rows, 10_000.0);
        // The category predicate keeps roughly 1/10 of dim_a.
        let filtered = graph.relation(dim_a).filtered_rows;
        assert!(filtered > 2.0 && filtered < 30.0, "got {filtered}");
        // PKFK direction detected from declared primary keys.
        assert!(graph.points_to(fact, dim_a));
        assert_eq!(graph.clean_snowflake().map(|(f, _)| f), Some(fact));
    }

    #[test]
    fn unfiltered_tables_keep_base_cardinality() {
        let catalog = catalog();
        let graph = spec().to_join_graph(&catalog).unwrap();
        let dim_b = graph.relation_by_name("dim_b").unwrap();
        assert_eq!(
            graph.relation(dim_b).base_rows,
            graph.relation(dim_b).filtered_rows
        );
    }

    #[test]
    fn missing_table_is_an_error() {
        let catalog = catalog();
        let bad = QuerySpec::new("bad").table("nope");
        assert!(matches!(
            bad.to_join_graph(&catalog),
            Err(StorageError::TableNotFound { .. })
        ));
    }

    #[test]
    fn missing_predicate_column_is_an_error() {
        let catalog = catalog();
        let bad = QuerySpec::new("bad")
            .table("fact")
            .predicate("fact", ColumnPredicate::new("missing", CompareOp::Eq, 1i64));
        assert!(matches!(
            bad.to_join_graph(&catalog),
            Err(StorageError::ColumnNotFound { .. })
        ));
    }

    #[test]
    fn missing_join_column_is_an_error() {
        let catalog = catalog();
        let bad = QuerySpec::new("bad")
            .table("fact")
            .table("dim_a")
            .join("fact", "nope", "dim_a", "dim_a_sk");
        assert!(matches!(
            bad.to_join_graph(&catalog),
            Err(StorageError::ColumnNotFound { .. })
        ));
    }

    #[test]
    fn join_referencing_unlisted_table_is_an_error() {
        let catalog = catalog();
        let bad = QuerySpec::new("bad")
            .table("fact")
            .join("fact", "dim_a_sk", "dim_a", "dim_a_sk");
        assert!(bad.to_join_graph(&catalog).is_err());
    }

    #[test]
    fn num_joins_reports_spec_size() {
        assert_eq!(spec().num_joins(), 2);
    }

    fn param_spec() -> QuerySpec {
        QuerySpec::new("pq")
            .table("fact")
            .table("dim_a")
            .join("fact", "dim_a_sk", "dim_a", "dim_a_sk")
            .param_predicate("dim_a", "dim_a_category", CompareOp::Eq, "cat")
    }

    #[test]
    fn parameterized_spec_reports_its_params() {
        let spec = param_spec();
        assert!(spec.is_parameterized());
        assert_eq!(spec.param_names(), vec!["cat"]);
        assert!(!self::spec().is_parameterized());
        assert!(self::spec().param_names().is_empty());
    }

    #[test]
    fn bind_produces_an_executable_spec() {
        let catalog = catalog();
        let spec = param_spec();
        // Unbound specs do not resolve.
        assert!(matches!(
            spec.to_join_graph(&catalog),
            Err(StorageError::UnboundParameter { ref name }) if name == "cat"
        ));
        // Bound specs resolve with the selectivity of the bound literal.
        let bound = spec.bind(&Params::new().set("cat", 3i64)).unwrap();
        assert!(!bound.is_parameterized());
        let graph = bound.to_join_graph(&catalog).unwrap();
        let dim_a = graph.relation_by_name("dim_a").unwrap();
        assert!(graph.relation(dim_a).filtered_rows < graph.relation(dim_a).base_rows);
    }

    #[test]
    fn bind_rejects_missing_and_unknown_params() {
        let spec = param_spec();
        assert!(matches!(
            spec.bind(&Params::new()),
            Err(StorageError::UnboundParameter { .. })
        ));
        let err = spec
            .bind(&Params::new().set("cat", 1i64).set("typo", 2i64))
            .unwrap_err();
        assert!(matches!(err, StorageError::InvalidArgument(ref m) if m.contains("typo")));
    }
}
