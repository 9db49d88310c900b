//! Binds a parsed [`SelectStatement`] against a [`Catalog`] and lowers it to
//! the planner's [`QuerySpec`].
//!
//! The binder resolves table names and aliases, resolves (possibly
//! unqualified) column references, type-checks `WHERE` literals against
//! column types, and rejects everything the execution engine cannot run
//! (self-joins, non-equi joins) — all with spanned caret diagnostics.
//!
//! Lowering notes:
//!
//! * Tables enter the [`QuerySpec`] in `FROM`/`JOIN` order. Physical plans
//!   number relations positionally, so a SQL query and a hand-built spec
//!   listing the same tables in the same order produce bit-identical result
//!   batches.
//! * The projection is name-resolved and validated, but the engine's
//!   pipeline has no projection operator yet: execution returns the full
//!   joined row. `SELECT a, b` therefore validates `a` and `b` and executes
//!   like `SELECT *`.
//! * `$param` placeholders lower to parameterized predicates; binding them
//!   (`Engine::bind_sql`) re-derives selectivities for the bound literals
//!   exactly like hand-built templates.

use crate::ast::{ColumnName, Projection, ScalarValue, SelectStatement, TableRef};
use crate::error::{SqlError, SqlErrorKind};
use crate::parser::parse;
use bqo_plan::{ColumnPredicate, QuerySpec};
use bqo_storage::{Catalog, DataType, Field, TableMeta};
use std::sync::Arc;

/// Parses and binds `sql`, returning the lowered [`QuerySpec`]. The spec is
/// named with [`query_label`]`(sql)`.
pub fn lower(sql: &str, catalog: &Catalog) -> Result<QuerySpec, SqlError> {
    let stmt = parse(sql)?;
    bind(sql, &stmt, catalog)
}

/// A compact, single-line label for a SQL query: whitespace collapsed and
/// truncated to 64 characters. Used as the lowered spec's name, so errors
/// and stats quote the query itself. Reads the text only until the 65th
/// label character, so a long query costs no more than a short one.
pub fn query_label(sql: &str) -> String {
    const MAX_CHARS: usize = 64;
    let collapsed = sql
        .split_whitespace()
        .enumerate()
        .flat_map(|(i, word)| (i > 0).then_some(' ').into_iter().chain(word.chars()));
    let label: String = collapsed.take(MAX_CHARS + 1).collect();
    if label.chars().count() > MAX_CHARS {
        let mut truncated: String = label.chars().take(MAX_CHARS - 3).collect();
        truncated.push_str("...");
        truncated
    } else {
        label
    }
}

/// One in-scope table: its exposed name (alias or table name) and the
/// catalog entry it stands for.
struct ScopeEntry<'a> {
    exposed: &'a str,
    meta: &'a TableMeta,
}

/// A resolved column reference: the catalog's table entry and schema field,
/// whose `Arc<str>` names the lowered spec shares.
struct Resolved<'a> {
    table: &'a TableMeta,
    field: &'a Field,
}

struct Binder<'a> {
    sql: &'a str,
    catalog: &'a Catalog,
    scope: Vec<ScopeEntry<'a>>,
}

impl<'a> Binder<'a> {
    fn error(&self, kind: SqlErrorKind, span: crate::error::Span) -> SqlError {
        SqlError::new(kind, span, self.sql)
    }

    /// Checks the table exists and its exposed name is fresh, then adds it
    /// to the scope and returns its catalog entry.
    fn add_table(&mut self, tref: &TableRef<'a>) -> Result<&'a TableMeta, SqlError> {
        let table = tref.table.text;
        let Ok(meta) = self.catalog.table_meta(table) else {
            return Err(self.error(
                SqlErrorKind::UnknownTable {
                    name: table.to_string(),
                },
                tref.table.span,
            ));
        };
        let exposed = tref.exposed_name();
        if self.scope.iter().any(|e| e.exposed == exposed.text) {
            return Err(self.error(
                SqlErrorKind::DuplicateAlias {
                    name: exposed.text.to_string(),
                },
                exposed.span,
            ));
        }
        if self.scope.iter().any(|e| *e.meta.name == *table) {
            return Err(self.error(
                SqlErrorKind::DuplicateTable {
                    name: table.to_string(),
                },
                tref.table.span,
            ));
        }
        self.scope.push(ScopeEntry {
            exposed: exposed.text,
            meta,
        });
        Ok(meta)
    }

    /// Resolves a (possibly qualified) column reference to the catalog's
    /// table entry and field.
    fn resolve_column(&self, name: &ColumnName<'_>) -> Result<Resolved<'a>, SqlError> {
        let column = name.column.text;
        if let Some(qualifier) = &name.qualifier {
            let entry = self
                .scope
                .iter()
                .find(|e| e.exposed == qualifier.text)
                .ok_or_else(|| {
                    self.error(
                        SqlErrorKind::UnknownTable {
                            name: qualifier.text.to_string(),
                        },
                        qualifier.span,
                    )
                })?;
            let Some(field) = entry.meta.schema().field(column) else {
                return Err(self.error(
                    SqlErrorKind::UnknownColumn {
                        name: column.to_string(),
                        table: Some(entry.meta.name.to_string()),
                    },
                    name.column.span,
                ));
            };
            return Ok(Resolved {
                table: entry.meta,
                field,
            });
        }
        let mut candidates = self.scope.iter().filter_map(|e| {
            let field = e.meta.schema().field(column)?;
            Some(Resolved {
                table: e.meta,
                field,
            })
        });
        match (candidates.next(), candidates.next()) {
            (None, _) => Err(self.error(
                SqlErrorKind::UnknownColumn {
                    name: column.to_string(),
                    table: None,
                },
                name.column.span,
            )),
            (Some(only), None) => Ok(only),
            (Some(first), Some(second)) => Err(self.error(
                SqlErrorKind::AmbiguousColumn {
                    name: column.to_string(),
                    candidates: [first, second]
                        .into_iter()
                        .chain(candidates)
                        .map(|c| c.table.name.to_string())
                        .collect(),
                },
                name.column.span,
            )),
        }
    }
}

/// Numeric types compare across each other (the predicate kernels evaluate
/// `Int64` columns against `Float64` literals and vice versa); everything
/// else must match exactly.
fn types_compatible(column: DataType, literal: DataType) -> bool {
    let numeric = |t: DataType| matches!(t, DataType::Int64 | DataType::Float64);
    column == literal || (numeric(column) && numeric(literal))
}

/// Binds a parsed statement against `catalog`. Exposed for callers that
/// already hold an AST; most should use [`lower`]. Every table and column
/// name in the returned spec is the catalog's own `Arc<str>`.
pub fn bind(
    sql: &str,
    stmt: &SelectStatement<'_>,
    catalog: &Catalog,
) -> Result<QuerySpec, SqlError> {
    let mut binder = Binder {
        sql,
        catalog,
        scope: Vec::with_capacity(1 + stmt.joins.len()),
    };

    let mut spec = QuerySpec::new(query_label(sql));
    spec.tables.reserve_exact(1 + stmt.joins.len());
    spec.joins
        .reserve_exact(stmt.joins.iter().map(|j| j.conditions.len()).sum());

    let from = binder.add_table(&stmt.from)?;
    spec = spec.table(Arc::clone(&from.name));

    for join in &stmt.joins {
        // The joined table enters the scope before its ON conditions are
        // bound, so conditions may reference it and every earlier table —
        // but not tables joined later.
        let joined = binder.add_table(&join.table)?;
        spec = spec.table(Arc::clone(&joined.name));
        for condition in &join.conditions {
            let left = binder.resolve_column(&condition.left)?;
            let right = binder.resolve_column(&condition.right)?;
            if left.table.name == right.table.name {
                return Err(binder.error(
                    SqlErrorKind::InvalidJoin(format!(
                        "join condition relates table `{}` to itself; \
                         the two sides must come from different tables",
                        left.table.name
                    )),
                    condition.span(),
                ));
            }
            spec = spec.join(
                Arc::clone(&left.table.name),
                Arc::clone(&left.field.name),
                Arc::clone(&right.table.name),
                Arc::clone(&right.field.name),
            );
        }
    }

    if let Projection::Columns(columns) = &stmt.projection {
        for column in columns {
            binder.resolve_column(column)?;
        }
    }

    for predicate in &stmt.selection {
        let Resolved { table, field } = binder.resolve_column(&predicate.column)?;
        let column = Arc::clone(&field.name);
        match &predicate.value.value {
            ScalarValue::Literal(value) => {
                let literal_type = value.data_type();
                if !types_compatible(field.data_type, literal_type) {
                    return Err(binder.error(
                        SqlErrorKind::TypeMismatch {
                            column: column.to_string(),
                            expected: field.data_type,
                            found: literal_type,
                        },
                        predicate.value.span,
                    ));
                }
                spec = spec.predicate(
                    Arc::clone(&table.name),
                    ColumnPredicate::new(column, predicate.op, value.clone()),
                );
            }
            ScalarValue::Param(name) => {
                spec = spec.param_predicate(Arc::clone(&table.name), column, predicate.op, *name);
            }
        }
    }

    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_plan::{CompareOp, Params, PredicateValue};
    use bqo_storage::{TableBuilder, Value};

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.register_table(
            TableBuilder::new("item")
                .with_i64("item_sk", vec![0, 1, 2])
                .with_f64("price", vec![1.0, 2.0, 3.0])
                .with_utf8("label", vec!["a".into(), "b".into(), "c".into()])
                .build()
                .unwrap(),
        );
        catalog.register_table(
            TableBuilder::new("sales")
                .with_i64("item_sk", vec![0, 1, 1])
                .with_i64("qty", vec![5, 6, 7])
                .with_bool("returned", vec![false, true, false])
                .build()
                .unwrap(),
        );
        catalog.declare_primary_key("item", "item_sk").unwrap();
        catalog
    }

    #[test]
    fn lowers_joins_predicates_and_params_in_order() {
        let catalog = catalog();
        let spec = lower(
            "SELECT * FROM sales AS s JOIN item i ON s.item_sk = i.item_sk \
             WHERE i.price < 2.5 AND qty >= $min AND returned = FALSE",
            &catalog,
        )
        .unwrap();
        assert_eq!(spec.tables, vec!["sales".into(), "item".into()]);
        assert_eq!(spec.joins.len(), 1);
        assert_eq!(&*spec.joins[0].left_table, "sales");
        assert_eq!(&*spec.joins[0].right_table, "item");
        let item_preds = &spec.predicates["item"];
        assert_eq!(item_preds.len(), 1);
        assert_eq!(item_preds[0].op, CompareOp::Lt);
        let sales_preds = &spec.predicates["sales"];
        assert_eq!(sales_preds.len(), 2);
        assert_eq!(
            sales_preds[0].value,
            PredicateValue::Param("min".to_string())
        );
        assert_eq!(
            sales_preds[1].value,
            PredicateValue::Literal(Value::Bool(false))
        );
        // The template binds like any hand-built parameterized spec.
        assert!(spec.is_parameterized());
        let bound = spec.bind(&Params::new().set("min", 6i64)).unwrap();
        assert!(!bound.is_parameterized());
    }

    #[test]
    fn unqualified_columns_resolve_and_ambiguity_is_rejected() {
        let catalog = catalog();
        // `price` exists only in item: resolves unqualified.
        let spec = lower(
            "SELECT * FROM sales JOIN item ON sales.item_sk = item.item_sk WHERE price > 1.5",
            &catalog,
        )
        .unwrap();
        assert!(spec.predicates.contains_key("item"));
        // `item_sk` exists in both: ambiguous.
        let err = lower(
            "SELECT * FROM sales JOIN item ON sales.item_sk = item.item_sk WHERE item_sk = 1",
            &catalog,
        )
        .unwrap_err();
        assert!(
            matches!(err.kind(), SqlErrorKind::AmbiguousColumn { name, candidates }
                if name == "item_sk" && candidates.len() == 2),
            "{err}"
        );
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn name_resolution_errors_are_specific() {
        let catalog = catalog();
        let err = lower("SELECT * FROM nope", &catalog).unwrap_err();
        assert!(matches!(err.kind(), SqlErrorKind::UnknownTable { name } if name == "nope"));
        let err = lower("SELECT * FROM item WHERE missing = 1", &catalog).unwrap_err();
        assert!(
            matches!(err.kind(), SqlErrorKind::UnknownColumn { name, table: None } if name == "missing")
        );
        let err = lower("SELECT * FROM item WHERE item.missing = 1", &catalog).unwrap_err();
        assert!(matches!(
            err.kind(),
            SqlErrorKind::UnknownColumn { table: Some(t), .. } if t == "item"
        ));
        let err = lower("SELECT * FROM item WHERE ghost.price = 1", &catalog).unwrap_err();
        assert!(matches!(err.kind(), SqlErrorKind::UnknownTable { name } if name == "ghost"));
        let err = lower("SELECT ghost FROM item", &catalog).unwrap_err();
        assert!(matches!(err.kind(), SqlErrorKind::UnknownColumn { .. }));
    }

    #[test]
    fn duplicate_aliases_and_self_joins_are_rejected() {
        let catalog = catalog();
        let err = lower(
            "SELECT * FROM sales AS t JOIN item AS t ON t.item_sk = t.item_sk",
            &catalog,
        )
        .unwrap_err();
        assert!(matches!(err.kind(), SqlErrorKind::DuplicateAlias { name } if name == "t"));
        let err = lower(
            "SELECT * FROM item AS a JOIN item AS b ON a.item_sk = b.item_sk",
            &catalog,
        )
        .unwrap_err();
        assert!(matches!(err.kind(), SqlErrorKind::DuplicateTable { name } if name == "item"));
        let err = lower(
            "SELECT * FROM sales JOIN item ON sales.item_sk = sales.qty",
            &catalog,
        )
        .unwrap_err();
        assert!(matches!(err.kind(), SqlErrorKind::InvalidJoin(_)), "{err}");
    }

    #[test]
    fn literal_types_are_checked() {
        let catalog = catalog();
        // Numeric cross-typing is allowed both ways.
        assert!(lower("SELECT * FROM item WHERE price < 2", &catalog).is_ok());
        assert!(lower("SELECT * FROM sales WHERE qty < 2.5", &catalog).is_ok());
        // Anything else is a spanned type mismatch.
        let err = lower("SELECT * FROM item WHERE price = 'cheap'", &catalog).unwrap_err();
        assert!(
            matches!(err.kind(), SqlErrorKind::TypeMismatch { column, .. } if column == "price"),
            "{err}"
        );
        assert!(err.to_string().contains("type mismatch"), "{err}");
        let err = lower("SELECT * FROM sales WHERE returned = 1", &catalog).unwrap_err();
        assert!(matches!(err.kind(), SqlErrorKind::TypeMismatch { .. }));
        let err = lower("SELECT * FROM item WHERE label = TRUE", &catalog).unwrap_err();
        assert!(matches!(err.kind(), SqlErrorKind::TypeMismatch { .. }));
    }

    #[test]
    fn on_conditions_cannot_reference_later_tables() {
        let catalog = catalog();
        let err = lower(
            "SELECT * FROM sales JOIN item ON sales.item_sk = store.item_sk",
            &catalog,
        )
        .unwrap_err();
        assert!(matches!(err.kind(), SqlErrorKind::UnknownTable { name } if name == "store"));
    }

    #[test]
    fn query_label_collapses_and_truncates() {
        assert_eq!(query_label("  SELECT *\n  FROM t  "), "SELECT * FROM t");
        let long = format!("SELECT * FROM t WHERE {}", "x = 1 AND ".repeat(20));
        let label = query_label(&long);
        assert_eq!(label.chars().count(), 64);
        assert!(label.ends_with("..."));
    }

    /// The label before it stopped reading early: the whole text collapsed,
    /// then cut.
    fn reference_query_label(sql: &str) -> String {
        let mut label = String::new();
        for word in sql.split_whitespace() {
            if !label.is_empty() {
                label.push(' ');
            }
            label.push_str(word);
        }
        if label.chars().count() > 64 {
            let mut truncated: String = label.chars().take(61).collect();
            truncated.push_str("...");
            truncated
        } else {
            label
        }
    }

    #[test]
    fn query_label_reads_a_bounded_prefix_and_labels_as_before() {
        let word = "é€😀 ";
        let mut inputs: Vec<String> = vec![
            String::new(),
            " \t\n ".into(),
            "SELECT".into(),
            "SELECT *\n\n\tFROM t".into(),
            format!("SELECT * FROM t WHERE {}", "x = 1 AND ".repeat(400)),
            format!("{}SELECT{}*", " \n".repeat(300), "\t ".repeat(300)),
        ];
        // Every length around the cut, in one- to four-byte characters and
        // with runs of whitespace.
        for len in 55..75 {
            inputs.push("a".repeat(len));
            inputs.push(word.repeat(len / 4 + 1).chars().take(len).collect());
            inputs.push("ab  \n ".repeat(len / 3));
            inputs.push(format!("{} {}", "x".repeat(len - 2), "😀"));
        }
        for sql in &inputs {
            assert_eq!(query_label(sql), reference_query_label(sql), "{sql:?}");
        }
    }
}
