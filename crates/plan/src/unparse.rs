//! Unparsing: renders a [`QuerySpec`] back to SQL text.
//!
//! The round-trip contract (exercised by the `sql_roundtrip` fuzzer in the
//! integration-test crate) is: for a spec whose identifiers are plain SQL
//! identifiers and whose joins reference listed tables,
//! `lower(spec.to_sql(), catalog)` produces a spec with the *same table
//! order* (physical plans number relations positionally, so this makes the
//! round-tripped query's result batches bit-identical), the same joins and
//! predicates, and therefore an identical [`QuerySpec::fingerprint`].
//!
//! Rendering rules:
//!
//! * Tables are emitted in `self.tables` order: the first in `FROM`, each
//!   subsequent one as a `JOIN` clause. A join condition is attached to the
//!   clause of its *later-introduced* endpoint; a table with no conditions
//!   attached becomes a `CROSS JOIN`.
//! * `Float64` literals always render with a fractional part or exponent
//!   (`3.0`, not `3`), so the parser reproduces the same [`Value`] variant
//!   and the fingerprint's `i:`/`f:` type tags survive the round trip.
//! * Strings are single-quoted with `''` escaping; parameters render as
//!   `$name`.

use crate::builder::QuerySpec;
use crate::predicate::PredicateValue;
use bqo_storage::Value;
use std::collections::HashMap;
use std::fmt;

/// Renders a literal the lexer will read back as the same [`Value`].
fn render_value(value: &Value) -> String {
    match value {
        Value::Int64(v) => v.to_string(),
        // `{:?}` keeps a fractional part or exponent (`3.0`, `1e-9`), which
        // `{}` would drop for whole floats.
        Value::Float64(v) => format!("{v:?}"),
        Value::Utf8(v) => format!("'{}'", v.replace('\'', "''")),
        Value::Bool(true) => "TRUE".to_string(),
        Value::Bool(false) => "FALSE".to_string(),
    }
}

fn render_predicate_value(value: &PredicateValue) -> String {
    match value {
        PredicateValue::Literal(v) => render_value(v),
        PredicateValue::Param(name) => format!("${name}"),
    }
}

impl QuerySpec {
    /// Renders this spec as a SQL `SELECT` statement (see the module docs
    /// for the round-trip contract). Joins referencing tables absent from
    /// [`QuerySpec::tables`] are attached to the last join clause (such a
    /// spec does not resolve against any catalog; the rendering preserves
    /// the dangling reference so the error survives the round trip).
    pub fn to_sql(&self) -> String {
        if self.tables.is_empty() {
            return "SELECT *".to_string();
        }
        let position: HashMap<&str, usize> = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| (&**t, i))
            .collect();
        // conditions[i] holds the ON conjuncts of the clause joining
        // tables[i]; index 0 (the FROM table) stays empty for well-formed
        // specs.
        let mut conditions: Vec<Vec<String>> = vec![Vec::new(); self.tables.len()];
        for join in &self.joins {
            let left = position.get(&*join.left_table);
            let right = position.get(&*join.right_table);
            let clause = match (left, right) {
                (Some(&l), Some(&r)) => l.max(r).max(1),
                _ => self.tables.len() - 1,
            };
            conditions[clause.min(self.tables.len() - 1)].push(format!(
                "{}.{} = {}.{}",
                join.left_table, join.left_column, join.right_table, join.right_column
            ));
        }

        let mut sql = format!("SELECT * FROM {}", self.tables[0]);
        for (i, table) in self.tables.iter().enumerate().skip(1) {
            if conditions[i].is_empty() {
                sql.push_str(&format!(" CROSS JOIN {table}"));
            } else {
                sql.push_str(&format!(" JOIN {table} ON {}", conditions[i].join(" AND ")));
            }
        }

        let mut predicates = Vec::new();
        for table in &self.tables {
            if let Some(preds) = self.predicates.get(table) {
                for p in preds {
                    predicates.push(format!(
                        "{table}.{} {} {}",
                        p.column,
                        p.op.symbol(),
                        render_predicate_value(&p.value)
                    ));
                }
            }
        }
        // Predicates on tables not listed in `tables` cannot be rendered
        // against a FROM item; they are also unreachable through
        // `to_join_graph` (it only reads predicates of listed tables), so
        // they are dropped.
        if !predicates.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&predicates.join(" AND "));
        }
        sql
    }
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{ColumnPredicate, CompareOp};

    #[test]
    fn renders_the_motivating_shape() {
        let spec = QuerySpec::new("q")
            .table("fact")
            .table("dim_a")
            .table("dim_b")
            .join("fact", "a_sk", "dim_a", "a_sk")
            .join("fact", "b_sk", "dim_b", "b_sk")
            .predicate("dim_a", ColumnPredicate::new("cat", CompareOp::Eq, 3i64))
            .param_predicate("dim_b", "flag", CompareOp::Lt, "cap");
        assert_eq!(
            spec.to_sql(),
            "SELECT * FROM fact \
             JOIN dim_a ON fact.a_sk = dim_a.a_sk \
             JOIN dim_b ON fact.b_sk = dim_b.b_sk \
             WHERE dim_a.cat = 3 AND dim_b.flag < $cap"
        );
        assert_eq!(spec.to_string(), spec.to_sql());
    }

    #[test]
    fn join_attaches_to_the_later_endpoint_and_cross_join_fills_gaps() {
        // dim introduced second with no condition of its own; the fact-dim
        // join mentions it, so the condition attaches to dim's clause even
        // though fact comes first in the join's rendering.
        let spec = QuerySpec::new("q")
            .table("dim")
            .table("fact")
            .join("fact", "d_sk", "dim", "sk");
        assert_eq!(
            spec.to_sql(),
            "SELECT * FROM dim JOIN fact ON fact.d_sk = dim.sk"
        );
        // No join touches `lonely`: it renders as CROSS JOIN.
        let spec = QuerySpec::new("q")
            .table("a")
            .table("lonely")
            .table("b")
            .join("a", "x", "b", "x");
        assert_eq!(
            spec.to_sql(),
            "SELECT * FROM a CROSS JOIN lonely JOIN b ON a.x = b.x"
        );
    }

    #[test]
    fn literal_rendering_is_lossless() {
        let spec = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("f", CompareOp::Eq, 3.0f64))
            .predicate("t", ColumnPredicate::new("e", CompareOp::Gt, 1.5e300f64))
            .predicate("t", ColumnPredicate::new("i", CompareOp::NotEq, -7i64))
            .predicate("t", ColumnPredicate::new("s", CompareOp::Eq, "it's"))
            .predicate("t", ColumnPredicate::new("b", CompareOp::Eq, true));
        let sql = spec.to_sql();
        assert!(sql.contains("t.f = 3.0"), "{sql}");
        assert!(sql.contains("t.e > 1.5e300"), "{sql}");
        assert!(sql.contains("t.i <> -7"), "{sql}");
        assert!(sql.contains("t.s = 'it''s'"), "{sql}");
        assert!(sql.contains("t.b = TRUE"), "{sql}");
    }

    #[test]
    fn degenerate_specs_do_not_panic() {
        assert_eq!(QuerySpec::new("empty").to_sql(), "SELECT *");
        assert_eq!(QuerySpec::new("one").table("t").to_sql(), "SELECT * FROM t");
        // A join referencing an unlisted table lands on the last clause.
        let dangling = QuerySpec::new("q")
            .table("a")
            .table("b")
            .join("a", "x", "ghost", "x");
        assert_eq!(dangling.to_sql(), "SELECT * FROM a JOIN b ON a.x = ghost.x");
        // Even with a single table the rendering stays parseable SQL-wise.
        let single_dangling = QuerySpec::new("q").table("a").join("a", "x", "ghost", "x");
        assert_eq!(single_dangling.to_sql(), "SELECT * FROM a");
    }
}
