//! Query fingerprints for plan caching.
//!
//! A fingerprint is a normalized textual rendering of a [`QuerySpec`]'s
//! *structure*: which tables are joined how, and which predicate shapes
//! restrict them. Tables, joins and predicates are sorted so that two specs
//! describing the same query in different order fingerprint identically, and
//! the query *name* is excluded (it is a label, not semantics). Parameter
//! placeholders are rendered by name (`$p`), so every bind of the same
//! template shares one fingerprint — the serving-side plan cache then decides
//! per bind whether the cached plan's selectivity envelope still covers the
//! bound values.
//!
//! The rendering is injective: every free-form string (table name, column
//! name, string literal, parameter name) has each character the rendering
//! uses as a delimiter escaped, so two different queries never share a
//! fingerprint — and with it a cached plan — whatever their names contain.
//!
//! Because physical plans reference relations by positional
//! [`crate::RelId`] — assigned by [`QuerySpec::to_join_graph`] in `.table()`
//! insertion order — a plan cached under an order-invariant fingerprint is
//! only directly valid for graphs that number the relations identically.
//! Anything that serves cached plans across reordered specs must renumber
//! them first ([`crate::PhysicalPlan::remap_relations`], driven by relation
//! names).

use crate::builder::{JoinCondition, QuerySpec};
use crate::predicate::{ColumnPredicate, PredicateValue};
use bqo_storage::Value;
use std::fmt::Write;
use std::ops::Range;

/// The characters the rendering gives structure with: the escape character
/// itself, the list separator `,`, the section brackets, the `.` between a
/// table and its column, and the comparison characters (`=` also joins the
/// two sides of a join).
fn is_delimiter(c: char) -> bool {
    matches!(c, '\\' | ',' | '[' | ']' | '.' | '=' | '<' | '>')
}

/// Appends `s` with every delimiter escaped. Without this, a crafted `Utf8`
/// literal such as `"x,t.d=s:y"` would render like two predicates, and the
/// join `t."a=u.b" = u."c"` like `t."a" = u."b=u.c"`.
fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    // Delimiters are ASCII, so `at` is the byte index of a one-byte char.
    while let Some(at) = rest.find(is_delimiter) {
        out.push_str(&rest[..at]);
        out.push('\\');
        out.push_str(&rest[at..=at]);
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Appends a value with a type tag, so that e.g. `Int64(3)` and
/// `Float64(3.0)` (which both display as `3`) cannot collide.
fn render_value(out: &mut String, value: &PredicateValue) {
    // Writing to a `String` cannot fail.
    let _ = match value {
        PredicateValue::Literal(Value::Int64(v)) => write!(out, "i:{v}"),
        PredicateValue::Literal(Value::Float64(v)) => write!(out, "f:{v}"),
        PredicateValue::Literal(Value::Bool(v)) => write!(out, "b:{v}"),
        PredicateValue::Literal(Value::Utf8(v)) => {
            out.push_str("s:");
            escape_into(out, v);
            Ok(())
        }
        PredicateValue::Param(name) => {
            out.push('$');
            escape_into(out, name);
            Ok(())
        }
    };
}

/// Appends `table.column=table.column`, the lexicographically smaller
/// `(table, column)` side first: a join is symmetric.
fn render_join(out: &mut String, j: &JoinCondition) {
    let mut sides = [
        (&*j.left_table, &*j.left_column),
        (&*j.right_table, &*j.right_column),
    ];
    sides.sort_unstable();
    for (i, (table, column)) in sides.into_iter().enumerate() {
        if i > 0 {
            out.push('=');
        }
        escape_into(out, table);
        out.push('.');
        escape_into(out, column);
    }
}

/// Appends `table.column<op><value>`.
fn render_predicate(out: &mut String, table: &str, p: &ColumnPredicate) {
    escape_into(out, table);
    out.push('.');
    escape_into(out, &p.column);
    out.push_str(p.op.symbol());
    render_value(out, &p.value);
}

/// Renders one element at the end of `buffer` and returns where it lies.
fn render_into(buffer: &mut String, render: impl FnOnce(&mut String)) -> Range<usize> {
    let start = buffer.len();
    render(buffer);
    start..buffer.len()
}

/// Appends the elements of `buffer` at `ranges`, comma-separated.
fn push_list(out: &mut String, buffer: &str, ranges: &[Range<usize>]) {
    for (i, range) in ranges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&buffer[range.clone()]);
    }
}

impl QuerySpec {
    /// The canonical fingerprint of this query's structure.
    ///
    /// Invariant under table order, join order, join side order and predicate
    /// order: tables are sorted (and deduplicated) by name, joins and
    /// predicates by their rendering. Parameter placeholders are rendered by
    /// name while literal bounds are rendered by (type-tagged) value. Every
    /// join and predicate is rendered once, into one buffer, and sorted there.
    /// Suitable as a plan-cache key together with the optimizer choice (a
    /// cache serves one engine, so one catalog).
    pub fn fingerprint(&self) -> String {
        let mut tables: Vec<&str> = self.tables.iter().map(|t| &**t).collect();
        tables.sort_unstable();
        tables.dedup();

        let mut rendered = String::new();
        let mut joins: Vec<Range<usize>> = self
            .joins
            .iter()
            .map(|j| render_into(&mut rendered, |out| render_join(out, j)))
            .collect();
        let mut predicates = Vec::new();
        for (table, preds) in &self.predicates {
            for p in preds {
                predicates.push(render_into(&mut rendered, |out| {
                    render_predicate(out, table, p)
                }));
            }
        }
        let by_text =
            |a: &Range<usize>, b: &Range<usize>| rendered[a.clone()].cmp(&rendered[b.clone()]);
        joins.sort_unstable_by(by_text);
        predicates.sort_unstable_by(by_text);

        // Room for the names, the rendered elements and the separators.
        let names: usize = tables.iter().map(|t| t.len() + 1).sum();
        let mut out =
            String::with_capacity(names + rendered.len() + joins.len() + predicates.len() + 12);
        out.push_str("T[");
        for (i, table) in tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, table);
        }
        out.push_str("] J[");
        push_list(&mut out, &rendered, &joins);
        out.push_str("] P[");
        push_list(&mut out, &rendered, &predicates);
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{ColumnPredicate, CompareOp, Params};

    fn base() -> QuerySpec {
        QuerySpec::new("q1")
            .table("fact")
            .table("dim_a")
            .table("dim_b")
            .join("fact", "a_sk", "dim_a", "sk")
            .join("fact", "b_sk", "dim_b", "sk")
            .predicate("dim_a", ColumnPredicate::new("cat", CompareOp::Eq, 3i64))
            .predicate("dim_b", ColumnPredicate::new("flag", CompareOp::Lt, 2i64))
    }

    #[test]
    fn stable_under_table_join_and_predicate_order() {
        let reordered = QuerySpec::new("something_else")
            .table("dim_b")
            .table("fact")
            .table("dim_a")
            // Join sides and order swapped.
            .join("dim_b", "sk", "fact", "b_sk")
            .join("fact", "a_sk", "dim_a", "sk")
            .predicate("dim_b", ColumnPredicate::new("flag", CompareOp::Lt, 2i64))
            .predicate("dim_a", ColumnPredicate::new("cat", CompareOp::Eq, 3i64));
        assert_eq!(base().fingerprint(), reordered.fingerprint());
    }

    #[test]
    fn name_is_not_part_of_the_fingerprint() {
        let mut renamed = base();
        renamed.name = "renamed".into();
        assert_eq!(base().fingerprint(), renamed.fingerprint());
    }

    #[test]
    fn literal_values_and_ops_distinguish_queries() {
        let other_value = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c", CompareOp::Eq, 3i64));
        let other_value2 = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c", CompareOp::Eq, 4i64));
        let other_op = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c", CompareOp::Lt, 3i64));
        assert_ne!(other_value.fingerprint(), other_value2.fingerprint());
        assert_ne!(other_value.fingerprint(), other_op.fingerprint());
        // Int64(3) and Float64(3.0) must not collide either.
        let as_float = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c", CompareOp::Eq, 3.0f64));
        assert_ne!(other_value.fingerprint(), as_float.fingerprint());
    }

    #[test]
    fn crafted_string_literals_cannot_collide_fingerprints() {
        // Two predicates on `t` versus one predicate whose string literal
        // embeds the rendering of the second — without escaping these
        // produce the same fingerprint and would share a cache entry.
        let two = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c", CompareOp::Eq, "x"))
            .predicate("t", ColumnPredicate::new("d", CompareOp::Eq, "y"));
        let forged = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c", CompareOp::Eq, "x,t.d=s:y"));
        assert_ne!(two.fingerprint(), forged.fingerprint());
        // Escape round-trips: escaped characters stay distinguishable.
        let bracket = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c", CompareOp::Eq, "a] J[b"));
        let plain = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c", CompareOp::Eq, "a J b"));
        assert_ne!(bracket.fingerprint(), plain.fingerprint());
        // Backslashes in literals cannot masquerade as escape sequences.
        let backslash = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c", CompareOp::Eq, "a\\,b"));
        let comma = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c", CompareOp::Eq, "a,b"));
        assert_ne!(backslash.fingerprint(), comma.fingerprint());
        // Column names that embed the join rendering's `.` and `=`: without
        // escaping both render as `t.a=u.b=u.c`.
        let first = QuerySpec::new("q")
            .table("t")
            .table("u")
            .join("t", "a=u.b", "u", "c");
        let second = QuerySpec::new("q")
            .table("t")
            .table("u")
            .join("t", "a", "u", "b=u.c");
        assert_ne!(first.fingerprint(), second.fingerprint());
        // And a column name that embeds a comparison.
        let lt = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c<", CompareOp::Eq, 1i64));
        let le = QuerySpec::new("q")
            .table("t")
            .predicate("t", ColumnPredicate::new("c", CompareOp::Le, 1i64));
        assert_ne!(lt.fingerprint(), le.fingerprint());
    }

    #[test]
    fn params_fingerprint_by_name_not_by_bound_value() {
        let template =
            QuerySpec::new("q")
                .table("t")
                .param_predicate("t", "c", CompareOp::Lt, "bound");
        let fp = template.fingerprint();
        assert!(fp.contains("$bound"), "{fp}");
        // The *template* fingerprint is what the plan cache keys on: two
        // different binds share it.
        assert_eq!(fp, template.fingerprint());
        // A bound spec fingerprints by its literal instead.
        let bound = template.bind(&Params::new().set("bound", 5i64)).unwrap();
        assert!(
            bound.fingerprint().contains("i:5"),
            "{}",
            bound.fingerprint()
        );
        assert_ne!(fp, bound.fingerprint());
    }
}
