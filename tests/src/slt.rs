//! Parser and renderer for the sqllogictest-style conformance files in
//! `tests/slt/*.slt`.
//!
//! Each file holds a header (free-form comment lines) followed by cases.
//! A query case pairs a SQL string with a hand-built [`QuerySpec`] oracle and
//! the expected canonical result rows:
//!
//! ```text
//! case premium_sales
//! sql
//! SELECT * FROM sales JOIN item ON sales.item_sk = item.item_sk
//! WHERE item.price > 4.0
//! ----
//! spec
//! table sales
//! table item
//! join sales item_sk item item_sk
//! pred item price > f:4.0
//! ----
//! rows
//! item.item_sk=6|item.price=4.5|sales.item_sk=6|sales.qty=2
//! ----
//! ```
//!
//! An error case replaces the `spec`/`rows` sections with a single expected
//! diagnostic substring:
//!
//! ```text
//! case unknown_table
//! sql
//! SELECT * FROM nope
//! ----
//! error unknown table or alias `nope`
//! ----
//! ```
//!
//! Parameterized cases add `bind <name> <typed-value>` lines between the
//! spec and rows sections. Typed values are tagged `i:` (Int64), `f:`
//! (Float64, rendered with `{:?}` so `3.0` stays a float), `s:` (Utf8) and
//! `b:` (Bool).
//!
//! Expected rows use the canonical rendering of [`canonical_rows`]: each row
//! is its `table.column=value` cells sorted and joined with `|`, and the rows
//! themselves are sorted — making the expectation independent of join order
//! and thread count. [`SltFile::render`] writes a file back out, which is what
//! the harness's `BQO_SLT_BLESS=1` mode uses to refresh expectations from the
//! spec oracle.

use bqo_exec::Batch;
use bqo_plan::{ColumnPredicate, CompareOp, JoinGraph, PredicateValue, QuerySpec};
use bqo_storage::Value;
use std::fmt::Write as _;

/// One parsed `.slt` file: header comment lines plus its cases.
#[derive(Debug, Clone)]
pub struct SltFile {
    /// Verbatim lines before the first `case` directive.
    pub header: Vec<String>,
    /// The cases, in file order.
    pub cases: Vec<SltCase>,
}

/// A single conformance case.
#[derive(Debug, Clone)]
pub struct SltCase {
    /// Case name (also used as the oracle spec's query name).
    pub name: String,
    /// The SQL text under test, possibly spanning several lines.
    pub sql: String,
    /// What the case expects: rows (with an oracle spec) or an error.
    pub expect: SltExpect,
}

/// The expectation half of a case.
#[derive(Debug, Clone)]
pub enum SltExpect {
    /// The query must succeed: the SQL lowering must match `spec`
    /// bit-for-bit, and both must produce exactly `rows`.
    Query {
        /// Hand-built oracle spec, asserted equal to the SQL lowering.
        spec: QuerySpec,
        /// Parameter bindings applied to both the SQL and the oracle spec.
        binds: Vec<(String, Value)>,
        /// Expected canonical result rows (see [`canonical_rows`]).
        rows: Vec<String>,
    },
    /// Preparing the SQL must fail with a diagnostic containing `needle`.
    Error {
        /// Substring expected in the rendered error.
        needle: String,
    },
}

/// Renders a result batch into canonical, order-independent row strings.
///
/// Column headers come from the join graph (`relation.column`); each row's
/// cells are sorted, joined with `|`, and the rows sorted, so two batches
/// with the same logical content render identically regardless of column or
/// row order.
pub fn canonical_rows(graph: &JoinGraph, batch: &Batch) -> Vec<String> {
    let names: Vec<String> = batch
        .schema()
        .iter()
        .map(|c| format!("{}.{}", graph.relation(c.relation).name, c.column))
        .collect();
    let mut rows: Vec<String> = (0..batch.num_rows())
        .map(|r| {
            // Map the logical row through the selection vector (if any) so
            // selection-carrying batches render like their dense equivalents.
            let physical = batch.physical_row(r);
            let mut cells: Vec<String> = names
                .iter()
                .zip(batch.columns())
                .map(|(n, col)| format!("{n}={}", col.value(physical)))
                .collect();
            cells.sort();
            cells.join("|")
        })
        .collect();
    rows.sort();
    rows
}

/// Renders a value in the typed `i:`/`f:`/`s:`/`b:` notation.
pub fn render_typed(value: &Value) -> String {
    match value {
        Value::Int64(v) => format!("i:{v}"),
        Value::Float64(v) => format!("f:{v:?}"),
        Value::Utf8(v) => format!("s:{v}"),
        Value::Bool(v) => format!("b:{v}"),
    }
}

/// Parses a typed value (`i:3`, `f:2.5`, `s:acme`, `b:true`).
pub fn parse_typed(text: &str) -> Result<Value, String> {
    let (tag, rest) = text
        .split_once(':')
        .ok_or_else(|| format!("expected `tag:value`, got `{text}`"))?;
    match tag {
        "i" => rest
            .parse::<i64>()
            .map(Value::Int64)
            .map_err(|e| format!("bad i64 `{rest}`: {e}")),
        "f" => rest
            .parse::<f64>()
            .map(Value::Float64)
            .map_err(|e| format!("bad f64 `{rest}`: {e}")),
        "s" => Ok(Value::Utf8(rest.to_string())),
        "b" => rest
            .parse::<bool>()
            .map(Value::Bool)
            .map_err(|e| format!("bad bool `{rest}`: {e}")),
        other => Err(format!("unknown value tag `{other}` in `{text}`")),
    }
}

fn parse_op(text: &str) -> Result<CompareOp, String> {
    Ok(match text {
        "=" => CompareOp::Eq,
        "<>" | "!=" => CompareOp::NotEq,
        "<" => CompareOp::Lt,
        "<=" => CompareOp::Le,
        ">" => CompareOp::Gt,
        ">=" => CompareOp::Ge,
        other => return Err(format!("unknown comparison operator `{other}`")),
    })
}

struct Lines<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Lines<'a> {
    fn peek(&self) -> Option<&'a str> {
        self.lines.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<&'a str> {
        let line = self.peek()?;
        self.pos += 1;
        Some(line)
    }

    fn skip_blank(&mut self) {
        while matches!(self.peek(), Some(l) if l.trim().is_empty()) {
            self.pos += 1;
        }
    }

    fn err(&self, msg: impl Into<String>) -> String {
        // `pos` already sits past the offending (just-consumed) line.
        format!("line {}: {}", self.pos.max(1), msg.into())
    }
}

impl SltFile {
    /// Parses the textual `.slt` format (see module docs).
    pub fn parse(text: &str) -> Result<SltFile, String> {
        let mut lines = Lines {
            lines: text.lines().collect(),
            pos: 0,
        };
        let mut header = Vec::new();
        while let Some(line) = lines.peek() {
            if line.starts_with("case ") {
                break;
            }
            header.push(line.to_string());
            lines.pos += 1;
        }
        while matches!(header.last(), Some(l) if l.trim().is_empty()) {
            header.pop();
        }
        let mut cases = Vec::new();
        loop {
            lines.skip_blank();
            let Some(line) = lines.next() else { break };
            let name = line
                .strip_prefix("case ")
                .ok_or_else(|| lines.err(format!("expected `case <name>`, got `{line}`")))?
                .trim()
                .to_string();
            if name.is_empty() {
                return Err(lines.err("empty case name"));
            }
            match lines.next() {
                Some("sql") => {}
                other => {
                    return Err(
                        lines.err(format!("expected `sql` after case header, got {other:?}"))
                    )
                }
            }
            let mut sql_lines = Vec::new();
            loop {
                match lines.next() {
                    Some("----") => break,
                    Some(l) => sql_lines.push(l),
                    None => return Err(lines.err("unterminated sql section")),
                }
            }
            let sql = sql_lines.join("\n");
            let expect = match lines.next() {
                Some(l) if l.starts_with("error ") => {
                    let needle = l["error ".len()..].trim().to_string();
                    match lines.next() {
                        Some("----") => {}
                        other => {
                            return Err(
                                lines.err(format!("expected `----` after error, got {other:?}"))
                            )
                        }
                    }
                    SltExpect::Error { needle }
                }
                Some("spec") => Self::parse_query_expect(&name, &mut lines)?,
                other => {
                    return Err(lines.err(format!("expected `spec` or `error ...`, got {other:?}")))
                }
            };
            cases.push(SltCase { name, sql, expect });
        }
        Ok(SltFile { header, cases })
    }

    fn parse_query_expect(name: &str, lines: &mut Lines<'_>) -> Result<SltExpect, String> {
        let mut spec = QuerySpec::new(name);
        loop {
            let line = lines
                .next()
                .ok_or_else(|| lines.err("unterminated spec section"))?;
            if line == "----" {
                break;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("table") => {
                    let t = parts
                        .next()
                        .ok_or_else(|| lines.err("`table` needs a name"))?;
                    spec = spec.table(t);
                }
                Some("join") => {
                    let (lt, lc, rt, rc) =
                        match (parts.next(), parts.next(), parts.next(), parts.next()) {
                            (Some(lt), Some(lc), Some(rt), Some(rc)) => (lt, lc, rt, rc),
                            _ => return Err(lines.err("`join` needs `<lt> <lc> <rt> <rc>`")),
                        };
                    spec = spec.join(lt, lc, rt, rc);
                }
                Some(kind @ ("pred" | "ppred")) => {
                    let (t, c, op, v) =
                        match (parts.next(), parts.next(), parts.next(), parts.next()) {
                            (Some(t), Some(c), Some(op), Some(v)) => (t, c, op, v),
                            _ => {
                                return Err(
                                    lines.err(format!("`{kind}` needs `<t> <col> <op> <value>`"))
                                )
                            }
                        };
                    let op = parse_op(op).map_err(|e| lines.err(e))?;
                    if kind == "pred" {
                        let value = parse_typed(v).map_err(|e| lines.err(e))?;
                        spec = spec.predicate(t, ColumnPredicate::new(c, op, value));
                    } else {
                        spec = spec.param_predicate(t, c, op, v);
                    }
                }
                other => return Err(lines.err(format!("unknown spec directive {other:?}"))),
            }
        }
        let mut binds = Vec::new();
        loop {
            match lines.peek() {
                Some(l) if l.starts_with("bind ") => {
                    lines.pos += 1;
                    let mut parts = l["bind ".len()..].split_whitespace();
                    let (n, v) = match (parts.next(), parts.next()) {
                        (Some(n), Some(v)) => (n, v),
                        _ => return Err(lines.err("`bind` needs `<name> <value>`")),
                    };
                    binds.push((n.to_string(), parse_typed(v).map_err(|e| lines.err(e))?));
                }
                _ => break,
            }
        }
        match lines.next() {
            Some("rows") => {}
            other => return Err(lines.err(format!("expected `rows`, got {other:?}"))),
        }
        let mut rows = Vec::new();
        loop {
            match lines.next() {
                Some("----") => break,
                Some(l) => rows.push(l.to_string()),
                None => return Err(lines.err("unterminated rows section")),
            }
        }
        Ok(SltExpect::Query { spec, binds, rows })
    }

    /// Renders the file back to its textual form (used by bless mode).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.header {
            out.push_str(line);
            out.push('\n');
        }
        for case in &self.cases {
            out.push('\n');
            let _ = writeln!(out, "case {}", case.name);
            out.push_str("sql\n");
            out.push_str(&case.sql);
            out.push_str("\n----\n");
            match &case.expect {
                SltExpect::Error { needle } => {
                    let _ = writeln!(out, "error {needle}");
                    out.push_str("----\n");
                }
                SltExpect::Query { spec, binds, rows } => {
                    out.push_str("spec\n");
                    for t in &spec.tables {
                        let _ = writeln!(out, "table {t}");
                    }
                    for j in &spec.joins {
                        let _ = writeln!(
                            out,
                            "join {} {} {} {}",
                            j.left_table, j.left_column, j.right_table, j.right_column
                        );
                    }
                    for t in &spec.tables {
                        for p in spec.predicates.get(t).map_or(&[][..], |v| v) {
                            match &p.value {
                                PredicateValue::Literal(v) => {
                                    let _ = writeln!(
                                        out,
                                        "pred {t} {} {} {}",
                                        p.column,
                                        p.op.symbol(),
                                        render_typed(v)
                                    );
                                }
                                PredicateValue::Param(name) => {
                                    let _ = writeln!(
                                        out,
                                        "ppred {t} {} {} {name}",
                                        p.column,
                                        p.op.symbol()
                                    );
                                }
                            }
                        }
                    }
                    out.push_str("----\n");
                    for (n, v) in binds {
                        let _ = writeln!(out, "bind {n} {}", render_typed(v));
                    }
                    out.push_str("rows\n");
                    for row in rows {
                        out.push_str(row);
                        out.push('\n');
                    }
                    out.push_str("----\n");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# header comment

case basic
sql
SELECT * FROM item WHERE item.price > 4.0
----
spec
table item
pred item price > f:4.0
----
rows
item.item_sk=6
item.item_sk=7
----

case templated
sql
SELECT * FROM item WHERE item.brand_sk = $b
----
spec
table item
ppred item brand_sk = b
----
bind b i:2
rows
----

case broken
sql
SELECT * FROM nope
----
error unknown table or alias `nope`
----
";

    #[test]
    fn parse_extracts_cases_specs_and_binds() {
        let file = SltFile::parse(SAMPLE).unwrap();
        assert_eq!(file.header, vec!["# header comment"]);
        assert_eq!(file.cases.len(), 3);
        let SltExpect::Query { spec, binds, rows } = &file.cases[0].expect else {
            panic!("expected query case");
        };
        assert_eq!(spec.tables, vec!["item".into()]);
        assert!(binds.is_empty());
        assert_eq!(rows.len(), 2);
        let SltExpect::Query { spec, binds, .. } = &file.cases[1].expect else {
            panic!("expected query case");
        };
        assert!(spec.is_parameterized());
        assert_eq!(binds, &[("b".to_string(), Value::Int64(2))]);
        let SltExpect::Error { needle } = &file.cases[2].expect else {
            panic!("expected error case");
        };
        assert!(needle.contains("unknown table"));
    }

    #[test]
    fn render_round_trips() {
        let file = SltFile::parse(SAMPLE).unwrap();
        assert_eq!(file.render(), SAMPLE);
        // And the rendered form re-parses to the same structure.
        let again = SltFile::parse(&file.render()).unwrap();
        assert_eq!(again.render(), SAMPLE);
    }

    #[test]
    fn typed_values_round_trip() {
        for v in [
            Value::Int64(-7),
            Value::Float64(3.0),
            Value::Float64(1.5e300),
            Value::Utf8("acme".into()),
            Value::Bool(true),
        ] {
            assert_eq!(parse_typed(&render_typed(&v)).unwrap(), v);
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = SltFile::parse("case x\nsql\nSELECT 1\n----\nnonsense\n").unwrap_err();
        assert!(err.starts_with("line 5:"), "got: {err}");
    }
}
