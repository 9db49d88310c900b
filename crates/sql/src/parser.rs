//! Recursive-descent parser for the SQL subset:
//!
//! ```text
//! statement  := SELECT projection FROM table_ref join* [WHERE predicate (AND predicate)*] EOF
//! projection := '*' | column (',' column)*
//! table_ref  := ident [[AS] ident]
//! join       := [INNER] JOIN table_ref ON condition (AND condition)*
//!             | CROSS JOIN table_ref
//! condition  := column '=' column
//! predicate  := column op scalar
//! column     := ident ['.' ident]
//! scalar     := int | float | string | TRUE | FALSE | '$' ident
//! op         := '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='
//! ```
//!
//! Keywords are matched case-insensitively; identifiers are taken verbatim.

use crate::ast::{
    ColumnName, Ident, JoinClause, JoinOn, Projection, Scalar, ScalarValue, SelectStatement,
    TableRef, WherePredicate,
};
use crate::error::{Span, SqlError, SqlErrorKind};
use crate::lexer::{lex, Token, TokenKind};
use bqo_plan::CompareOp;
use bqo_storage::Value;

/// Keywords that cannot serve as a bare (no `AS`) table alias.
const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "JOIN", "INNER", "CROSS", "ON", "WHERE", "AND", "AS", "TRUE", "FALSE",
];

/// Parses one `SELECT` statement, consuming the entire input. Names in the
/// returned tree borrow from `sql`.
pub fn parse(sql: &str) -> Result<SelectStatement<'_>, SqlError> {
    let tokens = lex(sql)?;
    let mut parser = Parser {
        sql,
        tokens,
        pos: 0,
    };
    parser.select_statement()
}

struct Parser<'a> {
    sql: &'a str,
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos]
    }

    /// Moves past the current token (never past `Eof`) and returns its span.
    fn advance(&mut self) -> Span {
        let span = self.tokens[self.pos].span;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        span
    }

    fn error(&self, message: impl Into<String>, span: Span) -> SqlError {
        SqlError::new(SqlErrorKind::Syntax(message.into()), span, self.sql)
    }

    /// True if the current token is the given keyword (case-insensitive).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(text) if text.eq_ignore_ascii_case(kw))
    }

    /// Consumes the given keyword if present.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            let token = self.peek();
            Err(self.error(
                format!("expected `{kw}`, found {}", describe(&token.kind)),
                token.span,
            ))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<Ident<'a>, SqlError> {
        let token = self.peek();
        match token.kind {
            TokenKind::Ident(text) => {
                let span = self.advance();
                Ok(Ident { text, span })
            }
            ref other => Err(self.error(
                format!("expected {what}, found {}", describe(other)),
                token.span,
            )),
        }
    }

    fn select_statement(&mut self) -> Result<SelectStatement<'a>, SqlError> {
        self.expect_keyword("SELECT")?;
        let projection = self.projection()?;
        self.expect_keyword("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.eat_keyword("CROSS") {
                self.expect_keyword("JOIN")?;
                let table = self.table_ref()?;
                joins.push(JoinClause {
                    table,
                    conditions: Vec::new(),
                });
            } else if self.at_keyword("JOIN") || self.at_keyword("INNER") {
                self.eat_keyword("INNER");
                self.expect_keyword("JOIN")?;
                let table = self.table_ref()?;
                self.expect_keyword("ON")?;
                let mut conditions = vec![self.join_condition()?];
                while self.eat_keyword("AND") {
                    conditions.push(self.join_condition()?);
                }
                joins.push(JoinClause { table, conditions });
            } else {
                break;
            }
        }
        let mut selection = Vec::new();
        if self.eat_keyword("WHERE") {
            selection.push(self.where_predicate()?);
            while self.eat_keyword("AND") {
                selection.push(self.where_predicate()?);
            }
        }
        match &self.peek().kind {
            TokenKind::Eof => Ok(SelectStatement {
                projection,
                from,
                joins,
                selection,
            }),
            other => {
                let span = self.peek().span;
                Err(self.error(
                    format!("unexpected trailing input: {}", describe(other)),
                    span,
                ))
            }
        }
    }

    fn projection(&mut self) -> Result<Projection<'a>, SqlError> {
        if matches!(self.peek().kind, TokenKind::Star) {
            self.advance();
            return Ok(Projection::Star);
        }
        let mut columns = vec![self.column_name()?];
        while matches!(self.peek().kind, TokenKind::Comma) {
            self.advance();
            columns.push(self.column_name()?);
        }
        Ok(Projection::Columns(columns))
    }

    fn table_ref(&mut self) -> Result<TableRef<'a>, SqlError> {
        let table = self.expect_ident("a table name")?;
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident("an alias")?)
        } else if let TokenKind::Ident(text) = self.peek().kind {
            // Bare alias: an identifier that is not a keyword.
            if KEYWORDS.iter().any(|kw| text.eq_ignore_ascii_case(kw)) {
                None
            } else {
                Some(self.expect_ident("an alias")?)
            }
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    fn column_name(&mut self) -> Result<ColumnName<'a>, SqlError> {
        let first = self.expect_ident("a column name")?;
        if matches!(self.peek().kind, TokenKind::Dot) {
            self.advance();
            let column = self.expect_ident("a column name after `.`")?;
            Ok(ColumnName {
                qualifier: Some(first),
                column,
            })
        } else {
            Ok(ColumnName {
                qualifier: None,
                column: first,
            })
        }
    }

    fn join_condition(&mut self) -> Result<JoinOn<'a>, SqlError> {
        let left = self.column_name()?;
        match self.peek().kind {
            TokenKind::Eq => {
                self.advance();
            }
            _ => {
                let span = self.peek().span;
                return Err(self.error(
                    "expected `=` in join condition (only equi-joins are supported)",
                    span,
                ));
            }
        }
        let right = self.column_name()?;
        Ok(JoinOn { left, right })
    }

    fn where_predicate(&mut self) -> Result<WherePredicate<'a>, SqlError> {
        let column = self.column_name()?;
        let op = self.compare_op()?;
        let value = self.scalar()?;
        Ok(WherePredicate { column, op, value })
    }

    fn compare_op(&mut self) -> Result<CompareOp, SqlError> {
        let op = match self.peek().kind {
            TokenKind::Eq => CompareOp::Eq,
            TokenKind::NotEq => CompareOp::NotEq,
            TokenKind::Lt => CompareOp::Lt,
            TokenKind::Le => CompareOp::Le,
            TokenKind::Gt => CompareOp::Gt,
            TokenKind::Ge => CompareOp::Ge,
            ref other => {
                let span = self.peek().span;
                return Err(self.error(
                    format!(
                        "expected a comparison operator (= <> != < <= > >=), found {}",
                        describe(other)
                    ),
                    span,
                ));
            }
        };
        self.advance();
        Ok(op)
    }

    fn scalar(&mut self) -> Result<Scalar<'a>, SqlError> {
        let token = self.peek();
        let value = match token.kind {
            TokenKind::Int(v) => ScalarValue::Literal(Value::Int64(v)),
            TokenKind::Float(v) => ScalarValue::Literal(Value::Float64(v)),
            TokenKind::Str(ref s) => ScalarValue::Literal(Value::Utf8(s.clone())),
            TokenKind::Param(name) => ScalarValue::Param(name),
            TokenKind::Ident(text) if text.eq_ignore_ascii_case("TRUE") => {
                ScalarValue::Literal(Value::Bool(true))
            }
            TokenKind::Ident(text) if text.eq_ignore_ascii_case("FALSE") => {
                ScalarValue::Literal(Value::Bool(false))
            }
            ref other => {
                return Err(self.error(
                    format!(
                        "expected a literal or `$param` on the right-hand side, found {}",
                        describe(other)
                    ),
                    token.span,
                ));
            }
        };
        let span = self.advance();
        Ok(Scalar { value, span })
    }
}

/// Human-readable token description for error messages.
fn describe(kind: &TokenKind) -> String {
    match kind {
        TokenKind::Ident(text) => format!("`{text}`"),
        TokenKind::Int(v) => format!("`{v}`"),
        TokenKind::Float(v) => format!("`{v}`"),
        TokenKind::Str(s) => format!("'{s}'"),
        TokenKind::Param(name) => format!("`${name}`"),
        TokenKind::Star => "`*`".into(),
        TokenKind::Comma => "`,`".into(),
        TokenKind::Dot => "`.`".into(),
        TokenKind::Eq => "`=`".into(),
        TokenKind::NotEq => "`<>`".into(),
        TokenKind::Lt => "`<`".into(),
        TokenKind::Le => "`<=`".into(),
        TokenKind::Gt => "`>`".into(),
        TokenKind::Ge => "`>=`".into(),
        TokenKind::Eof => "end of input".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let stmt = parse(
            "SELECT s.qty, price FROM sales AS s \
             JOIN item i ON s.item_sk = i.item_sk AND s.batch = i.batch \
             CROSS JOIN store \
             WHERE i.price <= 2.5 AND s.qty <> $q AND i.label = 'x''y' AND flag = TRUE",
        )
        .unwrap();
        assert!(matches!(&stmt.projection, Projection::Columns(cols) if cols.len() == 2));
        assert_eq!(stmt.from.table.text, "sales");
        assert_eq!(stmt.from.alias.as_ref().unwrap().text, "s");
        assert_eq!(stmt.joins.len(), 2);
        assert_eq!(stmt.joins[0].conditions.len(), 2);
        assert_eq!(stmt.joins[0].table.alias.as_ref().unwrap().text, "i");
        assert!(stmt.joins[1].conditions.is_empty());
        assert_eq!(stmt.selection.len(), 4);
        assert_eq!(stmt.selection[0].op, CompareOp::Le);
        assert_eq!(
            stmt.selection[0].value.value,
            ScalarValue::Literal(Value::Float64(2.5))
        );
        assert_eq!(stmt.selection[1].value.value, ScalarValue::Param("q"));
        assert_eq!(
            stmt.selection[2].value.value,
            ScalarValue::Literal(Value::Utf8("x'y".into()))
        );
        assert_eq!(
            stmt.selection[3].value.value,
            ScalarValue::Literal(Value::Bool(true))
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let stmt = parse("select * from t inner join u on t.a = u.a where t.b = false").unwrap();
        assert_eq!(stmt.joins.len(), 1);
        assert_eq!(
            stmt.selection[0].value.value,
            ScalarValue::Literal(Value::Bool(false))
        );
    }

    #[test]
    fn star_and_column_projections() {
        assert!(matches!(
            parse("SELECT * FROM t").unwrap().projection,
            Projection::Star
        ));
        let stmt = parse("SELECT a.x, y FROM t AS a").unwrap();
        match stmt.projection {
            Projection::Columns(cols) => {
                assert_eq!(cols[0].qualifier.as_ref().unwrap().text, "a");
                assert_eq!(cols[0].column.text, "x");
                assert!(cols[1].qualifier.is_none());
            }
            Projection::Star => panic!("expected columns"),
        }
    }

    #[test]
    fn syntax_errors_name_the_expectation() {
        // `FROM` parses as a (keyword-named) projection column, so the
        // error lands on the missing FROM keyword that follows.
        let err = parse("SELECT FROM t").unwrap_err();
        assert!(err.to_string().contains("expected `FROM`"), "{err}");
        let err = parse("SELECT , FROM t").unwrap_err();
        assert!(err.to_string().contains("expected a column name"), "{err}");
        let err = parse("SELECT * FROM t JOIN u ON t.a < u.a").unwrap_err();
        assert!(err.to_string().contains("only equi-joins"), "{err}");
        let err = parse("SELECT * FROM t WHERE a = b").unwrap_err();
        assert!(err.to_string().contains("literal or `$param`"), "{err}");
        let err = parse("SELECT * FROM t WHERE a LIKE 'x'").unwrap_err();
        assert!(err.to_string().contains("comparison operator"), "{err}");
        let err = parse("SELECT * FROM t extra stuff").unwrap_err();
        assert!(
            err.to_string().contains("unexpected trailing input"),
            "{err}"
        );
        let err = parse("SELECT * FROM t WHERE").unwrap_err();
        assert!(err.to_string().contains("end of input"), "{err}");
    }

    #[test]
    fn bare_alias_does_not_swallow_keywords() {
        let stmt = parse("SELECT * FROM t WHERE x = 1").unwrap();
        assert!(stmt.from.alias.is_none());
        let stmt = parse("SELECT * FROM t u WHERE u.x = 1").unwrap();
        assert_eq!(stmt.from.alias.as_ref().unwrap().text, "u");
    }
}
