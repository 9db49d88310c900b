//! Spanned abstract syntax tree for the SQL subset.
//!
//! Every name-bearing node carries the byte [`Span`] it was parsed from so
//! the binder can point error carets at the exact offending fragment. Names
//! borrow from the SQL text (`'a`).

use crate::error::Span;
use bqo_plan::CompareOp;
use bqo_storage::Value;

/// An identifier with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ident<'a> {
    pub text: &'a str,
    pub span: Span,
}

/// A possibly qualified column reference (`x` or `a.x`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnName<'a> {
    pub qualifier: Option<Ident<'a>>,
    pub column: Ident<'a>,
}

impl ColumnName<'_> {
    /// The span covering the whole reference (qualifier included).
    pub fn span(&self) -> Span {
        match &self.qualifier {
            Some(q) => q.span.to(self.column.span),
            None => self.column.span,
        }
    }
}

/// The SELECT list: `*` or an explicit column list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection<'a> {
    Star,
    Columns(Vec<ColumnName<'a>>),
}

/// A `FROM`/`JOIN` item: a table name with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef<'a> {
    pub table: Ident<'a>,
    pub alias: Option<Ident<'a>>,
}

impl<'a> TableRef<'a> {
    /// The name this item is addressable by in the rest of the query.
    pub(crate) fn exposed_name(&self) -> &Ident<'a> {
        self.alias.as_ref().unwrap_or(&self.table)
    }
}

/// One `col = col` equality inside an `ON` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOn<'a> {
    pub left: ColumnName<'a>,
    pub right: ColumnName<'a>,
}

impl JoinOn<'_> {
    /// The span covering the whole condition.
    pub fn span(&self) -> Span {
        self.left.span().to(self.right.span())
    }
}

/// One `JOIN` clause: the joined table and its `ON` conditions (none for a
/// `CROSS JOIN`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinClause<'a> {
    pub table: TableRef<'a>,
    pub conditions: Vec<JoinOn<'a>>,
}

/// The right-hand side of a `WHERE` comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarValue<'a> {
    /// A typed literal.
    Literal(Value),
    /// A `$name` parameter placeholder.
    Param(&'a str),
}

/// A spanned scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalar<'a> {
    pub value: ScalarValue<'a>,
    pub span: Span,
}

/// One `WHERE` conjunct: `column <op> literal-or-param`.
#[derive(Debug, Clone, PartialEq)]
pub struct WherePredicate<'a> {
    pub column: ColumnName<'a>,
    pub op: CompareOp,
    pub value: Scalar<'a>,
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement<'a> {
    pub projection: Projection<'a>,
    pub from: TableRef<'a>,
    pub joins: Vec<JoinClause<'a>>,
    pub selection: Vec<WherePredicate<'a>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_qualified_names() {
        let col = ColumnName {
            qualifier: Some(Ident {
                text: "a",
                span: Span::new(0, 1),
            }),
            column: Ident {
                text: "x",
                span: Span::new(2, 3),
            },
        };
        assert_eq!(col.span(), Span::new(0, 3));
        let bare = ColumnName {
            qualifier: None,
            column: Ident {
                text: "x",
                span: Span::new(2, 3),
            },
        };
        assert_eq!(bare.span(), Span::new(2, 3));
    }

    #[test]
    fn exposed_name_prefers_the_alias() {
        let t = Ident {
            text: "sales",
            span: Span::new(0, 5),
        };
        let a = Ident {
            text: "s",
            span: Span::new(9, 10),
        };
        let no_alias = TableRef {
            table: t.clone(),
            alias: None,
        };
        assert_eq!(no_alias.exposed_name().text, "sales");
        let aliased = TableRef {
            table: t,
            alias: Some(a),
        };
        assert_eq!(aliased.exposed_name().text, "s");
    }
}
