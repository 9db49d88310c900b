//! SQL frontend for the bitvector-aware query engine.
//!
//! A hand-written lexer, a recursive-descent parser producing a spanned AST,
//! and a catalog-aware binder that lowers to the planner's
//! [`bqo_plan::QuerySpec`] — the same machinery hand-built queries use, so
//! everything downstream (fingerprint-keyed plan caching, `$param`
//! templates with bind-time selectivity re-derivation, bitvector pushdown,
//! morsel-parallel execution) works identically for SQL text.
//!
//! Supported grammar:
//!
//! ```text
//! SELECT <cols|*>
//! FROM t1 [AS a]
//! [[INNER] JOIN t2 [AS b] ON a.x = b.y [AND ...] | CROSS JOIN t3 [AS c]]*
//! [WHERE <col> <op> <literal|$param> [AND ...]]
//! ```
//!
//! with `<op>` one of `= <> != < <= > >=`, literals being integers, floats
//! (including scientific notation), single-quoted strings (`''` escapes a
//! quote) and `TRUE`/`FALSE`. A `CROSS JOIN`ed table must be tied in by a
//! later `ON` condition: a query whose join graph stays disconnected is a
//! planning error, not a cross product. Errors at every stage carry a byte [`Span`]
//! and render a caret diagnostic pointing into the original text:
//!
//! ```text
//! unknown table or alias `nope` (line 1, column 15)
//!   | SELECT * FROM nope
//!   |               ^^^^
//! ```
//!
//! Entry points: [`parse`] (SQL → AST), [`lower`] (SQL → `QuerySpec`), or —
//! for most callers — `Engine::prepare_sql` / `Engine::bind_sql` in
//! `bqo-core`, which add plan caching and execution.

#![forbid(unsafe_code)]

mod ast;
mod binder;
mod error;
mod lexer;
mod parser;

pub use binder::{bind, lower, query_label};
pub use error::{Span, SqlError, SqlErrorKind};
pub use lexer::{lex, Token, TokenKind};
pub use parser::parse;
