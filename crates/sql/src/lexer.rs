//! Hand-written lexer for the SQL subset.
//!
//! Produces a flat, spanned token stream. Keywords are *not* distinguished
//! here — they are ordinary identifiers matched case-insensitively by the
//! parser — so column names that happen to collide with keywords still lex.
//! Identifiers and parameter names borrow from the SQL text; the binder
//! resolves them to the catalog's names, so lexing copies no name.

use crate::error::{Span, SqlError, SqlErrorKind};

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// Identifier or keyword (`[A-Za-z_][A-Za-z0-9_]*`).
    Ident(&'a str),
    /// Integer literal (optionally signed).
    Int(i64),
    /// Float literal (optionally signed; `2.5`, `1e-3`, `4.0e2`).
    Float(f64),
    /// Single-quoted string literal, `''` unescaped to `'`.
    Str(String),
    /// `$name` parameter placeholder.
    Param(&'a str),
    /// `*`
    Star,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

/// A token plus the byte range it was lexed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub span: Span,
}

/// Lexes `sql` into a token vector ending with a single [`TokenKind::Eof`].
pub fn lex(sql: &str) -> Result<Vec<Token<'_>>, SqlError> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b',' => {
                tokens.push(symbol(TokenKind::Comma, i, 1));
                i += 1;
            }
            b'.' => {
                tokens.push(symbol(TokenKind::Dot, i, 1));
                i += 1;
            }
            b'*' => {
                tokens.push(symbol(TokenKind::Star, i, 1));
                i += 1;
            }
            b'=' => {
                tokens.push(symbol(TokenKind::Eq, i, 1));
                i += 1;
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(symbol(TokenKind::Le, i, 2));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(symbol(TokenKind::NotEq, i, 2));
                    i += 2;
                } else {
                    tokens.push(symbol(TokenKind::Lt, i, 1));
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(symbol(TokenKind::Ge, i, 2));
                    i += 2;
                } else {
                    tokens.push(symbol(TokenKind::Gt, i, 1));
                    i += 1;
                }
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(symbol(TokenKind::NotEq, i, 2));
                    i += 2;
                } else {
                    return Err(SqlError::new(
                        SqlErrorKind::Syntax(
                            "unexpected character `!` (did you mean `!=`?)".into(),
                        ),
                        Span::new(i, i + 1),
                        sql,
                    ));
                }
            }
            b'\'' => {
                let (token, next) = lex_string(sql, i)?;
                tokens.push(token);
                i = next;
            }
            b'$' => {
                let start = i + 1;
                let end = ident_end(bytes, start);
                if end == start {
                    return Err(SqlError::new(
                        SqlErrorKind::Syntax("expected a parameter name after `$`".into()),
                        Span::new(i, i + 1),
                        sql,
                    ));
                }
                tokens.push(Token {
                    kind: TokenKind::Param(&sql[start..end]),
                    span: Span::new(i, end),
                });
                i = end;
            }
            b'-' => {
                if bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                    let (token, next) = lex_number(sql, i)?;
                    tokens.push(token);
                    i = next;
                } else {
                    return Err(SqlError::new(
                        SqlErrorKind::Syntax(
                            "unexpected character `-` (only signed numeric literals)".into(),
                        ),
                        Span::new(i, i + 1),
                        sql,
                    ));
                }
            }
            b'0'..=b'9' => {
                let (token, next) = lex_number(sql, i)?;
                tokens.push(token);
                i = next;
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let end = ident_end(bytes, i);
                tokens.push(Token {
                    kind: TokenKind::Ident(&sql[i..end]),
                    span: Span::new(i, end),
                });
                i = end;
            }
            _ => {
                let ch = sql[i..].chars().next().unwrap_or('?');
                return Err(SqlError::new(
                    SqlErrorKind::Syntax(format!("unexpected character `{ch}`")),
                    Span::new(i, i + ch.len_utf8()),
                    sql,
                ));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::point(sql.len()),
    });
    Ok(tokens)
}

fn symbol(kind: TokenKind<'static>, at: usize, len: usize) -> Token<'static> {
    Token {
        kind,
        span: Span::new(at, at + len),
    }
}

fn ident_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    i
}

/// Lexes a single-quoted string starting at the opening quote; `''` inside
/// the literal unescapes to one `'`.
fn lex_string(sql: &str, start: usize) -> Result<(Token<'static>, usize), SqlError> {
    let bytes = sql.as_bytes();
    let mut out = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            if bytes.get(i + 1) == Some(&b'\'') {
                out.push('\'');
                i += 2;
            } else {
                return Ok((
                    Token {
                        kind: TokenKind::Str(out),
                        span: Span::new(start, i + 1),
                    },
                    i + 1,
                ));
            }
        } else {
            let ch = sql[i..].chars().next().expect("in-bounds char");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Err(SqlError::new(
        SqlErrorKind::Syntax("unterminated string literal".into()),
        Span::new(start, sql.len()),
        sql,
    ))
}

/// Lexes a numeric literal (optional leading `-`): integer unless it has a
/// fractional part or an exponent. A signed integer that overflows `i64` is
/// a spanned error, not a silent float.
fn lex_number(sql: &str, start: usize) -> Result<(Token<'static>, usize), SqlError> {
    let bytes = sql.as_bytes();
    let mut i = start;
    if bytes[i] == b'-' {
        i += 1;
    }
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let mut is_float = false;
    if i < bytes.len() && bytes[i] == b'.' && bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &sql[start..i];
    let span = Span::new(start, i);
    let kind = if is_float {
        let v: f64 = text.parse().map_err(|_| {
            SqlError::new(
                SqlErrorKind::Syntax(format!("invalid float literal `{text}`")),
                span,
                sql,
            )
        })?;
        TokenKind::Float(v)
    } else {
        let v: i64 = text.parse().map_err(|_| {
            SqlError::new(
                SqlErrorKind::Syntax(format!("integer literal `{text}` is out of range")),
                span,
                sql,
            )
        })?;
        TokenKind::Int(v)
    };
    Ok((Token { kind, span }, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind<'_>> {
        lex(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_full_query() {
        let toks = kinds("SELECT * FROM t AS a WHERE a.x >= -2 AND y <> 'it''s' ");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("SELECT"),
                TokenKind::Star,
                TokenKind::Ident("FROM"),
                TokenKind::Ident("t"),
                TokenKind::Ident("AS"),
                TokenKind::Ident("a"),
                TokenKind::Ident("WHERE"),
                TokenKind::Ident("a"),
                TokenKind::Dot,
                TokenKind::Ident("x"),
                TokenKind::Ge,
                TokenKind::Int(-2),
                TokenKind::Ident("AND"),
                TokenKind::Ident("y"),
                TokenKind::NotEq,
                TokenKind::Str("it's".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers_and_params() {
        assert_eq!(
            kinds("3 -7 2.5 -0.5 1e-3 4.0E2 $cap"),
            vec![
                TokenKind::Int(3),
                TokenKind::Int(-7),
                TokenKind::Float(2.5),
                TokenKind::Float(-0.5),
                TokenKind::Float(1e-3),
                TokenKind::Float(4.0e2),
                TokenKind::Param("cap"),
                TokenKind::Eof,
            ]
        );
        // i64::MIN round-trips because the sign is part of the literal.
        assert_eq!(
            kinds("-9223372036854775808"),
            vec![TokenKind::Int(i64::MIN), TokenKind::Eof]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("= <> != < <= > >="),
            vec![
                TokenKind::Eq,
                TokenKind::NotEq,
                TokenKind::NotEq,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexical_errors_are_spanned() {
        let err = lex("SELECT ^").unwrap_err();
        assert!(err.to_string().contains("unexpected character `^`"));
        assert_eq!(err.span(), Span::new(7, 8));
        assert!(lex("'open")
            .unwrap_err()
            .to_string()
            .contains("unterminated"));
        assert!(lex("$ x")
            .unwrap_err()
            .to_string()
            .contains("parameter name"));
        assert!(lex("9223372036854775808")
            .unwrap_err()
            .to_string()
            .contains("out of range"));
        assert!(lex("a ! b").unwrap_err().to_string().contains("`!`"));
        assert!(lex("a - b").unwrap_err().to_string().contains("`-`"));
    }

    #[test]
    fn dot_after_integer_stays_a_dot() {
        // `3.` is an integer followed by a dot (no grammar production uses
        // it, but the lexer must not panic or mis-parse).
        assert_eq!(
            kinds("3."),
            vec![TokenKind::Int(3), TokenKind::Dot, TokenKind::Eof]
        );
    }
}
