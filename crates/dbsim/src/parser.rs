//! Recursive-descent parser for the SQL subset in [`crate::ast`].
//!
//! Parsing is case-insensitive for keywords and preserves identifier case.
//! One borrowing lexer feeds two walkers of the same grammar: [`parse`]
//! builds the AST the audit-log replayer executes, and
//! [`abstract_template`] writes UCAD's `$k` statement template (§5.1)
//! straight from the tokens, with no AST and no re-print.

use crate::ast::{Condition, Projection, Statement, Value};
use std::fmt::{self, Write};

/// Parse error with byte position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation of what went wrong.
    pub message: String,
    /// Token index where the error occurred.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL parse error at token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A lexed token. Identifiers and string bodies borrow from the statement
/// text; integers are parsed once, so an overflowing literal is a lex error.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Int(i64),
    Str(&'a str),
    LParen,
    RParen,
    Comma,
    Eq,
    Star,
}

fn lex(sql: &str) -> Result<Vec<Token<'_>>, ParseError> {
    // Tokens are mostly separated by a space or a comma, so half the length
    // holds a statement's tokens without regrowing the vector.
    let mut tokens = Vec::with_capacity(sql.len() / 2 + 1);
    let bytes = sql.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let punct = match bytes[i] {
            b' ' | b'\t' | b'\n' | b'\r' | b';' => {
                i += 1;
                continue;
            }
            b'(' => Token::LParen,
            b')' => Token::RParen,
            b',' => Token::Comma,
            b'=' => Token::Eq,
            b'*' => Token::Star,
            b'\'' => {
                let start = i + 1;
                let Some(len) = bytes[start..].iter().position(|&b| b == b'\'') else {
                    return Err(ParseError {
                        message: "unterminated string literal".into(),
                        at: tokens.len(),
                    });
                };
                tokens.push(Token::Str(&sql[start..start + len]));
                i = start + len + 1;
                continue;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &sql[start..i];
                let value = text.parse::<i64>().map_err(|_| ParseError {
                    message: format!("bad integer literal '{text}'"),
                    at: tokens.len(),
                })?;
                tokens.push(Token::Int(value));
                continue;
            }
            b if b.is_ascii_alphabetic() || b == b'_' || b == b'$' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(&sql[start..i]));
                continue;
            }
            _ => {
                let other = sql[i..].chars().next().unwrap_or_default();
                return Err(ParseError {
                    message: format!("unexpected character '{other}'"),
                    at: tokens.len(),
                });
            }
        };
        tokens.push(punct);
        i += 1;
    }
    Ok(tokens)
}

/// Position in a lexed statement, with the token-level checks both grammar
/// walkers ([`Parser`] and [`TemplateWriter`]) share.
struct Cursor<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(sql: &'a str) -> Result<Self, ParseError> {
        let tokens = lex(sql)?;
        if tokens.is_empty() {
            return Err(ParseError {
                message: "empty statement".into(),
                at: 0,
            });
        }
        Ok(Cursor { tokens, pos: 0 })
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Result<Token<'a>, ParseError> {
        let t = self.peek().ok_or_else(|| ParseError {
            message: "unexpected end of statement".into(),
            at: self.pos,
        })?;
        self.pos += 1;
        Ok(t)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            at: self.pos,
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next()? {
            Token::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.error(format!("expected keyword {kw}, found {other:?}"))),
        }
    }

    fn expect(&mut self, tok: Token<'_>) -> Result<(), ParseError> {
        let t = self.next()?;
        if t == tok {
            Ok(())
        } else {
            Err(self.error(format!("expected {tok:?}, found {t:?}")))
        }
    }

    /// Consumes the next token if it is `tok`.
    fn eat(&mut self, tok: Token<'_>) -> bool {
        let hit = self.peek() == Some(tok);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Consumes the next token if it is the keyword `kw`.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        let hit = matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw));
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Consumes a value token: an integer, a string, or a `$k` placeholder
    /// (abstracted statements still parse; placeholders read as strings).
    fn value(&mut self) -> Result<Token<'a>, ParseError> {
        match self.next()? {
            t @ (Token::Int(_) | Token::Str(_)) => Ok(t),
            t @ Token::Ident(s) if s.starts_with('$') => Ok(t),
            other => Err(self.error(format!("expected value, found {other:?}"))),
        }
    }

    fn unsupported(&self, head: &str) -> ParseError {
        self.error(format!("unsupported statement '{head}'"))
    }

    fn finish(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error("trailing tokens after statement"))
        }
    }

    fn arity_error(&self, got: usize, arity: usize) -> ParseError {
        self.error(format!(
            "VALUES tuple arity {got} does not match column list {arity}"
        ))
    }
}

/// Builds the [`Statement`] AST.
struct Parser<'a> {
    cur: Cursor<'a>,
}

impl Parser<'_> {
    fn ident(&mut self) -> Result<String, ParseError> {
        self.cur.expect_ident().map(str::to_string)
    }

    /// One or more `item`s separated by commas.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut items = vec![item(self)?];
        while self.cur.eat(Token::Comma) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        Ok(match self.cur.value()? {
            Token::Int(i) => Value::Int(i),
            Token::Str(s) | Token::Ident(s) => Value::Str(s.to_string()),
            _ => unreachable!("Cursor::value yields only value tokens"),
        })
    }

    fn value_list(&mut self) -> Result<Vec<Value>, ParseError> {
        self.cur.expect(Token::LParen)?;
        let values = self.list(Self::value)?;
        self.cur.expect(Token::RParen)?;
        Ok(values)
    }

    fn tuple(&mut self, arity: usize) -> Result<Vec<Value>, ParseError> {
        let values = self.value_list()?;
        if values.len() != arity {
            return Err(self.cur.arity_error(values.len(), arity));
        }
        Ok(values)
    }

    fn conditions(&mut self) -> Result<Vec<Condition>, ParseError> {
        let mut conds = Vec::new();
        if !self.cur.eat_keyword("where") {
            return Ok(conds);
        }
        loop {
            let column = self.ident()?;
            if self.cur.eat_keyword("in") {
                conds.push(Condition::In(column, self.value_list()?));
            } else {
                self.cur.expect(Token::Eq)?;
                conds.push(Condition::Eq(column, self.value()?));
            }
            if !self.cur.eat_keyword("and") {
                return Ok(conds);
            }
        }
    }

    fn statement(mut self) -> Result<Statement, ParseError> {
        let head = self.cur.expect_ident()?;
        let stmt = if head.eq_ignore_ascii_case("select") {
            let projection = if self.cur.eat(Token::Star) {
                Projection::All
            } else {
                Projection::Columns(self.list(Self::ident)?)
            };
            self.cur.expect_keyword("from")?;
            let table = self.ident()?;
            let conditions = self.conditions()?;
            Statement::Select {
                table,
                projection,
                conditions,
            }
        } else if head.eq_ignore_ascii_case("insert") {
            self.cur.expect_keyword("into")?;
            let table = self.ident()?;
            self.cur.expect(Token::LParen)?;
            let columns = self.list(Self::ident)?;
            self.cur.expect(Token::RParen)?;
            self.cur.expect_keyword("values")?;
            let rows = self.list(|p| p.tuple(columns.len()))?;
            Statement::Insert {
                table,
                columns,
                rows,
            }
        } else if head.eq_ignore_ascii_case("update") {
            let table = self.ident()?;
            self.cur.expect_keyword("set")?;
            let assignments = self.list(|p| {
                let col = p.ident()?;
                p.cur.expect(Token::Eq)?;
                Ok((col, p.value()?))
            })?;
            let conditions = self.conditions()?;
            Statement::Update {
                table,
                assignments,
                conditions,
            }
        } else if head.eq_ignore_ascii_case("delete") {
            self.cur.expect_keyword("from")?;
            let table = self.ident()?;
            let conditions = self.conditions()?;
            Statement::Delete { table, conditions }
        } else {
            return Err(self.cur.unsupported(head));
        };
        self.cur.finish()?;
        Ok(stmt)
    }
}

/// Writes the canonical abstract form of a statement while walking the same
/// grammar as [`Parser`]: keywords upper-case, identifiers verbatim, `", "`
/// separators, `" and "` conjunctions, and every value as `$1..$n` in order
/// of appearance. The text equals `Display` of the parsed statement with
/// each value replaced by its placeholder.
struct TemplateWriter<'a> {
    cur: Cursor<'a>,
    out: String,
    placeholders: usize,
}

impl TemplateWriter<'_> {
    fn ident(&mut self) -> Result<(), ParseError> {
        let s = self.cur.expect_ident()?;
        self.out.push_str(s);
        Ok(())
    }

    /// One or more `item`s separated by `", "`; returns how many.
    fn list(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<usize, ParseError> {
        item(self)?;
        let mut n = 1;
        while self.cur.eat(Token::Comma) {
            self.out.push_str(", ");
            item(self)?;
            n += 1;
        }
        Ok(n)
    }

    fn value(&mut self) -> Result<(), ParseError> {
        self.cur.value()?;
        self.placeholders += 1;
        let _ = write!(self.out, "${}", self.placeholders);
        Ok(())
    }

    fn value_list(&mut self) -> Result<usize, ParseError> {
        self.cur.expect(Token::LParen)?;
        self.out.push('(');
        let n = self.list(Self::value)?;
        self.cur.expect(Token::RParen)?;
        self.out.push(')');
        Ok(n)
    }

    fn tuple(&mut self, arity: usize) -> Result<(), ParseError> {
        let n = self.value_list()?;
        if n != arity {
            return Err(self.cur.arity_error(n, arity));
        }
        Ok(())
    }

    fn conditions(&mut self) -> Result<(), ParseError> {
        if !self.cur.eat_keyword("where") {
            return Ok(());
        }
        self.out.push_str(" WHERE ");
        loop {
            self.ident()?;
            if self.cur.eat_keyword("in") {
                self.out.push_str(" IN ");
                self.value_list()?;
            } else {
                self.cur.expect(Token::Eq)?;
                self.out.push('=');
                self.value()?;
            }
            if !self.cur.eat_keyword("and") {
                return Ok(());
            }
            self.out.push_str(" and ");
        }
    }

    fn statement(mut self) -> Result<String, ParseError> {
        let head = self.cur.expect_ident()?;
        if head.eq_ignore_ascii_case("select") {
            self.out.push_str("SELECT ");
            if self.cur.eat(Token::Star) {
                self.out.push('*');
            } else {
                self.list(Self::ident)?;
            }
            self.cur.expect_keyword("from")?;
            self.out.push_str(" FROM ");
            self.ident()?;
            self.conditions()?;
        } else if head.eq_ignore_ascii_case("insert") {
            self.cur.expect_keyword("into")?;
            self.out.push_str("INSERT INTO ");
            self.ident()?;
            self.cur.expect(Token::LParen)?;
            self.out.push_str(" (");
            let arity = self.list(Self::ident)?;
            self.cur.expect(Token::RParen)?;
            self.cur.expect_keyword("values")?;
            self.out.push_str(") VALUES ");
            self.list(|w| w.tuple(arity))?;
        } else if head.eq_ignore_ascii_case("update") {
            self.out.push_str("UPDATE ");
            self.ident()?;
            self.cur.expect_keyword("set")?;
            self.out.push_str(" SET ");
            self.list(|w| {
                w.ident()?;
                w.cur.expect(Token::Eq)?;
                w.out.push('=');
                w.value()
            })?;
            self.conditions()?;
        } else if head.eq_ignore_ascii_case("delete") {
            self.cur.expect_keyword("from")?;
            self.out.push_str("DELETE FROM ");
            self.ident()?;
            self.conditions()?;
        } else {
            return Err(self.cur.unsupported(head));
        }
        self.cur.finish()?;
        Ok(self.out)
    }
}

/// Parses a single SQL statement.
pub fn parse(sql: &str) -> Result<Statement, ParseError> {
    Parser {
        cur: Cursor::new(sql)?,
    }
    .statement()
}

/// Abstracts a statement in one pass: the canonical text of [`parse`]'s
/// statement with every literal replaced by `$k`, numbered in order of
/// appearance (`"Update T set count=23 where k=94"` →
/// `"UPDATE T SET count=$1 WHERE k=$2"`). Returns `None` exactly where
/// [`parse`] errs.
pub fn abstract_template(sql: &str) -> Option<String> {
    TemplateWriter {
        cur: Cursor::new(sql).ok()?,
        out: String::with_capacity(sql.len() + 8),
        placeholders: 0,
    }
    .statement()
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::OpKind;

    #[test]
    fn parses_select_star_with_in() {
        let s = parse("SELECT * FROM t_cell_fp_9 WHERE pnci=1 and gridId IN (2, 36)").unwrap();
        match &s {
            Statement::Select {
                table,
                projection,
                conditions,
            } => {
                assert_eq!(table, "t_cell_fp_9");
                assert_eq!(*projection, Projection::All);
                assert_eq!(conditions.len(), 2);
                assert_eq!(conditions[1].column(), "gridId");
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_multi_row_insert() {
        let s = parse("INSERT INTO t_cell_fp_3 (pnci, gridId, fps) VALUES (1, 2, 3), (4, 5, 6)")
            .unwrap();
        match &s {
            Statement::Insert { columns, rows, .. } => {
                assert_eq!(columns.len(), 3);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_update_with_string_values() {
        let s = parse("Update T_content set count=23, tag='hot' where danmuKey=94").unwrap();
        match &s {
            Statement::Update {
                assignments,
                conditions,
                ..
            } => {
                assert_eq!(assignments.len(), 2);
                assert_eq!(assignments[1].1, Value::Str("hot".into()));
                assert_eq!(conditions.len(), 1);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(s.op_kind(), OpKind::Update);
    }

    #[test]
    fn parses_delete_without_where() {
        let s = parse("DELETE FROM t_rm_mac").unwrap();
        assert_eq!(
            s,
            Statement::Delete {
                table: "t_rm_mac".into(),
                conditions: vec![]
            }
        );
    }

    #[test]
    fn parses_abstracted_placeholders() {
        let s = parse("UPDATE T_content SET count=$1 WHERE danmuKey=$2").unwrap();
        match &s {
            Statement::Update { assignments, .. } => {
                assert_eq!(assignments[0].1, Value::Str("$1".into()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        for sql in [
            "SELECT * FROM t WHERE a=1",
            "SELECT a, b FROM t",
            "INSERT INTO t (a) VALUES (1), (2)",
            "UPDATE t SET a=1 WHERE b='x'",
            "DELETE FROM t WHERE a IN (1, 2, 3)",
        ] {
            let stmt = parse(sql).unwrap();
            let printed = stmt.to_string();
            assert_eq!(parse(&printed).unwrap(), stmt, "roundtrip failed for {sql}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("DROP TABLE t").is_err());
        assert!(parse("").is_err());
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("INSERT INTO t (a, b) VALUES (1)").is_err());
        assert!(parse("SELECT * FROM t WHERE a='unterminated").is_err());
        assert!(parse("SELECT * FROM t extra junk").is_err());
    }

    #[test]
    fn template_writes_canonical_form_with_placeholders() {
        for (sql, template) in [
            (
                "Update T_content set count=23, tag='hot' where danmuKey=94",
                "UPDATE T_content SET count=$1, tag=$2 WHERE danmuKey=$3",
            ),
            (
                "select * from t where a=-1 AND b in (2,3) ;",
                "SELECT * FROM t WHERE a=$1 and b IN ($2, $3)",
            ),
            ("SELECT a,b FROM t", "SELECT a, b FROM t"),
            (
                "insert into t (a, b) values (1, 'x'), ($7, 2)",
                "INSERT INTO t (a, b) VALUES ($1, $2), ($3, $4)",
            ),
            ("DELETE FROM t_rm_mac", "DELETE FROM t_rm_mac"),
        ] {
            assert_eq!(abstract_template(sql).as_deref(), Some(template), "{sql}");
        }
    }

    #[test]
    fn template_rejects_exactly_what_parse_rejects() {
        for sql in [
            "DROP TABLE t",
            "",
            " ; ",
            "SELECT FROM",
            "INSERT INTO t (a, b) VALUES (1)",
            "SELECT * FROM t WHERE a='unterminated",
            "SELECT * FROM t extra junk",
            "SELECT * FROM t WHERE a=99999999999999999999",
            "SELECT * FROM t WHERE a=-",
            "SELECT * FROM t WHERE na\u{ef}ve=1",
        ] {
            assert!(parse(sql).is_err(), "{sql}");
            assert_eq!(abstract_template(sql), None, "{sql}");
        }
    }

    #[test]
    fn non_ascii_error_names_the_character() {
        let err = parse("SELECT * FROM caf\u{e9}").unwrap_err();
        assert!(err.message.contains('\u{e9}'), "{}", err.message);
    }

    #[test]
    fn negative_integers() {
        let s = parse("UPDATE t SET a=-5 WHERE b=1").unwrap();
        match s {
            Statement::Update { assignments, .. } => {
                assert_eq!(assignments[0].1, Value::Int(-5));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }
}
