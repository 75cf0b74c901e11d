//! Statement shapes: what a plan cache keys on.
//!
//! A query's *shape* is its token stream with every INT, REAL and TEXT
//! literal replaced by a typed slot. Identifiers, keywords (`TRUE`,
//! `FALSE` and `NULL` among them), punctuation and a `LIMIT`'s count stay
//! in the shape, so two queries of one shape parse to one tree but for the
//! values in its slots. [`parse_sentinels`] parses a query with each slot
//! holding a [`sentinel`] instead of its literal, which is how a caller
//! learns where each slot lands in what it builds from the tree.

use crate::ast::Query;
use crate::lexer::{Lexer, Spanned, Token};
use crate::parser::parse_tokens;
use crate::Result;
use pcqe_storage::{DataType, Value};
use std::borrow::Cow;

/// A query's shape and the literals that fill its slots, in token order.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    key: String,
    literals: Vec<Value>,
}

impl Shape {
    /// The shape of `query`. Fails with the error [`crate::parse`] would
    /// raise first when the text does not tokenize.
    pub fn of(query: &str) -> Result<Shape> {
        Shape::from_tokens(Lexer::new(query), query.len())
    }

    /// The shape of the query an `EXPLAIN [ANALYZE] <query>` statement
    /// explains: [`Shape::of`] its text after the leading keywords.
    pub fn explained(statement: &str) -> Result<Shape> {
        let mut tokens = Lexer::new(statement).peekable();
        let mut skip = |keyword| {
            let next = tokens.peek().and_then(|t| t.as_ref().ok());
            if next.is_some_and(|t| is_keyword(&t.token, keyword)) {
                tokens.next();
            }
        };
        skip("EXPLAIN");
        skip("ANALYZE");
        Shape::from_tokens(tokens, statement.len())
    }

    fn from_tokens<'a>(
        tokens: impl Iterator<Item = Result<Spanned<'a>>>,
        input_len: usize,
    ) -> Result<Shape> {
        let mut key = String::with_capacity(2 * input_len);
        let mut literals = Vec::new();
        let mut slots = Slots::default();
        for token in tokens {
            let token = token?.token;
            if !key.is_empty() {
                key.push(' ');
            }
            let slot = slots.is_slot(&token);
            key.push_str(&spelling(&token, slot));
            if slot {
                literals.extend(literal(token));
            }
        }
        Ok(Shape { key, literals })
    }

    /// The shape itself: the tokens, space-separated, each slot written
    /// `?i`, `?r` or `?s` by its type. Two queries have one key exactly
    /// when they have one shape.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The literals in the slots, in token order.
    pub fn literals(&self) -> &[Value] {
        &self.literals
    }
}

/// Parse `query` as [`crate::parse`] does, but with the literal in each
/// slot replaced by the slot's [`sentinel`] of the literal's type.
pub fn parse_sentinels(query: &str) -> Result<Query> {
    let mut slots = Slots::default();
    let mut slot = 0;
    let mut tokens = Vec::new();
    for token in Lexer::new(query) {
        let mut token = token?;
        if slots.is_slot(&token.token) {
            let data_type = match token.token {
                Token::Int(_) => DataType::Int,
                Token::Real(_) => DataType::Real,
                _ => DataType::Text,
            };
            token.token = match sentinel(slot, data_type) {
                Value::Int(i) => Token::Int(i),
                Value::Real(r) => Token::Real(r),
                Value::Text(s) => Token::Str(Cow::Owned(s)),
                _ => token.token,
            };
            slot += 1;
        }
        tokens.push(token);
    }
    parse_tokens(tokens, query.len())
}

/// What marks a TEXT sentinel: no query builds a plan with such a text in
/// it but from a sentinel.
const TEXT_TAG: &str = "\u{0}slot ";

/// The value that stands in for slot `slot` of type `data_type`: a
/// negative INT or REAL — the lexer reads no sign, so no literal is one —
/// or a TEXT tagged with the slot number. BOOL has no slots; its sentinel
/// is the TEXT one.
pub fn sentinel(slot: usize, data_type: DataType) -> Value {
    match data_type {
        DataType::Int => Value::Int(-1 - slot as i64),
        DataType::Real => Value::Real(-1.0 - slot as f64),
        DataType::Text | DataType::Bool => Value::Text(format!("{TEXT_TAG}{slot}")),
    }
}

/// The slot whose [`sentinel`] `value` is, if it is one.
pub fn sentinel_slot(value: &Value) -> Option<usize> {
    let slot = match value {
        Value::Int(i) => usize::try_from((-1i64).checked_sub(*i)?).ok()?,
        // The range check also turns NaN away.
        Value::Real(r) if (-1e15..=-1.0).contains(r) => (-1.0 - r) as usize,
        Value::Text(s) => s.strip_prefix(TEXT_TAG)?.parse().ok()?,
        _ => return None,
    };
    (sentinel(slot, value.data_type()?) == *value).then_some(slot)
}

/// Which tokens are slots: every INT, REAL and TEXT literal but a
/// `LIMIT`'s count, which says what the plan is.
#[derive(Default)]
struct Slots {
    after_limit: bool,
}

impl Slots {
    fn is_slot(&mut self, token: &Token<'_>) -> bool {
        let limit_count = std::mem::replace(&mut self.after_limit, is_keyword(token, "LIMIT"));
        match token {
            Token::Int(_) => !limit_count,
            Token::Real(_) | Token::Str(_) => true,
            _ => false,
        }
    }
}

fn is_keyword(token: &Token<'_>, keyword: &str) -> bool {
    matches!(token, Token::Ident(s) if s.eq_ignore_ascii_case(keyword))
}

/// A token as its shape spells it: a slot by its type.
fn spelling<'t>(token: &'t Token<'_>, slot: bool) -> Cow<'t, str> {
    Cow::Borrowed(match token {
        Token::Int(_) if slot => "?i",
        Token::Int(i) => return Cow::Owned(i.to_string()),
        Token::Real(_) => "?r",
        Token::Str(_) => "?s",
        Token::Ident(s) => s,
        Token::Comma => ",",
        Token::LParen => "(",
        Token::RParen => ")",
        Token::Dot => ".",
        Token::Star => "*",
        Token::Slash => "/",
        Token::Plus => "+",
        Token::Minus => "-",
        Token::Eq => "=",
        Token::Ne => "<>",
        Token::Lt => "<",
        Token::Le => "<=",
        Token::Gt => ">",
        Token::Ge => ">=",
        Token::Semicolon => ";",
    })
}

/// A literal token's value.
fn literal(token: Token<'_>) -> Option<Value> {
    match token {
        Token::Int(i) => Some(Value::Int(i)),
        Token::Real(r) => Some(Value::Real(r)),
        Token::Str(s) => Some(Value::Text(s.into_owned())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn literals_become_typed_slots_and_the_rest_stays() {
        let shape =
            Shape::of("SELECT a.k FROM a WHERE a.k >= 12 AND s <> 'it''s' OR x < 2.5").unwrap();
        assert_eq!(
            shape.key(),
            "SELECT a . k FROM a WHERE a . k >= ?i AND s <> ?s OR x < ?r"
        );
        assert_eq!(
            shape.literals(),
            [Value::Int(12), Value::text("it's"), Value::Real(2.5)]
        );
        // Spacing, comments and `!=` for `<>` do not make another shape;
        // a value of another type, a LIMIT count, NULL and TRUE do.
        let key = |sql: &str| Shape::of(sql).unwrap().key().to_owned();
        assert_eq!(
            key("SELECT k FROM t WHERE k != 1"),
            key("SELECT  k FROM t -- note\n WHERE k<>7")
        );
        for (a, b) in [
            (
                "SELECT k FROM t WHERE k = 1",
                "SELECT k FROM t WHERE k = 1.0",
            ),
            ("SELECT k FROM t LIMIT 1", "SELECT k FROM t LIMIT 2"),
            (
                "SELECT k FROM t WHERE k = 1",
                "SELECT k FROM t WHERE k = NULL",
            ),
            (
                "SELECT k FROM t WHERE b = TRUE",
                "SELECT k FROM t WHERE b = FALSE",
            ),
            (
                "SELECT k FROM t WHERE k = 1",
                "SELECT k FROM t WHERE k = -1",
            ),
        ] {
            assert_ne!(key(a), key(b), "{a} / {b}");
        }
        assert_eq!(Shape::of("SELECT k FROM t LIMIT 3").unwrap().literals(), []);
    }

    #[test]
    fn an_explained_query_has_the_query_s_shape() {
        let query = Shape::of("SELECT k FROM t WHERE k = 4").unwrap();
        for statement in [
            "EXPLAIN SELECT k FROM t WHERE k = 4",
            "explain analyze SELECT k FROM t WHERE k = 4",
        ] {
            assert_eq!(Shape::explained(statement).unwrap(), query, "{statement}");
        }
        assert_ne!(
            Shape::of("EXPLAIN SELECT k FROM t WHERE k = 4").unwrap(),
            query
        );
    }

    #[test]
    fn a_lexer_error_is_the_parser_s() {
        for sql in [
            "SELECT k FROM t WHERE k = @",
            "SELECT 'open",
            "SELECT 99999999999999999999",
        ] {
            assert_eq!(
                Shape::of(sql).unwrap_err(),
                parse(sql).unwrap_err(),
                "{sql}"
            );
        }
    }

    #[test]
    fn sentinels_stand_in_for_their_slots() {
        let sql = "SELECT k FROM t WHERE k BETWEEN 1 AND 2 AND s = 'x' LIMIT 5";
        let text = format!("{:?}", parse_sentinels(sql).unwrap());
        for part in ["Int(-1)", "Int(-2)", "\"\\0slot 2\"", "limit: Some(5)"] {
            assert!(text.contains(part), "{part} in {text}");
        }
        for (slot, data_type) in [(0, DataType::Int), (7, DataType::Real), (3, DataType::Text)] {
            assert_eq!(sentinel_slot(&sentinel(slot, data_type)), Some(slot));
        }
        for value in [
            Value::Int(0),
            Value::Int(5),
            Value::Real(-0.5),
            Value::Real(f64::NAN),
            Value::text("slot 1"),
            Value::Null,
            Value::Bool(true),
        ] {
            assert_eq!(sentinel_slot(&value), None, "{value:?}");
        }
    }
}
