//! Recursive-descent parser.

use crate::ast::{
    BinOp, ColumnDef, Expr, JoinClause, OrderItem, Query, Select, SelectItem, Statement, TableRef,
};
use crate::error::SqlError;
use crate::lexer::{tokenize, Spanned, Token};
use crate::Result;
use pcqe_storage::DataType;

/// Parse a SQL string into a [`Query`]: the query production of
/// [`parse_statement`]'s grammar.
pub fn parse(input: &str) -> Result<Query> {
    Parser::parse_all(tokenize(input)?, input.len(), Parser::query)
}

/// Parse a SQL string into a [`Statement`]: a query, `EXPLAIN [ANALYZE]`
/// of one, `CREATE TABLE`, `CREATE INDEX`, or `INSERT … [WITH CONFIDENCE c]`.
pub fn parse_statement(input: &str) -> Result<Statement> {
    Parser::parse_all(tokenize(input)?, input.len(), Parser::statement)
}

/// Parse an already tokenized query of an `input_len`-byte input.
pub(crate) fn parse_tokens(tokens: Vec<Spanned<'_>>, input_len: usize) -> Result<Query> {
    Parser::parse_all(tokens, input_len, Parser::query)
}

struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    pos: usize,
    input_len: usize,
    depth: usize,
}

/// Maximum expression nesting depth; beyond this the parser reports an
/// error instead of risking the stack.
const MAX_EXPR_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    /// Parse the tokens of an `input_len`-byte input as one `production`,
    /// optionally followed by `;` and nothing else.
    fn parse_all<T>(
        tokens: Vec<Spanned<'a>>,
        input_len: usize,
        production: fn(&mut Parser<'a>) -> Result<T>,
    ) -> Result<T> {
        let mut p = Parser {
            tokens,
            pos: 0,
            input_len,
            depth: 0,
        };
        let parsed = production(&mut p)?;
        p.eat_if(&Token::Semicolon);
        match p.peek() {
            Some(t) => Err(p.err_at(t.pos, "unexpected trailing input")),
            None => Ok(parsed),
        }
    }

    fn peek(&self) -> Option<&Spanned<'a>> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Spanned<'a>> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, message: impl Into<String>) -> SqlError {
        let pos = self.peek().map(|t| t.pos).unwrap_or(self.input_len);
        SqlError::Parse {
            pos,
            message: message.into(),
        }
    }

    fn err_at(&self, pos: usize, message: impl Into<String>) -> SqlError {
        SqlError::Parse {
            pos,
            message: message.into(),
        }
    }

    /// Is the next token the given keyword (case-insensitive)?
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Spanned { token: Token::Ident(s), .. }) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the next token if it is the given keyword.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {kw}")))
        }
    }

    fn eat_if(&mut self, token: &Token<'_>) -> bool {
        if self.peek().map(|t| &t.token) == Some(token) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: Token<'_>, what: &str) -> Result<()> {
        if self.eat_if(&token) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}")))
        }
    }

    /// Take an identifier that is not a reserved keyword.
    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek() {
            Some(Spanned {
                token: Token::Ident(s),
                ..
            }) if !is_reserved(s) => {
                let s = (*s).to_owned();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err_here(format!("expected {what}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            let query = self.query()?;
            Ok(Statement::Explain { analyze, query })
        } else if self.eat_kw("CREATE") {
            if self.eat_kw("INDEX") {
                self.create_index()
            } else {
                self.create_table()
            }
        } else if self.eat_kw("INSERT") {
            self.insert()
        } else {
            Ok(Statement::Query(self.query()?))
        }
    }

    /// `INDEX ON table (column)`, after `CREATE`.
    fn create_index(&mut self) -> Result<Statement> {
        self.expect_kw("ON")?;
        let table = self.ident("table name")?;
        self.expect(Token::LParen, "`(`")?;
        let column = self.ident("column name")?;
        self.expect(Token::RParen, "`)`")?;
        Ok(Statement::CreateIndex { table, column })
    }

    /// `TABLE name (col TYPE, …)`, after `CREATE`.
    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let name = self.ident("table name")?;
        self.expect(Token::LParen, "`(`")?;
        let mut columns = vec![self.column_def()?];
        while self.eat_if(&Token::Comma) {
            columns.push(self.column_def()?);
        }
        self.expect(Token::RParen, "`)`")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn column_def(&mut self) -> Result<ColumnDef> {
        let name = self.ident("column name")?;
        let ty = self.ident("column type")?;
        let data_type = match ty.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" => DataType::Int,
            "REAL" | "FLOAT" | "DOUBLE" => DataType::Real,
            "TEXT" | "STRING" | "VARCHAR" | "CHAR" => DataType::Text,
            "BOOL" | "BOOLEAN" => DataType::Bool,
            other => {
                return Err(self.err_here(format!("unknown column type `{other}`")));
            }
        };
        Ok(ColumnDef { name, data_type })
    }

    /// `INTO name VALUES (…), … [WITH CONFIDENCE c]`, after `INSERT`.
    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident("table name")?;
        self.expect_kw("VALUES")?;
        let mut rows = vec![self.value_row()?];
        while self.eat_if(&Token::Comma) {
            rows.push(self.value_row()?);
        }
        let confidence = if self.eat_kw("WITH") {
            self.expect_kw("CONFIDENCE")?;
            let pos = self.peek().map(|t| t.pos).unwrap_or(self.input_len);
            match self.next().map(|t| t.token) {
                Some(Token::Real(r)) => Some(r),
                Some(Token::Int(i)) => Some(i as f64),
                _ => {
                    return Err(self.err_at(pos, "expected a numeric confidence"));
                }
            }
        } else {
            None
        };
        Ok(Statement::Insert {
            table,
            rows,
            confidence,
        })
    }

    fn value_row(&mut self) -> Result<Vec<Expr>> {
        self.expect(Token::LParen, "`(`")?;
        let mut row = vec![self.expr()?];
        while self.eat_if(&Token::Comma) {
            row.push(self.expr()?);
        }
        self.expect(Token::RParen, "`)`")?;
        Ok(row)
    }

    fn query(&mut self) -> Result<Query> {
        let mut left = Query::Select(self.select()?);
        loop {
            if self.eat_kw("UNION") {
                let right = Query::Select(self.select()?);
                left = Query::Union(Box::new(left), Box::new(right));
            } else if self.eat_kw("EXCEPT") {
                let right = Query::Select(self.select()?);
                left = Query::Except(Box::new(left), Box::new(right));
            } else {
                break;
            }
        }
        // ORDER BY / LIMIT apply to the whole set expression.
        let mut keys = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let descending = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                keys.push(OrderItem { expr, descending });
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            let pos = self.peek().map(|t| t.pos).unwrap_or(self.input_len);
            match self.next().map(|t| t.token) {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                _ => return Err(self.err_at(pos, "expected a non-negative LIMIT count")),
            }
        } else {
            None
        };
        if !keys.is_empty() || limit.is_some() {
            left = Query::Ordered {
                input: Box::new(left),
                keys,
                limit,
            };
        }
        Ok(left)
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };
        let items = if self.eat_if(&Token::Star) {
            Vec::new()
        } else {
            let mut items = vec![self.select_item()?];
            while self.eat_if(&Token::Comma) {
                items.push(self.select_item()?);
            }
            items
        };
        self.expect_kw("FROM")?;
        let mut from = vec![self.table_ref()?];
        let mut joins = Vec::new();
        loop {
            if self.eat_if(&Token::Comma) {
                from.push(self.table_ref()?);
            } else if self.eat_kw("JOIN") || {
                // INNER JOIN
                if self.peek_kw("INNER") {
                    let save = self.pos;
                    self.pos += 1;
                    if self.eat_kw("JOIN") {
                        true
                    } else {
                        self.pos = save;
                        false
                    }
                } else {
                    false
                }
            } {
                let table = self.table_ref()?;
                self.expect_kw("ON")?;
                let on = self.expr()?;
                joins.push(JoinClause { table, on });
            } else {
                break;
            }
        }
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.expr()?);
            while self.eat_if(&Token::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            joins,
            selection,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident("alias after AS")?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.ident("table name")?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident("alias after AS")?)
        } else {
            // Bare alias: `FROM Proposal p`.
            match self.peek() {
                Some(Spanned {
                    token: Token::Ident(s),
                    ..
                }) if !is_reserved(s) => {
                    let s = (*s).to_owned();
                    self.pos += 1;
                    Some(s)
                }
                _ => None,
            }
        };
        Ok(TableRef { table, alias })
    }

    fn expr(&mut self) -> Result<Expr> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(self.err_here(format!(
                "expression nesting exceeds {MAX_EXPR_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let out = self.or_expr();
        self.depth -= 1;
        out
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        // Postfix predicate forms first: IS [NOT] NULL, [NOT] BETWEEN,
        // [NOT] IN, [NOT] LIKE.
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = {
            // NOT here only applies to BETWEEN/IN/LIKE; bare `x NOT` is an
            // error reported by the expect below.
            let save = self.pos;
            if self.eat_kw("NOT") {
                if self.peek_kw("BETWEEN") || self.peek_kw("IN") || self.peek_kw("LIKE") {
                    true
                } else {
                    self.pos = save;
                    false
                }
            } else {
                false
            }
        };
        if self.eat_kw("BETWEEN") {
            // Desugar: x BETWEEN a AND b → x >= a AND x <= b.
            let lo = self.add_expr()?;
            self.expect_kw("AND")?;
            let hi = self.add_expr()?;
            let range = Expr::Binary {
                op: BinOp::And,
                left: Box::new(Expr::Binary {
                    op: BinOp::Ge,
                    left: Box::new(left.clone()),
                    right: Box::new(lo),
                }),
                right: Box::new(Expr::Binary {
                    op: BinOp::Le,
                    left: Box::new(left),
                    right: Box::new(hi),
                }),
            };
            return Ok(if negated {
                Expr::Not(Box::new(range))
            } else {
                range
            });
        }
        if self.eat_kw("IN") {
            // Desugar: x IN (a, b) → x = a OR x = b.
            self.expect(Token::LParen, "`(`")?;
            let mut alternatives = vec![self.add_expr()?];
            while self.eat_if(&Token::Comma) {
                alternatives.push(self.add_expr()?);
            }
            self.expect(Token::RParen, "`)`")?;
            let mut disjunction: Option<Expr> = None;
            for alt in alternatives {
                let eq = Expr::Binary {
                    op: BinOp::Eq,
                    left: Box::new(left.clone()),
                    right: Box::new(alt),
                };
                disjunction = Some(match disjunction {
                    None => eq,
                    Some(d) => Expr::Binary {
                        op: BinOp::Or,
                        left: Box::new(d),
                        right: Box::new(eq),
                    },
                });
            }
            let Some(set) = disjunction else {
                return Err(self.err_here("empty IN list"));
            };
            return Ok(if negated {
                Expr::Not(Box::new(set))
            } else {
                set
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.add_expr()?;
            let like = Expr::Binary {
                op: BinOp::Like,
                left: Box::new(left),
                right: Box::new(pattern),
            };
            return Ok(if negated {
                Expr::Not(Box::new(like))
            } else {
                like
            });
        }
        if negated {
            return Err(self.err_here("expected BETWEEN, IN or LIKE after NOT"));
        }
        let op = match self.peek().map(|t| &t.token) {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.add_expr()?;
            Ok(Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            })
        } else {
            Ok(left)
        }
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.token) {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.token) {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat_if(&Token::Minus) {
            Ok(Expr::Neg(Box::new(self.unary_expr()?)))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        let Some(t) = self.next() else {
            return Err(self.err_here("unexpected end of input"));
        };
        match t.token {
            Token::Int(i) => Ok(Expr::Int(i)),
            Token::Real(r) => Ok(Expr::Real(r)),
            Token::Str(s) => Ok(Expr::Str(s.into_owned())),
            Token::LParen => {
                let e = self.expr()?;
                self.expect(Token::RParen, "`)`")?;
                Ok(e)
            }
            Token::Ident(s) if s.eq_ignore_ascii_case("TRUE") => Ok(Expr::Bool(true)),
            Token::Ident(s) if s.eq_ignore_ascii_case("FALSE") => Ok(Expr::Bool(false)),
            Token::Ident(s) if s.eq_ignore_ascii_case("NULL") => Ok(Expr::Null),
            Token::Ident(s)
                if agg_func(s).is_some()
                    && self.peek().map(|t| &t.token) == Some(&Token::LParen) =>
            {
                // The match guard established `agg_func(s).is_some()`; the
                // impossible miss becomes a parse error, not a panic.
                let func = match agg_func(s) {
                    Some(f) => f,
                    None => return Err(self.err_here("expected an aggregate function")),
                };
                self.expect(Token::LParen, "`(`")?;
                let arg = if func == pcqe_algebra::plan::AggFunc::Count && self.eat_if(&Token::Star)
                {
                    None
                } else {
                    Some(Box::new(self.expr()?))
                };
                self.expect(Token::RParen, "`)`")?;
                Ok(Expr::Agg { func, arg })
            }
            Token::Ident(s) if !is_reserved(s) => {
                if self.eat_if(&Token::Dot) {
                    let name = self.ident("column name after `.`")?;
                    Ok(Expr::Column {
                        qualifier: Some(s.to_owned()),
                        name,
                    })
                } else {
                    Ok(Expr::Column {
                        qualifier: None,
                        name: s.to_owned(),
                    })
                }
            }
            other => Err(self.err_at(t.pos, format!("unexpected token {other:?}"))),
        }
    }
}

/// Keywords that cannot be used as bare identifiers.
fn is_reserved(s: &str) -> bool {
    const RESERVED: &[&str] = &[
        "SELECT", "DISTINCT", "ALL", "FROM", "WHERE", "JOIN", "INNER", "ON", "AS", "AND", "OR",
        "NOT", "UNION", "EXCEPT", "TRUE", "FALSE", "NULL", "ORDER", "LIMIT", "GROUP", "HAVING",
    ];
    RESERVED.iter().any(|k| k.eq_ignore_ascii_case(s))
}

/// Map an identifier to an aggregate function, if it names one.
fn agg_func(s: &str) -> Option<pcqe_algebra::plan::AggFunc> {
    use pcqe_algebra::plan::AggFunc;
    let f = match s.to_ascii_uppercase().as_str() {
        "COUNT" => AggFunc::Count,
        "SUM" => AggFunc::Sum,
        "AVG" => AggFunc::Avg,
        "MIN" => AggFunc::Min,
        "MAX" => AggFunc::Max,
        _ => return None,
    };
    Some(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_select() {
        let q = parse("SELECT * FROM t").unwrap();
        let Query::Select(s) = q else {
            panic!("expected select")
        };
        assert!(s.items.is_empty());
        assert_eq!(s.from[0].table, "t");
        assert!(!s.distinct);
    }

    #[test]
    fn distinct_projection_and_aliases() {
        let q = parse("SELECT DISTINCT c.company AS name, income FROM CompanyInfo c").unwrap();
        let Query::Select(s) = q else { panic!() };
        assert!(s.distinct);
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.items[0].alias.as_deref(), Some("name"));
        let company = Expr::Column {
            qualifier: Some("c".into()),
            name: "company".into(),
        };
        assert_eq!(s.items[0].expr, company);
        assert_eq!(s.from[0].alias.as_deref(), Some("c"));
    }

    #[test]
    fn joins_and_where() {
        let q = parse(
            "SELECT DISTINCT CompanyInfo.company, income \
             FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
             WHERE funding < 1000000.0",
        )
        .unwrap();
        let Query::Select(s) = q else { panic!() };
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].table.table, "CompanyInfo");
        assert!(s.selection.is_some());
    }

    #[test]
    fn inner_join_keyword() {
        let q = parse("SELECT * FROM a INNER JOIN b ON a.x = b.x").unwrap();
        let Query::Select(s) = q else { panic!() };
        assert_eq!(s.joins.len(), 1);
    }

    #[test]
    fn cross_product_by_comma() {
        let q = parse("SELECT * FROM a, b WHERE a.x = b.x").unwrap();
        let Query::Select(s) = q else { panic!() };
        assert_eq!(s.from.len(), 2);
    }

    #[test]
    fn operator_precedence() {
        // a OR b AND c parses as a OR (b AND c)
        let q = parse("SELECT * FROM t WHERE a OR b AND c").unwrap();
        let Query::Select(s) = q else { panic!() };
        let Some(Expr::Binary {
            op: BinOp::Or,
            right,
            ..
        }) = s.selection
        else {
            panic!("expected OR at top");
        };
        assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));

        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let q = parse("SELECT * FROM t WHERE x = 1 + 2 * 3").unwrap();
        let Query::Select(s) = q else { panic!() };
        let Some(Expr::Binary {
            op: BinOp::Eq,
            right,
            ..
        }) = s.selection
        else {
            panic!()
        };
        let Expr::Binary {
            op: BinOp::Add,
            right,
            ..
        } = *right
        else {
            panic!("expected + under =");
        };
        assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn union_and_except_are_left_associative() {
        let q = parse("SELECT * FROM a UNION SELECT * FROM b EXCEPT SELECT * FROM c").unwrap();
        assert!(matches!(q, Query::Except(_, _)));
        let Query::Except(l, _) = q else { panic!() };
        assert!(matches!(*l, Query::Union(_, _)));
    }

    #[test]
    fn parenthesised_predicates_and_not() {
        let q = parse("SELECT * FROM t WHERE NOT (x = 1 OR y = 2)").unwrap();
        let Query::Select(s) = q else { panic!() };
        assert!(matches!(s.selection, Some(Expr::Not(_))));
    }

    #[test]
    fn literals() {
        let q = parse("SELECT * FROM t WHERE s = 'it''s' AND b = TRUE AND n = NULL").unwrap();
        let Query::Select(s) = q else { panic!() };
        assert!(s.selection.is_some());
    }

    #[test]
    fn negative_numbers() {
        let q = parse("SELECT * FROM t WHERE x > -5").unwrap();
        let Query::Select(s) = q else { panic!() };
        let Some(Expr::Binary { right, .. }) = s.selection else {
            panic!()
        };
        assert!(matches!(*right, Expr::Neg(_)));
    }

    #[test]
    fn error_positions_and_messages() {
        assert!(matches!(parse("SELECT"), Err(SqlError::Parse { .. })));
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t extra garbage ,").is_err());
        assert!(parse("FROM t").is_err());
        // Reserved word used as a table name.
        assert!(parse("SELECT * FROM select").is_err());
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse("SELECT * FROM t;").is_ok());
    }

    #[test]
    fn create_table_statement() {
        let s = parse_statement(
            "CREATE TABLE Proposal (company TEXT, funding REAL, year INT, open BOOL);",
        )
        .unwrap();
        let Statement::CreateTable { name, columns } = s else {
            panic!("expected CREATE TABLE");
        };
        assert_eq!(name, "Proposal");
        assert_eq!(columns.len(), 4);
        assert_eq!(columns[1].data_type, DataType::Real);
        assert_eq!(columns[3].data_type, DataType::Bool);
    }

    #[test]
    fn create_table_rejects_unknown_types() {
        assert!(parse_statement("CREATE TABLE t (x BLOB)").is_err());
        assert!(parse_statement("CREATE TABLE t ()").is_err());
    }

    #[test]
    fn insert_with_confidence() {
        let s =
            parse_statement("INSERT INTO t VALUES (1, 'a'), (2, 'b') WITH CONFIDENCE 0.4").unwrap();
        let Statement::Insert {
            table,
            rows,
            confidence,
        } = s
        else {
            panic!("expected INSERT");
        };
        assert_eq!(table, "t");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2);
        assert_eq!(confidence, Some(0.4));
    }

    #[test]
    fn insert_without_confidence_defaults() {
        let s = parse_statement("INSERT INTO t VALUES (-3.5)").unwrap();
        let Statement::Insert {
            confidence, rows, ..
        } = s
        else {
            panic!()
        };
        assert_eq!(confidence, None);
        assert!(matches!(rows[0][0], Expr::Neg(_)));
    }

    #[test]
    fn statement_parser_accepts_queries_too() {
        let s = parse_statement("SELECT * FROM t").unwrap();
        assert!(matches!(s, Statement::Query(_)));
    }

    #[test]
    fn explain_statements() {
        for (sql, analyze) in [
            ("EXPLAIN SELECT x FROM t", false),
            ("explain analyze SELECT x FROM t;", true),
        ] {
            let Statement::Explain { analyze: a, query } = parse_statement(sql).unwrap() else {
                panic!("expected EXPLAIN: {sql}");
            };
            assert_eq!(a, analyze, "{sql}");
            assert_eq!(query, parse("SELECT x FROM t").unwrap());
        }
        // Only a query can be explained, and `parse` reads queries only.
        for sql in [
            "EXPLAIN",
            "EXPLAIN ANALYZE",
            "EXPLAIN INSERT INTO t VALUES (1)",
            "EXPLAIN EXPLAIN SELECT x FROM t",
            "EXPLAIN CREATE INDEX ON t (x)",
        ] {
            assert!(parse_statement(sql).is_err(), "{sql}");
        }
        assert!(parse("EXPLAIN SELECT x FROM t").is_err());
    }

    #[test]
    fn create_index_statement() {
        let s = parse_statement("CREATE INDEX ON orders (cust);").unwrap();
        assert_eq!(
            s,
            Statement::CreateIndex {
                table: "orders".into(),
                column: "cust".into(),
            }
        );
        for sql in [
            "CREATE INDEX ix ON t (x)",
            "CREATE INDEX ON t x",
            "CREATE INDEX ON t (x, y)",
            "CREATE INDEX ON t ()",
            "CREATE VIEW v",
        ] {
            assert!(parse_statement(sql).is_err(), "{sql}");
        }
    }

    #[test]
    fn insert_errors() {
        assert!(parse_statement("INSERT t VALUES (1)").is_err());
        assert!(parse_statement("INSERT INTO t VALUES 1").is_err());
        assert!(parse_statement("INSERT INTO t VALUES (1) WITH CONFIDENCE 'x'").is_err());
    }
}
