//! SQL tokenizer.

use crate::error::SqlError;
use crate::Result;
use std::borrow::Cow;

/// A lexical token, borrowing identifiers (and string literals without an
/// escape) from the input.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Identifier or keyword (keywords are matched case-insensitively by
    /// the parser).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Real(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(Cow<'a, str>),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semicolon,
}

/// A token plus the byte offset where it starts (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// Byte offset of the token's first character.
    pub pos: usize,
}

/// Tokenize a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Spanned<'_>>> {
    Lexer::new(input).collect()
}

/// The tokens of a SQL string, one at a time: the one lexer behind
/// [`tokenize`] and [`crate::Shape`]. After an error it yields nothing.
#[derive(Debug)]
pub struct Lexer<'a> {
    input: &'a str,
    i: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, i: 0 }
    }

    /// The token at the cursor, skipping whitespace and comments; `None`
    /// at the end of the input.
    fn token(&mut self) -> Result<Option<Spanned<'a>>> {
        let (input, bytes) = (self.input, self.input.as_bytes());
        loop {
            let i = self.i;
            let Some((&b, after)) = bytes.get(i..).and_then(<[u8]>::split_first) else {
                return Ok(None);
            };
            let (token, len) = match b as char {
                c if c.is_ascii_whitespace() => {
                    self.i += 1;
                    continue;
                }
                '-' if bytes.get(i + 1) == Some(&b'-') => {
                    // Line comment.
                    self.i += 1 + after.iter().take_while(|&&c| c != b'\n').count();
                    continue;
                }
                ',' => (Token::Comma, 1),
                '(' => (Token::LParen, 1),
                ')' => (Token::RParen, 1),
                '.' => (Token::Dot, 1),
                '*' => (Token::Star, 1),
                '/' => (Token::Slash, 1),
                '+' => (Token::Plus, 1),
                '-' => (Token::Minus, 1),
                ';' => (Token::Semicolon, 1),
                '=' => (Token::Eq, 1),
                '!' if bytes.get(i + 1) == Some(&b'=') => (Token::Ne, 2),
                '!' => {
                    return Err(SqlError::Lex {
                        pos: i,
                        message: "unexpected `!`".into(),
                    })
                }
                '<' => match bytes.get(i + 1) {
                    Some(&b'=') => (Token::Le, 2),
                    Some(&b'>') => (Token::Ne, 2),
                    _ => (Token::Lt, 1),
                },
                '>' if bytes.get(i + 1) == Some(&b'=') => (Token::Ge, 2),
                '>' => (Token::Gt, 1),
                '\'' => string(input, i)?,
                c if c.is_ascii_digit() => number(input, i)?,
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let len = 1 + after
                        .iter()
                        .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                        .count();
                    (Token::Ident(cut(input, i..i + len, i)?), len)
                }
                other => {
                    return Err(SqlError::Lex {
                        pos: i,
                        message: format!("unexpected character `{other}`"),
                    })
                }
            };
            self.i = i + len;
            return Ok(Some(Spanned { token, pos: i }));
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Spanned<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        let token = self.token();
        if token.is_err() {
            self.i = self.input.len();
        }
        token.transpose()
    }
}

/// The string literal whose opening quote is at `start`, and its length
/// in bytes, quotes included: borrowed unless it holds an escaped quote.
fn string(input: &str, start: usize) -> Result<(Token<'_>, usize)> {
    let unterminated = || SqlError::Lex {
        pos: start,
        message: "unterminated string literal".into(),
    };
    let mut rest = input.get(start + 1..).ok_or_else(unterminated)?;
    let mut owned: Option<String> = None;
    loop {
        let (text, after) = rest.split_once('\'').ok_or_else(unterminated)?;
        if let Some(tail) = after.strip_prefix('\'') {
            // `''`: the text so far, one quote, and on.
            let so_far = owned.get_or_insert_with(String::new);
            so_far.push_str(text);
            so_far.push('\'');
            rest = tail;
            continue;
        }
        let text = match owned {
            Some(mut so_far) => {
                so_far.push_str(text);
                Cow::Owned(so_far)
            }
            None => Cow::Borrowed(text),
        };
        return Ok((Token::Str(text), input.len() - after.len() - start));
    }
}

/// The number literal starting at `start`, and its length in bytes.
fn number(input: &str, start: usize) -> Result<(Token<'_>, usize)> {
    let bytes = input.as_bytes();
    let digits = |from: usize| {
        bytes.get(from..).map_or(0, |rest| {
            rest.iter().take_while(|b| b.is_ascii_digit()).count()
        })
    };
    let mut end = start + digits(start);
    let mut is_real = false;
    if bytes.get(end) == Some(&b'.') && digits(end + 1) > 0 {
        is_real = true;
        end += 1 + digits(end + 1);
    }
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        let mut j = end + 1;
        if matches!(bytes.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if digits(j) > 0 {
            is_real = true;
            end = j + digits(j);
        }
    }
    let text = cut(input, start..end, start)?;
    let token = if is_real {
        Token::Real(text.parse().map_err(|_| SqlError::Lex {
            pos: start,
            message: format!("bad real literal `{text}`"),
        })?)
    } else {
        Token::Int(text.parse().map_err(|_| SqlError::Lex {
            pos: start,
            message: format!("bad integer literal `{text}`"),
        })?)
    };
    Ok((token, end - start))
}

/// `input[range]`, or a lex error at `pos`. Every range the lexer cuts
/// ends before an ASCII byte or the end, so it lies on character
/// boundaries.
fn cut(input: &str, range: std::ops::Range<usize>, pos: usize) -> Result<&str> {
    input.get(range).ok_or_else(|| SqlError::Lex {
        pos,
        message: "token ends inside a character".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token<'_>> {
        tokenize(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn keywords_and_symbols() {
        assert_eq!(
            toks("SELECT * FROM t WHERE x >= 2;"),
            vec![
                Token::Ident("SELECT"),
                Token::Star,
                Token::Ident("FROM"),
                Token::Ident("t"),
                Token::Ident("WHERE"),
                Token::Ident("x"),
                Token::Ge,
                Token::Int(2),
                Token::Semicolon,
            ]
        );
    }

    #[test]
    fn numbers_int_real_exponent() {
        assert_eq!(
            toks("1 2.5 3e2 4.5E-1"),
            vec![
                Token::Int(1),
                Token::Real(2.5),
                Token::Real(300.0),
                Token::Real(0.45),
            ]
        );
        // A trailing dot is not part of the number.
        assert_eq!(toks("1."), vec![Token::Int(1), Token::Dot]);
    }

    #[test]
    fn strings_with_escapes_and_unicode() {
        assert_eq!(
            toks("'it''s' 'héllo'"),
            vec![Token::Str("it's".into()), Token::Str("héllo".into())]
        );
        // Only a literal with an escaped quote is copied out of the input.
        let borrowed = |t: &Token<'_>| matches!(t, Token::Str(Cow::Borrowed(_)));
        let tokens = toks("'it''s' 'héllo' ''");
        assert_eq!(
            tokens.iter().map(borrowed).collect::<Vec<_>>(),
            [false, true, true]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("< <= > >= = <> !="),
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Ne,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("SELECT -- the works\n x"),
            vec![Token::Ident("SELECT"), Token::Ident("x")]
        );
    }

    #[test]
    fn errors_carry_positions() {
        match tokenize("SELECT @") {
            Err(SqlError::Lex { pos, .. }) => assert_eq!(pos, 7),
            other => panic!("expected lex error, got {other:?}"),
        }
        assert!(tokenize("'open").is_err());
        assert!(tokenize("!x").is_err());
        // The lexer stops at its first error.
        let mut lexer = Lexer::new("a @ b");
        assert!(matches!(lexer.next(), Some(Ok(_))));
        assert!(matches!(
            lexer.next(),
            Some(Err(SqlError::Lex { pos: 2, .. }))
        ));
        assert!(lexer.next().is_none());
    }
}
