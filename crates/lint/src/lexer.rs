//! A hand-rolled Rust lexer, just deep enough for invariant scanning.
//!
//! The analyzer needs to see identifiers and punctuation while *not*
//! seeing the insides of comments, strings and char literals — a comment
//! saying "never write `x == 0.5` here" must not trip rule D004. The token
//! model is deliberately flat (no token trees, no spans beyond line
//! numbers): rules are expressed as small window patterns over the
//! stream, in the same spirit as `crates/sql/src/lexer.rs`.
//!
//! Handled faithfully:
//! - line comments (`//`, `///`, `//!`) and *nested* block comments;
//! - string literals with escapes, byte strings, raw strings `r#"…"#`
//!   with any number of `#`s;
//! - char literals vs. lifetimes (`'a'` vs. `'a`), including escaped
//!   chars (`'\''`, `'\u{1F600}'`);
//! - raw identifiers (`r#type`);
//! - numeric literals including `0.5` vs. the range `0..5`.
//!
//! Multi-character operators come out as adjacent single-char `Punct`
//! tokens; rules that need `::` match two consecutive `:`s.

/// The kind of a lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (including raw identifiers, prefix stripped).
    Ident(String),
    /// A lifetime such as `'a` (name not retained).
    Lifetime,
    /// String or byte-string literal, with its raw body text (between
    /// the quotes, escapes unprocessed). The dataflow layer reads
    /// `format!`-style implicit captures (`"β={threshold}"`) out of it;
    /// every other rule treats the literal as opaque.
    LitStr(String),
    /// Character or byte literal.
    LitChar,
    /// Integer numeric literal.
    LitNum,
    /// Floating-point numeric literal (`0.5`, `1e9`, `2.5f64`). Kept
    /// distinct from [`Tok::LitNum`] so float-determinism rules can match
    /// comparisons against float constants without retaining digits.
    LitFloat,
    /// A single punctuation character.
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    /// Is this an identifier equal to `s`?
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.tok, Tok::Ident(t) if t == s)
    }

    /// Is this the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }
}

/// Tokenize Rust source. Unknown bytes are skipped rather than reported:
/// the analyzer must never fail on exotic-but-valid source, and a missed
/// token only costs a missed finding on that construct, never a false
/// positive.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        bytes: src.as_bytes(),
        src,
        i: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    src: &'a str,
    i: usize,
    line: u32,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        while self.i < self.bytes.len() {
            let c = self.bytes[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                c if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident_or_prefixed(),
                c if c.is_ascii() => {
                    self.push(Tok::Punct(c as char));
                    self.i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 outside strings/comments: skip the
                    // whole character.
                    self.i += utf8_len(c);
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    fn push(&mut self, tok: Tok) {
        self.out.push(Token {
            tok,
            line: self.line,
        });
    }

    fn line_comment(&mut self) {
        while self.i < self.bytes.len() && self.bytes[self.i] != b'\n' {
            self.i += 1;
        }
    }

    fn block_comment(&mut self) {
        // Rust block comments nest.
        let mut depth = 0usize;
        while self.i < self.bytes.len() {
            if self.bytes[self.i] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.i += 2;
            } else if self.bytes[self.i] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.i += 2;
                if depth == 0 {
                    return;
                }
            } else {
                if self.bytes[self.i] == b'\n' {
                    self.line += 1;
                }
                self.i += 1;
            }
        }
    }

    /// A `"…"` string starting at `self.i`. Handles `\"` and `\\`.
    fn string(&mut self) {
        let line = self.line;
        self.i += 1;
        self.string_unterminated_tail(line);
    }

    /// A raw string `r"…"` / `r#"…"#` with `hashes` trailing `#`s; the
    /// caller has consumed up to and including the opening quote.
    fn raw_string_body(&mut self, hashes: usize, line: u32) {
        let start = self.i;
        while self.i < self.bytes.len() {
            if self.bytes[self.i] == b'\n' {
                self.line += 1;
            }
            if self.bytes[self.i] == b'"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    let body = self.src[start..self.i].to_owned();
                    self.i += 1 + hashes;
                    self.out.push(Token {
                        tok: Tok::LitStr(body),
                        line,
                    });
                    return;
                }
            }
            self.i += 1;
        }
        self.out.push(Token {
            tok: Tok::LitStr(self.src[start..self.i.min(self.src.len())].to_owned()),
            line,
        });
    }

    /// `'` begins either a char literal or a lifetime.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        match self.peek(1) {
            // Escaped char: definitely a literal `'\…'`.
            Some(b'\\') => {
                self.i += 2; // consume `'\`
                if self.i < self.bytes.len() {
                    // The escaped character itself never closes the
                    // literal — `'\''` escapes a quote.
                    self.i += utf8_len(self.bytes[self.i]);
                }
                while self.i < self.bytes.len() && self.bytes[self.i] != b'\'' {
                    self.i += 1;
                }
                self.i += 1; // closing quote
                self.out.push(Token {
                    tok: Tok::LitChar,
                    line,
                });
            }
            Some(c) if c == b'_' || c.is_ascii_alphabetic() => {
                // Could be `'a'` (char) or `'a` / `'static` (lifetime):
                // scan the identifier, then look for a closing quote.
                let mut j = self.i + 1;
                while j < self.bytes.len()
                    && (self.bytes[j] == b'_' || self.bytes[j].is_ascii_alphanumeric())
                {
                    j += 1;
                }
                if self.bytes.get(j) == Some(&b'\'') {
                    self.i = j + 1;
                    self.out.push(Token {
                        tok: Tok::LitChar,
                        line,
                    });
                } else {
                    self.i = j;
                    self.out.push(Token {
                        tok: Tok::Lifetime,
                        line,
                    });
                }
            }
            // `'('`, `'∀'`, … — any other char literal.
            Some(c) => {
                let len = if c.is_ascii() { 1 } else { utf8_len(c) };
                self.i += 1 + len;
                if self.peek(0) == Some(b'\'') {
                    self.i += 1;
                }
                self.out.push(Token {
                    tok: Tok::LitChar,
                    line,
                });
            }
            None => self.i += 1,
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.i;
        while self.i < self.bytes.len()
            && (self.bytes[self.i].is_ascii_alphanumeric() || self.bytes[self.i] == b'_')
        {
            self.i += 1;
        }
        let mut fractional = false;
        // A fractional part only if `.` is followed by a digit — keeps
        // ranges (`0..n`) and method calls (`1.max(2)`) intact.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            fractional = true;
            self.i += 1;
            while self.i < self.bytes.len()
                && (self.bytes[self.i].is_ascii_alphanumeric() || self.bytes[self.i] == b'_')
            {
                self.i += 1;
            }
        }
        let text = &self.src[start..self.i];
        // Classify: hex/octal/binary literals are integers whatever letters
        // they contain; otherwise a fraction, an exponent, or an `f32`/`f64`
        // suffix makes the literal a float.
        let is_float =
            !(text.starts_with("0x") || text.starts_with("0o") || text.starts_with("0b"))
                && (fractional
                    || text.contains(['e', 'E'])
                    || text.ends_with("f32")
                    || text.ends_with("f64"));
        self.out.push(Token {
            tok: if is_float { Tok::LitFloat } else { Tok::LitNum },
            line,
        });
    }

    /// An identifier — or one of the literal prefixes `r"`, `r#"`, `b"`,
    /// `br"`, `b'`, or a raw identifier `r#name`.
    fn ident_or_prefixed(&mut self) {
        let start = self.i;
        let line = self.line;
        // Raw string / raw identifier dispatch on `r` and `br`.
        let c = self.bytes[self.i];
        if c == b'r' || c == b'b' {
            let (prefix_len, allow_raw) = if c == b'b' && self.peek(1) == Some(b'r') {
                (2, true)
            } else if c == b'r' {
                (1, true)
            } else {
                (1, false)
            };
            if c == b'b' && self.peek(1) == Some(b'"') {
                self.i += 2;
                self.string_unterminated_tail(line);
                return;
            }
            if c == b'b' && self.peek(1) == Some(b'\'') {
                // Byte literal b'x'.
                self.i += 1;
                self.char_or_lifetime();
                return;
            }
            if allow_raw {
                // Count hashes after the prefix.
                let mut j = self.i + prefix_len;
                let mut hashes = 0;
                while self.bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if self.bytes.get(j) == Some(&b'"') {
                    self.i = j + 1;
                    self.raw_string_body(hashes, line);
                    return;
                }
                if c == b'r'
                    && hashes == 1
                    && self
                        .bytes
                        .get(j)
                        .is_some_and(|&b| b == b'_' || b.is_ascii_alphabetic())
                {
                    // Raw identifier r#name: lex the name itself.
                    self.i = j;
                    let word = self.take_ident_text();
                    self.out.push(Token {
                        tok: Tok::Ident(word),
                        line,
                    });
                    return;
                }
            }
        }
        self.i = start;
        let word = self.take_ident_text();
        self.out.push(Token {
            tok: Tok::Ident(word),
            line,
        });
    }

    fn take_ident_text(&mut self) -> String {
        let start = self.i;
        while self.i < self.bytes.len()
            && (self.bytes[self.i] == b'_' || self.bytes[self.i].is_ascii_alphanumeric())
        {
            self.i += 1;
        }
        self.src[start..self.i].to_owned()
    }

    /// Body of a `"…"` string whose opening quote is already consumed.
    fn string_unterminated_tail(&mut self, line: u32) {
        let start = self.i;
        let mut end = self.bytes.len();
        while self.i < self.bytes.len() {
            match self.bytes[self.i] {
                b'\\' => {
                    // An escaped newline (line continuation) still ends a
                    // physical source line — keep the counter honest.
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.i += 2;
                }
                b'"' => {
                    end = self.i;
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let body = self.src[start..end.min(self.i).min(self.src.len())].to_owned();
        self.out.push(Token {
            tok: Tok::LitStr(body),
            line,
        });
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            kinds("use std::thread;"),
            vec![
                Tok::Ident("use".into()),
                Tok::Ident("std".into()),
                Tok::Punct(':'),
                Tok::Punct(':'),
                Tok::Ident("thread".into()),
                Tok::Punct(';'),
            ]
        );
    }

    #[test]
    fn comments_hide_identifiers() {
        assert_eq!(kinds("// HashMap here\nx"), vec![Tok::Ident("x".into())]);
        assert_eq!(
            kinds("/* outer /* HashMap */ still comment */ y"),
            vec![Tok::Ident("y".into())]
        );
        assert_eq!(
            kinds("/// docs say HashMap\nz"),
            vec![Tok::Ident("z".into())]
        );
    }

    #[test]
    fn strings_hide_identifiers() {
        assert_eq!(
            kinds(r#"let s = "HashMap::new()";"#),
            vec![
                Tok::Ident("let".into()),
                Tok::Ident("s".into()),
                Tok::Punct('='),
                Tok::LitStr("HashMap::new()".into()),
                Tok::Punct(';'),
            ]
        );
        assert_eq!(
            kinds("r#\"raw HashMap \"# x"),
            vec![Tok::LitStr("raw HashMap ".into()), Tok::Ident("x".into())]
        );
        assert_eq!(
            kinds("br\"bytes\" b\"b\" q"),
            vec![
                Tok::LitStr("bytes".into()),
                Tok::LitStr("b".into()),
                Tok::Ident("q".into())
            ]
        );
        // Escaped quote does not end the string early.
        assert_eq!(
            kinds(r#""a\"HashMap" t"#),
            vec![Tok::LitStr(r#"a\"HashMap"#.into()), Tok::Ident("t".into())]
        );
    }

    #[test]
    fn chars_vs_lifetimes() {
        assert_eq!(kinds("'a'"), vec![Tok::LitChar]);
        assert_eq!(kinds("'\\''"), vec![Tok::LitChar]);
        // The escaped quote must not be taken for the closing quote:
        // everything after the literal keeps lexing normally.
        assert_eq!(
            kinds("'\\''; x"),
            vec![Tok::LitChar, Tok::Punct(';'), Tok::Ident("x".into())]
        );
        assert_eq!(kinds("b'x'"), vec![Tok::LitChar]);
        assert_eq!(
            kinds("&'a str"),
            vec![Tok::Punct('&'), Tok::Lifetime, Tok::Ident("str".into())]
        );
        assert_eq!(
            kinds("<'static>"),
            vec![Tok::Punct('<'), Tok::Lifetime, Tok::Punct('>')]
        );
    }

    #[test]
    fn numbers_and_ranges() {
        assert_eq!(kinds("0.5"), vec![Tok::LitFloat]);
        assert_eq!(
            kinds("0..5"),
            vec![Tok::LitNum, Tok::Punct('.'), Tok::Punct('.'), Tok::LitNum]
        );
        assert_eq!(
            kinds("1.max(2)"),
            vec![
                Tok::LitNum,
                Tok::Punct('.'),
                Tok::Ident("max".into()),
                Tok::Punct('('),
                Tok::LitNum,
                Tok::Punct(')'),
            ]
        );
        assert_eq!(kinds("0xFF_u8 1e9"), vec![Tok::LitNum, Tok::LitFloat]);
    }

    #[test]
    fn float_literal_classification() {
        assert_eq!(kinds("3f64 1.5e3"), vec![Tok::LitFloat, Tok::LitFloat]);
        // A negative exponent splits at the sign; the mantissa is still
        // recognisably a float, which is all the rules need.
        assert_eq!(
            kinds("2.5e-3"),
            vec![Tok::LitFloat, Tok::Punct('-'), Tok::LitNum]
        );
        // Hex digits include `e`; prefixed literals stay integers.
        assert_eq!(kinds("0xdead 0b10 0o77"), vec![Tok::LitNum; 3]);
        assert_eq!(kinds("1_000u64"), vec![Tok::LitNum]);
        assert_eq!(kinds("0.5f32"), vec![Tok::LitFloat]);
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(kinds("r#type"), vec![Tok::Ident("type".into())]);
    }

    #[test]
    fn line_numbers() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
        // Block comments advance the line counter too.
        let toks = lex("/* one\ntwo */ x");
        assert_eq!(toks[0].line, 2);
    }
}
