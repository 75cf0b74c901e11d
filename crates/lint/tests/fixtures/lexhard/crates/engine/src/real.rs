//! Fixture: the *real* float comparisons after the gauntlet. The lexer
//! must survive the nested comment, the hash-delimited raw string and
//! the lifetime above it, then still see the genuine D004 sites — with
//! the right line numbers.

/* level one /* level two "a.partial_cmp(&b)" */ closing */
pub fn decoys() -> usize {
    let decoy = r##"x == 0.5 && a.partial_cmp(#"quoted"#)"##;
    let tick: &'static str = "not a char";
    decoy.len() + tick.len()
}

/// The genuine comparisons the fixture plants.
pub fn real(a: f64, b: f64) -> bool {
    a == 0.5 || a.partial_cmp(&b).is_none()
}

/// The lexer bug the gauntlet found: `'\''` used to swallow the token
/// after it, so the comparison on the same line went unseen.
pub fn after_quote(c: char, a: f64, b: f64) -> bool {
    c == '\'' && a.partial_cmp(&b).is_some()
}
