//! Fixture: one *real* concurrency token after the gauntlet. The lexer
//! must survive the nested comment, the hash-delimited raw string and
//! the lifetime above it, then still see the genuine `Mutex` sites —
//! with the right line numbers.

/* level one /* level two "Mutex" */ closing */
pub fn decoys() -> usize {
    let decoy = r##"Mutex::new(#"quoted"#)"##;
    let tick: &'static str = "not a char";
    decoy.len() + tick.len()
}

use std::sync::Mutex;

/// The genuine lock the fixture plants.
pub fn real() -> Mutex<u32> {
    Mutex::new(7)
}

/// The lexer bug the gauntlet found: `'\''` used to swallow the token
/// after it, so the lock on the same line went unseen.
pub fn after_quote(c: char) -> Option<u32> {
    (c == '\'').then(|| *Mutex::new(1).lock().ok()?)
}
