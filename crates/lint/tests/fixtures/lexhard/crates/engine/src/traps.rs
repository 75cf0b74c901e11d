//! Fixture: every forbidden token in this file hides inside a literal
//! or a comment — the lexer must keep all of them invisible, so the
//! whole file lints clean. A comparison in a doc string is advice, not
//! code: x == 0.5, a.partial_cmp(&b), v[0]. Brackets after a keyword are
//! arrays and slice types, not indexes.

/* outer /* nested x == 0.5 a.partial_cmp(&b) */ still commented v[0] */

/// Returns the strings the scanner must treat as opaque.
pub fn opaque() -> Vec<String> {
    let plain = "x == 0.5 and a.partial_cmp(&b)";
    let escaped = "a \" quote then Mutex and RwLock";
    let raw = r#"if 0.5 != x { v[0] }"#;
    let rawhash = r##"outer r#"Mutex"# body with RwLock"##;
    let bytes = b"Mutex in a byte string";
    let rawbytes = br#"RwLock::new and thread::spawn"#;
    let ch = 'M';
    let quote = '\'';
    let emoji = '\u{1F600}';
    let tick: &'static str = "a lifetime, not a char literal";
    vec![
        plain.to_owned(),
        escaped.to_owned(),
        raw.to_owned(),
        rawhash.to_owned(),
        String::from_utf8_lossy(bytes).into_owned(),
        String::from_utf8_lossy(rawbytes).into_owned(),
        format!("{ch}{quote}{emoji}{tick}"),
    ]
}

/// A `[` after a keyword opens an array or a slice type, never an index.
pub fn arrays(grid: &mut [f64]) -> usize {
    let view: &mut [f64] = grid;
    let mut n = view.len();
    for key in ["ts", "pid", "tid"] {
        n += key.len();
    }
    n
}
