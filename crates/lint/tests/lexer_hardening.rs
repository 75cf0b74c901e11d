//! Hardening tests for the hand-rolled lexer in `pcqe_lint::lexer`.
//!
//! Two halves. The fixture half runs the full analyzer over
//! `fixtures/lexhard/`: a gauntlet of raw strings with varying hash
//! depths, byte strings, nested block comments, escaped chars and
//! lifetime-vs-char ambiguities, every forbidden token hidden inside a
//! literal or comment — plus one file planting four *real* `Mutex`
//! sites after the decoys. Exactly those four may fire (PCQE-C002,
//! with exact line numbers), which pins both directions at once: no
//! false positive from literal bodies, no lost finding after a gnarly
//! construct.
//!
//! The property half drives the lexer directly with generated token
//! soup from a seeded linear-congruential generator: for any
//! interleaving of hidden-`Mutex` carriers and benign code, `Mutex`
//! surfaces as an identifier exactly as many times as it was planted
//! for real, line numbers stay consistent with the newline count, and
//! lexing is deterministic. No panics on any input, including
//! truncation mid-literal.

use pcqe_lint::lexer::{lex, Tok};
use pcqe_lint::rules::Rule;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn hidden_tokens_stay_hidden_and_real_ones_survive_the_gauntlet() {
    let analysis = pcqe_lint::analyze(&fixture("lexhard")).expect("lexhard analysis runs");
    let got: Vec<(Rule, &str, u32)> = analysis
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    // traps.rs is silent despite spelling Mutex/HashMap/RwLock/unwrap in
    // raw strings, byte strings, escaped strings, chars and nested
    // comments; real.rs fires at exactly its four genuine Mutex sites,
    // lines intact after the decoy constructs above them — the last one
    // on the same line as a `'\''` literal.
    let want = vec![
        (Rule::C002, "crates/engine/src/real.rs", 13),
        (Rule::C002, "crates/engine/src/real.rs", 16),
        (Rule::C002, "crates/engine/src/real.rs", 17),
        (Rule::C002, "crates/engine/src/real.rs", 23),
    ];
    assert_eq!(got, want, "full findings: {:#?}", analysis.findings);
}

/// Deterministic 64-bit LCG (Knuth's MMIX constants) — the same
/// hand-rolled generator style the benches use; no external crates.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[(self.next() as usize) % items.len()]
    }
}

/// Snippets whose `Mutex` must NEVER surface as an identifier.
const HIDDEN: &[&str] = &[
    "// Mutex behind a line comment\n",
    "/* Mutex in a block comment */\n",
    "/* outer /* Mutex nested twice */ tail */\n",
    "let s = \"Mutex in a string\";\n",
    "let s = \"escaped \\\" then Mutex\";\n",
    "let r = r\"raw Mutex body\";\n",
    "let r = r#\"hashed \"Mutex\" body\"#;\n",
    "let r = r##\"deeper r#\"Mutex\"# body\"##;\n",
    "let b = b\"byte Mutex\";\n",
    "let b = br#\"raw byte Mutex\"#;\n",
    "let c = 'M'; let q = '\\''; let u = '\\u{1F600}';\n",
];

/// Benign filler that must lex without surfacing anything interesting.
const BENIGN: &[&str] = &[
    "fn step(x: usize) -> usize { x + 1 }\n",
    "let tick: &'static str = \"lifetime\";\n",
    "let range = 0..5; let f = 0.5f64;\n",
    "let r#type = 7;\n",
];

/// The one snippet that plants a *real* `Mutex` identifier.
const PLANTED: &str = "let m = std::sync::Mutex::new(0);\n";

fn mutex_idents(src: &str) -> usize {
    lex(src)
        .iter()
        .filter(|t| matches!(&t.tok, Tok::Ident(s) if s == "Mutex"))
        .count()
}

#[test]
fn seeded_soup_surfaces_exactly_the_planted_mutexes() {
    for seed in 0..64u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1);
        let mut src = String::new();
        let mut planted = 0;
        for _ in 0..40 {
            match rng.next() % 5 {
                0 => {
                    src.push_str(PLANTED);
                    planted += 1;
                }
                1 | 2 => src.push_str(rng.pick(HIDDEN)),
                _ => src.push_str(rng.pick(BENIGN)),
            }
        }
        assert_eq!(
            mutex_idents(&src),
            planted,
            "seed {seed}: hidden Mutex leaked or a planted one vanished in:\n{src}"
        );
        // Line numbers stay within the physical line count, and lexing
        // the same source twice gives byte-identical streams.
        let toks = lex(&src);
        let lines = src.lines().count() as u32;
        assert!(toks.iter().all(|t| t.line >= 1 && t.line <= lines));
        assert_eq!(toks, lex(&src), "seed {seed}: lexing is not deterministic");
    }
}

#[test]
fn truncated_soup_never_panics() {
    // Chop a gnarly source at every byte boundary: unterminated raw
    // strings, half-open comments and dangling quotes must all lex to
    // *something* without panicking (missed findings are acceptable on
    // malformed source; crashes and false positives are not).
    let mut src = String::new();
    for s in HIDDEN {
        src.push_str(s);
    }
    src.push_str(PLANTED);
    for end in 0..src.len() {
        if src.is_char_boundary(end) {
            let _ = lex(&src[..end]);
        }
    }
}

#[test]
fn lifetime_vs_char_ambiguity_is_resolved_per_site() {
    let src = "fn f<'a>(x: &'a str) -> char { let c = 'a'; let q = '\\''; c.min(q) }";
    let toks = lex(src);
    let lifetimes = toks.iter().filter(|t| t.tok == Tok::Lifetime).count();
    let chars = toks.iter().filter(|t| t.tok == Tok::LitChar).count();
    assert_eq!(lifetimes, 2, "{toks:?}");
    assert_eq!(chars, 2, "{toks:?}");
}
