//! The rule set: stable IDs and the token-window matchers.
//!
//! Every rule is a *conservative, type-blind* approximation of the
//! invariant it protects — the lexer sees tokens, not types, so rules are
//! written to over-approximate (ban the construct outright) rather than
//! under-approximate (miss violations). Justified exceptions go in
//! `lint.toml` with a reason; see `DESIGN.md` § "Static invariants".

use crate::item::FileItems;
use crate::lexer::{Tok, Token};
use std::collections::BTreeSet;

/// Stable rule identifiers. Codes are part of the tool's contract: CI
/// logs, `lint.toml` entries and docs all refer to them. The code and
/// summary of each rule live in [`RULES`], in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Float-literal `==`/`!=`, or a `.partial_cmp(…)` call.
    D004,
    /// Row release reachable from a query entry point without passing the
    /// policy gate (call-graph rule, see [`crate::graph`]).
    G001,
    /// Index expression in a production function ([`check_indexes`]).
    P002,
    /// Suppressed-tuple data reaching an error-message or panic-payload
    /// sink (dataflow rule with witness paths, see [`crate::flow`]).
    F001,
    /// β/θ policy threshold flowing to a non-audit sink (see
    /// [`crate::flow`]).
    F002,
    /// Pre-gate confidence value escaping to trace/metrics outside the
    /// `Decision`-record constructors (see [`crate::flow`]).
    F003,
    /// `[[sanction]]` that nothing exercises (hygiene, like
    /// [`Rule::A001`]).
    F004,
    /// `[[source]]`/`[[sink]]`/`[[sanction]]` entry missing a reason or
    /// citing a dead rule id (hygiene, the flow-table twin of
    /// [`Rule::A002`]).
    F005,
    /// Stale `[[allow]]` entry (suppresses nothing).
    A001,
    /// `[[allow]]` entry without a non-empty reason, or whose reason names
    /// a wrong/unknown rule id.
    A002,
}

/// The rule registry, in report order: each rule with its full stable
/// code (e.g. `PCQE-D004`) and what it protects (for `--list-rules` and
/// reports). Indexed by discriminant — the check below keeps the two
/// orders identical.
pub const RULES: [(Rule, &str, &str); 10] = [
    (
        Rule::D004,
        "PCQE-D004",
        "determinism: no float-literal ==/!= and no .partial_cmp() call; floats \
         order through pcqe_storage::real_cmp",
    ),
    (
        Rule::G001,
        "PCQE-G001",
        "policy: every call path from a query entry point to a row-emitting fn \
         passes the policy gate",
    ),
    (
        Rule::P002,
        "PCQE-P002",
        "panic-safety: no slice, array or map index (`x[i]`, `x[a..b]`, `m[&k]`) \
         in any production function",
    ),
    (
        Rule::F001,
        "PCQE-F001",
        "confidentiality: suppressed-tuple data must not reach an error-message \
         or panic-payload sink (witness flow path reported)",
    ),
    (
        Rule::F002,
        "PCQE-F002",
        "confidentiality: β/θ policy thresholds flow only to the sanctioned \
         audit/Decision channels declared in lint.toml",
    ),
    (
        Rule::F003,
        "PCQE-F003",
        "confidentiality: pre-gate confidence values must not escape to \
         trace/metrics outside the Decision-record constructors",
    ),
    (
        Rule::F004,
        "PCQE-F004",
        "hygiene: [[sanction]] entries must be exercised (no stale sanctions)",
    ),
    (
        Rule::F005,
        "PCQE-F005",
        "hygiene: [[source]]/[[sink]]/[[sanction]] entries must carry a reason and \
         cite only live rule ids",
    ),
    (
        Rule::A001,
        "PCQE-A001",
        "hygiene: [[allow]] entries must suppress at least one finding",
    ),
    (
        Rule::A002,
        "PCQE-A002",
        "hygiene: [[allow]] entries must carry a non-empty reason citing only live \
         rule ids",
    ),
];

const _: () = {
    let mut i = 0;
    while i < RULES.len() {
        assert!(RULES[i].0 as usize == i, "RULES must follow enum order");
        i += 1;
    }
};

impl Rule {
    /// The full stable code, e.g. `PCQE-D004`.
    pub fn code(self) -> &'static str {
        RULES[self as usize].1
    }

    /// What the rule protects, for `--list-rules` and reports.
    pub fn summary(self) -> &'static str {
        RULES[self as usize].2
    }

    /// Resolve a rule from either its full code (`PCQE-D004`) or its
    /// short form (`D004`).
    pub fn parse(s: &str) -> Option<Rule> {
        RULES
            .iter()
            .find(|(_, code, _)| *code == s || code.strip_prefix("PCQE-") == Some(s))
            .map(|(rule, _, _)| *rule)
    }

    /// All rules, in report order.
    pub fn all() -> [Rule; RULES.len()] {
        RULES.map(|(rule, _, _)| rule)
    }
}

/// One rule violation at a location.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Path relative to the scanned root, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation with the offending construct named.
    pub message: String,
}

/// Is the `/`-separated relative path test, bench, example or fixture
/// code? The analyzer skips such files entirely.
pub fn is_test_code(path: &str) -> bool {
    path.split('/')
        .any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"))
}

/// Rule D004 over one pre-lexed source file. `skip` is the
/// [`test_region_mask`] of `toks`. Clippy holds the rest of the float
/// order (`f32` and `f64::total_cmp` are disallowed in `clippy.toml`);
/// this rule holds what clippy exempts: `float_cmp` lets a comparison
/// with `0.0` or `±∞` through, and a `disallowed-methods` ban of
/// `PartialOrd::partial_cmp` would fire inside every
/// `#[derive(PartialOrd)]`.
pub fn check_tokens(path: &str, toks: &[Token], skip: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if skip[i] {
            continue;
        }
        // Literal form: `x == 0.5`, `0.5 != y`. `==`/`!=` lex as two
        // punctuation tokens, so the operand and operator are adjacent;
        // compound operators (`<=`, `..=`, `+=`, …) have a different first
        // token and do not match.
        let literal_eq = t.tok == Tok::LitFloat && {
            let eq_before = i >= 2
                && toks[i - 1].is_punct('=')
                && (toks[i - 2].is_punct('=') || toks[i - 2].is_punct('!'))
                // `0.5 == 0.75` was already reported at the left operand.
                && !(i >= 3 && toks[i - 3].tok == Tok::LitFloat);
            let eq_after = toks
                .get(i + 1)
                .is_some_and(|n| n.is_punct('=') || n.is_punct('!'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct('='));
            eq_before || eq_after
        };
        // Call form: `.partial_cmp(`; a trait *definition* is not dotted.
        let partial_cmp = matches!(&t.tok, Tok::Ident(name) if name == "partial_cmp")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let message = if literal_eq {
            "float `==`/`!=`: exact equality on floats is representation-dependent; \
             compare through `pcqe_storage::real_cmp` or test an explicit tolerance"
        } else if partial_cmp {
            "`.partial_cmp()`: order floats through `pcqe_storage::real_cmp`, the \
             workspace's one total order"
        } else {
            continue;
        };
        out.push(Finding {
            rule: Rule::D004,
            path: path.to_owned(),
            line: t.line,
            message: message.to_owned(),
        });
    }
}

/// Rule P002 over one file's items: every index expression in a non-test
/// function is a finding, one per line. Clippy's `indexing_slicing` is
/// not the checker: it lets `m[&k]` on a map and a `str` range through.
pub fn check_indexes(path: &str, file: &FileItems, out: &mut Vec<Finding>) {
    let lines: BTreeSet<u32> = (file.fns.iter())
        .flat_map(|f| f.indexes.iter().copied())
        .collect();
    for line in lines {
        out.push(Finding {
            rule: Rule::P002,
            path: path.to_owned(),
            line,
            message: "index expression can panic: read through `get`/iterators, or return a \
                      typed error where the lookup can miss"
                .to_owned(),
        });
    }
}

/// Mark the tokens that belong to `#[cfg(test)]` items (inline test
/// modules and test-only helpers): rules skip them, matching the policy
/// that test code may panic and may use unordered collections. Public so
/// the item layer ([`crate::item`]) skips the same regions.
pub fn test_region_mask(toks: &[Token]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Scan the attribute body up to its matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut is_cfg_test = false;
            while j < toks.len() && depth > 0 {
                match &toks[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => depth -= 1,
                    Tok::Ident(w)
                        if w == "cfg"
                            && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
                            && attr_mentions_test(toks, j + 2) =>
                    {
                        is_cfg_test = true;
                    }
                    _ => {}
                }
                j += 1;
            }
            if is_cfg_test {
                // Skip the attribute itself, any further attributes, and
                // the annotated item (to `;` at depth 0 or through the
                // matching brace of its body).
                let end = end_of_item(toks, j);
                for s in skip.iter_mut().take(end).skip(i) {
                    *s = true;
                }
                i = end;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    skip
}

/// Does the attribute argument list starting at `start` mention the bare
/// predicate `test` (covers `cfg(test)`, `cfg(all(test, …))`, …)?
/// A `not(…)` predicate disqualifies the whole attribute: `#[cfg(not(test))]`
/// guards *live* code, which must stay under the rules (the conservative
/// direction — at worst a genuinely test-only item gets linted).
fn attr_mentions_test(toks: &[Token], start: usize) -> bool {
    let mut depth = 1usize;
    let mut j = start;
    let mut saw_test = false;
    while j < toks.len() && depth > 0 {
        match &toks[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth -= 1,
            Tok::Ident(w) if w == "test" => saw_test = true,
            Tok::Ident(w) if w == "not" => return false,
            _ => {}
        }
        j += 1;
    }
    saw_test
}

/// Find the end (exclusive token index) of the item starting at `start`:
/// consume leading attributes, then scan to a `;` at brace depth 0 or
/// through the first balanced `{ … }` block.
fn end_of_item(toks: &[Token], mut start: usize) -> usize {
    // Further attributes on the same item.
    while start < toks.len()
        && toks[start].is_punct('#')
        && toks.get(start + 1).is_some_and(|t| t.is_punct('['))
    {
        let mut depth = 0usize;
        let mut j = start + 1;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        start = j;
    }
    let mut depth = 0usize;
    let mut j = start;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            Tok::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// D004 findings for one file.
    fn findings(src: &str) -> Vec<(Rule, u32)> {
        let toks = lex(src);
        let skip = test_region_mask(&toks);
        let mut out = Vec::new();
        check_tokens("crates/core/src/x.rs", &toks, &skip, &mut out);
        out.into_iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn token_rules_ignore_comments_strings_and_tests() {
        let src = "// 0.5 == x\nconst S: &str = \"a.partial_cmp(b)\";\n#[cfg(test)]\n\
                   mod tests {\n  fn t(x: f64) -> bool { x == 0.5 }\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn d004_flags_float_literal_equality_and_partial_cmp_calls() {
        // Literal equality, both directions; one finding per comparison.
        let d004 = vec![(Rule::D004, 1)];
        assert_eq!(findings("fn f(b: f64) -> bool { b == 0.0 }"), d004);
        assert_eq!(findings("fn f(b: f64) -> bool { 0.5 != b }"), d004);
        assert_eq!(findings("fn f() -> bool { 0.5 == 0.75 }"), d004);
        // Compound operators (`+=`, `<=`, `..=`) are not equality.
        assert!(findings("fn f(mut a: f64) -> bool { a += 0.5; a <= 0.5 }").is_empty());
        assert_eq!(
            findings("fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b); }"),
            d004
        );
        // A trait *definition* of `partial_cmp` is not a call, and `f32`
        // and `total_cmp` are clippy's.
        assert!(findings(
            "impl PartialOrd for W { fn partial_cmp(&self, o: &W) -> Option<Ordering> { \
             Some(self.cmp(o)) } }\nfn g(a: f64) -> f32 { a.total_cmp(&a); a as f32 }"
        )
        .is_empty());
    }

    #[test]
    fn test_paths_are_test_code() {
        assert!(is_test_code("crates/engine/tests/api.rs"));
        assert!(is_test_code("examples/quickstart.rs"));
        assert!(is_test_code("crates/bench/benches/b.rs"));
        assert!(!is_test_code("crates/engine/src/database.rs"));
    }

    #[test]
    fn cfg_test_items_without_braces_are_skipped() {
        let src = "#[cfg(test)]\nconst X: bool = 0.5 == 0.5;\nfn f() {}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn rule_codes_round_trip() {
        for rule in Rule::all() {
            assert_eq!(Rule::parse(rule.code()), Some(rule));
            assert_eq!(
                Rule::parse(rule.code().strip_prefix("PCQE-").unwrap()),
                Some(rule)
            );
        }
        assert_eq!(Rule::parse("X999"), None);
    }
}
