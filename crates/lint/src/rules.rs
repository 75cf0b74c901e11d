//! The rule set: stable IDs and the token-window matchers.
//!
//! Every rule is a *conservative, type-blind* approximation of the
//! invariant it protects — the lexer sees tokens, not types, so rules are
//! written to over-approximate (ban the construct outright) rather than
//! under-approximate (miss violations). Justified exceptions go in
//! `lint.toml` with a reason; see `DESIGN.md` § "Static invariants".

use crate::lexer::{Tok, Token};
use crate::spec::{Cap, Spec};
use std::collections::BTreeSet;

/// Stable rule identifiers. Codes are part of the tool's contract: CI
/// logs, `lint.toml` entries and docs all refer to them. The code and
/// summary of each rule live in [`RULES`], in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Float comparison/ordering outside the `pcqe_core::ord` wrapper.
    D004,
    /// Concurrency token (`std::thread`, lock, atomic, channel) in a
    /// crate without the matching capability grant.
    C002,
    /// Row release reachable from a query entry point without passing the
    /// policy gate (call-graph rule, see [`crate::graph`]).
    G001,
    /// Panic construct *reachable* from guarded public API (call-graph
    /// rule with witness paths, see [`crate::graph`]).
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
    /// [`Rule::A003`]).
    F004,
    /// `[[source]]`/`[[sink]]`/`[[sanction]]` entry missing a reason or
    /// citing a dead rule id (hygiene, the flow-table twin of
    /// [`Rule::A002`]).
    F005,
    /// Stale `[[allow]]` entry (suppresses nothing).
    A001,
    /// `[[allow]]`/`[[grant]]` entry without a non-empty reason, or whose
    /// reason names a wrong/unknown rule id.
    A002,
    /// Granted-but-unused capability in a `[[grant]]`.
    A003,
}

/// The rule registry, in report order: each rule with its full stable
/// code (e.g. `PCQE-D004`) and what it protects (for `--list-rules` and
/// reports). Indexed by discriminant — the check below keeps the two
/// orders identical.
pub const RULES: [(Rule, &str, &str); 12] = [
    (
        Rule::D004,
        "PCQE-D004",
        "determinism: float compare/order through pcqe_core::ord only (no ==/!=, \
         partial_cmp/total_cmp, f32) in result-affecting crates",
    ),
    (
        Rule::C002,
        "PCQE-C002",
        "concurrency: every std::thread/Mutex/RwLock/Condvar/Atomic*/mpsc token needs a \
         matching capability [[grant]] in lint.toml",
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
        "panic-safety: no panic construct reachable from guarded public API \
         (witness call path reported)",
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
        "hygiene: [[allow]] and [[grant]] entries must carry a non-empty reason citing \
         only live rule ids; file-wide [[allow]] entries must state the rule id they \
         suppress",
    ),
    (
        Rule::A003,
        "PCQE-A003",
        "hygiene: granted capabilities must be exercised (no stale grants)",
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

/// Which rules apply to a file, derived from its path relative to the
/// scanned root.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Test/bench/example/fixture code: token rules are skipped entirely.
    pub is_test_code: bool,
    d004: bool,
    /// The file is in a panic-guarded crate, whose root denies clippy's
    /// `unwrap_used`, `expect_used`, `panic`, `todo` and `unimplemented`
    /// (`tests/lint_guard.rs` holds every such root to this flag). The
    /// graph layer therefore reports only *index* panics under P002 here:
    /// clippy already rejects the direct constructs.
    pub p001: bool,
}

/// Crates whose float arithmetic feeds query results; a raw float
/// compare or an `f32` there silently breaks bit-identical evaluation
/// (rule D004). `pcqe-obs` is included: metric snapshots and exports are
/// golden-tested, so what they compare must be exact too. The storage
/// index module is listed individually: equality-index postings order is
/// the row order of every index scan and index join, so a float compare
/// there reorders results. The partitioning module joins them: its
/// `stable_hash` is what replayed answers are digested with — float drift
/// there changes the digests. So does the column image: a table scan drops rows on
/// what its slots say, so float drift in how they are laid out or read
/// changes which rows a query returns. (The image compares no floats
/// itself: the comparison that decides a slot is `algebra/src/expr.rs`'s,
/// guarded there, and goes through `pcqe_storage::real_cmp` — the order
/// `Value::sql_cmp` uses, in `value.rs`, which this list does not cover.
/// Listing `image.rs` keeps a raw float compare from moving in, no more.)
const RESULT_AFFECTING: [&str; 9] = [
    "crates/algebra/src/",
    "crates/lineage/src/",
    "crates/core/src/",
    "crates/engine/src/",
    "crates/policy/src/",
    "crates/obs/src/",
    "crates/storage/src/image.rs",
    "crates/storage/src/index.rs",
    "crates/storage/src/partition.rs",
];

/// Crates whose library code must surface typed errors instead of
/// panicking. `pcqe-obs` is included: instrumentation runs inside every
/// query and must never abort one. So is all of `pcqe-algebra`: the
/// optimiser, the planner and the vectorized executor are the one
/// execution path of every engine query, and nothing else is left in the
/// crate. And so is all of `pcqe-lineage`: the circuit cache and the
/// evaluators behind it score every result inside
/// `Database::query`/`what_if`, so a panic there aborts a query.
const PANIC_GUARDED: [&str; 7] = [
    "crates/engine/src/",
    "crates/policy/src/",
    "crates/storage/src/",
    "crates/sql/src/",
    "crates/obs/src/",
    "crates/algebra/src/",
    "crates/lineage/src/",
];

impl FileClass {
    /// Classify a `/`-separated relative path.
    pub fn classify(path: &str) -> FileClass {
        let is_test_code = path
            .split('/')
            .any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"));
        let starts = |prefixes: &[&str]| prefixes.iter().any(|p| path.starts_with(p));
        FileClass {
            is_test_code,
            // The total-order wrapper itself is the one sanctioned home
            // for raw float ordering.
            d004: starts(&RESULT_AFFECTING) && path != "crates/core/src/ord.rs",
            p001: starts(&PANIC_GUARDED),
        }
    }
}

/// Run every token-level rule over one pre-lexed source file. `skip` is
/// the [`test_region_mask`] of `toks`; `spec` carries the capability
/// grants in force and `caps_used[g]` accumulates which of grant `g`'s
/// capabilities were exercised (the input to rule A003). The caller is
/// responsible for exempting test-code paths ([`FileClass::classify`]).
pub fn check_tokens(
    path: &str,
    toks: &[Token],
    skip: &[bool],
    spec: &Spec,
    caps_used: &mut [BTreeSet<Cap>],
    out: &mut Vec<Finding>,
) {
    let class = FileClass::classify(path);
    if class.is_test_code {
        return;
    }
    let emit = |out: &mut Vec<Finding>, rule: Rule, line: u32, message: String| {
        out.push(Finding {
            rule,
            path: path.to_owned(),
            line,
            message,
        });
    };

    for (i, t) in toks.iter().enumerate() {
        if skip[i] {
            continue;
        }

        // D004 (literal form): float-literal equality — `x == 0.5`,
        // `0.5 != y`. `==`/`!=` lex as two punctuation tokens, so the
        // operand and operator are adjacent; compound operators (`<=`,
        // `..=`, `+=`, …) have a different first token and do not match.
        if class.d004 && t.tok == Tok::LitFloat {
            let eq_before = i >= 2
                && toks[i - 1].is_punct('=')
                && (toks[i - 2].is_punct('=') || toks[i - 2].is_punct('!'))
                // `0.5 == 0.75` was already reported at the left operand.
                && !(i >= 3 && toks[i - 3].tok == Tok::LitFloat);
            let eq_after = toks
                .get(i + 1)
                .is_some_and(|n| n.is_punct('=') || n.is_punct('!'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct('='));
            if eq_before || eq_after {
                emit(
                    out,
                    Rule::D004,
                    t.line,
                    "float `==`/`!=` in a result-affecting crate: exact equality on \
                     floats is representation-dependent; compare through \
                     `pcqe_core::ord::OrdF64` or test an explicit tolerance"
                        .to_owned(),
                );
            }
        }

        let Tok::Ident(name) = &t.tok else { continue };
        let name = name.as_str();

        // D004 (ident forms): float ordering and narrowing must go
        // through the `pcqe_core::ord` wrapper. Confidence math is
        // `f64`-only by design, so a bare `f32` (including `as f32`
        // narrowing) is always a loss of precision in these crates.
        if class.d004 {
            if name == "f32" {
                emit(
                    out,
                    Rule::D004,
                    t.line,
                    "`f32` in a result-affecting crate: confidence math is `f64`-only; \
                     an `f32` (or `as f32` cast) silently loses precision"
                        .to_owned(),
                );
            }
            let dotted = i > 0 && toks[i - 1].is_punct('.');
            let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if dotted && called && (name == "partial_cmp" || name == "total_cmp") {
                emit(
                    out,
                    Rule::D004,
                    t.line,
                    format!(
                        "`.{name}()` in a result-affecting crate: sort/compare through \
                         `pcqe_core::ord::OrdF64` so every float ordering uses the one \
                         total order"
                    ),
                );
            }
        }

        // C002: concurrency primitives need a covering capability
        // grant. `thread` counts only as a path segment (`std::thread`,
        // `thread::spawn`, …) so a local named `thread` is not flagged.
        let cap = Cap::of_token(name).filter(|&cap| {
            cap != Cap::Threads || path_sep_before(toks, i) || path_sep_after(toks, i)
        });
        if let Some(cap) = cap {
            match spec.grant_for(path, cap) {
                Some(g) => {
                    caps_used[g].insert(cap);
                }
                None => emit(
                    out,
                    Rule::C002,
                    t.line,
                    format!(
                        "`{name}` needs the `{}` capability: the crate has no covering \
                         `[[grant]]` in lint.toml; declare one with a reason or route \
                         parallelism through `pcqe-par`",
                        cap.label()
                    ),
                ),
            }
        }
    }
}

/// Is token `i` preceded by `::` (it is a non-leading path segment)?
fn path_sep_before(toks: &[Token], i: usize) -> bool {
    i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':')
}

/// Is token `i` followed by `::` (it has path segments after it)?
fn path_sep_after(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
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
    use crate::spec;

    /// Token findings for one file under `spec`, plus what each grant
    /// saw exercised.
    fn check(spec: &Spec, path: &str, src: &str) -> (Vec<(Rule, u32)>, Vec<BTreeSet<Cap>>) {
        let toks = lex(src);
        let skip = test_region_mask(&toks);
        let mut used = spec.usage().caps_used;
        let mut out = Vec::new();
        check_tokens(path, &toks, &skip, spec, &mut used, &mut out);
        (out.into_iter().map(|f| (f.rule, f.line)).collect(), used)
    }

    /// Token findings with no manifest: nothing granted.
    fn findings(path: &str, src: &str) -> Vec<(Rule, u32)> {
        check(&Spec::default(), path, src).0
    }

    #[test]
    fn token_rules_ignore_comments_strings_and_tests() {
        let src = "// a Mutex comment, 0.5 == x\nconst S: &str = \"f32 Mutex\";\n#[cfg(test)]\n\
                   mod tests {\n  use std::sync::Mutex;\n  fn t(x: f64) -> bool { x == 0.5 }\n}\n";
        assert!(findings("crates/core/src/dnc.rs", src).is_empty());
    }

    #[test]
    fn d004_flags_float_compares_and_orderings() {
        // Literal equality, both directions; one finding per comparison.
        assert_eq!(
            findings(
                "crates/algebra/src/expr.rs",
                "fn f(b: f64) -> bool { b == 0.0 }"
            ),
            vec![(Rule::D004, 1)]
        );
        assert_eq!(
            findings("crates/core/src/x.rs", "fn f(b: f64) -> bool { 0.5 != b }"),
            vec![(Rule::D004, 1)]
        );
        assert_eq!(
            findings("crates/core/src/x.rs", "fn f() -> bool { 0.5 == 0.75 }"),
            vec![(Rule::D004, 1)]
        );
        // Compound operators (`+=`, `<=`, `..=`) are not equality.
        assert!(findings(
            "crates/core/src/x.rs",
            "fn f(mut a: f64) -> bool { a += 0.5; a <= 0.5 }"
        )
        .is_empty());
        // Method forms and `f32` narrowing.
        assert_eq!(
            findings(
                "crates/core/src/greedy.rs",
                "fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b); }"
            ),
            vec![(Rule::D004, 1)]
        );
        assert_eq!(
            findings(
                "crates/core/src/greedy.rs",
                "fn f(a: f64, b: f64) { let _ = a.total_cmp(&b); }"
            ),
            vec![(Rule::D004, 1)]
        );
        assert_eq!(
            findings(
                "crates/policy/src/lib.rs",
                "fn f(c: f64) -> f64 { (c as f32) as f64 }"
            ),
            vec![(Rule::D004, 1)]
        );
        // The wrapper module is the sanctioned home; storage is out of
        // scope (`Value` ordering is its own contract) except where a scan
        // decides rows on it, the column image; and a trait *definition*
        // of `partial_cmp` is not a call.
        let cmp = "fn f(a: f64, b: f64) { let _ = a.total_cmp(&b); }";
        assert!(findings("crates/core/src/ord.rs", cmp).is_empty());
        assert!(findings("crates/storage/src/value.rs", cmp).is_empty());
        assert_eq!(
            findings("crates/storage/src/image.rs", cmp),
            vec![(Rule::D004, 1)]
        );
        assert!(findings(
            "crates/core/src/x.rs",
            "impl PartialOrd for W { fn partial_cmp(&self, o: &W) -> Option<Ordering> { \
             Some(self.cmp(o)) } }"
        )
        .is_empty());
    }

    #[test]
    fn c002_flags_ungranted_tokens_and_grants_mark_usage() {
        let spec = spec::parse(
            "[[grant]]\ncrate = \"pcqe-par\"\ncapabilities = [\"locks\", \"threads\"]\n\
             reason = \"r\"\n",
            "f",
        )
        .unwrap();
        // A covered token is silent and marks the grant as exercised.
        let (out, used) = check(&spec, "crates/par/src/lib.rs", "use std::sync::Mutex;");
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(used[0], BTreeSet::from([Cap::Locks]));
        // An uncovered capability class in the same crate fires C002 —
        // grants are per-class, not per-crate blanket exemptions.
        let atomics = "use std::sync::atomic::AtomicU64;";
        assert_eq!(
            check(&spec, "crates/par/src/lib.rs", atomics).0,
            vec![(Rule::C002, 1)]
        );
        // An ungranted crate fires once per token; channels count too,
        // and `Ordering` alone is not a primitive.
        let src =
            "use std::sync::{Mutex, atomic::AtomicU64};\nfn f() { let _m = Mutex::new(0u32); }\n";
        assert_eq!(
            check(&spec, "crates/engine/src/database.rs", src).0,
            vec![(Rule::C002, 1), (Rule::C002, 1), (Rule::C002, 2)]
        );
        assert_eq!(
            check(&spec, "crates/sql/src/parser.rs", "use std::sync::mpsc;").0,
            vec![(Rule::C002, 1)]
        );
        assert!(check(
            &spec,
            "crates/engine/src/database.rs",
            "use std::cmp::Ordering;"
        )
        .0
        .is_empty());
    }

    #[test]
    fn c002_counts_thread_paths_not_variables() {
        assert_eq!(
            findings("crates/engine/src/database.rs", "use std::thread;"),
            vec![(Rule::C002, 1)]
        );
        assert_eq!(
            findings(
                "crates/storage/src/table.rs",
                "fn f() { thread::spawn(|| {}); }"
            ),
            vec![(Rule::C002, 1)]
        );
        // A local variable named `thread` is fine.
        assert!(findings(
            "crates/storage/src/table.rs",
            "fn f(thread: u32) -> u32 { thread }"
        )
        .is_empty());
        // The `threads` grant covers the scheduler crate — and only it.
        let spec = spec::parse(
            "[[grant]]\ncrate = \"pcqe-par\"\ncapabilities = [\"threads\"]\nreason = \"r\"\n",
            "f",
        )
        .unwrap();
        let (out, used) = check(&spec, "crates/par/src/lib.rs", "use std::thread;");
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(used[0], BTreeSet::from([Cap::Threads]));
        assert_eq!(
            check(&spec, "crates/obs/src/recorder.rs", "use std::thread;").0,
            vec![(Rule::C002, 1)]
        );
    }

    #[test]
    fn test_paths_are_exempt() {
        let src = "fn f(x: f64) -> bool { x == 0.5 }";
        assert!(findings("crates/engine/tests/api.rs", src).is_empty());
        assert!(findings("examples/quickstart.rs", src).is_empty());
        assert!(findings("crates/bench/benches/b.rs", "use std::thread;").is_empty());
    }

    #[test]
    fn cfg_test_items_without_braces_are_skipped() {
        let src = "#[cfg(test)]\nuse std::sync::Mutex;\nfn f() {}\n";
        assert!(findings("crates/core/src/dnc.rs", src).is_empty());
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
