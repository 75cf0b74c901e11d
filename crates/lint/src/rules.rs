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
    /// Unordered `HashMap`/`HashSet` in a result-affecting crate.
    D001,
    /// Ad-hoc randomness outside `pcqe-lineage::rng`.
    D002,
    /// Float comparison/ordering outside the `pcqe_core::ord` wrapper.
    D004,
    /// Concurrency token (`std::thread`, lock, atomic, channel) in a
    /// crate without the matching capability grant.
    C002,
    /// Row release reachable from a query entry point without passing the
    /// policy gate (call-graph rule, see [`crate::graph`]).
    G001,
    /// Non-`path` dependency in a default-workspace manifest.
    H001,
    /// `unwrap`/`expect`/`panic!`-family in guarded library code.
    P001,
    /// Panic construct *reachable* from guarded public API (call-graph
    /// rule with witness paths, see [`crate::graph`]).
    P002,
    /// Wall-clock access outside the sanctioned timing modules.
    T001,
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
/// code (e.g. `PCQE-D001`) and what it protects (for `--list-rules` and
/// reports). Indexed by discriminant — the check below keeps the two
/// orders identical.
pub const RULES: [(Rule, &str, &str); 17] = [
    (
        Rule::D001,
        "PCQE-D001",
        "determinism: no HashMap/HashSet in result-affecting crates",
    ),
    (
        Rule::D002,
        "PCQE-D002",
        "determinism: no RNG construction outside pcqe-lineage::rng",
    ),
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
        Rule::H001,
        "PCQE-H001",
        "hermeticity: only path dependencies in default-workspace manifests",
    ),
    (
        Rule::P001,
        "PCQE-P001",
        "panic-safety: no unwrap/expect/panic! in guarded library code",
    ),
    (
        Rule::P002,
        "PCQE-P002",
        "panic-safety: no panic construct reachable from guarded public API \
         (witness call path reported)",
    ),
    (
        Rule::T001,
        "PCQE-T001",
        "determinism: wall-clock access only in bench and core::clock",
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
    /// The full stable code, e.g. `PCQE-D001`.
    pub fn code(self) -> &'static str {
        RULES[self as usize].1
    }

    /// What the rule protects, for `--list-rules` and reports.
    pub fn summary(self) -> &'static str {
        RULES[self as usize].2
    }

    /// Resolve a rule from either its full code (`PCQE-D001`) or its
    /// short form (`D001`).
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
    d001: bool,
    d002: bool,
    d004: bool,
    /// P001 applies here; also consulted by the graph layer, which
    /// reports only *index* panics under P002 where P001 already covers
    /// the direct constructs.
    pub p001: bool,
    t001: bool,
}

/// Crates whose output ordering feeds query results; `HashMap` iteration
/// there silently breaks bit-identical evaluation (rule D001). `pcqe-obs`
/// is included: metric snapshots and exports are golden-tested, so their
/// iteration order must be stable too. The storage index and statistics
/// modules are listed individually: equality-index postings order and
/// cardinality estimates both feed physical plan choice and row order,
/// so hash iteration there would silently change plans or results. The
/// partitioning module joins them: the partition hash decides which
/// build table every join key lands in — hashing or float drift there
/// changes join output. So does the column image: a table scan drops
/// rows on what its slots say, so hash iteration or float drift in how
/// they are laid out or read changes which rows a query returns. (The
/// image compares no floats itself: the comparison that decides a slot
/// is `algebra/src/expr.rs`'s, guarded there, and goes through
/// `pcqe_storage::real_cmp` — the order `Value::sql_cmp` uses, in
/// `value.rs`, which this list does not cover. Listing `image.rs` keeps
/// a raw float compare from moving in, no more.)
const RESULT_AFFECTING: [&str; 10] = [
    "crates/algebra/src/",
    "crates/lineage/src/",
    "crates/core/src/",
    "crates/engine/src/",
    "crates/policy/src/",
    "crates/obs/src/",
    "crates/storage/src/image.rs",
    "crates/storage/src/index.rs",
    "crates/storage/src/stats.rs",
    "crates/storage/src/partition.rs",
];

/// Crates whose library code must surface typed errors instead of
/// panicking (rule P001). `pcqe-obs` is included: instrumentation runs
/// inside every query and must never abort one. `algebra::physical` is
/// held to the same standard even though the rest of `pcqe-algebra` is
/// not: the planner and the vectorized executor are the one execution
/// path of every engine query, so they must surface typed errors, not
/// panics (the logical walker in `algebra::exec` is the sequential test
/// reference, outside the engine's call graph). The
/// lineage circuit cache is guarded file-by-file for the same reason:
/// cached scoring runs inside `Database::query`/`what_if`, so a panic
/// there aborts a query that the uncached path would have answered.
const PANIC_GUARDED: [&str; 7] = [
    "crates/engine/src/",
    "crates/policy/src/",
    "crates/storage/src/",
    "crates/sql/src/",
    "crates/obs/src/",
    "crates/algebra/src/physical/",
    "crates/lineage/src/cache.rs",
];

/// Identifiers that signal ad-hoc entropy or registry RNG idioms (D002).
const RNG_IDENTS: [&str; 7] = [
    "thread_rng",
    "from_entropy",
    "OsRng",
    "StdRng",
    "SmallRng",
    "getrandom",
    "RandomState",
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
            d001: starts(&RESULT_AFFECTING),
            d002: path != "crates/lineage/src/rng.rs",
            // The total-order wrapper itself is the one sanctioned home
            // for raw float ordering.
            d004: starts(&RESULT_AFFECTING) && path != "crates/core/src/ord.rs",
            p001: starts(&PANIC_GUARDED),
            // Note: `crates/obs` is deliberately NOT exempt — the
            // observability crate times spans exclusively through the
            // `pcqe_core::clock::Clock` trait, so a raw `Instant::now()`
            // there is a bug, not a sanctioned read.
            t001: !path.starts_with("crates/bench/") && path != "crates/core/src/clock.rs",
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

        // D001: unordered collections in result-affecting crates.
        if class.d001 && (name == "HashMap" || name == "HashSet") {
            emit(
                out,
                Rule::D001,
                t.line,
                format!(
                    "`{name}` in a result-affecting crate: iteration order is \
                     unspecified; use `BTreeMap`/`BTreeSet` or collect-and-sort \
                     before iterating"
                ),
            );
        }

        // D002: ad-hoc randomness outside the vendored seeded generator.
        if class.d002 && RNG_IDENTS.contains(&name) {
            emit(
                out,
                Rule::D002,
                t.line,
                format!(
                    "`{name}` constructs entropy-dependent state; all randomness \
                     must flow through `pcqe_lineage::rng` with an explicit seed"
                ),
            );
        }

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

        // P001: panicking constructs in guarded library code.
        if class.p001 {
            let dotted = i > 0 && toks[i - 1].is_punct('.');
            let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if dotted && called && name == "unwrap" {
                emit(
                    out,
                    Rule::P001,
                    t.line,
                    "`.unwrap()` in guarded library code: return a typed error \
                     instead"
                        .to_owned(),
                );
            }
            // `.expect("…")` — requiring a string-literal argument keeps
            // unrelated methods named `expect` (e.g. the SQL parser's
            // token matcher) out of scope.
            if dotted
                && called
                && name == "expect"
                && toks
                    .get(i + 2)
                    .is_some_and(|n| matches!(n.tok, Tok::LitStr(_)))
            {
                emit(
                    out,
                    Rule::P001,
                    t.line,
                    "`.expect(\"…\")` in guarded library code: return a typed \
                     error instead (or allowlist a provably infallible site)"
                        .to_owned(),
                );
            }
            let banged = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
            if banged && matches!(name, "panic" | "todo" | "unimplemented") {
                emit(
                    out,
                    Rule::P001,
                    t.line,
                    format!("`{name}!` in guarded library code: return a typed error instead"),
                );
            }
        }

        // T001: wall-clock reads outside the sanctioned modules.
        if class.t001 {
            if name == "Instant"
                && path_sep_after(toks, i)
                && toks.get(i + 3).is_some_and(|n| n.is_ident("now"))
            {
                emit(
                    out,
                    Rule::T001,
                    t.line,
                    "`Instant::now()` outside `crates/bench` and the core clock \
                     module: route timing through `pcqe_core::clock`"
                        .to_owned(),
                );
            }
            if name == "SystemTime" {
                emit(
                    out,
                    Rule::T001,
                    t.line,
                    "`SystemTime` outside `crates/bench`: wall-clock timestamps \
                     are nondeterministic; route timing through `pcqe_core::clock`"
                        .to_owned(),
                );
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
    fn d001_flags_hash_collections_in_result_crates_only() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let hits = findings("crates/algebra/src/exec.rs", src);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|(r, _)| *r == Rule::D001));
        // Outside the result-affecting set: clean.
        assert!(findings("crates/sql/src/parser.rs", src).is_empty());
        assert!(findings("crates/workload/src/gen.rs", src).is_empty());
    }

    #[test]
    fn d001_ignores_comments_strings_and_tests() {
        let src = "// a HashMap comment\nconst S: &str = \"HashMap\";\n#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  fn t() { let _m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        assert!(findings("crates/core/src/dnc.rs", src).is_empty());
    }

    #[test]
    fn d002_flags_entropy_idioms() {
        let src = "fn f() { let r = thread_rng(); let s = StdRng::from_entropy(); }";
        let hits = findings("crates/workload/src/gen.rs", src);
        assert_eq!(hits.len(), 3, "{hits:?}");
        // The sanctioned module may define what it likes.
        assert!(findings("crates/lineage/src/rng.rs", src).is_empty());
    }

    #[test]
    fn p001_flags_panics_in_guarded_crates() {
        let src = "fn f(x: Option<u32>) -> u32 {\n  let a = x.unwrap();\n  let b = x.expect(\"present\");\n  if a == b { panic!(\"boom\"); }\n  todo!()\n}\n";
        let hits = findings("crates/engine/src/database.rs", src);
        assert_eq!(
            hits,
            vec![
                (Rule::P001, 2),
                (Rule::P001, 3),
                (Rule::P001, 4),
                (Rule::P001, 5)
            ]
        );
        // Algebra is determinism-guarded but not panic-guarded.
        assert!(findings("crates/algebra/src/exec.rs", src).is_empty());
    }

    #[test]
    fn p001_skips_parser_style_expect_methods() {
        // `self.expect(Token::LParen, "…")` takes a non-string first
        // argument: not Option::expect.
        let src = "fn f(&mut self) { self.expect(Token::LParen, \"`(`\"); }";
        assert!(findings("crates/sql/src/parser.rs", src).is_empty());
        // unwrap_or and friends are distinct identifiers.
        let src = "fn g(x: Option<u32>) -> u32 { x.unwrap_or(3) }";
        assert!(findings("crates/sql/src/parser.rs", src).is_empty());
    }

    #[test]
    fn t001_flags_clock_reads_outside_sanctioned_modules() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let hits = findings("crates/core/src/greedy.rs", src);
        assert_eq!(hits.len(), 2);
        assert!(findings("crates/core/src/clock.rs", src).is_empty());
        assert!(findings("crates/bench/src/timing.rs", src).is_empty());
        // `Instant` as a stored type (no `::now`) is fine.
        assert!(findings("crates/core/src/greedy.rs", "struct S { t: Instant }").is_empty());
    }

    #[test]
    fn obs_crate_is_guarded_but_not_clock_exempt() {
        // The observability crate must route timing through
        // `pcqe_core::clock`, so a raw wall-clock read there still fires.
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(
            findings("crates/obs/src/recorder.rs", src),
            vec![(Rule::T001, 1)]
        );
        // And it is held to the determinism and panic-safety rules.
        assert_eq!(
            findings(
                "crates/obs/src/snapshot.rs",
                "use std::collections::HashMap;"
            ),
            vec![(Rule::D001, 1)]
        );
        assert_eq!(
            findings(
                "crates/obs/src/recorder.rs",
                "fn f(x: Option<u32>) -> u32 { x.unwrap() }"
            ),
            vec![(Rule::P001, 1)]
        );
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
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(findings("crates/engine/tests/api.rs", src).is_empty());
        assert!(findings("examples/quickstart.rs", src).is_empty());
        assert!(findings("crates/bench/benches/b.rs", "use std::thread;").is_empty());
    }

    #[test]
    fn cfg_test_items_without_braces_are_skipped() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn f() {}\n";
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
