//! `lint.toml`: the one checked-in manifest the analyzer reads.
//!
//! Everything that is a *declaration* rather than analyzer code lives in
//! one file at the scan root, as four kinds of `[[table]]`:
//!
//! ```toml
//! [[allow]]                   # a reasoned exception to one rule
//! rule = "PCQE-D004"          # or the short form "D004"
//! path = "crates/algebra/src/expr.rs"
//! line = 770                  # required: the one line it excuses
//! reason = "exact-zero divisor guard"
//!
//! [[source]]                  # what the dataflow layer treats as secret
//! kind = "policy"             # suppressed | policy | confidence
//! names = ["beta"]            # identifiers carrying the taint
//! functions = ["current_beta"] # fns whose return value carries it
//! reason = "β/θ thresholds are policy internals"
//!
//! [[sink]]                    # extra disclosure points beyond the
//! kind = "trace"              # built-in error | trace | shell classes
//! functions = ["decision"]
//! reason = "tracer method the engine calls"
//!
//! [[sanction]]                # a designed disclosure channel
//! rule = "PCQE-F002"
//! path = "crates/engine/src/audit.rs"
//! sink = "write"              # the one sink callee/macro it opens
//! reason = "the audit log records the β each decision was gated at"
//! ```
//!
//! The reader is a hand-rolled TOML subset (the workspace is
//! registry-free) and strict: an unknown table or key, a key outside a
//! table, a missing required key, a bad rule id or taint kind and a
//! repeated array item are all hard [`parse`] errors. A missing or blank
//! `reason` is *not* — it parses as the empty string so the rest of the
//! analysis still runs, and [`Spec::hygiene`] reports it. A tree without
//! a `lint.toml` has the empty [`Spec`]: nothing is excused and nothing
//! is declared secret (the dataflow layer is inert).
//!
//! Hygiene is one pass over the parsed tables once the analysis knows
//! what each entry did ([`Usage`]): an entry that excuses or sanctions
//! nothing is stale (PCQE-A001 / F004) — the manifest must never outlive
//! the code it describes — and reasons must be present and cite only
//! live rule ids (PCQE-A002 for `allow`, PCQE-F005 for the flow tables).

use crate::rules::{Finding, Rule};
use std::collections::BTreeSet;

/// Name of the manifest looked up at the scan root.
pub const MANIFEST: &str = "lint.toml";

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowEntry {
    /// The rule being suppressed.
    pub rule: Rule,
    /// Relative `/`-separated path the suppression applies to.
    pub path: String,
    /// The one line excused: there is no file-wide entry.
    pub line: u32,
    /// Why the exception is sound. Blank → PCQE-A002.
    pub reason: String,
    /// Line of the table header in the manifest itself.
    pub declared_at: u32,
}

/// What kind of secret a source introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// Withheld-tuple data: the failing side of `evaluate_results`.
    Suppressed,
    /// β/θ policy thresholds from `pcqe-policy`.
    Policy,
    /// Raw pre-gate confidence values.
    Confidence,
}

impl TaintKind {
    /// All kinds, in manifest/report order.
    pub fn all() -> [TaintKind; 3] {
        [
            TaintKind::Suppressed,
            TaintKind::Policy,
            TaintKind::Confidence,
        ]
    }
}

/// A sink class an extra `[[sink]]` declaration can join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    /// Typed-error constructors, panic payloads, `Display`/`Debug` impls.
    Error,
    /// `pcqe-obs` trace/metrics/export entry points.
    Trace,
    /// Shell/CLI output (print-family macros).
    Shell,
}

/// One `[[source]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSpec {
    /// The taint kind the source introduces.
    pub kind: TaintKind,
    /// Identifier names that carry this taint wherever they appear
    /// (parameters, bindings, format captures).
    pub names: BTreeSet<String>,
    /// Functions whose *return value* carries this taint.
    pub functions: BTreeSet<String>,
    /// Why these names/functions are secret. Blank → PCQE-F005.
    pub reason: String,
    /// Line of the table header in the manifest itself.
    pub declared_at: u32,
}

/// One `[[sink]]` entry: extra sink callees beyond the built-in
/// structural classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkSpec {
    /// Which sink class the functions join.
    pub kind: SinkKind,
    /// Callee names (last path segment) treated as sinks of that class.
    pub functions: BTreeSet<String>,
    /// Why these are disclosure points. Blank → PCQE-F005.
    pub reason: String,
    /// Line of the table header in the manifest itself.
    pub declared_at: u32,
}

/// One `[[sanction]]` entry: a designed disclosure channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sanction {
    /// The dataflow rule the sanction covers.
    pub rule: Rule,
    /// File the sanction covers (workspace-relative, `/`-separated).
    pub path: String,
    /// The callee/macro name of the one sink it opens (e.g. `decision`,
    /// `write`): a channel is named, never a whole file.
    pub sink: String,
    /// Why the disclosure is designed-in. Blank → PCQE-F005.
    pub reason: String,
    /// Line of the table header in the manifest itself.
    pub declared_at: u32,
}

impl Sanction {
    /// Does this sanction cover a finding of `rule` at `path` flowing
    /// into sink callee `sink_name`?
    pub fn covers(&self, rule: Rule, path: &str, sink_name: &str) -> bool {
        self.rule == rule && self.path == path && self.sink == sink_name
    }
}

/// The parsed manifest: every table in file order.
#[derive(Debug, Clone, Default)]
pub struct Spec {
    /// Reasoned exceptions.
    pub allow: Vec<AllowEntry>,
    /// Declared taint sources.
    pub sources: Vec<SourceSpec>,
    /// Declared extra sinks.
    pub sinks: Vec<SinkSpec>,
    /// Sanctioned disclosure channels.
    pub sanctions: Vec<Sanction>,
}

/// What the analysis saw each manifest entry do, index-aligned with the
/// [`Spec`] tables; the input to [`Spec::hygiene`].
#[derive(Debug)]
pub struct Usage {
    /// Findings each `[[allow]]` entry suppressed.
    pub allow_hits: Vec<usize>,
    /// Whether each `[[sanction]]` covered at least one flow.
    pub sanctions_hit: Vec<bool>,
}

impl Spec {
    /// An all-unused [`Usage`] sized to this manifest.
    pub fn usage(&self) -> Usage {
        Usage {
            allow_hits: vec![0; self.allow.len()],
            sanctions_hit: vec![false; self.sanctions.len()],
        }
    }

    /// Declared source names for one taint kind.
    pub fn names_of(&self, kind: TaintKind) -> BTreeSet<&str> {
        self.sources
            .iter()
            .filter(|s| s.kind == kind)
            .flat_map(|s| s.names.iter().map(String::as_str))
            .collect()
    }

    /// Declared source functions for one taint kind.
    pub fn functions_of(&self, kind: TaintKind) -> BTreeSet<&str> {
        self.sources
            .iter()
            .filter(|s| s.kind == kind)
            .flat_map(|s| s.functions.iter().map(String::as_str))
            .collect()
    }

    /// Declared extra sink callees for one sink class.
    pub fn sink_functions_of(&self, kind: SinkKind) -> BTreeSet<&str> {
        self.sinks
            .iter()
            .filter(|s| s.kind == kind)
            .flat_map(|s| s.functions.iter().map(String::as_str))
            .collect()
    }

    /// Report every manifest entry that is unreasoned, cites a dead rule
    /// id, or (per `usage`) did nothing this run. Findings point into
    /// the manifest itself, at the entry's table header.
    pub fn hygiene(&self, usage: &Usage, out: &mut Vec<Finding>) {
        let mut emit = |rule: Rule, line: u32, message: String| {
            out.push(Finding {
                rule,
                path: MANIFEST.to_owned(),
                line,
                message,
            });
        };

        // --- Reasons (A002 for allow, F005 for the flow tables) ---------
        let (a002, f005) = (Rule::A002, Rule::F005);
        let mut reasons: Vec<(Rule, &str, u32, &str)> = Vec::new();
        reasons.extend((self.allow.iter()).map(|e| (a002, "allow", e.declared_at, &*e.reason)));
        reasons.extend((self.sources.iter()).map(|s| (f005, "source", s.declared_at, &*s.reason)));
        reasons.extend((self.sinks.iter()).map(|s| (f005, "sink", s.declared_at, &*s.reason)));
        let sanctions = self.sanctions.iter();
        reasons.extend(sanctions.map(|s| (f005, "sanction", s.declared_at, &*s.reason)));
        for (rule, table, at, reason) in reasons {
            if reason.trim().is_empty() {
                emit(
                    rule,
                    at,
                    format!(
                        "`[[{table}]]` entry has no `reason`; every exception and flow \
                         declaration must say why it is sound"
                    ),
                );
                continue;
            }
            // A rule id cited in a reason must exist: a stale id means
            // the justification no longer matches what it justifies.
            for token in reason.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if token.starts_with("PCQE-") && Rule::parse(token).is_none() {
                    emit(
                        rule,
                        at,
                        format!(
                            "`[[{table}]]` reason cites unknown rule id `{token}`: fix the \
                             id or drop the citation"
                        ),
                    );
                }
            }
        }

        // --- Allow entries: none stale ---------------------------------
        for (entry, &hits) in self.allow.iter().zip(&usage.allow_hits) {
            if hits == 0 {
                emit(
                    Rule::A001,
                    entry.declared_at,
                    format!(
                        "stale allowlist entry: no {} finding at `{}` line {} — delete the \
                         entry (reason was: {})",
                        entry.rule.code(),
                        entry.path,
                        entry.line,
                        entry.reason
                    ),
                );
            }
        }

        // --- Sanctions: every one exercised -----------------------------
        for (s, &hit) in self.sanctions.iter().zip(&usage.sanctions_hit) {
            if !hit {
                emit(
                    Rule::F004,
                    s.declared_at,
                    format!(
                        "stale sanction: no {} flow reaches sink `{}` in `{}` — delete the \
                         entry (reason was: {})",
                        s.rule.code(),
                        s.sink,
                        s.path,
                        s.reason
                    ),
                );
            }
        }
    }
}

/// Parse a manifest. `source` labels error messages.
pub fn parse(text: &str, source: &str) -> Result<Spec, String> {
    let mut spec = Spec::default();
    for mut t in tables(text, source)? {
        let declared_at = t.line;
        match t.name {
            "allow" => spec.allow.push(AllowEntry {
                rule: t.need("rule", rule)?,
                path: t.need("path", path)?,
                line: t.need("line", integer)?,
                reason: t.reason()?,
                declared_at,
            }),
            "source" => {
                let entry = SourceSpec {
                    kind: t.need("kind", taint_kind)?,
                    names: t.get("names", strings)?.unwrap_or_default(),
                    functions: t.get("functions", strings)?.unwrap_or_default(),
                    reason: t.reason()?,
                    declared_at,
                };
                if entry.names.is_empty() && entry.functions.is_empty() {
                    return Err(format!(
                        "{source}:{declared_at}: `[[source]]` entry declares no `names` and \
                         no `functions`; an empty source taints nothing"
                    ));
                }
                spec.sources.push(entry);
            }
            "sink" => spec.sinks.push(SinkSpec {
                kind: t.need("kind", sink_kind)?,
                functions: t.need("functions", strings)?,
                reason: t.reason()?,
                declared_at,
            }),
            "sanction" => spec.sanctions.push(Sanction {
                rule: t.need("rule", rule)?,
                path: t.need("path", path)?,
                sink: t.need("sink", string)?,
                reason: t.reason()?,
                declared_at,
            }),
            other => {
                return Err(format!(
                    "{source}:{declared_at}: unknown table `[[{other}]]` (expected \
                     allow/source/sink/sanction)"
                ));
            }
        }
        t.finish()?;
    }
    Ok(spec)
}

/// One `[[name]]` table as read: the header line and the raw
/// `key = value` pairs the typed getters consume.
struct Table<'a> {
    source: &'a str,
    name: &'a str,
    line: u32,
    pairs: Vec<(&'a str, &'a str, u32)>,
}

/// Split a manifest into its tables. This is the whole TOML subset:
/// `#` comments, `[[name]]` headers and single-line `key = value` pairs.
fn tables<'a>(text: &'a str, source: &'a str) -> Result<Vec<Table<'a>>, String> {
    let mut out: Vec<Table<'a>> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            out.push(Table {
                source,
                name: name.trim(),
                line: lineno,
                pairs: Vec::new(),
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "{source}:{lineno}: unexpected table `{line}`; only `[[name]]` array tables \
                 are supported"
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "{source}:{lineno}: expected `key = value`, got `{line}`"
            ));
        };
        let key = key.trim();
        let Some(table) = out.last_mut() else {
            return Err(format!("{source}:{lineno}: `{key}` outside a table"));
        };
        if table.pairs.iter().any(|(k, _, _)| *k == key) {
            return Err(format!(
                "{source}:{lineno}: `{key}` set twice in one `[[{}]]`",
                table.name
            ));
        }
        table.pairs.push((key, value.trim(), lineno));
    }
    Ok(out)
}

impl Table<'_> {
    /// Consume optional `key`, parsing its raw value with `parse`;
    /// errors carry the key's own line.
    fn get<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let Some(at) = self.pairs.iter().position(|(k, _, _)| *k == key) else {
            return Ok(None);
        };
        let (_, raw, line) = self.pairs.remove(at);
        match parse(raw) {
            Ok(v) => Ok(Some(v)),
            Err(m) => Err(format!("{}:{line}: `{key}`: {m}", self.source)),
        }
    }

    /// Consume required `key`.
    fn need<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        self.get(key, parse)?.ok_or_else(|| {
            format!(
                "{}:{}: `[[{}]]` entry is missing `{key}`",
                self.source, self.line, self.name
            )
        })
    }

    /// Consume `reason`. Absence is *not* a parse error: hygiene turns a
    /// missing/blank reason into a reported finding, so the rest of the
    /// analysis still runs and the whole state is visible in one report.
    fn reason(&mut self) -> Result<String, String> {
        Ok(self.get("reason", string)?.unwrap_or_default())
    }

    /// Reject whatever no getter consumed.
    fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            None => Ok(()),
            Some((key, _, line)) => Err(format!(
                "{}:{line}: unknown key `{key}` in `[[{}]]`",
                self.source, self.name
            )),
        }
    }
}

/// Strip a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

// --- Value parsers: raw text right of the `=` to a typed value ----------

/// A double-quoted string.
fn string(raw: &str) -> Result<String, String> {
    let inner = raw
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| format!("expected a double-quoted string, got `{raw}`"))?;
    if inner.contains('"') {
        return Err("embedded quotes are not supported".to_owned());
    }
    Ok(inner.to_owned())
}

/// A `/`-separated relative path.
fn path(raw: &str) -> Result<String, String> {
    Ok(string(raw)?.replace('\\', "/"))
}

/// A bare non-negative integer.
fn integer(raw: &str) -> Result<u32, String> {
    raw.parse()
        .map_err(|_| format!("must be an integer, got `{raw}`"))
}

/// A non-empty `["a", "b"]` array of distinct strings.
fn strings(raw: &str) -> Result<BTreeSet<String>, String> {
    let inner = raw
        .strip_prefix('[')
        .and_then(|rest| rest.strip_suffix(']'))
        .ok_or_else(|| format!("expected a `[\"…\", …]` array, got `{raw}`"))?;
    let mut out = BTreeSet::new();
    // A trailing comma leaves one empty item; tolerate it.
    for item in inner.split(',').map(str::trim).filter(|i| !i.is_empty()) {
        let item = string(item)?;
        if !out.insert(item.clone()) {
            return Err(format!("`{item}` listed twice"));
        }
    }
    if out.is_empty() {
        return Err("must name at least one item".to_owned());
    }
    Ok(out)
}

/// A rule id, full (`PCQE-D004`) or short (`D004`).
fn rule(raw: &str) -> Result<Rule, String> {
    let code = string(raw)?;
    Rule::parse(&code).ok_or_else(|| format!("unknown rule `{code}`"))
}

/// A taint kind.
fn taint_kind(raw: &str) -> Result<TaintKind, String> {
    match string(raw)?.as_str() {
        "suppressed" => Ok(TaintKind::Suppressed),
        "policy" => Ok(TaintKind::Policy),
        "confidence" => Ok(TaintKind::Confidence),
        other => Err(format!(
            "unknown taint kind `{other}` (expected suppressed/policy/confidence)"
        )),
    }
}

/// A sink class.
fn sink_kind(raw: &str) -> Result<SinkKind, String> {
    match string(raw)?.as_str() {
        "error" => Ok(SinkKind::Error),
        "trace" => Ok(SinkKind::Trace),
        "shell" => Ok(SinkKind::Shell),
        other => Err(format!(
            "unknown sink kind `{other}` (expected error/trace/shell)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVERY_TABLE: &str = "\n# header comment\n\
        [[allow]]\nrule = \"PCQE-D004\"\npath = \"crates\\algebra\\src\\expr.rs\"\n\
        line = 56\nreason = \"exact-zero divisor guard\"\n\
        \n\
        [[allow]]\nrule = \"G001\" # short form\npath = \"crates/engine/src/db.rs\"\n\
        line = 7\nreason = \"gated by caller #1\"\n\
        \n\
        [[source]]\nkind = \"policy\"\nnames = [\"beta\", \"threshold\", ]\n\
        reason = \"policy internals\"\n\
        \n\
        [[source]]\nkind = \"suppressed\"\nfunctions = [\"withheld_tuples\"]\n\
        reason = \"the failing side of the gate\"\n\
        \n\
        [[sink]]\nkind = \"shell\"\nfunctions = [\"emit_diag\"]\nreason = \"writes to stderr\"\n\
        \n\
        [[sanction]]\nrule = \"PCQE-F002\"\npath = \"crates/engine/src/audit.rs\"\n\
        sink = \"fmt\"\nreason = \"the audit log is the designed channel\"\n\
        \n\
        [[sanction]]\nrule = \"F003\"\npath = \"crates/engine/src/database.rs\"\n\
        sink = \"decision\"\nreason = \"Decision records\"\n";

    #[test]
    fn parses_every_table_kind_from_one_file() {
        let spec = parse(EVERY_TABLE, MANIFEST).unwrap();

        assert_eq!(spec.allow.len(), 2);
        assert_eq!(spec.allow[0].rule, Rule::D004);
        assert_eq!(spec.allow[0].path, "crates/algebra/src/expr.rs");
        assert_eq!(spec.allow[0].line, 56);
        assert_eq!(spec.allow[0].declared_at, 3);
        assert_eq!(spec.allow[1].rule, Rule::G001);
        assert_eq!(spec.allow[1].line, 7);
        // A `#` inside a quoted string is text, not a comment.
        assert_eq!(spec.allow[1].reason, "gated by caller #1");

        assert_eq!(spec.sources.len(), 2);
        assert_eq!(spec.sources[0].kind, TaintKind::Policy);
        // A trailing comma in an array is tolerated.
        assert_eq!(spec.sources[0].names.len(), 2);
        assert!(spec.names_of(TaintKind::Policy).contains("beta"));
        assert!(spec
            .functions_of(TaintKind::Suppressed)
            .contains("withheld_tuples"));
        assert!(spec
            .sink_functions_of(SinkKind::Shell)
            .contains("emit_diag"));

        // A sanction covers its one sink callee, for its rule, in its file.
        let [audit, decisions] = &spec.sanctions[..] else {
            panic!("two sanctions expected: {:?}", spec.sanctions);
        };
        assert!(audit.covers(Rule::F002, "crates/engine/src/audit.rs", "fmt"));
        assert!(!audit.covers(Rule::F002, "crates/engine/src/audit.rs", "println"));
        assert!(!audit.covers(Rule::F001, "crates/engine/src/audit.rs", "fmt"));
        assert!(decisions.covers(Rule::F003, "crates/engine/src/database.rs", "decision"));
        assert!(!decisions.covers(Rule::F003, "crates/engine/src/audit.rs", "decision"));
    }

    #[test]
    fn rejects_malformed_manifests() {
        let rejected = |text: &str, needle: &str| {
            let err = parse(text, "f").expect_err(text);
            assert!(
                err.contains(needle),
                "`{needle}` not in `{err}` for {text:?}"
            );
        };
        // Structure: unknown or single-bracket table, key outside a
        // table, not a pair, unknown key, the same key twice.
        rejected("[[bogus]]\n", "f:1: unknown table `[[bogus]]`");
        rejected("[allow]\n", "f:1: unexpected table");
        rejected("rule = \"D004\"\n", "f:1: `rule` outside a table");
        rejected("[[allow]]\njust words\n", "f:2: expected `key = value`");
        rejected(
            "[[allow]]\nrule = \"D004\"\npath = \"x\"\nline = 1\nbogus = \"x\"\n",
            "f:5: unknown key `bogus` in `[[allow]]`",
        );
        rejected(
            "[[sanction]]\nrule = \"F001\"\npath = \"x\"\nsink = \"s\"\nnames = [\"x\"]\n",
            "f:5: unknown key `names` in `[[sanction]]`",
        );
        rejected(
            "[[allow]]\npath = \"x\"\npath = \"y\"\n",
            "f:3: `path` set twice",
        );
        // Missing required keys, reported at the table header.
        rejected(
            "\n[[allow]]\nrule = \"D004\"\n",
            "f:2: `[[allow]]` entry is missing `path`",
        );
        // There is no file-wide waiver: an entry names its one line.
        rejected(
            "[[allow]]\nrule = \"D004\"\npath = \"x\"\nreason = \"r\"\n",
            "f:1: `[[allow]]` entry is missing `line`",
        );
        rejected("[[source]]\nnames = [\"x\"]\n", "missing `kind`");
        rejected("[[source]]\nkind = \"policy\"\n", "taints nothing");
        rejected("[[sink]]\nkind = \"shell\"\n", "missing `functions`");
        rejected("[[sanction]]\nrule = \"PCQE-F001\"\n", "missing `path`");
        rejected(
            "[[sanction]]\nrule = \"PCQE-F001\"\npath = \"x\"\n",
            "missing `sink`",
        );
        // Bad values, reported at the key's own line.
        rejected(
            "[[allow]]\nrule = \"NOPE\"\npath = \"x\"\n",
            "f:2: `rule`: unknown rule `NOPE`",
        );
        rejected(
            "[[sanction]]\nrule = \"PCQE-F999\"\npath = \"x\"\n",
            "unknown rule `PCQE-F999`",
        );
        rejected(
            "[[allow]]\nrule = \"D004\"\npath = \"x\"\nline = \"4\"\n",
            "f:4: `line`: must be an integer",
        );
        rejected(
            "[[allow]]\nrule = D004\n",
            "expected a double-quoted string",
        );
        rejected(
            "[[sink]]\nkind = \"shell\"\nfunctions = []\n",
            "must name at least one item",
        );
        rejected(
            "[[sink]]\nkind = \"shell\"\nfunctions = \"f\"\n",
            "expected a `[\"…\", …]` array",
        );
        rejected(
            "[[source]]\nkind = \"secret\"\nnames = [\"x\"]\n",
            "unknown taint kind `secret`",
        );
        rejected(
            "[[source]]\nkind = \"policy\"\nnames = [\"b\", \"b\"]\n",
            "`b` listed twice",
        );
        rejected(
            "[[sink]]\nkind = \"socket\"\nfunctions = [\"f\"]\n",
            "unknown sink kind `socket`",
        );
    }

    #[test]
    fn blank_reasons_and_dead_citations_parse_and_hygiene_reports_them() {
        // One missing and one blank reason per hygiene family, plus a
        // dead citation in each; every entry is otherwise in use.
        let spec = parse(
            "[[allow]]\nrule = \"D004\"\npath = \"x\"\nline = 1\n\
             [[allow]]\nrule = \"D004\"\npath = \"z\"\nline = 3\nreason = \"  \"\n\
             [[source]]\nkind = \"policy\"\nnames = [\"beta\"]\n\
             [[sink]]\nkind = \"shell\"\nfunctions = [\"f\"]\nreason = \"covers PCQE-F998\"\n\
             [[allow]]\nrule = \"D004\"\npath = \"y\"\nline = 2\nreason = \"see PCQE-C001\"\n",
            MANIFEST,
        )
        .unwrap();
        assert_eq!(spec.allow[0].reason, "");
        let mut usage = spec.usage();
        usage.allow_hits = vec![1, 1, 1];
        let mut out = Vec::new();
        spec.hygiene(&usage, &mut out);
        let got: Vec<(Rule, u32, &str)> = out
            .iter()
            .map(|f| (f.rule, f.line, f.message.as_str()))
            .collect();
        assert_eq!(got.len(), 5, "{got:#?}");
        assert!(out.iter().all(|f| f.path == MANIFEST));
        assert!(got[0].0 == Rule::A002 && got[0].1 == 1 && got[0].2.contains("no `reason`"));
        // The retired C001 id is dead like any other unknown id.
        assert!(got[1].0 == Rule::A002 && got[1].1 == 5 && got[1].2.contains("no `reason`"));
        assert!(got[2].0 == Rule::A002 && got[2].1 == 17);
        assert!(got[2].2.contains("unknown rule id `PCQE-C001`"));
        assert!(got[3].0 == Rule::F005 && got[3].1 == 10 && got[3].2.contains("no `reason`"));
        assert!(got[4].0 == Rule::F005 && got[4].1 == 13);
        assert!(got[4].2.contains("unknown rule id `PCQE-F998`"));
    }

    #[test]
    fn unused_entries_are_stale() {
        let spec = parse(
            "[[allow]]\nrule = \"P002\"\npath = \"x.rs\"\nline = 3\nreason = \"bounded\"\n\
             [[sanction]]\nrule = \"PCQE-F002\"\npath = \"crates/policy/src/x.rs\"\n\
             sink = \"write\"\nreason = \"nothing flows here anymore\"\n",
            MANIFEST,
        )
        .unwrap();
        let mut usage = spec.usage();
        let mut out = Vec::new();
        spec.hygiene(&usage, &mut out);
        let got: Vec<(Rule, u32)> = out.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            got,
            vec![
                (Rule::A001, 1), // suppressed nothing
                (Rule::F004, 6), // sanction covered no flow
            ],
            "{out:#?}"
        );
        assert!(out[0].message.contains("stale allowlist entry"));
        assert!(out[0].message.contains("`x.rs` line 3"));
        assert!(out[1].message.contains("stale sanction"));

        // Fully used, nothing is reported.
        usage.allow_hits[0] = 1;
        usage.sanctions_hit[0] = true;
        let mut out = Vec::new();
        spec.hygiene(&usage, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }
}
