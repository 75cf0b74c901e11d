//! Layer 3 of the analyzer: confidentiality dataflow. Taint from the
//! `[[source]]`s declared in `lint.toml` ([`crate::spec`]) is
//! propagated through per-function def-use chains (`let` bindings,
//! format captures, return values — recorded by [`crate::item`]) and
//! across the workspace call graph ([`crate::graph`]) by argument
//! position, then checked against the disclosure sinks.
//!
//! Like the rest of the analyzer the tracking is **name-based and
//! conservative**: an identifier declared as a source name is tainted
//! wherever it appears, a binding whose initializer mentions a tainted
//! name taints the bound names, and a free function whose return
//! expression names a *declared* source taints every binding of its
//! call results (the callee *name* joins the tainted set; method names
//! stay out of it, and neither hot-name mentions nor tainted parameters
//! re-promote — the first closes a transitive loop that ends with `map`
//! and `run` hot for every kind, and the second is context-insensitive:
//! one tainted caller would mark the callee hot for every caller.
//! Parameter taint still reaches sinks *inside* the callee through the
//! interprocedural hand-off below). Over-approximation can only add
//! findings for a human to sanction, never hide a flow — the same
//! safety direction as the trait-object edges in layer 2.
//!
//! Interprocedural hand-off follows **path calls only** (free and
//! associated functions): a tainted argument at position `k` taints the
//! callee's `k`-th parameter, with the first-discovered caller recorded
//! as the witness predecessor. Method calls are excluded from hand-off —
//! they over-approximate to every same-named method, which would smear
//! taint across unrelated types. The same over-approximation rules
//! method-resolution out of sink *detection* too: a `.get(…)` that
//! happens to share its name with an obs accessor is not a trace sink.
//! Trace entry points are instead **declared** (`[[sink]] kind =
//! "trace"` names the obs methods a crate actually calls), with one
//! structural case kept: a path call spelled `pcqe_obs::…` is
//! unambiguous and always counts.
//!
//! Built-in structural sink classes (extra callees join via `[[sink]]`):
//!
//! * **error** — path calls whose leading segment ends in `Error`
//!   (typed-error constructors), panic-family payloads, and formatting
//!   inside `fmt` methods (`Display`/`Debug` impls);
//! * **trace** — path calls whose first segment is literally
//!   `pcqe_obs`; everything else joins by declaration;
//! * **shell** — print-family macro sites.
//!
//! | rule | taint kind | sinks checked |
//! |------|-----------|----------------|
//! | `PCQE-F001` | `suppressed` | error |
//! | `PCQE-F002` | `policy` | error + trace + shell |
//! | `PCQE-F003` | `confidence` | trace |
//!
//! A `[[sanction]]` entry covering (rule, file, sink callee) moves the
//! finding to the suppressed list with its reason — the audit log and
//! the `Decision`-record constructor are the canonical channels. Which
//! sanctions were exercised is handed back to the caller: one nothing
//! exercises is **PCQE-F004**, reported with the rest of the manifest
//! hygiene by [`crate::spec::Spec::hygiene`].

use crate::graph::CallGraph;
use crate::item::CallKind;
use crate::rules::{Finding, Rule};
use crate::spec::{SinkKind, Spec, TaintKind, MANIFEST};
use std::collections::{BTreeMap, BTreeSet};

/// One hop of a taint-flow witness: the function carrying the taint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowHop {
    /// Qualified function name (`crate::Owner::fn`).
    pub name: String,
    /// File the hop lives in.
    pub path: String,
    /// 1-based line: the call site handing taint onward, or the sink
    /// site itself for the final hop.
    pub line: u32,
}

/// Witness flow paths keyed by the finding they belong to — a side
/// table so [`Finding`] keeps its shape; the SARIF export turns these
/// into code flows.
pub type Witnesses = BTreeMap<(String, u32, String), Vec<FlowHop>>;

/// Panic-family macros: their payload is an error-class sink.
const PANIC_FAMILY: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];

/// Print-family macros: the shell sink class.
const PRINT_FAMILY: [&str; 4] = ["print", "println", "eprint", "eprintln"];

/// Write-family macros: an error-class sink *inside `fmt` methods* (the
/// formatted representation of the type escapes with the value).
const WRITE_FAMILY: [&str; 2] = ["write", "writeln"];

/// Explicit `pcqe_obs::…` path calls are always trace sinks; other obs
/// entry points (method calls on a tracer/observer) must be declared.
const OBS_CRATE: &str = "pcqe_obs";

/// Which rule guards a taint kind.
fn rule_of(kind: TaintKind) -> Rule {
    match kind {
        TaintKind::Suppressed => Rule::F001,
        TaintKind::Policy => Rule::F002,
        TaintKind::Confidence => Rule::F003,
    }
}

/// Which sink classes a taint kind is checked against.
fn sinks_of(kind: TaintKind) -> &'static [SinkKind] {
    match kind {
        TaintKind::Suppressed => &[SinkKind::Error],
        TaintKind::Policy => &[SinkKind::Error, SinkKind::Trace, SinkKind::Shell],
        TaintKind::Confidence => &[SinkKind::Trace],
    }
}

/// What a taint kind's data is called in messages.
fn describe(kind: TaintKind) -> &'static str {
    match kind {
        TaintKind::Suppressed => "suppressed-tuple data",
        TaintKind::Policy => "β/θ policy threshold",
        TaintKind::Confidence => "pre-gate confidence value",
    }
}

/// One detected sink site within a function body.
struct SinkSite {
    class: SinkKind,
    line: u32,
    /// Callee/macro name, matched against `[[sanction]].sink`.
    name: String,
    /// Human description for messages.
    desc: String,
    /// Identifiers visible in the sink's argument window.
    window: BTreeSet<String>,
    /// The call-position subset of the window — the only idents a
    /// hot-function name may match (a `.map(…)` mention is not a call
    /// of the free fn `map`).
    calls: BTreeSet<String>,
}

/// Run the dataflow rules F001–F003 over the graph, marking in
/// `exercised` every `[[sanction]]` that covered a flow. With no declared
/// sources nothing is secret and the layer is inert.
pub fn dataflow(
    graph: &CallGraph,
    spec: &Spec,
    exercised: &mut [bool],
    out: &mut Vec<Finding>,
    suppressed: &mut Vec<(Finding, String)>,
    witnesses: &mut Witnesses,
) {
    let sinks = collect_sinks(graph, spec);
    for kind in TaintKind::all() {
        check_kind(
            graph, spec, kind, &sinks, exercised, out, suppressed, witnesses,
        );
    }
}

/// Enumerate every sink site of every function, in node order.
fn collect_sinks(graph: &CallGraph, spec: &Spec) -> Vec<Vec<SinkSite>> {
    let extra_error = spec.sink_functions_of(SinkKind::Error);
    let extra_trace = spec.sink_functions_of(SinkKind::Trace);
    let extra_shell = spec.sink_functions_of(SinkKind::Shell);
    let mut out: Vec<Vec<SinkSite>> = Vec::with_capacity(graph.fns.len());
    for (i, node) in graph.fns.iter().enumerate() {
        let mut sites: Vec<SinkSite> = Vec::new();
        let in_fmt_method = node.name == "fmt" && node.owner.is_some();
        for f in &node.fmts {
            let (class, desc) = if PANIC_FAMILY.contains(&f.name.as_str()) {
                (SinkKind::Error, format!("panic payload `{}!`", f.name))
            } else if PRINT_FAMILY.contains(&f.name.as_str()) {
                (SinkKind::Shell, format!("shell output `{}!`", f.name))
            } else if in_fmt_method && WRITE_FAMILY.contains(&f.name.as_str()) {
                (
                    SinkKind::Error,
                    format!(
                        "`{}::fmt` output `{}!`",
                        node.owner.as_deref().unwrap_or(""),
                        f.name
                    ),
                )
            } else {
                continue;
            };
            sites.push(SinkSite {
                class,
                line: f.line,
                name: f.name.clone(),
                desc,
                window: f.args.clone(),
                calls: f.calls.clone(),
            });
        }
        for call in &graph.calls[i] {
            let callee = call.segs.last().cloned().unwrap_or_default();
            let qualified = call.segs.join("::");
            let window = || call.args.iter().flatten().cloned().collect::<BTreeSet<_>>();
            let calls = || {
                call.arg_calls
                    .iter()
                    .flatten()
                    .cloned()
                    .collect::<BTreeSet<_>>()
            };
            if call.kind == CallKind::Path
                && call.segs.len() >= 2
                && call.segs[call.segs.len() - 2].ends_with("Error")
            {
                sites.push(SinkSite {
                    class: SinkKind::Error,
                    line: call.line,
                    name: callee.clone(),
                    desc: format!("error constructor `{qualified}`"),
                    window: window(),
                    calls: calls(),
                });
            }
            if node.crate_name != OBS_CRATE
                && call.kind == CallKind::Path
                && call.segs.first().map(String::as_str) == Some(OBS_CRATE)
            {
                sites.push(SinkSite {
                    class: SinkKind::Trace,
                    line: call.line,
                    name: callee.clone(),
                    desc: format!("pcqe-obs entry point `{qualified}`"),
                    window: window(),
                    calls: calls(),
                });
            }
            for (class, set, label) in [
                (SinkKind::Error, &extra_error, "error"),
                (SinkKind::Trace, &extra_trace, "trace"),
                (SinkKind::Shell, &extra_shell, "shell"),
            ] {
                if set.contains(callee.as_str()) {
                    sites.push(SinkSite {
                        class,
                        line: call.line,
                        name: callee.clone(),
                        desc: format!("declared {label} sink `{qualified}`"),
                        window: window(),
                        calls: calls(),
                    });
                }
            }
        }
        sites.sort_by_key(|s| s.line);
        out.push(sites);
    }
    out
}

/// Propagate one taint kind to fixpoint and report its sink hits.
#[allow(clippy::too_many_arguments)]
fn check_kind(
    graph: &CallGraph,
    spec: &Spec,
    kind: TaintKind,
    sinks: &[Vec<SinkSite>],
    exercised: &mut [bool],
    out: &mut Vec<Finding>,
    suppressed: &mut Vec<(Finding, String)>,
    witnesses: &mut Witnesses,
) {
    let rule = rule_of(kind);
    let classes = sinks_of(kind);
    let declared_names = spec.names_of(kind);
    let declared_fns = spec.functions_of(kind);
    if declared_names.is_empty() && declared_fns.is_empty() {
        return;
    }
    let n = graph.fns.len();

    // `hot_fn[i]`: fn i's return value carries the taint, so its *name*
    // taints any binding that mentions it. `param_taint[i]`: parameters
    // of fn i that received taint interprocedurally. `derived[i]`:
    // locally bound names tainted through `let` chains. `pred[i]`: the
    // first caller observed handing taint in, for witness chains.
    let mut hot_fn: Vec<bool> = graph
        .fns
        .iter()
        .map(|f| declared_fns.contains(f.name.as_str()))
        .collect();
    let mut param_taint: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut derived: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut pred: Vec<Option<(usize, u32)>> = vec![None; n];

    loop {
        let mut changed = false;
        // A hot *method* name is not tainted-by-mention: `x.eval(…)`
        // could be any type's `eval`, the same smear that rules method
        // calls out of hand-off. Free functions are unambiguous, and a
        // name the manifest declared is tainted by fiat.
        let hot_names: BTreeSet<&str> = graph
            .fns
            .iter()
            .enumerate()
            .filter(|&(i, f)| {
                hot_fn[i] && (f.owner.is_none() || declared_fns.contains(f.name.as_str()))
            })
            .map(|(_, f)| f.name.as_str())
            .collect();
        for i in 0..n {
            let node = &graph.fns[i];
            let params_i = param_taint[i].clone();
            // Data taint: declared names and declared source functions
            // match any mention; inferred-hot names match only in call
            // position (`calls` windows), or `v.iter().map(…)` would
            // light up the moment any free fn named `map` runs hot.
            let tainted = |name: &str, local: &BTreeSet<String>| {
                declared_names.contains(name)
                    || declared_fns.contains(name)
                    || params_i.contains(name)
                    || local.contains(name)
            };
            let hot_call =
                |calls: &BTreeSet<String>| calls.iter().any(|c| hot_names.contains(c.as_str()));
            // Local fixpoint over the `let` chains of this body.
            let mut local = derived[i].clone();
            loop {
                let mut grew = false;
                for b in &node.binds {
                    if (b.rhs.iter().any(|r| tainted(r, &local)) || hot_call(&b.calls))
                        && b.names.iter().any(|m| !local.contains(m))
                    {
                        local.extend(b.names.iter().cloned());
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
            if local != derived[i] {
                derived[i] = local;
                changed = true;
            }
            // Return-value taint promotes the function itself — but only
            // on *declared* evidence: the return window names a declared
            // source (name or function). That covers taint internal to
            // the callee (`fn current_beta(p) -> f64 { p.beta }`), the
            // one case callers cannot see; taint that arrives *through*
            // the call site is already visible in the caller's own rhs
            // window. Promoting on tainted params or hot/local mentions
            // instead makes the property global — one caller passing
            // tainted data marks the fn hot for every other caller — and
            // the closure ends with `solve`/`map`/`or_merge` hot for
            // every kind.
            if !hot_fn[i]
                && node.ret_idents.iter().any(|r| {
                    declared_names.contains(r.as_str()) || declared_fns.contains(r.as_str())
                })
            {
                hot_fn[i] = true;
                changed = true;
            }
            // Interprocedural hand-off by argument position, path calls
            // only (method edges over-approximate too wildly to carry
            // taint — see the module docs).
            for call in &graph.calls[i] {
                if call.kind != CallKind::Path {
                    continue;
                }
                for (k, argset) in call.args.iter().enumerate() {
                    let arg_hot = call.arg_calls.get(k).is_some_and(&hot_call);
                    if !arg_hot && !argset.iter().any(|a| tainted(a, &derived[i])) {
                        continue;
                    }
                    for &t in &call.targets {
                        let Some(pname) = graph.fns[t].params.get(k) else {
                            continue;
                        };
                        if param_taint[t].insert(pname.clone()) {
                            changed = true;
                            if pred[t].is_none() && t != i {
                                pred[t] = Some((i, call.line));
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // The final hot set, for matching sink-window call positions below.
    let hot_names: BTreeSet<&str> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|&(i, f)| {
            hot_fn[i] && (f.owner.is_none() || declared_fns.contains(f.name.as_str()))
        })
        .map(|(_, f)| f.name.as_str())
        .collect();

    // --- Sink hits -----------------------------------------------------
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for (i, node) in graph.fns.iter().enumerate() {
        for site in &sinks[i] {
            if !classes.contains(&site.class) {
                continue;
            }
            let hits: Vec<&str> = site
                .window
                .iter()
                .map(String::as_str)
                .filter(|w| {
                    declared_names.contains(w)
                        || declared_fns.contains(w)
                        || derived[i].contains(*w)
                        || param_taint[i].contains(*w)
                        || (site.calls.contains(*w) && hot_names.contains(w))
                })
                .collect();
            if hits.is_empty() {
                continue;
            }
            let key = (node.path.clone(), site.line, site.name.clone());
            if !seen.insert(key) {
                continue;
            }
            let chain = witness_chain(graph, &pred, i, site.line);
            let via = chain
                .iter()
                .map(|h| h.name.as_str())
                .collect::<Vec<_>>()
                .join(" → ");
            let finding = Finding {
                rule,
                path: node.path.clone(),
                line: site.line,
                message: format!(
                    "{} (`{}`) reaches {} via {via}: redact the value or declare the \
                     channel in {MANIFEST}",
                    describe(kind),
                    hits.join("`, `"),
                    site.desc,
                ),
            };
            match spec
                .sanctions
                .iter()
                .position(|s| s.covers(rule, &node.path, &site.name))
            {
                Some(idx) => {
                    exercised[idx] = true;
                    suppressed.push((finding, spec.sanctions[idx].reason.clone()));
                }
                None => {
                    witnesses.insert(
                        (node.path.clone(), site.line, rule.code().to_owned()),
                        chain,
                    );
                    out.push(finding);
                }
            }
        }
    }
}

/// Walk the predecessor links from the sink function back to the taint
/// origin, rendering the hop list origin-first (the sink hop carries
/// the sink line).
fn witness_chain(
    graph: &CallGraph,
    pred: &[Option<(usize, u32)>],
    sink_fn: usize,
    sink_line: u32,
) -> Vec<FlowHop> {
    let mut hops = vec![FlowHop {
        name: graph.fns[sink_fn].qualified(),
        path: graph.fns[sink_fn].path.clone(),
        line: sink_line,
    }];
    let mut visited = BTreeSet::from([sink_fn]);
    let mut j = sink_fn;
    while let Some((p, line)) = pred[j] {
        if !visited.insert(p) {
            break; // defensive: first-wins links should be acyclic
        }
        hops.push(FlowHop {
            name: graph.fns[p].qualified(),
            path: graph.fns[p].path.clone(),
            line,
        });
        j = p;
    }
    hops.reverse();
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::collect;
    use crate::lexer::lex;
    use crate::rules::test_region_mask;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let items: Vec<_> = files
            .iter()
            .map(|(path, src)| {
                let toks = lex(src);
                let mask = test_region_mask(&toks);
                collect(path, &toks, &mask)
            })
            .collect();
        CallGraph::build(&items)
    }

    fn run(
        files: &[(&str, &str)],
        manifest: &str,
    ) -> (Vec<Finding>, Vec<(Finding, String)>, Witnesses) {
        let graph = graph_of(files);
        let spec = crate::spec::parse(manifest, MANIFEST).unwrap();
        let mut exercised = spec.usage().sanctions_hit;
        let mut out = Vec::new();
        let mut suppressed = Vec::new();
        let mut witnesses = Witnesses::new();
        dataflow(
            &graph,
            &spec,
            &mut exercised,
            &mut out,
            &mut suppressed,
            &mut witnesses,
        );
        // An exercised sanction is exactly one that suppressed a flow.
        assert_eq!(exercised.contains(&true), !suppressed.is_empty());
        (out, suppressed, witnesses)
    }

    const POLICY_SRC: &str = "[[source]]\nkind = \"policy\"\nnames = [\"beta\", \"threshold\"]\n\
                              reason = \"policy internals\"\n";

    #[test]
    fn f002_catches_beta_reaching_shell_and_error_ctor() {
        let (out, _, w) = run(
            &[(
                "crates/policy/src/policy.rs",
                "pub fn check(beta: f64) -> Result<(), PolicyError> {\n\
                   if beta > 1.0 {\n\
                     println!(\"gate at {beta}\");\n\
                     return Err(PolicyError::InvalidThreshold(beta));\n\
                   }\n\
                   Ok(())\n\
                 }\n",
            )],
            POLICY_SRC,
        );
        assert_eq!(out.len(), 2, "{out:#?}");
        assert!(out.iter().all(|f| f.rule == Rule::F002));
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("shell output `println!`"));
        assert_eq!(out[1].line, 4);
        assert!(out[1]
            .message
            .contains("error constructor `PolicyError::InvalidThreshold`"));
        assert!(w.contains_key(&(
            "crates/policy/src/policy.rs".to_owned(),
            3,
            "PCQE-F002".to_owned()
        )));
    }

    #[test]
    fn f001_follows_let_chains_and_source_functions() {
        let manifest = "[[source]]\nkind = \"suppressed\"\nfunctions = [\"withheld_tuples\"]\n\
                        reason = \"the failing side of the gate\"\n";
        let (out, _, _) = run(
            &[(
                "crates/engine/src/database.rs",
                "pub fn report() -> Result<(), EngineError> {\n\
                   let dropped = withheld_tuples();\n\
                   let label = format!(\"lost {dropped:?}\");\n\
                   Err(EngineError::Leak(label))\n\
                 }\n\
                 fn withheld_tuples() -> Vec<u64> { Vec::new() }\n",
            )],
            manifest,
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::F001);
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("suppressed-tuple data"));
        assert!(out[0].message.contains("`label`"));
    }

    #[test]
    fn interprocedural_two_hop_witness_names_every_function() {
        let (out, _, w) = run(
            &[
                (
                    "crates/policy/src/a.rs",
                    "pub fn top(beta: f64) { mid(beta * 2.0); }\n",
                ),
                (
                    "crates/policy/src/b.rs",
                    "pub fn mid(scaled: f64) { leaf(scaled); }\n\
                     fn leaf(v: f64) { panic!(\"bad {v}\"); }\n",
                ),
            ],
            POLICY_SRC,
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::F002);
        assert!(
            out[0]
                .message
                .contains("pcqe_policy::top → pcqe_policy::mid → pcqe_policy::leaf"),
            "witness missing in: {}",
            out[0].message
        );
        let hops = &w[&(
            "crates/policy/src/b.rs".to_owned(),
            2,
            "PCQE-F002".to_owned(),
        )];
        assert_eq!(hops.len(), 3);
        assert_eq!(hops[0].path, "crates/policy/src/a.rs");
        assert_eq!(hops[2].line, 2);
    }

    #[test]
    fn f003_fires_only_on_trace_sinks_and_sanctions_suppress() {
        let manifest = "[[source]]\nkind = \"confidence\"\nnames = [\"confidence\"]\n\
                        reason = \"pre-gate scores\"\n\
                        [[sink]]\nkind = \"trace\"\nfunctions = [\"decision\"]\n\
                        reason = \"tracer method the engine calls\"\n\
                        [[sanction]]\nrule = \"PCQE-F003\"\n\
                        path = \"crates/engine/src/database.rs\"\nsink = \"decision\"\n\
                        reason = \"Decision records are the designed channel (PCQE-F003)\"\n";
        let files = [
            (
                "crates/engine/src/database.rs",
                "pub fn score(t: &Tracer, confidence: f64) {\n\
                   println!(\"c = {confidence}\");\n\
                   t.decision(confidence);\n\
                 }\n",
            ),
            (
                "crates/obs/src/trace.rs",
                "pub struct Tracer;\n\
                 impl Tracer { pub fn decision(&self, c: f64) { let _ = c; } }\n",
            ),
        ];
        let (out, suppressed, _) = run(&files, manifest);
        // The println is not a trace sink, so confidence may pass it;
        // the obs call is sanctioned as the Decision-record channel.
        assert!(out.is_empty(), "{out:#?}");
        assert_eq!(suppressed.len(), 1);
        assert_eq!(suppressed[0].0.rule, Rule::F003);
        assert!(suppressed[0].1.contains("Decision records"));

        // Without the sanction the same flow is a finding.
        let bare = "[[source]]\nkind = \"confidence\"\nnames = [\"confidence\"]\n\
                    reason = \"pre-gate scores\"\n\
                    [[sink]]\nkind = \"trace\"\nfunctions = [\"decision\"]\n\
                    reason = \"tracer method the engine calls\"\n";
        let (out, suppressed, _) = run(&files, bare);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::F003);
        assert!(out[0].message.contains("declared trace sink"));
        assert!(suppressed.is_empty());

        // Undeclared, the method call is not a sink at all: method
        // resolution is too coarse to classify sinks structurally.
        let undeclared = "[[source]]\nkind = \"confidence\"\nnames = [\"confidence\"]\n\
                          reason = \"pre-gate scores\"\n";
        let (out, suppressed, _) = run(&files, undeclared);
        assert!(out.is_empty(), "{out:#?}");
        assert!(suppressed.is_empty());
    }

    #[test]
    fn return_promotion_needs_direct_evidence() {
        // `current_beta` returns a window naming `beta` → hot, so the
        // binding of its result is tainted two files away. `relay`
        // returns a *call to* the hot fn without naming a source — that
        // indirect evidence must NOT promote it, or every `map`/`run`
        // in the workspace ends up hot.
        let (out, _, _) = run(
            &[
                (
                    "crates/policy/src/a.rs",
                    "pub fn current_beta(p: &Policy) -> f64 { p.beta }\n\
                     pub fn relay(p: &Policy) -> f64 { current_beta(p) }\n",
                ),
                (
                    "crates/shell/src/main.rs",
                    "pub fn show(p: &Policy) {\n\
                       let gate = current_beta(p);\n\
                       println!(\"gate {gate}\");\n\
                       let indirect = relay(p);\n\
                       println!(\"indirect {indirect}\");\n\
                     }\n",
                ),
            ],
            POLICY_SRC,
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::F002);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("`gate`"));
    }

    #[test]
    fn display_impl_writes_are_error_sinks() {
        let (out, _, _) = run(
            &[(
                "crates/engine/src/audit.rs",
                "impl std::fmt::Display for AuditEntry {\n\
                   fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
                     write!(f, \"β={threshold}\", threshold = self.threshold)\n\
                   }\n\
                 }\n",
            )],
            POLICY_SRC,
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::F002);
        assert!(out[0].message.contains("`AuditEntry::fmt` output `write!`"));
    }

    #[test]
    fn no_manifest_means_the_layer_is_inert() {
        let graph = graph_of(&[(
            "crates/policy/src/policy.rs",
            "pub fn check(beta: f64) { println!(\"{beta}\"); }\n",
        )]);
        let mut out = Vec::new();
        let mut suppressed = Vec::new();
        let mut witnesses = Witnesses::new();
        dataflow(
            &graph,
            &Spec::default(),
            &mut [],
            &mut out,
            &mut suppressed,
            &mut witnesses,
        );
        assert!(out.is_empty() && suppressed.is_empty() && witnesses.is_empty());
    }
}
