//! Layer 2 of the analyzer: the workspace call graph and the rules that
//! are *reachability* properties rather than token windows. (Layer 3 —
//! the confidentiality dataflow in [`crate::flow`] — runs over the same
//! graph, consuming the per-call argument sets and def-use chains
//! recorded here.)
//!
//! [`CallGraph::build`] links the per-file items from [`crate::item`]
//! into one workspace graph using conservative, name-based resolution:
//!
//! * **bare and path calls** resolve through the file's `use` aliases,
//!   then by `(crate, name)` for free functions and `(Type, name)` for
//!   associated functions (`crate`/`self`/`super` collapse to the
//!   current crate; `std`/`core`/`alloc` paths are external and dropped);
//! * **method calls** (`x.f(…)`) resolve to *every* workspace method
//!   named `f` — the receiver type is unknown at token level, so the
//!   graph over-approximates. Extra edges can only widen reachability,
//!   which is the safe direction for the rules below.
//!
//! The method-call over-approximation is what makes **trait objects**
//! sound here: a call through `&dyn SolverSink` (or any trait) cannot be
//! devirtualized without types, so `sink.emit(…)` gets an edge to *every*
//! workspace method named `emit` — each `impl SolverSink for _` included.
//! Whatever the dynamic dispatch would actually reach is a subset of the
//! edges drawn, so P002/G001 (and the layer-3 taint propagation) never
//! miss a path through dynamic dispatch; the cost is spurious edges
//! between same-named methods of unrelated types, which only ever *add*
//! findings for a human to allowlist, never hide one. This behavior is
//! load-bearing and pinned by the
//! `trait_object_calls_over_approximate_to_every_impl` test below.
//!
//! Two rules run over the graph:
//!
//! * **PCQE-P002** — multi-source BFS from every `pub` function of the
//!   panic-guarded crates; each panic site in a reached function is a
//!   finding, reported *at the site* with the (shortest, deterministic)
//!   witness call path from a public root. In files already under the
//!   token rule P001 only *slice-index* panics are reported — P001
//!   covers the direct constructs there.
//! * **PCQE-G001** — BFS from the `Database` query entry points that
//!   stops at any function calling the policy gate
//!   (`evaluate_results`): a function that constructs [`ReleasedTuple`]s
//!   on a still-ungated path is a finding. The gate dominates everything
//!   below it, so rows built under it are policy-filtered by
//!   construction.
//!
//! [`ReleasedTuple`]: https://en.wikipedia.org/wiki/Access_control

use crate::item::{Bind, CallKind, FileItems, FmtSite, PanicKind};
use crate::rules::{FileClass, Finding, Rule};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Crates whose `pub` functions seed the P002 reachability scan — the
/// query-facing API surface of the engine stack.
const PANIC_ROOT_CRATES: [&str; 4] = ["pcqe_engine", "pcqe_policy", "pcqe_sql", "pcqe_storage"];

/// The policy-filter helper: a function that calls it is a *gate* for
/// rule G001 (the audit/metrics helpers from the observability layer are
/// bumped inside the same function, so this one name anchors all three
/// ledgers).
const POLICY_GATE: &str = "evaluate_results";

/// The row type whose construction means disclosure (rule G001).
const RELEASED_TYPE: &str = "ReleasedTuple";

/// Query entry points: `pub` methods on this type whose names match
/// [`is_entry_name`].
const ENTRY_OWNER: &str = "Database";

/// One function node in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// File the function lives in (`/`-separated, relative).
    pub path: String,
    /// Crate (underscore form).
    pub crate_name: String,
    /// Function name.
    pub name: String,
    /// `impl`/`trait` owner type, if any.
    pub owner: Option<String>,
    /// Unrestricted `pub`.
    pub is_public: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Panic sites in the body.
    pub panics: Vec<crate::item::PanicSite>,
    /// Last segments of every call in the body (gate detection).
    pub calls_names: BTreeSet<String>,
    /// Identifiers mentioned in the body (emitter detection).
    pub mentions: BTreeSet<String>,
    /// Parameter names in declaration order (layer 3: interprocedural
    /// taint hand-off by argument position).
    pub params: Vec<String>,
    /// `let` bindings in source order (layer 3: intraprocedural def-use).
    pub binds: Vec<Bind>,
    /// Formatting-macro sites in source order (layer 3: sink detection).
    pub fmts: Vec<FmtSite>,
    /// Identifiers feeding `return` expressions and the trailing
    /// expression (layer 3: return-value taint).
    pub ret_idents: BTreeSet<String>,
}

impl FnNode {
    /// Render `crate::Owner::name` / `crate::name` for witness paths.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}::{}", self.crate_name, o, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// One call site of a function with its resolved targets, kept in body
/// order for the layer-3 taint hand-off.
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    /// 1-based line of the call.
    pub line: u32,
    /// Bare/path call vs. method call.
    pub kind: CallKind,
    /// Path segments as written (`Type::f` → `["Type", "f"]`), for the
    /// layer-3 structural sink classes (error constructors).
    pub segs: Vec<String>,
    /// Identifiers per top-level argument, format-string captures
    /// included (layer 3: arg-position taint hand-off).
    pub args: Vec<BTreeSet<String>>,
    /// Call-position identifiers per argument ([`CallSite::arg_calls`]).
    pub arg_calls: Vec<BTreeSet<String>>,
    /// Sorted, deduplicated node indexes this call may reach.
    pub targets: Vec<usize>,
}

/// The resolved workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Nodes in deterministic order: files in walk order, functions in
    /// source order.
    pub fns: Vec<FnNode>,
    /// `edges[i]` = sorted, deduplicated callee indexes of `fns[i]`.
    pub edges: Vec<Vec<usize>>,
    /// `calls[i]` = resolved call sites of `fns[i]` in body order.
    pub calls: Vec<Vec<ResolvedCall>>,
}

impl CallGraph {
    /// Link per-file items into one workspace graph.
    pub fn build(files: &[FileItems]) -> CallGraph {
        // --- Nodes -----------------------------------------------------
        let mut fns: Vec<FnNode> = Vec::new();
        for file in files {
            for f in &file.fns {
                fns.push(FnNode {
                    path: file.path.clone(),
                    crate_name: file.crate_name.clone(),
                    name: f.name.clone(),
                    owner: f.owner.clone(),
                    is_public: f.is_public,
                    line: f.line,
                    panics: f.panics.clone(),
                    calls_names: f
                        .calls
                        .iter()
                        .filter_map(|c| c.segs.last().cloned())
                        .collect(),
                    mentions: f.mentions.clone(),
                    params: f.params.clone(),
                    binds: f.binds.clone(),
                    fmts: f.fmts.clone(),
                    ret_idents: f.ret_idents.clone(),
                });
            }
        }

        // --- Resolution indexes ---------------------------------------
        // Free functions by (crate, name); associated functions/methods
        // by (owner type, name) workspace-wide; methods by bare name.
        let mut free: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut assoc: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, n) in fns.iter().enumerate() {
            match &n.owner {
                Some(o) => {
                    assoc
                        .entry((o.clone(), n.name.clone()))
                        .or_default()
                        .push(i);
                    methods.entry(n.name.clone()).or_default().push(i);
                }
                None => free
                    .entry((n.crate_name.clone(), n.name.clone()))
                    .or_default()
                    .push(i),
            }
        }

        // --- Edges -----------------------------------------------------
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut calls: Vec<Vec<ResolvedCall>> = vec![Vec::new(); fns.len()];
        let mut idx = 0usize;
        for file in files {
            let aliases: BTreeMap<&str, &[String]> = file
                .imports
                .iter()
                .map(|u| (u.alias.as_str(), u.segs.as_slice()))
                .collect();
            for f in &file.fns {
                let mut targets: BTreeSet<usize> = BTreeSet::new();
                for call in &f.calls {
                    let mut site: BTreeSet<usize> = BTreeSet::new();
                    match call.kind {
                        CallKind::Method => {
                            if let Some(hits) = methods.get(&call.segs[0]) {
                                site.extend(hits.iter().copied());
                            }
                        }
                        CallKind::Path => resolve_path(
                            &call.segs,
                            &file.crate_name,
                            f.owner.as_deref(),
                            &aliases,
                            &free,
                            &assoc,
                            &mut site,
                        ),
                    }
                    targets.extend(site.iter().copied());
                    calls[idx].push(ResolvedCall {
                        line: call.line,
                        kind: call.kind,
                        segs: call.segs.clone(),
                        args: call.args.clone(),
                        arg_calls: call.arg_calls.clone(),
                        targets: site.into_iter().collect(),
                    });
                }
                edges[idx] = targets.into_iter().collect();
                idx += 1;
            }
        }
        CallGraph { fns, edges, calls }
    }
}

/// Resolve one path call (`f(…)`, `module::f(…)`, `Type::f(…)`) into
/// node indexes, conservatively.
fn resolve_path(
    segs: &[String],
    current_crate: &str,
    enclosing_owner: Option<&str>,
    aliases: &BTreeMap<&str, &[String]>,
    free: &BTreeMap<(String, String), Vec<usize>>,
    assoc: &BTreeMap<(String, String), Vec<usize>>,
    targets: &mut BTreeSet<usize>,
) {
    // Expand the leading segment through the file's `use` aliases:
    // `use pcqe_policy::evaluate_results;` makes the bare call
    // `evaluate_results(…)` a cross-crate call.
    let mut full: Vec<String> = Vec::with_capacity(segs.len() + 2);
    match aliases.get(segs[0].as_str()) {
        Some(expansion) => full.extend(expansion.iter().cloned()),
        None => full.push(segs[0].clone()),
    }
    full.extend(segs[1..].iter().cloned());

    // Strip path anchors; `super` is approximated as "same crate".
    let mut start = 0usize;
    while start < full.len() && matches!(full[start].as_str(), "crate" | "self" | "super") {
        start += 1;
    }
    let full = &full[start..];
    let Some(name) = full.last() else { return };

    // External standard-library paths carry no workspace edge.
    if matches!(
        full.first().map(String::as_str),
        Some("std") | Some("core") | Some("alloc")
    ) {
        return;
    }

    let target_crate = match full.first().map(String::as_str) {
        Some(first) if first.starts_with("pcqe_") => first.to_owned(),
        _ => current_crate.to_owned(),
    };

    if full.len() == 1 {
        // Bare call: a free function of the current crate.
        if let Some(hits) = free.get(&(target_crate, name.clone())) {
            targets.extend(hits.iter().copied());
        }
        return;
    }

    let qualifier = &full[full.len() - 2];
    let is_type = qualifier.chars().next().is_some_and(char::is_uppercase);
    if is_type {
        // `Type::f(…)` / `Self::f(…)`: associated function, resolved
        // workspace-wide by type name (module-blind, conservative).
        let type_name = if qualifier == "Self" {
            match enclosing_owner {
                Some(o) => o.to_owned(),
                None => return,
            }
        } else {
            qualifier.clone()
        };
        if let Some(hits) = assoc.get(&(type_name, name.clone())) {
            targets.extend(hits.iter().copied());
        }
    } else {
        // `module::f(…)`: a free function, module-blind within the
        // target crate.
        if let Some(hits) = free.get(&(target_crate, name.clone())) {
            targets.extend(hits.iter().copied());
        }
    }
}

/// Is a `pub fn` on [`ENTRY_OWNER`] with this name a query entry point?
fn is_entry_name(name: &str) -> bool {
    name == "what_if" || name.starts_with("query")
}

/// Node indexes of the query entry points (`pub` `Database::query*` /
/// `Database::what_if` in the engine crate) — G001's BFS roots.
fn query_entry_roots(graph: &CallGraph) -> Vec<usize> {
    graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, node)| {
            node.crate_name == "pcqe_engine"
                && node.owner.as_deref() == Some(ENTRY_OWNER)
                && node.is_public
                && is_entry_name(&node.name)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Rule P002: panic constructs reachable from guarded public API, with a
/// deterministic shortest witness path per panic site.
pub fn panic_reachability(graph: &CallGraph, out: &mut Vec<Finding>) {
    // Multi-source BFS with predecessor tracking. Roots are seeded in
    // node order and adjacency lists are sorted, so discovery order —
    // and therefore every witness path — is deterministic.
    let n = graph.fns.len();
    let mut pred: Vec<usize> = vec![usize::MAX; n];
    let mut reached = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, node) in graph.fns.iter().enumerate() {
        if node.is_public && PANIC_ROOT_CRATES.contains(&node.crate_name.as_str()) {
            reached[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &graph.edges[u] {
            if !reached[v] {
                reached[v] = true;
                pred[v] = u;
                queue.push_back(v);
            }
        }
    }

    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for (i, node) in graph.fns.iter().enumerate() {
        if !reached[i] || node.panics.is_empty() {
            continue;
        }
        // In P001-guarded files the direct constructs are already flagged
        // at the token layer; P002 adds only the index panics there.
        let p001_here = FileClass::classify(&node.path).p001;
        let witness = witness_path(graph, &pred, i);
        for site in &node.panics {
            if p001_here && site.kind != PanicKind::Index {
                continue;
            }
            if !seen.insert((node.path.clone(), site.line)) {
                continue; // one finding per site line
            }
            out.push(Finding {
                rule: Rule::P002,
                path: node.path.clone(),
                line: site.line,
                message: format!(
                    "{} reachable from guarded public API via {witness}: return a \
                     typed error on this path (or allowlist a provably in-bounds site)",
                    site.kind.describe()
                ),
            });
        }
    }
}

/// Render the BFS witness chain `root → … → node`.
fn witness_path(graph: &CallGraph, pred: &[usize], mut i: usize) -> String {
    let mut chain = vec![graph.fns[i].qualified()];
    while pred[i] != usize::MAX {
        i = pred[i];
        chain.push(graph.fns[i].qualified());
    }
    chain.reverse();
    chain.join(" → ")
}

/// Rule G001: every call path from a query entry point to a function
/// that constructs `ReleasedTuple`s must pass through the policy gate.
pub fn policy_gating(graph: &CallGraph, out: &mut Vec<Finding>) {
    let gated: Vec<bool> = graph
        .fns
        .iter()
        .map(|f| f.calls_names.contains(POLICY_GATE))
        .collect();
    let n = graph.fns.len();
    let mut pred: Vec<usize> = vec![usize::MAX; n];
    let mut reached = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for i in query_entry_roots(graph) {
        reached[i] = true;
        queue.push_back(i);
    }
    while let Some(u) = queue.pop_front() {
        if gated[u] {
            continue; // the gate dominates everything below it
        }
        for &v in &graph.edges[u] {
            if !reached[v] {
                reached[v] = true;
                pred[v] = u;
                queue.push_back(v);
            }
        }
    }

    for (i, node) in graph.fns.iter().enumerate() {
        if reached[i] && !gated[i] && node.mentions.contains(RELEASED_TYPE) {
            let witness = witness_path(graph, &pred, i);
            out.push(Finding {
                rule: Rule::G001,
                path: node.path.clone(),
                line: node.line,
                message: format!(
                    "fn `{}` constructs `{RELEASED_TYPE}` on an ungated path from a \
                     query entry point ({witness}); rows may only be released below \
                     `{POLICY_GATE}`",
                    node.qualified()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::collect;
    use crate::lexer::lex;
    use crate::rules::test_region_mask;

    fn file(path: &str, src: &str) -> FileItems {
        let toks = lex(src);
        let mask = test_region_mask(&toks);
        collect(path, &toks, &mask)
    }

    fn find(graph: &CallGraph, name: &str) -> usize {
        graph.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn resolves_bare_path_alias_and_method_calls() {
        let files = vec![
            file(
                "crates/engine/src/api.rs",
                "use pcqe_core::pick;\n\
                 pub fn run() { step(); pick(); pcqe_core::other(); Planner::new(); }\n\
                 fn step() {}\n\
                 pub struct Planner;\n\
                 impl Planner { pub fn new() {} pub fn go(&self) {} }\n\
                 fn uses_method(p: &Planner) { p.go(); }\n",
            ),
            file(
                "crates/core/src/solve.rs",
                "pub fn pick() {}\npub fn other() {}\n",
            ),
        ];
        let g = CallGraph::build(&files);
        let run = find(&g, "run");
        let callees: Vec<&str> = g.edges[run]
            .iter()
            .map(|&i| g.fns[i].name.as_str())
            .collect();
        assert_eq!(callees, vec!["step", "new", "pick", "other"]);
        let um = find(&g, "uses_method");
        let callees: Vec<&str> = g.edges[um]
            .iter()
            .map(|&i| g.fns[i].name.as_str())
            .collect();
        assert_eq!(callees, vec!["go"]);
    }

    #[test]
    fn p002_reports_two_hop_panic_with_witness() {
        let files = vec![
            file(
                "crates/engine/src/api.rs",
                "pub fn run(x: Option<u32>) -> u32 { step(x) }\n\
                 fn step(x: Option<u32>) -> u32 { pcqe_core::pick(x) }\n",
            ),
            file(
                "crates/core/src/solve.rs",
                "pub fn pick(x: Option<u32>) -> u32 { x.unwrap() }\n\
                 pub fn unreachable_panic() { panic!(\"not called\"); }\n",
            ),
        ];
        let g = CallGraph::build(&files);
        let mut out = Vec::new();
        panic_reachability(&g, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        let f = &out[0];
        assert_eq!(f.rule, Rule::P002);
        assert_eq!(f.path, "crates/core/src/solve.rs");
        assert_eq!(f.line, 1);
        assert!(
            f.message
                .contains("pcqe_engine::run → pcqe_engine::step → pcqe_core::pick"),
            "witness missing in: {}",
            f.message
        );
    }

    #[test]
    fn p002_reports_only_index_panics_in_p001_guarded_files() {
        let files = vec![file(
            "crates/engine/src/api.rs",
            "pub fn run(v: &[u32], x: Option<u32>) -> u32 { x.unwrap() + v[0] }\n",
        )];
        let g = CallGraph::build(&files);
        let mut out = Vec::new();
        panic_reachability(&g, &mut out);
        // The unwrap is P001's job there; the index is P002's.
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("slice/array index"));
    }

    #[test]
    fn g001_flags_ungated_release_and_passes_gated() {
        let bad = vec![file(
            "crates/engine/src/database.rs",
            "pub struct Database;\n\
             impl Database {\n\
               pub fn query(&self) -> usize { release_all() }\n\
             }\n\
             fn release_all() -> usize { let t = ReleasedTuple { id: 1 }; t.id }\n",
        )];
        let g = CallGraph::build(&bad);
        let mut out = Vec::new();
        policy_gating(&g, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::G001);
        assert_eq!(out[0].line, 5);
        assert!(out[0]
            .message
            .contains("Database::query → pcqe_engine::release_all"));

        let good = vec![file(
            "crates/engine/src/database.rs",
            "use pcqe_policy::evaluate_results;\n\
             pub struct Database;\n\
             impl Database {\n\
               pub fn query(&self) -> usize {\n\
                 let keep = evaluate_results();\n\
                 let t = ReleasedTuple { id: keep };\n\
                 t.id\n\
               }\n\
             }\n",
        )];
        let g = CallGraph::build(&good);
        let mut out = Vec::new();
        policy_gating(&g, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn trait_object_calls_over_approximate_to_every_impl() {
        // A call through `&dyn SolverSink` cannot be devirtualized at
        // token level: `sink.emit(…)` must edge to EVERY workspace
        // method named `emit`, so dynamic dispatch can never hide a
        // panic or an ungated release from the reachability rules.
        let files = vec![
            file(
                "crates/core/src/sink.rs",
                "pub trait SolverSink { fn emit(&mut self, v: u64); }\n\
                 pub fn drive(sink: &mut dyn SolverSink) { sink.emit(1); }\n",
            ),
            file(
                "crates/engine/src/collect.rs",
                "pub struct VecSink { rows: Vec<u64> }\n\
                 impl SolverSink for VecSink { fn emit(&mut self, v: u64) { self.rows.push(v); } }\n",
            ),
            file(
                "crates/obs/src/count.rs",
                "pub struct CountSink { n: u64 }\n\
                 impl SolverSink for CountSink { fn emit(&mut self, _v: u64) { self.n += 1; } }\n",
            ),
        ];
        let g = CallGraph::build(&files);
        let drive = find(&g, "drive");
        let callees: Vec<String> = g.edges[drive]
            .iter()
            .map(|&i| g.fns[i].qualified())
            .collect();
        // Every impl's `emit`, across crates, in deterministic node
        // order (the bodyless trait declaration itself is not a node).
        assert_eq!(
            callees,
            vec!["pcqe_engine::VecSink::emit", "pcqe_obs::CountSink::emit"],
            "trait-object dispatch must over-approximate to every impl"
        );
        // The per-call resolution carries the same target set, so
        // layer 3 sees the call as potentially reaching every impl too.
        assert_eq!(g.calls[drive].len(), 1);
        assert_eq!(g.calls[drive][0].kind, CallKind::Method);
        assert_eq!(g.calls[drive][0].targets, g.edges[drive]);
    }

    #[test]
    fn determinism_identical_graphs_across_builds() {
        let files = vec![
            file(
                "crates/engine/src/a.rs",
                "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
            ),
            file("crates/engine/src/b.rs", "pub fn d() { b(); }\n"),
        ];
        let g1 = CallGraph::build(&files);
        let g2 = CallGraph::build(&files);
        assert_eq!(g1.edges, g2.edges);
        let mut o1 = Vec::new();
        let mut o2 = Vec::new();
        panic_reachability(&g1, &mut o1);
        panic_reachability(&g2, &mut o2);
        assert_eq!(o1, o2);
    }
}
