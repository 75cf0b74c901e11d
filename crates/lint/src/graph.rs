//! Layer 2 of the analyzer: the workspace call graph and the rule that
//! is a *reachability* property rather than a token window. (Layer 3 —
//! the confidentiality dataflow in [`crate::flow`] — runs over the same
//! graph, consuming the per-call argument sets and def-use chains the
//! item parser recorded on each node.)
//!
//! [`CallGraph::build`] links the per-file items from [`crate::item`]
//! into one workspace graph — its nodes are those [`FnItem`]s, each call
//! site filled in with the nodes it may reach — using conservative,
//! name-based resolution:
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
//! sound here: a call through `&dyn Observer` (or any trait) cannot be
//! devirtualized without types, so `observer.span_begin(…)` gets an edge
//! to *every* workspace method named `span_begin` — each
//! `impl Observer for _` included.
//! Whatever the dynamic dispatch would actually reach is a subset of the
//! edges drawn, so G001 (and the layer-3 taint propagation) never miss a
//! path through dynamic dispatch; the cost is spurious edges between
//! same-named methods of unrelated types, which only ever *add* findings
//! for a human to review, never hide one. This behavior is load-bearing
//! and pinned by the `trait_object_calls_over_approximate_to_every_impl`
//! test below.
//!
//! One rule runs over the graph: **PCQE-G001** — BFS from the `Database`
//! query entry points that stops at any function calling the policy gate
//! (`evaluate_results`): a function that constructs `ReleasedTuple`s on a
//! still-ungated path is a finding. The gate dominates everything below
//! it, so rows built under it are policy-filtered by construction. (Index
//! panics, PCQE-P002, need no graph: every index site in production code
//! is a finding, see [`crate::rules::check_indexes`].)

use crate::item::{CallKind, FileItems, FnItem};
use crate::rules::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

/// The resolved workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Nodes in deterministic order: files in walk order, functions in
    /// source order. Every call site's `targets` is resolved.
    pub fns: Vec<FnItem>,
    /// `edges[i]` = sorted, deduplicated callee indexes of `fns[i]`.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Link per-file items into one workspace graph.
    pub fn build(files: Vec<FileItems>) -> CallGraph {
        // --- Nodes -----------------------------------------------------
        // Each node remembers which file's `use` aliases resolve its calls.
        let mut fns: Vec<FnItem> = Vec::new();
        let mut scope: Vec<usize> = Vec::new();
        let mut imports = Vec::new();
        for (k, file) in files.into_iter().enumerate() {
            imports.push(file.imports);
            scope.extend(std::iter::repeat_n(k, file.fns.len()));
            fns.extend(file.fns);
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
        let aliases: Vec<BTreeMap<&str, &[String]>> = imports
            .iter()
            .map(|uses| {
                uses.iter()
                    .map(|u| (u.alias.as_str(), u.segs.as_slice()))
                    .collect()
            })
            .collect();
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        for (f, &k) in fns.iter_mut().zip(&scope) {
            let mut targets: BTreeSet<usize> = BTreeSet::new();
            for call in &mut f.calls {
                let mut site: BTreeSet<usize> = BTreeSet::new();
                match call.kind {
                    CallKind::Method => {
                        if let Some(hits) = methods.get(&call.segs[0]) {
                            site.extend(hits.iter().copied());
                        }
                    }
                    CallKind::Path => resolve_path(
                        &call.segs,
                        &f.crate_name,
                        f.owner.as_deref(),
                        &aliases[k],
                        &free,
                        &assoc,
                        &mut site,
                    ),
                }
                targets.extend(site.iter().copied());
                call.targets = site.into_iter().collect();
            }
            edges.push(targets.into_iter().collect());
        }
        CallGraph { fns, edges }
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

/// Multi-source BFS from `roots` that does not expand past a node where
/// `stop` holds: which nodes it reached, and each reached node's BFS
/// predecessor (`None` for a root). Roots are seeded in the order given
/// and adjacency lists are sorted, so discovery order — and therefore
/// every witness path — is deterministic.
fn reach(
    graph: &CallGraph,
    roots: impl IntoIterator<Item = usize>,
    stop: impl Fn(usize) -> bool,
) -> (Vec<bool>, Vec<Option<usize>>) {
    let n = graph.fns.len();
    let (mut reached, mut pred) = (vec![false; n], vec![None; n]);
    let mut queue: VecDeque<usize> = VecDeque::new();
    for i in roots {
        reached[i] = true;
        queue.push_back(i);
    }
    while let Some(u) = queue.pop_front() {
        if stop(u) {
            continue;
        }
        for &v in &graph.edges[u] {
            if !reached[v] {
                reached[v] = true;
                pred[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (reached, pred)
}

/// Render the witness chain `origin → … → node` by following `pred` back
/// from node `i` (stopping, defensively, at a node already on the chain).
/// Shared by G001 and the dataflow layer.
pub(crate) fn witness(graph: &CallGraph, pred: &[Option<usize>], mut i: usize) -> String {
    let mut chain = vec![graph.fns[i].qualified()];
    let mut visited = BTreeSet::from([i]);
    while let Some(p) = pred[i].filter(|&p| visited.insert(p)) {
        chain.push(graph.fns[p].qualified());
        i = p;
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
        .map(|f| {
            f.calls
                .iter()
                .any(|c| c.segs.last().is_some_and(|s| s == POLICY_GATE))
        })
        .collect();
    // The gate dominates everything below it: the search stops there.
    let (reached, pred) = reach(graph, query_entry_roots(graph), |u| gated[u]);

    for (i, node) in graph.fns.iter().enumerate() {
        if reached[i] && !gated[i] && node.mentions.contains(RELEASED_TYPE) {
            let witness = witness(graph, &pred, i);
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
        let g = CallGraph::build(files);
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
    fn g001_flags_ungated_release_and_passes_gated() {
        let bad = vec![file(
            "crates/engine/src/database.rs",
            "pub struct Database;\n\
             impl Database {\n\
               pub fn query(&self) -> usize { release_all() }\n\
             }\n\
             fn release_all() -> usize { let t = ReleasedTuple { id: 1 }; t.id }\n",
        )];
        let g = CallGraph::build(bad);
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
        let g = CallGraph::build(good);
        let mut out = Vec::new();
        policy_gating(&g, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn trait_object_calls_over_approximate_to_every_impl() {
        // A call through a trait object cannot be devirtualized at
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
        let g = CallGraph::build(files);
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
        assert_eq!(g.fns[drive].calls.len(), 1);
        assert_eq!(g.fns[drive].calls[0].kind, CallKind::Method);
        assert_eq!(g.fns[drive].calls[0].targets, g.edges[drive]);
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
        let g1 = CallGraph::build(files.clone());
        let g2 = CallGraph::build(files);
        assert_eq!(g1.edges, g2.edges);
        let mut o1 = Vec::new();
        let mut o2 = Vec::new();
        policy_gating(&g1, &mut o1);
        policy_gating(&g2, &mut o2);
        assert_eq!(o1, o2);
    }
}
