//! Layer 3 of the analyzer: concurrency-soundness rules over the
//! workspace call graph.
//!
//! Where layer 1 asks *"may this crate use synchronization at all?"*
//! (capability grants, rules C002/A003), this layer asks *"is
//! the synchronization it does use compatible with deterministic,
//! bit-identical results?"* Three analyses run over the
//! [`CallGraph`](crate::graph::CallGraph), all conservative in the same
//! direction as P002/G001 — name-based resolution can only *add* edges,
//! so a clean verdict is trustworthy and a finding is a site for a human
//! to either fix or allowlist with a reason:
//!
//! * **PCQE-C003 — lock-order cycles.** Every lock-acquisition site
//!   ([`LockSite`](crate::item::LockSite)) contributes to a lock-order
//!   graph: lock `B` acquired (directly, or anywhere down the call
//!   graph) after lock `A` in the same body draws the edge `A → B`. An
//!   edge on a cycle is a deadlock risk, reported with a deterministic
//!   witness: the call path from the holder to the second acquisition
//!   plus both lock sites. Locks are identified by receiver *name*
//!   (global, type-blind) — aliasing merges distinct locks into one
//!   node, which only adds edges, never hides a cycle. There is no
//!   release tracking: a guard is assumed held from its acquisition to
//!   the end of the body (drops and scopes would need type information),
//!   again the over-approximating direction.
//! * **PCQE-C004 — lock held across a result-affecting boundary.** A
//!   *path* call (`pcqe_engine::step(…)`, not `.push(…)`) into another
//!   crate's result-affecting code while a lock may be held couples
//!   solver latency to lock hold time and invites order-dependent
//!   timing. Method calls are deliberately excluded here: the
//!   every-same-named-method over-approximation would flag every
//!   `.push` under a lock, drowning the signal (C003 keeps method
//!   resolution because a spurious *lock-order* edge still needs a
//!   second real lock to fire).
//! * **PCQE-C005 — shared-state escape.** A `pub fn` returning
//!   `Arc`-wrapped interior mutability, or an interior-mutable
//!   `static`, inside a capability-granted crate is a *provider*; a
//!   function in the result-affecting set of a *different*, ungranted
//!   crate that calls the provider (or names the static) imports shared
//!   mutable state across the containment boundary the manifest was
//!   supposed to draw.
//! * **PCQE-C006 — weakly-ordered reads on the release path.** A
//!   function reachable from the `Database` query entry points that
//!   both constructs `ReleasedTuple`s and performs a
//!   `Ordering::Relaxed`/`Acquire` atomic load lets a racy read feed
//!   released rows — the bit-identity contract needs `SeqCst` (or the
//!   read hoisted off the release path). Reuses the G001 entry-point
//!   roots, but runs the BFS *through* the policy gate: gating filters
//!   rows, it does not serialize memory.

use crate::graph::{query_entry_roots, witness_path, CallGraph, RELEASED_TYPE};
use crate::item::CallKind;
use crate::rules::{is_result_affecting, Finding, Rule};
use crate::spec::{Cap, Spec};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Deterministic witness for one lock-order edge `from → to`.
struct EdgeWitness {
    /// Call chain from the holder to the second acquisition.
    fn_path: String,
    /// `(path, line)` of the `from` lock's acquisition site.
    from_site: (String, u32),
    /// `(path, line)` of the `to` lock's acquisition site.
    to_site: (String, u32),
}

/// Rules C003 and C004: build the lock-order graph and flag cyclic
/// edges and locks held across result-affecting crate boundaries.
pub fn lock_order(graph: &CallGraph, out: &mut Vec<Finding>) {
    let n = graph.fns.len();

    // Reverse call edges, for the per-lock "can this fn reach an
    // acquisition?" sweeps below.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, outs) in graph.edges.iter().enumerate() {
        for &v in outs {
            rev[v].push(u);
        }
    }

    // Every distinct lock name, in deterministic order.
    let lock_names: BTreeSet<&str> = graph
        .fns
        .iter()
        .flat_map(|f| f.locks.iter().map(|l| l.name.as_str()))
        .collect();

    // For each lock name: which fns may acquire it (directly or via a
    // callee), and a `next` pointer toward the acquiring fn so witness
    // paths are reconstructible. Seeded in node order over sorted
    // reverse-adjacency, so the pointers are deterministic.
    let mut may_acquire: BTreeMap<&str, (Vec<bool>, Vec<usize>)> = BTreeMap::new();
    for &name in &lock_names {
        let mut reach = vec![false; n];
        let mut next = vec![usize::MAX; n];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (i, node) in graph.fns.iter().enumerate() {
            if node.locks.iter().any(|l| l.name == name) {
                reach[i] = true;
                queue.push_back(i);
            }
        }
        while let Some(v) = queue.pop_front() {
            for &u in &rev[v] {
                if !reach[u] {
                    reach[u] = true;
                    next[u] = v;
                    queue.push_back(u);
                }
            }
        }
        may_acquire.insert(name, (reach, next));
    }

    // --- Build the lock-order edges, first witness wins ---------------
    let mut order: BTreeMap<(String, String), EdgeWitness> = BTreeMap::new();
    let mut held_across: BTreeSet<(String, u32, String, String)> = BTreeSet::new();
    for (i, node) in graph.fns.iter().enumerate() {
        for a in &node.locks {
            // Direct: a second acquisition later in the same body.
            for b in &node.locks {
                if b.pos > a.pos {
                    order
                        .entry((a.name.clone(), b.name.clone()))
                        .or_insert_with(|| EdgeWitness {
                            fn_path: node.qualified(),
                            from_site: (node.path.clone(), a.line),
                            to_site: (node.path.clone(), b.line),
                        });
                }
            }
            // Interprocedural: a call after the acquisition whose target
            // may (transitively) acquire another lock.
            for call in &graph.calls[i] {
                if call.pos <= a.pos {
                    continue;
                }
                for &t in &call.targets {
                    for &name in &lock_names {
                        let (reach, next) = &may_acquire[name];
                        if !reach[t] {
                            continue;
                        }
                        order
                            .entry((a.name.clone(), name.to_owned()))
                            .or_insert_with(|| {
                                // Walk the `next` chain to the acquiring fn.
                                let mut chain = vec![node.qualified()];
                                let mut cur = t;
                                chain.push(graph.fns[cur].qualified());
                                while next[cur] != usize::MAX {
                                    cur = next[cur];
                                    chain.push(graph.fns[cur].qualified());
                                }
                                let site = graph.fns[cur]
                                    .locks
                                    .iter()
                                    .find(|l| l.name == name)
                                    .expect("chain ends at a direct acquirer");
                                EdgeWitness {
                                    fn_path: chain.join(" → "),
                                    from_site: (node.path.clone(), a.line),
                                    to_site: (graph.fns[cur].path.clone(), site.line),
                                }
                            });
                    }
                    // C004: the same "call while held" sweep, for path
                    // calls into another crate's result-affecting code.
                    if call.kind == CallKind::Path {
                        let target = &graph.fns[t];
                        if target.crate_name != node.crate_name
                            && is_result_affecting(&target.path)
                            && held_across.insert((
                                node.path.clone(),
                                call.line,
                                a.name.clone(),
                                target.crate_name.clone(),
                            ))
                        {
                            out.push(Finding {
                                rule: Rule::C004,
                                path: node.path.clone(),
                                line: call.line,
                                message: format!(
                                    "`{}` calls result-affecting `{}` while lock `{}` \
                                     (taken at line {}) may still be held: drop the guard \
                                     before crossing the crate boundary, or move the work \
                                     out of the critical section",
                                    node.qualified(),
                                    target.qualified(),
                                    a.name,
                                    a.line
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    // --- Cycle detection: an edge is a deadlock risk iff its head can
    // reach its tail back through the lock-order graph. ---------------
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in order.keys() {
        adj.entry(from.as_str()).or_default().insert(to.as_str());
    }
    for ((from, to), wit) in &order {
        let cyclic = from == to || reaches(&adj, to, from);
        if !cyclic {
            continue;
        }
        let message = if from == to {
            format!(
                "lock `{from}` re-acquired while already held ({}; first taken at {}:{}): \
                 `std::sync` locks are not reentrant — this self-deadlocks",
                wit.fn_path, wit.from_site.0, wit.from_site.1
            )
        } else {
            format!(
                "lock `{to}` acquired while `{from}` is held ({}; `{from}` at {}:{}, \
                 `{to}` at {}:{}), and the reverse order also occurs — a lock-order \
                 cycle `{from} → {to} → … → {from}`: impose one global acquisition order",
                wit.fn_path, wit.from_site.0, wit.from_site.1, wit.to_site.0, wit.to_site.1
            )
        };
        out.push(Finding {
            rule: Rule::C003,
            path: wit.to_site.0.clone(),
            line: wit.to_site.1,
            message,
        });
    }
}

/// Can `from` reach `to` in the lock-order graph?
fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    seen.insert(from);
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        if u == to {
            return true;
        }
        if let Some(outs) = adj.get(u) {
            for &v in outs {
                if seen.insert(v) {
                    queue.push_back(v);
                }
            }
        }
    }
    false
}

/// Rule C005: interior-mutable shared state escaping a
/// capability-granted crate into the result-affecting set.
pub fn escapes(graph: &CallGraph, caps: &Spec, out: &mut Vec<Finding>) {
    // Providers: public fns handing out `Arc`-shared interior
    // mutability, and interior-mutable statics — in granted files only
    // (ungranted uses are already C002 at the token layer).
    let providers: BTreeMap<usize, Cap> = graph
        .fns
        .iter()
        .enumerate()
        .filter_map(|(i, f)| {
            let cap = f.ret_carries?;
            (f.is_public && caps.grant_for(&f.path, cap).is_some()).then_some((i, cap))
        })
        .collect();
    let statics: Vec<usize> = graph
        .statics
        .iter()
        .enumerate()
        .filter(|(_, s)| caps.grant_for(&s.path, s.carries).is_some())
        .map(|(i, _)| i)
        .collect();

    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for (i, node) in graph.fns.iter().enumerate() {
        if !is_result_affecting(&node.path) {
            continue;
        }
        // Calls into a provider: report at the call site.
        for call in &graph.calls[i] {
            for &t in &call.targets {
                let Some(&cap) = providers.get(&t) else {
                    continue;
                };
                let p = &graph.fns[t];
                if p.crate_name == node.crate_name
                    || caps.grant_for(&node.path, cap).is_some()
                    || !seen.insert((node.path.clone(), call.line, p.name.clone()))
                {
                    continue;
                }
                out.push(Finding {
                    rule: Rule::C005,
                    path: node.path.clone(),
                    line: call.line,
                    message: format!(
                        "`{}` obtains `Arc`-shared interior-mutable state ({}) from \
                         `{}`: shared state must not escape capability-granted \
                         `{}` into the result-affecting set — pass an immutable \
                         snapshot across the boundary instead",
                        node.qualified(),
                        cap.label(),
                        p.qualified(),
                        p.crate_name
                    ),
                });
            }
        }
        // Mentions of an escaping static: report at the fn.
        for &si in &statics {
            let s = &graph.statics[si];
            if s.crate_name == node.crate_name
                || caps.grant_for(&node.path, s.carries).is_some()
                || !node.mentions.contains(&s.name)
                || !seen.insert((node.path.clone(), node.line, s.name.clone()))
            {
                continue;
            }
            out.push(Finding {
                rule: Rule::C005,
                path: node.path.clone(),
                line: node.line,
                message: format!(
                    "`{}` touches interior-mutable static `{}` ({}, declared at {}:{}): \
                     shared state must not escape capability-granted `{}` into the \
                     result-affecting set",
                    node.qualified(),
                    s.name,
                    s.carries.label(),
                    s.path,
                    s.line,
                    s.crate_name,
                ),
            });
        }
    }
}

/// Rule C006: weakly-ordered atomic loads in functions that construct
/// `ReleasedTuple`s on a query path. Unlike G001 the BFS does *not*
/// stop at the policy gate — gating filters rows, it does not serialize
/// memory, so a racy read below the gate still breaks bit-identity.
pub fn relaxed_reads(graph: &CallGraph, out: &mut Vec<Finding>) {
    let n = graph.fns.len();
    let mut pred: Vec<usize> = vec![usize::MAX; n];
    let mut reached = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for i in query_entry_roots(graph) {
        reached[i] = true;
        queue.push_back(i);
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

    for (i, node) in graph.fns.iter().enumerate() {
        if !reached[i] || node.loads.is_empty() || !node.mentions.contains(RELEASED_TYPE) {
            continue;
        }
        let witness = witness_path(graph, &pred, i);
        for load in &node.loads {
            out.push(Finding {
                rule: Rule::C006,
                path: node.path.clone(),
                line: load.line,
                message: format!(
                    "`Ordering::{}` atomic load feeds a `{RELEASED_TYPE}` construction \
                     on the query path ({witness}): use `SeqCst` — or hoist the read off \
                     the release path — to keep released rows bit-identical",
                    load.ordering
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::collect;
    use crate::item::FileItems;
    use crate::lexer::lex;
    use crate::rules::test_region_mask;

    fn file(path: &str, src: &str) -> FileItems {
        let toks = lex(src);
        let mask = test_region_mask(&toks);
        collect(path, &toks, &mask)
    }

    fn rules_of(out: &[Finding]) -> Vec<Rule> {
        out.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn c003_two_lock_cycle_reported_with_witness_both_directions() {
        let files = vec![file(
            "crates/par/src/cycle.rs",
            "pub fn ab(left: &std::sync::Mutex<u32>, right: &std::sync::Mutex<u32>) {\n\
               let l = left.lock();\n\
               let r = right.lock();\n\
             }\n\
             pub fn ba(left: &std::sync::Mutex<u32>, right: &std::sync::Mutex<u32>) {\n\
               let r = right.lock();\n\
               let l = left.lock();\n\
             }\n",
        )];
        let g = CallGraph::build(&files);
        let mut out = Vec::new();
        lock_order(&g, &mut out);
        assert_eq!(rules_of(&out), vec![Rule::C003, Rule::C003], "{out:#?}");
        // Edge left→right witnessed in `ab`, right→left in `ba` — and
        // witnesses name the fn and both sites.
        assert!(out.iter().any(|f| f.line == 3
            && f.message.contains("pcqe_par::ab")
            && f.message.contains("`left` at crates/par/src/cycle.rs:2")));
        assert!(out.iter().any(|f| f.line == 7
            && f.message.contains("pcqe_par::ba")
            && f.message.contains("`right` at crates/par/src/cycle.rs:6")));
    }

    #[test]
    fn c003_interprocedural_cycle_and_clean_hierarchy() {
        // `outer_then_inner` holds `left` and calls a helper that takes
        // `right`; another fn does the reverse — a cycle through one
        // call edge. The hierarchical twin always takes `outer` before
        // `inner` and stays clean.
        let cyclic = vec![file(
            "crates/par/src/cycle.rs",
            "pub fn a(left: &M, right: &M) { let g = left.lock(); take_right(right); }\n\
             fn take_right(right: &M) { let g = right.lock(); }\n\
             pub fn b(left: &M, right: &M) { let g = right.lock(); let h = left.lock(); }\n",
        )];
        let g = CallGraph::build(&cyclic);
        let mut out = Vec::new();
        lock_order(&g, &mut out);
        assert_eq!(rules_of(&out), vec![Rule::C003, Rule::C003], "{out:#?}");
        assert!(
            out.iter()
                .any(|f| f.message.contains("pcqe_par::a → pcqe_par::take_right")),
            "interprocedural witness missing: {out:#?}"
        );

        let clean = vec![file(
            "crates/par/src/hier.rs",
            "pub fn a(outer: &M, inner: &M) { let g = outer.lock(); let h = inner.lock(); }\n\
             pub fn b(outer: &M, inner: &M) { let g = outer.lock(); let h = inner.lock(); }\n",
        )];
        let g = CallGraph::build(&clean);
        let mut out = Vec::new();
        lock_order(&g, &mut out);
        assert!(out.is_empty(), "hierarchical order is acyclic: {out:#?}");
    }

    #[test]
    fn c003_self_reacquire_is_a_self_deadlock() {
        let files = vec![file(
            "crates/par/src/re.rs",
            "pub fn twice(m: &std::sync::Mutex<u32>) { let a = m.lock(); let b = m.lock(); }\n",
        )];
        let g = CallGraph::build(&files);
        let mut out = Vec::new();
        lock_order(&g, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::C003);
        assert!(out[0].message.contains("re-acquired while already held"));
    }

    #[test]
    fn c004_path_call_into_result_affecting_crate_while_held() {
        let files = vec![
            file(
                "crates/par/src/held.rs",
                "pub fn bad(m: &M) { let g = m.lock(); pcqe_engine::step(); }\n\
                 pub fn fine(m: &M) { pcqe_engine::step(); let g = m.lock(); }\n",
            ),
            file("crates/engine/src/api.rs", "pub fn step() {}\n"),
        ];
        let g = CallGraph::build(&files);
        let mut out = Vec::new();
        lock_order(&g, &mut out);
        let c004: Vec<&Finding> = out.iter().filter(|f| f.rule == Rule::C004).collect();
        assert_eq!(c004.len(), 1, "{out:#?}");
        assert_eq!(c004[0].path, "crates/par/src/held.rs");
        assert_eq!(c004[0].line, 1);
        assert!(c004[0].message.contains("pcqe_engine::step"));
        assert!(c004[0].message.contains("lock `m`"));
    }

    #[test]
    fn c005_arc_provider_and_static_escape_into_result_set() {
        let files = vec![
            file(
                "crates/par/src/share.rs",
                "pub static SHARED: Mutex<u64> = Mutex::new(0);\n\
                 pub fn handle() -> Arc<Mutex<Vec<u64>>> { todo() }\n",
            ),
            file(
                "crates/engine/src/api.rs",
                "pub fn grab() { let h = pcqe_par::handle(); }\n\
                 pub fn poke() { let v = SHARED; }\n",
            ),
        ];
        let grants = |text: &str| crate::spec::parse(text, "f").unwrap();
        let par = "[[grant]]\ncrate = \"pcqe-par\"\ncapabilities = [\"locks\"]\nreason = \"r\"\n";
        let engine =
            "[[grant]]\ncrate = \"pcqe-engine\"\ncapabilities = [\"locks\"]\nreason = \"r\"\n";
        let caps = grants(par);
        let g = CallGraph::build(&files);
        let mut out = Vec::new();
        escapes(&g, &caps, &mut out);
        assert_eq!(rules_of(&out), vec![Rule::C005, Rule::C005], "{out:#?}");
        assert!(out.iter().any(|f| f.line == 1
            && f.message.contains("pcqe_par::handle")
            && f.message.contains("locks")));
        assert!(out
            .iter()
            .any(|f| f.line == 2 && f.message.contains("static `SHARED`")));

        // The same consumers inside a granted crate are fine.
        let wide = grants(&format!("{par}{engine}"));
        let mut out = Vec::new();
        escapes(&g, &wide, &mut out);
        assert!(out.is_empty(), "granted consumer is allowed: {out:#?}");
    }

    #[test]
    fn c006_relaxed_load_feeding_released_tuple_on_query_path() {
        let files = vec![file(
            "crates/engine/src/database.rs",
            "pub struct Database;\n\
             impl Database {\n\
               pub fn query(&self) -> u64 { emit() }\n\
             }\n\
             fn emit() -> u64 {\n\
               let seq = FLAG.load(Ordering::Relaxed);\n\
               let t = ReleasedTuple { id: seq };\n\
               t.id\n\
             }\n\
             fn off_path() -> u64 { FLAG.load(Ordering::Relaxed) }\n",
        )];
        let g = CallGraph::build(&files);
        let mut out = Vec::new();
        relaxed_reads(&g, &mut out);
        // Only `emit` fires: `off_path` is unreachable from the entry
        // points, and reachable fns without ReleasedTuple are exempt.
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::C006);
        assert_eq!(out[0].line, 6);
        assert!(out[0]
            .message
            .contains("Database::query → pcqe_engine::emit"));
        assert!(out[0].message.contains("Ordering::Relaxed"));
    }
}
