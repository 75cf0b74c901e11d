//! Query-scoped confidence cache: a hash-consed circuit pool with
//! memoized, incrementally-invalidated subcircuit probabilities.
//!
//! The strategy-finding workloads of the paper (Fig. 11) evaluate the same
//! result confidences over and over with *one* base-tuple probability
//! nudged per probe. The plain pipeline re-runs Shannon expansion per
//! evaluation; [`CircuitCache`] instead:
//!
//! 1. **Hash-conses** compiled arithmetic nodes into a canonical pool:
//!    structurally equal subcircuits — across results of one query, and
//!    across the hi/lo cofactors of one expansion — become a single node,
//!    found via a structural [`BTreeMap`] key and addressed by a
//!    deterministic, insertion-ordered id. A node *is* its key (an
//!    operator over child ids) plus a memo and reverse edges; there is no
//!    second representation beside it. A `Var` leaf is found through its
//!    variable's slot in the [`VarTable`] instead: one indexed read per
//!    leaf of every row, not a map search.
//! 2. **Memoizes compilation** per (sub)formula, so the second result that
//!    contains an already-compiled subformula pays a map lookup instead of
//!    a fresh expansion.
//! 3. **Memoizes evaluation** per node under the cache's current
//!    probability assignment. [`CircuitCache::set_prob`] compares bit
//!    patterns and, only on a real change, walks reverse edges from the
//!    variable's reader nodes, dropping exactly the memos whose value
//!    depends on it — circuits whose var-set does not intersect the change
//!    keep their memoized probabilities untouched.
//!
//! The pool is also the crate's only compiler: the Shannon/independence
//! recursion exists once, in [`CircuitCache::compile`]'s private helper
//! (and once more in the interpreter of [`crate::prob`], the reference the
//! equivalence suites compare against). A solver that needs a standalone
//! `F(p₁ … p_k)` asks for [`CircuitCache::compiled`], which flattens the
//! nodes under one root into a [`CompiledLineage`] on first request and
//! memoizes the `Arc`; roots that are only ever scored never pay for one.
//!
//! # Determinism
//!
//! Cached scoring is bit-identical to the uncached
//! [`Evaluator::probability`] path:
//!
//! - compilation runs on the same simplified/factored formula with the same
//!   pivot rule, so pooled circuits have the exact structure the
//!   interpreter's recursion traces;
//! - [`CircuitCache::score`] replays the interpreter's float operations in
//!   the same order (`Π`, `1 − Π(1 − ·)`, `p·hi + (1 − p)·lo`), and a memo
//!   hit returns the very f64 the first evaluation produced;
//! - budget accounting is *parity-exact*: a fresh compile of a subformula
//!   with remaining budget `r` succeeds iff `r ≥ cost`, consuming exactly
//!   `cost` — so a compile-memo hit charges the recorded cost up front and
//!   fails with the identical [`LineageError::BudgetExceeded`] iff the
//!   stepwise recursion would have;
//! - on budget exhaustion the cache falls back to the same seeded
//!   Monte-Carlo estimate over the same factored formula.
//!
//! Every container in this module is a `BTreeMap`, a `Vec` indexed by
//! insertion order, or the id-paged [`VarTable`] (PCQE-D001): iteration
//! order, node ids and therefore every emitted statistic are independent
//! of hash seeds and thread count. The table is order-free by
//! construction: it is only ever asked about one variable by name — it
//! has no iterator — and what it answers (a probability, a leaf's node
//! id, a reader list in interning order) was put there under that name,
//! so neither the order pages were allocated in nor where an id falls in
//! its page can reach a result.

use crate::compile::{CompiledLineage, Op};
use crate::error::LineageError;
use crate::expr::{Lineage, VarId};
use crate::factor::normalize;
use crate::mc::MonteCarlo;
use crate::prob::{most_shared_var, Evaluator, ProbSource};
use crate::Result;
use pcqe_par::TraceSink;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Handle to one root circuit in a [`CircuitCache`]. Ids are dense and
/// assigned in first-compile order, so they are deterministic for a
/// deterministic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CircuitId(pub(crate) usize);

/// Cache activity counters, drained with [`CircuitCache::take_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Root circuits compiled fresh (one per distinct input formula).
    pub compiled: u64,
    /// Compile-memo hits: a whole circuit or subformula served from the
    /// pool instead of being re-expanded.
    pub compile_hits: u64,
    /// Evaluation-memo hits: a subcircuit probability reused under the
    /// current probability assignment.
    pub eval_hits: u64,
    /// Node memos dropped by [`CircuitCache::set_prob`] invalidation.
    pub invalidated: u64,
}

impl CacheStats {
    /// Total cache hits (compile + eval), the number reported as
    /// `lineage.cache_hit`.
    pub fn hits(&self) -> u64 {
        self.compile_hits.saturating_add(self.eval_hits)
    }

    /// Merge another stats delta into this one (saturating).
    pub fn absorb(&mut self, other: CacheStats) {
        self.compiled = self.compiled.saturating_add(other.compiled);
        self.compile_hits = self.compile_hits.saturating_add(other.compile_hits);
        self.eval_hits = self.eval_hits.saturating_add(other.eval_hits);
        self.invalidated = self.invalidated.saturating_add(other.invalidated);
    }
}

type NodeId = usize;

/// Structural identity of a pool node. Children are referenced by
/// [`NodeId`], so two keys are equal exactly when the subcircuits are
/// structurally identical — the hash-consing invariant. `Const` stores the
/// f64 bit pattern to stay `Ord` without float comparison (PCQE-D004).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum NodeKey {
    Const(u64),
    Var(VarId),
    Complement(NodeId),
    Product(Vec<NodeId>),
    DisjProduct(Vec<NodeId>),
    Mix { var: VarId, hi: NodeId, lo: NodeId },
}

#[derive(Debug)]
struct Node {
    key: NodeKey,
    /// Memoized probability under the cache's current assignment; `None`
    /// when unevaluated or invalidated. Invariant: if a node's memo is
    /// `Some`, every descendant's memo is `Some` (parents are filled after
    /// children), so invalidation can stop at already-`None` nodes.
    memo: Option<f64>,
    /// Reverse edges: nodes that use this node as a direct child.
    parents: Vec<NodeId>,
}

/// An optional, shared causal-trace sink. The newtype exists so
/// [`CircuitCache`] can keep deriving `Debug`/`Default` — trait objects
/// have neither.
#[derive(Default, Clone)]
struct TraceSlot(Option<Arc<dyn TraceSink + Send + Sync>>);

impl fmt::Debug for TraceSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TraceSlot")
            .field(&self.0.as_ref().map(|_| "attached"))
            .finish()
    }
}

#[derive(Debug)]
struct RootEntry {
    root: NodeId,
    /// Shannon expansions a fresh compile of this formula consumes; a
    /// compile-memo hit re-charges this against the caller's budget.
    cost: usize,
    /// Sorted variables of the simplified/factored formula: the slot order
    /// of the extracted circuit. Kept because conditioning can cancel a
    /// variable out of the circuit while the solvers still list it as a
    /// base of the result.
    vars: Vec<VarId>,
    /// The flat form, extracted on the first [`CircuitCache::compiled`].
    compiled: Option<Arc<CompiledLineage>>,
}

/// Variable ids per [`VarTable`] page: `id >> PAGE_BITS` names the page,
/// the low bits the slot in it.
const PAGE_BITS: u32 = 6;

/// What the pool keeps for one variable.
#[derive(Debug, Default)]
struct VarSlot {
    /// Current probability (the "version" of the base tuple: a bitwise
    /// change is a new version and triggers invalidation).
    prob: Option<f64>,
    /// The variable's `Var` leaf in the pool, once a formula used it.
    leaf: Option<NodeId>,
    /// Nodes whose value reads the variable directly (its `Var` leaf and
    /// `Mix` pivots) — the invalidation frontier for the variable.
    readers: Vec<NodeId>,
}

/// The pool's per-variable state, indexed by variable id: pages of
/// `1 << PAGE_BITS` consecutive ids, a page allocated when the first
/// variable in it is touched. Tuple ids are handed out by a counter, so
/// pages fill up and a lookup is one probe of a directory 64 times
/// smaller than the variable set plus an array read; an id far from every
/// other (an explicit id, a hostile persisted file) costs one page, so
/// memory follows the number of variables, never the largest id.
///
/// Nothing walks the table: every access names a variable, so no order —
/// of insertion, of pages or of ids — can reach a result.
///
/// Outside this module it is the cache's current assignment, read through
/// [`ProbSource`].
#[derive(Debug, Default)]
pub struct VarTable {
    pages: BTreeMap<u64, Box<[VarSlot]>>,
}

impl VarTable {
    /// A variable's page number and its position in the page.
    fn locate(var: VarId) -> (u64, usize) {
        (
            var.0 >> PAGE_BITS,
            (var.0 & ((1 << PAGE_BITS) - 1)) as usize,
        )
    }

    fn slot(&self, var: VarId) -> Option<&VarSlot> {
        let (page, at) = VarTable::locate(var);
        self.pages.get(&page)?.get(at)
    }

    /// The variable's slot, its page allocated on first touch. (`None`
    /// only if a page were shorter than `1 << PAGE_BITS`, which none is;
    /// callers treat it as "nothing to record".)
    fn slot_mut(&mut self, var: VarId) -> Option<&mut VarSlot> {
        let (page, at) = VarTable::locate(var);
        self.pages
            .entry(page)
            .or_insert_with(|| (0..1 << PAGE_BITS).map(|_| VarSlot::default()).collect())
            .get_mut(at)
    }
}

impl ProbSource for VarTable {
    fn prob(&self, var: VarId) -> Option<f64> {
        self.slot(var)?.prob
    }
}

/// The cache itself. See the module docs for the design; typical use:
///
/// ```
/// use pcqe_lineage::{CircuitCache, Evaluator, Lineage, VarId};
///
/// let mut cache = CircuitCache::new();
/// cache.set_prob(VarId(2), 0.3);
/// cache.set_prob(VarId(3), 0.4);
/// cache.set_prob(VarId(13), 0.1);
/// let l = Lineage::and(vec![
///     Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
///     Lineage::var(13),
/// ]);
/// let p = cache.score_lineage(&l, &Evaluator::default()).unwrap();
/// assert!((p - 0.058).abs() < 1e-12);
/// // A what-if probe: only circuits reading v3 are re-evaluated.
/// cache.set_prob(VarId(3), 0.5);
/// let p2 = cache.score_lineage(&l, &Evaluator::default()).unwrap();
/// assert!((p2 - 0.065).abs() < 1e-12);
/// ```
#[derive(Debug, Default)]
pub struct CircuitCache {
    nodes: Vec<Node>,
    /// Hash-consing index: structural key → pooled node, `Var` leaves
    /// excepted (the variable's slot in `vars` names its leaf).
    dedup: BTreeMap<NodeKey, NodeId>,
    /// Compile memo over simplified/factored (sub)formulas, with the budget
    /// cost a fresh compile would charge. A bare variable is not a key
    /// here either: it costs nothing, and its slot already answers.
    subformulas: BTreeMap<Lineage, (NodeId, usize)>,
    /// Root memo over *original* (pre-simplify) formulas.
    circuits: BTreeMap<Lineage, CircuitId>,
    roots: Vec<RootEntry>,
    /// Everything the pool keeps per variable — probability, `Var` leaf,
    /// reader nodes — one id-indexed slot each.
    vars: VarTable,
    stats: CacheStats,
    /// Passive causal-trace sink: compile/hit/invalidate events flow to
    /// the engine's tracer when attached. Never consulted for results.
    trace: TraceSlot,
}

impl CircuitCache {
    /// An empty cache with no probabilities assigned.
    pub fn new() -> CircuitCache {
        CircuitCache::default()
    }

    /// Number of pooled arithmetic nodes.
    pub fn pool_size(&self) -> usize {
        self.nodes.len()
    }

    /// Counters accumulated since the last [`CircuitCache::take_stats`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drain and reset the activity counters (the engine turns these into
    /// `lineage.*` metric deltas per recorded decision).
    pub fn take_stats(&mut self) -> CacheStats {
        std::mem::take(&mut self.stats)
    }

    /// The current probability assignment.
    pub fn probs(&self) -> &VarTable {
        &self.vars
    }

    /// Attach (or detach, with `None`) a causal-trace sink. The sink is
    /// observation-only — compile/hit/invalidate events mirror what the
    /// [`CacheStats`] counters already count, with per-event detail.
    pub fn set_trace(&mut self, sink: Option<Arc<dyn TraceSink + Send + Sync>>) {
        self.trace = TraceSlot(sink);
    }

    /// Send one instant to the attached sink. `detail` runs only when the
    /// sink will record it, so an untraced query formats nothing.
    fn emit(&self, name: &str, detail: impl FnOnce() -> String) {
        if let Some(sink) = self.trace.0.as_ref().filter(|s| s.enabled()) {
            sink.instant(name, &detail());
        }
    }

    /// Set `var`'s probability. A bitwise-identical write is a no-op;
    /// otherwise the memos of exactly the nodes whose value depends on
    /// `var` are dropped (transitively, child → parent, stopping early at
    /// nodes that were already unevaluated).
    pub fn set_prob(&mut self, var: VarId, p: f64) {
        let Some(slot) = self.vars.slot_mut(var) else {
            return;
        };
        if slot.prob.is_some_and(|old| old.to_bits() == p.to_bits()) {
            return;
        }
        slot.prob = Some(p);
        let readers = slot.readers.clone();
        let dropped = self.invalidate(readers);
        if dropped > 0 {
            self.emit("cache.invalidate", || {
                format!("var={} dropped={dropped}", var.0)
            });
        }
    }

    /// Drop the memos of every node transitively reading a variable,
    /// given the nodes that read it directly; returns how many memos were
    /// dropped (also added to `stats.invalidated`).
    fn invalidate(&mut self, mut frontier: Vec<NodeId>) -> u64 {
        let mut dropped: u64 = 0;
        while let Some(id) = frontier.pop() {
            if let Some(node) = self.nodes.get_mut(id) {
                if node.memo.take().is_some() {
                    self.stats.invalidated = self.stats.invalidated.saturating_add(1);
                    dropped = dropped.saturating_add(1);
                    frontier.extend(node.parents.iter().copied());
                }
            }
        }
        dropped
    }

    /// Compile `lineage` into the pool, spending at most `budget` Shannon
    /// expansions. Repeat compiles of the same formula are memo hits that
    /// charge the recorded cost against `budget` — succeeding and failing
    /// exactly when a compile into an empty pool would.
    pub fn compile(&mut self, lineage: &Lineage, budget: usize) -> Result<CircuitId> {
        if let Some(&id) = self.circuits.get(lineage) {
            let cost = self.roots.get(id.0).map(|r| r.cost).unwrap_or(0);
            if budget < cost {
                // Match the uncached error payload: the stepwise recursion
                // always reports exhaustion at a zero remainder.
                return Err(LineageError::BudgetExceeded { budget: 0 });
            }
            self.stats.compile_hits = self.stats.compile_hits.saturating_add(1);
            self.emit("cache.hit", || format!("circuit={} cost={cost}", id.0));
            return Ok(id);
        }
        let normal = normalize(lineage);
        let mut remaining = budget;
        let root = self.compile_sub(&normal, &mut remaining)?;
        let cost = budget - remaining;
        let id = CircuitId(self.roots.len());
        self.roots.push(RootEntry {
            root,
            cost,
            vars: normal.vars(),
            compiled: None,
        });
        self.circuits.insert(lineage.clone(), id);
        self.stats.compiled = self.stats.compiled.saturating_add(1);
        let pool = self.nodes.len();
        self.emit("cache.compile", || {
            format!("circuit={} cost={cost} pool={pool}", id.0)
        });
        Ok(id)
    }

    /// The flat [`CompiledLineage`] of a circuit, shareable across solvers
    /// via its `Arc`: extracted from the pool on the first request for
    /// `id`, memoized afterwards. `None` for a handle of another cache.
    pub fn compiled(&mut self, id: CircuitId) -> Option<&Arc<CompiledLineage>> {
        if self.roots.get(id.0)?.compiled.is_none() {
            let flat = Arc::new(self.extract(id).ok()?);
            self.roots.get_mut(id.0)?.compiled = Some(flat);
        }
        self.roots.get(id.0)?.compiled.as_ref()
    }

    /// Flatten the nodes under `id`'s root into a [`CompiledLineage`]:
    /// post-order, each pool node placed once, variables resolved to their
    /// slot in the root's sorted variable list.
    pub(crate) fn extract(&self, id: CircuitId) -> Result<CompiledLineage> {
        let entry = self
            .roots
            .get(id.0)
            .ok_or(LineageError::UnknownCircuit(id.0))?;
        let mut flat = CompiledLineage {
            vars: entry.vars.clone(),
            nodes: Vec::new(),
            args: Vec::new(),
        };
        self.flatten(entry.root, &mut flat, &mut BTreeMap::new())?;
        Ok(flat)
    }

    fn flatten(
        &self,
        id: NodeId,
        flat: &mut CompiledLineage,
        placed: &mut BTreeMap<NodeId, u32>,
    ) -> Result<u32> {
        if let Some(&at) = placed.get(&id) {
            return Ok(at);
        }
        // A variable outside the root's list cannot occur (conditioning
        // and factoring only remove variables); it would get a slot past
        // every probability slice and so evaluate as probability 0.
        let slot = |vars: &[VarId], v: &VarId| vars.binary_search(v).unwrap_or(usize::MAX) as u32;
        let node = self.nodes.get(id).ok_or(LineageError::UnknownCircuit(id))?;
        let op = match &node.key {
            NodeKey::Const(bits) => Op::Const(f64::from_bits(*bits)),
            NodeKey::Var(v) => Op::Var(slot(&flat.vars, v)),
            NodeKey::Complement(c) => Op::Complement(self.flatten(*c, flat, placed)?),
            NodeKey::Product(cs) | NodeKey::DisjProduct(cs) => {
                let mut children = Vec::with_capacity(cs.len());
                for &c in cs {
                    children.push(self.flatten(c, flat, placed)?);
                }
                let start = flat.args.len() as u32;
                flat.args.extend(children);
                let end = flat.args.len() as u32;
                match node.key {
                    NodeKey::Product(_) => Op::Product { start, end },
                    _ => Op::DisjProduct { start, end },
                }
            }
            NodeKey::Mix { var, hi, lo } => Op::Mix {
                slot: slot(&flat.vars, var),
                hi: self.flatten(*hi, flat, placed)?,
                lo: self.flatten(*lo, flat, placed)?,
            },
        };
        let at = flat.nodes.len() as u32;
        flat.nodes.push(op);
        placed.insert(id, at);
        Ok(at)
    }

    /// Memoized probability of a compiled circuit under the current
    /// assignment.
    pub fn score(&mut self, id: CircuitId) -> Result<f64> {
        let root = self
            .roots
            .get(id.0)
            .map(|r| r.root)
            .ok_or(LineageError::UnknownCircuit(id.0))?;
        self.eval_node(root)
    }

    /// Compile-and-score in one call, with the evaluator's Monte-Carlo
    /// fallback on budget exhaustion — the cached twin of
    /// [`Evaluator::probability`], bit-identical on every path.
    pub fn score_lineage(&mut self, lineage: &Lineage, evaluator: &Evaluator) -> Result<f64> {
        match self.compile(lineage, evaluator.budget) {
            Ok(id) => self.score(id),
            Err(LineageError::BudgetExceeded { .. }) if evaluator.mc_samples > 0 => {
                // Same fallback as the uncached path: seeded Monte-Carlo
                // over the same simplified/factored formula.
                MonteCarlo::new(evaluator.mc_samples, evaluator.mc_seed)
                    .estimate(&normalize(lineage), &self.vars)
            }
            Err(e) => Err(e),
        }
    }

    /// Compile memo + hash-consing recursion, with the structure and
    /// budget accounting of the interpreter's `exact`; on a memo hit the
    /// recorded cost is charged up front (see the module docs for the
    /// parity argument).
    fn compile_sub(&mut self, l: &Lineage, budget: &mut usize) -> Result<NodeId> {
        if let Lineage::Var(v) = l {
            return Ok(self.var_leaf(*v));
        }
        if let Some(&(id, cost)) = self.subformulas.get(l) {
            if *budget < cost {
                return Err(LineageError::BudgetExceeded { budget: 0 });
            }
            *budget -= cost;
            self.stats.compile_hits = self.stats.compile_hits.saturating_add(1);
            return Ok(id);
        }
        let before = *budget;
        let id = match l {
            Lineage::Const(b) => {
                let c: f64 = if *b { 1.0 } else { 0.0 };
                self.intern(NodeKey::Const(c.to_bits()))
            }
            Lineage::Var(v) => self.var_leaf(*v),
            Lineage::Not(e) => {
                let child = self.compile_sub(e, budget)?;
                self.intern(NodeKey::Complement(child))
            }
            Lineage::And(es) | Lineage::Or(es) => {
                if let Some(pivot) = most_shared_var(es) {
                    self.compile_mix(l, pivot, budget)?
                } else {
                    let mut children = Vec::with_capacity(es.len());
                    for e in es {
                        children.push(self.compile_sub(e, budget)?);
                    }
                    self.intern(match l {
                        Lineage::And(_) => NodeKey::Product(children),
                        _ => NodeKey::DisjProduct(children),
                    })
                }
            }
        };
        let cost = before.saturating_sub(*budget);
        self.subformulas.insert(l.clone(), (id, cost));
        Ok(id)
    }

    /// Shannon expansion on `pivot`, with the same check-then-decrement
    /// budget step as the interpreter.
    fn compile_mix(&mut self, l: &Lineage, pivot: VarId, budget: &mut usize) -> Result<NodeId> {
        if *budget == 0 {
            return Err(LineageError::BudgetExceeded { budget: 0 });
        }
        *budget -= 1;
        let hi = self.compile_sub(&l.condition(pivot, true), budget)?;
        let lo = self.compile_sub(&l.condition(pivot, false), budget)?;
        Ok(self.intern(NodeKey::Mix { var: pivot, hi, lo }))
    }

    /// Find-or-create `var`'s leaf through its slot — the whole compile of
    /// a bare variable. To the stats and the budget a leaf is a formula
    /// like any other: finding it is a compile-memo hit, at its cost, 0.
    fn var_leaf(&mut self, var: VarId) -> NodeId {
        let next = self.nodes.len();
        if let Some(slot) = self.vars.slot_mut(var) {
            if let Some(leaf) = slot.leaf {
                self.stats.compile_hits = self.stats.compile_hits.saturating_add(1);
                return leaf;
            }
            slot.leaf = Some(next);
            slot.readers.push(next);
        }
        self.push_node(NodeKey::Var(var))
    }

    /// Find-or-create the pool node for a structural key, wiring reverse
    /// edges and variable-reader lists on creation.
    fn intern(&mut self, key: NodeKey) -> NodeId {
        if let Some(&id) = self.dedup.get(&key) {
            return id;
        }
        let id = self.nodes.len();
        match &key {
            NodeKey::Const(_) | NodeKey::Var(_) => {}
            NodeKey::Complement(c) => self.add_parent(*c, id),
            NodeKey::Product(cs) | NodeKey::DisjProduct(cs) => {
                for &c in cs {
                    self.add_parent(c, id);
                }
            }
            NodeKey::Mix { var, hi, lo } => {
                if let Some(slot) = self.vars.slot_mut(*var) {
                    slot.readers.push(id);
                }
                self.add_parent(*hi, id);
                self.add_parent(*lo, id);
            }
        }
        self.dedup.insert(key.clone(), id);
        self.push_node(key)
    }

    fn push_node(&mut self, key: NodeKey) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            key,
            memo: None,
            parents: Vec::new(),
        });
        id
    }

    /// Record `parent` as a reader of `child`, once. `intern` wires all
    /// the edges of a brand-new node back to back and nothing else adds
    /// an edge, so if `parent` is already listed — `Product([c, c])`, a
    /// `Mix` whose cofactors coincide — it is the last entry: no scan of
    /// a shared leaf's whole fan-in.
    fn add_parent(&mut self, child: NodeId, parent: NodeId) {
        if let Some(node) = self.nodes.get_mut(child) {
            if node.parents.last() != Some(&parent) {
                node.parents.push(parent);
            }
        }
    }

    fn prob_of(&self, var: VarId) -> Result<f64> {
        self.vars.prob(var).ok_or(LineageError::UnknownVar(var))
    }

    /// The `at`-th child of an n-ary node; `None` past the last.
    fn child(&self, id: NodeId, at: usize) -> Option<NodeId> {
        match &self.nodes.get(id)?.key {
            NodeKey::Product(cs) | NodeKey::DisjProduct(cs) => cs.get(at).copied(),
            _ => None,
        }
    }

    /// Memoized bottom-up evaluation. The float operations and their order
    /// are exactly those of [`CompiledLineage::eval`] / the interpreter's
    /// `exact` recursion — a memo hit just short-circuits to the f64 that
    /// recursion already produced. Child lists are read by position, one
    /// child at a time, so nothing is copied out of the node.
    fn eval_node(&mut self, id: NodeId) -> Result<f64> {
        let node = self.nodes.get(id).ok_or(LineageError::UnknownCircuit(id))?;
        if let Some(p) = node.memo {
            self.stats.eval_hits = self.stats.eval_hits.saturating_add(1);
            return Ok(p);
        }
        let p = match node.key {
            NodeKey::Const(bits) => f64::from_bits(bits),
            NodeKey::Var(v) => self.prob_of(v)?,
            NodeKey::Complement(c) => 1.0 - self.eval_node(c)?,
            NodeKey::Product(_) => {
                let mut p = 1.0;
                let mut at = 0;
                while let Some(c) = self.child(id, at) {
                    p *= self.eval_node(c)?;
                    at += 1;
                }
                p
            }
            NodeKey::DisjProduct(_) => {
                let mut q = 1.0;
                let mut at = 0;
                while let Some(c) = self.child(id, at) {
                    q *= 1.0 - self.eval_node(c)?;
                    at += 1;
                }
                1.0 - q
            }
            NodeKey::Mix { var, hi, lo } => {
                let pv = self.prob_of(var)?;
                let h = self.eval_node(hi)?;
                let l = self.eval_node(lo)?;
                pv * h + (1.0 - pv) * l
            }
        };
        if let Some(node) = self.nodes.get_mut(id) {
            node.memo = Some(p);
        }
        Ok(p)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn example() -> Lineage {
        Lineage::and(vec![
            Lineage::or(vec![Lineage::var(2), Lineage::var(3)]),
            Lineage::var(13),
        ])
    }

    fn seed_probs(cache: &mut CircuitCache, pairs: &[(u64, f64)]) -> BTreeMap<VarId, f64> {
        let mut map = BTreeMap::new();
        for &(v, p) in pairs {
            cache.set_prob(VarId(v), p);
            map.insert(VarId(v), p);
        }
        map
    }

    #[test]
    fn cached_score_matches_interpreter_bitwise() {
        let mut cache = CircuitCache::new();
        let pr = seed_probs(&mut cache, &[(2, 0.3), (3, 0.4), (13, 0.1)]);
        let ev = Evaluator::default();
        let l = example();
        let cached = cache.score_lineage(&l, &ev).unwrap();
        let plain = ev.probability(&l, &pr).unwrap();
        assert_eq!(cached.to_bits(), plain.to_bits());
    }

    #[test]
    fn repeat_scores_hit_the_memo() {
        let mut cache = CircuitCache::new();
        seed_probs(&mut cache, &[(2, 0.3), (3, 0.4), (13, 0.1)]);
        let ev = Evaluator::default();
        let first = cache.score_lineage(&example(), &ev).unwrap();
        let stats_after_first = cache.stats();
        assert_eq!(stats_after_first.compiled, 1);
        let second = cache.score_lineage(&example(), &ev).unwrap();
        assert_eq!(first.to_bits(), second.to_bits());
        let stats = cache.stats();
        assert_eq!(stats.compiled, 1, "no recompile on the second call");
        assert!(stats.compile_hits > stats_after_first.compile_hits);
        assert!(stats.eval_hits > stats_after_first.eval_hits);
    }

    #[test]
    fn invalidation_is_scoped_to_the_touched_variable() {
        let mut cache = CircuitCache::new();
        seed_probs(&mut cache, &[(0, 0.2), (1, 0.5), (2, 0.8), (3, 0.4)]);
        let ev = Evaluator::default();
        let touches_0 = Lineage::and(vec![Lineage::var(0), Lineage::var(1)]);
        let disjoint = Lineage::or(vec![Lineage::var(2), Lineage::var(3)]);
        cache.score_lineage(&touches_0, &ev).unwrap();
        cache.score_lineage(&disjoint, &ev).unwrap();
        cache.take_stats();
        cache.set_prob(VarId(0), 0.9);
        assert!(cache.stats().invalidated > 0, "v0 readers invalidated");
        let invalidated_before = cache.stats().invalidated;
        // The disjoint circuit's memo must have survived: scoring it again
        // is pure eval hits, no fresh arithmetic.
        let eval_hits_before = cache.stats().eval_hits;
        cache.score_lineage(&disjoint, &ev).unwrap();
        assert!(cache.stats().eval_hits > eval_hits_before);
        assert_eq!(cache.stats().invalidated, invalidated_before);
    }

    #[test]
    fn bitwise_identical_rewrite_does_not_invalidate() {
        let mut cache = CircuitCache::new();
        seed_probs(&mut cache, &[(2, 0.3), (3, 0.4), (13, 0.1)]);
        cache
            .score_lineage(&example(), &Evaluator::default())
            .unwrap();
        cache.take_stats();
        cache.set_prob(VarId(3), 0.4);
        assert_eq!(cache.stats().invalidated, 0);
    }

    #[test]
    fn what_if_probe_sequence_matches_uncached_bitwise() {
        let mut cache = CircuitCache::new();
        let mut pr = seed_probs(&mut cache, &[(2, 0.3), (3, 0.4), (13, 0.1)]);
        let ev = Evaluator::default();
        let l = example();
        for step in 1..=5u64 {
            let p3 = 0.4 + 0.1 * step as f64 / 5.0;
            cache.set_prob(VarId(3), p3);
            pr.insert(VarId(3), p3);
            let cached = cache.score_lineage(&l, &ev).unwrap();
            let plain = ev.probability(&l, &pr).unwrap();
            assert_eq!(cached.to_bits(), plain.to_bits(), "step {step}");
        }
    }

    #[test]
    fn shared_subformulas_are_pooled_across_circuits() {
        let mut cache = CircuitCache::new();
        seed_probs(&mut cache, &[(0, 0.2), (1, 0.5), (2, 0.8)]);
        let shared = Lineage::or(vec![Lineage::var(0), Lineage::var(1)]);
        let a = Lineage::and(vec![shared.clone(), Lineage::var(2)]);
        let b = shared.clone();
        let ev = Evaluator::default();
        cache.score_lineage(&a, &ev).unwrap();
        let pool_after_a = cache.pool_size();
        cache.score_lineage(&b, &ev).unwrap();
        // b's whole body was already in the pool: only stats move.
        assert_eq!(cache.pool_size(), pool_after_a);
        assert!(cache.stats().compile_hits > 0);
    }

    #[test]
    fn a_repeated_child_is_one_reverse_edge() {
        let mut cache = CircuitCache::new();
        let c = cache.var_leaf(VarId(1));
        let d = cache.var_leaf(VarId(2));
        let product = cache.intern(NodeKey::Product(vec![c, c, d, c]));
        // `c`'s edges to `product` arrive back to back only for the first
        // two; the third comes after `d`'s and is still the last of `c`'s.
        assert_eq!(cache.nodes[c].parents, vec![product]);
        assert_eq!(cache.nodes[d].parents, vec![product]);
        let mix = cache.intern(NodeKey::Mix {
            var: VarId(2),
            hi: c,
            lo: c,
        });
        assert_eq!(cache.nodes[c].parents, vec![product, mix]);
        // ... and the value is still the product over every position.
        cache.set_prob(VarId(1), 0.5);
        cache.set_prob(VarId(2), 0.25);
        assert_eq!(cache.eval_node(product).unwrap(), 0.5 * 0.5 * 0.25 * 0.5);
        // Invalidation reaches the parent once through the one edge.
        cache.take_stats();
        cache.set_prob(VarId(1), 0.75);
        assert_eq!(cache.stats().invalidated, 2, "the leaf and the product");
    }

    #[test]
    fn var_leaves_stay_out_of_the_formula_memo_and_still_count_as_hits() {
        let mut cache = CircuitCache::new();
        seed_probs(&mut cache, &[(2, 0.3), (3, 0.4), (13, 0.1)]);
        cache.compile(&example(), 16).unwrap();
        assert_eq!(cache.pool_size(), 5, "three leaves, the OR, the AND");
        assert!(cache
            .subformulas
            .keys()
            .all(|l| !matches!(l, Lineage::Var(_))));
        assert!(cache.dedup.keys().all(|k| !matches!(k, NodeKey::Var(_))));
        assert_eq!(cache.stats().compile_hits, 0);
        // A second formula over the same tuples finds all three leaves.
        let again = Lineage::or(vec![Lineage::var(13), Lineage::var(2), Lineage::var(3)]);
        cache.compile(&again, 16).unwrap();
        assert_eq!(cache.stats().compile_hits, 3);
        assert_eq!(cache.pool_size(), 6, "only the new OR");
    }

    #[test]
    fn budget_parity_with_fresh_compiles() {
        // For every budget, the pool (cold and memo-hit) and the standalone
        // compile that wraps it must agree with the interpreter's stepwise
        // recursion on success/failure and on the error value.
        let mut children = Vec::new();
        for i in 0..8u64 {
            children.push(Lineage::And(vec![Lineage::var(i), Lineage::var(i + 1)]));
        }
        let l = Lineage::Or(children);
        let pr: BTreeMap<VarId, f64> = (0..9u64).map(|v| (VarId(v), 0.5)).collect();
        for budget in 0..64usize {
            let oracle = Evaluator::exact_only(budget)
                .probability(&l, &pr)
                .map(|_| ());
            let standalone = CompiledLineage::compile(&l, budget).map(|_| ());
            let mut warmed = CircuitCache::new();
            let _ = warmed.compile(&l, 1 << 16); // warm the memo
            let hit = warmed.compile(&l, budget).map(|_| ());
            let mut cold = CircuitCache::new();
            let miss = cold.compile(&l, budget).map(|_| ());
            assert_eq!(oracle, hit, "budget {budget} (memo hit)");
            assert_eq!(oracle, miss, "budget {budget} (cold)");
            assert_eq!(oracle, standalone, "budget {budget} (standalone)");
        }
    }

    #[test]
    fn mc_fallback_matches_uncached_bitwise() {
        let mut children = Vec::new();
        for i in 0..12u64 {
            children.push(Lineage::And(vec![Lineage::var(i), Lineage::var(i + 1)]));
        }
        let l = Lineage::Or(children);
        let ev = Evaluator {
            budget: 1,
            mc_samples: 20_000,
            mc_seed: 7,
        };
        let mut cache = CircuitCache::new();
        let mut pr = BTreeMap::new();
        for i in 0..13u64 {
            cache.set_prob(VarId(i), 0.5);
            pr.insert(VarId(i), 0.5);
        }
        let cached = cache.score_lineage(&l, &ev).unwrap();
        let plain = ev.probability(&l, &pr).unwrap();
        assert_eq!(cached.to_bits(), plain.to_bits());
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let mut cache = CircuitCache::new();
        let err = cache
            .score_lineage(&Lineage::var(42), &Evaluator::default())
            .unwrap_err();
        assert_eq!(err, LineageError::UnknownVar(VarId(42)));
        // ... and becomes scoreable once the probability arrives.
        cache.set_prob(VarId(42), 0.25);
        let p = cache
            .score_lineage(&Lineage::var(42), &Evaluator::default())
            .unwrap();
        assert_eq!(p.to_bits(), 0.25f64.to_bits());
    }

    #[test]
    fn pooled_compiled_lineage_matches_standalone() {
        // Warm the pool with a formula sharing subcircuits with `l`, so
        // `l`'s extraction walks nodes it did not intern itself.
        let mut cache = CircuitCache::new();
        let l = Lineage::Or(vec![
            Lineage::And(vec![Lineage::var(0), Lineage::var(1)]),
            Lineage::And(vec![Lineage::var(0), Lineage::var(2)]),
        ]);
        cache
            .compile(&Lineage::or(vec![Lineage::var(1), Lineage::var(2)]), 8)
            .unwrap();
        let id = cache.compile(&l, 1 << 12).unwrap();
        let pooled = cache.compiled(id).unwrap().clone();
        assert!(
            Arc::ptr_eq(&pooled, cache.compiled(id).unwrap()),
            "extracted once, then memoized"
        );
        let standalone = CompiledLineage::compile(&l, 1 << 12).unwrap();
        assert_eq!(pooled.vars(), standalone.vars());
        let pr: BTreeMap<VarId, f64> = (0..3u64)
            .map(|v| (VarId(v), 0.1 + 0.2 * v as f64))
            .collect();
        let interp = Evaluator::exact_only(1 << 12).probability(&l, &pr).unwrap();
        assert_eq!(pooled.eval_with(|v| pr[&v]).to_bits(), interp.to_bits());
        assert_eq!(standalone.eval_with(|v| pr[&v]).to_bits(), interp.to_bits());
    }

    #[test]
    fn randomized_equivalence_with_interpreter() {
        let mut rng = Rng64::seed_from_u64(0x00C4_C4E1);
        for case in 0..200u32 {
            let l = random_formula(&mut rng, 6, 3);
            let mut cache = CircuitCache::new();
            let mut pr = BTreeMap::new();
            for v in 0..6u64 {
                let p = rng.range_f64(0.05, 0.95);
                cache.set_prob(VarId(v), p);
                pr.insert(VarId(v), p);
            }
            let ev = Evaluator::exact_only(1 << 12);
            match (cache.score_lineage(&l, &ev), ev.probability(&l, &pr)) {
                (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "case {case}: {l:?}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "case {case}: {l:?}"),
                (a, b) => panic!("case {case}: cache {a:?} vs plain {b:?} for {l:?}"),
            }
        }
    }

    #[test]
    fn attached_trace_sink_sees_compile_hit_and_invalidate() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Probe(Mutex<Vec<(String, String)>>);
        impl TraceSink for Probe {
            fn span_begin(&self, _name: &str) -> u64 {
                0
            }
            fn span_end(&self, _id: u64) {}
            fn instant(&self, name: &str, detail: &str) {
                self.0.lock().unwrap().push((name.into(), detail.into()));
            }
            fn decision(&self, _d: &pcqe_par::Decision) {}
        }
        let probe = Arc::new(Probe::default());
        let mut cache = CircuitCache::new();
        cache.set_trace(Some(probe.clone()));
        seed_probs(&mut cache, &[(2, 0.3), (3, 0.4), (13, 0.1)]);
        let ev = Evaluator::default();
        cache.score_lineage(&example(), &ev).unwrap();
        cache.score_lineage(&example(), &ev).unwrap();
        cache.set_prob(VarId(3), 0.5);
        cache.set_prob(VarId(3), 0.5); // bitwise no-op: no event
        let events = probe.0.lock().unwrap();
        let names: Vec<&str> = events.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names.iter().filter(|n| **n == "cache.compile").count(),
            1,
            "one fresh compile"
        );
        assert_eq!(
            names.iter().filter(|n| **n == "cache.hit").count(),
            1,
            "one root memo hit"
        );
        assert_eq!(
            names.iter().filter(|n| **n == "cache.invalidate").count(),
            1,
            "one real probability change"
        );
        let invalidate = events
            .iter()
            .find(|(n, _)| n == "cache.invalidate")
            .map(|(_, d)| d.clone())
            .unwrap();
        assert!(invalidate.starts_with("var=3 dropped="), "{invalidate}");
    }

    fn random_formula(rng: &mut Rng64, n_vars: u64, depth: u32) -> Lineage {
        if depth == 0 || rng.chance(0.3) {
            return Lineage::var(rng.below_u64(n_vars));
        }
        match rng.below_u64(3) {
            0 => Lineage::Not(Box::new(random_formula(rng, n_vars, depth - 1))),
            1 => Lineage::And(
                (0..2 + rng.below_usize(2))
                    .map(|_| random_formula(rng, n_vars, depth - 1))
                    .collect(),
            ),
            _ => Lineage::Or(
                (0..2 + rng.below_usize(2))
                    .map(|_| random_formula(rng, n_vars, depth - 1))
                    .collect(),
            ),
        }
    }
}
