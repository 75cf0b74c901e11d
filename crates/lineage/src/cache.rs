//! Confidence cache: a bounded, hash-consed circuit pool with memoized,
//! incrementally-invalidated subcircuit probabilities.
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
//! 2. **Memoizes compilation** where an expansion paid for it: a whole
//!    formula by its original spelling, and a subformula whose compile
//!    took at least one Shannon expansion, so the second result that
//!    contains it pays a map lookup instead of a fresh expansion. A
//!    read-once formula — most lineage, once factored — needs no
//!    expansion: it is interned bottom-up in one pass, with no pivot
//!    search and no memo entry, and a second result containing it finds
//!    every node through the hash-consing index. So does a subformula an
//!    expansion reaches that cost none.
//! 3. **Memoizes evaluation** per node under the cache's current
//!    probability assignment. [`CircuitCache::set_prob`] compares bit
//!    patterns and, only on a real change, walks reverse edges from the
//!    variable's reader nodes, dropping exactly the memos whose value
//!    depends on it — circuits whose var-set does not intersect the change
//!    keep their memoized probabilities untouched. The assignment lives in
//!    the variable table, so a start-over (below) forgets it too: a caller
//!    sets every probability a call reads within that call, as the
//!    engine's per-pass sync does.
//!
//! # Lifetime
//!
//! A caller that runs many calls through one pool — the engine runs every
//! query, what-if and batch through one — announces each call with
//! [`CircuitCache::begin_call`]. Between calls the pool survives as long as
//! it holds fewer than a fixed floor of nodes; past the floor it *starts
//! over*: nodes, dedup map, both formula memos, flat circuits and the
//! variable table go, while the activity counters and the listener stay.
//! Memory is then bounded by the floor plus one call's worth of nodes,
//! and the cost is at most one recompile per formula a later call reuses,
//! amortised O(1) per node since each start-over drops at least the
//! floor's worth. A start-over advances the pool's epoch, which every
//! [`CircuitId`] carries, so a handle from before it is refused rather
//! than resolved to whatever root now sits at its index. Answers cannot
//! move: see § Determinism.
//!
//! The pool is also the crate's only compiler: the Shannon/independence
//! recursion exists once in the production crates, in
//! [`CircuitCache::compile`]'s private helpers. The reference the
//! equivalence suites hold it to is a separate interpreter in the test
//! tree, with its own pivot rule and recursion. A solver that needs a
//! standalone `F(p₁ … p_k)` asks for [`CircuitCache::compiled`], which
//! flattens the nodes under one root into a [`CompiledLineage`] — its
//! slots' cones recorded with it — on first request and memoizes the
//! `Arc`; roots that are only ever scored never pay for one.
//!
//! # Determinism
//!
//! Cached scoring is a function of the formula and the assignment alone,
//! bit for bit, whatever the pool already holds:
//!
//! - compilation runs on the simplified/factored formula and pivots by one
//!   rule (`most_shared_var`), so a pooled circuit has the structure a
//!   compile into an empty pool gives it;
//! - [`CircuitCache::score`] runs the float operations of the
//!   independence/Shannon decomposition in one fixed order (`Π`,
//!   `1 − Π(1 − ·)`, `p·hi + (1 − p)·lo`), and a memo hit returns the very
//!   f64 the first evaluation produced;
//! - budget accounting is *parity-exact*: a fresh compile of a subformula
//!   with remaining budget `r` succeeds iff `r ≥ cost`, consuming exactly
//!   `cost` — so a compile-memo hit charges the recorded cost up front and
//!   fails with the identical [`LineageError::BudgetExceeded`] iff a
//!   compile into an empty pool would. A subformula of cost 0 is never
//!   memoized: compiling it again spends no budget and cannot fail, and it
//!   finds the same nodes, so the memo would change no outcome.
//!
//! Every container in this module is a `BTreeMap`, a `Vec` indexed by
//! insertion order, or the id-paged [`VarTable`] (`clippy.toml` bans
//! `HashMap`): iteration order, node ids and therefore every emitted
//! statistic are independent of hash seeds and thread count. The table is order-free by
//! construction: it is only ever asked about one variable by name — it
//! has no iterator — and what it answers (a probability, a leaf's node
//! id, a reader list in interning order) was put there under that name,
//! so neither the order pages were allocated in nor where an id falls in
//! its page can reach a result.

use crate::bound::ProbSource;
use crate::compile::{CompiledLineage, Op};
use crate::error::LineageError;
use crate::expr::{Lineage, VarId};
use crate::factor::normalize;
use crate::Result;
use pcqe_par::Observer;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The budget exact scoring runs under: each Shannon expansion the pool
/// compiles consumes one unit, and a formula that needs more fails with
/// [`LineageError::BudgetExceeded`] — the pool never estimates.
#[derive(Debug, Clone)]
pub struct Evaluator {
    /// Maximum number of Shannon expansions before giving up on exactness.
    pub budget: usize,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator { budget: 4096 }
    }
}

/// Handle to one root circuit in a [`CircuitCache`]: the pool's epoch and
/// the root's index in it. Indexes are dense and assigned in
/// first-compile order, so they are deterministic for a deterministic
/// workload; a start-over advances the epoch, which makes every earlier
/// handle unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CircuitId {
    epoch: u64,
    at: usize,
}

/// Pooled nodes at which [`CircuitCache::begin_call`] starts the pool
/// over. A strategy search's round of the e2e benchmark stays under it
/// (≈ 15.6 K nodes) and point lookups reach it about once a round
/// (≈ 16.6 K, single-leaf roots), so neither pays more than a handful of
/// recompiles; a scan mix or a write loop that keeps minting formulas
/// (62 K and 153 K nodes a round) passes it 12 and 9 times a round and
/// holds at most this many nodes plus one call's — about 7–9 MB.
const POOL_FLOOR: usize = 1 << 14;

/// Cache activity counters, drained with [`CircuitCache::take_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Root circuits compiled fresh (one per distinct input formula).
    pub compiled: u64,
    /// Compile-memo hits: a whole circuit, a subformula an expansion paid
    /// for, or a variable's leaf, served from the pool instead of being
    /// compiled again. A read-once subformula found through the
    /// hash-consing index is no hit; its leaves are.
    pub compile_hits: u64,
    /// Evaluation-memo hits: a subcircuit probability reused under the
    /// current probability assignment.
    pub eval_hits: u64,
    /// Node memos dropped by [`CircuitCache::set_prob`] invalidation.
    pub invalidated: u64,
    /// Start-overs by [`CircuitCache::begin_call`].
    pub resets: u64,
}

impl CacheStats {
    /// Total cache hits (compile + eval), the number reported as
    /// `lineage.cache_hit`.
    pub fn hits(&self) -> u64 {
        self.compile_hits.saturating_add(self.eval_hits)
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

/// An optional, shared listener. The newtype exists so [`CircuitCache`]
/// can keep deriving `Debug`/`Default` — trait objects have neither.
#[derive(Default, Clone)]
struct TraceSlot(Option<Arc<dyn Observer + Send>>);

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
    /// base of the result; extraction moves them into the circuit.
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
    /// Compile memo over simplified/factored (sub)formulas whose compile
    /// took a Shannon expansion, with the budget cost a fresh compile
    /// would charge. A formula of cost 0 — a bare variable, any read-once
    /// formula — is not a key: it charges nothing, and compiling it again
    /// finds its nodes in `dedup` and its leaves in their slots.
    subformulas: BTreeMap<Lineage, (NodeId, usize)>,
    /// Root memo over *original* (pre-simplify) formulas: the root's
    /// index in `roots` (a handle adds the epoch).
    circuits: BTreeMap<Lineage, usize>,
    roots: Vec<RootEntry>,
    /// Everything the pool keeps per variable — probability, `Var` leaf,
    /// reader nodes — one id-indexed slot each.
    vars: VarTable,
    stats: CacheStats,
    /// Passive listener: compile/hit/invalidate instants flow to the
    /// engine's tracer when attached. Never consulted for results.
    trace: TraceSlot,
    /// Start-overs so far: the epoch every issued [`CircuitId`] carries.
    epoch: u64,
    /// Invalidation's work list, kept between calls so a probability
    /// change allocates nothing once the list has grown to the pool's
    /// widest fan-out.
    frontier: Vec<NodeId>,
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

    /// Mark the start of one caller-level call (a query, a what-if, a
    /// batch) — never to be called within one. A pool holding at least a
    /// fixed floor of nodes (16 384) starts over: every node, memo, flat
    /// circuit and probability goes, the counters since
    /// [`CircuitCache::take_stats`] and the listener stay, `resets` counts
    /// one, and every handle issued so far becomes unknown. The caller
    /// sets each probability the call reads afresh, so no score and no
    /// budget outcome can tell (see the module docs, § Lifetime).
    pub fn begin_call(&mut self) {
        if self.nodes.len() < POOL_FLOOR {
            return;
        }
        *self = CircuitCache {
            stats: CacheStats {
                resets: self.stats.resets.saturating_add(1),
                ..self.stats
            },
            trace: std::mem::take(&mut self.trace),
            epoch: self.epoch.wrapping_add(1),
            ..CircuitCache::default()
        };
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

    /// Attach (or detach, with `None`) a listener. It is observation-only —
    /// compile/hit/invalidate events mirror what the [`CacheStats`]
    /// counters already count, with per-event detail.
    pub fn set_trace(&mut self, listener: Option<Arc<dyn Observer + Send>>) {
        self.trace = TraceSlot(listener);
    }

    /// Send one instant to the attached listener's
    /// [`Observer::timeline`]. `detail` runs only when there is one, so an
    /// untraced query formats nothing.
    fn emit(&self, name: &str, detail: impl FnOnce() -> String) {
        if let Some(timeline) = self.trace.0.as_ref().and_then(|l| l.timeline()) {
            timeline.instant(name, &detail());
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
        self.frontier.extend_from_slice(&slot.readers);
        let dropped = self.invalidate();
        if dropped > 0 {
            self.emit("cache.invalidate", || {
                format!("var={} dropped={dropped}", var.0)
            });
        }
    }

    /// Drop the memos of every node transitively reading a variable,
    /// starting from the nodes in `frontier` (those that read it
    /// directly), which it leaves empty; returns how many memos were
    /// dropped (also added to `stats.invalidated`).
    fn invalidate(&mut self) -> u64 {
        let mut dropped: u64 = 0;
        while let Some(id) = self.frontier.pop() {
            if let Some(node) = self.nodes.get_mut(id) {
                if node.memo.take().is_some() {
                    self.stats.invalidated = self.stats.invalidated.saturating_add(1);
                    dropped = dropped.saturating_add(1);
                    self.frontier.extend(node.parents.iter().copied());
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
        if let Some(&at) = self.circuits.get(lineage) {
            let id = CircuitId {
                epoch: self.epoch,
                at,
            };
            let cost = self.roots.get(at).map(|r| r.cost).unwrap_or(0);
            if budget < cost {
                // Match a fresh compile's error payload: `compile_mix`
                // reports exhaustion at a zero remainder.
                return Err(LineageError::BudgetExceeded { budget: 0 });
            }
            self.stats.compile_hits = self.stats.compile_hits.saturating_add(1);
            self.emit("cache.hit", || format!("circuit={at} cost={cost}"));
            return Ok(id);
        }
        let normal = normalize(lineage);
        let mut remaining = budget;
        let root = self.compile_sub(&normal.formula, normal.read_once, &mut remaining)?;
        let cost = budget - remaining;
        let id = CircuitId {
            epoch: self.epoch,
            at: self.roots.len(),
        };
        self.roots.push(RootEntry {
            root,
            cost,
            vars: normal.vars,
            compiled: None,
        });
        self.circuits.insert(lineage.clone(), id.at);
        self.stats.compiled = self.stats.compiled.saturating_add(1);
        let pool = self.nodes.len();
        self.emit("cache.compile", || {
            format!("circuit={} cost={cost} pool={pool}", id.at)
        });
        Ok(id)
    }

    /// The root entry behind a handle of the current epoch.
    fn root(&self, id: CircuitId) -> Result<&RootEntry> {
        self.roots
            .get(id.at)
            .filter(|_| id.epoch == self.epoch)
            .ok_or(LineageError::UnknownCircuit(id.at))
    }

    /// [`Self::root`], mutably.
    fn root_mut(&mut self, id: CircuitId) -> Result<&mut RootEntry> {
        self.roots
            .get_mut(id.at)
            .filter(|_| id.epoch == self.epoch)
            .ok_or(LineageError::UnknownCircuit(id.at))
    }

    /// The flat [`CompiledLineage`] of a circuit, shareable across solvers
    /// via its `Arc`: extracted from the pool on the first request for
    /// `id`, memoized afterwards. [`LineageError::UnknownCircuit`] for a
    /// handle from before a start-over or of another cache.
    pub fn compiled(&mut self, id: CircuitId) -> Result<&Arc<CompiledLineage>> {
        if self.root(id)?.compiled.is_none() {
            let flat = Arc::new(self.extract(id)?);
            self.root_mut(id)?.compiled = Some(flat);
        }
        self.root(id)?
            .compiled
            .as_ref()
            .ok_or(LineageError::UnknownCircuit(id.at))
    }

    /// Flatten the nodes under `id`'s root into a [`CompiledLineage`]:
    /// post-order, each pool node placed once, variables resolved to their
    /// slot in the root's sorted variable list; then each slot's cone is
    /// recorded from the placed nodes. The root's variable list moves into
    /// the circuit, so a root is extracted once (as [`Self::compiled`]
    /// memoizes).
    pub(crate) fn extract(&mut self, id: CircuitId) -> Result<CompiledLineage> {
        let entry = self.root_mut(id)?;
        let root = entry.root;
        let mut flat = CompiledLineage {
            vars: std::mem::take(&mut entry.vars),
            nodes: Vec::new(),
            args: Vec::new(),
            cones: Vec::new(),
        };
        self.flatten(root, &mut flat, &mut BTreeMap::new())?;
        // A memoized circuit lives as long as the pool: it keeps no slack.
        flat.nodes.shrink_to_fit();
        flat.args.shrink_to_fit();
        flat.record_cones();
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
                // Every child is placed before its list is written, so the
                // list is copied from `placed` and never buffered.
                for &c in cs {
                    self.flatten(c, flat, placed)?;
                }
                let start = flat.args.len() as u32;
                for c in cs {
                    let at = placed.get(c).ok_or(LineageError::UnknownCircuit(*c))?;
                    flat.args.push(*at);
                }
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
        let root = self.root(id)?.root;
        self.eval_node(root)
    }

    /// Compile-and-score in one call within the evaluator's budget:
    /// [`Self::compile`], then [`Self::score`].
    pub fn score_lineage(&mut self, lineage: &Lineage, evaluator: &Evaluator) -> Result<f64> {
        let id = self.compile(lineage, evaluator.budget)?;
        self.score(id)
    }

    /// The compile recursion: independent children become a
    /// `Product`/`DisjProduct`, children that share a variable a Shannon
    /// expansion on [`most_shared_var`]. A `read_once` formula shares no
    /// variable between any children, and neither does any subformula of
    /// it, so it is interned bottom-up with neither a pivot search nor a
    /// memo probe. Otherwise a subformula whose compile expanded is
    /// memoized with its cost, and a memo hit charges that cost up front;
    /// one that did not expand compiles again to the same node through
    /// `dedup`, at its cost, 0 (see the module docs for the parity
    /// argument).
    fn compile_sub(&mut self, l: &Lineage, read_once: bool, budget: &mut usize) -> Result<NodeId> {
        if let Lineage::Var(v) = l {
            return Ok(self.var_leaf(*v));
        }
        let memo = if read_once {
            None
        } else {
            self.subformulas.get(l)
        };
        if let Some(&(id, cost)) = memo {
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
                let child = self.compile_sub(e, read_once, budget)?;
                self.intern(NodeKey::Complement(child))
            }
            Lineage::And(es) | Lineage::Or(es) => {
                let pivot = if read_once { None } else { most_shared_var(es) };
                if let Some(pivot) = pivot {
                    self.compile_mix(l, pivot, budget)?
                } else {
                    let mut children = Vec::with_capacity(es.len());
                    for e in es {
                        children.push(self.compile_sub(e, read_once, budget)?);
                    }
                    self.intern(match l {
                        Lineage::And(_) => NodeKey::Product(children),
                        _ => NodeKey::DisjProduct(children),
                    })
                }
            }
        };
        let cost = before.saturating_sub(*budget);
        if cost > 0 {
            self.subformulas.insert(l.clone(), (id, cost));
        }
        Ok(id)
    }

    /// Shannon expansion on `pivot`: check the budget, then take one unit
    /// of it, so an expansion at a zero remainder fails.
    fn compile_mix(&mut self, l: &Lineage, pivot: VarId, budget: &mut usize) -> Result<NodeId> {
        if *budget == 0 {
            return Err(LineageError::BudgetExceeded { budget: 0 });
        }
        *budget -= 1;
        let hi = self.compile_sub(&l.condition(pivot, true), false, budget)?;
        let lo = self.compile_sub(&l.condition(pivot, false), false, budget)?;
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
    /// are exactly those of [`CompiledLineage::eval`] — a memo hit just
    /// short-circuits to the f64 the first evaluation produced. Child
    /// lists are read by position, one child at a time, so nothing is
    /// copied out of the node.
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

/// If the children share variables, return the variable occurring in the
/// most children (the best Shannon pivot), the smallest such variable on a
/// tie; otherwise `None`.
///
/// Every leaf goes into one list as `(variable, child)`; sorted and
/// deduplicated, a variable's run is as long as the number of children it
/// occurs in. Sharing *within* one child is handled recursively — only
/// cross-child sharing breaks independence — so a variable counts once
/// per child however often the child repeats it.
fn most_shared_var(children: &[Lineage]) -> Option<VarId> {
    let mut leaves: Vec<(VarId, usize)> = Vec::new();
    for (at, child) in children.iter().enumerate() {
        child.for_each_var(&mut |v| leaves.push((v, at)));
    }
    leaves.sort_unstable();
    leaves.dedup();
    leaves
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|run| run.len() > 1)
        .filter_map(|run| run.first().map(|&(v, _)| (run.len(), std::cmp::Reverse(v))))
        .max()
        .map(|(_, std::cmp::Reverse(v))| v)
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
    fn what_if_probe_sequence_matches_a_cold_pool_bitwise() {
        let mut cache = CircuitCache::new();
        let mut pr = seed_probs(&mut cache, &[(2, 0.3), (3, 0.4), (13, 0.1)]);
        let ev = Evaluator::default();
        let l = example();
        cache.score_lineage(&l, &ev).unwrap();
        for step in 1..=5u64 {
            let p3 = 0.4 + 0.1 * step as f64 / 5.0;
            cache.set_prob(VarId(3), p3);
            pr.insert(VarId(3), p3);
            let probed = cache.score_lineage(&l, &ev).unwrap();
            let mut cold = CircuitCache::new();
            pr.iter().for_each(|(&v, &p)| cold.set_prob(v, p));
            let fresh = cold.score_lineage(&l, &ev).unwrap();
            assert_eq!(probed.to_bits(), fresh.to_bits(), "step {step}");
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
    fn var_leaves_stay_out_of_dedup_and_still_count_as_hits() {
        let mut cache = CircuitCache::new();
        seed_probs(&mut cache, &[(2, 0.3), (3, 0.4), (13, 0.1)]);
        cache.compile(&example(), 16).unwrap();
        assert_eq!(cache.pool_size(), 5, "three leaves, the OR, the AND");
        assert!(cache.dedup.keys().all(|k| !matches!(k, NodeKey::Var(_))));
        assert_eq!(cache.stats().compile_hits, 0);
        // A second formula over the same tuples finds all three leaves.
        let again = Lineage::or(vec![Lineage::var(13), Lineage::var(2), Lineage::var(3)]);
        cache.compile(&again, 16).unwrap();
        assert_eq!(cache.stats().compile_hits, 3);
        assert_eq!(cache.pool_size(), 6, "only the new OR");
    }

    #[test]
    fn only_subformulas_an_expansion_paid_for_are_memoized() {
        let mut cache = CircuitCache::new();
        cache.compile(&example(), 16).unwrap();
        assert!(cache.subformulas.is_empty(), "read-once: one pass, no memo");
        // (v0 ∧ v1) ∨ (v1 ∧ v2) ∨ (v2 ∧ v3) factors to
        // (v2 ∧ v3) ∨ (v1 ∧ (v0 ∨ v2)), one expansion on v2 whose
        // cofactors, v3 ∨ v1 and v1 ∧ v0, are read-once.
        let pair = |a: u64, b: u64| Lineage::And(vec![Lineage::var(a), Lineage::var(b)]);
        let chain = Lineage::Or(vec![pair(0, 1), pair(1, 2), pair(2, 3)]);
        let id = cache.compile(&chain, 16).unwrap();
        assert_eq!(cache.roots[id.at].cost, 1);
        let normal = normalize(&chain);
        assert!(!normal.read_once);
        assert_eq!(normal.vars, chain.vars());
        let memo: Vec<_> = cache.subformulas.iter().collect();
        assert_eq!(memo, [(&normal.formula, &(cache.roots[id.at].root, 1))]);
        // Compiled again under another spelling, the formula is a memo hit
        // that charges its cost and adds no node.
        let (size, hits) = (cache.pool_size(), cache.stats().compile_hits);
        let respelled = Lineage::And(vec![chain.clone(), Lineage::Const(true)]);
        let refused = Err(LineageError::BudgetExceeded { budget: 0 });
        assert_eq!(cache.compile(&respelled, 0).map(|_| ()), refused);
        assert!(cache.compile(&respelled, 1).is_ok());
        assert_eq!(cache.pool_size(), size);
        assert_eq!(cache.stats().compile_hits, hits + 1);
    }

    #[test]
    fn budget_parity_with_fresh_compiles() {
        // For every budget, a memo hit and the standalone compile that
        // wraps the pool must agree with a compile into an empty pool on
        // success/failure and on the error value — and that compile
        // succeeds exactly from the cost it records on.
        let mut children = Vec::new();
        for i in 0..8u64 {
            children.push(Lineage::And(vec![Lineage::var(i), Lineage::var(i + 1)]));
        }
        let l = Lineage::Or(children);
        let mut warmed = CircuitCache::new();
        let id = warmed.compile(&l, 1 << 16).unwrap(); // warm the memo
        let cost = warmed.roots[id.at].cost;
        assert!(cost > 0, "the chain needs an expansion");
        for budget in 0..64usize {
            let mut cold = CircuitCache::new();
            let miss = cold.compile(&l, budget).map(|_| ());
            let hit = warmed.compile(&l, budget).map(|_| ());
            let standalone = CompiledLineage::compile(&l, budget).map(|_| ());
            let refused = Err(LineageError::BudgetExceeded { budget: 0 });
            assert_eq!(miss, if budget < cost { refused } else { Ok(()) });
            assert_eq!(miss, hit, "budget {budget} (memo hit)");
            assert_eq!(miss, standalone, "budget {budget} (standalone)");
        }
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
        pr.iter().for_each(|(&v, &p)| cache.set_prob(v, p));
        let scored = cache.score(id).unwrap();
        let slots: Vec<f64> = pooled.vars().iter().map(|v| pr[v]).collect();
        assert_eq!(pooled.eval(&slots).to_bits(), scored.to_bits());
        assert_eq!(standalone.eval(&slots).to_bits(), scored.to_bits());
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a test listener that captures what it hears across the observer's Sync bound"
    )]
    fn attached_listener_sees_compile_hit_and_invalidate() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Probe(Mutex<Vec<(String, String)>>);
        impl Observer for Probe {
            fn timeline(&self) -> Option<&dyn Observer> {
                Some(self)
            }
            fn instant(&self, name: &str, detail: &str) {
                self.0.lock().unwrap().push((name.into(), detail.into()));
            }
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

    /// The pivot rule as it was first written: a set of variables per
    /// child, a map of how many children hold each, the most-held variable
    /// and the smallest on a tie.
    fn reference_most_shared_var(children: &[Lineage]) -> Option<VarId> {
        let mut seen: BTreeMap<VarId, usize> = BTreeMap::new();
        for child in children {
            for v in child.vars() {
                *seen.entry(v).or_insert(0) += 1;
            }
        }
        seen.into_iter()
            .filter(|&(_, c)| c > 1)
            .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
            .map(|(v, _)| v)
    }

    #[test]
    fn pivot_matches_its_reference_definition_on_seeded_children() {
        let mut rng = Rng64::seed_from_u64(0x51AA_9107);
        let (mut pivots, mut none) = (0, 0);
        for case in 0..600u32 {
            // Few variables against many children: counts tie all the
            // time, and a child often repeats a variable of its own.
            let n = [1, 2, 3, 5, 12, 40, 400][case as usize % 7];
            let universe = 2 + rng.below_u64(2 * n as u64);
            let children: Vec<Lineage> = (0..n)
                .map(|_| match rng.below_u64(4) {
                    0 => Lineage::var(rng.below_u64(universe)),
                    1 => Lineage::Not(Box::new(Lineage::var(rng.below_u64(universe)))),
                    _ => Lineage::And(
                        (0..rng.range_usize(1, 5))
                            .map(|_| Lineage::var(rng.below_u64(universe)))
                            .collect(),
                    ),
                })
                .collect();
            let want = reference_most_shared_var(&children);
            assert_eq!(most_shared_var(&children), want, "case {case}");
            pivots += usize::from(want.is_some());
            none += usize::from(want.is_none());
        }
        assert!(pivots > 200 && none > 50, "{pivots} / {none}");
    }

    #[test]
    fn pivot_ties_go_to_the_smallest_variable_and_repeats_count_once() {
        let and = |vs: &[u64]| Lineage::And(vs.iter().map(|&v| Lineage::var(v)).collect());
        // 3, 5 and 9 are each in two children: the smallest wins.
        let tie = [and(&[9, 5]), and(&[5, 3]), and(&[3, 9])];
        assert_eq!(most_shared_var(&tie), Some(VarId(3)));
        // 7 occurs three times but in one child; 8 is in two children.
        let repeated = [and(&[7, 7, 7, 8]), and(&[8, 1])];
        assert_eq!(most_shared_var(&repeated), Some(VarId(8)));
        // A variable repeated only inside one child shares nothing.
        assert_eq!(most_shared_var(&[and(&[7, 7]), and(&[1, 2])]), None);
        assert_eq!(most_shared_var(&[]), None);
    }
}
