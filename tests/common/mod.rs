//! Shared support for the seeded property suites.
//!
//! The workspace builds fully offline, so the former `proptest` suites
//! are driven by the in-repo [`Rng64`] generator instead: each test runs
//! a fixed number of cases, each case derived from a per-case seed, so a
//! failure prints the exact seed needed to replay it in isolation. The
//! equivalence suites draw their databases and queries from one generator
//! (`generate.rs`) and hold every path to one reference pipeline
//! (`check.rs`) around one reference executor (`reference.rs`) and one
//! reference confidence interpreter (`interpreter.rs`). The solver suite
//! holds the branch-and-bound search to one exhaustive enumeration of the
//! grid (`exhaustive.rs`), and every solver's answer to one check
//! (`solution_check.rs`).

#![allow(dead_code)]

mod check;
pub mod exhaustive;
mod generate;
pub mod interpreter;
mod reference;
pub mod solution_check;

pub use check::*;
pub use generate::*;
use pcqe::core::state::EvalState;
use pcqe::core::{ProblemInstance, Solution};
use pcqe::cost::CostFn;
use pcqe::engine::{Database, StatementOutcome};
use pcqe::lineage::{Lineage, Rng64};
use pcqe::obs::trace::TraceEventKind;
use pcqe::obs::{MetricsSnapshot, QueryTrace};
use pcqe::par::Decision;
use pcqe::policy::ConfidencePolicy;
use pcqe::storage::{real_cmp, Catalog, DataType, TupleId, Value};
pub use reference::*;
use std::panic::AssertUnwindSafe;
use std::path::Path;

/// What of a metrics snapshot no listener, worker count or clock may
/// move, one line per metric: every counter and span count (a span's
/// total is a time, so it is left out).
pub fn comparable_metrics(snap: &MetricsSnapshot) -> Vec<String> {
    let counters = (snap.counters.iter()).map(|(n, v)| format!("counter {n} = {v}"));
    let spans = (snap.spans.iter()).map(|(n, s)| format!("span {n} count = {}", s.count));
    counters.chain(spans).collect()
}

/// The gate's decisions on `trace`'s timeline, in timeline order.
pub fn decisions(trace: &QueryTrace) -> Vec<&Decision> {
    (trace.events.iter())
        .filter_map(|e| match &e.kind {
            TraceEventKind::Decision(d) => Some(d),
            _ => None,
        })
        .collect()
}

/// Base tuples across every table of `catalog`.
pub fn total_rows(catalog: &Catalog) -> usize {
    (catalog.table_names().into_iter())
        .filter_map(|name| catalog.table(name).ok())
        .map(|table| table.len())
        .sum()
}

/// Run `f` once per case with an independently seeded generator.
///
/// Each case's RNG is seeded from `base_seed` mixed with the case index,
/// so cases are independent and any failure is replayable: the panic
/// message names the case index and exact seed.
pub fn for_each_case(cases: u64, base_seed: u64, mut f: impl FnMut(&mut Rng64)) {
    for case in 0..cases {
        let seed = base_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng64::seed_from_u64(seed);
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut rng))) {
            eprintln!("seeded suite failed at case {case} (seed {seed:#018x})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// A random lineage formula over variables `0..max_vars`, negation and
/// constants included (the shape space of the old proptest strategy).
pub fn random_lineage(rng: &mut Rng64, max_vars: u64, depth: u32) -> Lineage {
    // At depth 0 — or one time in four — emit a leaf.
    if depth == 0 || rng.below_u64(4) == 0 {
        if rng.chance(0.75) {
            Lineage::var(rng.below_u64(max_vars))
        } else {
            Lineage::Const(rng.chance(0.5))
        }
    } else {
        match rng.below_u64(3) {
            0 => Lineage::not(random_lineage(rng, max_vars, depth - 1)),
            1 => Lineage::and(
                (0..rng.range_usize(1, 4))
                    .map(|_| random_lineage(rng, max_vars, depth - 1))
                    .collect(),
            ),
            _ => Lineage::or(
                (0..rng.range_usize(1, 4))
                    .map(|_| random_lineage(rng, max_vars, depth - 1))
                    .collect(),
            ),
        }
    }
}

/// A random negation-free lineage over variables `0..max_vars` (the
/// monotone shape space assumed by the solvers' pruning rules).
pub fn random_positive_lineage(rng: &mut Rng64, max_vars: u64, depth: u32) -> Lineage {
    if depth == 0 || rng.below_u64(4) == 0 {
        Lineage::var(rng.below_u64(max_vars))
    } else if rng.chance(0.5) {
        Lineage::and(
            (0..rng.range_usize(1, 4))
                .map(|_| random_positive_lineage(rng, max_vars, depth - 1))
                .collect(),
        )
    } else {
        Lineage::or(
            (0..rng.range_usize(1, 4))
                .map(|_| random_positive_lineage(rng, max_vars, depth - 1))
                .collect(),
        )
    }
}

/// `n` uniform probabilities in `[0, 1)`.
pub fn random_probs(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.next_f64()).collect()
}

/// A random string of length `0..=max_len` drawn from `alphabet`.
pub fn random_string(rng: &mut Rng64, alphabet: &[char], max_len: usize) -> String {
    let len = rng.below_usize(max_len + 1);
    (0..len)
        .map(|_| alphabet[rng.below_usize(alphabet.len())])
        .collect()
}

/// A random Unicode scalar value (any `char`, surrogates excluded).
pub fn random_char(rng: &mut Rng64) -> char {
    loop {
        if let Some(c) = char::from_u32(rng.below_u64(0x11_0000) as u32) {
            return c;
        }
    }
}

/// Assert every table's column images are in step with its rows, read
/// through `Image::failing` as a scan reads them: a `REAL` column has an
/// image whose slot is native, with the row's very bits, exactly where the
/// row holds a `Real`, and no native slot past its last row; a column of
/// another type has none.
pub fn assert_images_aligned(catalog: &Catalog, context: &str) {
    for name in catalog.table_names() {
        let table = catalog.table(name).expect("listed table");
        for (c, column) in table.schema().columns().iter().enumerate() {
            let at = format!("{name}.{}: {context}", column.name);
            let Some(image) = table.image(c) else {
                assert_ne!(column.data_type, DataType::Real, "no image of {at}");
                continue;
            };
            assert_eq!(column.data_type, DataType::Real, "an image of {at}");
            // Bit `pos % 64` of the slots in word `pos / 64` that fail `keep`.
            let fails = |pos: usize, keep: &dyn Fn(f64) -> bool| {
                image.failing(pos / 64, keep) >> (pos % 64) & 1 == 1
            };
            // A slot is native iff it fails a test that keeps nothing.
            let native = |pos: usize| fails(pos, &|_| false);
            let rows = table.rows();
            for (pos, row) in rows.iter().enumerate() {
                match row.tuple.get(c) {
                    Some(Value::Real(r)) => {
                        let holds = !fails(pos, &|v| v.to_bits() == r.to_bits());
                        assert!(native(pos) && holds, "row {pos} of {at}: not {r:?}");
                    }
                    _ => assert!(!native(pos), "row {pos} of {at}: native, not a Real"),
                }
            }
            let past = rows.len()..rows.len().next_multiple_of(64) + 64;
            assert!(
                !past.into_iter().any(native),
                "a slot past the rows of {at}"
            );
        }
    }
}

/// The paper's Section 3.1 query over [`paper_db`].
pub const PAPER_QUERY: &str = "SELECT DISTINCT CompanyInfo.company, income \
    FROM Proposal JOIN CompanyInfo ON Proposal.company = CompanyInfo.company \
    WHERE funding < 1000000.0";

/// The Section 3.1 tables: SkyCam's two proposals t0 and t1 (confidence
/// 0.3 and 0.4) and its company row t2 (0.1).
pub fn paper_spec() -> DbSpec {
    let (text, real) = (DataType::Text, DataType::Real);
    let proposal = |name: &str, funding| {
        vec![
            Value::text("SkyCam"),
            Value::text(name),
            Value::Real(funding),
        ]
    };
    DbSpec::default()
        .table(
            "Proposal",
            &[("company", text), ("proposal", text), ("funding", real)],
        )
        .row(0.3, proposal("drone v1", 800_000.0))
        .row(0.4, proposal("drone v2", 900_000.0))
        .table("CompanyInfo", &[("company", text), ("income", real)])
        .row(0.1, vec![Value::text("SkyCam"), Value::Real(500_000.0)])
}

/// [`paper_spec`] loaded into `db`, with cost rates 1 000, 100 and
/// 10 000 on t0–t2; the Secretary's β = 0.05 releases the running
/// example's one result, the Manager's 0.06 withholds it.
pub fn paper_db(mut db: Database) -> Database {
    paper_spec().load(&mut db, false);
    for (id, rate) in [(0, 1000.0), (1, 100.0), (2, 10_000.0)] {
        db.set_cost(TupleId(id), CostFn::linear(rate).unwrap())
            .unwrap();
    }
    db.add_policy(ConfidencePolicy::new("Secretary", "analysis", 0.05).unwrap());
    db.add_policy(ConfidencePolicy::new("Manager", "investment", 0.06).unwrap());
    db
}

/// What an `EXPLAIN [ANALYZE] …` `statement` renders through
/// [`Database::execute`]; any other outcome is a bug in the caller.
pub fn explained(db: &mut Database, statement: &str) -> pcqe::engine::Result<String> {
    match db.execute(statement)? {
        StatementOutcome::Explained(text) => Ok(text),
        other => panic!("`{statement}` explained nothing: {other:?}"),
    }
}

/// The two-phase greedy as Figure 6 prints it — every base probed again on
/// every iteration, `O(k · l₁)` — kept as the reference the production
/// solver's lazy heap is held against. Sequential, both phases; written
/// against [`EvalState`]'s public methods only. Returns the solution with
/// the phase-1 step and phase-2 roll-back counts.
pub fn rescan_greedy(problem: &ProblemInstance) -> (Solution, u64, u64) {
    let mut state = EvalState::new(problem);
    let k = problem.bases.len();
    // gain* of the latest step on each base; NaN = never raised.
    let mut last_gain = vec![f64::NAN; k];
    let mut raised = Vec::new();
    let mut iterations = 0;
    while !state.meets_quota() {
        let mut best: Option<(f64, usize)> = None;
        let mut cheapest: Option<(f64, usize)> = None;
        for i in 0..k {
            let cost = state.next_step_cost(i);
            let results = problem.results_of_base(i);
            if !cost.is_finite() || results.iter().all(|&ri| state.is_satisfied(ri)) {
                continue; // at its maximum, or nothing left for it to move
            }
            let num = state.probe_step_gain(i);
            let gain = match (cost > 0.0, num > 0.0) {
                (true, _) => num / cost,
                (false, true) => f64::INFINITY,
                (false, false) => 0.0,
            };
            if gain > 0.0 && best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, i));
            }
            if cheapest.is_none_or(|(c, _)| cost < c) {
                cheapest = Some((cost, i));
            }
        }
        // On a plateau (no step gains anything) take the cheapest step
        // towards an unsatisfied result, at gain* = 0.
        let (gain, pick) = best
            .or(cheapest.map(|(_, i)| (0.0, i)))
            .expect("a feasible instance has a step left");
        state.step_up(pick);
        if last_gain[pick].is_nan() {
            raised.push(pick);
        }
        last_gain[pick] = gain;
        iterations += 1;
    }
    raised.sort_by(|&a, &b| real_cmp(last_gain[a], last_gain[b]).then(a.cmp(&b)));
    let mut reductions = 0;
    for &i in &raised {
        while state.step_down(i) {
            if !state.meets_quota() {
                state.step_up(i);
                break;
            }
            reductions += 1;
        }
    }
    (state.to_solution(), iterations, reductions)
}

/// Write `manifest` as the `manifest.tsv` of a directory a test saves by
/// hand, sealed the way `persist::save` seals one: every `end` line gets
/// the FNV-1a checksum of its table's CSV (already in `dir`), any old
/// `checksum` line is dropped, and a closing `checksum` line covers every
/// byte before it. A second spelling of the format, written from its
/// description rather than shared with `persist`.
pub fn write_sealed_manifest(dir: &Path, manifest: &str) {
    let fnv1a = |bytes: &[u8]| {
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        format!("{hash:016x}")
    };
    let mut sealed = String::new();
    let mut table = "";
    for line in manifest.lines() {
        if let Some(name) = line.strip_prefix("table\t") {
            table = name;
        }
        if line == "end" || line.starts_with("end\t") {
            let csv = std::fs::read(dir.join(format!("{table}.csv"))).unwrap();
            sealed.push_str(&format!("end\t{}\n", fnv1a(&csv)));
        } else if !line.starts_with("checksum\t") {
            sealed.push_str(&format!("{line}\n"));
        }
    }
    sealed.push_str(&format!("checksum\t{}\n", fnv1a(sealed.as_bytes())));
    std::fs::write(dir.join("manifest.tsv"), sealed).unwrap();
}
