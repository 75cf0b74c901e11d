//! Result sets: derived tuples with lineage, and confidence scoring.

use crate::error::AlgebraError;
use crate::Result;
use pcqe_lineage::{CircuitCache, Evaluator, Lineage, ProbSource};
use pcqe_par::{ConfidencePath, TraceSink};
use pcqe_storage::{Schema, StoredTuple, Tuple, Value};
use std::fmt;

/// One derived tuple: values plus the boolean lineage deriving it.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedTuple {
    /// The tuple's values.
    pub tuple: Tuple,
    /// Lineage over base-tuple variables.
    pub lineage: Lineage,
}

/// Read access to one operator-input row — a derived tuple, or a stored
/// base tuple still borrowed from its table — so operators that only
/// read their input need not own it.
pub(crate) trait Row: Sync {
    /// The row's values in column order.
    fn values(&self) -> &[Value];
    /// The row's lineage, for an output row that outlives this one.
    fn lineage(&self) -> Lineage;
    /// The row's lineage, giving the row up.
    fn into_lineage(self) -> Lineage;
}

impl Row for DerivedTuple {
    fn values(&self) -> &[Value] {
        self.tuple.values()
    }

    fn lineage(&self) -> Lineage {
        self.lineage.clone()
    }

    fn into_lineage(self) -> Lineage {
        self.lineage
    }
}

/// A base tuple's lineage is its own variable.
impl Row for &StoredTuple {
    fn values(&self) -> &[Value] {
        self.tuple.values()
    }

    fn lineage(&self) -> Lineage {
        Lineage::var(self.id.0)
    }

    fn into_lineage(self) -> Lineage {
        Lineage::var(self.id.0)
    }
}

/// A derived tuple with its computed confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredTuple {
    /// The tuple's values.
    pub tuple: Tuple,
    /// Lineage over base-tuple variables.
    pub lineage: Lineage,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
}

/// The output of executing a plan: a schema and derived tuples.
#[derive(Debug, Clone)]
pub struct ResultSet {
    schema: Schema,
    rows: Vec<DerivedTuple>,
}

impl ResultSet {
    /// Construct a result set.
    pub fn new(schema: Schema, rows: Vec<DerivedTuple>) -> Self {
        ResultSet { schema, rows }
    }

    /// The result schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The derived rows.
    pub fn rows(&self) -> &[DerivedTuple] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Consume the result set, yielding its rows.
    pub fn into_rows(self) -> Vec<DerivedTuple> {
        self.rows
    }

    /// Compute every row's confidence from base-tuple probabilities,
    /// uncached — the reference the equivalence suites hold
    /// [`Self::score_with`] to, bit for bit.
    pub fn score<P: ProbSource>(
        &self,
        probs: &P,
        evaluator: &Evaluator,
    ) -> Result<Vec<ScoredTuple>> {
        self.rows
            .iter()
            .map(|row| {
                let confidence = evaluator
                    .probability(&row.lineage, probs)
                    .map_err(|e| AlgebraError::Lineage(e.to_string()))?;
                Ok(ScoredTuple {
                    tuple: row.tuple.clone(),
                    lineage: row.lineage.clone(),
                    confidence,
                })
            })
            .collect()
    }

    /// Score every row through a shared [`CircuitCache`] — the engine's
    /// one scoring implementation; what varies between callers is data in
    /// [`ScoreOptions`].
    ///
    /// Rows with equal or overlapping lineage share compiled subcircuits
    /// and memoized probabilities. Exact confidences are bit-identical to
    /// [`Self::score`] whenever `cache.probs()` agrees with the probability
    /// source that was given — the cache replays the interpreter's float
    /// operations in the same order, and memo hits return the identical
    /// f64. The pass is sequential by construction (memoized evaluation is
    /// a shared-state walk), which is what makes it thread-count
    /// independent: there is no scheduling to vary.
    ///
    /// **β-gating** (`gate: Some(β)`): a policy admits a row iff its
    /// confidence is *strictly* greater than β. The Fréchet upper bound
    /// ([`pcqe_lineage::upper_bound`], linear in lineage size) is sound
    /// under any dependence structure, so `upper ≤ β` implies `exact ≤ β` —
    /// the row is withheld either way and exact evaluation is skipped.
    /// Skipped rows carry their upper bound as `confidence` (a labelled
    /// over-estimate, never an admit) and are flagged in
    /// [`GatedScore::skipped`] so callers that later need exact values
    /// (strategy finding over withheld rows) can re-score just those rows
    /// via [`Self::rescore_exact_cached`]. With `gate: None` no bound is
    /// computed and no row is flagged.
    ///
    /// The per-row [`ConfidencePath`] report says how each gate-facing
    /// confidence was obtained: `BetaSkipped` for gated rows, `CacheHit`
    /// when the whole circuit came from the root memo, `Exact` when
    /// compilation (or the Monte-Carlo fallback) ran. The pass is chunked
    /// by morsel so each chunk surfaces one single-worker
    /// [`pcqe_par::BatchReport`] to the observer; gate instants
    /// (`beta.skip` / `score.exact`) go to the trace sink **after** the
    /// pass, in row order. Chunking and both sinks change *reporting*,
    /// never evaluation: scores, flags, paths and cache transitions are
    /// identical for any options that agree on `gate`.
    pub fn score_with(
        &self,
        cache: &mut CircuitCache,
        evaluator: &Evaluator,
        options: &ScoreOptions<'_>,
    ) -> Result<(GatedScore, Vec<ConfidencePath>)> {
        let lineage_err = |e: pcqe_lineage::LineageError| AlgebraError::Lineage(e.to_string());
        let n = self.rows.len();
        let mut scored = Vec::with_capacity(n);
        let mut skipped = Vec::with_capacity(n);
        let mut paths = Vec::with_capacity(n);
        let mut exact_skipped = 0usize;
        for chunk in self.rows.chunks(pcqe_storage::morsel_rows(n).max(1)) {
            let started = options.observer.map(|o| o.now_nanos());
            for row in chunk {
                let bound = match options.gate {
                    Some(beta) => Some(
                        pcqe_lineage::upper_bound(&row.lineage, cache.probs())
                            .map_err(lineage_err)?,
                    )
                    .filter(|upper| *upper <= beta),
                    None => None,
                };
                let (confidence, path) = match bound {
                    Some(upper) => (upper, ConfidencePath::BetaSkipped),
                    None => {
                        let before = cache.stats();
                        let exact = cache
                            .score_lineage(&row.lineage, evaluator)
                            .map_err(lineage_err)?;
                        (exact, classify_cached(before, cache.stats()))
                    }
                };
                scored.push(ScoredTuple {
                    tuple: row.tuple.clone(),
                    lineage: row.lineage.clone(),
                    confidence,
                });
                skipped.push(bound.is_some());
                paths.push(path);
                exact_skipped += usize::from(bound.is_some());
            }
            if let (Some(obs), Some(t0)) = (options.observer, started) {
                let busy = obs.now_nanos().saturating_sub(t0);
                obs.batch(&pcqe_par::BatchReport::sequential(chunk.len(), 1, busy));
            }
        }
        let gated = GatedScore {
            scored,
            skipped,
            exact_skipped,
        };
        if let Some(sink) = options.trace {
            emit_gate_instants(sink, &gated);
        }
        Ok((gated, paths))
    }

    /// [`Self::score_with`], exact and unobserved: every row's confidence
    /// through the cache.
    pub fn score_cached(
        &self,
        cache: &mut CircuitCache,
        evaluator: &Evaluator,
    ) -> Result<Vec<ScoredTuple>> {
        self.score_with(cache, evaluator, &ScoreOptions::default())
            .map(|(gated, _)| gated.scored)
    }

    /// [`Self::score_with`], gated at `beta` and unobserved.
    pub fn score_gated_cached(
        &self,
        cache: &mut CircuitCache,
        evaluator: &Evaluator,
        beta: f64,
    ) -> Result<GatedScore> {
        let options = ScoreOptions {
            gate: Some(beta),
            ..ScoreOptions::default()
        };
        self.score_with(cache, evaluator, &options)
            .map(|(gated, _)| gated)
    }

    /// Replace bound-valued confidences with exact ones for the rows
    /// flagged in `skipped` (in place over a [`GatedScore::scored`]
    /// vector), served from (and memoized into) the pool. Used before
    /// computing improvement strategies over withheld tuples, which need
    /// true confidences. Returns the number of rows re-scored.
    pub fn rescore_exact_cached(
        scored: &mut [ScoredTuple],
        skipped: &[bool],
        cache: &mut CircuitCache,
        evaluator: &Evaluator,
    ) -> Result<usize> {
        let mut n = 0usize;
        for (i, &was_skipped) in skipped.iter().enumerate() {
            if !was_skipped {
                continue;
            }
            if let Some(s) = scored.get_mut(i) {
                s.confidence = cache
                    .score_lineage(&s.lineage, evaluator)
                    .map_err(|e| AlgebraError::Lineage(e.to_string()))?;
                n += 1;
            }
        }
        Ok(n)
    }
}

/// What varies between callers of [`ResultSet::score_with`]. The default
/// is exact, unobserved scoring.
#[derive(Clone, Copy, Default)]
pub struct ScoreOptions<'a> {
    /// The policy threshold β to gate at; `None` scores every row exactly
    /// and never computes the Fréchet bound.
    pub gate: Option<f64>,
    /// Scheduler observer: receives one batch report per scored morsel.
    pub observer: Option<&'a dyn pcqe_par::ParObserver>,
    /// Causal-trace sink: receives one gate instant per row.
    pub trace: Option<&'a dyn TraceSink>,
}

/// The outcome of [`ResultSet::score_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct GatedScore {
    /// One scored tuple per result row, in row order. Rows with
    /// `skipped[i] == true` carry their confidence *upper bound* (≤ β)
    /// instead of the exact value.
    pub scored: Vec<ScoredTuple>,
    /// Per-row flag: `true` when exact evaluation was short-circuited.
    pub skipped: Vec<bool>,
    /// Number of rows whose exact evaluation was skipped
    /// (`skipped.iter().filter(|s| **s).count()`).
    pub exact_skipped: usize,
}

/// Classify one cached scoring step from the stats delta it left: no
/// fresh root compile plus at least one compile-memo hit means the pool
/// answered ([`ConfidencePath::CacheHit`]); anything else ran fresh
/// arithmetic ([`ConfidencePath::Exact`], including the Monte-Carlo
/// fallback).
fn classify_cached(
    before: pcqe_lineage::CacheStats,
    after: pcqe_lineage::CacheStats,
) -> ConfidencePath {
    if after.compiled == before.compiled && after.compile_hits > before.compile_hits {
        ConfidencePath::CacheHit
    } else {
        ConfidencePath::Exact
    }
}

/// One `beta.skip` / `score.exact` instant per row, in row order. The
/// payload carries the row index only: the skipped row's Fréchet upper
/// bound and the β it lost to are deliberately not rendered — trace
/// files travel further than the audit log, and the Decision record is
/// the designed outlet for those values (PCQE-F002, PCQE-F003).
fn emit_gate_instants(sink: &dyn TraceSink, gated: &GatedScore) {
    for (i, &was_skipped) in gated.skipped.iter().enumerate() {
        if was_skipped {
            sink.instant("beta.skip", &format!("row={i}"));
        } else {
            sink.instant("score.exact", &format!("row={i}"));
        }
    }
}

impl fmt::Display for ResultSet {
    /// Render the result set as a `header | header` text table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.display_name())
            .collect();
        writeln!(f, "{}", headers.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.tuple.values().iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcqe_lineage::VarId;
    use pcqe_storage::{Column, DataType, Value};
    use std::collections::HashMap;

    fn simple() -> ResultSet {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]).unwrap();
        ResultSet::new(
            schema,
            vec![
                DerivedTuple {
                    tuple: Tuple::new(vec![Value::Int(1)]),
                    lineage: Lineage::var(0),
                },
                DerivedTuple {
                    tuple: Tuple::new(vec![Value::Int(2)]),
                    lineage: Lineage::and(vec![Lineage::var(0), Lineage::var(1)]),
                },
            ],
        )
    }

    #[test]
    fn scoring_computes_probabilities() {
        let rs = simple();
        let probs: HashMap<VarId, f64> = [(VarId(0), 0.5), (VarId(1), 0.4)].into_iter().collect();
        let scored = rs.score(&probs, &Evaluator::default()).unwrap();
        assert_eq!(scored.len(), 2);
        assert!((scored[0].confidence - 0.5).abs() < 1e-12);
        assert!((scored[1].confidence - 0.2).abs() < 1e-12);
    }

    #[test]
    fn scoring_fails_on_unknown_base_tuple() {
        let rs = simple();
        let probs: HashMap<VarId, f64> = [(VarId(0), 0.5)].into_iter().collect();
        assert!(matches!(
            rs.score(&probs, &Evaluator::default()),
            Err(AlgebraError::Lineage(_))
        ));
    }

    #[test]
    fn display_renders_table() {
        let text = simple().to_string();
        assert!(text.starts_with("x\n"));
        assert!(text.contains('2'));
    }

    fn seeded_cache(probs: &HashMap<VarId, f64>) -> CircuitCache {
        let mut cache = CircuitCache::new();
        let mut sorted: Vec<(VarId, f64)> = probs.iter().map(|(&v, &p)| (v, p)).collect();
        sorted.sort_by_key(|&(v, _)| v);
        for (v, p) in sorted {
            cache.set_prob(v, p);
        }
        cache
    }

    #[test]
    fn cached_scoring_is_bit_identical_to_plain() {
        let rs = simple();
        let probs: HashMap<VarId, f64> = [(VarId(0), 0.5), (VarId(1), 0.4)].into_iter().collect();
        let plain = rs.score(&probs, &Evaluator::default()).unwrap();
        let mut cache = seeded_cache(&probs);
        // Score twice: the second pass is pure memo hits and must not
        // perturb a single bit.
        for pass in 0..2 {
            let cached = rs.score_cached(&mut cache, &Evaluator::default()).unwrap();
            assert_eq!(cached.len(), plain.len());
            for (c, p) in cached.iter().zip(&plain) {
                assert_eq!(
                    c.confidence.to_bits(),
                    p.confidence.to_bits(),
                    "pass {pass}"
                );
            }
        }
        assert!(cache.stats().hits() > 0);
    }

    #[test]
    fn gated_scoring_skips_exactly_the_rows_the_bound_proves_failing() {
        let rs = simple();
        let probs: HashMap<VarId, f64> = [(VarId(0), 0.5), (VarId(1), 0.4)].into_iter().collect();
        let exact = rs.score(&probs, &Evaluator::default()).unwrap();
        // Row 0: exact 0.5; row 1 (AND): exact 0.2, upper bound
        // min(0.5, 0.4) = 0.4. β = 0.45 skips row 1 only; β = 0.1 skips
        // nothing.
        for (beta, expect_skipped) in [(0.45, vec![false, true]), (0.1, vec![false, false])] {
            let mut cache = seeded_cache(&probs);
            let gated = rs
                .score_gated_cached(&mut cache, &Evaluator::default(), beta)
                .unwrap();
            assert_eq!(gated.skipped, expect_skipped, "beta={beta}");
            assert_eq!(
                gated.exact_skipped,
                expect_skipped.iter().filter(|s| **s).count()
            );
            for ((g, e), row) in gated.scored.iter().zip(&exact).zip(rs.rows()) {
                // The reference: a row is skipped iff its Fréchet bound
                // is ≤ β, and then carries that bound; every other row
                // carries the uncached exact confidence, bit for bit.
                let upper = pcqe_lineage::upper_bound(&row.lineage, &probs).unwrap();
                let expected = if upper <= beta { upper } else { e.confidence };
                assert_eq!(g.confidence.to_bits(), expected.to_bits(), "beta={beta}");
                // Classification against β is identical to exact scoring.
                assert_eq!(g.confidence > beta, e.confidence > beta);
            }
        }
    }

    #[test]
    fn cached_rescore_restores_exact_confidences() {
        let rs = simple();
        let probs: HashMap<VarId, f64> = [(VarId(0), 0.5), (VarId(1), 0.4)].into_iter().collect();
        let mut cache = seeded_cache(&probs);
        let mut cached = rs
            .score_gated_cached(&mut cache, &Evaluator::default(), 0.45)
            .unwrap();
        let n = ResultSet::rescore_exact_cached(
            &mut cached.scored,
            &cached.skipped,
            &mut cache,
            &Evaluator::default(),
        )
        .unwrap();
        assert_eq!(n, 1);
        let exact = rs.score(&probs, &Evaluator::default()).unwrap();
        for (c, p) in cached.scored.iter().zip(&exact) {
            assert_eq!(c.confidence.to_bits(), p.confidence.to_bits());
        }
    }
}
