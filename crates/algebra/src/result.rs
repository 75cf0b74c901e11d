//! Result sets: derived tuples with lineage, and confidence scoring.

use crate::error::AlgebraError;
use crate::Result;
use pcqe_lineage::{bounds, Bounds, CircuitCache, Evaluator, Lineage, LineageError};
use pcqe_par::ConfidencePath;
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
pub(crate) trait Row {
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

    /// Score every row through a shared [`CircuitCache`] — the engine's
    /// one scoring implementation; what varies between callers is the
    /// policy threshold `gate`. The result set is consumed: each row's
    /// tuple and lineage move into its [`ScoredTuple`], and the schema into
    /// the [`GatedScore`], so nothing is copied.
    ///
    /// Rows with equal or overlapping lineage share compiled subcircuits
    /// and memoized probabilities. Exact confidences are bit-identical to
    /// those of a fresh [`CircuitCache`] holding the same probabilities —
    /// memo hits return the identical f64 — so they depend on the
    /// assignment alone, never on what the pool saw before. The pass is
    /// sequential by construction (memoized evaluation is a shared-state
    /// walk), which is what makes it thread-count independent: there is no
    /// scheduling to vary.
    ///
    /// **β-gating** (`gate: Some(β)`): a policy admits a row iff its
    /// confidence is *strictly* greater than β, and every gate-facing
    /// confidence is exact or a sound bound on the side that makes that
    /// verdict right. One Fréchet walk per gated row
    /// ([`pcqe_lineage::bounds`], linear in lineage size, sound under any
    /// dependence structure) gives both ends. `upper ≤ β` implies
    /// `exact ≤ β`: the row is withheld without exact evaluation, carries
    /// its upper bound (a labelled over-estimate, never an admit) and is
    /// flagged in [`GatedScore::skipped`]. A row whose exact evaluation runs
    /// past the evaluator's Shannon budget carries the lower bound, which
    /// clears β only if the exact value does. With `gate: None` the walk
    /// runs only for a row past the budget, and no row is flagged.
    ///
    /// The per-row [`ConfidencePath`] report says what each gate-facing
    /// confidence is: `BetaSkipped` for skipped rows (an upper bound),
    /// `Bounded` for rows past the budget (a lower bound), `Exact`
    /// otherwise, whether compiled afresh or served by the memo. Scoring
    /// observes nothing: the caller reports each row's path in its gate
    /// `Decision`.
    pub fn score_with(
        self,
        cache: &mut CircuitCache,
        evaluator: &Evaluator,
        gate: Option<f64>,
    ) -> Result<(GatedScore, Vec<ConfidencePath>)> {
        let n = self.rows.len();
        let mut scored = Vec::with_capacity(n);
        let mut skipped = Vec::with_capacity(n);
        let mut paths = Vec::with_capacity(n);
        let mut exact_skipped = 0usize;
        for row in self.rows {
            let walked = gate.map(|_| bounds(&row.lineage, cache.probs()));
            let walked = walked.transpose().map_err(lineage_err)?;
            let (confidence, path) = match (walked, gate) {
                (Some(b), Some(beta)) if b.upper <= beta => (b.upper, ConfidencePath::BetaSkipped),
                _ => {
                    let exact = cache.score_lineage(&row.lineage, evaluator);
                    let walk = || walked.map_or_else(|| bounds(&row.lineage, cache.probs()), Ok);
                    exact_or_lower(exact, walk)?
                }
            };
            let skip = path == ConfidencePath::BetaSkipped;
            scored.push(ScoredTuple {
                tuple: row.tuple,
                lineage: row.lineage,
                confidence,
            });
            skipped.push(skip);
            paths.push(path);
            exact_skipped += usize::from(skip);
        }
        let gated = GatedScore {
            schema: self.schema,
            scored,
            skipped,
            exact_skipped,
        };
        Ok((gated, paths))
    }

    /// [`Self::score_with`] on a copy of the result set, exact: every
    /// row's confidence through the cache.
    pub fn score_cached(
        &self,
        cache: &mut CircuitCache,
        evaluator: &Evaluator,
    ) -> Result<Vec<ScoredTuple>> {
        self.clone()
            .score_with(cache, evaluator, None)
            .map(|(gated, _)| gated.scored)
    }

    /// [`Self::score_with`] on a copy of the result set, gated at `beta`.
    pub fn score_gated_cached(
        &self,
        cache: &mut CircuitCache,
        evaluator: &Evaluator,
        beta: f64,
    ) -> Result<GatedScore> {
        self.clone()
            .score_with(cache, evaluator, Some(beta))
            .map(|(gated, _)| gated)
    }

    /// Replace bound-valued confidences with exact ones for the rows
    /// flagged in `skipped` (in place over a [`GatedScore::scored`]
    /// vector), served from (and memoized into) the pool; a row past the
    /// budget gets its lower bound, as in [`Self::score_with`]. Returns the
    /// number of rows re-scored.
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
                let exact = cache.score_lineage(&s.lineage, evaluator);
                s.confidence = exact_or_lower(exact, || bounds(&s.lineage, cache.probs()))?.0;
                n += 1;
            }
        }
        Ok(n)
    }
}

/// The outcome of [`ResultSet::score_with`]: the result set, scored.
#[derive(Debug, Clone, PartialEq)]
pub struct GatedScore {
    /// The result schema.
    pub schema: Schema,
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

/// The confidence of a row whose exact evaluation gave `exact`: that
/// value, or — when it ran past the evaluator's Shannon budget — the
/// lower end of the row's Fréchet bounds, which `walk` supplies — with
/// the path that names which. Sound for release: `lower > β` implies
/// `exact > β`. The one place a budget-exhausted row gets its confidence.
fn exact_or_lower(
    exact: pcqe_lineage::Result<f64>,
    walk: impl FnOnce() -> pcqe_lineage::Result<Bounds>,
) -> Result<(f64, ConfidencePath)> {
    match exact {
        Ok(p) => Ok((p, ConfidencePath::Exact)),
        Err(LineageError::BudgetExceeded { .. }) => {
            Ok((walk().map_err(lineage_err)?.lower, ConfidencePath::Bounded))
        }
        Err(e) => Err(lineage_err(e)),
    }
}

fn lineage_err(e: LineageError) -> AlgebraError {
    AlgebraError::Lineage(e.to_string())
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
    use std::collections::BTreeMap;

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
        let probs: BTreeMap<VarId, f64> = [(VarId(0), 0.5), (VarId(1), 0.4)].into_iter().collect();
        let scored = exact(&simple(), &probs);
        assert_eq!(scored.len(), 2);
        assert!((scored[0].confidence - 0.5).abs() < 1e-12);
        assert!((scored[1].confidence - 0.2).abs() < 1e-12);
    }

    #[test]
    fn scoring_fails_on_unknown_base_tuple() {
        let probs: BTreeMap<VarId, f64> = [(VarId(0), 0.5)].into_iter().collect();
        assert!(matches!(
            simple().score_cached(&mut seeded_cache(&probs), &Evaluator::default()),
            Err(AlgebraError::Lineage(_))
        ));
    }

    #[test]
    fn display_renders_table() {
        let text = simple().to_string();
        assert!(text.starts_with("x\n"));
        assert!(text.contains('2'));
    }

    fn seeded_cache(probs: &BTreeMap<VarId, f64>) -> CircuitCache {
        let mut cache = CircuitCache::new();
        for (&v, &p) in probs {
            cache.set_prob(v, p);
        }
        cache
    }

    /// `rs`'s rows scored exactly by a pool that holds `probs` and nothing
    /// else.
    fn exact(rs: &ResultSet, probs: &BTreeMap<VarId, f64>) -> Vec<ScoredTuple> {
        rs.score_cached(&mut seeded_cache(probs), &Evaluator::default())
            .unwrap()
    }

    #[test]
    fn memo_hits_keep_every_bit() {
        let rs = simple();
        let probs: BTreeMap<VarId, f64> = [(VarId(0), 0.5), (VarId(1), 0.4)].into_iter().collect();
        let fresh = exact(&rs, &probs);
        let mut cache = seeded_cache(&probs);
        // Score twice: the second pass is pure memo hits and must not
        // perturb a single bit.
        for pass in 0..2 {
            let cached = rs.score_cached(&mut cache, &Evaluator::default()).unwrap();
            assert_eq!(cached.len(), fresh.len());
            for (c, p) in cached.iter().zip(&fresh) {
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
        let probs: BTreeMap<VarId, f64> = [(VarId(0), 0.5), (VarId(1), 0.4)].into_iter().collect();
        let exact = exact(&rs, &probs);
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
                // carries its exact confidence, bit for bit.
                let upper = bounds(&row.lineage, &probs).unwrap().upper;
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
        let probs: BTreeMap<VarId, f64> = [(VarId(0), 0.5), (VarId(1), 0.4)].into_iter().collect();
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
        for (c, p) in cached.scored.iter().zip(&exact(&rs, &probs)) {
            assert_eq!(c.confidence.to_bits(), p.confidence.to_bits());
        }
    }
}
