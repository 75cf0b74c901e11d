//! The confidence assigner.

use crate::error::ProvenanceError;
use crate::model::ProvenanceRecord;
use crate::Result;
use pcqe_storage::{real_cmp, Confidence};
use std::collections::BTreeMap;

/// Combines provenance records into one base-tuple confidence.
///
/// The parameters are private, so every assigner holds the ones
/// [`Assigner::new`] validated (or the defaults).
#[derive(Debug, Clone)]
pub struct Assigner {
    /// Freshness half-life in days: a record this old contributes half of
    /// its fresh confidence. `f64::INFINITY` disables decay.
    freshness_half_life_days: f64,
    /// Damping applied to corroborating (distinct-source) evidence in the
    /// noisy-OR combination: `1.0` is full independence, `0.0` ignores
    /// everything but the best record.
    corroboration: f64,
}

impl Default for Assigner {
    fn default() -> Self {
        Assigner {
            freshness_half_life_days: 365.0,
            corroboration: 0.6,
        }
    }
}

impl Assigner {
    /// Create an assigner, validating parameters.
    pub fn new(freshness_half_life_days: f64, corroboration: f64) -> Result<Assigner> {
        // NaN must fail too, hence the negated comparison.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(freshness_half_life_days > 0.0) {
            return Err(ProvenanceError::InvalidConfig {
                name: "freshness_half_life_days",
                value: freshness_half_life_days,
            });
        }
        let checked = Confidence::new(corroboration).ok_or(ProvenanceError::InvalidConfig {
            name: "corroboration",
            value: corroboration,
        })?;
        Ok(Assigner {
            freshness_half_life_days,
            corroboration: checked.get(),
        })
    }

    /// Confidence contributed by a single record:
    /// `source.trust · Π agent.fidelity · method.reliability · 2^(−age/half-life)`.
    pub fn record_confidence(&self, record: &ProvenanceRecord) -> f64 {
        let mut c = record.source.trust.get();
        for agent in &record.path {
            c *= agent.fidelity.get();
        }
        c *= record.method.reliability();
        if self.freshness_half_life_days.is_finite() {
            c *= (-record.age_days / self.freshness_half_life_days * std::f64::consts::LN_2).exp();
        }
        c.clamp(0.0, 1.0)
    }

    /// Combine records into one confidence value.
    ///
    /// Records sharing a source are collapsed to their best record (a
    /// provider repeating itself is not new evidence); across distinct
    /// sources the best record counts fully and every further record
    /// corroborates via a damped noisy-OR.
    pub fn assess(&self, records: &[ProvenanceRecord]) -> Result<f64> {
        if records.is_empty() {
            return Err(ProvenanceError::NoRecords);
        }
        // Best record per source.
        let mut per_source: BTreeMap<&str, f64> = BTreeMap::new();
        for r in records {
            let c = self.record_confidence(r);
            let e = per_source.entry(r.source.id.as_str()).or_insert(0.0);
            if c > *e {
                *e = c;
            }
        }
        let mut contributions: Vec<f64> = per_source.into_values().collect();
        contributions.sort_by(|&a, &b| real_cmp(b, a));
        // `records` was checked non-empty, so there is at least one
        // contribution — but the assessor stays panic-free (PCQE-P002) by
        // treating the impossible empty case as the typed error above.
        let (&best, rest) = contributions
            .split_first()
            .ok_or(ProvenanceError::NoRecords)?;
        let mut confidence = best;
        for &c in rest {
            // Damped noisy-OR: each corroborating source closes a fraction
            // of the remaining gap to certainty.
            confidence += (1.0 - confidence) * self.corroboration * c;
        }
        Ok(confidence.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Agent, CollectionMethod, Source};

    fn record(source_id: &str, trust: f64, method: CollectionMethod) -> ProvenanceRecord {
        ProvenanceRecord::new(Source::new(source_id, trust).unwrap(), method)
    }

    #[test]
    fn single_fresh_record() {
        let a = Assigner::default();
        let r = record("registry", 0.9, CollectionMethod::Audited);
        let c = a.assess(std::slice::from_ref(&r)).unwrap();
        assert!((c - 0.9).abs() < 1e-12);
    }

    #[test]
    fn agents_and_method_attenuate() {
        let a = Assigner::default();
        let r = record("survey", 0.8, CollectionMethod::Survey)
            .via(Agent::new("transcriber", 0.9).unwrap());
        let c = a.record_confidence(&r);
        assert!((c - 0.8 * 0.9 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn freshness_decay_halves_at_half_life() {
        let a = Assigner::new(100.0, 0.6).unwrap();
        let fresh = a.record_confidence(&record("s", 0.8, CollectionMethod::Audited));
        let stale = a.record_confidence(&record("s", 0.8, CollectionMethod::Audited).aged(100.0));
        assert!((stale - fresh / 2.0).abs() < 1e-9);
    }

    #[test]
    fn corroboration_raises_and_same_source_does_not() {
        let a = Assigner::default();
        let lone = a
            .assess(&[record("survey", 0.5, CollectionMethod::Survey)])
            .unwrap();
        let corroborated = a
            .assess(&[
                record("survey", 0.5, CollectionMethod::Survey),
                record("registry", 0.9, CollectionMethod::Audited),
            ])
            .unwrap();
        assert!(corroborated > lone);
        let duplicated = a
            .assess(&[
                record("survey", 0.5, CollectionMethod::Survey),
                record("survey", 0.5, CollectionMethod::Survey),
            ])
            .unwrap();
        assert!(
            (duplicated - lone).abs() < 1e-12,
            "same source is not evidence"
        );
    }

    #[test]
    fn same_source_takes_best_record() {
        let a = Assigner::default();
        let c = a
            .assess(&[
                record("s", 0.8, CollectionMethod::Survey),
                record("s", 0.8, CollectionMethod::Audited),
            ])
            .unwrap();
        assert!((c - 0.8).abs() < 1e-12);
    }

    #[test]
    fn result_stays_in_unit_interval() {
        let a = Assigner::new(365.0, 1.0).unwrap();
        let records: Vec<_> = (0..20)
            .map(|i| record(&format!("s{i}"), 0.95, CollectionMethod::Audited))
            .collect();
        let c = a.assess(&records).unwrap();
        assert!(c <= 1.0 && c > 0.95);
    }

    #[test]
    fn zero_corroboration_keeps_best_only() {
        let a = Assigner::new(365.0, 0.0).unwrap();
        let c = a
            .assess(&[
                record("a", 0.6, CollectionMethod::Audited),
                record("b", 0.5, CollectionMethod::Audited),
            ])
            .unwrap();
        assert!((c - 0.6).abs() < 1e-12);
    }

    #[test]
    fn errors() {
        assert_eq!(
            Assigner::default().assess(&[]).unwrap_err(),
            ProvenanceError::NoRecords
        );
        assert!(Assigner::new(0.0, 0.5).is_err());
        assert!(Assigner::new(10.0, 1.5).is_err());
    }
}
