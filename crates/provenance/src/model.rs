//! Sources, agents, collection methods and provenance records.

use crate::error::ProvenanceError;
use crate::Result;
use pcqe_storage::Confidence;

/// A data provider with a trust score in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Source {
    /// Stable identifier (used to detect same-source duplication).
    pub id: String,
    /// Trustworthiness of the provider.
    pub trust: Confidence,
}

impl Source {
    /// Create a source, validating its trust score.
    pub fn new(id: impl Into<String>, trust: f64) -> Result<Source> {
        let id = id.into();
        let trust = check_trust(&id, trust)?;
        Ok(Source { id, trust })
    }
}

/// An intermediate agent a record passed through (an ETL stage, a clerk,
/// a mirror). Each hop attenuates the record's confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Agent {
    /// Agent name (for error messages).
    pub name: String,
    /// Probability the agent preserved the datum faithfully.
    pub fidelity: Confidence,
}

impl Agent {
    /// Create an agent, validating its fidelity.
    pub fn new(name: impl Into<String>, fidelity: f64) -> Result<Agent> {
        let name = name.into();
        let fidelity = check_trust(&name, fidelity)?;
        Ok(Agent { name, fidelity })
    }
}

/// How the datum was collected. Each method carries an intrinsic
/// reliability factor, following the paper's motivating examples (patient
/// surveys are cheaper but weaker than audited medical records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionMethod {
    /// Independently audited record (the strongest evidence).
    Audited,
    /// Automated instrument or system-of-record export.
    Automated,
    /// Manually keyed entry.
    ManualEntry,
    /// Self-reported survey response.
    Survey,
    /// Third-party aggregated feed of unknown methodology.
    ThirdPartyFeed,
}

impl CollectionMethod {
    /// The method's reliability multiplier.
    pub fn reliability(self) -> f64 {
        match self {
            CollectionMethod::Audited => 1.0,
            CollectionMethod::Automated => 0.95,
            CollectionMethod::ManualEntry => 0.85,
            CollectionMethod::Survey => 0.7,
            CollectionMethod::ThirdPartyFeed => 0.6,
        }
    }
}

/// One piece of provenance: where a datum came from and how.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRecord {
    /// Originating provider.
    pub source: Source,
    /// Intermediate agents, in transit order.
    pub path: Vec<Agent>,
    /// Collection method.
    pub method: CollectionMethod,
    /// Age of the record, in days, for freshness decay.
    pub age_days: f64,
}

impl ProvenanceRecord {
    /// A fresh record straight from the source.
    pub fn new(source: Source, method: CollectionMethod) -> ProvenanceRecord {
        ProvenanceRecord {
            source,
            path: Vec::new(),
            method,
            age_days: 0.0,
        }
    }

    /// Add an intermediate agent hop.
    pub fn via(mut self, agent: Agent) -> ProvenanceRecord {
        self.path.push(agent);
        self
    }

    /// Set the record's age in days.
    pub fn aged(mut self, days: f64) -> ProvenanceRecord {
        self.age_days = days.max(0.0);
        self
    }
}

fn check_trust(who: &str, value: f64) -> Result<Confidence> {
    Confidence::new(value).ok_or_else(|| ProvenanceError::InvalidTrust {
        who: who.to_owned(),
        value,
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;

    #[test]
    fn sources_and_agents_validate_trust() {
        assert!(Source::new("s", 0.5).is_ok());
        assert!(Source::new("s", -0.1).is_err());
        assert!(Agent::new("a", 1.1).is_err());
        assert!(Agent::new("a", f64::NAN).is_err());
    }

    #[test]
    fn method_reliabilities_are_ordered() {
        let methods = [
            CollectionMethod::Audited,
            CollectionMethod::Automated,
            CollectionMethod::ManualEntry,
            CollectionMethod::Survey,
            CollectionMethod::ThirdPartyFeed,
        ];
        for w in methods.windows(2) {
            assert!(w[0].reliability() > w[1].reliability());
        }
    }

    #[test]
    fn record_builder() {
        let r = ProvenanceRecord::new(
            Source::new("registry", 0.9).unwrap(),
            CollectionMethod::Automated,
        )
        .via(Agent::new("etl", 0.99).unwrap())
        .aged(30.0);
        assert_eq!(r.path.len(), 1);
        assert_eq!(r.age_days, 30.0);
        // Negative ages clamp to zero.
        assert_eq!(r.aged(-5.0).age_days, 0.0);
    }
}
