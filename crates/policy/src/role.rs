//! Roles, purposes, and the RBAC-style role hierarchy.

use crate::error::PolicyError;
use crate::Result;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// A role: "a job function or job title within the organization"
/// (Section 3.2). Matched case-insensitively. The name is shared, so a
/// clone or an audit record of it copies no text.
#[derive(Debug, Clone, Eq)]
pub struct Role(Arc<str>);

impl Role {
    /// Create a role from its name.
    pub fn new(name: impl Into<String>) -> Role {
        Role(Arc::from(name.into()))
    }

    /// The role's name as written.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// The role's name as written, shared rather than copied.
    pub fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.0)
    }
}

impl AsRef<str> for Role {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Role {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(&other.0)
    }
}

impl std::hash::Hash for Role {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        key(self).hash(state);
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Role {
    fn from(s: &str) -> Role {
        Role::new(s)
    }
}

/// A data-usage purpose (`pu` in the paper): why the data is accessed.
/// Matched case-insensitively. The name is shared, as a [`Role`]'s is.
#[derive(Debug, Clone, Eq)]
pub struct Purpose(Arc<str>);

impl Purpose {
    /// Create a purpose from its name.
    pub fn new(name: impl Into<String>) -> Purpose {
        Purpose(Arc::from(name.into()))
    }

    /// The purpose's name as written.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// The purpose's name as written, shared rather than copied.
    pub fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.0)
    }
}

impl AsRef<str> for Purpose {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Purpose {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(&other.0)
    }
}

impl std::hash::Hash for Purpose {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        key(self).hash(state);
    }
}

impl fmt::Display for Purpose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Purpose {
    fn from(s: &str) -> Purpose {
        Purpose::new(s)
    }
}

/// A hierarchy of case-insensitive names: each name points at the names
/// it falls under in one hop, with no cycles.
///
/// Two hierarchies select policies ([`crate::PolicyStore::select`]
/// prefers the closest match by [`Hierarchy::distance`]). In a
/// [`RoleHierarchy`] a senior role points at the juniors whose policies
/// it inherits, as in RBAC: `Manager → Employee`. In a
/// [`PurposeHierarchy`] a specialised purpose points at the general ones
/// whose policies cover it, as privacy-policy practice arranges purposes
/// in trees: `investment → business-use`.
#[derive(Debug, Clone)]
pub struct Hierarchy<N> {
    /// Maps a lower-cased name to the lower-cased names one hop above it.
    parents: BTreeMap<String, BTreeSet<String>>,
    names: PhantomData<N>,
}

/// Senior roles over the junior roles they inherit policies from.
pub type RoleHierarchy = Hierarchy<Role>;

/// Specialised purposes over the general purposes that cover them.
pub type PurposeHierarchy = Hierarchy<Purpose>;

impl<N> Default for Hierarchy<N> {
    /// An empty hierarchy (every name stands alone).
    fn default() -> Self {
        Hierarchy {
            parents: BTreeMap::new(),
            names: PhantomData,
        }
    }
}

impl<N: AsRef<str>> Hierarchy<N> {
    /// Declare that `child` falls under `parent` in one hop (a senior
    /// role under a junior one, a specialised purpose under a general
    /// one). Rejects an edge that would close a cycle.
    pub fn add(&mut self, child: &N, parent: &N) -> Result<()> {
        if self.distance(parent, child).is_some() {
            return Err(PolicyError::HierarchyCycle(child.as_ref().to_owned()));
        }
        self.parents
            .entry(key(child))
            .or_default()
            .insert(key(parent));
        Ok(())
    }

    /// Hops from `from` up to `to` (0 when they are the same name), or
    /// `None` when `to` is not above `from`.
    pub fn distance(&self, from: &N, to: &N) -> Option<usize> {
        let (from, to) = (key(from), key(to));
        if from == to {
            return Some(0);
        }
        // BFS over parent edges.
        let mut frontier: Vec<&str> = vec![&from];
        let mut seen: BTreeSet<&str> = frontier.iter().copied().collect();
        let mut depth = 0;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for node in frontier {
                for p in self.parents.get(node).into_iter().flatten() {
                    if *p == to {
                        return Some(depth);
                    }
                    if seen.insert(p) {
                        next.push(p.as_str());
                    }
                }
            }
            frontier = next;
        }
        None
    }

    /// Every direct edge as a `(child, parent)` pair of lower-cased names,
    /// sorted (used by persistence).
    pub fn edges(&self) -> Vec<(String, String)> {
        self.parents
            .iter()
            .flat_map(|(child, parents)| parents.iter().map(move |p| (child.clone(), p.clone())))
            .collect()
    }
}

/// A name as the hierarchy stores and matches it.
fn key(name: &impl AsRef<str>) -> String {
    name.as_ref().to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_match_case_insensitively() {
        assert_eq!(Role::new("Manager"), Role::new("manager"));
        assert_eq!(Purpose::new("ANALYSIS"), Purpose::new("analysis"));
    }

    #[test]
    fn hierarchy_distances() {
        let mut h = RoleHierarchy::default();
        h.add(&"Manager".into(), &"Employee".into()).unwrap();
        h.add(&"Director".into(), &"Manager".into()).unwrap();
        assert_eq!(h.distance(&"Manager".into(), &"Manager".into()), Some(0));
        assert_eq!(h.distance(&"Manager".into(), &"Employee".into()), Some(1));
        assert_eq!(h.distance(&"Director".into(), &"Employee".into()), Some(2));
        assert_eq!(h.distance(&"Employee".into(), &"Manager".into()), None);
    }

    #[test]
    fn cycles_rejected() {
        let mut h = RoleHierarchy::default();
        h.add(&"B".into(), &"A".into()).unwrap();
        assert!(matches!(
            h.add(&"A".into(), &"B".into()),
            Err(PolicyError::HierarchyCycle(_))
        ));
        assert!(h.add(&"A".into(), &"A".into()).is_err());
    }

    #[test]
    fn purpose_specialisation_distances() {
        let mut h = PurposeHierarchy::default();
        h.add(&"investment".into(), &"business-use".into()).unwrap();
        h.add(&"due-diligence".into(), &"investment".into())
            .unwrap();
        assert_eq!(
            h.distance(&"investment".into(), &"business-use".into()),
            Some(1)
        );
        assert_eq!(
            h.distance(&"due-diligence".into(), &"business-use".into()),
            Some(2)
        );
        assert_eq!(
            h.distance(&"business-use".into(), &"investment".into()),
            None
        );
        assert!(h
            .add(&"business-use".into(), &"due-diligence".into())
            .is_err());
        assert_eq!(h.edges().len(), 2);
    }

    #[test]
    fn diamond_inheritance_takes_shortest_path() {
        let mut h = RoleHierarchy::default();
        h.add(&"Top".into(), &"L".into()).unwrap();
        h.add(&"Top".into(), &"R".into()).unwrap();
        h.add(&"L".into(), &"Base".into()).unwrap();
        h.add(&"R".into(), &"Mid".into()).unwrap();
        h.add(&"Mid".into(), &"Base".into()).unwrap();
        assert_eq!(h.distance(&"Top".into(), &"Base".into()), Some(2));
    }
}
