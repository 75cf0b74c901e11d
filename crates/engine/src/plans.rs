//! The statement cache: a physical plan per query *shape*, and the places
//! its slots land in it (DESIGN.md §9, "Statements planned once per
//! shape").
//!
//! The planner and optimiser read the schema, the index set and a
//! literal's type and NULL-ness, never its value and never the rows
//! (DESIGN.md §9, "What a plan reads"), so a plan lowered for one query
//! serves every query of its [`Shape`] with the values rebound, until DDL
//! empties the cache ([`PlanCache::clear`]). That is checked, not assumed,
//! for each shape before it is kept. A shape's first run is planned as any
//! query is, and the cache keeps that plan ([`PlanCache::saw`]). Its
//! second run lowers a copy whose slots hold sentinels, and
//! [`PlanCache::learn`] keeps that copy only if binding the first run's
//! literals into it gives back the first run's plan. A shape whose plan
//! reads a value therefore stays uncached rather than wrong, and a shape
//! run once is planned once, not twice.

use pcqe_algebra::PhysicalPlan;
use pcqe_sql::{sentinel_slot, Shape};
use pcqe_storage::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How many shapes the cache holds; a new shape past it evicts the one
/// cached first.
const CAPACITY: usize = 64;

/// Lowered plans by shape key.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    entries: BTreeMap<String, Entry>,
    /// Entries made so far: the next entry's insertion number.
    made: u64,
}

#[derive(Debug)]
struct Entry {
    /// Insertion number: the lowest is evicted first.
    made: u64,
    state: State,
}

#[derive(Debug)]
enum State {
    /// Run once: the plan the query was lowered to, and its literals.
    Seen {
        fresh: Arc<PhysicalPlan>,
        literals: Vec<Value>,
    },
    /// Learned: the plan, holding the literals it was last bound to, and
    /// per literal of the plan, in [`PhysicalPlan::literals_mut`] order,
    /// the slot bound into it (`None`: a literal no slot lands in). The
    /// plan is shared with the run that bound it, so a hit copies nothing.
    Learned {
        plan: Arc<PhysicalPlan>,
        places: Vec<Option<usize>>,
    },
    /// The sentinel copy did not give the plan back: the shape is planned
    /// afresh on every run, and not learned again.
    Refused,
}

impl PlanCache {
    /// Forget every shape: the schema or the index set changed.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// The plan learned for `shape`, with the shape's literals bound in;
    /// `None` if none is.
    pub(crate) fn bound(&mut self, shape: &Shape) -> Option<Arc<PhysicalPlan>> {
        let entry = self.entries.get_mut(shape.key())?;
        let State::Learned { plan, places } = &mut entry.state else {
            return None;
        };
        // In place while no earlier run still holds the plan.
        bind(Arc::make_mut(plan), places, shape.literals());
        Some(Arc::clone(plan))
    }

    /// Whether `shape` ran once and awaits [`PlanCache::learn`].
    pub(crate) fn seen(&self, shape: &Shape) -> bool {
        self.entries
            .get(shape.key())
            .is_some_and(|e| matches!(e.state, State::Seen { .. }))
    }

    /// Remember that `shape` ran and was lowered to `fresh` — unless the
    /// shape was refused already.
    pub(crate) fn saw(&mut self, shape: &Shape, fresh: &Arc<PhysicalPlan>) {
        let entry = self.entries.get(shape.key());
        if entry.is_some_and(|e| matches!(e.state, State::Refused)) {
            return;
        }
        if entry.is_none() && self.entries.len() >= CAPACITY {
            let oldest = self.entries.iter().min_by_key(|(_, e)| e.made);
            if let Some(key) = oldest.map(|(key, _)| key.clone()) {
                self.entries.remove(&key);
            }
        }
        let state = State::Seen {
            fresh: Arc::clone(fresh),
            literals: shape.literals().to_vec(),
        };
        let entry = Entry {
            made: self.made,
            state,
        };
        self.made += 1;
        self.entries.insert(shape.key().to_owned(), entry);
    }

    /// Learn where the slots of `shape`, [`PlanCache::seen`], land:
    /// `sentinels` is the lowering of its sentinel copy
    /// ([`pcqe_sql::parse_sentinels`]), `None` where that failed. The copy
    /// is kept only if binding the first run's literals into it gives back
    /// the first run's plan; otherwise the shape is refused.
    pub(crate) fn learn(&mut self, shape: &Shape, sentinels: Option<PhysicalPlan>) {
        let Some(entry) = self.entries.get_mut(shape.key()) else {
            return;
        };
        let State::Seen { fresh, literals } = &entry.state else {
            return;
        };
        let learned = sentinels.and_then(|mut plan| {
            let mut places = Vec::new();
            plan.literals_mut(&mut |v| places.push(sentinel_slot(v)));
            bind(&mut plan, &places, literals);
            (plan == **fresh).then_some((plan, places))
        });
        entry.state = match learned {
            Some((plan, places)) => State::Learned {
                plan: Arc::new(plan),
                places,
            },
            None => State::Refused,
        };
    }
}

/// Write each slot's literal into the places it lands in `plan`.
fn bind(plan: &mut PhysicalPlan, places: &[Option<usize>], literals: &[Value]) {
    let mut places = places.iter();
    plan.literals_mut(&mut |v| {
        if let Some(literal) = places
            .next()
            .copied()
            .flatten()
            .and_then(|s| literals.get(s))
        {
            v.clone_from(literal);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcqe_algebra::ScalarExpr;
    use pcqe_sql::sentinel;
    use pcqe_storage::DataType;

    /// `TableScan t [filter: #0 = key]`, as the planner lowers
    /// `SELECT … FROM t WHERE k = key`.
    fn scan(table: &str, key: Value) -> PhysicalPlan {
        PhysicalPlan::TableScan {
            table: table.to_owned(),
            alias: None,
            residual: Some(ScalarExpr::column(0).eq(ScalarExpr::literal(key))),
        }
    }

    fn shape(table: &str, key: i64) -> Shape {
        Shape::of(&format!("SELECT k FROM {table} WHERE k = {key}")).unwrap()
    }

    /// Run `SELECT k FROM table WHERE k = key` once, and learn its shape
    /// as its second run would.
    fn learn(cache: &mut PlanCache, table: &str, key: i64) -> Shape {
        let shape = shape(table, key);
        cache.saw(&shape, &Arc::new(scan(table, Value::Int(key))));
        let sentinels = scan(table, sentinel(0, DataType::Int));
        cache.learn(&shape, Some(sentinels));
        shape
    }

    #[test]
    fn a_shape_is_learned_on_its_second_run_and_bound_until_cleared() {
        let mut cache = PlanCache::default();
        let (first, twin) = (shape("t", 1), shape("t", 5));
        cache.saw(&first, &Arc::new(scan("t", Value::Int(1))));
        assert_eq!(cache.bound(&twin), None);
        assert!(cache.seen(&twin));
        cache.learn(&twin, Some(scan("t", sentinel(0, DataType::Int))));
        assert!(!cache.seen(&twin));
        assert_eq!(
            cache.bound(&twin).as_deref(),
            Some(&scan("t", Value::Int(5)))
        );
        cache.clear();
        assert_eq!(cache.bound(&twin), None);
    }

    #[test]
    fn a_sentinel_plan_that_does_not_give_the_plan_back_is_refused_until_cleared() {
        let mut cache = PlanCache::default();
        let first = shape("t", 1);
        let fresh = Arc::new(scan("t", Value::Int(1)));
        for sentinels in [Some(scan("t", Value::Int(2))), None] {
            cache.saw(&first, &fresh);
            cache.learn(&first, sentinels);
            assert_eq!(cache.bound(&first), None);
            // Refused: later runs are not learned again.
            cache.saw(&first, &fresh);
            assert!(!cache.seen(&first));
            // Clearing starts over.
            cache.clear();
            cache.saw(&first, &fresh);
            assert!(cache.seen(&first));
            cache.clear();
        }
    }

    #[test]
    fn past_capacity_the_shape_cached_first_goes() {
        let mut cache = PlanCache::default();
        let first = learn(&mut cache, "t0", 1);
        let second = learn(&mut cache, "t1", 1);
        for i in 2..CAPACITY {
            learn(&mut cache, &format!("t{i}"), 1);
        }
        assert_eq!(cache.entries.len(), CAPACITY);
        learn(&mut cache, "extra", 1);
        assert_eq!(cache.entries.len(), CAPACITY);
        assert!(cache.bound(&first).is_none());
        assert!(cache.bound(&second).is_some());
    }
}
