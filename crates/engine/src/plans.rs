//! The statement cache: a physical plan per query *shape*, the places its
//! slots land in it, and the catalog epoch it was lowered at (DESIGN.md
//! §9, "Statements planned once per shape").
//!
//! The planner and optimiser read a literal's type and NULL-ness, never
//! its value (DESIGN.md §9, "What a plan reads"), so a plan lowered for one
//! query serves every query of its [`Shape`] with the values rebound —
//! while the catalog's epoch stands. That is checked, not assumed, for
//! each shape before it is kept. A shape's first run at an epoch is planned
//! as any query is, and the cache keeps that plan ([`PlanCache::saw`]). Its
//! second run lowers a copy whose slots hold sentinels, and
//! [`PlanCache::learn`] keeps that copy only if binding the first run's
//! literals into it gives back the first run's plan. A shape whose plan
//! reads a value therefore stays uncached rather than wrong, and a shape
//! run once per epoch is planned once, not twice.

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
    /// The catalog epoch the entry was made at; it serves no other.
    epoch: u64,
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
    /// afresh on every run at this epoch, and not learned again.
    Refused,
}

impl PlanCache {
    /// The plan learned for `shape` at catalog epoch `epoch`, with the
    /// shape's literals bound in; `None` if none is.
    pub(crate) fn bound(&mut self, shape: &Shape, epoch: u64) -> Option<Arc<PhysicalPlan>> {
        let entry = self.entries.get_mut(shape.key())?;
        let State::Learned { plan, places } = &mut entry.state else {
            return None;
        };
        if entry.epoch != epoch {
            return None;
        }
        // In place while no earlier run still holds the plan.
        bind(Arc::make_mut(plan), places, shape.literals());
        Some(Arc::clone(plan))
    }

    /// Whether `shape` ran once at `epoch` and awaits [`PlanCache::learn`].
    pub(crate) fn seen(&self, shape: &Shape, epoch: u64) -> bool {
        self.entries
            .get(shape.key())
            .is_some_and(|e| e.epoch == epoch && matches!(e.state, State::Seen { .. }))
    }

    /// Remember that `shape` ran at `epoch` and was lowered to `fresh` —
    /// unless the shape was refused at that epoch already.
    pub(crate) fn saw(&mut self, shape: &Shape, epoch: u64, fresh: &Arc<PhysicalPlan>) {
        let entry = self.entries.get(shape.key());
        if entry.is_some_and(|e| e.epoch == epoch && matches!(e.state, State::Refused)) {
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
            epoch,
            made: self.made,
            state,
        };
        self.made += 1;
        self.entries.insert(shape.key().to_owned(), entry);
    }

    /// Learn where the slots of `shape`, [`PlanCache::seen`] at `epoch`,
    /// land: `sentinels` is the lowering of its sentinel copy
    /// ([`pcqe_sql::parse_sentinels`]), `None` where that failed. The copy
    /// is kept only if binding the first run's literals into it gives back
    /// the first run's plan; otherwise the shape is refused at `epoch`.
    pub(crate) fn learn(&mut self, shape: &Shape, epoch: u64, sentinels: Option<PhysicalPlan>) {
        let Some(entry) = self.entries.get_mut(shape.key()) else {
            return;
        };
        let State::Seen { fresh, literals } = &entry.state else {
            return;
        };
        if entry.epoch != epoch {
            return;
        }
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

    /// Run `SELECT k FROM table WHERE k = key` once at `epoch`, and learn
    /// its shape as its second run would.
    fn learn(cache: &mut PlanCache, table: &str, key: i64, epoch: u64) -> Shape {
        let shape = shape(table, key);
        cache.saw(&shape, epoch, &Arc::new(scan(table, Value::Int(key))));
        let sentinels = scan(table, sentinel(0, DataType::Int));
        cache.learn(&shape, epoch, Some(sentinels));
        shape
    }

    #[test]
    fn a_shape_is_learned_on_its_second_run_and_bound_at_its_epoch() {
        let mut cache = PlanCache::default();
        let (first, twin) = (shape("t", 1), shape("t", 5));
        cache.saw(&first, 7, &Arc::new(scan("t", Value::Int(1))));
        assert_eq!(cache.bound(&twin, 7), None);
        assert!(cache.seen(&twin, 7) && !cache.seen(&twin, 8));
        cache.learn(&twin, 7, Some(scan("t", sentinel(0, DataType::Int))));
        assert!(!cache.seen(&twin, 7));
        assert_eq!(
            cache.bound(&twin, 7).as_deref(),
            Some(&scan("t", Value::Int(5)))
        );
        assert_eq!(cache.bound(&twin, 8), None);
    }

    #[test]
    fn a_sentinel_plan_that_does_not_give_the_plan_back_is_refused_for_its_epoch() {
        let mut cache = PlanCache::default();
        let first = shape("t", 1);
        let fresh = Arc::new(scan("t", Value::Int(1)));
        for sentinels in [Some(scan("t", Value::Int(2))), None] {
            cache.saw(&first, 8, &fresh);
            cache.learn(&first, 8, sentinels);
            assert_eq!(cache.bound(&first, 8), None);
            // Refused: later runs at the epoch are not learned again.
            cache.saw(&first, 8, &fresh);
            assert!(!cache.seen(&first, 8));
            // A new epoch starts over.
            cache.saw(&first, 9, &fresh);
            assert!(cache.seen(&first, 9));
            cache.entries.clear();
        }
    }

    #[test]
    fn past_capacity_the_shape_cached_first_goes() {
        let mut cache = PlanCache::default();
        let first = learn(&mut cache, "t0", 1, 0);
        let second = learn(&mut cache, "t1", 1, 0);
        for i in 2..CAPACITY {
            learn(&mut cache, &format!("t{i}"), 1, 0);
        }
        // Running the first shape at a new epoch inserts it anew, so the
        // second is the one cached first.
        learn(&mut cache, "t0", 2, 1);
        assert_eq!(cache.entries.len(), CAPACITY);
        learn(&mut cache, "extra", 1, 0);
        assert_eq!(cache.entries.len(), CAPACITY);
        assert!(cache.bound(&second, 0).is_none());
        assert!(cache.bound(&first, 1).is_some());
    }
}
