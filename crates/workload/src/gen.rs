//! The generator itself.

use crate::params::WorkloadParams;
use pcqe_core::problem::{ProblemBuilder, ProblemInstance};
use pcqe_core::CoreError;
use pcqe_cost::CostFn;
use pcqe_lineage::rng::Rng64;
use pcqe_lineage::Lineage;

/// Generate a confidence-increment problem from workload parameters.
///
/// Deterministic in `params.seed`. Base tuples are dealt into latent
/// clusters; each result draws its bases from one cluster (with an
/// occasional cross-cluster reference), so results inside a cluster share
/// bases while clusters stay weakly coupled. A result's lineage is an OR
/// of small AND-groups — the random AND/OR DAGs of Section 5.1 — sized so
/// initial confidences land well below β but the threshold stays reachable
/// with a handful of δ increments.
pub fn generate(params: &WorkloadParams) -> Result<ProblemInstance, CoreError> {
    let mut rng = Rng64::seed_from_u64(params.seed);
    let k = params.data_size;
    let n_results = params.results();
    let cluster_size = params.cluster();

    // Base tuples: confidence around the centre, a cost function from the
    // paper's three families.
    let mut builder = ProblemBuilder::new(params.beta, params.delta);
    for id in 0..k as u64 {
        let lo = (params.confidence_center - params.confidence_jitter).max(0.0);
        let hi = (params.confidence_center + params.confidence_jitter).min(1.0);
        let confidence = if hi > lo { rng.range_f64(lo, hi) } else { lo };
        builder.base(id, confidence, random_cost(&mut rng));
    }

    // Deal cluster-local "decks" so every base tuple is used before any is
    // reused (coverage), reshuffling per pass.
    let clusters: Vec<Vec<u64>> = (0..k as u64)
        .collect::<Vec<_>>()
        .chunks(cluster_size.max(1))
        .map(<[u64]>::to_vec)
        .collect();
    let mut decks: Vec<Vec<u64>> = clusters
        .iter()
        .map(|c| {
            let mut d = c.clone();
            rng.shuffle(&mut d);
            d
        })
        .collect();

    // Assign results to clusters in shuffled round-robin cycles: cluster
    // loads differ by at most one, so every deck is consumed evenly and
    // coverage of all base tuples is guaranteed whenever there are enough
    // result slots.
    let mut assignment: Vec<usize> = Vec::with_capacity(n_results);
    while assignment.len() < n_results {
        let mut cycle: Vec<usize> = (0..clusters.len().max(1)).collect();
        rng.shuffle(&mut cycle);
        assignment.extend(cycle);
    }
    assignment.truncate(n_results);

    for &ci in assignment.iter().take(n_results) {
        let want = params.bases_per_result.min(k);
        let mut bases: Vec<u64> = Vec::with_capacity(want);
        // Ids popped from the deck that this result already holds go back
        // underneath the deck afterwards, so no usage is ever lost.
        let mut leftovers: Vec<u64> = Vec::new();
        while bases.len() < want {
            if rng.next_f64() < params.cross_cluster_prob {
                let id = rng.below_u64(k as u64);
                if !bases.contains(&id) {
                    bases.push(id);
                }
                continue;
            }
            if leftovers.len() >= clusters[ci].len() {
                // The cluster cannot supply any more distinct bases for
                // this result; fill the remainder from anywhere.
                let id = rng.below_u64(k as u64);
                if !bases.contains(&id) {
                    bases.push(id);
                }
                continue;
            }
            let deck = &mut decks[ci];
            let id = match deck.pop() {
                Some(id) => id,
                None => {
                    *deck = clusters[ci].clone();
                    rng.shuffle(deck);
                    deck.pop().expect("clusters are non-empty")
                }
            };
            if bases.contains(&id) {
                leftovers.push(id);
            } else {
                bases.push(id);
            }
        }
        if !leftovers.is_empty() {
            leftovers.extend(std::mem::take(&mut decks[ci]));
            decks[ci] = leftovers;
        }
        let lineage = random_dag(&mut rng, &bases, params.bases_per_result);
        builder.result_from_lineage(&lineage)?;
    }

    builder.require(params.required().min(n_results)).build()
}

/// Generate a batch of queries over one shared base-tuple pool (for the
/// multi-query extension): `n_queries` instances whose results draw from
/// the same `data_size` tuples, merged into a
/// [`pcqe_core::multi::MultiQueryProblem`]. Each query gets its own β
/// jittered around `params.beta` and its own quota.
pub fn generate_batch(
    params: &WorkloadParams,
    n_queries: usize,
) -> Result<pcqe_core::multi::MultiQueryProblem, CoreError> {
    let mut instances = Vec::with_capacity(n_queries);
    for q in 0..n_queries {
        let mut p = params.clone().with_seed(params.seed ^ (0x9e37 + q as u64));
        // Spread thresholds a little so queries differ (clamped sane).
        p.beta = (params.beta
            + 0.05 * (q as f64 - n_queries as f64 / 2.0) / n_queries.max(1) as f64)
            .clamp(0.05, 0.95);
        let mut inst = generate(&p)?;
        // All queries share one physical base-tuple pool: overwrite each
        // instance's base confidences/costs with query 0's, so the merge
        // (which keeps the first definition per id) is consistent.
        if let Some(first) = instances.first() {
            let reference: &pcqe_core::problem::ProblemInstance = first;
            for (b, r) in inst.bases.iter_mut().zip(&reference.bases) {
                b.initial = r.initial;
                b.max = r.max;
                b.cost = r.cost.clone();
            }
        }
        instances.push(inst);
    }
    pcqe_core::multi::MultiQueryProblem::merge(&instances)
}

/// One of the paper's three cost-function families, with random scale.
fn random_cost(rng: &mut Rng64) -> CostFn {
    match rng.below_usize(3) {
        0 => CostFn::binomial(rng.range_f64(20.0, 200.0)).expect("valid range"),
        1 => CostFn::exponential(rng.range_f64(5.0, 50.0), 3.0).expect("valid range"),
        _ => CostFn::logarithmic(rng.range_f64(50.0, 500.0), 9.0).expect("valid range"),
    }
}

/// An OR of AND-groups over the given bases. At most one singleton group
/// (and only for small fan-in) keeps the initial confidence below β; the
/// remaining bases pair into AND-groups of 2–3.
fn random_dag(rng: &mut Rng64, bases: &[u64], fan_in: usize) -> Lineage {
    let mut rest: Vec<u64> = bases.to_vec();
    rng.shuffle(&mut rest);
    let mut groups: Vec<Lineage> = Vec::new();
    if fan_in <= 10 && rest.len() >= 3 && rng.next_f64() < 0.5 {
        let v = rest.pop().expect("len checked");
        groups.push(Lineage::var(v));
    }
    while !rest.is_empty() {
        let take = match rest.len() {
            1 => 1,
            2 => 2,
            _ => {
                if rng.next_f64() < 0.6 {
                    2
                } else {
                    3
                }
            }
        };
        let group: Vec<Lineage> = rest.drain(rest.len() - take..).map(Lineage::var).collect();
        groups.push(Lineage::and(group));
    }
    Lineage::or(groups)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;
    use pcqe_core::state::EvalState;

    #[test]
    fn deterministic_in_the_seed() {
        let p = WorkloadParams {
            data_size: 200,
            ..WorkloadParams::default()
        };
        let a = generate(&p).unwrap();
        let b = generate(&p).unwrap();
        assert_eq!(a.bases.len(), b.bases.len());
        for (x, y) in a.bases.iter().zip(&b.bases) {
            assert_eq!(x.initial, y.initial);
            assert_eq!(x.cost, y.cost);
        }
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.bases, y.bases);
        }
        let c = generate(&p.clone().with_seed(99)).unwrap();
        let same = a
            .bases
            .iter()
            .zip(&c.bases)
            .all(|(x, y)| x.initial == y.initial);
        assert!(!same, "different seeds should differ somewhere");
    }

    #[test]
    fn respects_table_4_shape() {
        let p = WorkloadParams {
            data_size: 500,
            bases_per_result: 5,
            ..WorkloadParams::default()
        };
        let inst = generate(&p).unwrap();
        assert_eq!(inst.bases.len(), 500);
        assert_eq!(inst.results.len(), p.results());
        assert_eq!(inst.required, p.required());
        assert_eq!(inst.delta, 0.1);
        assert_eq!(inst.beta, 0.6);
        for r in &inst.results {
            assert_eq!(r.bases.len(), 5);
        }
        for b in &inst.bases {
            assert!(
                (0.05..0.15).contains(&b.initial),
                "around 0.1: {}",
                b.initial
            );
        }
    }

    #[test]
    fn every_base_is_used() {
        let p = WorkloadParams {
            data_size: 300,
            cross_cluster_prob: 0.0,
            ..WorkloadParams::default()
        };
        let inst = generate(&p).unwrap();
        let unused = (0..inst.bases.len())
            .filter(|&i| inst.results_of_base(i).is_empty())
            .count();
        assert_eq!(unused, 0, "decks guarantee coverage without crossings");
    }

    #[test]
    fn initial_satisfaction_is_low_and_problem_is_feasible() {
        for (size, seed) in [(200usize, 1u64), (1000, 2), (5000, 3)] {
            let p = WorkloadParams {
                data_size: size,
                ..WorkloadParams::default()
            }
            .with_seed(seed);
            let inst = generate(&p).unwrap();
            let mut st = EvalState::new(&inst);
            let frac = st.satisfied_count() as f64 / inst.results.len() as f64;
            assert!(frac < 0.2, "size {size}: {frac} of results already pass β");
            let all: Vec<usize> = (0..inst.bases.len()).collect();
            assert!(
                st.optimistic_satisfied(&all) >= inst.required,
                "must be feasible at max confidence"
            );
        }
    }

    #[test]
    fn large_fan_in_stays_below_beta() {
        let p = WorkloadParams {
            data_size: 2000,
            bases_per_result: 50,
            ..WorkloadParams::default()
        };
        let inst = generate(&p).unwrap();
        let st = EvalState::new(&inst);
        let frac = st.satisfied_count() as f64 / inst.results.len() as f64;
        assert!(frac < 0.2, "fan-in 50: {frac} already satisfied");
    }

    #[test]
    fn fig11a_preset_is_tiny_and_solvable() {
        let p = WorkloadParams::fig11a();
        let inst = generate(&p).unwrap();
        assert_eq!(inst.bases.len(), 10);
        assert_eq!(inst.results.len(), 6);
        assert_eq!(inst.required, 3);
        let out = pcqe_core::greedy::solve(&inst, &Default::default()).unwrap();
        out.solution.validate(&inst).unwrap();
    }

    #[test]
    fn batches_share_one_base_pool() {
        let params = WorkloadParams {
            data_size: 120,
            ..WorkloadParams::default()
        };
        let multi = generate_batch(&params, 3).unwrap();
        assert_eq!(multi.queries().len(), 3);
        assert_eq!(
            multi.problem().bases.len(),
            120,
            "one shared pool, not 3 copies"
        );
        // Thresholds differ across queries.
        let betas: std::collections::BTreeSet<String> = multi
            .queries()
            .iter()
            .map(|q| format!("{:.4}", q.beta))
            .collect();
        assert!(betas.len() > 1);
        // And the merged batch is solvable.
        let out = pcqe_core::multi::solve_greedy(&multi, &Default::default()).unwrap();
        for (qi, q) in multi.queries().iter().enumerate() {
            let satisfied = out
                .solution
                .satisfied
                .iter()
                .filter(|&&ri| ri >= q.start && ri < q.start + q.len)
                .count();
            assert!(satisfied >= q.required, "query {qi} quota unmet");
        }
    }

    #[test]
    fn clusters_produce_group_structure() {
        let p = WorkloadParams {
            data_size: 400,
            cross_cluster_prob: 0.0,
            ..WorkloadParams::default()
        };
        let inst = generate(&p).unwrap();
        let groups = pcqe_core::partition::partition(
            &inst,
            &pcqe_core::partition::PartitionOptions::default(),
        );
        assert!(
            groups.len() > 1,
            "without cross links the clusters must separate"
        );
        assert!(
            groups.len() < inst.results.len(),
            "but results do share bases"
        );
    }
}
