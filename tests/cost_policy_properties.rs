//! Seeded property tests for the cost models and the policy store.

#![allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract

mod common;

use common::for_each_case;
use pcqe::cost::CostFn;
use pcqe::lineage::Rng64;
use pcqe::policy::{ConfidencePolicy, PolicyStore, Purpose, Role};
use pcqe::storage::real_cmp;

const CASES: u64 = 256;

/// A random cost function from every family with valid parameters.
fn random_cost_fn(rng: &mut Rng64) -> CostFn {
    match rng.below_usize(5) {
        0 => CostFn::linear(rng.range_f64(0.1, 1000.0)).expect("valid"),
        1 => CostFn::polynomial(rng.range_f64(0.1, 500.0), rng.range_f64(1.0, 4.0)).expect("valid"),
        2 => {
            CostFn::exponential(rng.range_f64(0.1, 100.0), rng.range_f64(0.5, 6.0)).expect("valid")
        }
        3 => {
            CostFn::logarithmic(rng.range_f64(0.1, 500.0), rng.range_f64(0.5, 20.0)).expect("valid")
        }
        _ => {
            // Build monotone breakpoints from positive increments.
            let n = rng.range_usize(1, 5);
            let mut points = vec![(0.0, 0.0)];
            let mut g = 0.0;
            for i in 0..n {
                g += rng.range_f64(0.01, 10.0);
                let p = (i + 1) as f64 / n as f64;
                points.push((p, g));
            }
            CostFn::piecewise(points).expect("constructed monotone")
        }
    }
}

#[test]
fn costs_are_nonnegative_and_monotone() {
    for_each_case(CASES, 0xC057_0001, |rng| {
        let cost = random_cost_fn(rng);
        let (a, b) = (rng.next_f64(), rng.next_f64());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let c = cost.cost(lo, hi);
        assert!(c >= 0.0);
        assert_eq!(cost.cost(hi, lo), 0.0, "lowering is free");
        // Widening the interval can only cost more.
        let wider = cost.cost((lo - 0.1).max(0.0), (hi + 0.1).min(1.0));
        assert!(wider >= c - 1e-9);
    });
}

#[test]
fn costs_are_additive_along_paths() {
    for_each_case(CASES, 0xC057_0002, |rng| {
        let cost = random_cost_fn(rng);
        let mut points = [rng.next_f64(), rng.next_f64(), rng.next_f64()];
        points.sort_by(|&a, &b| real_cmp(a, b));
        let [x, y, z] = points;
        let direct = cost.cost(x, z);
        let stepped = cost.cost(x, y) + cost.cost(y, z);
        assert!(
            (direct - stepped).abs() < 1e-6 * (1.0 + direct.abs()),
            "direct {direct} vs stepped {stepped}"
        );
    });
}

#[test]
fn step_cost_is_consistent() {
    for_each_case(CASES, 0xC057_0003, |rng| {
        let cost = random_cost_fn(rng);
        let from = rng.next_f64();
        let s = cost.step_cost(from, 0.1);
        assert!((s - cost.cost(from, (from + 0.1).min(1.0))).abs() < 1e-12);
    });
}

#[test]
fn selected_policy_is_always_applicable() {
    for_each_case(CASES, 0xC057_0004, |rng| {
        let roles = ["analyst", "manager", "auditor"];
        let purposes = ["report", "invest", "audit"];
        let n_policies = rng.range_usize(1, 6);
        let thresholds: Vec<f64> = (0..n_policies).map(|_| rng.next_f64()).collect();
        let role_pick = rng.below_usize(3);
        let purpose_pick = rng.below_usize(3);
        let mut store = PolicyStore::new();
        // A deterministic mix of exact and wildcard policies.
        for (i, &beta) in thresholds.iter().enumerate() {
            match i % 3 {
                0 => store.add(
                    ConfidencePolicy::new(
                        roles[i % roles.len()],
                        purposes[i % purposes.len()],
                        beta,
                    )
                    .expect("valid"),
                ),
                1 => store
                    .add(ConfidencePolicy::for_role(roles[i % roles.len()], beta).expect("valid")),
                _ => store.add(ConfidencePolicy::default_floor(beta).expect("valid")),
            }
        }
        let role = Role::new(roles[role_pick]);
        let purpose = Purpose::new(purposes[purpose_pick]);
        match store.select(&role, &purpose) {
            Ok(policy) => {
                // The returned threshold must belong to some stored policy.
                assert!(store
                    .policies()
                    .iter()
                    .any(|p| p.threshold == policy.threshold));
            }
            Err(_) => {
                // Only possible when no wildcard floor exists.
                assert!(!thresholds.iter().enumerate().any(|(i, _)| i % 3 == 2));
            }
        }
    });
}

#[test]
fn admits_is_exactly_strictly_greater() {
    for_each_case(CASES, 0xC057_0005, |rng| {
        let beta = rng.next_f64();
        let conf = rng.next_f64();
        let p = ConfidencePolicy::default_floor(beta).expect("valid");
        assert_eq!(p.admits(conf), conf > beta);
    });
}
