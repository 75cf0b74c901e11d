//! The cost-function families.

use crate::error::CostError;
use crate::Result;
use pcqe_storage::Confidence;
use std::fmt;

/// A per-tuple confidence-increment cost model.
///
/// Each variant defines a monotone non-decreasing potential `g(p)` on
/// `[0, 1]`; [`CostFn::cost`] charges `g(to) − g(from)` for raising a
/// confidence from `from` to `to` (`0` when `to ≤ from`).
///
/// The paper's experiments mix three families (Section 5.1): *binomial*
/// (modelled as a degree-`d` polynomial, quadratic by default),
/// *exponential*, and *logarithm*. Linear and piecewise-linear variants are
/// provided for examples and tests.
#[derive(Debug, Clone, PartialEq)]
pub enum CostFn {
    /// `g(p) = rate · p`: every δ of confidence costs the same.
    Linear {
        /// Cost per unit of confidence.
        rate: f64,
    },
    /// `g(p) = coeff · p^degree` ("binomial" in the paper): increments get
    /// more expensive the closer the confidence is to 1.
    Polynomial {
        /// Multiplier applied to `p^degree`.
        coeff: f64,
        /// Exponent (≥ 1).
        degree: f64,
    },
    /// `g(p) = coeff · (e^(rate·p) − 1)`: sharply increasing cost.
    Exponential {
        /// Multiplier.
        coeff: f64,
        /// Exponent rate (> 0).
        rate: f64,
    },
    /// `g(p) = coeff · ln(1 + scale·p)`: diminishing marginal cost — the
    /// first verification pass is the expensive one.
    Logarithmic {
        /// Multiplier.
        coeff: f64,
        /// Interior scale (> 0).
        scale: f64,
    },
    /// Piecewise-linear potential through `(p, g(p))` breakpoints.
    ///
    /// The first point must be at `p = 0` and the breakpoints must be
    /// strictly increasing in `p` and non-decreasing in `g`.
    Piecewise {
        /// `(confidence, cumulative cost)` breakpoints.
        points: Vec<(f64, f64)>,
    },
}

fn require_finite(name: &'static str, value: f64) -> Result<()> {
    if !value.is_finite() {
        return Err(CostError::InvalidParameter { name, value });
    }
    Ok(())
}

fn require_positive(name: &'static str, value: f64) -> Result<()> {
    require_finite(name, value)?;
    if value <= 0.0 {
        return Err(CostError::InvalidParameter { name, value });
    }
    Ok(())
}

impl CostFn {
    /// Linear model with the given per-unit rate (> 0).
    pub fn linear(rate: f64) -> Result<CostFn> {
        require_positive("rate", rate)?;
        Ok(CostFn::Linear { rate })
    }

    /// Polynomial ("binomial") model `coeff · p^degree`, `degree ≥ 1`.
    pub fn polynomial(coeff: f64, degree: f64) -> Result<CostFn> {
        require_positive("coeff", coeff)?;
        require_finite("degree", degree)?;
        if degree < 1.0 {
            return Err(CostError::InvalidParameter {
                name: "degree",
                value: degree,
            });
        }
        Ok(CostFn::Polynomial { coeff, degree })
    }

    /// Quadratic shortcut for the paper's "binomial" family.
    pub fn binomial(coeff: f64) -> Result<CostFn> {
        CostFn::polynomial(coeff, 2.0)
    }

    /// Exponential model `coeff · (e^(rate·p) − 1)`.
    pub fn exponential(coeff: f64, rate: f64) -> Result<CostFn> {
        require_positive("coeff", coeff)?;
        require_positive("rate", rate)?;
        Ok(CostFn::Exponential { coeff, rate })
    }

    /// Logarithmic model `coeff · ln(1 + scale·p)`.
    pub fn logarithmic(coeff: f64, scale: f64) -> Result<CostFn> {
        require_positive("coeff", coeff)?;
        require_positive("scale", scale)?;
        Ok(CostFn::Logarithmic { coeff, scale })
    }

    /// Piecewise-linear model through the given breakpoints, each `p` a
    /// [`Confidence`] (so a `-0.0` is kept as `0.0`).
    pub fn piecewise(mut points: Vec<(f64, f64)>) -> Result<CostFn> {
        for (p, g) in &mut points {
            *p = Confidence::new(*p)
                .ok_or(CostError::InvalidConfidence(*p))?
                .get();
            require_finite("g", *g)?;
            if *g < 0.0 {
                return Err(CostError::InvalidParameter {
                    name: "g",
                    value: *g,
                });
            }
        }
        let Some(&(first_p, _)) = points.first() else {
            return Err(CostError::NonMonotonic);
        };
        if first_p != 0.0 {
            return Err(CostError::NonMonotonic);
        }
        for ((p0, g0), (p1, g1)) in points.iter().zip(points.iter().skip(1)) {
            if !(p1 > p0 && g1 >= g0) {
                return Err(CostError::NonMonotonic);
            }
        }
        Ok(CostFn::Piecewise { points })
    }

    /// The monotone potential `g(p)`.
    pub fn potential(&self, p: f64) -> f64 {
        match self {
            CostFn::Linear { rate } => rate * p,
            CostFn::Polynomial { coeff, degree } => coeff * p.powf(*degree),
            CostFn::Exponential { coeff, rate } => coeff * ((rate * p).exp() - 1.0),
            CostFn::Logarithmic { coeff, scale } => coeff * (1.0 + scale * p).ln(),
            CostFn::Piecewise { points } => {
                // Find the segment containing p and interpolate. The
                // constructor guarantees a non-empty breakpoint list; the
                // impossible empty case evaluates to zero rather than
                // panicking (PCQE-P002).
                let Some((&first, rest)) = points.split_first() else {
                    return 0.0;
                };
                let mut prev = first;
                for &(px, gx) in rest {
                    if p <= px {
                        let (p0, g0) = prev;
                        let t = if px > p0 { (p - p0) / (px - p0) } else { 0.0 };
                        return g0 + t * (gx - g0);
                    }
                    prev = (px, gx);
                }
                // Beyond the last breakpoint: extend flat.
                prev.1
            }
        }
    }

    /// Cost of raising confidence from `from` to `to`; `0` when `to ≤ from`.
    pub fn cost(&self, from: f64, to: f64) -> f64 {
        if to <= from {
            return 0.0;
        }
        (self.potential(to) - self.potential(from)).max(0.0)
    }

    /// Cost of one increment step of size `delta` starting at `from`,
    /// clamping the target to `1.0`.
    pub fn step_cost(&self, from: f64, delta: f64) -> f64 {
        self.cost(from, (from + delta).min(1.0))
    }
}

impl fmt::Display for CostFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostFn::Linear { rate } => write!(f, "linear(rate={rate})"),
            CostFn::Polynomial { coeff, degree } => {
                write!(f, "poly(coeff={coeff}, degree={degree})")
            }
            CostFn::Exponential { coeff, rate } => {
                write!(f, "exp(coeff={coeff}, rate={rate})")
            }
            CostFn::Logarithmic { coeff, scale } => {
                write!(f, "log(coeff={coeff}, scale={scale})")
            }
            CostFn::Piecewise { points } => write!(f, "piecewise({} points)", points.len()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert bit-exact results: that IS the determinism contract
mod tests {
    use super::*;

    #[test]
    fn linear_matches_paper_example() {
        // Paper Section 3.1: raising tuple 03 by 0.1 costs 10 → rate 100;
        // raising tuple 02 by 0.1 costs 100 → rate 1000.
        let c03 = CostFn::linear(100.0).unwrap();
        let c02 = CostFn::linear(1000.0).unwrap();
        assert!((c03.cost(0.4, 0.5) - 10.0).abs() < 1e-9);
        assert!((c02.cost(0.3, 0.4) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn lowering_is_free() {
        for c in [
            CostFn::linear(10.0).unwrap(),
            CostFn::binomial(5.0).unwrap(),
            CostFn::exponential(1.0, 3.0).unwrap(),
            CostFn::logarithmic(4.0, 9.0).unwrap(),
        ] {
            assert_eq!(c.cost(0.8, 0.2), 0.0, "{c}");
            assert_eq!(c.cost(0.5, 0.5), 0.0, "{c}");
        }
    }

    #[test]
    fn all_families_are_monotone() {
        let fns = [
            CostFn::linear(10.0).unwrap(),
            CostFn::binomial(5.0).unwrap(),
            CostFn::polynomial(2.0, 3.0).unwrap(),
            CostFn::exponential(1.0, 3.0).unwrap(),
            CostFn::logarithmic(4.0, 9.0).unwrap(),
            CostFn::piecewise(vec![(0.0, 0.0), (0.5, 1.0), (1.0, 10.0)]).unwrap(),
        ];
        for c in &fns {
            let mut last = c.potential(0.0);
            for i in 1..=100 {
                let p = i as f64 / 100.0;
                let g = c.potential(p);
                assert!(g >= last - 1e-12, "{c} not monotone at {p}");
                last = g;
            }
        }
    }

    #[test]
    fn costs_are_additive_along_a_path() {
        let c = CostFn::exponential(2.0, 4.0).unwrap();
        let direct = c.cost(0.1, 0.7);
        let stepped = c.cost(0.1, 0.3) + c.cost(0.3, 0.7);
        assert!((direct - stepped).abs() < 1e-9);
    }

    #[test]
    fn step_cost_clamps_at_one() {
        let c = CostFn::linear(10.0).unwrap();
        assert!((c.step_cost(0.95, 0.1) - 0.5).abs() < 1e-9);
        assert_eq!(c.step_cost(1.0, 0.1), 0.0);
    }

    #[test]
    fn piecewise_interpolates() {
        let c = CostFn::piecewise(vec![(0.0, 0.0), (0.5, 10.0), (1.0, 30.0)]).unwrap();
        assert!((c.potential(0.25) - 5.0).abs() < 1e-9);
        assert!((c.potential(0.75) - 20.0).abs() < 1e-9);
        assert!((c.cost(0.25, 0.75) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(CostFn::linear(0.0).is_err());
        assert!(CostFn::linear(f64::NAN).is_err());
        assert!(CostFn::polynomial(1.0, 0.5).is_err());
        assert!(CostFn::exponential(-1.0, 1.0).is_err());
        assert!(CostFn::logarithmic(1.0, 0.0).is_err());
        assert!(CostFn::piecewise(vec![]).is_err());
        assert!(CostFn::piecewise(vec![(0.1, 0.0)]).is_err());
        assert!(CostFn::piecewise(vec![(0.0, 5.0), (0.5, 1.0)]).is_err());
        assert!(CostFn::piecewise(vec![(0.0, 0.0), (0.0, 1.0)]).is_err());
    }
}
