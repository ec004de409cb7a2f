//! Ordinary least squares regression with coefficient of determination.
//!
//! The budgeting algorithm (paper §5.1.1) assumes CPU and DRAM power are
//! linear in CPU frequency; Fig. 5 validates the assumption on 64 HA8K
//! modules with R² values of 0.991–0.999. This module provides the fit used
//! both to reproduce Fig. 5 and to build the two-point linear power model.

use crate::is_near_zero;

/// Result of fitting `y = intercept + slope * x` by least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
    /// Number of points the fit used.
    pub n: usize,
}

impl LinearFit {
    /// Fit `y = a + b·x` over paired samples.
    ///
    /// Returns `None` if fewer than two points are supplied, the slices have
    /// mismatched lengths, any value is non-finite, or all `x` are identical
    /// (vertical line — slope undefined).
    pub fn fit(xs: &[f64], ys: &[f64]) -> Option<Self> {
        if xs.len() != ys.len() || xs.len() < 2 {
            return None;
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return None;
        }
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let dx = x - mean_x;
            let dy = y - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        // Vertical-line guard via `NEAR_ZERO` rather than exact `== 0.0`:
        // only underflow residue is reclassified (see the constant's docs).
        if is_near_zero(sxx) {
            return None;
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        // R² = 1 - SS_res / SS_tot. A perfectly flat response (syy ≈ 0) is
        // fitted exactly by the horizontal line, so report R² = 1.
        let r_squared = if is_near_zero(syy) {
            1.0
        } else {
            let ss_res: f64 = xs
                .iter()
                .zip(ys)
                .map(|(&x, &y)| {
                    let e = y - (intercept + slope * x);
                    e * e
                })
                .sum();
            (1.0 - ss_res / syy).clamp(0.0, 1.0)
        };
        Some(LinearFit { slope, intercept, r_squared, n: xs.len() })
    }
}

/// Mean absolute percentage error between predictions and observations,
/// expressed in percent. Used to report the PMT calibration accuracy
/// (paper §5.3: "under 5%" for most benchmarks, ≈10% for NPB-BT).
pub fn mean_absolute_percentage_error(predicted: &[f64], observed: &[f64]) -> Option<f64> {
    if predicted.len() != observed.len() || predicted.is_empty() {
        return None;
    }
    let mut acc = 0.0;
    for (&p, &o) in predicted.iter().zip(observed) {
        // Near-zero observations would blow up the percentage error; the
        // guard replaces an exact `== 0.0` test (see `NEAR_ZERO`).
        if is_near_zero(o) || !p.is_finite() || !o.is_finite() {
            return None;
        }
        acc += ((p - o) / o).abs();
    }
    Some(acc / predicted.len() as f64 * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_has_high_but_imperfect_r2() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 + 4.0 * x + if i % 2 == 0 { 0.05 } else { -0.05 })
            .collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!(fit.r_squared > 0.99);
        assert!(fit.r_squared < 1.0);
        assert!((fit.slope - 4.0).abs() < 0.05);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(LinearFit::fit(&[1.0], &[1.0]).is_none());
        assert!(LinearFit::fit(&[1.0, 1.0], &[1.0, 2.0]).is_none()); // vertical
        assert!(LinearFit::fit(&[1.0, 2.0], &[1.0]).is_none()); // mismatched
        assert!(LinearFit::fit(&[1.0, f64::NAN], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn flat_response_is_perfect_fit() {
        let fit = LinearFit::fit(&[1.0, 2.0, 3.0], &[7.0, 7.0, 7.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn mape_basics() {
        let e = mean_absolute_percentage_error(&[110.0, 95.0], &[100.0, 100.0]).unwrap();
        assert!((e - 7.5).abs() < 1e-9);
        assert!(mean_absolute_percentage_error(&[1.0], &[0.0]).is_none());
        assert!(mean_absolute_percentage_error(&[], &[]).is_none());
    }
}
