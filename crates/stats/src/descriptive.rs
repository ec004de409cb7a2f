//! Descriptive statistics over slices of `f64`.
//!
//! The paper reports per-population summaries in exactly this form, e.g.
//! Fig. 2(i): "Module (CPU + DRAM) power: Average=112.8W, Standard
//! Deviation=4.51, Vp=1.30".

use crate::is_near_zero;

/// A one-pass summary of a population of samples.
///
/// The standard deviation is the *population* standard deviation (divide by
/// `n`), matching how the paper characterizes complete module populations
/// rather than samples from a larger universe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of all samples.
    pub sum: f64,
}

impl Summary {
    /// Summarize a slice of samples.
    ///
    /// Returns `None` for an empty slice or if any sample is not finite —
    /// power and timing populations in this project are always finite, so a
    /// NaN reaching a summary indicates an upstream bug worth surfacing.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let n = samples.len();
        let sum: f64 = samples.iter().sum();
        let mean = sum / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Some(Summary { n, mean, std_dev: var.sqrt(), min, max, sum })
    }

    /// Worst-case variation `max / min` of the summarized population.
    ///
    /// This is the paper's `Vp`/`Vf`/`Vt` metric; see
    /// [`crate::variation::worst_case_variation`]. Returns infinity when the
    /// minimum is zero (the paper encounters this in Fig. 3, where one rank's
    /// synchronization overhead is "very small", producing Vt ≈ 57).
    pub fn worst_case_variation(&self) -> f64 {
        // `NEAR_ZERO` guard instead of exact `== 0.0`: a tiny-but-normal
        // minimum (Fig. 3) still yields a finite ratio; only underflow
        // residue is treated as zero.
        if is_near_zero(self.min) {
            f64::INFINITY
        } else {
            self.max / self.min
        }
    }
}

/// Quantile of a population using linear interpolation between order
/// statistics (the "linear" / type-7 method used by most statistics tools).
///
/// `q` is clamped to `[0, 1]`. Returns `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_population() {
        let s = Summary::of(&[5.0; 10]).unwrap();
        assert_eq!(s.n, 10);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.worst_case_variation(), 1.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.mean - 2.5).abs() < 1e-12);
        // population variance of 1..4 is 1.25
        assert!((s.std_dev - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.sum, 10.0);
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert!(Summary::of(&[1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn variation_of_zero_minimum_is_infinite() {
        let s = Summary::of(&[0.0, 1.0]).unwrap();
        assert!(s.worst_case_variation().is_infinite());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        // order independence
        let shuffled = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(quantile(&shuffled, 0.5), Some(2.5));
    }

    #[test]
    fn quantile_clamps_out_of_range() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -1.0), Some(1.0));
        assert_eq!(quantile(&xs, 2.0), Some(2.0));
    }
}
