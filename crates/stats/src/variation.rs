//! Worst-case variation metrics from Table 3 of the paper.
//!
//! | ID | Description |
//! |----|-------------|
//! | `Cs`    | System-level power constraint |
//! | `Cm`    | Module-level power constraint |
//! | `Ccpu`  | CPU power cap (determined statically) |
//! | **`Vp`** | Worst-case power variation |
//! | **`Vf`** | Worst-case CPU frequency variation |
//! | **`Vt`** | Worst-case execution time variation |
//!
//! All three `V*` metrics share one definition: the maximum observed value
//! divided by the minimum observed value over the population of modules (or
//! MPI ranks). `Vp = 1.30` therefore means a 30% spread between the most and
//! least power-hungry module running identical code.

use crate::is_near_zero;

/// Worst-case variation: `max(samples) / min(samples)`.
///
/// * Empty input, negative samples or non-finite samples → `None`.
/// * A zero minimum with a positive maximum → `Some(f64::INFINITY)`;
///   this genuinely occurs for synchronization-wait populations (Fig. 3)
///   where one rank waits almost not at all.
/// * An all-zero population → `Some(1.0)` (no variation).
pub fn worst_case_variation(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in samples {
        if !x.is_finite() || x < 0.0 {
            return None;
        }
        min = min.min(x);
        max = max.max(x);
    }
    // `NEAR_ZERO` guards instead of exact `== 0.0`: Fig. 3's tiny-but-
    // normal synchronization waits must still divide to a finite (huge)
    // Vt; only underflow residue is treated as an exact zero.
    if is_near_zero(min) {
        if is_near_zero(max) {
            Some(1.0)
        } else {
            Some(f64::INFINITY)
        }
    } else {
        Some(max / min)
    }
}

/// Relative slowdown of each sample versus the fastest (smallest) sample,
/// in percent. Used by Fig. 1's "Slowdown [%] (compared to fastest)" axis,
/// where samples are per-socket execution times.
pub fn slowdown_percent_vs_best(times: &[f64]) -> Option<Vec<f64>> {
    let best = times.iter().copied().fold(f64::INFINITY, f64::min);
    if times.is_empty() || !best.is_finite() || best <= 0.0 {
        return None;
    }
    Some(times.iter().map(|t| (t / best - 1.0) * 100.0).collect())
}

/// Relative increase of each sample versus the smallest sample, in percent.
/// Used by Fig. 1's "Increase in power [%] (compared to socket with min
/// power)" axis.
pub fn increase_percent_vs_min(values: &[f64]) -> Option<Vec<f64>> {
    // Identical arithmetic to slowdown; a separate name keeps call sites
    // aligned with the figure axes they implement.
    slowdown_percent_vs_best(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ratio() {
        assert_eq!(worst_case_variation(&[50.0, 100.0, 75.0]), Some(2.0));
    }

    #[test]
    fn single_sample_has_no_variation() {
        assert_eq!(worst_case_variation(&[42.0]), Some(1.0));
    }

    #[test]
    fn zero_min_is_infinite_like_fig3() {
        // Fig. 3: "Vt values are very high because for one process, the
        // MPI_Sendrecv overhead is very small".
        let v = worst_case_variation(&[0.0, 3.0]).unwrap();
        assert!(v.is_infinite());
    }

    #[test]
    fn all_zero_population() {
        assert_eq!(worst_case_variation(&[0.0, 0.0]), Some(1.0));
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(worst_case_variation(&[]), None);
        assert_eq!(worst_case_variation(&[-1.0, 2.0]), None);
        assert_eq!(worst_case_variation(&[f64::NAN]), None);
    }

    #[test]
    fn slowdown_axis_semantics() {
        let s = slowdown_percent_vs_best(&[10.0, 12.0, 11.0]).unwrap();
        assert_eq!(s[0], 0.0);
        assert!((s[1] - 20.0).abs() < 1e-9);
        assert!((s[2] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_rejects_nonpositive_best() {
        assert!(slowdown_percent_vs_best(&[0.0, 1.0]).is_none());
        assert!(slowdown_percent_vs_best(&[]).is_none());
    }
}
