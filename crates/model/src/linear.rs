//! The paper's linear power model (§5.1.1, Eqs. 1–4).
//!
//! From two single-module test runs — one at the maximum and one at the
//! minimum CPU frequency — the budgeting algorithm interpolates both
//! frequency and power linearly through a single coefficient `α ∈ [0, 1]`:
//!
//! ```text
//! f       = α·(f_max − f_min) + f_min                  (1)
//! P_cpu   = α·(P_cpu_max − P_cpu_min) + P_cpu_min      (2)
//! P_dram  = α·(P_dram_max − P_dram_min) + P_dram_min   (3)
//! P_module= P_cpu + P_dram                             (4)
//! ```
//!
//! `α` is "a key parameter used to control the power-performance tradeoff":
//! `α = 1` means unconstrained (run at `f_max`), `α = 0` means the module is
//! pinned at `f_min`.

use crate::units::{GigaHertz, Watts};

/// The power-performance coefficient `α`, guaranteed to lie in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Alpha(f64);

impl Alpha {
    /// `α = 1`: no power constraint; every module runs at `f_max`.
    pub const MAX: Alpha = Alpha(1.0);
    /// `α = 0`: minimum operating point.
    pub const MIN: Alpha = Alpha(0.0);

    /// Construct, clamping into `[0, 1]`.
    ///
    /// The paper's Eq. 6 produces a raw upper bound that can exceed 1 (when
    /// the budget is generous — "α is set to 1.0 when we do not have any
    /// power constraints") or fall below 0 (when the budget cannot even
    /// sustain `f_min` — the "–" cells of Table 4, which callers must detect
    /// *before* clamping via [`Alpha::try_new`]).
    pub fn saturating(raw: f64) -> Alpha {
        Alpha(raw.clamp(0.0, 1.0))
    }

    /// Construct only if the raw value is a feasible coefficient
    /// (`raw >= 0`); values above 1 clamp to 1.
    pub fn try_new(raw: f64) -> Option<Alpha> {
        if raw.is_finite() && raw >= 0.0 {
            Some(Alpha(raw.min(1.0)))
        } else {
            None
        }
    }

    /// The coefficient value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl std::fmt::Display for Alpha {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "α={:.3}", self.0)
    }
}

/// A linear model anchored at two measured operating points — the essence of
/// the paper's single-module test runs. Instantiated per power domain (CPU,
/// DRAM) and per module once calibrated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPointModel {
    /// Maximum CPU frequency (test-run operating point 1).
    pub f_max: GigaHertz,
    /// Minimum CPU frequency (test-run operating point 2).
    pub f_min: GigaHertz,
    /// Power measured at `f_max`.
    pub p_max: Watts,
    /// Power measured at `f_min`.
    pub p_min: Watts,
}

impl TwoPointModel {
    /// Build a model from two measurements.
    ///
    /// # Panics
    /// Panics if `f_max <= f_min` — the two test runs must be at distinct
    /// frequencies for the interpolation to be defined.
    pub fn new(f_max: GigaHertz, f_min: GigaHertz, p_max: Watts, p_min: Watts) -> Self {
        assert!(f_max > f_min, "test runs must bracket a non-empty frequency range");
        TwoPointModel { f_max, f_min, p_max, p_min }
    }

    /// Eq. 1: the frequency selected by coefficient `α`.
    pub fn frequency(&self, alpha: Alpha) -> GigaHertz {
        GigaHertz(alpha.value() * (self.f_max.value() - self.f_min.value()) + self.f_min.value())
    }

    /// Eqs. 2/3: the power predicted at coefficient `α`.
    pub fn power(&self, alpha: Alpha) -> Watts {
        Watts(alpha.value() * (self.p_max.value() - self.p_min.value()) + self.p_min.value())
    }

    /// Predicted power at an arbitrary frequency (linear interpolation /
    /// extrapolation through the two anchor points).
    pub fn power_at_frequency(&self, f: GigaHertz) -> Watts {
        self.power(Alpha::saturating(self.alpha_for_frequency(f)))
    }

    /// Invert Eq. 1: the raw (unclamped) `α` that selects frequency `f`.
    // vap:allow(raw-unit-f64, unit-flow): α is the paper's dimensionless coefficient
    pub fn alpha_for_frequency(&self, f: GigaHertz) -> f64 {
        (f.value() - self.f_min.value()) / (self.f_max.value() - self.f_min.value())
    }

    /// Invert Eqs. 2/3: the raw `α` at which predicted power equals `p`.
    /// `None` when the model is power-flat (`p_max == p_min`).
    // vap:allow(raw-unit-f64, unit-flow): α is the paper's dimensionless coefficient
    pub fn alpha_for_power(&self, p: Watts) -> Option<f64> {
        let span = self.p_max.value() - self.p_min.value();
        if span.abs() < 1e-12 {
            None
        } else {
            Some((p.value() - self.p_min.value()) / span)
        }
    }

    /// The power span `P_max − P_min` (the denominator contribution of this
    /// module in Eq. 6).
    pub fn span(&self) -> Watts {
        self.p_max - self.p_min
    }

    /// Combine per-domain models into a module-level model (Eq. 4); both
    /// must share the same frequency anchors.
    pub fn combine(cpu: &TwoPointModel, dram: &TwoPointModel) -> TwoPointModel {
        assert_eq!(cpu.f_max, dram.f_max, "domains must share f_max");
        assert_eq!(cpu.f_min, dram.f_min, "domains must share f_min");
        TwoPointModel {
            f_max: cpu.f_max,
            f_min: cpu.f_min,
            p_max: cpu.p_max + dram.p_max,
            p_min: cpu.p_min + dram.p_min,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TwoPointModel {
        // Fig. 6's "Module-k" CPU example: 120 W @ f_max, 70 W @ f_min.
        TwoPointModel::new(GigaHertz(2.7), GigaHertz(1.2), Watts(120.0), Watts(70.0))
    }

    #[test]
    fn alpha_endpoints() {
        let m = model();
        assert_eq!(m.frequency(Alpha::MAX), GigaHertz(2.7));
        assert_eq!(m.frequency(Alpha::MIN), GigaHertz(1.2));
        assert_eq!(m.power(Alpha::MAX), Watts(120.0));
        assert_eq!(m.power(Alpha::MIN), Watts(70.0));
    }

    #[test]
    fn alpha_midpoint_interpolates() {
        let m = model();
        let a = Alpha::saturating(0.5);
        assert!((m.frequency(a).value() - 1.95).abs() < 1e-12);
        assert!((m.power(a).value() - 95.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_clamping_and_feasibility() {
        assert_eq!(Alpha::saturating(1.7).value(), 1.0);
        assert_eq!(Alpha::saturating(-0.3).value(), 0.0);
        assert_eq!(Alpha::try_new(1.7).unwrap().value(), 1.0);
        assert!(Alpha::try_new(-0.01).is_none());
        assert!(Alpha::try_new(f64::NAN).is_none());
        assert_eq!(Alpha::try_new(0.42).unwrap().value(), 0.42);
    }

    #[test]
    fn inversions_round_trip() {
        let m = model();
        for raw in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let a = Alpha::saturating(raw);
            let f = m.frequency(a);
            let p = m.power(a);
            assert!((m.alpha_for_frequency(f) - raw).abs() < 1e-12);
            assert!((m.alpha_for_power(p).unwrap() - raw).abs() < 1e-12);
        }
    }

    #[test]
    fn power_at_frequency_matches_eq_chain() {
        let m = model();
        let p = m.power_at_frequency(GigaHertz(1.95));
        assert!((p.value() - 95.0).abs() < 1e-12);
    }

    #[test]
    fn flat_power_model_has_no_power_inverse() {
        let m = TwoPointModel::new(GigaHertz(2.0), GigaHertz(1.0), Watts(50.0), Watts(50.0));
        assert!(m.alpha_for_power(Watts(50.0)).is_none());
    }

    #[test]
    fn combine_sums_power_domains() {
        let cpu = model();
        let dram = TwoPointModel::new(GigaHertz(2.7), GigaHertz(1.2), Watts(30.0), Watts(20.0));
        let module = TwoPointModel::combine(&cpu, &dram);
        assert_eq!(module.p_max, Watts(150.0));
        assert_eq!(module.p_min, Watts(90.0));
        assert_eq!(module.span(), Watts(60.0));
    }

    #[test]
    #[should_panic]
    fn degenerate_frequency_range_panics() {
        let _ = TwoPointModel::new(GigaHertz(1.2), GigaHertz(1.2), Watts(1.0), Watts(1.0));
    }
}
