//! Ground-truth power physics for simulated modules.
//!
//! This is the behaviour the simulated hardware *actually* follows; the
//! budgeting algorithm never sees these equations, only RAPL/sensor
//! measurements of their output. CPU power is classic CMOS:
//!
//! ```text
//! P_cpu(f) = D_eff · a_cpu · S · f · V(f)²   (dynamic / switching)
//!          + L · P_leak · θ(T)               (leakage)
//!          + P_idle                          (uncore / base)
//! ```
//!
//! with `V(f)` linear in `f` ([`VoltageCurve`]), `D_eff`/`L` the module's
//! manufacturing multipliers ([`crate::variability::ModuleVariation`]),
//! `a_cpu` the workload's CPU activity factor, and `θ(T)` an optional
//! thermal leakage factor. Because `f·V(f)²` is mildly super-linear, a
//! *linear* fit of power against frequency over a server part's 1.2–2.7 GHz
//! range is excellent but not perfect — reproducing the R² ≈ 0.99 the paper
//! reports in Fig. 5 and leaving the budgeting algorithm a realistic ~1%
//! model error.
//!
//! DRAM power is affine in frequency (faster cores generate memory traffic
//! faster), scaled by the workload's DRAM activity and the module's DRAM
//! multiplier:
//!
//! ```text
//! P_dram(f) = M · (P_standby + a_dram · (base + slope·f))
//! ```

use crate::units::{GigaHertz, Watts};
use crate::variability::ModuleVariation;

/// Linear voltage/frequency operating curve `V(f) = v0 + v1·f`.
///
/// DVFS hardware raises supply voltage with frequency along (approximately)
/// a line within the supported range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageCurve {
    /// Voltage intercept in volts.
    pub v0: f64,
    /// Voltage slope in volts per GHz.
    pub v1: f64,
}

impl VoltageCurve {
    /// Supply voltage at frequency `f`.
    #[inline]
    // vap:allow(unit-flow): volts — outside the four campaign units
    pub fn voltage(&self, f: GigaHertz) -> f64 {
        self.v0 + self.v1 * f.value()
    }

    /// The dynamic-power shape term `f · V(f)²`.
    #[inline]
    // vap:allow(unit-flow): model-internal shape term (GHz·V², scaled by k)
    pub fn dynamic_shape(&self, f: GigaHertz) -> f64 {
        let v = self.voltage(f);
        f.value() * v * v
    }
}

/// Workload activity factors: how hard a workload drives each power domain.
///
/// Defined per benchmark in `vap-workloads`; `cpu = 1.0` corresponds to a
/// fully vectorized compute kernel (*DGEMM), `dram = 1.0` to a bandwidth
/// saturating stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerActivity {
    /// CPU switching activity in `[0, ~1.2]`.
    pub cpu: f64,
    /// DRAM activity in `[0, 1]`.
    pub dram: f64,
}

impl PowerActivity {
    /// An idle module.
    pub const IDLE: PowerActivity = PowerActivity { cpu: 0.0, dram: 0.0 };
}

/// Ground-truth CPU (package) power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPowerModel {
    /// Voltage/frequency curve.
    pub voltage: VoltageCurve,
    /// Dynamic power scale in watts per (GHz·V²) at activity 1.0.
    pub dynamic_scale: Watts,
    /// Nominal leakage power at reference temperature.
    pub leakage: Watts,
    /// Base (uncore, fabric, caches) power drawn whenever the package is on.
    pub idle: Watts,
    /// Fraction of leakage still drawn while clock-gated during duty-cycle
    /// modulation (power gating is imperfect).
    pub gated_leakage_fraction: f64,
}

impl CpuPowerModel {
    /// Package power at frequency `f` under `activity`, for module
    /// `variation`, with thermal leakage factor `thermal` (1.0 = reference
    /// temperature; see [`crate::thermal`]).
    pub fn power(
        &self,
        f: GigaHertz,
        activity: f64,
        variation: &ModuleVariation,
        thermal: f64,
    ) -> Watts {
        let dynamic = self.dynamic_scale
            * (variation.effective_dynamic() * activity * self.voltage.dynamic_shape(f));
        let leak = self.leakage * (variation.leakage * thermal);
        dynamic + leak + self.idle
    }

    /// Power while clock-gated (the sleep phase of duty-cycle modulation):
    /// no switching, partially-gated leakage, plus base power.
    pub fn gated_power(&self, variation: &ModuleVariation, thermal: f64) -> Watts {
        self.leakage * (variation.leakage * thermal * self.gated_leakage_fraction) + self.idle
    }

    /// Largest continuous frequency in `[f_lo, f_hi]` whose package power
    /// does not exceed `cap`, found by bisection (power is strictly
    /// increasing in `f`). Returns `None` when even `f_lo` violates the cap
    /// — the regime where real RAPL falls back to clock modulation.
    pub fn max_frequency_within(
        &self,
        cap: Watts,
        activity: f64,
        variation: &ModuleVariation,
        thermal: f64,
        f_lo: GigaHertz,
        f_hi: GigaHertz,
    ) -> Option<GigaHertz> {
        if self.power(f_lo, activity, variation, thermal) > cap {
            return None;
        }
        if self.power(f_hi, activity, variation, thermal) <= cap {
            return Some(f_hi);
        }
        let (mut lo, mut hi) = (f_lo.value(), f_hi.value());
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            // adjacent bounds: the midpoint is one of them, and nothing moves
            if mid == lo || mid == hi {
                break;
            }
            if self.power(GigaHertz(mid), activity, variation, thermal) <= cap {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(GigaHertz(lo))
    }
}

/// Ground-truth DRAM power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramPowerModel {
    /// Standby power (refresh, PLLs) drawn regardless of activity.
    pub standby: Watts,
    /// Activity-dependent base term (per unit activity).
    pub base: Watts,
    /// Activity-dependent frequency-coupled term in watts per GHz: faster
    /// cores issue memory traffic faster.
    pub slope_per_ghz: Watts,
}

impl DramPowerModel {
    /// DRAM power at CPU frequency `f` under `activity` for `variation`.
    pub fn power(&self, f: GigaHertz, activity: f64, variation: &ModuleVariation) -> Watts {
        (self.standby + (self.base + self.slope_per_ghz * f.value()) * activity) * variation.dram
    }
}

/// A module's complete ground-truth power model: CPU package plus DRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModulePowerModel {
    /// CPU package model.
    pub cpu: CpuPowerModel,
    /// DRAM model.
    pub dram: DramPowerModel,
}

impl ModulePowerModel {
    /// CPU package power.
    pub fn cpu_power(
        &self,
        f: GigaHertz,
        act: PowerActivity,
        v: &ModuleVariation,
        thermal: f64,
    ) -> Watts {
        self.cpu.power(f, act.cpu, v, thermal)
    }

    /// DRAM power.
    pub fn dram_power(&self, f: GigaHertz, act: PowerActivity, v: &ModuleVariation) -> Watts {
        self.dram.power(f, act.dram, v)
    }

    /// Module (CPU + DRAM) power — the quantity the paper budgets
    /// (`P_module = P_cpu + P_dram`, Eq. 4).
    pub fn module_power(
        &self,
        f: GigaHertz,
        act: PowerActivity,
        v: &ModuleVariation,
        thermal: f64,
    ) -> Watts {
        self.cpu_power(f, act, v, thermal) + self.dram_power(f, act, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CpuPowerModel {
        CpuPowerModel {
            voltage: VoltageCurve { v0: 0.60, v1: 0.10 },
            dynamic_scale: Watts(36.7),
            leakage: Watts(18.0),
            idle: Watts(8.0),
            gated_leakage_fraction: 0.5,
        }
    }

    fn nominal() -> ModuleVariation {
        ModuleVariation::nominal(0, 12)
    }

    #[test]
    fn voltage_curve() {
        let v = VoltageCurve { v0: 0.6, v1: 0.1 };
        assert!((v.voltage(GigaHertz(2.7)) - 0.87).abs() < 1e-12);
        assert!((v.dynamic_shape(GigaHertz(2.7)) - 2.7 * 0.87 * 0.87).abs() < 1e-12);
    }

    #[test]
    fn power_is_monotone_in_frequency_and_activity() {
        let m = model();
        let v = nominal();
        let p1 = m.power(GigaHertz(1.2), 1.0, &v, 1.0);
        let p2 = m.power(GigaHertz(2.7), 1.0, &v, 1.0);
        assert!(p2 > p1);
        let pa = m.power(GigaHertz(2.0), 0.5, &v, 1.0);
        let pb = m.power(GigaHertz(2.0), 1.0, &v, 1.0);
        assert!(pb > pa);
    }

    #[test]
    fn ha8k_like_magnitudes() {
        // Calibration sanity: with the HA8K-ish constants above and full
        // activity, package power lands near the paper's ~100 W at f_max
        // and ~49 W at f_min.
        let m = model();
        let v = nominal();
        let p_max = m.power(GigaHertz(2.7), 1.0, &v, 1.0);
        let p_min = m.power(GigaHertz(1.2), 1.0, &v, 1.0);
        assert!((p_max.value() - 101.0).abs() < 3.0, "p_max = {p_max}");
        assert!((p_min.value() - 49.0).abs() < 3.0, "p_min = {p_min}");
    }

    #[test]
    fn variation_multipliers_apply() {
        let m = model();
        let mut v = nominal();
        v.dynamic = 1.2;
        v.leakage = 1.5;
        let p_hot = m.power(GigaHertz(2.7), 1.0, &v, 1.0);
        let p_nom = m.power(GigaHertz(2.7), 1.0, &nominal(), 1.0);
        assert!(p_hot > p_nom);
        // idle part is unaffected by variation
        let expected = Watts(36.7 * 1.2 * 2.7 * 0.87 * 0.87) + Watts(18.0 * 1.5) + Watts(8.0);
        assert!((p_hot.value() - expected.value()).abs() < 1e-9);
    }

    #[test]
    fn gated_power_below_any_active_power() {
        let m = model();
        let v = nominal();
        let gated = m.gated_power(&v, 1.0);
        assert!(gated < m.power(GigaHertz(1.2), 0.0, &v, 1.0));
        assert!((gated.value() - (18.0 * 0.5 + 8.0)).abs() < 1e-12);
    }

    #[test]
    fn max_frequency_within_inverts_power() {
        let m = model();
        let v = nominal();
        let f_lo = GigaHertz(1.2);
        let f_hi = GigaHertz(2.7);
        // cap exactly at p(2.0): inversion should return ~2.0
        let cap = m.power(GigaHertz(2.0), 1.0, &v, 1.0);
        let f = m.max_frequency_within(cap, 1.0, &v, 1.0, f_lo, f_hi).unwrap();
        assert!((f.value() - 2.0).abs() < 1e-6);
        // generous cap: full frequency
        let f = m.max_frequency_within(Watts(500.0), 1.0, &v, 1.0, f_lo, f_hi).unwrap();
        assert_eq!(f, f_hi);
        // starvation cap: None (duty-cycle regime)
        assert!(m.max_frequency_within(Watts(10.0), 1.0, &v, 1.0, f_lo, f_hi).is_none());
    }

    #[test]
    fn dram_power_scales_with_activity_and_variation() {
        let d =
            DramPowerModel { standby: Watts(4.0), base: Watts(10.0), slope_per_ghz: Watts(3.0) };
        let v = nominal();
        let idle = d.power(GigaHertz(2.0), 0.0, &v);
        assert_eq!(idle, Watts(4.0));
        let busy = d.power(GigaHertz(2.0), 1.0, &v);
        assert!((busy.value() - (4.0 + 10.0 + 6.0)).abs() < 1e-12);
        let mut hot = nominal();
        hot.dram = 1.5;
        assert!((d.power(GigaHertz(2.0), 1.0, &hot).value() - 1.5 * 20.0).abs() < 1e-12);
    }

    #[test]
    fn module_power_is_sum_of_domains() {
        let mm = ModulePowerModel {
            cpu: model(),
            dram: DramPowerModel {
                standby: Watts(4.0),
                base: Watts(10.0),
                slope_per_ghz: Watts(3.0),
            },
        };
        let v = nominal();
        let act = PowerActivity { cpu: 1.0, dram: 0.5 };
        let f = GigaHertz(2.4);
        let total = mm.module_power(f, act, &v, 1.0);
        let parts = mm.cpu_power(f, act, &v, 1.0) + mm.dram_power(f, act, &v);
        assert!((total.value() - parts.value()).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_of_ground_truth_is_excellent_but_imperfect() {
        // The property Fig. 5 relies on: over 1.2..2.7 GHz the cubic-ish
        // ground truth is fitted by a line with R^2 >= 0.99 but < 1.
        let m = model();
        let v = nominal();
        let xs: Vec<f64> = (0..16).map(|i| 1.2 + 0.1 * i as f64).collect();
        let ys: Vec<f64> =
            xs.iter().map(|&f| m.power(GigaHertz(f), 1.0, &v, 1.0).value()).collect();
        let fit = vap_stats::LinearFit::fit(&xs, &ys).unwrap();
        assert!(fit.r_squared > 0.99, "R^2 = {}", fit.r_squared);
        assert!(fit.r_squared < 1.0);
    }
}
