//! Property tests for the model layer, run as seeded loops
//! ([`vap_model::rng::check`]): a failure names the case seed to replay.

use vap_model::boundedness::Boundedness;
use vap_model::linear::{Alpha, TwoPointModel};
use vap_model::power::{CpuPowerModel, VoltageCurve};
use vap_model::pstate::PStateTable;
use vap_model::rng::check;
use vap_model::units::{GigaHertz, Watts};
use vap_model::variability::{ModuleVariation, VariabilityModel};

const CASES: usize = 256;

/// P-state snapping invariants: floor is a supported state, and within the
/// table range it never exceeds its input.
#[test]
fn pstate_snapping() {
    check("pstate_snapping", 1, CASES, |rng| {
        let f = rng.next_range(0.5, 4.0);
        let t = PStateTable::evenly_spaced(GigaHertz(1.2), GigaHertz(2.7), GigaHertz(0.1));
        let lo = t.floor(GigaHertz(f));
        assert!(t.frequencies().contains(&lo));
        if (1.2..=2.7).contains(&f) {
            assert!(lo.value() <= f + 1e-9);
        }
    });
}

/// Stepping down then up from an interior P-state is the identity.
#[test]
fn pstate_stepping_round_trip() {
    check("pstate_stepping_round_trip", 2, CASES, |rng| {
        let idx = 1 + rng.next_index(14);
        let t = PStateTable::evenly_spaced(GigaHertz(1.2), GigaHertz(2.7), GigaHertz(0.1));
        let f = t.frequencies()[idx];
        let down = t.step_down(f).expect("interior state");
        let up = t.step_up(down).expect("interior state");
        assert!((up.value() - f.value()).abs() < 1e-9);
    });
}

/// CPU power is strictly monotone in frequency and activity, and the
/// continuous cap inversion is consistent with the forward model.
#[test]
fn cpu_power_monotone_and_invertible() {
    check("cpu_power_monotone_and_invertible", 3, CASES, |rng| {
        let f1 = rng.next_range(1.2, 2.69);
        let df = rng.next_range(0.01, 1.0);
        let act = rng.next_range(0.1, 1.2);
        let leak = rng.next_range(0.6, 1.5);
        let m = CpuPowerModel {
            voltage: VoltageCurve { v0: 0.6, v1: 0.1 },
            dynamic_scale: Watts(36.7),
            leakage: Watts(18.0),
            idle: Watts(8.0),
            gated_leakage_fraction: 1.0,
        };
        let mut v = ModuleVariation::nominal(0, 8);
        v.leakage = leak;
        let f2 = (f1 + df).min(2.7);
        let p1 = m.power(GigaHertz(f1), act, &v, 1.0);
        let p2 = m.power(GigaHertz(f2), act, &v, 1.0);
        assert!(p2 > p1);
        // inversion lands on the frequency whose power equals the cap
        let found = m
            .max_frequency_within(p1, act, &v, 1.0, GigaHertz(1.2), GigaHertz(2.7))
            .expect("cap = p(f1) is feasible");
        assert!((found.value() - f1).abs() < 1e-6);
    });
}

/// The two-point model brackets its anchors: for any α in [0,1] the
/// predicted power lies in [p_min, p_max] and frequency in
/// [f_min, f_max].
#[test]
fn two_point_model_brackets() {
    check("two_point_model_brackets", 4, CASES, |rng| {
        let p_max = rng.next_range(10.0, 300.0);
        let span = rng.next_range(0.0, 200.0);
        let raw = rng.next_range(-2.0, 3.0);
        let m = TwoPointModel::new(
            GigaHertz(2.7),
            GigaHertz(1.2),
            Watts(p_max),
            Watts((p_max - span).max(0.1)),
        );
        let a = Alpha::saturating(raw);
        let p = m.power(a);
        let f = m.frequency(a);
        assert!(p >= m.p_min - Watts(1e-9) && p <= m.p_max + Watts(1e-9));
        assert!(f >= m.f_min && f <= m.f_max);
    });
}

/// Boundedness: slowdown is ≥ 1 at-or-below the reference frequency,
/// monotone decreasing in f, and exactly χ-weighted.
#[test]
fn boundedness_properties() {
    check("boundedness_properties", 5, CASES, |rng| {
        let chi = rng.next_range(0.0, 1.0);
        let f = rng.next_range(0.4, 2.7);
        let b = Boundedness::new(chi, GigaHertz(2.7));
        let s = b.slowdown(GigaHertz(f));
        assert!(s >= 1.0 - 1e-12);
        assert!((s - (chi * (2.7 / f) + (1.0 - chi))).abs() < 1e-12);
        let s2 = b.slowdown(GigaHertz(f + 0.1));
        assert!(s2 <= s + 1e-12);
        assert!((b.relative_rate(GigaHertz(f)) * s - 1.0).abs() < 1e-12);
    });
}

/// Sampled fleets always produce physical multipliers and a population
/// mean near 1, whatever (bounded) sigmas are configured.
#[test]
fn fleet_sampling_is_physical() {
    check("fleet_sampling_is_physical", 6, CASES, |rng| {
        let dyn_sigma = rng.next_range(0.0, 0.2);
        let leak_sigma = rng.next_range(0.0, 0.6);
        let dram_sigma = rng.next_range(0.0, 0.3);
        let seed = rng.next_index(1000) as u64;
        let m = VariabilityModel::frequency_binned(dyn_sigma, leak_sigma, dram_sigma);
        let fleet = m.sample_fleet(64, 8, seed);
        assert_eq!(fleet.len(), 64);
        for v in &fleet {
            assert!(v.dynamic > 0.0 && v.leakage > 0.0 && v.dram > 0.0);
            assert!(v.effective_dynamic() > 0.0);
            assert_eq!(v.core_factors().len(), 8);
        }
        let mean: f64 = fleet.iter().map(|v| v.dynamic).sum::<f64>() / 64.0;
        assert!((mean - 1.0).abs() < 0.35, "dynamic mean {mean}");
    });
}
