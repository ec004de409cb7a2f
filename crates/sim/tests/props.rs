//! Property tests for the simulated hardware layer, run as seeded loops
//! ([`vap_model::rng::check`]): a failure names the case seed to replay.

use vap_model::power::PowerActivity;
use vap_model::rng::{check, SplitMix64};
use vap_model::systems::SystemSpec;
use vap_model::units::{GigaHertz, Watts};
use vap_model::variability::ModuleVariation;
use vap_sim::cluster::Cluster;
use vap_sim::cpufreq::Governor;
use vap_sim::msr::{EnergyCounter, PowerLimitRegister};
use vap_sim::rapl::RaplLimit;

const CASES: usize = 256;

/// A one-module fleet with the given silicon, running busy.
fn module_with(dynamic: f64, leakage: f64) -> Cluster {
    let mut v = ModuleVariation::nominal(0, 12);
    v.dynamic = dynamic;
    v.leakage = leakage;
    let mut c = Cluster::with_size(SystemSpec::ha8k(), 1, 0);
    c.replace_silicon(0, v);
    c.set_activity(0, PowerActivity { cpu: 1.0, dram: 0.28 });
    c
}

/// `len` in `[lo, hi)` values drawn uniformly from `[min, max)`.
fn vec_in(rng: &mut SplitMix64, lo: usize, hi: usize, min: f64, max: f64) -> Vec<f64> {
    let len = lo + rng.next_index(hi - lo);
    (0..len).map(|_| rng.next_range(min, max)).collect()
}

/// Whatever the silicon and the cap, a capped module never draws more
/// CPU power than the (MSR-quantized) cap unless the hardware floor
/// was hit — and then the operating point is the deepest throttle.
#[test]
fn caps_are_enforced_or_floored() {
    check("caps_are_enforced_or_floored", 1, CASES, |rng| {
        let cap_w = rng.next_range(15.0, 140.0);
        let dynamic = rng.next_range(0.9, 1.1);
        let leakage = rng.next_range(0.6, 1.5);
        let mut c = module_with(dynamic, leakage);
        c.set_cap(0, RaplLimit::with_default_window(Watts(cap_w)));
        let m = c.module(0);
        let effective_cap = m.cap().unwrap().cap;
        let op = m.operating_point();
        let at_floor = op.duty <= 1.0 / 16.0 + 1e-12;
        if !at_floor {
            assert!(
                m.cpu_power() <= effective_cap + Watts(1e-6),
                "drew {} over cap {} at {:?}",
                m.cpu_power(),
                effective_cap,
                op
            );
        } else {
            assert!((op.clock.value() - 1.2).abs() < 1e-9);
        }
    });
}

/// Tightening the cap never increases the effective frequency, power,
/// or execution rate (global monotonicity of the throttling stack).
#[test]
fn throttling_is_monotone() {
    check("throttling_is_monotone", 2, CASES, |rng| {
        let cap_w = rng.next_range(30.0, 120.0);
        let delta = rng.next_range(1.0, 40.0);
        let leakage = rng.next_range(0.6, 1.5);
        let mut c = module_with(1.0, leakage);
        let b = vap_model::boundedness::Boundedness::new(0.8, GigaHertz(2.7));

        c.set_cap(0, RaplLimit::with_default_window(Watts(cap_w + delta)));
        let m = c.module(0);
        let f_loose = m.operating_point().effective_frequency();
        let p_loose = m.cpu_power();
        let r_loose = m.effective_rate(&b);

        c.set_cap(0, RaplLimit::with_default_window(Watts(cap_w)));
        let m = c.module(0);
        let f_tight = m.operating_point().effective_frequency();
        let p_tight = m.cpu_power();
        let r_tight = m.effective_rate(&b);

        assert!(f_tight <= f_loose + GigaHertz(1e-9));
        assert!(p_tight <= p_loose + Watts(1e-6));
        assert!(r_tight <= r_loose + 1e-9);
    });
}

/// The MSR power-limit encoding round-trips any representable cap to
/// within half a quantum, and preserves the control bits exactly.
#[test]
fn msr_power_limit_round_trip() {
    check("msr_power_limit_round_trip", 3, CASES, |rng| {
        let cap_w = rng.next_range(0.0, 4000.0);
        let enabled = rng.next_u64() & 1 == 1;
        let clamp = rng.next_u64() & 1 == 1;
        let window_ms = rng.next_range(0.98, 300.0);
        let reg = PowerLimitRegister {
            limit: Watts(cap_w),
            enabled,
            clamp,
            window: vap_model::units::Seconds::from_millis(window_ms),
        };
        let back = PowerLimitRegister::decode(reg.encode());
        assert!((back.limit.value() - cap_w).abs() <= 0.0625 + 1e-9);
        assert_eq!(back.enabled, enabled);
        assert_eq!(back.clamp, clamp);
        // window lands on the representable geometric grid (ratio <= 1.25)
        let ratio = (back.window.millis() / window_ms).max(window_ms / back.window.millis());
        assert!(ratio < 1.3, "window {} -> {}", window_ms, back.window.millis());
    });
}

/// Energy counters: accumulating arbitrary positive quanta and
/// differencing recovers the total to within a counter quantum per
/// accumulate call, wrap or no wrap.
#[test]
fn energy_counter_conservation() {
    check("energy_counter_conservation", 4, CASES, |rng| {
        let chunks = vec_in(rng, 1, 50, 1e-6, 200.0);
        let mut c = EnergyCounter::default();
        let before = c.raw();
        let mut total = 0.0;
        for &j in &chunks {
            c.accumulate(vap_model::units::Joules(j));
            total += j;
        }
        // only valid when less than one wrap (65536 J) elapsed
        if total >= 65000.0 {
            return;
        }
        let d = EnergyCounter::delta(before, c.raw());
        let quantum = 1.0 / (1u64 << 16) as f64;
        assert!((d.value() - total).abs() <= quantum * chunks.len() as f64 + 1e-9);
    });
}

/// The userspace governor never exceeds its requested frequency and
/// always lands on a supported P-state.
#[test]
fn userspace_governor_snaps_safely() {
    check("userspace_governor_snaps_safely", 5, CASES, |rng| {
        let req = rng.next_range(0.3, 4.0);
        let mut c = module_with(1.0, 1.0);
        c.set_governor(0, Governor::Userspace(GigaHertz(req)));
        let clock = c.module(0).operating_point().clock;
        assert!(c.module(0).pstates().frequencies().contains(&clock));
        if req >= 1.2 {
            assert!(clock.value() <= req + 1e-9);
        } else {
            assert!((clock.value() - 1.2).abs() < 1e-9);
        }
    });
}

/// Energy accounting integrates power exactly for stepped time, for
/// arbitrary step patterns.
#[test]
fn energy_is_the_integral_of_power() {
    check("energy_is_the_integral_of_power", 6, CASES, |rng| {
        let steps = vec_in(rng, 1, 30, 0.001, 0.5);
        let cap_w = rng.next_range(40.0, 120.0);
        let mut c = module_with(1.0, 1.1);
        c.set_cap(0, RaplLimit::with_default_window(Watts(cap_w)));
        let p = c.module(0).module_power().value();
        let mut elapsed = 0.0;
        for &dt in &steps {
            c.step(0, vap_model::units::Seconds(dt));
            elapsed += dt;
        }
        // the RAPL counters, which hold back less than one unit each
        let m = c.module(0);
        let counted = |e: EnergyCounter| EnergyCounter::delta(0, e.raw()).value();
        let e = counted(m.pkg_counter()) + counted(m.dram_counter());
        let quantum = EnergyCounter::delta(0, 1).value();
        assert!((e - p * elapsed).abs() < 1e-6 * steps.len() as f64 + 2.0 * quantum);
    });
}
