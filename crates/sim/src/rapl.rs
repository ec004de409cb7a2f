//! Running Average Power Limit (RAPL) enforcement.
//!
//! RAPL lets software specify "a power bound and a time window, and the
//! hardware ensures that the average power over the time window does not
//! exceed the specified bound" (§3.1.1), internally by dynamic voltage and
//! frequency scaling. Two consequences drive the whole paper:
//!
//! 1. Under a uniform cap, each module settles at the highest frequency
//!    *its own* power curve affords — manufacturing variability in power
//!    becomes frequency variation (Fig. 2(ii)).
//! 2. When the cap is below the power of even the lowest P-state, the
//!    hardware falls back to **duty-cycle clock modulation**, whose
//!    performance cliff is much steeper than DVFS. This is the regime a
//!    variation-unaware scheme pushes unlucky modules into at tight budgets
//!    and the origin of the paper's largest speedups (5.4× at 96 kW).
//!
//! [`steady_state`] solves the converged operating point analytically (what
//! the average over many 1 ms windows looks like); [`RaplController`] is the
//! step-by-step feedback loop, used to validate that the dynamics actually
//! converge to the analytic answer.

use vap_model::power::CpuPowerModel;
use vap_model::pstate::PStateTable;
use vap_model::units::{GigaHertz, Seconds, Watts};
use vap_model::variability::ModuleVariation;

/// Hardware floor for duty-cycle modulation (Intel clock modulation stops
/// at 1/16 duty); below this the cap can no longer be honored.
pub const MIN_DUTY: f64 = 1.0 / 16.0;

/// A programmed RAPL limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaplLimit {
    /// Package power cap.
    pub cap: Watts,
    /// Averaging window (1 ms in all the paper's experiments).
    pub window: Seconds,
}

impl RaplLimit {
    /// A limit with the paper's default 1 ms window.
    pub fn with_default_window(cap: Watts) -> Self {
        RaplLimit { cap, window: Seconds::from_millis(1.0) }
    }
}

/// The converged operating point of a module under a RAPL cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RaplSteadyState {
    /// The cap does not bind: the module runs at its uncapped frequency
    /// (turbo where available).
    Unconstrained {
        /// Operating frequency.
        freq: GigaHertz,
    },
    /// The cap binds within the DVFS range: the module averages this
    /// (continuous) frequency across RAPL windows.
    Dvfs {
        /// Window-averaged operating frequency.
        freq: GigaHertz,
    },
    /// The cap is below P(f_min): the module runs at `f_min` for `duty`
    /// fraction of each window and clock-gates for the rest.
    ClockModulated {
        /// Run fraction in `[MIN_DUTY, 1)`.
        duty: f64,
        /// `true` when the required duty fell below the hardware floor and
        /// the cap is (slightly) violated at `MIN_DUTY`.
        floored: bool,
    },
}

impl RaplSteadyState {
    /// The effective frequency for performance purposes: actual frequency
    /// in DVFS regimes, `duty × f_min` worth of cycles under modulation.
    pub fn effective_frequency(&self, pstates: &PStateTable) -> GigaHertz {
        match *self {
            RaplSteadyState::Unconstrained { freq } | RaplSteadyState::Dvfs { freq } => freq,
            RaplSteadyState::ClockModulated { duty, .. } => pstates.f_min() * duty,
        }
    }
}

/// Throughput efficiency of RAPL's *dynamic* cap enforcement in the DVFS
/// region. §5.3 of the paper: "RAPL attempts to dynamically optimize the
/// CPU frequency when a power cap is enforced, leading to CPU frequency
/// throttling. This dynamic behavior does not guarantee consistent
/// performance" — the controller dithers between neighboring P-states to
/// hold the window average, costing a few percent versus a statically
/// pinned frequency (the advantage the FS implementation exploits).
pub const DVFS_DITHER_EFFICIENCY: f64 = 0.95;

/// Relative throughput efficiency of duty-cycle modulation: stopping and
/// restarting the clock drains and refills pipelines and reorders traffic,
/// so a module running `duty` of the time delivers *less* than `duty` of
/// its work. Modeled as `1 / (1 + c·(1/duty − 1))` with `c` the per-gap
/// overhead fraction.
pub fn modulation_efficiency(duty: f64) -> f64 {
    const OVERHEAD: f64 = 0.10;
    // A fully gated clock delivers nothing — it must not score as
    // lossless. Only an unmodulated clock (duty >= 1) is overhead-free.
    if duty <= 0.0 {
        return 0.0;
    }
    if duty >= 1.0 {
        return 1.0;
    }
    1.0 / (1.0 + OVERHEAD * (1.0 / duty - 1.0))
}

/// Solve the converged operating point under `cap` for a module with the
/// given power model, workload activity, manufacturing fingerprint and
/// thermal factor.
pub fn steady_state(
    cap: Watts,
    model: &CpuPowerModel,
    activity: f64,
    variation: &ModuleVariation,
    thermal: f64,
    pstates: &PStateTable,
) -> RaplSteadyState {
    let f_top = pstates.uncapped();
    let f_min = pstates.f_min();
    if model.power(f_top, activity, variation, thermal) <= cap {
        return RaplSteadyState::Unconstrained { freq: f_top };
    }
    if let Some(freq) = model.max_frequency_within(cap, activity, variation, thermal, f_min, f_top)
    {
        return RaplSteadyState::Dvfs { freq };
    }
    // Below P(f_min): duty-cycle between running at f_min and clock-gated.
    // The hardware cannot power the package off, so when even the gated
    // power exceeds the cap it clamps at the deepest throttle and the cap
    // is simply violated — `floored` reports that.
    let p_run = model.power(f_min, activity, variation, thermal);
    let p_gated = model.gated_power(variation, thermal);
    let duty = if cap <= p_gated { 0.0 } else { (cap - p_gated) / (p_run - p_gated) };
    vap_obs::incr("rapl.clock_modulated");
    if duty < MIN_DUTY {
        vap_obs::incr("rapl.cap_clamped");
        RaplSteadyState::ClockModulated { duty: MIN_DUTY, floored: true }
    } else {
        RaplSteadyState::ClockModulated { duty: duty.min(1.0), floored: false }
    }
}

/// Average package power drawn in steady state `s` (duty-weighted under
/// modulation).
pub fn steady_state_power(
    s: &RaplSteadyState,
    model: &CpuPowerModel,
    activity: f64,
    variation: &ModuleVariation,
    thermal: f64,
    pstates: &PStateTable,
) -> Watts {
    match *s {
        RaplSteadyState::Unconstrained { freq } | RaplSteadyState::Dvfs { freq } => {
            model.power(freq, activity, variation, thermal)
        }
        RaplSteadyState::ClockModulated { duty, .. } => {
            let p_run = model.power(pstates.f_min(), activity, variation, thermal);
            let p_gated = model.gated_power(variation, thermal);
            p_run * duty + p_gated * (1.0 - duty)
        }
    }
}

/// The feedback control decision taken once per control interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaplDecision {
    /// Move one P-state down (or shrink duty under modulation).
    Throttle,
    /// Move one P-state up (or grow duty).
    Unthrottle,
    /// Stay at the current operating point.
    Hold,
}

/// The dynamic RAPL feedback loop: tracks a running average of package
/// power over the programmed window and nudges the operating point each
/// control interval. Converges to (a discretized neighborhood of) the
/// analytic [`steady_state`].
#[derive(Debug, Clone)]
pub struct RaplController {
    limit: RaplLimit,
    avg_power: Watts,
    primed: bool,
    /// Hysteresis band as a fraction of the cap; prevents P-state flapping.
    hysteresis: f64,
}

impl RaplController {
    /// Create a controller for `limit`.
    pub fn new(limit: RaplLimit) -> Self {
        RaplController { limit, avg_power: Watts::ZERO, primed: false, hysteresis: 0.02 }
    }

    /// Current running-average power estimate.
    pub fn average_power(&self) -> Watts {
        self.avg_power
    }

    /// Feed one interval's measured power; `dt` is the control interval.
    /// Uses an exponential moving average with time constant equal to the
    /// programmed window.
    pub fn observe(&mut self, power: Watts, dt: Seconds) {
        if !self.primed {
            self.avg_power = power;
            self.primed = true;
            return;
        }
        let k = (dt.value() / self.limit.window.value()).clamp(0.0, 1.0);
        self.avg_power = self.avg_power * (1.0 - k) + power * k;
    }

    /// Decide the next move given the current average.
    pub fn decide(&self) -> RaplDecision {
        if !self.primed {
            return RaplDecision::Hold;
        }
        let hi = self.limit.cap;
        let lo = self.limit.cap * (1.0 - self.hysteresis);
        if self.avg_power > hi {
            RaplDecision::Throttle
        } else if self.avg_power < lo {
            RaplDecision::Unthrottle
        } else {
            RaplDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::power::VoltageCurve;

    fn model() -> CpuPowerModel {
        CpuPowerModel {
            voltage: VoltageCurve { v0: 0.60, v1: 0.10 },
            dynamic_scale: Watts(36.7),
            leakage: Watts(18.0),
            idle: Watts(8.0),
            gated_leakage_fraction: 0.5,
        }
    }

    fn pstates() -> PStateTable {
        PStateTable::evenly_spaced(GigaHertz(1.2), GigaHertz(2.7), GigaHertz(0.1))
    }

    fn nominal() -> ModuleVariation {
        ModuleVariation::nominal(0, 12)
    }

    #[test]
    fn generous_cap_is_unconstrained() {
        let s = steady_state(Watts(500.0), &model(), 1.0, &nominal(), 1.0, &pstates());
        assert_eq!(s, RaplSteadyState::Unconstrained { freq: GigaHertz(2.7) });
    }

    #[test]
    fn binding_cap_lands_in_dvfs_range_at_cap_power() {
        let m = model();
        let ps = pstates();
        let v = nominal();
        let cap = Watts(77.3); // the paper's Ccpu at Cm = 90 W
        let s = steady_state(cap, &m, 1.0, &v, 1.0, &ps);
        match s {
            RaplSteadyState::Dvfs { freq } => {
                assert!(freq > ps.f_min() && freq < ps.f_max());
                let p = steady_state_power(&s, &m, 1.0, &v, 1.0, &ps);
                assert!((p.value() - cap.value()).abs() < 0.01, "p = {p}");
            }
            other => panic!("expected Dvfs, got {other:?}"),
        }
    }

    #[test]
    fn sub_fmin_cap_duty_cycles() {
        let m = model();
        let ps = pstates();
        let v = nominal();
        let p_fmin = m.power(ps.f_min(), 1.0, &v, 1.0);
        let cap = p_fmin * 0.7;
        let s = steady_state(cap, &m, 1.0, &v, 1.0, &ps);
        match s {
            RaplSteadyState::ClockModulated { duty, floored } => {
                assert!(!floored);
                assert!((MIN_DUTY..1.0).contains(&duty));
                let p = steady_state_power(&s, &m, 1.0, &v, 1.0, &ps);
                assert!((p.value() - cap.value()).abs() < 0.01);
                // performance cliff: effective frequency below f_min
                assert!(s.effective_frequency(&ps) < ps.f_min());
            }
            other => panic!("expected ClockModulated, got {other:?}"),
        }
    }

    #[test]
    fn duty_floor_is_respected_and_flagged() {
        let m = model();
        let ps = pstates();
        let v = nominal();
        let p_gated = m.gated_power(&v, 1.0);
        let cap = p_gated + Watts(0.1); // just feasible, needs tiny duty
        let s = steady_state(cap, &m, 1.0, &v, 1.0, &ps);
        match s {
            RaplSteadyState::ClockModulated { duty, floored } => {
                assert_eq!(duty, MIN_DUTY);
                assert!(floored);
            }
            other => panic!("expected floored modulation, got {other:?}"),
        }
    }

    #[test]
    fn starvation_cap_clamps_at_floor_and_violates() {
        // A cap below even the gated power cannot be honored: the hardware
        // sits at the deepest throttle and the cap is violated.
        let m = model();
        let ps = pstates();
        let v = nominal();
        let s = steady_state(Watts(5.0), &m, 1.0, &v, 1.0, &ps);
        assert_eq!(s, RaplSteadyState::ClockModulated { duty: MIN_DUTY, floored: true });
        let p = steady_state_power(&s, &m, 1.0, &v, 1.0, &ps);
        assert!(p > Watts(5.0), "cap must be violated at the floor");
    }

    #[test]
    fn modulation_efficiency_penalizes_deep_throttle() {
        assert_eq!(modulation_efficiency(1.0), 1.0);
        assert!(modulation_efficiency(0.5) < 1.0);
        assert!(modulation_efficiency(0.1) < modulation_efficiency(0.5));
        // monotone in duty
        let mut last = 0.0;
        for d in [0.0625, 0.125, 0.25, 0.5, 0.75, 1.0] {
            let e = modulation_efficiency(d);
            assert!(e >= last);
            last = e;
        }
    }

    #[test]
    fn modulation_efficiency_zero_for_gated_clock() {
        // Regression: a non-positive duty used to short-circuit to 1.0,
        // modeling a fully gated clock as lossless.
        assert_eq!(modulation_efficiency(0.0), 0.0);
        assert_eq!(modulation_efficiency(-0.25), 0.0);
        assert_eq!(modulation_efficiency(1.0), 1.0);
        assert_eq!(modulation_efficiency(1.5), 1.0);
        // strictly monotone over (0, 1]: more run time, more throughput
        let mut last = 0.0;
        let steps = 64;
        for i in 1..=steps {
            let duty = f64::from(i) / f64::from(steps);
            let e = modulation_efficiency(duty);
            assert!(e > last, "efficiency not strictly increasing at duty {duty}: {e} <= {last}");
            assert!(e > 0.0 && e <= 1.0);
            last = e;
        }
        assert_eq!(last, 1.0);
    }

    #[test]
    fn power_hungry_module_gets_lower_frequency() {
        // The paper's core observation: same cap, different silicon →
        // different frequency.
        let m = model();
        let ps = pstates();
        let cap = Watts(77.3);
        let mut hungry = nominal();
        hungry.dynamic = 1.1;
        hungry.leakage = 1.4;
        let f_nom = steady_state(cap, &m, 1.0, &nominal(), 1.0, &ps).effective_frequency(&ps);
        let f_hun = steady_state(cap, &m, 1.0, &hungry, 1.0, &ps).effective_frequency(&ps);
        assert!(f_hun < f_nom, "hungry {f_hun:?} !< nominal {f_nom:?}");
    }

    #[test]
    fn tighter_caps_monotonically_reduce_effective_frequency() {
        let m = model();
        let ps = pstates();
        let v = nominal();
        let mut last = f64::INFINITY;
        for cap_w in [110.0, 97.4, 88.1, 78.8, 69.5, 60.1, 50.0, 40.0, 30.0] {
            let s = steady_state(Watts(cap_w), &m, 1.0, &v, 1.0, &ps);
            let f = s.effective_frequency(&ps).value();
            assert!(f <= last + 1e-12, "cap {cap_w}: {f} > {last}");
            last = f;
        }
    }

    #[test]
    fn controller_converges_toward_cap() {
        let m = model();
        let ps = pstates();
        let v = nominal();
        let cap = Watts(70.0);
        let mut ctl = RaplController::new(RaplLimit::with_default_window(cap));
        let dt = Seconds::from_millis(1.0);
        let mut freq = ps.f_max();
        for _ in 0..200 {
            let p = m.power(freq, 1.0, &v, 1.0);
            ctl.observe(p, dt);
            match ctl.decide() {
                RaplDecision::Throttle => {
                    if let Some(f) = ps.step_down(freq) {
                        freq = f;
                    }
                }
                RaplDecision::Unthrottle => {
                    // don't exceed the cap when stepping up
                    if let Some(f) = ps.step_up(freq) {
                        if m.power(f, 1.0, &v, 1.0) <= cap {
                            freq = f;
                        }
                    }
                }
                RaplDecision::Hold => {}
            }
        }
        // Converged frequency should match the analytic steady state to
        // within one P-state step.
        let analytic = steady_state(cap, &m, 1.0, &v, 1.0, &ps).effective_frequency(&ps);
        assert!(
            (freq.value() - analytic.value()).abs() <= 0.1 + 1e-9,
            "dynamic {freq:?} vs analytic {analytic:?}"
        );
        // And the achieved power respects the cap.
        assert!(m.power(freq, 1.0, &v, 1.0) <= cap + Watts(1e-9));
    }

    #[test]
    fn ewma_priming_and_window() {
        let mut ctl =
            RaplController::new(RaplLimit { cap: Watts(50.0), window: Seconds::from_millis(10.0) });
        assert_eq!(ctl.decide(), RaplDecision::Hold);
        ctl.observe(Watts(100.0), Seconds::from_millis(1.0));
        assert_eq!(ctl.average_power(), Watts(100.0)); // primed directly
        ctl.observe(Watts(0.0), Seconds::from_millis(1.0));
        assert!((ctl.average_power().value() - 90.0).abs() < 1e-9);
        assert_eq!(ctl.decide(), RaplDecision::Throttle);
    }
}
