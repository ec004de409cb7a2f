//! Time-stepped RAPL co-simulation.
//!
//! The campaign experiments use the *analytic* steady state of
//! [`crate::rapl::steady_state`] — justified because RAPL's control loop
//! converges within milliseconds while application regions run for
//! minutes. This module is the justification's receipts: it steps a
//! module through the actual feedback loop (measure window average →
//! throttle/unthrottle one P-state, or adjust the modulation duty) and
//! records the power/frequency trajectory, so convergence time and
//! steady-state agreement can be measured rather than assumed.
//!
//! The `rapl_dynamics` example and this module's
//! `dynamic_matches_analytic_steady_state_within_one_pstate` test compare
//! it with the analytic steady state.

use crate::cluster::Cluster;
use crate::cpufreq::Governor;
use crate::rapl::{self, RaplController, RaplDecision, RaplLimit, MIN_DUTY};
use crate::trace::{PowerTrace, TraceError};
use vap_model::units::{GigaHertz, Seconds, Watts};

/// Why a dynamics run could not start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynamicsError {
    /// The control interval is not a positive, finite duration.
    InvalidInterval(TraceError),
    /// Zero control intervals were requested.
    NoSteps,
}

impl std::fmt::Display for DynamicsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicsError::InvalidInterval(_) => write!(f, "invalid control interval"),
            DynamicsError::NoSteps => write!(f, "need at least one control interval"),
        }
    }
}

impl std::error::Error for DynamicsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DynamicsError::InvalidInterval(e) => Some(e),
            DynamicsError::NoSteps => None,
        }
    }
}

/// Outcome of a dynamic enforcement run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsResult {
    /// Package power per control interval.
    pub power: PowerTrace,
    /// Effective (duty-weighted) clock frequency per control interval.
    pub freq: Vec<GigaHertz>,
    /// Modulation duty per control interval.
    pub duty: Vec<f64>,
    /// First interval index at which the operating point stopped changing
    /// for the rest of the run; `None` if it never settled.
    pub settled_at: Option<usize>,
}

impl DynamicsResult {
    /// Time to convergence, if the loop settled.
    pub fn settling_time(&self) -> Option<Seconds> {
        self.settled_at.map(|i| self.power.dt() * i as f64)
    }

    /// Mean power over the final quarter of the run (the converged
    /// regime).
    pub fn converged_power(&self) -> Watts {
        let s = self.power.samples();
        let tail = &s[s.len() - s.len() / 4 - 1..];
        tail.iter().copied().sum::<Watts>() / tail.len() as f64
    }

    /// Mean frequency over the final quarter of the run.
    pub fn converged_frequency(&self) -> GigaHertz {
        let tail = &self.freq[self.freq.len() - self.freq.len() / 4 - 1..];
        GigaHertz(tail.iter().map(|f| f.value()).sum::<f64>() / tail.len() as f64)
    }
}

/// Step module `i` of `cluster` under `limit` for `steps` control
/// intervals of `dt`, running the real feedback loop instead of the
/// analytic solve.
///
/// The module's cap is *not* installed through [`Cluster::set_cap`]
/// (which would jump straight to the steady state); instead the governor
/// is driven interval by interval the way RAPL firmware drives P-states.
///
/// # Panics
/// Panics if `i` is out of range.
pub fn enforce(
    cluster: &mut Cluster,
    i: usize,
    limit: RaplLimit,
    dt: Seconds,
    steps: usize,
) -> Result<DynamicsResult, DynamicsError> {
    if steps == 0 {
        return Err(DynamicsError::NoSteps);
    }
    let pstates = cluster.spec().pstates.clone();
    let mut controller = RaplController::new(limit);
    let mut clock = pstates.uncapped();
    let mut duty = 1.0f64;

    let mut power = PowerTrace::new(dt).map_err(DynamicsError::InvalidInterval)?;
    let mut freq = Vec::with_capacity(steps);
    let mut duties = Vec::with_capacity(steps);
    let mut last_change = 0usize;

    for step in 0..steps {
        // pin the trial operating point through the governor
        cluster.set_governor(i, Governor::Userspace(clock));
        let m = cluster.module(i);
        let p_run = m.cpu_power();
        let p_gated = m.power_model().cpu.gated_power(m.variation(), m.thermal_factor());
        let p_avg = p_run * duty + p_gated * (1.0 - duty);

        power.record(p_avg);
        freq.push(GigaHertz(clock.value() * duty));
        duties.push(duty);
        cluster.step(i, dt);

        controller.observe(p_avg, dt);
        let before = (clock, duty);
        match controller.decide() {
            RaplDecision::Throttle => {
                if duty < 1.0 || pstates.step_down(clock).is_none() {
                    // already at the bottom P-state: deepen modulation
                    duty = (duty - MIN_DUTY).max(MIN_DUTY);
                    clock = pstates.f_min();
                } else if let Some(f) = pstates.step_down(clock) {
                    clock = f;
                }
            }
            RaplDecision::Unthrottle => {
                if duty < 1.0 {
                    duty = (duty + MIN_DUTY).min(1.0);
                } else if let Some(f) = pstates.step_up(clock) {
                    // only step up if the new point would still respect
                    // the cap (mirrors hardware's guard band)
                    cluster.set_governor(i, Governor::Userspace(f));
                    if cluster.module(i).cpu_power() <= limit.cap {
                        clock = f;
                    }
                    cluster.set_governor(i, Governor::Userspace(clock));
                }
            }
            RaplDecision::Hold => {}
        }
        if (clock, duty) != before {
            last_change = step + 1;
        }
    }
    cluster.set_governor(i, Governor::Performance);

    let settled_at = if last_change < steps { Some(last_change) } else { None };
    Ok(DynamicsResult { power, freq, duty: duties, settled_at })
}

/// Compare the dynamic loop's converged operating point against the
/// analytic steady state; returns `(analytic_freq, dynamic_freq)`
/// (effective, duty-weighted).
pub fn validate_against_steady_state(
    cluster: &mut Cluster,
    i: usize,
    limit: RaplLimit,
    dt: Seconds,
    steps: usize,
) -> Result<(GigaHertz, GigaHertz), DynamicsError> {
    let m = cluster.module(i);
    let analytic = rapl::steady_state(
        limit.cap,
        &m.power_model().cpu,
        m.activity().cpu,
        m.variation(),
        m.thermal_factor(),
        m.pstates(),
    )
    .effective_frequency(m.pstates());
    let dynamic = enforce(cluster, i, limit, dt, steps)?.converged_frequency();
    Ok((analytic, dynamic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::power::PowerActivity;
    use vap_model::systems::SystemSpec;
    use vap_model::variability::ModuleVariation;

    /// A one-module fleet on the nominal fingerprint, running busy.
    fn busy_module() -> Cluster {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), 1, 0);
        c.replace_silicon(0, ModuleVariation::nominal(0, 12));
        c.set_activity(0, PowerActivity { cpu: 1.0, dram: 0.28 });
        c
    }

    #[test]
    fn loop_converges_fast_and_respects_the_cap() {
        let mut c = busy_module();
        let limit = RaplLimit::with_default_window(Watts(70.0));
        let r = enforce(&mut c, 0, limit, Seconds::from_millis(1.0), 500).unwrap();
        // settles within tens of control intervals (tens of ms)
        let settle = r.settling_time().expect("loop should settle");
        assert!(settle.millis() < 100.0, "settled after {settle:?}");
        // converged power at-or-under the cap
        assert!(r.converged_power() <= Watts(70.0) + Watts(0.5), "{}", r.converged_power());
        // but close to it (no sandbagging)
        assert!(r.converged_power() > Watts(60.0));
    }

    #[test]
    fn dynamic_matches_analytic_steady_state_within_one_pstate() {
        let mut c = busy_module();
        for cap_w in [95.0, 80.0, 65.0, 55.0] {
            let limit = RaplLimit::with_default_window(Watts(cap_w));
            let (analytic, dynamic) =
                validate_against_steady_state(&mut c, 0, limit, Seconds::from_millis(1.0), 400)
                    .unwrap();
            assert!(
                (analytic.value() - dynamic.value()).abs() <= 0.11,
                "cap {cap_w} W: analytic {analytic:.3} GHz vs dynamic {dynamic:.3} GHz"
            );
        }
    }

    #[test]
    fn sub_fmin_cap_drives_duty_modulation_dynamically() {
        let mut c = busy_module();
        let limit = RaplLimit::with_default_window(Watts(40.0));
        let r = enforce(&mut c, 0, limit, Seconds::from_millis(1.0), 600).unwrap();
        let final_duty = *r.duty.last().unwrap();
        assert!(final_duty < 1.0, "expected modulation, duty = {final_duty}");
        assert!(r.converged_power() <= Watts(41.0));
        // effective frequency below f_min
        assert!(r.converged_frequency().value() < 1.2);
    }

    #[test]
    fn generous_cap_never_throttles() {
        let mut c = busy_module();
        let limit = RaplLimit::with_default_window(Watts(150.0));
        let r = enforce(&mut c, 0, limit, Seconds::from_millis(1.0), 100).unwrap();
        assert!(r.freq.iter().all(|f| (f.value() - 2.7).abs() < 1e-9));
        assert_eq!(r.settled_at, Some(0));
    }

    #[test]
    fn trace_is_fully_recorded() {
        let mut c = busy_module();
        let r = enforce(
            &mut c,
            0,
            RaplLimit::with_default_window(Watts(70.0)),
            Seconds::from_millis(1.0),
            123,
        )
        .unwrap();
        assert_eq!(r.power.len(), 123);
        assert_eq!(r.freq.len(), 123);
        assert_eq!(r.duty.len(), 123);
        assert_eq!(r.power.duration(), Seconds(0.123));
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        let mut c = busy_module();
        let limit = RaplLimit::with_default_window(Watts(70.0));
        assert_eq!(
            enforce(&mut c, 0, limit, Seconds::from_millis(1.0), 0),
            Err(DynamicsError::NoSteps)
        );
        let err = enforce(&mut c, 0, limit, Seconds(0.0), 10).unwrap_err();
        assert!(matches!(err, DynamicsError::InvalidInterval(_)));
        // the error chain names the offending interval
        let source = std::error::Error::source(&err).expect("chained cause");
        assert!(source.to_string().contains("sampling interval"));
        assert!(validate_against_steady_state(&mut c, 0, limit, Seconds(-1.0), 10).is_err());
    }

    #[test]
    fn module_is_restored_after_enforcement() {
        let mut c = busy_module();
        let _ = enforce(
            &mut c,
            0,
            RaplLimit::with_default_window(Watts(60.0)),
            Seconds::from_millis(1.0),
            50,
        )
        .unwrap();
        assert_eq!(c.module(0).operating_point().clock, GigaHertz(2.7));
    }
}
