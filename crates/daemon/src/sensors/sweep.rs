//! The cap-sweep sensor: a fixed fleet running DGEMM while the daemon
//! walks the paper's per-module cap ladder (95 W → 80 W → 68 W →
//! uncapped, repeating). Each tick advances one simulated second, so the
//! exporters show RAPL throttling ripple across a heterogeneous fleet as
//! the cap tightens — the paper's §4 story, live.

use vap_model::systems::SystemSpec;
use vap_model::units::{Seconds, Watts};
use vap_obs::{DriftAlertSample, DriftDetector};
use vap_scenario::{observe_drift, Effect, ScenarioRuntime};
use vap_sim::cluster::Cluster;
use vap_sim::rapl::RaplLimit;
use vap_workloads::{catalog, WorkloadId};

/// The cap ladder walked by the sensor: the paper's Cm levels, then a
/// recovery dwell with caps released. `None` means uncapped.
const CAP_LADDER_W: [Option<f64>; 4] = [Some(95.0), Some(80.0), Some(68.0), None];

/// Simulated seconds spent at each ladder rung before stepping.
const DWELL_TICKS: u64 = 30;

/// A capped fleet under load, stepped one simulated second per tick.
pub struct CapSweepSensor {
    cluster: Cluster,
    seed: u64,
    sim_time_s: f64,
    ticks: u64,
    max_ticks: u64,
    rung: usize,
    drift: DriftDetector,
    scenario: Option<ScenarioRuntime>,
}

impl CapSweepSensor {
    /// Build the fleet: `n` HA8K modules from `seed`, all running DGEMM.
    /// `max_ticks == 0` runs forever.
    pub fn new(n: usize, seed: u64, max_ticks: u64) -> Self {
        let mut cluster = Cluster::with_size(SystemSpec::ha8k(), n, seed);
        catalog::get(WorkloadId::Dgemm).apply_to(&mut cluster, seed);
        let drift = DriftDetector::new(cluster.len());
        let mut sensor = CapSweepSensor {
            cluster,
            seed,
            sim_time_s: 0.0,
            ticks: 0,
            max_ticks,
            rung: 0,
            drift,
            scenario: None,
        };
        sensor.apply_rung();
        sensor
    }

    /// Install a non-stationary perturbation schedule: events apply at
    /// their simulated time as the sweep ticks. A schedule with no
    /// events leaves the sweep byte-identical to a plain run.
    pub fn with_scenario(mut self, scenario: ScenarioRuntime) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Program the current ladder rung onto every module, scaled by any
    /// active scenario cap shock.
    fn apply_rung(&mut self) {
        let scale = self.scenario.as_ref().map_or(1.0, |s| s.shock_scale());
        match CAP_LADDER_W[self.rung] {
            Some(cap_w) => {
                self.cluster.set_uniform_cap(RaplLimit::with_default_window(Watts(cap_w * scale)));
            }
            None => self.cluster.uncap_all(),
        }
        vap_obs::incr("daemon.cap_transitions");
    }

    /// The per-module cap currently programmed (W); 0 when uncapped.
    fn rung_cap_w(&self) -> f64 {
        let scale = self.scenario.as_ref().map_or(1.0, |s| s.shock_scale());
        CAP_LADDER_W[self.rung].map(|w| w * scale).unwrap_or(0.0)
    }

    /// Apply scenario events due at the current simulated time and react
    /// to their effects: a cap shock re-programs the rung at the shocked
    /// scale, a failed module idles, a replacement picks the workload
    /// back up on fresh silicon.
    fn advance_scenario(&mut self) {
        let Some(mut sc) = self.scenario.take() else {
            return;
        };
        let effects = sc.advance_cluster(self.sim_time_s, &mut self.cluster);
        self.scenario = Some(sc);
        for effect in effects {
            match effect {
                Effect::Module(_) | Effect::Sensor(_) => {}
                Effect::Cap => self.apply_rung(),
                Effect::Failed(m) => {
                    if m < self.cluster.len() {
                        self.cluster.set_activity(m, vap_model::power::PowerActivity::IDLE);
                    }
                }
                Effect::Replaced(m) => {
                    catalog::get(WorkloadId::Dgemm).apply_to_modules(
                        &mut self.cluster,
                        &[m],
                        self.seed,
                    );
                }
            }
        }
    }

    /// Advance one simulated second and report the fleet's state, or
    /// `None` once the tick budget is spent.
    pub fn tick(&mut self) -> Option<vap_obs::TelemetrySnapshot> {
        if self.max_ticks > 0 && self.ticks >= self.max_ticks {
            return None;
        }
        if self.ticks > 0 && self.ticks.is_multiple_of(DWELL_TICKS) {
            self.rung = (self.rung + 1) % CAP_LADDER_W.len();
            self.apply_rung();
        }
        self.cluster.step_all(Seconds(1.0));
        self.ticks += 1;
        self.sim_time_s += 1.0;
        self.advance_scenario();
        vap_obs::incr("daemon.ticks");
        let n = self.cluster.len();
        let alerts = observe_drift(
            &mut self.drift,
            &self.cluster,
            self.scenario.as_mut(),
            0..n,
            self.sim_time_s,
        );
        if alerts > 0 {
            vap_obs::recorder::incr_by("daemon.drift_alerts", alerts);
        }
        let modules = self.cluster.telemetry();
        let total_power_w = modules.iter().map(|m| m.power_w).sum();
        vap_obs::observe("daemon.fleet_power_w", total_power_w);
        Some(vap_obs::TelemetrySnapshot {
            sim_time_s: self.sim_time_s,
            total_power_w,
            cap_w: self.rung_cap_w() * modules.len() as f64,
            running_jobs: 0,
            queued_jobs: 0,
            drift_alerts: self.drift.alerts_total(),
            alerts: self.drift.recent().iter().map(DriftAlertSample::from).collect(),
            modules,
            ..vap_obs::TelemetrySnapshot::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::variability::DriftSkew;
    use vap_obs::drift::RECENT_ALERTS;
    use vap_scenario::stream::{PerturbationKind, ScenarioEvent};
    use vap_scenario::Scenario;

    #[test]
    fn ticks_advance_time_and_respect_the_budget() {
        let mut sensor = CapSweepSensor::new(4, 2015, 3);
        let first = sensor.tick().unwrap();
        assert_eq!(first.sim_time_s, 1.0);
        assert_eq!(first.modules.len(), 4);
        assert!(first.total_power_w > 0.0, "loaded fleet must draw power");
        assert!(sensor.tick().is_some());
        assert!(sensor.tick().is_some());
        assert!(sensor.tick().is_none(), "tick budget of 3 is exhausted");
    }

    #[test]
    fn ladder_walks_through_uncapped() {
        let mut sensor = CapSweepSensor::new(2, 2015, 0);
        let mut caps = Vec::new();
        for _ in 0..(DWELL_TICKS * 4) {
            caps.push(sensor.tick().unwrap().cap_w);
        }
        // one dwell at each rung: 95, 80, 68, uncapped (0), scaled by n=2
        assert_eq!(caps[0], 190.0);
        assert_eq!(caps[DWELL_TICKS as usize], 160.0);
        assert_eq!(caps[2 * DWELL_TICKS as usize], 136.0);
        assert_eq!(caps[3 * DWELL_TICKS as usize], 0.0);
    }

    #[test]
    fn drift_state_rides_along_in_snapshots() {
        let mut sensor = CapSweepSensor::new(3, 2015, 0);
        let mut last = None;
        for _ in 0..(DWELL_TICKS * 2) {
            last = sensor.tick();
        }
        let snap = last.unwrap();
        // the live window is bounded and never exceeds the lifetime total
        assert!(snap.alerts.len() <= RECENT_ALERTS);
        assert!(snap.drift_alerts >= snap.alerts.len() as u64);
    }

    #[test]
    fn same_seed_same_stream() {
        let run = |seed| {
            let mut sensor = CapSweepSensor::new(3, seed, 50);
            let mut stream = Vec::new();
            while let Some(snap) = sensor.tick() {
                stream.push(snap.seal(stream.len() as u64 + 1).checksum);
            }
            stream
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different fleets must differ somewhere");
    }

    #[test]
    fn null_scenario_is_byte_identical_to_no_scenario() {
        let checksums = |sensor: &mut CapSweepSensor| {
            let mut stream = Vec::new();
            while let Some(snap) = sensor.tick() {
                stream.push(snap.seal(stream.len() as u64 + 1).checksum);
            }
            stream
        };
        let mut plain = CapSweepSensor::new(3, 2015, 40);
        let mut null = CapSweepSensor::new(3, 2015, 40).with_scenario(ScenarioRuntime::new(
            Scenario::Null,
            3,
            40.0,
            2015,
        ));
        assert_eq!(checksums(&mut plain), checksums(&mut null));
    }

    #[test]
    fn injected_drift_alerts_within_bounded_ticks_and_null_does_not() {
        // Null: nothing in the sim evolves between ticks at a fixed rung
        // (power is a pure function of the operating point), so residuals
        // are constant for the whole first dwell and the detector must
        // stay silent even past its warmup.
        let mut null = CapSweepSensor::new(4, 2015, 0);
        for _ in 0..(DWELL_TICKS - 1) {
            let snap = null.tick().unwrap();
            assert_eq!(
                snap.drift_alerts, 0,
                "stationary sweep must not alert at t={}",
                snap.sim_time_s
            );
        }

        // Drift: a step on module 1 at t=20 s — past the detector warmup
        // (16 observations), before the first rung change (tick 30) —
        // must alert within a few ticks, attributed to that module.
        let step = DriftSkew { dynamic: 1.15, leakage: 1.4, dram: 1.05 };
        let events = vec![ScenarioEvent {
            at_s: 20.0,
            seq: 0,
            kind: PerturbationKind::Drift { module: 1, step },
        }];
        let mut drifted = CapSweepSensor::new(4, 2015, 0)
            .with_scenario(ScenarioRuntime::from_events(events, 4, 2015));
        let mut alert_tick = None;
        for t in 1..DWELL_TICKS {
            let snap = drifted.tick().unwrap();
            if snap.drift_alerts > 0 {
                assert!(
                    snap.alerts.iter().any(|a| a.module == 1),
                    "the alert must attribute to the drifted module: {:?}",
                    snap.alerts
                );
                alert_tick = Some(t);
                break;
            }
        }
        let fired = alert_tick.expect("injected drift never alerted within the dwell");
        assert!(
            (20..=23).contains(&fired),
            "alert should fire within a few ticks of the t=20 injection, got tick {fired}"
        );
    }
}
