//! Applying scenario events to a live fleet.
//!
//! [`ScenarioRuntime`] owns one expanded schedule plus the perturbation
//! state it implies: per-module aging and entropy skews (composed into
//! one [`DriftSkew`] pushed into the simulator), the sensor-fault plane
//! (which corrupts *readings*, never the physics), the global cap-shock
//! scale, and the failed set. Every stream is seeded, so a scenario
//! replay is bit-identical across thread counts.

use vap_model::variability::DriftSkew;
use vap_obs::DriftDetector;
use vap_sim::cluster::Cluster;

use vap_model::rng::{SplitMix64, MIX_GAMMA};
use crate::stream::{FaultKind, PerturbationKind, Scenario, ScenarioEvent};

/// What a consumer must do after one event is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// A module's silicon response changed (drift or entropy): plans
    /// computed from a stale PVT are now wrong on it.
    Module(usize),
    /// The campaign cap must be recomputed as `scale ×` base.
    Cap,
    /// Only the sensor plane changed; physics are untouched.
    Sensor(usize),
    /// The module left the pool: preempt its jobs and stop allocating.
    Failed(usize),
    /// The module rejoined with fresh silicon.
    Replaced(usize),
}

/// Scenario schedule + perturbation state for one campaign replay.
#[derive(Debug, Clone)]
pub struct ScenarioRuntime {
    events: Vec<ScenarioEvent>,
    cursor: usize,
    n: usize,
    /// Salt for the sensor-noise streams (per module, per reading).
    seed: u64,
    /// Cumulative aging skew per module.
    aging: Vec<DriftSkew>,
    /// Current input-entropy skew per module (replaced, not composed).
    entropy: Vec<DriftSkew>,
    /// Active sensor fault per module.
    fault: Vec<Option<FaultKind>>,
    /// The frozen reading of a stuck sensor, once captured.
    stuck: Vec<Option<f64>>,
    /// Readings taken per module — the noise stream position.
    noise_ctr: Vec<u64>,
    /// Modules currently failed out of the pool.
    failed: Vec<bool>,
    /// Modules whose silicon changed since the last [`Self::take_dirty`].
    dirty: Vec<bool>,
    shock_scale: f64,
}

impl ScenarioRuntime {
    /// Expand `scenario` for a fleet of `modules` over `horizon_s` and
    /// wrap it. Deterministic in `seed`.
    pub fn new(scenario: Scenario, modules: usize, horizon_s: f64, seed: u64) -> Self {
        Self::from_events(scenario.events(modules, horizon_s, seed), modules, seed)
    }

    /// Wrap a pre-built schedule (events must be `(at_s, seq)`-sorted).
    pub fn from_events(events: Vec<ScenarioEvent>, modules: usize, seed: u64) -> Self {
        ScenarioRuntime {
            events,
            cursor: 0,
            n: modules,
            seed,
            aging: vec![DriftSkew::IDENTITY; modules],
            entropy: vec![DriftSkew::IDENTITY; modules],
            fault: vec![None; modules],
            stuck: vec![None; modules],
            noise_ctr: vec![0; modules],
            failed: vec![false; modules],
            dirty: vec![false; modules],
            shock_scale: 1.0,
        }
    }

    /// The full schedule.
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }

    /// Pop the next event due at or before `t`.
    pub fn pop_due(&mut self, t: f64) -> Option<ScenarioEvent> {
        let e = self.events.get(self.cursor)?;
        if e.at_s <= t {
            self.cursor += 1;
            Some(*e)
        } else {
            None
        }
    }

    /// The cap multiplier currently in force (1.0 = no shock).
    pub fn shock_scale(&self) -> f64 {
        self.shock_scale
    }

    /// Whether the module is currently failed out of the pool.
    pub fn is_failed(&self, module: usize) -> bool {
        self.failed.get(module).copied().unwrap_or(false)
    }

    /// The module's combined (aging ∘ entropy) skew.
    pub fn combined_skew(&self, module: usize) -> DriftSkew {
        match (self.aging.get(module), self.entropy.get(module)) {
            (Some(a), Some(e)) => a.compose(e),
            _ => DriftSkew::IDENTITY,
        }
    }

    /// Modules whose silicon changed since the last call, sorted; clears
    /// the flags. This is the re-calibration work list.
    pub fn take_dirty(&mut self) -> Vec<usize> {
        let ids: Vec<usize> =
            (0..self.n).filter(|&i| self.dirty[i]).collect();
        for &i in &ids {
            self.dirty[i] = false;
        }
        ids
    }

    /// Pass a true power reading through the sensor-fault plane. The
    /// noise stream is positional per module — reading `k` of module `m`
    /// is the same value no matter who asks — so observers stay
    /// deterministic.
    pub fn read_power(&mut self, module: usize, true_w: f64) -> f64 {
        let Some(fault) = self.fault.get(module).copied().flatten() else {
            return true_w;
        };
        match fault {
            FaultKind::Stuck => match self.stuck[module] {
                Some(frozen) => frozen,
                None => {
                    self.stuck[module] = Some(true_w);
                    true_w
                }
            },
            FaultKind::Noisy { sigma_w } => {
                let k = self.noise_ctr[module];
                self.noise_ctr[module] += 1;
                let mut rng = SplitMix64::new(
                    self.seed
                        ^ (module as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ k.wrapping_mul(MIX_GAMMA),
                );
                true_w + sigma_w * (2.0 * rng.next_f64() - 1.0)
            }
            FaultKind::Offset { offset_w } => true_w + offset_w,
            FaultKind::Clear => true_w,
        }
    }

    /// Bookkeep one event into the perturbation state and classify it.
    fn note(&mut self, ev: &ScenarioEvent) -> Effect {
        match ev.kind {
            PerturbationKind::Drift { module, step } => {
                if let Some(a) = self.aging.get_mut(module) {
                    *a = a.compose(&step);
                    self.dirty[module] = true;
                }
                Effect::Module(module)
            }
            PerturbationKind::EntropyShift { module, skew } => {
                if let Some(e) = self.entropy.get_mut(module) {
                    *e = skew;
                    self.dirty[module] = true;
                }
                Effect::Module(module)
            }
            PerturbationKind::SensorFault { module, fault } => {
                if let Some(f) = self.fault.get_mut(module) {
                    *f = match fault {
                        FaultKind::Clear => None,
                        other => Some(other),
                    };
                    self.stuck[module] = None;
                }
                Effect::Sensor(module)
            }
            PerturbationKind::CapShock { scale } => {
                self.shock_scale = scale;
                Effect::Cap
            }
            PerturbationKind::Fail { module } => {
                if let Some(f) = self.failed.get_mut(module) {
                    *f = true;
                }
                Effect::Failed(module)
            }
            PerturbationKind::Replace { module, .. } => {
                if module < self.n {
                    self.failed[module] = false;
                    self.aging[module] = DriftSkew::IDENTITY;
                    self.entropy[module] = DriftSkew::IDENTITY;
                    self.fault[module] = None;
                    self.stuck[module] = None;
                    self.dirty[module] = true;
                }
                Effect::Replaced(module)
            }
        }
    }

    /// Journal the event (zero cost without a live obs session).
    fn emit(&self, ev: &ScenarioEvent) {
        let fleet = self.n as u64;
        vap_obs::scenario_event(|| vap_obs::ScenarioRecord {
            t_s: ev.at_s,
            fleet,
            kind: match ev.kind {
                PerturbationKind::Drift { module, step } => vap_obs::ScenarioKind::Drift {
                    module: module as u64,
                    dynamic: step.dynamic,
                    leakage: step.leakage,
                    dram: step.dram,
                },
                PerturbationKind::EntropyShift { module, skew } => {
                    vap_obs::ScenarioKind::EntropyShift {
                        module: module as u64,
                        dynamic: skew.dynamic,
                        leakage: skew.leakage,
                        dram: skew.dram,
                    }
                }
                PerturbationKind::SensorFault { module, fault } => {
                    vap_obs::ScenarioKind::SensorFault {
                        module: module as u64,
                        fault: fault.label().to_string(),
                    }
                }
                PerturbationKind::CapShock { scale } => vap_obs::ScenarioKind::CapShock { scale },
                PerturbationKind::Fail { module } => {
                    vap_obs::ScenarioKind::Fail { module: module as u64 }
                }
                PerturbationKind::Replace { module, .. } => {
                    vap_obs::ScenarioKind::Replace { module: module as u64 }
                }
            },
        });
    }

    /// Apply one event to a [`Cluster`].
    pub fn apply_to_cluster(&mut self, ev: &ScenarioEvent, cluster: &mut Cluster) -> Effect {
        let effect = self.note(ev);
        vap_obs::incr("scenario.events_applied");
        self.emit(ev);
        match ev.kind {
            PerturbationKind::Drift { module, .. }
            | PerturbationKind::EntropyShift { module, .. }
                if module < cluster.len() =>
            {
                cluster.set_drift_skew(module, self.combined_skew(module));
            }
            PerturbationKind::Replace { module, seed } if module < cluster.len() => {
                let v = {
                    let spec = cluster.spec();
                    spec.variability.sample_replacement(module, spec.cores_per_proc, seed)
                };
                cluster.replace_silicon(module, v);
            }
            _ => {}
        }
        effect
    }

    /// Apply every event due at or before `t` to a [`Cluster`],
    /// returning the effects in schedule order.
    pub fn advance_cluster(&mut self, t: f64, cluster: &mut Cluster) -> Vec<Effect> {
        let mut effects = Vec::new();
        while let Some(ev) = self.pop_due(t) {
            effects.push(self.apply_to_cluster(&ev, cluster));
        }
        effects
    }
}

/// One drift-detection pass at simulated time `t`: for each listed
/// module, read its power — through the sensor-fault plane when a
/// scenario is installed, so a stuck or offset sensor corrupts what the
/// detector sees, never the physics — subtract the PVT prediction and
/// feed the residual to `detector`. Modules the cluster does not hold
/// are skipped. Returns the number of alerts raised.
pub fn observe_drift(
    detector: &mut DriftDetector,
    cluster: &Cluster,
    mut scenario: Option<&mut ScenarioRuntime>,
    ids: impl IntoIterator<Item = usize>,
    t: f64,
) -> u64 {
    let mut alerts = 0;
    for i in ids {
        let Some(m) = cluster.get(i) else { continue };
        let true_w = m.module_power().value();
        let predicted = m.pvt_predicted_power().value();
        let measured = match scenario.as_deref_mut() {
            Some(sc) => sc.read_power(i, true_w),
            None => true_w,
        };
        if detector.observe(i, t, measured - predicted).is_some() {
            alerts += 1;
        }
    }
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::systems::SystemSpec;
    use vap_model::units::Watts;

    const SEED: u64 = 2015;

    /// A DGEMM-like load, so drift shows up in module power.
    const BUSY: vap_model::power::PowerActivity =
        vap_model::power::PowerActivity { cpu: 1.0, dram: 0.25 };

    fn fleet(n: usize) -> Cluster {
        Cluster::with_size(SystemSpec::ha8k(), n, SEED)
    }

    #[test]
    fn drift_events_open_a_pvt_residual() {
        let mut cluster = fleet(8);
        cluster.set_activity_all(BUSY);
        let before: Vec<f64> =
            (0..8).map(|i| cluster.module(i).module_power().value()).collect();
        let mut rt = ScenarioRuntime::new(Scenario::Heatwave, 8, 3600.0, SEED);
        rt.advance_cluster(3600.0, &mut cluster);
        let mut worst = Watts::ZERO;
        for (i, &was) in before.iter().enumerate() {
            let m = cluster.module(i);
            let residual = m.module_power() - m.pvt_predicted_power();
            if residual > worst {
                worst = residual;
            }
            if !m.drift_skew().is_identity() {
                assert!(
                    m.module_power().value() > was,
                    "module {i}: a heatwave must raise actual power"
                );
            }
        }
        assert!(worst > Watts(1.0), "stale PVT must under-predict, worst residual {worst:?}");
        let dirty = rt.take_dirty();
        assert!(!dirty.is_empty(), "drift marks modules dirty");
        assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty list is sorted");
        assert!(rt.take_dirty().is_empty(), "take_dirty clears");
    }

    #[test]
    fn cap_shocks_track_scale_and_release() {
        let mut cluster = fleet(4);
        let mut rt = ScenarioRuntime::new(Scenario::Shocks, 4, 1000.0, SEED);
        assert_eq!(rt.shock_scale(), 1.0);
        // the first dip lands in [300, 320) s and releases in [450, 470) s
        let effects = rt.advance_cluster(400.0, &mut cluster);
        assert!(effects.contains(&Effect::Cap));
        assert!(rt.shock_scale() < 1.0, "mid-dip scale: {}", rt.shock_scale());
        rt.advance_cluster(1000.0, &mut cluster);
        assert_eq!(rt.shock_scale(), 1.0, "final shock releases the cap");
    }

    #[test]
    fn fail_then_replace_cycles_the_pool_and_resets_drift() {
        let mut cluster = fleet(8);
        let events = vec![
            ScenarioEvent {
                at_s: 10.0,
                seq: 0,
                kind: PerturbationKind::Drift {
                    module: 3,
                    step: DriftSkew { dynamic: 1.05, leakage: 1.2, dram: 1.0 },
                },
            },
            ScenarioEvent { at_s: 20.0, seq: 1, kind: PerturbationKind::Fail { module: 3 } },
            ScenarioEvent {
                at_s: 30.0,
                seq: 2,
                kind: PerturbationKind::Replace { module: 3, seed: 99 },
            },
        ];
        let mut rt = ScenarioRuntime::from_events(events, 8, SEED);
        rt.advance_cluster(20.0, &mut cluster);
        assert!(rt.is_failed(3));
        assert!(!cluster.module(3).drift_skew().is_identity());
        rt.advance_cluster(30.0, &mut cluster);
        assert!(!rt.is_failed(3));
        assert!(cluster.module(3).drift_skew().is_identity(), "fresh part has no drift");
        assert!(rt.combined_skew(3).is_identity());
        let dirty = rt.take_dirty();
        assert_eq!(dirty, vec![3], "replacement needs re-calibration");
    }

    #[test]
    fn sensor_faults_corrupt_readings_deterministically() {
        let mk = |fault| {
            let events = vec![ScenarioEvent {
                at_s: 0.0,
                seq: 0,
                kind: PerturbationKind::SensorFault { module: 1, fault },
            }];
            let mut rt = ScenarioRuntime::from_events(events, 4, SEED);
            let mut cluster = fleet(4);
            rt.advance_cluster(0.0, &mut cluster);
            rt
        };
        // healthy sensors pass truth through
        let mut clean = ScenarioRuntime::from_events(Vec::new(), 4, SEED);
        assert_eq!(clean.read_power(0, 80.0), 80.0);

        let mut stuck = mk(FaultKind::Stuck);
        assert_eq!(stuck.read_power(1, 75.0), 75.0, "stuck captures the first reading");
        assert_eq!(stuck.read_power(1, 90.0), 75.0, "…and freezes there");
        assert_eq!(stuck.read_power(0, 90.0), 90.0, "other modules unaffected");

        let mut offset = mk(FaultKind::Offset { offset_w: -5.0 });
        assert_eq!(offset.read_power(1, 80.0), 75.0);

        let mut na = mk(FaultKind::Noisy { sigma_w: 3.0 });
        let mut nb = mk(FaultKind::Noisy { sigma_w: 3.0 });
        for k in 0..50 {
            let a = na.read_power(1, 80.0);
            let b = nb.read_power(1, 80.0);
            assert_eq!(a.to_bits(), b.to_bits(), "reading {k}: noise must be positional");
            assert!((a - 80.0).abs() <= 3.0, "reading {k}: noise is bounded, got {a}");
        }

        let mut cleared = mk(FaultKind::Stuck);
        let mut cluster = fleet(4);
        assert_eq!(cleared.read_power(1, 70.0), 70.0);
        let repair = ScenarioEvent {
            at_s: 1.0,
            seq: 1,
            kind: PerturbationKind::SensorFault { module: 1, fault: FaultKind::Clear },
        };
        cleared.apply_to_cluster(&repair, &mut cluster);
        assert_eq!(cleared.read_power(1, 88.0), 88.0, "cleared sensors read truth again");
    }
}
