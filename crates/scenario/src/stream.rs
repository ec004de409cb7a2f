//! Seeded streams of timed perturbation events.
//!
//! A [`Scenario`] names a non-stationary campaign shape — a heatwave,
//! gradual silicon aging, input-entropy phase changes, sensor faults,
//! demand-response cap shocks, module churn — and expands into a sorted
//! [`ScenarioEvent`] schedule as a pure function of `(scenario, fleet
//! size, horizon, seed)`. The schedule carries the same `(time, seq)`
//! ordering contract the scheduler's event queue uses, so merging it
//! into a replay keeps the journal byte-identical at any `--threads N`.

use vap_model::variability::DriftSkew;

use vap_model::rng::SplitMix64;

/// How a module's power sensor misbehaves once faulted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The reading freezes at the first value observed after the fault.
    Stuck,
    /// Bounded uniform noise of half-width `sigma_w` watts around truth.
    Noisy {
        /// Noise half-width (W).
        sigma_w: f64,
    },
    /// A constant additive bias on every reading.
    Offset {
        /// The bias (W), possibly negative.
        offset_w: f64,
    },
    /// The sensor is repaired: readings return to truth.
    Clear,
}

impl FaultKind {
    /// Stable lowercase label (journal vocabulary).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Stuck => "stuck",
            FaultKind::Noisy { .. } => "noisy",
            FaultKind::Offset { .. } => "offset",
            FaultKind::Clear => "clear",
        }
    }
}

/// One perturbation applied to the fleet at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerturbationKind {
    /// Thermal drift / silicon aging: `step` composes onto the module's
    /// accumulated aging skew (the process is cumulative).
    Drift {
        /// Affected module.
        module: usize,
        /// Multiplicative step on the power-curve coefficients.
        step: DriftSkew,
    },
    /// Input-entropy phase change: the data-dependent power scale
    /// *replaces* the module's entropy skew (a new input, not an
    /// accumulating process).
    EntropyShift {
        /// Affected module.
        module: usize,
        /// The new entropy skew (identity restores nominal inputs).
        skew: DriftSkew,
    },
    /// The module's power telemetry faults (or is repaired).
    SensorFault {
        /// Affected module.
        module: usize,
        /// The failure mode.
        fault: FaultKind,
    },
    /// Global cap shock: the campaign cap becomes `scale ×` its base
    /// value. `1.0` restores it; `< 1.0` is a demand-response window.
    CapShock {
        /// Absolute multiplier on the campaign's base cap.
        scale: f64,
    },
    /// The module fails hard: jobs on it must be preempted and it
    /// leaves the allocatable pool.
    Fail {
        /// The failed module.
        module: usize,
    },
    /// A replacement part is swapped into the slot: fresh silicon drawn
    /// from the fleet's bin with `seed`, drift and faults cleared, the
    /// module rejoins the pool.
    Replace {
        /// The repaired slot.
        module: usize,
        /// Seed for the replacement part's fingerprint draw.
        seed: u64,
    },
}

/// One timed scenario event. Orders by `(at_s, seq)` — the same tie
/// break the scheduler's event queue uses, with `seq` assigned in
/// schedule order at generation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioEvent {
    /// When the perturbation lands (simulated seconds).
    pub at_s: f64,
    /// Tie-break within equal timestamps (schedule order).
    pub seq: u64,
    /// What happens.
    pub kind: PerturbationKind,
}

/// A named non-stationary campaign shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No perturbations: the stationary control.
    Null,
    /// A mid-campaign thermal excursion: a contiguous rack section
    /// drifts hot in two waves (leakage-heavy skews).
    Heatwave,
    /// Slow fleet-wide silicon aging: small cumulative steps at regular
    /// intervals across the whole horizon.
    Aging,
    /// Input-entropy phase changes: per-module workload power scales
    /// jump as data sets rotate.
    Entropy,
    /// Sensor faults on a subset of modules (stuck / noisy / offset),
    /// some repaired before the horizon ends.
    Faults,
    /// Demand-response cap shocks: two global cap dips with recovery.
    Shocks,
    /// Module failure and replacement churn.
    Churn,
    /// Everything at once: heatwave + shocks + faults + churn.
    Mixed,
}

impl Scenario {
    /// All scenarios, in display order.
    pub const ALL: [Scenario; 8] = [
        Scenario::Null,
        Scenario::Heatwave,
        Scenario::Aging,
        Scenario::Entropy,
        Scenario::Faults,
        Scenario::Shocks,
        Scenario::Churn,
        Scenario::Mixed,
    ];

    /// Stable lowercase name (`--scenario` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Null => "null",
            Scenario::Heatwave => "heatwave",
            Scenario::Aging => "aging",
            Scenario::Entropy => "entropy",
            Scenario::Faults => "faults",
            Scenario::Shocks => "shocks",
            Scenario::Churn => "churn",
            Scenario::Mixed => "mixed",
        }
    }

    /// Parse a `--scenario` name.
    pub fn parse(s: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|sc| sc.name() == s)
    }

    /// Per-scenario salt so each preset draws an independent stream from
    /// the same campaign seed.
    fn salt(self) -> u64 {
        match self {
            Scenario::Null => 0,
            Scenario::Heatwave => 0xA1,
            Scenario::Aging => 0xA2,
            Scenario::Entropy => 0xA3,
            Scenario::Faults => 0xA4,
            Scenario::Shocks => 0xA5,
            Scenario::Churn => 0xA6,
            Scenario::Mixed => 0xA7,
        }
    }

    /// Expand into the sorted event schedule for a fleet of `modules`
    /// over `horizon_s` simulated seconds. Deterministic in `seed`.
    pub fn events(self, modules: usize, horizon_s: f64, seed: u64) -> Vec<ScenarioEvent> {
        if modules == 0 || horizon_s <= 0.0 {
            return Vec::new();
        }
        let mut rng = SplitMix64::new(seed ^ self.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut raw: Vec<(f64, PerturbationKind)> = Vec::new();
        match self {
            Scenario::Null => {}
            Scenario::Heatwave => heatwave(modules, horizon_s, &mut rng, &mut raw),
            Scenario::Aging => aging(modules, horizon_s, &mut rng, &mut raw),
            Scenario::Entropy => entropy(modules, horizon_s, &mut rng, &mut raw),
            Scenario::Faults => faults(modules, horizon_s, &mut rng, &mut raw),
            Scenario::Shocks => shocks(horizon_s, &mut rng, &mut raw),
            Scenario::Churn => churn(modules, horizon_s, &mut rng, &mut raw),
            Scenario::Mixed => {
                heatwave(modules, horizon_s, &mut rng, &mut raw);
                shocks(horizon_s, &mut rng, &mut raw);
                faults(modules, horizon_s, &mut rng, &mut raw);
                churn(modules, horizon_s, &mut rng, &mut raw);
            }
        }
        schedule(raw)
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sort raw `(time, kind)` pairs into the `(at_s, seq)` schedule. The
/// sort is stable, so equal timestamps keep generation order — and the
/// whole schedule stays a pure function of the generator stream.
fn schedule(mut raw: Vec<(f64, PerturbationKind)>) -> Vec<ScenarioEvent> {
    raw.sort_by(|a, b| a.0.total_cmp(&b.0));
    raw.into_iter()
        .enumerate()
        .map(|(seq, (at_s, kind))| ScenarioEvent { at_s, seq: seq as u64, kind })
        .collect()
}

/// A contiguous rack section drifts hot in two waves.
fn heatwave(
    modules: usize,
    horizon_s: f64,
    rng: &mut SplitMix64,
    out: &mut Vec<(f64, PerturbationKind)>,
) {
    let width = (modules / 4).max(1);
    let start = rng.next_index(modules);
    let onset = 0.25 * horizon_s;
    let second = 0.55 * horizon_s;
    for k in 0..width {
        let module = (start + k) % modules;
        let at = onset + rng.next_range(0.0, 0.05 * horizon_s);
        let step = DriftSkew {
            dynamic: rng.next_range(1.02, 1.05),
            leakage: rng.next_range(1.12, 1.30),
            dram: rng.next_range(1.00, 1.04),
        };
        out.push((at, PerturbationKind::Drift { module, step }));
        let at2 = second + rng.next_range(0.0, 0.05 * horizon_s);
        let step2 = DriftSkew {
            dynamic: rng.next_range(1.005, 1.02),
            leakage: rng.next_range(1.03, 1.10),
            dram: 1.0,
        };
        out.push((at2, PerturbationKind::Drift { module, step: step2 }));
    }
}

/// Small cumulative steps on every module at regular intervals.
fn aging(
    modules: usize,
    horizon_s: f64,
    rng: &mut SplitMix64,
    out: &mut Vec<(f64, PerturbationKind)>,
) {
    const STEPS: usize = 6;
    for s in 0..STEPS {
        let base = (s as f64 + 0.5) / STEPS as f64 * horizon_s;
        for module in 0..modules {
            let at = base + rng.next_range(0.0, 0.02 * horizon_s);
            let step = DriftSkew {
                dynamic: rng.next_range(1.001, 1.006),
                leakage: rng.next_range(1.005, 1.02),
                dram: rng.next_range(1.000, 1.004),
            };
            out.push((at, PerturbationKind::Drift { module, step }));
        }
    }
}

/// Per-module input-entropy phase changes.
fn entropy(
    modules: usize,
    horizon_s: f64,
    rng: &mut SplitMix64,
    out: &mut Vec<(f64, PerturbationKind)>,
) {
    const PHASES: usize = 3;
    for module in 0..modules {
        for _ in 0..PHASES {
            let at = rng.next_range(0.05, 0.95) * horizon_s;
            let skew = DriftSkew {
                dynamic: rng.next_range(0.93, 1.10),
                leakage: 1.0,
                dram: rng.next_range(0.90, 1.12),
            };
            out.push((at, PerturbationKind::EntropyShift { module, skew }));
        }
    }
}

/// Sensor faults on a module subset; about half repaired later.
fn faults(
    modules: usize,
    horizon_s: f64,
    rng: &mut SplitMix64,
    out: &mut Vec<(f64, PerturbationKind)>,
) {
    let count = (modules / 12).max(1);
    for k in 0..count {
        let module = rng.next_index(modules);
        let at = rng.next_range(0.10, 0.50) * horizon_s;
        let fault = match rng.next_index(3) {
            0 => FaultKind::Stuck,
            1 => FaultKind::Noisy { sigma_w: rng.next_range(1.0, 4.0) },
            _ => FaultKind::Offset { offset_w: rng.next_range(-6.0, 6.0) },
        };
        out.push((at, PerturbationKind::SensorFault { module, fault }));
        if k % 2 == 0 {
            let repair = rng.next_range(0.60, 0.90) * horizon_s;
            out.push((repair, PerturbationKind::SensorFault { module, fault: FaultKind::Clear }));
        }
    }
}

/// Two demand-response cap dips with recovery.
fn shocks(horizon_s: f64, rng: &mut SplitMix64, out: &mut Vec<(f64, PerturbationKind)>) {
    let jitter = 0.02 * horizon_s;
    let dips = [(0.30, rng.next_range(0.80, 0.88)), (0.60, rng.next_range(0.68, 0.76))];
    for (frac, scale) in dips {
        let at = frac * horizon_s + rng.next_range(0.0, jitter);
        out.push((at, PerturbationKind::CapShock { scale }));
        let release = (frac + 0.15) * horizon_s + rng.next_range(0.0, jitter);
        out.push((release, PerturbationKind::CapShock { scale: 1.0 }));
    }
}

/// Distinct modules fail and are replaced after a repair lead time.
fn churn(
    modules: usize,
    horizon_s: f64,
    rng: &mut SplitMix64,
    out: &mut Vec<(f64, PerturbationKind)>,
) {
    let count = (modules / 16).max(1).min(modules);
    // Fisher–Yates prefix: distinct victims, deterministic in the stream.
    let mut ids: Vec<usize> = (0..modules).collect();
    for k in (1..ids.len()).rev() {
        ids.swap(k, rng.next_index(k + 1));
    }
    for &module in ids.iter().take(count) {
        let fail_at = rng.next_range(0.20, 0.60) * horizon_s;
        out.push((fail_at, PerturbationKind::Fail { module }));
        let lead = rng.next_range(0.05, 0.10) * horizon_s;
        let seed = rng.next_u64();
        out.push((fail_at + lead, PerturbationKind::Replace { module, seed }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The module a perturbation targets, if module-scoped.
    fn target(kind: &PerturbationKind) -> Option<usize> {
        match *kind {
            PerturbationKind::Drift { module, .. }
            | PerturbationKind::EntropyShift { module, .. }
            | PerturbationKind::SensorFault { module, .. }
            | PerturbationKind::Fail { module }
            | PerturbationKind::Replace { module, .. } => Some(module),
            PerturbationKind::CapShock { .. } => None,
        }
    }

    #[test]
    fn names_parse_round_trip() {
        for sc in Scenario::ALL {
            assert_eq!(Scenario::parse(sc.name()), Some(sc), "{sc}");
        }
        assert_eq!(Scenario::parse("bogus"), None);
    }

    #[test]
    fn schedules_are_seeded_and_deterministic() {
        for sc in Scenario::ALL {
            let a = sc.events(48, 3600.0, 2015);
            let b = sc.events(48, 3600.0, 2015);
            assert_eq!(a, b, "{sc}: same seed must reproduce");
            if sc != Scenario::Null {
                assert!(!a.is_empty(), "{sc}: non-null scenario has events");
                assert_ne!(a, sc.events(48, 3600.0, 2016), "{sc}: seed must matter");
            }
        }
    }

    #[test]
    fn schedules_are_ordered_in_range_and_in_horizon() {
        for sc in Scenario::ALL {
            let events = sc.events(48, 3600.0, 7);
            let mut last = f64::NEG_INFINITY;
            for (i, e) in events.iter().enumerate() {
                assert!(e.at_s >= last, "{sc}: times must be non-decreasing");
                last = e.at_s;
                assert_eq!(e.seq, i as u64, "{sc}: seq is schedule order");
                assert!(e.at_s >= 0.0 && e.at_s <= 3600.0 * 1.1, "{sc}: inside horizon");
                if let Some(m) = target(&e.kind) {
                    assert!(m < 48, "{sc}: module {m} out of range");
                }
            }
        }
    }

    #[test]
    fn null_and_degenerate_inputs_are_empty() {
        assert!(Scenario::Null.events(48, 3600.0, 1).is_empty());
        assert!(Scenario::Mixed.events(0, 3600.0, 1).is_empty());
        assert!(Scenario::Mixed.events(48, 0.0, 1).is_empty());
    }

    #[test]
    fn churn_replaces_every_failed_module() {
        let events = Scenario::Churn.events(64, 7200.0, 42);
        let mut open: Vec<usize> = Vec::new();
        for e in &events {
            match e.kind {
                PerturbationKind::Fail { module } => open.push(module),
                PerturbationKind::Replace { module, .. } => {
                    let pos = open.iter().position(|&m| m == module);
                    assert!(pos.is_some(), "replace without a prior fail on {module}");
                    open.remove(pos.expect("checked above"));
                }
                _ => panic!("churn emits only fail/replace"),
            }
        }
        assert!(open.is_empty(), "every failure is repaired: {open:?}");
    }

    #[test]
    fn fault_labels_are_stable() {
        assert_eq!(FaultKind::Stuck.label(), "stuck");
        assert_eq!(FaultKind::Noisy { sigma_w: 1.0 }.label(), "noisy");
        assert_eq!(FaultKind::Offset { offset_w: -2.0 }.label(), "offset");
        assert_eq!(FaultKind::Clear.label(), "clear");
    }
}
