//! The simulated fleet, one column per module field.
//!
//! [`Cluster::with_size`] "manufactures" the fleet: it samples each module's
//! variability fingerprint from the system's distributions, which is the
//! moment the die-to-die lottery of §2.1 happens. Everything downstream —
//! the variability studies of §4 and the budgeting evaluation of §6 — runs
//! against this fleet.
//!
//! # Layout
//!
//! A module is a CPU socket plus its DRAM: a manufacturing fingerprint, a
//! cpufreq governor, an optional RAPL limit, the workload it runs, the
//! operating point those resolve to, and its energy counters. The cluster
//! stores each of those fields as one flat column indexed by module id,
//! and the system tables (power model, P-state table) once, so a batch
//! operation over 10⁴–10⁶ modules touches only the columns it needs.
//!
//! * **Reads** go through [`ModuleView`], a borrowed `Copy` row view
//!   ([`Cluster::module`], [`Cluster::get`], [`Cluster::modules`]).
//! * **Writes** are index methods on [`Cluster`] (`set_cap(i, ..)`,
//!   `step(i, dt)`, ...), plus batch forms for the whole fleet.
//!
//! Power management composes the way it does on real hardware: the
//! governor proposes a clock, RAPL throttles below it if the package would
//! exceed the cap, and clock modulation kicks in below the lowest P-state.
//! Caps round-trip through the `MSR_PKG_POWER_LIMIT` encoding
//! ([`PowerLimitRegister`]), so they inherit the hardware's 1/8 W
//! quantization, and energy accumulates in wrapping RAPL counters
//! ([`EnergyCounter`]).

use crate::cpufreq::Governor;
use crate::msr::{EnergyCounter, PowerLimitRegister};
use crate::rapl::{self, RaplLimit, RaplSteadyState};
use std::fmt;
use vap_model::boundedness::Boundedness;
use vap_model::power::{ModulePowerModel, PowerActivity};
use vap_model::pstate::PStateTable;
use vap_model::systems::SystemSpec;
use vap_model::thermal::{RackGradient, ThermalEnv};
use vap_model::units::{GigaHertz, Seconds, Watts};
use vap_model::variability::{DriftSkew, ModuleVariation};

/// Fleet-level operations that can fail on malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// A per-module vector did not have one entry per module.
    LengthMismatch {
        /// Fleet size (entries required).
        expected: usize,
        /// Entries supplied.
        got: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::LengthMismatch { expected, got } => {
                write!(f, "expected one entry per module ({expected}), got {got}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// The resolved operating point of a module: the clock it runs at while
/// ungated, and the fraction of time it runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Clock frequency while running.
    pub clock: GigaHertz,
    /// Run fraction in `[0, 1]` (1.0 except under clock modulation;
    /// 0.0 when the cap is infeasible).
    pub duty: f64,
}

impl OperatingPoint {
    /// Cycles delivered per unit time, as a frequency: `clock × duty`.
    pub fn effective_frequency(&self) -> GigaHertz {
        self.clock * self.duty
    }
}

/// A fleet of simulated modules.
///
/// Columns are indexed by module id (`0..len()`); the system tables live
/// in the [`SystemSpec`], stored once.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: SystemSpec,
    /// Base manufacturing fingerprints, sampled at "fabrication" time.
    variation: Vec<ModuleVariation>,
    /// Workload-specific fingerprint overrides (`None` = base applies):
    /// different instruction mixes stress differently-varying circuit
    /// paths, so a module's power deviation under workload W is correlated
    /// with — but not identical to — its deviation under the PVT
    /// microbenchmark.
    workload_variation: Vec<Option<ModuleVariation>>,
    /// Accumulated in-field drift (thermal, aging, input entropy) on top
    /// of whichever fingerprint is in effect; identity for a pristine
    /// module. The PVT prediction deliberately ignores it: drift is
    /// exactly the part of reality the calibration hasn't seen.
    drift: Vec<DriftSkew>,
    /// Cached composition of the active fingerprint with `drift` (`None`
    /// while the skew is the identity, keeping the pristine path
    /// allocation-free). Refreshed whenever either input changes.
    drifted: Vec<Option<ModuleVariation>>,
    /// [`ThermalEnv::factor`] per module: a pure function of the module's
    /// fixed thermal environment, so caching it is exact.
    thermal_factor: Vec<f64>,
    governor: Vec<Governor>,
    cap: Vec<Option<RaplLimit>>,
    activity: Vec<PowerActivity>,
    /// Resolved operating clock while ungated ([`OperatingPoint::clock`]).
    clock: Vec<GigaHertz>,
    /// Resolved run fraction ([`OperatingPoint::duty`]).
    duty: Vec<f64>,
    /// Whether the programmed cap is actively limiting the module (RAPL's
    /// dynamic control is in the loop, with its dithering cost).
    throttled: Vec<bool>,
    pkg_counter: Vec<EnergyCounter>,
    dram_counter: Vec<EnergyCounter>,
}

impl Cluster {
    /// Build a fleet of `n` modules (reduced-scale experiments, tests).
    pub fn with_size(spec: SystemSpec, n: usize, seed: u64) -> Self {
        Self::with_thermal(spec, n, seed, None)
    }

    /// Build a fleet with an optional rack thermal gradient (extension
    /// experiments; `None` puts every module at reference temperature like
    /// the paper's study). Every module starts idle under the performance
    /// governor with no cap.
    pub fn with_thermal(
        spec: SystemSpec,
        n: usize,
        seed: u64,
        gradient: Option<RackGradient>,
    ) -> Self {
        let variation = spec.variability.sample_fleet(n, spec.cores_per_proc, seed);
        let thermal_factor = (0..n)
            .map(|i| gradient.map_or_else(ThermalEnv::reference, |g| g.env_for(i, n)).factor())
            .collect();
        let mut cluster = Cluster {
            spec,
            variation,
            workload_variation: vec![None; n],
            drift: vec![DriftSkew::IDENTITY; n],
            drifted: vec![None; n],
            thermal_factor,
            governor: vec![Governor::Performance; n],
            cap: vec![None; n],
            activity: vec![PowerActivity::IDLE; n],
            clock: vec![GigaHertz::ZERO; n],
            duty: vec![1.0; n],
            throttled: vec![false; n],
            pkg_counter: vec![EnergyCounter::default(); n],
            dram_counter: vec![EnergyCounter::default(); n],
        };
        for i in 0..n {
            cluster.resolve(i);
        }
        cluster
    }

    /// The system this fleet instantiates.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.variation.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.variation.is_empty()
    }

    /// One module by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range; use [`Cluster::get`] for ids that
    /// originate outside the fleet (user options, job requests).
    pub fn module(&self, id: usize) -> ModuleView<'_> {
        assert!(id < self.len(), "module {id} is not in a fleet of {}", self.len());
        ModuleView { cluster: self, id }
    }

    /// One module by id, or `None` if `id` is not in the fleet.
    pub fn get(&self, id: usize) -> Option<ModuleView<'_>> {
        (id < self.len()).then_some(ModuleView { cluster: self, id })
    }

    /// Every module, in id order.
    pub fn modules(&self) -> impl ExactSizeIterator<Item = ModuleView<'_>> + DoubleEndedIterator {
        (0..self.len()).map(move |id| ModuleView { cluster: self, id })
    }

    /// Install (or clear) a workload-specific fingerprint override on
    /// module `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range (as does every index method below).
    pub fn set_workload_variation(&mut self, i: usize, v: Option<ModuleVariation>) {
        self.workload_variation[i] = v;
        self.refresh_drift(i);
        self.resolve(i);
    }

    /// Set module `i`'s accumulated drift to `skew` (absolute, not
    /// incremental) and re-resolve its operating point: RAPL's dynamic
    /// control reacts to the *real* power curve, so a cap that was loose
    /// on pristine silicon can start throttling a drifted module.
    pub fn set_drift_skew(&mut self, i: usize, skew: DriftSkew) {
        self.drift[i] = skew;
        self.refresh_drift(i);
        self.resolve(i);
    }

    /// Compose one more drift step onto module `i`'s accumulated skew.
    pub fn apply_drift(&mut self, i: usize, step: &DriftSkew) {
        self.set_drift_skew(i, self.drift[i].compose(step));
    }

    /// Swap fresh silicon into slot `i` (module replacement churn): a new
    /// base fingerprint, no drift, no workload override, zeroed energy
    /// counters. Slot-level settings — governor, cap, activity, thermal
    /// environment — stay programmed, as they belong to the rack position
    /// rather than the part.
    pub fn replace_silicon(&mut self, i: usize, variation: ModuleVariation) {
        self.variation[i] = variation;
        self.workload_variation[i] = None;
        self.drift[i] = DriftSkew::IDENTITY;
        self.drifted[i] = None;
        self.pkg_counter[i] = EnergyCounter::default();
        self.dram_counter[i] = EnergyCounter::default();
        self.resolve(i);
    }

    /// Recompute module `i`'s cached drift-composed fingerprint after
    /// either input (active fingerprint, accumulated skew) changes.
    fn refresh_drift(&mut self, i: usize) {
        self.drifted[i] = if self.drift[i].is_identity() {
            None
        } else {
            let active = self.workload_variation[i].as_ref().unwrap_or(&self.variation[i]);
            Some(active.skewed(&self.drift[i]))
        };
    }

    /// Set the workload activity factors on module `i` (what code it is
    /// running).
    pub fn set_activity(&mut self, i: usize, activity: PowerActivity) {
        self.activity[i] = activity;
        self.resolve(i);
    }

    /// Install a cpufreq governor on module `i` (the FS control path).
    pub fn set_governor(&mut self, i: usize, governor: Governor) {
        self.governor[i] = governor;
        self.resolve(i);
    }

    /// Program a RAPL package power cap on module `i` (the PC control
    /// path). The cap round-trips through the `MSR_PKG_POWER_LIMIT`
    /// encoding, so it inherits hardware quantization (1/8 W).
    pub fn set_cap(&mut self, i: usize, limit: RaplLimit) {
        let reg = PowerLimitRegister {
            limit: limit.cap,
            enabled: true,
            clamp: true,
            window: limit.window,
        };
        let quantized = PowerLimitRegister::decode(reg.encode());
        self.cap[i] = Some(RaplLimit { cap: quantized.limit, window: quantized.window });
        self.resolve(i);
    }

    /// Remove any RAPL cap from module `i`.
    pub fn clear_cap(&mut self, i: usize) {
        self.cap[i] = None;
        self.resolve(i);
    }

    /// Advance module `i` by `dt`: accumulate energy into its RAPL
    /// counters.
    pub fn step(&mut self, i: usize, dt: Seconds) {
        let m = self.module(i);
        let pkg = m.cpu_power() * dt;
        let dram = m.dram_power() * dt;
        self.pkg_counter[i].accumulate(pkg);
        self.dram_counter[i].accumulate(dram);
    }

    /// Put the same workload activity on every module (an SPMD job).
    pub fn set_activity_all(&mut self, activity: PowerActivity) {
        for i in 0..self.len() {
            self.set_activity(i, activity);
        }
    }

    /// Program the same RAPL cap on every module (the Naive / Pc schemes).
    pub fn set_uniform_cap(&mut self, limit: RaplLimit) {
        for i in 0..self.len() {
            self.set_cap(i, limit);
        }
    }

    /// Pin per-module frequencies through the userspace governor (the VaFs
    /// scheme). `freqs` must have one entry per module; a mismatched vector
    /// programs nothing.
    pub fn set_frequencies(&mut self, freqs: &[GigaHertz]) -> Result<(), ClusterError> {
        self.check_len(freqs.len())?;
        for (i, &f) in freqs.iter().enumerate() {
            self.set_governor(i, Governor::Userspace(f));
        }
        Ok(())
    }

    fn check_len(&self, got: usize) -> Result<(), ClusterError> {
        if got == self.len() {
            Ok(())
        } else {
            Err(ClusterError::LengthMismatch { expected: self.len(), got })
        }
    }

    /// Remove all caps and restore the performance governor.
    pub fn uncap_all(&mut self) {
        for i in 0..self.len() {
            self.cap[i] = None;
            self.governor[i] = Governor::Performance;
            self.resolve(i);
        }
    }

    /// Advance every module by `dt` (energy accounting).
    pub fn step_all(&mut self, dt: Seconds) {
        for i in 0..self.len() {
            self.step(i, dt);
        }
    }

    /// Ground-truth per-module CPU power (experiment oracle; real
    /// campaigns go through [`crate::measurement`]).
    pub fn cpu_powers(&self) -> Vec<Watts> {
        self.modules().map(|m| m.cpu_power()).collect()
    }

    /// Ground-truth per-module DRAM power.
    pub fn dram_powers(&self) -> Vec<Watts> {
        self.modules().map(|m| m.dram_power()).collect()
    }

    /// Ground-truth per-module module (CPU+DRAM) power.
    pub fn module_powers(&self) -> Vec<Watts> {
        self.modules().map(|m| m.module_power()).collect()
    }

    /// Current operating frequencies (duty-weighted effective frequency).
    pub fn effective_frequencies(&self) -> Vec<GigaHertz> {
        self.modules().map(|m| m.operating_point().effective_frequency()).collect()
    }

    /// Total fleet power right now.
    pub fn total_power(&self) -> Watts {
        self.modules().map(|m| m.module_power()).sum()
    }

    /// Per-module telemetry in module-id order — the sensor view the
    /// live service plane (`vap-daemon`) publishes each tick.
    pub fn telemetry(&self) -> Vec<vap_obs::ModuleSample> {
        self.modules().map(|m| m.telemetry()).collect()
    }

    /// Recompute module `i`'s operating point from governor + cap +
    /// activity.
    ///
    /// The governor proposes a clock; if a cap is installed, RAPL's steady
    /// state is computed and the *more restrictive* of the two wins (RAPL
    /// cannot raise the clock above the governor's choice, and the governor
    /// cannot override the power limit).
    fn resolve(&mut self, i: usize) {
        let pstates = &self.spec.pstates;
        let gov_clock = self.governor[i].resolve(pstates);
        let (clock, duty, throttled) = match self.cap[i] {
            None => (gov_clock, 1.0, false),
            Some(limit) => {
                let m = self.module(i);
                let s = rapl::steady_state(
                    limit.cap,
                    &self.spec.power_model.cpu,
                    self.activity[i].cpu,
                    m.variation(),
                    self.thermal_factor[i],
                    pstates,
                );
                match s {
                    RaplSteadyState::Unconstrained { .. } => (gov_clock, 1.0, false),
                    // RAPL only dithers when it, not the governor, is the
                    // binding constraint.
                    RaplSteadyState::Dvfs { freq } => (freq.min(gov_clock), 1.0, freq < gov_clock),
                    RaplSteadyState::ClockModulated { duty, .. } => {
                        (pstates.f_min().min(gov_clock), duty, true)
                    }
                }
            }
        };
        self.clock[i] = clock;
        self.duty[i] = duty;
        self.throttled[i] = throttled;
    }
}

/// A borrowed, read-only view of one module of a [`Cluster`]: every
/// per-module read (fingerprints, operating point, power oracles, energy
/// counters) is defined here once.
#[derive(Clone, Copy)]
pub struct ModuleView<'a> {
    cluster: &'a Cluster,
    /// Always `< cluster.len()`: only [`Cluster`] hands out views.
    id: usize,
}

impl fmt::Debug for ModuleView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModuleView")
            .field("id", &self.id)
            .field("operating_point", &self.operating_point())
            .field("cap", &self.cap())
            .finish_non_exhaustive()
    }
}

impl<'a> ModuleView<'a> {
    /// Fleet-wide module index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The fingerprint currently in effect: the workload-specific
    /// override if one is installed, else the base manufacturing
    /// fingerprint — composed with any accumulated [`DriftSkew`].
    pub fn variation(&self) -> &'a ModuleVariation {
        let c = self.cluster;
        c.drifted[self.id]
            .as_ref()
            .or(c.workload_variation[self.id].as_ref())
            .unwrap_or(&c.variation[self.id])
    }

    /// The base (PVT-microbenchmark) manufacturing fingerprint.
    pub fn base_variation(&self) -> &'a ModuleVariation {
        &self.cluster.variation[self.id]
    }

    /// The workload-specific fingerprint override, if one is installed.
    pub fn workload_variation(&self) -> Option<&'a ModuleVariation> {
        self.cluster.workload_variation[self.id].as_ref()
    }

    /// The accumulated in-field drift (identity if pristine).
    pub fn drift_skew(&self) -> &'a DriftSkew {
        &self.cluster.drift[self.id]
    }

    /// The module's P-state table (shared by the whole fleet).
    pub fn pstates(&self) -> &'a PStateTable {
        &self.cluster.spec.pstates
    }

    /// The module's thermal factor ([`ThermalEnv::factor`] of its rack
    /// position).
    pub fn thermal_factor(&self) -> f64 {
        self.cluster.thermal_factor[self.id]
    }

    /// Ground-truth power model (the experiment oracles use this; the
    /// budgeting algorithm must not).
    pub fn power_model(&self) -> &'a ModulePowerModel {
        &self.cluster.spec.power_model
    }

    /// Current workload activity.
    pub fn activity(&self) -> PowerActivity {
        self.cluster.activity[self.id]
    }

    /// Current resolved operating point.
    pub fn operating_point(&self) -> OperatingPoint {
        OperatingPoint { clock: self.cluster.clock[self.id], duty: self.cluster.duty[self.id] }
    }

    /// The programmed (quantized) cap, if any.
    pub fn cap(&self) -> Option<RaplLimit> {
        self.cluster.cap[self.id]
    }

    /// Whether RAPL's dynamic control is actively limiting the module.
    pub fn rapl_throttled(&self) -> bool {
        self.cluster.throttled[self.id]
    }

    /// The module's live telemetry sample (the daemon's sensor view):
    /// current power draw, effective frequency, programmed cap, duty
    /// cycle and throttle state.
    pub fn telemetry(&self) -> vap_obs::ModuleSample {
        let op = self.operating_point();
        vap_obs::ModuleSample {
            id: self.id as u64,
            power_w: self.module_power().value(),
            freq_ghz: op.effective_frequency().value(),
            cap_w: self.cap().map(|l| l.cap.value()),
            duty: op.duty,
            throttled: self.rapl_throttled(),
        }
    }

    /// Average CPU (package) power at the current operating point with
    /// fingerprint `v`, duty-weighted across run and gated phases.
    fn cpu_power_with(&self, v: &ModuleVariation) -> Watts {
        let op = self.operating_point();
        let cpu = &self.power_model().cpu;
        let run = cpu.power(op.clock, self.activity().cpu, v, self.thermal_factor());
        if op.duty >= 1.0 {
            run
        } else {
            let gated = cpu.gated_power(v, self.thermal_factor());
            run * op.duty + gated * (1.0 - op.duty)
        }
    }

    /// Average DRAM power at the current operating point with fingerprint
    /// `v`. Memory traffic only flows while the CPU runs, so activity is
    /// duty-weighted; standby power is always drawn.
    fn dram_power_with(&self, v: &ModuleVariation) -> Watts {
        let op = self.operating_point();
        self.power_model().dram.power(op.clock, self.activity().dram * op.duty, v)
    }

    /// Average CPU (package) power at the current operating point,
    /// duty-weighted across run and gated phases.
    pub fn cpu_power(&self) -> Watts {
        self.cpu_power_with(self.variation())
    }

    /// Average DRAM power at the current operating point. DRAM is never
    /// capped (the paper notes DRAM capping "rarely exists" in production
    /// systems).
    pub fn dram_power(&self) -> Watts {
        self.dram_power_with(self.variation())
    }

    /// Average module (CPU + DRAM) power.
    pub fn module_power(&self) -> Watts {
        self.cpu_power() + self.dram_power()
    }

    /// Module power *predicted from the base PVT fingerprint* at the
    /// current operating point — what an operator who calibrated on the
    /// PVT microbenchmark would expect this module to draw. Workload
    /// overrides and accumulated drift make the actual draw
    /// ([`Self::module_power`]) diverge from this prediction; the drift
    /// detectors watch that residual.
    pub fn pvt_predicted_power(&self) -> Watts {
        let base = self.base_variation();
        self.cpu_power_with(base) + self.dram_power_with(base)
    }

    /// Relative execution rate (1.0 = this workload at the reference
    /// frequency on a nominal part): the boundedness-dependent DVFS
    /// slowdown, the duty cycle, and the module's silicon-speed multiplier.
    pub fn effective_rate(&self, boundedness: &Boundedness) -> f64 {
        let op = self.operating_point();
        if op.duty <= 0.0 || op.clock.value() <= 0.0 {
            return 0.0;
        }
        let dither = if self.rapl_throttled() { rapl::DVFS_DITHER_EFFICIENCY } else { 1.0 };
        op.duty
            * dither
            * rapl::modulation_efficiency(op.duty)
            * boundedness.relative_rate(op.clock)
            * self.variation().perf
    }

    /// The package-domain RAPL energy counter (the value behind
    /// `MSR_PKG_ENERGY_STATUS`, plus its sub-quantum residual).
    pub fn pkg_counter(&self) -> EnergyCounter {
        self.cluster.pkg_counter[self.id]
    }

    /// The DRAM-domain RAPL energy counter.
    pub fn dram_counter(&self) -> EnergyCounter {
        self.cluster.dram_counter[self.id]
    }

    /// Measure the module's `(pkg, dram)` average power pinned at `f`
    /// with its current workload, through the RAPL energy-counter
    /// protocol of [`crate::measurement::RaplEnergyMeter`]: uncapped, on
    /// the userspace governor, over ten 10 ms steps.
    ///
    /// The steps advance two local copies of the counters, so the
    /// measurement leaves the fleet untouched and allocates nothing; the
    /// arithmetic (counter quantization included) is that of uncapping,
    /// pinning and stepping the module in place. This is the per-module
    /// kernel of the PVT sweep.
    pub fn measure_anchors(&self, f: GigaHertz) -> (Watts, Watts) {
        // Uncapped + userspace governor resolve to: clock = floor(f),
        // duty 1.0, no throttle (the governor proposes, no cap contests).
        let clock = self.pstates().floor(f);
        let v = self.variation();
        let act = self.activity();
        let model = self.power_model();
        let cpu = model.cpu.power(clock, act.cpu, v, self.thermal_factor());
        let dram = model.dram.power(clock, act.dram, v);
        let mut pkg_counter = self.pkg_counter();
        let mut dram_counter = self.dram_counter();
        let dt = Seconds::from_millis(10.0);
        for _ in 0..10 {
            pkg_counter.accumulate(cpu * dt);
            dram_counter.accumulate(dram * dt);
        }
        let elapsed = Seconds(0.1);
        (
            EnergyCounter::delta(self.pkg_counter().raw(), pkg_counter.raw()) / elapsed,
            EnergyCounter::delta(self.dram_counter().raw(), dram_counter.raw()) / elapsed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::RaplEnergyMeter;
    use vap_stats::{worst_case_variation, Summary};

    /// Joules a RAPL counter has counted since reset.
    fn counted(c: EnergyCounter) -> f64 {
        EnergyCounter::delta(0, c.raw()).value()
    }

    /// One counter unit: the most energy a counter holds back.
    fn quantum() -> f64 {
        EnergyCounter::delta(0, 1).value()
    }

    fn busy() -> PowerActivity {
        PowerActivity { cpu: 1.0, dram: 0.25 }
    }

    fn small_ha8k(n: usize, seed: u64) -> Cluster {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), n, seed);
        c.set_activity_all(busy());
        c
    }

    /// A one-module fleet whose module carries `variation`, idle.
    fn single(variation: ModuleVariation) -> Cluster {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), 1, 0);
        c.replace_silicon(0, variation);
        c
    }

    /// A one-module fleet on the nominal fingerprint, running busy.
    fn nominal_busy() -> Cluster {
        let mut c = single(ModuleVariation::nominal(0, 12));
        c.set_activity(0, busy());
        c
    }

    #[test]
    fn deterministic_in_seed() {
        let a = small_ha8k(16, 3);
        let b = small_ha8k(16, 3);
        for (ma, mb) in a.modules().zip(b.modules()) {
            assert_eq!(ma.variation(), mb.variation());
        }
    }

    #[test]
    fn uncapped_fleet_shows_power_variation_but_no_frequency_variation() {
        // Fig. 2(i) in miniature: identical code, identical frequency,
        // visibly different power.
        let c = small_ha8k(256, 42);
        let freqs: Vec<f64> = c.effective_frequencies().iter().map(|f| f.value()).collect();
        assert_eq!(worst_case_variation(&freqs), Some(1.0));
        let powers: Vec<f64> = c.module_powers().iter().map(|p| p.value()).collect();
        let vp = worst_case_variation(&powers).unwrap();
        assert!(vp > 1.1, "expected visible power variation, Vp = {vp}");
    }

    #[test]
    fn uniform_cap_converts_power_variation_into_frequency_variation() {
        // Fig. 2(ii) in miniature.
        let mut c = small_ha8k(256, 42);
        c.set_uniform_cap(RaplLimit::with_default_window(Watts(68.25)));
        let freqs: Vec<f64> = c.effective_frequencies().iter().map(|f| f.value()).collect();
        let vf = worst_case_variation(&freqs).unwrap();
        assert!(vf > 1.05, "expected frequency variation under cap, Vf = {vf}");
        // and the power spread collapses toward the cap
        let powers: Vec<f64> = c.cpu_powers().iter().map(|p| p.value()).collect();
        let s = Summary::of(&powers).unwrap();
        assert!(s.max <= 68.25 + 0.01);
    }

    #[test]
    fn per_module_caps_and_frequencies_apply() {
        let mut c = small_ha8k(4, 7);
        for i in 0..4 {
            c.set_cap(i, RaplLimit::with_default_window(Watts(50.0 + 10.0 * i as f64)));
        }
        for (i, m) in c.modules().enumerate() {
            let expected = 50.0 + 10.0 * i as f64;
            assert!((m.cap().unwrap().cap.value() - expected).abs() < 0.1);
        }
        c.uncap_all();
        c.set_frequencies(&[GigaHertz(1.5); 4]).unwrap();
        for m in c.modules() {
            assert_eq!(m.operating_point().clock, GigaHertz(1.5));
        }
    }

    #[test]
    fn uncap_restores_nominal_operation() {
        let mut c = small_ha8k(8, 9);
        c.set_uniform_cap(RaplLimit::with_default_window(Watts(50.0)));
        c.uncap_all();
        for m in c.modules() {
            assert!(m.cap().is_none());
            assert_eq!(m.operating_point().clock, GigaHertz(2.7));
        }
    }

    #[test]
    fn total_power_sums_modules() {
        let mut c = small_ha8k(10, 11);
        let total = c.total_power();
        let sum: Watts = c.module_powers().into_iter().sum();
        assert!((total.value() - sum.value()).abs() < 1e-9);
        c.step_all(Seconds(1.0));
        let e: f64 =
            c.modules().map(|m| counted(m.pkg_counter()) + counted(m.dram_counter())).sum();
        // each counter holds back less than one quantum
        assert!((e - total.value()).abs() < 1e-6 + 2.0 * c.len() as f64 * quantum());
    }

    #[test]
    fn mismatched_vectors_are_rejected_and_program_nothing() {
        let mut c = small_ha8k(4, 1);
        assert_eq!(
            c.set_frequencies(&[GigaHertz(1.5); 5]),
            Err(ClusterError::LengthMismatch { expected: 4, got: 5 })
        );
        for m in c.modules() {
            assert_eq!(m.operating_point().clock, GigaHertz(2.7));
        }
        let msg = ClusterError::LengthMismatch { expected: 4, got: 3 }.to_string();
        assert!(msg.contains('4') && msg.contains('3'));
    }

    #[test]
    fn checked_accessors_cover_the_fleet_and_nothing_else() {
        let c = small_ha8k(4, 2);
        assert!(c.get(3).is_some());
        assert!(c.get(4).is_none());
        assert!(c.get(usize::MAX).is_none());
        assert_eq!(c.get(2).map(|m| m.id()), Some(2));
        assert_eq!(c.modules().len(), 4);
        assert_eq!(c.modules().rev().map(|m| m.id()).collect::<Vec<_>>(), [3, 2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "not in a fleet of 4")]
    fn unchecked_accessor_panics_out_of_range() {
        let _ = small_ha8k(4, 2).module(4);
    }

    #[test]
    fn thermal_gradient_raises_hot_end_power() {
        let mut spec = SystemSpec::ha8k();
        spec.variability = vap_model::variability::VariabilityModel::none();
        let gradient = RackGradient { cold_c: 20.0, hot_c: 40.0 };
        let mut c = Cluster::with_thermal(spec, 32, 0, Some(gradient));
        c.set_activity_all(busy());
        let p = c.cpu_powers();
        assert!(p.last().unwrap() > p.first().unwrap());
        assert!(c.module(31).thermal_factor() > c.module(0).thermal_factor());
    }

    #[test]
    fn telemetry_reports_each_module_in_id_order() {
        let mut c = small_ha8k(6, 11);
        c.set_cap(2, RaplLimit::with_default_window(Watts(40.0)));
        let samples = c.telemetry();
        assert_eq!(samples.len(), 6);
        for (i, s) in samples.iter().enumerate() {
            let m = c.module(i);
            assert_eq!(s.id, i as u64);
            assert_eq!(s.power_w, m.module_power().value());
            assert_eq!(s.freq_ghz, m.operating_point().effective_frequency().value());
            assert_eq!(s.cap_w, m.cap().map(|l| l.cap.value()));
            assert_eq!(s.duty, m.operating_point().duty);
            assert_eq!(s.throttled, m.rapl_throttled());
        }
        assert!(samples[2].throttled && samples[2].duty < 1.0);
    }

    #[test]
    fn uncapped_runs_at_fmax() {
        let c = nominal_busy();
        let m = c.module(0);
        assert_eq!(m.operating_point().clock, GigaHertz(2.7));
        assert_eq!(m.operating_point().duty, 1.0);
        assert!((m.cpu_power().value() - 100.8).abs() < 3.0);
    }

    #[test]
    fn cap_throttles_clock() {
        let mut c = nominal_busy();
        c.set_cap(0, RaplLimit::with_default_window(Watts(77.25)));
        let m = c.module(0);
        let op = m.operating_point();
        assert!(op.clock < GigaHertz(2.7));
        assert!(op.duty == 1.0);
        assert!(m.cpu_power() <= Watts(77.25 + 0.01));
        // DRAM unaffected by the CPU cap except through frequency
        assert!(m.dram_power() > Watts(0.0));
    }

    #[test]
    fn cap_goes_through_msr_quantization() {
        let mut c = nominal_busy();
        c.set_cap(0, RaplLimit::with_default_window(Watts(77.3)));
        // 77.3 W is not a multiple of 1/8 W; the effective cap is the
        // quantized value read back from the register encoding.
        let eff = c.module(0).cap().unwrap().cap;
        assert!((eff.value() * 8.0).fract().abs() < 1e-9);
        assert!((eff.value() - 77.3).abs() <= 0.0625 + 1e-9);
    }

    #[test]
    fn deep_cap_duty_cycles_and_guts_performance() {
        let mut c = nominal_busy();
        c.set_cap(0, RaplLimit::with_default_window(Watts(35.0)));
        let m = c.module(0);
        let op = m.operating_point();
        assert_eq!(op.clock, GigaHertz(1.2));
        assert!(op.duty < 1.0);
        let rate = m.effective_rate(&Boundedness::cpu_bound(GigaHertz(2.7)));
        // far below the f_min rate of 1.2/2.7 ≈ 0.44
        assert!(rate < 0.35, "rate = {rate}");
    }

    #[test]
    fn governor_pins_frequency() {
        let mut c = nominal_busy();
        c.set_governor(0, Governor::Userspace(GigaHertz(1.8)));
        assert_eq!(c.module(0).operating_point().clock, GigaHertz(1.8));
        // FS controls frequency but not power: power follows the module's
        // silicon at 1.8 GHz.
        let p = c.module(0).cpu_power();
        assert!(p < Watts(100.0) && p > Watts(40.0));
    }

    #[test]
    fn governor_and_cap_compose_min_wise() {
        let mut c = nominal_busy();
        // generous cap + low governor: governor wins
        c.set_cap(0, RaplLimit::with_default_window(Watts(120.0)));
        c.set_governor(0, Governor::Userspace(GigaHertz(1.5)));
        assert_eq!(c.module(0).operating_point().clock, GigaHertz(1.5));
        // tight cap + high governor: cap wins
        c.set_governor(0, Governor::Userspace(GigaHertz(2.7)));
        c.set_cap(0, RaplLimit::with_default_window(Watts(60.0)));
        assert!(c.module(0).operating_point().clock < GigaHertz(2.7));
    }

    #[test]
    fn clear_cap_restores_full_speed() {
        let mut c = nominal_busy();
        c.set_cap(0, RaplLimit::with_default_window(Watts(50.0)));
        assert!(c.module(0).operating_point().clock < GigaHertz(2.7));
        c.clear_cap(0);
        assert_eq!(c.module(0).operating_point().clock, GigaHertz(2.7));
        assert!(c.module(0).cap().is_none());
    }

    #[test]
    fn power_hungry_module_is_slower_under_same_cap() {
        let mut hungry_var = ModuleVariation::nominal(0, 12);
        hungry_var.dynamic = 1.08;
        hungry_var.leakage = 1.4;
        let mut nom = nominal_busy();
        let mut hungry = single(hungry_var);
        hungry.set_activity(0, busy());
        for c in [&mut nom, &mut hungry] {
            c.set_cap(0, RaplLimit::with_default_window(Watts(68.25)));
        }
        let b = Boundedness::cpu_bound(GigaHertz(2.7));
        assert!(hungry.module(0).effective_rate(&b) < nom.module(0).effective_rate(&b));
    }

    #[test]
    fn energy_accounting_matches_power_times_time() {
        let mut c = nominal_busy();
        let p_pkg = c.module(0).cpu_power();
        let p_dram = c.module(0).dram_power();
        for _ in 0..1000 {
            c.step(0, Seconds::from_millis(1.0));
        }
        // 1 s at constant power, no wrap
        let m = c.module(0);
        assert!((counted(m.pkg_counter()) - p_pkg.value()).abs() < 1e-6 + quantum());
        assert!((counted(m.dram_counter()) - p_dram.value()).abs() < 1e-6 + quantum());
    }

    #[test]
    fn idle_module_draws_base_power_only() {
        let c = single(ModuleVariation::nominal(0, 12));
        // idle: no dynamic power, leakage + idle + DRAM standby
        let p = c.module(0).module_power();
        assert!(p.value() < 35.0, "idle power {p}");
        assert!(p.value() > 15.0);
    }

    #[test]
    fn pvt_prediction_matches_actual_until_workload_override() {
        let mut c = nominal_busy();
        let m = c.module(0);
        assert!(
            (m.pvt_predicted_power().value() - m.module_power().value()).abs() < 1e-12,
            "no override: prediction is the actual draw"
        );
        let mut hot = ModuleVariation::nominal(0, 12);
        hot.dynamic = 1.10;
        hot.leakage = 1.3;
        c.set_workload_variation(0, Some(hot));
        let m = c.module(0);
        let residual = m.module_power().value() - m.pvt_predicted_power().value();
        assert!(
            residual > 1.0,
            "hungrier workload fingerprint must overshoot PVT prediction by watts, got {residual}"
        );
    }

    #[test]
    fn drift_skew_diverges_actual_from_pvt_prediction() {
        let mut c = nominal_busy();
        let pristine = c.module(0).module_power();
        // identity drift is bitwise a no-op
        c.set_drift_skew(0, DriftSkew::IDENTITY);
        assert_eq!(c.module(0).module_power().value().to_bits(), pristine.value().to_bits());
        // an aging/thermal step makes the module hungrier than its stale
        // calibration predicts: the exact residual the drift detector eats
        c.apply_drift(0, &DriftSkew { dynamic: 1.06, leakage: 1.25, dram: 1.0 });
        let m = c.module(0);
        let residual = m.module_power().value() - m.pvt_predicted_power().value();
        assert!(residual > 1.0, "drifted module must overshoot the PVT prediction, got {residual}");
        assert!(!m.drift_skew().is_identity());
    }

    #[test]
    fn drift_composes_on_top_of_workload_override() {
        let mut c = nominal_busy();
        let mut hot = ModuleVariation::nominal(0, 12);
        hot.dynamic = 1.05;
        c.set_workload_variation(0, Some(hot));
        let with_override = c.module(0).module_power();
        c.apply_drift(0, &DriftSkew { dynamic: 1.04, leakage: 1.1, dram: 1.0 });
        assert!(c.module(0).module_power() > with_override, "drift must stack on the override");
        // clearing the override keeps the drift (it belongs to the silicon)
        c.set_workload_variation(0, None);
        let base_drifted = c.module(0).module_power();
        c.set_drift_skew(0, DriftSkew::IDENTITY);
        assert!(base_drifted > c.module(0).module_power());
    }

    #[test]
    fn replace_silicon_resets_drift_and_counters_but_keeps_slot_settings() {
        let mut c = nominal_busy();
        c.set_cap(0, RaplLimit::with_default_window(Watts(68.25)));
        c.apply_drift(0, &DriftSkew { dynamic: 1.1, leakage: 1.3, dram: 1.05 });
        c.step(0, Seconds::from_millis(50.0));
        assert!(c.module(0).pkg_counter().raw() > 0);
        let fresh = ModuleVariation::nominal(0, 12);
        c.replace_silicon(0, fresh.clone());
        let m = c.module(0);
        assert_eq!(m.base_variation(), &fresh);
        assert!(m.drift_skew().is_identity());
        assert!(m.workload_variation().is_none());
        assert_eq!(m.pkg_counter(), EnergyCounter::default());
        assert_eq!(m.dram_counter(), EnergyCounter::default());
        assert!(m.cap().is_some(), "the slot keeps its programmed cap");
        assert_eq!(m.activity(), busy());
        let residual = (m.module_power().value() - m.pvt_predicted_power().value()).abs();
        assert!(residual < 1e-12, "fresh silicon matches its own calibration");
    }

    #[test]
    fn perf_multiplier_feeds_effective_rate() {
        let mut v = ModuleVariation::nominal(0, 4);
        v.perf = 0.9;
        let mut c = single(v);
        c.set_activity(0, busy());
        let b = Boundedness::cpu_bound(GigaHertz(2.7));
        assert!((c.module(0).effective_rate(&b) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn measure_anchors_matches_the_in_place_meter_and_leaves_state_alone() {
        let mut c = small_ha8k(6, 9);
        c.set_uniform_cap(RaplLimit::with_default_window(Watts(70.0)));
        // pre-age the counters so the residual paths are exercised
        c.step_all(Seconds::from_millis(7.0));
        let before = c.clone();
        let f = c.spec().pstates.f_max();
        for i in 0..c.len() {
            let anchors = c.module(i).measure_anchors(f);
            // the in-place protocol: uncap, pin, meter over 10×10 ms
            let mut probe = c.clone();
            probe.clear_cap(i);
            probe.set_governor(i, Governor::Userspace(f));
            let meter = RaplEnergyMeter::begin(probe.module(i));
            for _ in 0..10 {
                probe.step(i, Seconds::from_millis(10.0));
            }
            assert_eq!(anchors, meter.end(probe.module(i), Seconds(0.1)), "module {i}");
        }
        // a &self measurement left every module as it was
        for (a, b) in c.modules().zip(before.modules()) {
            assert_eq!(a.operating_point(), b.operating_point());
            assert_eq!(a.cap(), b.cap());
            assert_eq!(a.pkg_counter(), b.pkg_counter());
            assert_eq!(a.dram_counter(), b.dram_counter());
        }
    }
}
