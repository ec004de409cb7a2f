//! Manufacturing variability: the ground truth the paper measures.
//!
//! §2.1 of the paper attributes power inhomogeneity to fabrication-process
//! variations — threshold-voltage distortions that change leakage current
//! and switching power — which can be **die-to-die** (between processors) or
//! **within-die** (between cores of one processor), plus analogous variation
//! in DRAM chips. Vendors bin parts by *frequency*, not by *power*, so an
//! HPC system's processors hit the same clock targets while drawing visibly
//! different power (Fig. 1: up to 23% CPU power variation at equal
//! performance on Cab).
//!
//! [`VariabilityModel`] describes a system's distributions;
//! [`ModuleVariation`] is one sampled processor+DRAM module. The multipliers
//! are dimensionless scales around 1.0 that the ground-truth power model
//! ([`crate::power`]) applies to its nominal parameters.

use crate::rng::{module_seed, SplitMix64};

/// Hard floor/ceiling applied to every sampled multiplier. Process variation
/// is bounded in practice (outliers are discarded at test time); clamping
/// also keeps the simulation safe from pathological tail samples.
const MULTIPLIER_FLOOR: f64 = 0.5;
const MULTIPLIER_CEIL: f64 = 2.0;

/// Leakage-specific clamp. Leakage is the heaviest-tailed parameter, but
/// vendors screen out grossly leaky parts at test time (they fail the TDP
/// qualification), so the fleet never contains the raw log-normal tail.
const LEAKAGE_FLOOR: f64 = 0.6;
const LEAKAGE_CEIL: f64 = 1.55;

/// Distribution parameters for one system's manufacturing variability.
///
/// Calibrated per system in [`crate::systems`] so that fleet-level statistics
/// (worst-case variation `Vp`, standard deviations) match what the paper
/// observed on the real machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariabilityModel {
    /// Die-to-die std-dev of the *dynamic* (switching) CPU power multiplier.
    pub dynamic_sigma: f64,
    /// Log-space std-dev of the *leakage* power multiplier. Leakage depends
    /// exponentially on threshold voltage, so die-to-die leakage is
    /// heavy-tailed; a log-normal captures that.
    pub leakage_sigma: f64,
    /// Die-to-die std-dev of the DRAM power multiplier. The paper observed
    /// much larger relative variation for DRAM (Vp ≈ 2.8) than for CPUs.
    pub dram_sigma: f64,
    /// Within-die std-dev of per-core dynamic multipliers.
    pub within_die_sigma: f64,
    /// Std-dev of the per-module *performance* multiplier (relative
    /// execution rate at equal frequency). Zero for frequency-binned parts
    /// (Cab, Vulcan, HA8K); non-zero on Teller, where the paper saw 17%
    /// performance variation.
    pub perf_sigma: f64,
    /// Correlation in `[-1, 1]` between the dynamic-power z-score and the
    /// performance z-score. Teller showed a *negative* correlation between
    /// slowdown and power (more power ⇒ faster), i.e. a positive
    /// power-performance correlation here.
    // vap:allow(raw-unit-f64): a correlation coefficient is dimensionless
    pub perf_power_corr: f64,
}

impl VariabilityModel {
    /// A frequency-binned server part: no performance variation, moderate
    /// power variation. Reasonable defaults for Intel-like parts.
    pub fn frequency_binned(dynamic_sigma: f64, leakage_sigma: f64, dram_sigma: f64) -> Self {
        VariabilityModel {
            dynamic_sigma,
            leakage_sigma,
            dram_sigma,
            within_die_sigma: 0.05,
            perf_sigma: 0.0,
            perf_power_corr: 0.0,
        }
    }

    /// An idealized part with no variability at all. Useful as an
    /// experimental control: under this model every budgeting scheme
    /// degenerates to uniform allocation.
    pub fn none() -> Self {
        VariabilityModel {
            dynamic_sigma: 0.0,
            leakage_sigma: 0.0,
            dram_sigma: 0.0,
            within_die_sigma: 0.0,
            perf_sigma: 0.0,
            perf_power_corr: 0.0,
        }
    }

    /// Sample the variability of a fleet of `n` modules with `cores` cores
    /// each. Deterministic in `seed`; module `id` draws from its own
    /// stream at [`module_seed`]`(seed, id)`, so a module's fingerprint
    /// does not depend on the draws of the modules before it.
    pub fn sample_fleet(&self, n: usize, cores: usize, seed: u64) -> Vec<ModuleVariation> {
        (0..n)
            .map(|id| {
                let mut rng = SplitMix64::new(module_seed(seed, id));
                self.sample_module(id, cores, &mut rng)
            })
            .collect()
    }

    /// Sample one replacement module deterministically in `seed`: a part
    /// swapped in mid-campaign (module churn) draws a fresh fingerprint
    /// from the same bin the original fleet was drawn from.
    pub fn sample_replacement(&self, module_id: usize, cores: usize, seed: u64) -> ModuleVariation {
        self.sample_module(module_id, cores, &mut SplitMix64::new(seed))
    }

    /// Sample a single module's variation.
    pub fn sample_module(
        &self,
        module_id: usize,
        cores: usize,
        rng: &mut SplitMix64,
    ) -> ModuleVariation {
        let z_dyn = rng.next_normal();
        let dynamic = clamp_mult(1.0 + self.dynamic_sigma * z_dyn);

        // Log-normal with unit mean: E[exp(N(mu, s^2))] = exp(mu + s^2/2) = 1.
        let leakage = if self.leakage_sigma > 0.0 {
            let mu = -self.leakage_sigma * self.leakage_sigma / 2.0;
            rng.next_lognormal(mu, self.leakage_sigma).clamp(LEAKAGE_FLOOR, LEAKAGE_CEIL)
        } else {
            1.0
        };

        let dram = clamp_mult(1.0 + self.dram_sigma * rng.next_normal());

        // Performance multiplier correlated with the dynamic-power z-score.
        let perf = if self.perf_sigma > 0.0 {
            let eps = rng.next_normal();
            let rho = self.perf_power_corr.clamp(-1.0, 1.0);
            let z_perf = rho * z_dyn + (1.0 - rho * rho).sqrt() * eps;
            clamp_mult(1.0 + self.perf_sigma * z_perf)
        } else {
            1.0
        };

        let core_factors: Vec<f64> = (0..cores)
            .map(|_| clamp_mult(1.0 + self.within_die_sigma * rng.next_normal()))
            .collect();

        ModuleVariation::from_parts(module_id, dynamic, leakage, dram, perf, core_factors)
    }
}

fn clamp_mult(x: f64) -> f64 {
    x.clamp(MULTIPLIER_FLOOR, MULTIPLIER_CEIL)
}

/// The sampled manufacturing "fingerprint" of one module (CPU socket plus
/// its DRAM), fixed at fabrication time.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleVariation {
    /// Index of the module within its fleet.
    pub module_id: usize,
    /// Die-to-die dynamic-power multiplier (applies to switching power).
    pub dynamic: f64,
    /// Die-to-die leakage-power multiplier.
    pub leakage: f64,
    /// DRAM power multiplier.
    pub dram: f64,
    /// Execution-rate multiplier at equal frequency (1.0 unless the part is
    /// not strictly frequency-binned).
    pub perf: f64,
    /// Within-die per-core dynamic multipliers.
    core_factors: Vec<f64>,
    /// Their mean (1.0 for none), taken once: every power evaluation
    /// reads it through [`Self::effective_dynamic`].
    core_mean: f64,
}

/// A multiplicative perturbation of a module's power fingerprint —
/// thermal drift, silicon aging, or input-entropy workload content —
/// applied *on top of* whatever [`ModuleVariation`] is in effect.
///
/// The fabrication fingerprint is fixed at test time; what drifts in the
/// field is the *effective* power curve (NBTI/electromigration raise
/// leakage, ambient temperature moves both terms, input content moves
/// switching activity). A skew of all 1.0 is the identity; skews compose
/// multiplicatively, and application clamps through the same
/// floors/ceilings as sampling, so a drifted module can never leave the
/// physically plausible envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSkew {
    /// Multiplier on the dynamic (switching) power term.
    pub dynamic: f64,
    /// Multiplier on the leakage power term.
    pub leakage: f64,
    /// Multiplier on the DRAM power term.
    pub dram: f64,
}

impl Default for DriftSkew {
    fn default() -> Self {
        DriftSkew::IDENTITY
    }
}

impl DriftSkew {
    /// The identity skew (no drift).
    pub const IDENTITY: DriftSkew = DriftSkew { dynamic: 1.0, leakage: 1.0, dram: 1.0 };

    /// Whether this skew is exactly the identity (bitwise — the identity
    /// is only ever produced by the `IDENTITY` constant, never computed).
    pub fn is_identity(&self) -> bool {
        let one = 1.0f64.to_bits();
        self.dynamic.to_bits() == one && self.leakage.to_bits() == one && self.dram.to_bits() == one
    }

    /// Sequential drift events accumulate multiplicatively.
    pub fn compose(&self, other: &DriftSkew) -> DriftSkew {
        DriftSkew {
            dynamic: self.dynamic * other.dynamic,
            leakage: self.leakage * other.leakage,
            dram: self.dram * other.dram,
        }
    }
}

impl ModuleVariation {
    /// The fingerprint of these multipliers and per-core factors.
    fn from_parts(
        module_id: usize,
        dynamic: f64,
        leakage: f64,
        dram: f64,
        perf: f64,
        core_factors: Vec<f64>,
    ) -> Self {
        let core_mean = if core_factors.is_empty() {
            1.0
        } else {
            core_factors.iter().sum::<f64>() / core_factors.len() as f64
        };
        ModuleVariation { module_id, dynamic, leakage, dram, perf, core_factors, core_mean }
    }

    /// A perfectly nominal module (all multipliers 1.0).
    pub fn nominal(module_id: usize, cores: usize) -> Self {
        ModuleVariation::from_parts(module_id, 1.0, 1.0, 1.0, 1.0, vec![1.0; cores])
    }

    /// Within-die per-core dynamic multipliers.
    pub fn core_factors(&self) -> &[f64] {
        &self.core_factors
    }

    /// The module-level dynamic multiplier including within-die effects:
    /// the die-to-die factor scaled by the mean of the per-core factors
    /// (cores contribute switching power additively, so their average is
    /// what the socket-level meter sees).
    pub fn effective_dynamic(&self) -> f64 {
        self.dynamic * self.core_mean
    }

    /// This fingerprint with a [`DriftSkew`] applied, clamped through the
    /// same floors/ceilings as sampling. The per-core factors are left
    /// untouched: drift is a module-level phenomenon here, and the
    /// within-die spread rides along unchanged.
    pub fn skewed(&self, skew: &DriftSkew) -> ModuleVariation {
        ModuleVariation {
            dynamic: clamp_mult(self.dynamic * skew.dynamic),
            leakage: (self.leakage * skew.leakage).clamp(LEAKAGE_FLOOR, LEAKAGE_CEIL),
            dram: clamp_mult(self.dram * skew.dram),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_stats::Summary;

    #[test]
    fn fleet_is_deterministic_in_seed() {
        let m = VariabilityModel::frequency_binned(0.04, 0.2, 0.12);
        let a = m.sample_fleet(32, 12, 7);
        let b = m.sample_fleet(32, 12, 7);
        let c = m.sample_fleet(32, 12, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn no_variability_model_is_all_nominal() {
        let m = VariabilityModel::none();
        for v in m.sample_fleet(16, 8, 1) {
            assert_eq!(v.dynamic, 1.0);
            assert_eq!(v.leakage, 1.0);
            assert_eq!(v.dram, 1.0);
            assert_eq!(v.perf, 1.0);
            assert!(v.core_factors.iter().all(|&c| c == 1.0));
        }
    }

    #[test]
    fn multipliers_center_on_one() {
        let m = VariabilityModel::frequency_binned(0.04, 0.2, 0.12);
        let fleet = m.sample_fleet(4000, 12, 42);
        let dyns: Vec<f64> = fleet.iter().map(|v| v.dynamic).collect();
        let leaks: Vec<f64> = fleet.iter().map(|v| v.leakage).collect();
        let drams: Vec<f64> = fleet.iter().map(|v| v.dram).collect();
        assert!((Summary::of(&dyns).unwrap().mean - 1.0).abs() < 0.01);
        assert!((Summary::of(&leaks).unwrap().mean - 1.0).abs() < 0.02);
        assert!((Summary::of(&drams).unwrap().mean - 1.0).abs() < 0.01);
        // spreads match the configured sigmas: the normal multipliers
        // directly, leakage in log space (where its sigma is defined; the
        // screening clamp trims about 2% of the tails, so the bound there
        // is looser)
        let within = |xs: &[f64], sigma: f64, rel: f64| {
            let sd = Summary::of(xs).unwrap().std_dev;
            assert!((sd / sigma - 1.0).abs() < rel, "sd {sd} vs configured {sigma}");
        };
        within(&dyns, m.dynamic_sigma, 0.05);
        within(&drams, m.dram_sigma, 0.05);
        let log_leaks: Vec<f64> = leaks.iter().map(|l| l.ln()).collect();
        within(&log_leaks, m.leakage_sigma, 0.10);
        let cores: Vec<f64> = fleet.iter().flat_map(|v| v.core_factors.iter().copied()).collect();
        within(&cores, m.within_die_sigma, 0.05);
    }

    #[test]
    fn module_fingerprint_is_independent_of_fleet_size() {
        let m = VariabilityModel::frequency_binned(0.04, 0.2, 0.12);
        let small = m.sample_fleet(4, 12, 7);
        let large = m.sample_fleet(64, 12, 7);
        assert_eq!(small[..], large[..4], "module i draws only from its own stream");
    }

    #[test]
    fn per_module_streams_keep_the_spread_of_one_sequential_stream() {
        // Over many HA8K fleets, the per-fleet Vp (max/min) and std-dev
        // of the DRAM and dynamic multipliers follow the same
        // distribution whether each module draws from its own stream or
        // all modules share one stream in order.
        let spec = crate::systems::SystemSpec::ha8k();
        let m = spec.variability;
        let (n, cores, seeds) = (256, spec.cores_per_proc, 200u64);
        let sequential = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..n).map(|id| m.sample_module(id, cores, &mut rng)).collect::<Vec<_>>()
        };
        type Field = fn(&ModuleVariation) -> f64;
        let fields: [(&str, Field, f64); 2] =
            [("dram", |v| v.dram, m.dram_sigma), ("dynamic", |v| v.dynamic, m.dynamic_sigma)];
        for (name, field, sigma) in fields {
            let per_fleet = |fleet: Vec<ModuleVariation>| {
                let xs: Vec<f64> = fleet.iter().map(field).collect();
                let s = Summary::of(&xs).unwrap();
                (s.max / s.min, s.std_dev)
            };
            let (own_vp, own_sd): (Vec<f64>, Vec<f64>) =
                (0..seeds).map(|s| per_fleet(m.sample_fleet(n, cores, s))).unzip();
            let (seq_vp, seq_sd): (Vec<f64>, Vec<f64>) =
                (0..seeds).map(|s| per_fleet(sequential(s))).unzip();
            // two-sample Kolmogorov–Smirnov statistic against its 1%
            // critical value for two samples of `seeds`
            let ks = two_sample_ks(&own_vp, &seq_vp);
            let critical = 1.628 * (2.0 / seeds as f64).sqrt();
            assert!(ks < critical, "{name} Vp: KS {ks} ≥ {critical}");
            for sds in [&own_sd, &seq_sd] {
                let mean_sd = Summary::of(sds).unwrap().mean;
                assert!((mean_sd / sigma - 1.0).abs() < 0.01, "{name} sd {mean_sd} vs {sigma}");
            }
        }
    }

    fn two_sample_ks(a: &[f64], b: &[f64]) -> f64 {
        let sorted = |xs: &[f64]| {
            let mut v = xs.to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        let (a, b) = (sorted(a), sorted(b));
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                i += 1;
            } else {
                j += 1;
            }
            d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
        }
        d
    }

    #[test]
    fn leakage_is_right_skewed() {
        let m = VariabilityModel::frequency_binned(0.0, 0.25, 0.0);
        let fleet = m.sample_fleet(4000, 1, 3);
        let leaks: Vec<f64> = fleet.iter().map(|v| v.leakage).collect();
        let s = Summary::of(&leaks).unwrap();
        // log-normal: mean above median
        let med = vap_stats::descriptive::quantile(&leaks, 0.5).unwrap();
        assert!(s.mean > med);
    }

    #[test]
    fn samples_are_clamped() {
        // Absurd sigma: every sample must still be in [0.5, 2.0].
        let m = VariabilityModel::frequency_binned(5.0, 3.0, 5.0);
        for v in m.sample_fleet(500, 4, 9) {
            for x in [v.dynamic, v.dram, v.perf] {
                assert!((MULTIPLIER_FLOOR..=MULTIPLIER_CEIL).contains(&x));
            }
            assert!((LEAKAGE_FLOOR..=LEAKAGE_CEIL).contains(&v.leakage));
        }
    }

    #[test]
    fn perf_power_correlation_sign() {
        let m = VariabilityModel {
            dynamic_sigma: 0.06,
            leakage_sigma: 0.0,
            dram_sigma: 0.0,
            within_die_sigma: 0.0,
            perf_sigma: 0.05,
            perf_power_corr: 0.9,
        };
        let fleet = m.sample_fleet(3000, 1, 11);
        // crude Pearson estimate
        let xs: Vec<f64> = fleet.iter().map(|v| v.dynamic).collect();
        let ys: Vec<f64> = fleet.iter().map(|v| v.perf).collect();
        let mx = Summary::of(&xs).unwrap().mean;
        let my = Summary::of(&ys).unwrap().mean;
        let cov: f64 =
            xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum::<f64>() / xs.len() as f64;
        assert!(cov > 0.0, "positive power-performance correlation expected");
    }

    #[test]
    fn effective_dynamic_includes_within_die_mean() {
        let v = ModuleVariation::from_parts(0, 1.1, 1.0, 1.0, 1.0, vec![0.9, 1.1, 1.0, 1.2]);
        assert!((v.effective_dynamic() - 1.1 * 1.05).abs() < 1e-12);
    }

    #[test]
    fn nominal_module_is_identity() {
        let v = ModuleVariation::nominal(3, 12);
        assert_eq!(v.effective_dynamic(), 1.0);
        assert_eq!(v.module_id, 3);
        assert_eq!(v.core_factors.len(), 12);
    }

    #[test]
    fn identity_skew_is_a_no_op() {
        let m = VariabilityModel::frequency_binned(0.04, 0.2, 0.12);
        let v = &m.sample_fleet(4, 8, 5)[2];
        assert!(DriftSkew::IDENTITY.is_identity());
        assert_eq!(&v.skewed(&DriftSkew::IDENTITY), v);
    }

    #[test]
    fn skews_compose_and_clamp() {
        let v = ModuleVariation::nominal(0, 4);
        let hot = DriftSkew { dynamic: 1.05, leakage: 1.30, dram: 1.02 };
        assert!(!hot.is_identity());
        let once = v.skewed(&hot);
        assert!((once.dynamic - 1.05).abs() < 1e-12);
        assert!((once.leakage - 1.30).abs() < 1e-12);
        let twice = v.skewed(&hot.compose(&hot));
        assert_eq!(twice, once.skewed(&hot), "composition = sequential application");
        // absurd accumulated drift saturates at the sampling clamps
        let melt = DriftSkew { dynamic: 10.0, leakage: 10.0, dram: 10.0 };
        let cooked = v.skewed(&melt);
        assert_eq!(cooked.dynamic, MULTIPLIER_CEIL);
        assert_eq!(cooked.leakage, LEAKAGE_CEIL);
        assert_eq!(cooked.dram, MULTIPLIER_CEIL);
        assert_eq!(cooked.perf, v.perf, "drift never touches the perf bin");
    }
}
