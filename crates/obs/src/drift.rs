//! Online drift detection: EWMA residual tracking with z-score alerts.
//!
//! The PVT model predicts each module's power from its *manufacturing*
//! variation (`base_variation`); the measured draw also folds in the
//! workload-dependent component and any aging the fleet accumulates.
//! The detector tracks the residual `measured − predicted` per module
//! with an exponentially weighted mean and variance (the standard
//! EW-mean / EW-variance recursion), and raises a [`DriftAlert`] when a
//! new residual sits more than [`DriftConfig::z_threshold`] standard
//! deviations from the tracked mean — the "silent drift" signal that
//! Schuchart et al. and Sinha et al. call out on production fleets.
//!
//! Determinism: state advances only on [`DriftDetector::observe`] calls,
//! which the producers drive from *simulated* time; no wall-clock enters
//! the recursion, so alert streams are reproducible run-to-run.

/// Detector tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// EWMA smoothing factor (weight of the newest residual).
    pub lambda: f64,
    /// Alert when `|residual − mean| > z_threshold · sigma`.
    pub z_threshold: f64,
    /// Observations per module before alerting arms (the EWMA needs a
    /// few samples to learn the baseline residual level).
    pub warmup: u32,
    /// Floor on the tracked sigma (W) so a perfectly stationary baseline
    /// does not alert on float dust.
    pub min_sigma_w: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { lambda: 0.05, z_threshold: 4.0, warmup: 16, min_sigma_w: 0.5 }
    }
}

/// One raised alert: which module drifted, by how much, and how far out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAlert {
    /// The drifting module.
    pub module: u64,
    /// Simulated time of the triggering observation (s).
    pub at_s: f64,
    /// The raw residual, measured − predicted (W).
    pub residual_w: f64,
    /// Tracked residual mean at trigger time (W).
    pub mean_w: f64,
    /// The z-score that crossed the threshold.
    pub z: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct ModuleState {
    mean: f64,
    var: f64,
    seen: u32,
}

/// Per-module EWMA residual tracker.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftConfig,
    modules: Vec<ModuleState>,
    alerts_total: u64,
}

impl DriftDetector {
    /// A detector over `n` modules.
    pub fn new(n: usize, cfg: DriftConfig) -> Self {
        DriftDetector { cfg, modules: vec![ModuleState::default(); n], alerts_total: 0 }
    }

    /// Alerts raised over the detector's lifetime.
    pub fn alerts_total(&self) -> u64 {
        self.alerts_total
    }

    /// Feed one residual for `module` at simulated time `at_s`. Returns
    /// an alert if the residual sits outside the z-threshold *before*
    /// this observation is folded into the EWMA (so a step change alerts
    /// on its first sample, not after the mean has chased it).
    pub fn observe(&mut self, module: usize, at_s: f64, residual_w: f64) -> Option<DriftAlert> {
        if !residual_w.is_finite() {
            return None;
        }
        let cfg = self.cfg;
        let st = &mut self.modules[module];
        let mut alert = None;
        if st.seen >= cfg.warmup {
            let sigma = st.var.sqrt().max(cfg.min_sigma_w);
            let z = (residual_w - st.mean) / sigma;
            if z.abs() > cfg.z_threshold {
                alert = Some(DriftAlert {
                    module: module as u64,
                    at_s,
                    residual_w,
                    mean_w: st.mean,
                    z,
                });
                self.alerts_total += 1;
            }
        }
        if st.seen == 0 {
            st.mean = residual_w;
            st.var = 0.0;
        } else {
            // EW mean/variance recursion (West 1979 exponential form):
            // var absorbs the pre-update deviation, then the mean moves.
            let delta = residual_w - st.mean;
            st.var = (1.0 - cfg.lambda) * (st.var + cfg.lambda * delta * delta);
            st.mean += cfg.lambda * delta;
        }
        st.seen = st.seen.saturating_add(1);
        alert
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_residuals_never_alert() {
        let mut d = DriftDetector::new(4, DriftConfig::default());
        for step in 0..500 {
            for m in 0..4 {
                // constant per-module offset with tiny deterministic ripple
                let ripple = 1e-3 * ((step * 7 + m) % 5) as f64;
                assert!(d.observe(m, step as f64, 2.0 + m as f64 + ripple).is_none());
            }
        }
        assert_eq!(d.alerts_total(), 0);
    }

    #[test]
    fn step_change_alerts_on_first_drifted_sample() {
        let mut d = DriftDetector::new(1, DriftConfig::default());
        for step in 0..100 {
            assert!(d.observe(0, step as f64, 1.0).is_none());
        }
        // aging kicks in: +5 W residual, ten sigma-floors out
        let alert = d.observe(0, 100.0, 6.0).expect("step change must alert");
        assert_eq!(alert.module, 0);
        assert!((alert.residual_w - 6.0).abs() < 1e-12);
        assert!(alert.z > 4.0, "z = {}", alert.z);
        assert_eq!(d.alerts_total(), 1);
    }

    #[test]
    fn warmup_suppresses_early_alerts() {
        let cfg = DriftConfig { warmup: 16, ..DriftConfig::default() };
        let mut d = DriftDetector::new(1, cfg);
        // wildly different first samples: still no alerts during warmup
        for (i, r) in [0.0, 50.0, -30.0, 100.0, 0.0, 75.0].iter().enumerate() {
            assert!(d.observe(0, i as f64, *r).is_none(), "warmup sample {i} alerted");
        }
    }

    #[test]
    fn nonfinite_residuals_are_ignored() {
        let mut d = DriftDetector::new(1, DriftConfig::default());
        for step in 0..50 {
            d.observe(0, step as f64, 1.0);
        }
        assert!(d.observe(0, 50.0, f64::NAN).is_none());
        assert!(d.observe(0, 51.0, f64::INFINITY).is_none());
        // state untouched: the next sane sample does not alert
        assert!(d.observe(0, 52.0, 1.0).is_none());
    }

    #[test]
    fn slow_ramp_tracks_without_alerting_fast_jump_fires() {
        let cfg = DriftConfig::default();
        let mut d = DriftDetector::new(1, cfg);
        for step in 0..200 {
            // 0.002 W per step: far under min_sigma_w per EWMA window
            let r = 1.0 + 0.002 * step as f64;
            assert!(d.observe(0, step as f64, r).is_none(), "slow ramp alerted at {step}");
        }
        assert!(d.observe(0, 200.0, 20.0).is_some(), "jump after ramp must alert");
    }
}
