//! Online PVT re-calibration policies.
//!
//! The PVT is measured once at install time; a non-stationary fleet
//! walks away from it. [`RecalPolicy`] decides *when* to re-run the
//! sweep and [`Recalibrator`] drives
//! [`PowerVariationTable::recalibrate_modules`] over the modules a
//! [`crate::apply::ScenarioRuntime`] marked dirty — so only perturbed
//! silicon pays the re-measurement cost.

use vap_core::pvt::PowerVariationTable;
use vap_sim::cluster::Cluster;
use vap_workloads::spec::WorkloadSpec;

/// When the campaign re-runs the PVT sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecalPolicy {
    /// Never: the install-time PVT is trusted for the whole campaign
    /// (the paper's protocol — and the stale-table failure mode).
    Never,
    /// Re-sweep dirty modules on a fixed cadence.
    Periodic {
        /// Sweep interval (simulated seconds).
        every_s: f64,
    },
    /// Re-sweep when the online drift detector has fired since the last
    /// sweep (alert-driven; see `vap_obs::DriftDetector`).
    OnResidual,
}

impl RecalPolicy {
    /// Stable lowercase name (CLI/CSV vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            RecalPolicy::Never => "never",
            RecalPolicy::Periodic { .. } => "periodic",
            RecalPolicy::OnResidual => "on-residual",
        }
    }
}

impl std::fmt::Display for RecalPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecalPolicy::Periodic { every_s } => write!(f, "periodic({every_s}s)"),
            other => f.write_str(other.name()),
        }
    }
}

/// Drives one policy through a campaign: tracks the last sweep time and
/// counts sweeps performed.
#[derive(Debug, Clone)]
pub struct Recalibrator {
    policy: RecalPolicy,
    last_s: f64,
    /// Sweeps performed so far.
    pub recals: u64,
}

impl Recalibrator {
    /// Start a campaign at t = 0 with the policy.
    pub fn new(policy: RecalPolicy) -> Self {
        Recalibrator { policy, last_s: 0.0, recals: 0 }
    }

    /// Should a sweep run now? `fresh_alerts` is the number of drift
    /// alerts observed since the last sweep.
    pub fn due(&self, now_s: f64, fresh_alerts: u64) -> bool {
        match self.policy {
            RecalPolicy::Never => false,
            RecalPolicy::Periodic { every_s } => now_s - self.last_s >= every_s,
            RecalPolicy::OnResidual => fresh_alerts > 0,
        }
    }

    /// Run the sweep over `affected` modules and return the fresh table.
    /// Marks the sweep time whether or not `affected` is empty (the
    /// policy consumed its trigger either way).
    pub fn recalibrate(
        &mut self,
        now_s: f64,
        pvt: &PowerVariationTable,
        cluster: &mut Cluster,
        micro: &WorkloadSpec,
        affected: &[usize],
        seed: u64,
    ) -> PowerVariationTable {
        self.last_s = now_s;
        self.recals += 1;
        vap_obs::incr("scenario.recalibrations");
        pvt.recalibrate_modules(cluster, micro, affected, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::systems::SystemSpec;
    use vap_model::variability::DriftSkew;
    use vap_workloads::catalog;
    use vap_workloads::spec::WorkloadId;

    #[test]
    fn policies_trigger_on_their_own_signals() {
        let never = Recalibrator::new(RecalPolicy::Never);
        assert!(!never.due(1e9, 1000));

        let mut periodic = Recalibrator::new(RecalPolicy::Periodic { every_s: 600.0 });
        assert!(!periodic.due(599.0, 5), "period not elapsed — alerts don't matter");
        assert!(periodic.due(600.0, 0));
        periodic.last_s = 600.0;
        assert!(!periodic.due(900.0, 0));

        let residual = Recalibrator::new(RecalPolicy::OnResidual);
        assert!(!residual.due(1e9, 0), "no alerts, no sweep");
        assert!(residual.due(1.0, 1));
    }

    #[test]
    fn names_and_display_are_stable() {
        assert_eq!(RecalPolicy::Never.name(), "never");
        assert_eq!(RecalPolicy::Periodic { every_s: 600.0 }.name(), "periodic");
        assert_eq!(RecalPolicy::OnResidual.name(), "on-residual");
        assert_eq!(format!("{}", RecalPolicy::Periodic { every_s: 600.0 }), "periodic(600s)");
    }

    #[test]
    fn recalibrate_refreshes_drifted_entries() {
        let seed = 2015;
        let mut cluster = Cluster::with_size(SystemSpec::ha8k(), 6, seed);
        let micro = catalog::get(WorkloadId::Stream);
        let pvt = PowerVariationTable::generate(&mut cluster, &micro, seed);
        cluster.apply_drift(2, &DriftSkew { dynamic: 1.06, leakage: 1.25, dram: 1.05 });
        let mut rc = Recalibrator::new(RecalPolicy::OnResidual);
        let fresh = rc.recalibrate(100.0, &pvt, &mut cluster, &micro, &[2], seed);
        assert_eq!(rc.recals, 1);
        assert_eq!(fresh.len(), pvt.len());
        let stale = pvt.entry(2).expect("entry 2");
        let updated = fresh.entry(2).expect("entry 2");
        assert!(
            (updated.cpu_max - stale.cpu_max).abs() > 1e-9,
            "drifted module must re-measure: {} vs {}",
            updated.cpu_max,
            stale.cpu_max
        );
    }
}
