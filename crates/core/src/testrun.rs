//! Single-module application test runs.
//!
//! Step 2 of the framework (paper §5): "We conduct two low-cost,
//! single-module test runs of the application, one at the maximum CPU
//! frequency and the other at the minimum CPU frequency, and measure the
//! CPU and DRAM power." The measurements go through the RAPL energy
//! counters exactly as a `libMSR`-based tool would take them.

use vap_model::units::{GigaHertz, Seconds, Watts};
use vap_sim::cluster::Cluster;
use vap_sim::cpufreq::Governor;
use vap_sim::measurement::RaplEnergyMeter;
use vap_workloads::spec::WorkloadSpec;

/// Power measured on one module at the two anchor frequencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestRunResult {
    /// The module the test ran on.
    pub module_id: usize,
    /// Maximum-frequency anchor.
    pub f_max: GigaHertz,
    /// Minimum-frequency anchor.
    pub f_min: GigaHertz,
    /// CPU power at `f_max`.
    pub cpu_max: Watts,
    /// CPU power at `f_min`.
    pub cpu_min: Watts,
    /// DRAM power at `f_max`.
    pub dram_max: Watts,
    /// DRAM power at `f_min`.
    pub dram_min: Watts,
}

impl TestRunResult {
    /// Module (CPU+DRAM) power at `f_max`.
    pub fn module_max(&self) -> Watts {
        self.cpu_max + self.dram_max
    }
}

/// Measure one module's `(cpu, dram)` average power while pinned at `f`
/// with its current workload, via the RAPL energy counters. The module is
/// left uncapped on the performance governor.
///
/// [`vap_sim::cluster::ModuleView::measure_anchors`] is the read-only form
/// the PVT sweep fans over the fleet: same protocol, same reading, but on
/// local copies of the counters.
pub fn measure_module_at(cluster: &mut Cluster, module_id: usize, f: GigaHertz) -> (Watts, Watts) {
    cluster.clear_cap(module_id);
    cluster.set_governor(module_id, Governor::Userspace(f));
    let meter = RaplEnergyMeter::begin(cluster.module(module_id));
    // 100 ms of steady execution, stepped at the RAPL reporting interval.
    let dt = Seconds::from_millis(10.0);
    for _ in 0..10 {
        cluster.step(module_id, dt);
    }
    let powers = meter.end(cluster.module(module_id), Seconds(0.1));
    cluster.set_governor(module_id, Governor::Performance);
    powers
}

/// Run the application's single-module test: put the workload on the
/// module, measure at `f_max` and `f_min`.
///
/// The workload's activity and workload-specific fingerprint are installed
/// on the test module (it is genuinely *running* the application), and the
/// module is restored to idle afterwards.
pub fn single_module_test_run(
    cluster: &mut Cluster,
    module_id: usize,
    workload: &WorkloadSpec,
    seed: u64,
) -> TestRunResult {
    vap_obs::incr("calib.test_runs");
    let f_max = cluster.spec().pstates.f_max();
    let f_min = cluster.spec().pstates.f_min();
    // Install the application on the test module only.
    let wv = workload.workload_variation(cluster.module(module_id).base_variation(), seed);
    cluster.set_workload_variation(module_id, Some(wv));
    cluster.set_activity(module_id, workload.activity);
    let (cpu_max, dram_max) = measure_module_at(cluster, module_id, f_max);
    let (cpu_min, dram_min) = measure_module_at(cluster, module_id, f_min);
    // Restore the module.
    cluster.set_workload_variation(module_id, None);
    cluster.set_activity(module_id, vap_model::power::PowerActivity::IDLE);
    TestRunResult { module_id, f_max, f_min, cpu_max, cpu_min, dram_max, dram_min }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::systems::SystemSpec;
    use vap_workloads::catalog;
    use vap_workloads::spec::WorkloadId;

    fn cluster() -> Cluster {
        Cluster::with_size(SystemSpec::ha8k(), 16, 77)
    }

    #[test]
    fn test_run_measures_paper_scale_powers() {
        let mut c = cluster();
        let dgemm = catalog::get(WorkloadId::Dgemm);
        let r = single_module_test_run(&mut c, 0, &dgemm, 1);
        // nominal-ish module: near the Fig. 2(i) averages, with this
        // module's manufacturing offset
        assert!((r.cpu_max.value() - 100.8).abs() < 12.0, "cpu_max {}", r.cpu_max);
        assert!((r.dram_max.value() - 12.0).abs() < 6.0, "dram_max {}", r.dram_max);
        assert!(r.cpu_min < r.cpu_max);
        assert!(r.dram_min < r.dram_max);
        assert_eq!(r.f_max, GigaHertz(2.7));
        assert_eq!(r.f_min, GigaHertz(1.2));
        assert!(r.module_max() > r.cpu_min + r.dram_min);
    }

    #[test]
    fn module_is_restored_after_test() {
        let mut c = cluster();
        let before = c.module(3).module_power();
        let _ = single_module_test_run(&mut c, 3, &catalog::get(WorkloadId::Mhd), 1);
        let after = c.module(3).module_power();
        assert!((before.value() - after.value()).abs() < 1e-9);
        assert!(c.module(3).cap().is_none());
    }

    #[test]
    fn different_modules_measure_different_power() {
        let mut c = cluster();
        let dgemm = catalog::get(WorkloadId::Dgemm);
        let a = single_module_test_run(&mut c, 0, &dgemm, 1);
        let b = single_module_test_run(&mut c, 1, &dgemm, 1);
        assert_ne!(a.cpu_max, b.cpu_max, "manufacturing variability should show");
    }

    #[test]
    fn anchor_measurement_agrees_with_the_in_place_meter_and_leaves_module_untouched() {
        let mut c = cluster();
        catalog::get(WorkloadId::Dgemm).apply_to(&mut c, 3);
        let f = c.spec().pstates.f_max();
        let counters = |c: &Cluster| (c.module(2).pkg_counter(), c.module(2).dram_counter());
        let counters_before = counters(&c);
        let anchors = c.module(2).measure_anchors(f);
        // read-only: the real module's energy counters did not advance
        assert_eq!(counters(&c), counters_before);
        // same starting state, same stepping → same reading as the
        // in-place measurement
        let in_place = measure_module_at(&mut c, 2, f);
        assert_eq!(anchors, in_place);
    }

    #[test]
    fn measurement_matches_ground_truth() {
        let mut c = cluster();
        let mhd = catalog::get(WorkloadId::Mhd);
        let r = single_module_test_run(&mut c, 5, &mhd, 9);
        // reproduce ground truth by hand
        let m = c.module(5);
        let wv = mhd.workload_variation(&m.base_variation().clone(), 9);
        let truth = m.power_model().cpu_power(GigaHertz(2.7), mhd.activity, &wv, 1.0);
        assert!((r.cpu_max.value() - truth.value()).abs() < 0.05, "{} vs {truth}", r.cpu_max);
    }
}
