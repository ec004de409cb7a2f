//! The application-dependent Power Model Table (PMT) and its calibration.
//!
//! Step 3 of the framework (paper §5.2, Fig. 6): combine the
//! application-independent PVT with the two single-module test runs to
//! predict, for *every* module, the application's CPU and DRAM power at
//! `f_max` and `f_min`:
//!
//! 1. Divide the test-run measurements by the test module's PVT scales →
//!    system-level average power for this application.
//! 2. Multiply the averages by each module's PVT scales → that module's
//!    predicted anchors.
//!
//! The same type also represents the evaluation's other model variants:
//! the **oracle** PMT (measure every module — `VaPcOr`/`VaFsOr`), the
//! **uniform** PMT (fleet averages on every module — `Pc`), and the
//! **TDP-based** PMT (the `Naive` baseline).

use crate::error::BudgetError;
use crate::pvt::PowerVariationTable;
use crate::testrun::{single_module_test_run, TestRunResult};
use vap_model::linear::TwoPointModel;
use vap_model::units::{GigaHertz, Watts};
use vap_sim::cluster::Cluster;
use vap_stats::regression::mean_absolute_percentage_error;
use vap_workloads::spec::WorkloadSpec;

/// One module's predicted power model: a two-point linear model per domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmtEntry {
    /// The module this entry predicts.
    pub module_id: usize,
    /// CPU-domain model.
    pub cpu: TwoPointModel,
    /// DRAM-domain model.
    pub dram: TwoPointModel,
}

impl PmtEntry {
    /// The module-level (CPU+DRAM) model — Eq. 4.
    pub fn module(&self) -> TwoPointModel {
        TwoPointModel::combine(&self.cpu, &self.dram)
    }
}

/// An application's Power Model Table over a module list.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModelTable {
    entries: Vec<PmtEntry>,
}

impl PowerModelTable {
    /// A table over explicit entries (hand-built fixtures, replayed
    /// calibrations).
    pub fn from_entries(entries: Vec<PmtEntry>) -> Self {
        PowerModelTable { entries }
    }

    /// Calibrate from a PVT and one test run (the paper's prediction
    /// path): entries are produced for `module_ids` in order.
    pub fn calibrate(
        pvt: &PowerVariationTable,
        test: &TestRunResult,
        module_ids: &[usize],
    ) -> Result<Self, BudgetError> {
        if module_ids.is_empty() {
            return Err(BudgetError::NoModules);
        }
        let test_scales = pvt
            .entry(test.module_id)
            .ok_or(BudgetError::UnknownModule { module_id: test.module_id })?;
        // Step 1: system-level averages — divide by the test module's
        // scales (Fig. 6: 120 W measured / 1.2 scale → 100 W average).
        let avg_cpu_max = test.cpu_max.value() / test_scales.cpu_max;
        let avg_cpu_min = test.cpu_min.value() / test_scales.cpu_min;
        let avg_dram_max = test.dram_max.value() / test_scales.dram_max;
        let avg_dram_min = test.dram_min.value() / test_scales.dram_min;

        // Step 2: per-module prediction — multiply by each module's scales.
        let mut entries = Vec::with_capacity(module_ids.len());
        for &id in module_ids {
            let s = pvt.entry(id).ok_or(BudgetError::UnknownModule { module_id: id })?;
            entries.push(PmtEntry {
                module_id: id,
                cpu: TwoPointModel::new(
                    test.f_max,
                    test.f_min,
                    Watts(avg_cpu_max * s.cpu_max),
                    Watts(avg_cpu_min * s.cpu_min),
                ),
                dram: TwoPointModel::new(
                    test.f_max,
                    test.f_min,
                    Watts(avg_dram_max * s.dram_max),
                    Watts(avg_dram_min * s.dram_min),
                ),
            });
        }
        Ok(PowerModelTable { entries })
    }

    /// The oracle PMT: run the application's test on *every* module — the
    /// "complete execution of the HPC application on all modules" behind
    /// `VaPcOr`/`VaFsOr`. Impractical on a real system; the evaluation's
    /// upper bound here.
    pub fn oracle(
        cluster: &mut Cluster,
        workload: &WorkloadSpec,
        module_ids: &[usize],
        seed: u64,
    ) -> Result<Self, BudgetError> {
        if module_ids.is_empty() {
            return Err(BudgetError::NoModules);
        }
        let mut entries = Vec::with_capacity(module_ids.len());
        for &id in module_ids {
            let t = single_module_test_run(cluster, id, workload, seed);
            entries.push(PmtEntry {
                module_id: id,
                cpu: TwoPointModel::new(t.f_max, t.f_min, t.cpu_max, t.cpu_min),
                dram: TwoPointModel::new(t.f_max, t.f_min, t.dram_max, t.dram_min),
            });
        }
        Ok(PowerModelTable { entries })
    }

    /// The variation-unaware, application-dependent PMT (`Pc`): every
    /// module gets this table's fleet-average entry.
    pub fn uniform_average(&self) -> Self {
        let n = self.entries.len() as f64;
        let f_max = self.entries[0].cpu.f_max;
        let f_min = self.entries[0].cpu.f_min;
        let mut sums = [0.0f64; 4];
        for e in &self.entries {
            sums[0] += e.cpu.p_max.value();
            sums[1] += e.cpu.p_min.value();
            sums[2] += e.dram.p_max.value();
            sums[3] += e.dram.p_min.value();
        }
        let cpu = TwoPointModel::new(f_max, f_min, Watts(sums[0] / n), Watts(sums[1] / n));
        let dram = TwoPointModel::new(f_max, f_min, Watts(sums[2] / n), Watts(sums[3] / n));
        PowerModelTable {
            entries: self
                .entries
                .iter()
                .map(|e| PmtEntry { module_id: e.module_id, cpu, dram })
                .collect(),
        }
    }

    /// The `Naive` PMT: application-independent, variation-unaware. Max
    /// anchors are the TDP values, min anchors the empirical floor (the
    /// paper uses CPU 130 / DRAM 62 / CPU-min 40 / DRAM-min 10 W on HA8K).
    pub fn naive(
        module_ids: &[usize],
        f_max: GigaHertz,
        f_min: GigaHertz,
        cpu_tdp: Watts,
        dram_tdp: Watts,
        cpu_floor: Watts,
        dram_floor: Watts,
    ) -> Self {
        let cpu = TwoPointModel::new(f_max, f_min, cpu_tdp, cpu_floor);
        let dram = TwoPointModel::new(f_max, f_min, dram_tdp, dram_floor);
        PowerModelTable {
            entries: module_ids.iter().map(|&id| PmtEntry { module_id: id, cpu, dram }).collect(),
        }
    }

    /// Number of modules covered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in module-list order.
    pub fn entries(&self) -> &[PmtEntry] {
        &self.entries
    }

    /// Σ of predicted minimum module power (the feasibility floor and the
    /// numerator offset of Eq. 6).
    pub fn fleet_minimum(&self) -> Watts {
        self.entries.iter().map(|e| e.module().p_min).sum()
    }

    /// Σ of predicted maximum module power (where α saturates at 1).
    pub fn fleet_maximum(&self) -> Watts {
        self.entries.iter().map(|e| e.module().p_max).sum()
    }

    /// Mean absolute percentage error of this table's module-power
    /// predictions at `f_max` against an oracle table (Fig. 6's accuracy
    /// metric: "under 5%" for most benchmarks, ≈10% for NPB-BT).
    pub fn prediction_error_vs(&self, oracle: &PowerModelTable) -> Option<f64> {
        if self.len() != oracle.len() {
            return None;
        }
        let predicted: Vec<f64> = self.entries.iter().map(|e| e.module().p_max.value()).collect();
        let observed: Vec<f64> = oracle.entries.iter().map(|e| e.module().p_max.value()).collect();
        mean_absolute_percentage_error(&predicted, &observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::systems::SystemSpec;
    use vap_workloads::catalog;
    use vap_workloads::spec::WorkloadId;

    fn setup(n: usize) -> (Cluster, PowerVariationTable) {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), n, 13);
        let pvt = PowerVariationTable::generate(&mut c, &catalog::get(WorkloadId::Stream), 13);
        (c, pvt)
    }

    #[test]
    fn calibration_reproduces_figure6_arithmetic() {
        let (mut c, pvt) = setup(32);
        let dgemm = catalog::get(WorkloadId::Dgemm);
        let ids: Vec<usize> = (0..32).collect();
        let test = single_module_test_run(&mut c, 4, &dgemm, 13);
        let pmt = PowerModelTable::calibrate(&pvt, &test, &ids).unwrap();
        // the test module's own prediction must closely match its measured
        // power (same scales divided back in)
        let own = pmt.entries.iter().find(|e| e.module_id == 4).unwrap();
        assert!((own.cpu.p_max.value() - test.cpu_max.value()).abs() < 1e-6);
        assert!((own.dram.p_min.value() - test.dram_min.value()).abs() < 1e-6);
    }

    #[test]
    fn calibrated_pmt_is_accurate_for_faithful_workloads() {
        let (mut c, pvt) = setup(48);
        let ids: Vec<usize> = (0..48).collect();
        let dgemm = catalog::get(WorkloadId::Dgemm);
        let test = single_module_test_run(&mut c, 0, &dgemm, 13);
        let pmt = PowerModelTable::calibrate(&pvt, &test, &ids).unwrap();
        let oracle = PowerModelTable::oracle(&mut c, &dgemm, &ids, 13).unwrap();
        let err = pmt.prediction_error_vs(&oracle).unwrap();
        assert!(err < 5.0, "DGEMM calibration error {err}% (paper: <5%)");
    }

    #[test]
    fn bt_calibrates_worse_than_sp() {
        // Fig. 6 / §5.3: NPB-BT is the prediction-accuracy outlier.
        let (mut c, pvt) = setup(64);
        let ids: Vec<usize> = (0..64).collect();
        let mut errs = std::collections::BTreeMap::new();
        for id in [WorkloadId::Bt, WorkloadId::Sp] {
            let w = catalog::get(id);
            let test = single_module_test_run(&mut c, 0, &w, 13);
            let pmt = PowerModelTable::calibrate(&pvt, &test, &ids).unwrap();
            let oracle = PowerModelTable::oracle(&mut c, &w, &ids, 13).unwrap();
            errs.insert(id, pmt.prediction_error_vs(&oracle).unwrap());
        }
        assert!(
            errs[&WorkloadId::Bt] > errs[&WorkloadId::Sp],
            "BT ({:.2}%) should calibrate worse than SP ({:.2}%)",
            errs[&WorkloadId::Bt],
            errs[&WorkloadId::Sp]
        );
    }

    #[test]
    fn uniform_average_flattens_variation() {
        let (mut c, pvt) = setup(16);
        let ids: Vec<usize> = (0..16).collect();
        let mhd = catalog::get(WorkloadId::Mhd);
        let test = single_module_test_run(&mut c, 2, &mhd, 13);
        let pmt = PowerModelTable::calibrate(&pvt, &test, &ids).unwrap();
        let flat = pmt.uniform_average();
        let first = flat.entries()[0];
        for e in flat.entries() {
            assert_eq!(e.cpu, first.cpu);
            assert_eq!(e.dram, first.dram);
        }
        // totals preserved
        assert!((flat.fleet_maximum().value() - pmt.fleet_maximum().value()).abs() < 1e-6);
        assert!((flat.fleet_minimum().value() - pmt.fleet_minimum().value()).abs() < 1e-6);
    }

    #[test]
    fn naive_pmt_uses_tdp_anchors() {
        let ids = [0, 1, 2];
        let pmt = PowerModelTable::naive(
            &ids,
            GigaHertz(2.7),
            GigaHertz(1.2),
            Watts(130.0),
            Watts(62.0),
            Watts(40.0),
            Watts(10.0),
        );
        assert_eq!(pmt.len(), 3);
        let m = pmt.entries()[0].module();
        assert_eq!(m.p_max, Watts(192.0));
        assert_eq!(m.p_min, Watts(50.0));
        assert_eq!(pmt.fleet_minimum(), Watts(150.0));
    }

    #[test]
    fn errors_surface_for_bad_inputs() {
        let (mut c, pvt) = setup(8);
        let dgemm = catalog::get(WorkloadId::Dgemm);
        let test = single_module_test_run(&mut c, 0, &dgemm, 13);
        assert_eq!(PowerModelTable::calibrate(&pvt, &test, &[]), Err(BudgetError::NoModules));
        assert_eq!(
            PowerModelTable::calibrate(&pvt, &test, &[99]),
            Err(BudgetError::UnknownModule { module_id: 99 })
        );
        assert_eq!(PowerModelTable::oracle(&mut c, &dgemm, &[], 13), Err(BudgetError::NoModules));
    }

    #[test]
    fn subset_module_lists_are_respected() {
        let (mut c, pvt) = setup(16);
        let mhd = catalog::get(WorkloadId::Mhd);
        let test = single_module_test_run(&mut c, 3, &mhd, 13);
        let ids = [3usize, 7, 11];
        let pmt = PowerModelTable::calibrate(&pvt, &test, &ids).unwrap();
        assert_eq!(pmt.len(), 3);
        let ids: Vec<usize> = pmt.entries.iter().map(|e| e.module_id).collect();
        assert_eq!(ids, [3, 7, 11]);
    }
}
