//! Extensions beyond the paper's core: multi-PVT selection and dynamic
//! (per-phase) power reallocation.
//!
//! Both are flagged by the paper itself. §6.1: "An approach to improve the
//! prediction accuracy is to use micro-benchmarks with different
//! characteristics to generate several PVTs, and then choose a suitable
//! PVT based on the test runs." §7: "We also want \[to\] explore dynamic
//! reallocation of power within and between HPC applications by analyzing
//! their phase behavior."

use crate::alpha::{allocations, max_alpha};
use crate::error::BudgetError;
use crate::pmt::PowerModelTable;
use crate::pvt::PowerVariationTable;
use crate::schemes::{ControlKind, PowerPlan, SchemeId};
use crate::testrun::single_module_test_run;
use vap_model::units::Watts;
use vap_sim::cluster::Cluster;
use vap_workloads::spec::{WorkloadId, WorkloadSpec};

/// A set of PVTs generated from microbenchmarks with different
/// characteristics.
#[derive(Debug, Clone)]
pub struct MultiPvt {
    tables: Vec<(WorkloadId, PowerVariationTable)>,
}

impl MultiPvt {
    /// Generate one PVT per microbenchmark (install-time, like the single
    /// PVT but ×|micros| cost).
    pub fn generate(cluster: &mut Cluster, micros: &[WorkloadSpec], seed: u64) -> Self {
        assert!(!micros.is_empty(), "need at least one microbenchmark");
        let tables = micros
            .iter()
            .map(|m| (m.id, PowerVariationTable::generate(cluster, m, seed)))
            .collect();
        MultiPvt { tables }
    }

    /// Number of tables held.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether no tables are held.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The table generated from a specific microbenchmark.
    pub fn table(&self, micro: WorkloadId) -> Option<&PowerVariationTable> {
        self.tables.iter().find(|(id, _)| *id == micro).map(|(_, t)| t)
    }

    /// Choose the PVT that predicts `workload` best: calibrate against a
    /// test run on `module_ids[0]`, then score each candidate by its
    /// prediction error on a few extra *validation* test runs (cheap —
    /// a handful of single-module runs, not a fleet sweep).
    ///
    /// Returns `(microbenchmark, validation MAPE %)` of the winner.
    pub fn select(
        &self,
        cluster: &mut Cluster,
        workload: &WorkloadSpec,
        module_ids: &[usize],
        validation_ids: &[usize],
        seed: u64,
    ) -> Result<(WorkloadId, f64), BudgetError> {
        if module_ids.is_empty() || validation_ids.is_empty() {
            return Err(BudgetError::NoModules);
        }
        let test = single_module_test_run(cluster, module_ids[0], workload, seed);
        // measure the validation modules once (shared across candidates)
        let truth: Vec<_> = validation_ids
            .iter()
            .map(|&id| single_module_test_run(cluster, id, workload, seed))
            .collect();

        let mut best: Option<(WorkloadId, f64)> = None;
        for (micro, pvt) in &self.tables {
            let pmt = PowerModelTable::calibrate(pvt, &test, validation_ids)?;
            let mut err_acc = 0.0;
            for (e, t) in pmt.entries().iter().zip(&truth) {
                let predicted = e.module().p_max.value();
                let observed = t.module_max().value();
                err_acc += ((predicted - observed) / observed).abs();
            }
            let mape = err_acc / truth.len() as f64 * 100.0;
            if best.is_none_or(|(_, b)| mape < b) {
                best = Some((*micro, mape));
            }
        }
        // `generate` guarantees at least one table, so this only fires for
        // a hand-built empty MultiPvt — report it as an empty selection.
        best.ok_or(BudgetError::NoModules)
    }
}

/// Per-phase re-budgeting: for each phase, re-solve α against a PMT scaled
/// to that phase's activity, instead of planning once for the worst phase.
///
/// `phase_pmts` carries one calibrated PMT per phase (from per-phase test
/// runs — the paper's PMMDs would delimit phases in the instrumented
/// binary). Returns one plan per phase; each respects the same budget, so
/// low-power phases run at higher frequency instead of wasting headroom.
pub fn per_phase_plans(
    budget: Watts,
    phase_pmts: &[PowerModelTable],
) -> Result<Vec<PowerPlan>, BudgetError> {
    if phase_pmts.is_empty() {
        return Err(BudgetError::NoModules);
    }
    phase_pmts
        .iter()
        .map(|pmt| {
            let alpha = max_alpha(budget, pmt)?;
            Ok(PowerPlan {
                scheme: SchemeId::VaPc,
                alpha,
                allocations: allocations(pmt, alpha),
                control: ControlKind::PowerCapping,
                budget,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::systems::SystemSpec;
    use vap_workloads::catalog;

    const SEED: u64 = 41;

    #[test]
    fn multi_pvt_holds_one_table_per_micro() {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), 12, SEED);
        let micros = vec![catalog::get(WorkloadId::Stream), catalog::get(WorkloadId::Ep)];
        let multi = MultiPvt::generate(&mut c, &micros, SEED);
        assert_eq!(multi.len(), 2);
        assert!(multi.table(WorkloadId::Stream).is_some());
        assert!(multi.table(WorkloadId::Ep).is_some());
        assert!(multi.table(WorkloadId::Bt).is_none());
        assert!(!multi.is_empty());
    }

    #[test]
    fn selection_returns_a_candidate_with_finite_error() {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), 24, SEED);
        let micros = vec![catalog::get(WorkloadId::Stream), catalog::get(WorkloadId::Ep)];
        let multi = MultiPvt::generate(&mut c, &micros, SEED);
        let ids: Vec<usize> = (0..24).collect();
        let bt = catalog::get(WorkloadId::Bt);
        let (winner, err) = multi.select(&mut c, &bt, &ids, &[5, 11, 17], SEED).unwrap();
        assert!(micros.iter().any(|m| m.id == winner));
        assert!(err.is_finite() && err >= 0.0);
    }

    #[test]
    fn faithful_workload_selects_its_own_microbenchmark() {
        // STREAM predicted with the STREAM PVT should beat the EP PVT.
        let mut c = Cluster::with_size(SystemSpec::ha8k(), 24, SEED);
        let micros = vec![catalog::get(WorkloadId::Stream), catalog::get(WorkloadId::Ep)];
        let multi = MultiPvt::generate(&mut c, &micros, SEED);
        let ids: Vec<usize> = (0..24).collect();
        let stream = catalog::get(WorkloadId::Stream);
        let (winner, err) = multi.select(&mut c, &stream, &ids, &[3, 9, 20], SEED).unwrap();
        assert_eq!(winner, WorkloadId::Stream);
        assert!(err < 1.0, "self-prediction should be near-exact, err = {err}%");
    }

    #[test]
    fn per_phase_replanning_gives_low_power_phases_more_frequency() {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), 8, SEED);
        let ids: Vec<usize> = (0..8).collect();
        // phase A: DGEMM-like (hot); phase B: mVMC-like (cooler)
        let hot = catalog::get(WorkloadId::Dgemm);
        let cool = catalog::get(WorkloadId::Mvmc);
        let pvt = PowerVariationTable::generate(&mut c, &catalog::get(WorkloadId::Stream), SEED);
        let t_hot = single_module_test_run(&mut c, 0, &hot, SEED);
        let t_cool = single_module_test_run(&mut c, 0, &cool, SEED);
        let pmt_hot = PowerModelTable::calibrate(&pvt, &t_hot, &ids).unwrap();
        let pmt_cool = PowerModelTable::calibrate(&pvt, &t_cool, &ids).unwrap();

        let budget = Watts(8.0 * 80.0);
        let plans = per_phase_plans(budget, &[pmt_hot, pmt_cool]).unwrap();
        assert_eq!(plans.len(), 2);
        // the cool phase affords a higher common frequency under the same
        // budget — the benefit of dynamic reallocation
        assert!(plans[1].allocations[0].frequency > plans[0].allocations[0].frequency);
        for p in &plans {
            assert!(p.total_allocated() <= budget + Watts(1e-6));
        }
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(per_phase_plans(Watts(100.0), &[]).is_err());
    }
}
