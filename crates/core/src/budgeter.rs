//! The end-to-end budgeting framework (paper Fig. 4).
//!
//! A [`Budgeter`] owns the once-per-system PVT and turns
//! (application, budget, module list) requests into [`PowerPlan`]s under
//! any of the six schemes, exposing the feasibility test that generates
//! Table 4 along the way.

use crate::error::BudgetError;
use crate::feasibility::Feasibility;
use crate::pmt::PowerModelTable;
use crate::pvt::PowerVariationTable;
use crate::schemes::{PlanRequest, PowerPlan, SchemeId};
use crate::testrun::single_module_test_run;
use vap_model::units::Watts;
use vap_sim::cluster::Cluster;
use vap_workloads::catalog;
use vap_workloads::spec::{WorkloadId, WorkloadSpec};

/// The variation-aware power budgeting framework.
#[derive(Debug, Clone)]
pub struct Budgeter {
    pvt: PowerVariationTable,
    seed: u64,
}

impl Budgeter {
    /// Install-time setup: generate the PVT by sweeping the fleet with the
    /// *STREAM microbenchmark (the paper's choice — "it exhibited both
    /// memory and CPU boundedness").
    pub fn install(cluster: &mut Cluster, seed: u64) -> Self {
        Self::install_with_threads(cluster, seed, 1)
    }

    /// [`Budgeter::install`] with the PVT sweep fanned over `threads` OS
    /// threads. The resulting PVT — and therefore every plan — is
    /// identical at any thread count.
    pub fn install_with_threads(cluster: &mut Cluster, seed: u64, threads: usize) -> Self {
        let micro = catalog::get(WorkloadId::Stream);
        let pvt = PowerVariationTable::generate_with_threads(cluster, &micro, seed, threads);
        Budgeter { pvt, seed }
    }

    /// Adopt a previously generated (e.g. persisted) PVT.
    pub fn with_pvt(pvt: PowerVariationTable, seed: u64) -> Self {
        Budgeter { pvt, seed }
    }

    /// The system PVT.
    pub fn pvt(&self) -> &PowerVariationTable {
        &self.pvt
    }

    /// Produce a plan for `workload` under `budget` on `module_ids` with
    /// `scheme`.
    pub fn plan(
        &self,
        cluster: &mut Cluster,
        scheme: SchemeId,
        workload: &WorkloadSpec,
        budget: Watts,
        module_ids: &[usize],
    ) -> Result<PowerPlan, BudgetError> {
        let req = PlanRequest { budget, module_ids, workload, pvt: &self.pvt, seed: self.seed };
        scheme.plan(cluster, &req)
    }

    /// The application's calibrated PMT (test run on `module_ids[0]` plus
    /// PVT scaling) — the model every prediction-based decision uses.
    pub fn calibrated_pmt(
        &self,
        cluster: &mut Cluster,
        workload: &WorkloadSpec,
        module_ids: &[usize],
    ) -> Result<PowerModelTable, BudgetError> {
        if module_ids.is_empty() {
            return Err(BudgetError::NoModules);
        }
        let test = single_module_test_run(cluster, module_ids[0], workload, self.seed);
        PowerModelTable::calibrate(&self.pvt, &test, module_ids)
    }

    /// Classify a budget for Table 4 (from the application's predicted
    /// power profile, as the paper did offline).
    pub fn feasibility(
        &self,
        cluster: &mut Cluster,
        workload: &WorkloadSpec,
        budget: Watts,
        module_ids: &[usize],
    ) -> Result<Feasibility, BudgetError> {
        let pmt = self.calibrated_pmt(cluster, workload, module_ids)?;
        Ok(Feasibility::classify(budget, &pmt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::systems::SystemSpec;

    const SEED: u64 = 31;

    fn setup(n: usize) -> (Cluster, Budgeter) {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), n, SEED);
        let b = Budgeter::install(&mut c, SEED);
        (c, b)
    }

    #[test]
    fn install_generates_stream_pvt() {
        let (c, b) = setup(12);
        assert_eq!(b.pvt().microbenchmark, "*STREAM");
        assert_eq!(b.pvt().len(), c.len());
    }

    #[test]
    fn pvt_round_trips_through_persistence() {
        let (_, b) = setup(6);
        let json = b.pvt().to_json();
        let b2 = Budgeter::with_pvt(PowerVariationTable::from_json(&json).unwrap(), SEED);
        assert_eq!(b.pvt(), b2.pvt());
    }

    #[test]
    fn feasibility_tracks_table4_regimes() {
        let (mut c, b) = setup(16);
        let mhd = catalog::get(WorkloadId::Mhd);
        let ids: Vec<usize> = (0..16).collect();
        // MHD: • at Cm=110, X in the middle band, – at Cm=50
        let f110 = b.feasibility(&mut c, &mhd, Watts(110.0 * 16.0), &ids).unwrap();
        let f80 = b.feasibility(&mut c, &mhd, Watts(80.0 * 16.0), &ids).unwrap();
        let f50 = b.feasibility(&mut c, &mhd, Watts(50.0 * 16.0), &ids).unwrap();
        assert_eq!(f110, Feasibility::NotConstrained);
        assert_eq!(f80, Feasibility::Constrained);
        assert_eq!(f50, Feasibility::Infeasible);
    }

    #[test]
    fn plans_are_produced_for_all_schemes() {
        let (mut c, b) = setup(12);
        let w = catalog::get(WorkloadId::Sp);
        let ids: Vec<usize> = (0..12).collect();
        for scheme in SchemeId::ALL {
            let plan = b.plan(&mut c, scheme, &w, Watts(80.0 * 12.0), &ids).unwrap();
            assert_eq!(plan.scheme, scheme);
            assert_eq!(plan.allocations.len(), 12);
        }
    }

    #[test]
    fn subset_allocation_plans_only_those_modules() {
        let (mut c, b) = setup(16);
        let w = catalog::get(WorkloadId::Mvmc);
        let ids = [2usize, 5, 9, 14];
        let plan = b.plan(&mut c, SchemeId::VaPc, &w, Watts(4.0 * 85.0), &ids).unwrap();
        let planned: Vec<usize> = plan.allocations.iter().map(|a| a.module_id).collect();
        assert_eq!(planned, ids);
    }
}
