//! The six power budgeting schemes of the evaluation (paper §6).
//!
//! | Scheme | App-dependent | Variation-aware | Control |
//! |---|---|---|---|
//! | `Naive`  | no (TDP-based PMT)      | no  | RAPL capping |
//! | `Pc`     | yes (fleet-average PMT) | no  | RAPL capping |
//! | `VaPc`   | yes (calibrated PMT)    | yes | RAPL capping |
//! | `VaPcOr` | yes (oracle PMT)        | yes | RAPL capping |
//! | `VaFs`   | yes (calibrated PMT)    | yes | frequency selection |
//! | `VaFsOr` | yes (oracle frequency)  | yes | frequency selection |
//!
//! PC "attempts to indirectly control the CPU frequency by directly
//! limiting the CPU power consumption ... it is guaranteed that PC will
//! never exceed the CPU power constraint". FS "directly applies the
//! determined CPU frequency by using cpufrequtils, and indirectly manages
//! power ... it has the potential to violate the derived CPU power cap"
//! (§5.3).

use crate::alpha::{allocations, max_alpha, ModuleAllocation};
use crate::error::BudgetError;
use crate::pmt::PowerModelTable;
use crate::pvt::PowerVariationTable;
use crate::testrun::single_module_test_run;
use vap_model::linear::Alpha;
use vap_model::units::Watts;
use vap_sim::cluster::Cluster;
use vap_sim::cpufreq::Governor;
use vap_sim::rapl::RaplLimit;
use vap_workloads::spec::WorkloadSpec;

/// The empirical CPU power floor the Naive scheme assumes: "rapid
/// degradation in performance occurs when the power allocated to the CPU
/// goes below the threshold of 40 W" (§6).
pub const NAIVE_CPU_FLOOR: Watts = Watts(40.0);
/// The DRAM power the Naive scheme assumes at the floor (§6: 10 W).
pub const NAIVE_DRAM_FLOOR: Watts = Watts(10.0);

/// Which budgeting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeId {
    /// Application-independent, variation-unaware uniform capping.
    Naive,
    /// Application-dependent, variation-unaware uniform capping.
    Pc,
    /// Variation-aware per-module capping (the contribution, PC flavor).
    VaPc,
    /// `VaPc` with oracle (exhaustively measured) calibration.
    VaPcOr,
    /// Variation-aware common-frequency selection (the contribution, FS
    /// flavor).
    VaFs,
    /// `VaFs` with oracle frequency calibration.
    VaFsOr,
}

impl SchemeId {
    /// All six schemes, in the paper's legend order.
    pub const ALL: [SchemeId; 6] = [
        SchemeId::Naive,
        SchemeId::Pc,
        SchemeId::VaPcOr,
        SchemeId::VaPc,
        SchemeId::VaFsOr,
        SchemeId::VaFs,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SchemeId::Naive => "Naive",
            SchemeId::Pc => "Pc",
            SchemeId::VaPc => "VaPc",
            SchemeId::VaPcOr => "VaPcOr",
            SchemeId::VaFs => "VaFs",
            SchemeId::VaFsOr => "VaFsOr",
        }
    }

    /// The control mechanism the scheme applies with.
    pub fn control(self) -> ControlKind {
        match self {
            SchemeId::VaFs | SchemeId::VaFsOr => ControlKind::FrequencySelection,
            _ => ControlKind::PowerCapping,
        }
    }
}

impl std::fmt::Display for SchemeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a plan is enforced on hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlKind {
    /// Program per-module RAPL caps (PC).
    PowerCapping,
    /// Pin per-module frequencies via the userspace governor (FS).
    FrequencySelection,
}

/// A complete power plan: the solved α and the per-module allocations,
/// plus how to enforce them.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerPlan {
    /// The scheme that produced this plan.
    pub scheme: SchemeId,
    /// The solved power-performance coefficient.
    pub alpha: Alpha,
    /// Per-module allocations, in module-list order.
    pub allocations: Vec<ModuleAllocation>,
    /// Enforcement mechanism.
    pub control: ControlKind,
    /// The application-level budget the plan was solved for.
    pub budget: Watts,
}

impl PowerPlan {
    /// Total planned module power.
    pub fn total_allocated(&self) -> Watts {
        self.allocations.iter().map(|a| a.p_module).sum()
    }
}

/// Everything a scheme needs to produce a plan.
#[derive(Debug, Clone, Copy)]
pub struct PlanRequest<'a> {
    /// Application-level power budget over the allocated modules.
    pub budget: Watts,
    /// Modules allocated to the application by the job scheduler.
    pub module_ids: &'a [usize],
    /// The application.
    pub workload: &'a WorkloadSpec,
    /// The system PVT (used by the calibrated schemes).
    pub pvt: &'a PowerVariationTable,
    /// Campaign seed (test runs, workload fingerprints).
    pub seed: u64,
}

impl SchemeId {
    /// Produce a plan. The cluster is needed mutably because the
    /// non-oracle schemes run (cheap) single-module tests on it and the
    /// oracle schemes measure the whole fleet.
    pub fn plan(
        self,
        cluster: &mut Cluster,
        req: &PlanRequest<'_>,
    ) -> Result<PowerPlan, BudgetError> {
        vap_obs::incr("scheme.plans");
        vap_obs::incr(self.plan_counter());
        if req.module_ids.is_empty() {
            return Err(BudgetError::NoModules);
        }
        let pmt = self.build_pmt(cluster, req)?;
        match self {
            SchemeId::VaFsOr => self.plan_oracle_fs(cluster, req, &pmt),
            _ => {
                let alpha = max_alpha(req.budget, &pmt)?;
                Ok(PowerPlan {
                    scheme: self,
                    alpha,
                    allocations: allocations(&pmt, alpha),
                    control: self.control(),
                    budget: req.budget,
                })
            }
        }
    }

    /// The per-scheme plan counter (static names keep [`vap_obs::incr`]
    /// allocation-free).
    fn plan_counter(self) -> &'static str {
        match self {
            SchemeId::Naive => "scheme.plans.naive",
            SchemeId::Pc => "scheme.plans.pc",
            SchemeId::VaPc => "scheme.plans.va_pc",
            SchemeId::VaPcOr => "scheme.plans.va_pc_or",
            SchemeId::VaFs => "scheme.plans.va_fs",
            SchemeId::VaFsOr => "scheme.plans.va_fs_or",
        }
    }

    /// The PMT each scheme plans against.
    fn build_pmt(
        self,
        cluster: &mut Cluster,
        req: &PlanRequest<'_>,
    ) -> Result<PowerModelTable, BudgetError> {
        match self {
            SchemeId::Naive => {
                let spec = cluster.spec();
                let cpu_tdp = spec.tdp.ok_or(BudgetError::MissingTdp { domain: "CPU" })?;
                let dram_tdp = spec.dram_tdp.ok_or(BudgetError::MissingTdp { domain: "DRAM" })?;
                Ok(PowerModelTable::naive(
                    req.module_ids,
                    spec.pstates.f_max(),
                    spec.pstates.f_min(),
                    cpu_tdp,
                    dram_tdp,
                    NAIVE_CPU_FLOOR,
                    NAIVE_DRAM_FLOOR,
                ))
            }
            SchemeId::Pc => {
                let test =
                    single_module_test_run(cluster, req.module_ids[0], req.workload, req.seed);
                let pmt = PowerModelTable::calibrate(req.pvt, &test, req.module_ids)?;
                Ok(pmt.uniform_average())
            }
            SchemeId::VaPc | SchemeId::VaFs => {
                let test =
                    single_module_test_run(cluster, req.module_ids[0], req.workload, req.seed);
                PowerModelTable::calibrate(req.pvt, &test, req.module_ids)
            }
            SchemeId::VaPcOr | SchemeId::VaFsOr => {
                PowerModelTable::oracle(cluster, req.workload, req.module_ids, req.seed)
            }
        }
    }

    /// `VaFsOr`: instead of trusting any model, sweep the P-states and
    /// pick the highest common frequency whose *measured* fleet power fits
    /// the budget ("a perfect calibration of CPU frequencies").
    fn plan_oracle_fs(
        self,
        cluster: &mut Cluster,
        req: &PlanRequest<'_>,
        oracle_pmt: &PowerModelTable,
    ) -> Result<PowerPlan, BudgetError> {
        let pstates = cluster.spec().pstates.clone();
        let mut chosen = None;
        // power is monotone in f: walk from the top down (few steps)
        for &f in pstates.frequencies().iter().rev() {
            vap_obs::incr("alpha.fs_pstate_steps");
            let total: Watts = oracle_pmt
                .entries()
                .iter()
                .map(|e| e.cpu.power_at_frequency(f) + e.dram.power_at_frequency(f))
                .sum();
            if total <= req.budget {
                chosen = Some(f);
                break;
            }
        }
        let f = chosen.ok_or(BudgetError::InfeasibleBudget {
            budget: req.budget,
            fleet_minimum: oracle_pmt.fleet_minimum(),
        })?;
        let alpha = Alpha::saturating(oracle_pmt.entries()[0].cpu.alpha_for_frequency(f));
        let allocations = oracle_pmt
            .entries()
            .iter()
            .map(|e| {
                let p_cpu = e.cpu.power_at_frequency(f);
                let p_dram = e.dram.power_at_frequency(f);
                ModuleAllocation {
                    module_id: e.module_id,
                    p_module: p_cpu + p_dram,
                    p_cpu,
                    p_dram,
                    frequency: f,
                }
            })
            .collect();
        Ok(PowerPlan {
            scheme: self,
            alpha,
            allocations,
            control: ControlKind::FrequencySelection,
            budget: req.budget,
        })
    }
}

/// Enforce a plan on the cluster:
///
/// * PC: program each module's RAPL cap to its `P_cpu_i` (and release any
///   pinned governor — RAPL is in charge).
/// * FS: pin each module's frequency through the userspace governor and
///   remove any cap (power floats with the silicon — the documented risk
///   of FS).
pub fn apply_plan(plan: &PowerPlan, cluster: &mut Cluster) {
    // Plans validate their module ids at plan time; a plan applied to a
    // *different* (smaller) fleet skips the missing modules instead of
    // panicking.
    let n = cluster.len();
    for a in plan.allocations.iter().filter(|a| a.module_id < n) {
        let i = a.module_id;
        match plan.control {
            ControlKind::PowerCapping => {
                cluster.set_governor(i, Governor::Performance);
                cluster.set_cap(i, RaplLimit::with_default_window(a.p_cpu));
            }
            ControlKind::FrequencySelection => {
                cluster.clear_cap(i);
                cluster.set_governor(i, Governor::Userspace(a.frequency));
            }
        }
    }
}

/// Release a plan: uncap and restore the performance governor on the
/// plan's modules.
pub fn release_plan(plan: &PowerPlan, cluster: &mut Cluster) {
    let n = cluster.len();
    for a in plan.allocations.iter().filter(|a| a.module_id < n) {
        cluster.clear_cap(a.module_id);
        cluster.set_governor(a.module_id, Governor::Performance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvt::PowerVariationTable;
    use vap_model::systems::SystemSpec;
    use vap_model::units::GigaHertz;
    use vap_workloads::catalog;
    use vap_workloads::spec::WorkloadId;

    const SEED: u64 = 17;

    fn setup(n: usize) -> (Cluster, PowerVariationTable) {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), n, SEED);
        let pvt = PowerVariationTable::generate(&mut c, &catalog::get(WorkloadId::Stream), SEED);
        (c, pvt)
    }

    fn plan_for(
        scheme: SchemeId,
        cluster: &mut Cluster,
        pvt: &PowerVariationTable,
        workload: WorkloadId,
        per_module: Watts,
    ) -> Result<PowerPlan, BudgetError> {
        let w = catalog::get(workload);
        let ids: Vec<usize> = (0..cluster.len()).collect();
        let req = PlanRequest {
            budget: per_module * cluster.len() as f64,
            module_ids: &ids,
            workload: &w,
            pvt,
            seed: SEED,
        };
        scheme.plan(cluster, &req)
    }

    #[test]
    fn scheme_taxonomy() {
        assert_eq!(SchemeId::VaFs.control(), ControlKind::FrequencySelection);
        assert_eq!(SchemeId::VaPc.control(), ControlKind::PowerCapping);
        assert_eq!(SchemeId::ALL.len(), 6);
        assert_eq!(SchemeId::VaFs.to_string(), "VaFs");
    }

    #[test]
    fn naive_allocates_uniformly() {
        let (mut c, pvt) = setup(16);
        let plan = plan_for(SchemeId::Naive, &mut c, &pvt, WorkloadId::Dgemm, Watts(90.0)).unwrap();
        let first = plan.allocations[0];
        for a in &plan.allocations {
            assert_eq!(a.p_cpu, first.p_cpu);
            assert_eq!(a.p_module, first.p_module);
        }
        // uniform Cm: each module's total equals the per-module budget
        assert!((first.p_module.value() - 90.0).abs() < 1e-6);
    }

    #[test]
    fn variation_aware_plans_spread_power() {
        let (mut c, pvt) = setup(32);
        let plan = plan_for(SchemeId::VaPc, &mut c, &pvt, WorkloadId::Dgemm, Watts(80.0)).unwrap();
        let caps: Vec<f64> = plan.allocations.iter().map(|a| a.p_cpu.value()).collect();
        let spread = caps.iter().cloned().fold(f64::MIN, f64::max)
            - caps.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 2.0, "per-module caps should differ, spread = {spread}");
        // but the common frequency is shared
        let f0 = plan.allocations[0].frequency;
        assert!(plan.allocations.iter().all(|a| a.frequency == f0));
        // and the total respects the budget
        assert!(plan.total_allocated() <= Watts(80.0 * 32.0) + Watts(1e-6));
    }

    #[test]
    fn tighter_budget_means_lower_alpha_and_frequency() {
        let (mut c, pvt) = setup(16);
        let p90 = plan_for(SchemeId::VaFs, &mut c, &pvt, WorkloadId::Mhd, Watts(90.0)).unwrap();
        let p70 = plan_for(SchemeId::VaFs, &mut c, &pvt, WorkloadId::Mhd, Watts(70.0)).unwrap();
        assert!(p70.alpha < p90.alpha);
        assert!(p70.allocations[0].frequency < p90.allocations[0].frequency);
    }

    #[test]
    fn infeasible_budget_is_reported() {
        let (mut c, pvt) = setup(8);
        let err =
            plan_for(SchemeId::VaPc, &mut c, &pvt, WorkloadId::Stream, Watts(40.0)).unwrap_err();
        assert!(matches!(err, BudgetError::InfeasibleBudget { .. }));
        let err =
            plan_for(SchemeId::VaFsOr, &mut c, &pvt, WorkloadId::Stream, Watts(40.0)).unwrap_err();
        assert!(matches!(err, BudgetError::InfeasibleBudget { .. }));
    }

    #[test]
    fn apply_pc_caps_modules_and_fs_pins_frequencies() {
        let (mut c, pvt) = setup(8);
        let w = catalog::get(WorkloadId::Mhd);
        w.apply_to(&mut c, SEED);

        let pc = plan_for(SchemeId::VaPc, &mut c, &pvt, WorkloadId::Mhd, Watts(80.0)).unwrap();
        apply_plan(&pc, &mut c);
        for (m, a) in c.modules().zip(&pc.allocations) {
            let cap = m.cap().expect("PC must install caps");
            assert!((cap.cap.value() - a.p_cpu.value()).abs() < 0.13); // MSR quantization
        }

        let fs = plan_for(SchemeId::VaFs, &mut c, &pvt, WorkloadId::Mhd, Watts(80.0)).unwrap();
        apply_plan(&fs, &mut c);
        for m in c.modules() {
            assert!(m.cap().is_none(), "FS must not cap");
            // pinned at (the P-state floor of) the common frequency
            assert!(m.operating_point().clock <= fs.allocations[0].frequency);
        }

        release_plan(&fs, &mut c);
        for m in c.modules() {
            assert!(m.cap().is_none());
            assert_eq!(m.operating_point().clock, GigaHertz(2.7));
        }
    }

    #[test]
    fn pc_schemes_never_exceed_cpu_constraint() {
        // §5.3: "It is guaranteed that PC will never exceed the CPU power
        // constraint because RAPL enforces strict power caps."
        let (mut c, pvt) = setup(24);
        let w = catalog::get(WorkloadId::Dgemm);
        let plan = plan_for(SchemeId::VaPc, &mut c, &pvt, WorkloadId::Dgemm, Watts(80.0)).unwrap();
        w.apply_to(&mut c, SEED);
        apply_plan(&plan, &mut c);
        for (m, a) in c.modules().zip(&plan.allocations) {
            assert!(
                m.cpu_power() <= a.p_cpu + Watts(0.13),
                "module {} draws {} over cap {}",
                m.id(),
                m.cpu_power(),
                a.p_cpu
            );
        }
    }

    #[test]
    fn fs_equalizes_frequency_where_pc_equalizes_power() {
        let (mut c, pvt) = setup(48);
        let w = catalog::get(WorkloadId::Dgemm);

        // Uniform capping (Pc): frequencies vary.
        let pc = plan_for(SchemeId::Pc, &mut c, &pvt, WorkloadId::Dgemm, Watts(75.0)).unwrap();
        w.apply_to(&mut c, SEED);
        apply_plan(&pc, &mut c);
        let freqs: Vec<f64> = c.effective_frequencies().iter().map(|f| f.value()).collect();
        let vf_pc = vap_stats::worst_case_variation(&freqs).unwrap();

        // Variation-aware FS: frequencies equalized.
        let fs = plan_for(SchemeId::VaFs, &mut c, &pvt, WorkloadId::Dgemm, Watts(75.0)).unwrap();
        apply_plan(&fs, &mut c);
        let freqs: Vec<f64> = c.effective_frequencies().iter().map(|f| f.value()).collect();
        let vf_fs = vap_stats::worst_case_variation(&freqs).unwrap();

        assert!(vf_pc > 1.04, "uniform caps should spread frequency, Vf = {vf_pc}");
        assert_eq!(vf_fs, 1.0, "FS should equalize frequency exactly");
    }

    #[test]
    fn oracle_fs_fits_budget_by_measurement() {
        let (mut c, pvt) = setup(16);
        let w = catalog::get(WorkloadId::Bt);
        let plan = plan_for(SchemeId::VaFsOr, &mut c, &pvt, WorkloadId::Bt, Watts(70.0)).unwrap();
        w.apply_to(&mut c, SEED);
        apply_plan(&plan, &mut c);
        let total = c.total_power();
        assert!(total <= Watts(70.0 * 16.0) + Watts(0.5), "oracle FS total {total}");
    }
}
