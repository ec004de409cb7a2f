//! Power Measurement and Management Directives (PMMDs).
//!
//! The paper instruments applications with TAU-based directives "just
//! after `MPI_Init` and just before `MPI_Finalize`" (§5, step 1): the
//! region of interest where power settings are applied and power is
//! measured. [`run_region`] is that bracket for simulated applications:
//! it installs the workload, applies the plan at region entry, executes
//! the SPMD program, accounts power and energy, and restores the fleet at
//! region exit.

use crate::schemes::{apply_plan, release_plan, PowerPlan};
use vap_model::power::PowerActivity;
use vap_model::units::{Joules, Seconds, Watts};
use vap_mpi::comm::CommParams;
use vap_mpi::engine::{self, RunResult};
use vap_mpi::program::Program;
use vap_sim::cluster::Cluster;
use vap_workloads::spec::WorkloadSpec;

/// What the PMMD bracket measured across the region of interest.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Per-rank execution results.
    pub run: RunResult,
    /// Per-module average power while the module's rank was running.
    pub module_power: Vec<Watts>,
    /// Σ of per-module busy power — the fleet draw while the application
    /// executes, the quantity Fig. 9 audits against the constraint.
    pub total_power: Watts,
    /// Total energy: Σᵢ (module power × that rank's execution time).
    pub energy: Joules,
}

impl RegionReport {
    /// Application completion time.
    pub fn makespan(&self) -> Seconds {
        self.run.makespan()
    }
}

/// Execute `program` for `workload` on `module_ids` of `cluster` under
/// `plan`, with full PMMD bracketing.
pub fn run_region(
    cluster: &mut Cluster,
    plan: &PowerPlan,
    workload: &WorkloadSpec,
    program: &Program,
    module_ids: &[usize],
    comm: &CommParams,
    seed: u64,
) -> RegionReport {
    assert!(!module_ids.is_empty(), "a region needs at least one rank");
    let _region_span = vap_obs::span("pmmd.region");
    // --- region entry (just after MPI_Init) ---
    // Only the job's own modules run the application; the rest of the
    // fleet is untouched (other jobs may own it).
    workload.apply_to_modules(cluster, module_ids, seed);
    apply_plan(plan, cluster);

    // Execute: module operating points are in steady state for the whole
    // region (RAPL converges in milliseconds; regions run for minutes).
    let boundedness = workload.boundedness(cluster.spec().pstates.f_max());
    let run = engine::run_on_cluster(program, cluster, module_ids, &boundedness, comm);

    // Measure while settings are still applied. Ids outside the fleet were
    // skipped at apply time; skip them here too so the power/time zip stays
    // rank-aligned.
    let module_power: Vec<Watts> =
        module_ids.iter().filter_map(|&id| cluster.get(id).map(|m| m.module_power())).collect();
    let total_power: Watts = module_power.iter().copied().sum();
    let energy: Joules = module_power
        .iter()
        .zip(&run.rank_times)
        .map(|(&p, &t)| if t.value().is_finite() { p * t } else { Joules::ZERO })
        .sum();

    vap_obs::incr("region.runs");
    vap_obs::observe("region.makespan_s", run.makespan().value());
    vap_obs::observe("region.total_power_w", total_power.value());

    // Watt-provenance: attribute the plan's budget over the whole region
    // while settings are still applied. One tick, dt = makespan.
    vap_obs::ledger_tick(|| region_ledger_tick(cluster, plan, run.makespan()));

    // --- region exit (just before MPI_Finalize) ---
    release_plan(plan, cluster);
    let n = cluster.len();
    for &id in module_ids.iter().filter(|&&id| id < n) {
        cluster.set_workload_variation(id, None);
        cluster.set_activity(id, PowerActivity::IDLE);
    }

    RegionReport { run, module_power, total_power, energy }
}

/// Attribute one region's budget to `(job, module, domain)` watt bins.
///
/// The region is a single implicit job (id 0). Telescoping keeps the
/// bins summing to the budget exactly: per-domain `useful + loss`
/// recovers each grant (`useful = min(measured, granted)`, the loss
/// classified as throttle when RAPL is actively limiting, headroom
/// otherwise), and the job-residue row absorbs `budget − Σ grants` —
/// so the ledger's conservation invariant holds by construction, not by
/// measurement luck.
fn region_ledger_tick(
    cluster: &Cluster,
    plan: &PowerPlan,
    makespan: Seconds,
) -> vap_obs::LedgerTick {
    use vap_obs::{Category, Domain, LedgerEntry, LedgerTick};
    let mut entries = Vec::new();
    let mut granted_total = 0.0;
    for a in &plan.allocations {
        let Some(m) = cluster.get(a.module_id) else {
            continue;
        };
        let id = a.module_id as u64;
        let throttled = m.rapl_throttled();
        for (domain, granted, measured) in [
            (Domain::Cpu, a.p_cpu.value(), m.cpu_power().value()),
            (Domain::Dram, a.p_dram.value(), m.dram_power().value()),
        ] {
            let useful = measured.min(granted);
            entries.push(LedgerEntry::module(0, id, domain, Category::Useful, useful));
            let cat = if throttled { Category::Throttle } else { Category::Headroom };
            entries.push(LedgerEntry::module(0, id, domain, cat, granted - useful));
            granted_total += granted;
        }
    }
    entries.push(LedgerEntry::job_residue(0, plan.budget.value() - granted_total));
    LedgerTick { t_s: 0.0, dt_s: makespan.value(), cap_w: plan.budget.value(), entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvt::PowerVariationTable;
    use crate::schemes::{PlanRequest, SchemeId};
    use vap_model::systems::SystemSpec;
    use vap_workloads::catalog;
    use vap_workloads::spec::WorkloadId;

    const SEED: u64 = 23;

    fn setup(n: usize) -> (Cluster, PowerVariationTable) {
        let mut c = Cluster::with_size(SystemSpec::ha8k(), n, SEED);
        let pvt = PowerVariationTable::generate(&mut c, &catalog::get(WorkloadId::Stream), SEED);
        (c, pvt)
    }

    fn run_with(scheme: SchemeId, per_module: Watts, n: usize) -> RegionReport {
        let (mut c, pvt) = setup(n);
        let w = catalog::get(WorkloadId::Mhd);
        let ids: Vec<usize> = (0..n).collect();
        let req = PlanRequest {
            budget: per_module * n as f64,
            module_ids: &ids,
            workload: &w,
            pvt: &pvt,
            seed: SEED,
        };
        let plan = scheme.plan(&mut c, &req).unwrap();
        let program = w.program(0.02); // short run for tests
        run_region(&mut c, &plan, &w, &program, &ids, &CommParams::infiniband_fdr(), SEED)
    }

    #[test]
    fn region_reports_power_within_budget_for_pc() {
        let n = 16;
        let report = run_with(SchemeId::VaPc, Watts(80.0), n);
        assert!(report.total_power <= Watts(80.0 * n as f64) * 1.01);
        assert_eq!(report.module_power.len(), n);
        assert!(report.makespan().value() > 0.0);
        assert!(report.energy.value() > 0.0);
    }

    #[test]
    fn fleet_is_restored_after_region() {
        let (mut c, pvt) = setup(8);
        let w = catalog::get(WorkloadId::Bt);
        let ids: Vec<usize> = (0..8).collect();
        let req = PlanRequest {
            budget: Watts(8.0 * 80.0),
            module_ids: &ids,
            workload: &w,
            pvt: &pvt,
            seed: SEED,
        };
        let plan = SchemeId::VaFs.plan(&mut c, &req).unwrap();
        let before: Vec<f64> = c.module_powers().iter().map(|p| p.value()).collect();
        let program = w.program(0.01);
        let _ = run_region(&mut c, &plan, &w, &program, &ids, &CommParams::ideal(), SEED);
        let after: Vec<f64> = c.module_powers().iter().map(|p| p.value()).collect();
        assert_eq!(before, after, "region must leave the fleet as it found it");
    }

    #[test]
    fn tighter_budget_runs_slower() {
        let loose = run_with(SchemeId::VaFs, Watts(90.0), 8);
        let tight = run_with(SchemeId::VaFs, Watts(65.0), 8);
        assert!(tight.makespan() > loose.makespan());
        assert!(tight.total_power < loose.total_power);
    }

    #[test]
    fn region_ledger_conserves_the_budget() {
        let (mut c, pvt) = setup(8);
        let w = catalog::get(WorkloadId::Mhd);
        let ids: Vec<usize> = (0..8).collect();
        let req = PlanRequest {
            budget: Watts(8.0 * 80.0),
            module_ids: &ids,
            workload: &w,
            pvt: &pvt,
            seed: SEED,
        };
        let plan = SchemeId::VaPc.plan(&mut c, &req).unwrap();
        w.apply_to_modules(&mut c, &ids, SEED);
        apply_plan(&plan, &mut c);

        let tick = region_ledger_tick(&c, &plan, Seconds(120.0));
        // 8 modules × 2 domains × 2 rows + job residue
        assert_eq!(tick.entries.len(), 8 * 2 * 2 + 1);
        let mut table = vap_obs::ledger::LedgerTable::new();
        table.record(tick);
        assert_eq!(table.violations, 0, "telescoped bins must sum to the budget");
        let [useful, throttle, headroom, _stranded] = table.energy_by_category();
        assert!(useful > 0.0, "a busy region burns useful watts");
        assert!(throttle + headroom >= 0.0, "losses are non-negative by construction");

        release_plan(&plan, &mut c);
    }

    #[test]
    fn energy_is_power_times_time_per_rank() {
        let report = run_with(SchemeId::VaPc, Watts(85.0), 4);
        let hand: f64 = report
            .module_power
            .iter()
            .zip(&report.run.rank_times)
            .map(|(p, t)| p.value() * t.value())
            .sum();
        assert!((report.energy.value() - hand).abs() < 1e-9);
    }
}
