//! Extension (paper §7 future work): multiple applications under one
//! system-level power constraint.
//!
//! "Future research includes analyzing multiple applications under a
//! system-level power constraint and optimizing for overall system
//! throughput. This involves integrating our work with a power-aware
//! resource manager such as RMAP, which can determine application-level
//! power constraints and physical node allocations in a fair yet
//! intelligent manner."
//!
//! This module implements that integration point: given several jobs, each
//! with its own module allocation and calibrated PMT, partition the system
//! budget into per-application budgets, then let the per-application
//! budgeting (the paper's core) do the rest. Three partition policies:
//!
//! * [`PartitionPolicy::ProportionalToModules`] — the naive resource
//!   manager: watts ∝ module count, blind to what runs where.
//! * [`PartitionPolicy::FairFloorPlusUniformAlpha`] — every job first gets
//!   its predicted `f_min` floor (nobody starves), then the *remaining*
//!   watts are spread so all jobs reach the **same α**: uniform relative
//!   progress, the natural multi-job generalization of the paper's
//!   "common frequency" objective.
//! * [`PartitionPolicy::ThroughputGreedy`] — spend each spare watt where
//!   it buys the most system throughput (marginal-utility greedy over
//!   jobs' α-per-watt and frequency sensitivity).
//!
//! Long-lived resource managers should hold a [`Budgeter`]: it keys jobs
//! by id, caches each job's PMT extrema at admission, and re-partitions
//! from the cached columns — bit-identical to [`partition`] without the
//! per-event PMT rescans.

use crate::alpha::{allocations, raw_alpha};
use crate::error::BudgetError;
use crate::pmt::PowerModelTable;
use crate::schemes::{ControlKind, PowerPlan, SchemeId};
use vap_model::linear::Alpha;
use vap_model::units::Watts;
use vap_workloads::spec::WorkloadId;

/// One job awaiting a power budget.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The application (for reporting and frequency-sensitivity lookup).
    pub workload: WorkloadId,
    /// Modules the scheduler allocated to this job.
    pub module_ids: Vec<usize>,
    /// The job's calibrated PMT over exactly those modules.
    pub pmt: PowerModelTable,
    /// CPU-bound fraction χ of the job (how much α buys it).
    pub cpu_fraction: f64,
}

impl JobRequest {
    fn fleet_minimum(&self) -> Watts {
        self.pmt.fleet_minimum()
    }

    fn fleet_maximum(&self) -> Watts {
        self.pmt.fleet_maximum()
    }

    /// Relative progress rate at coefficient α (1.0 at α = 1): the
    /// boundedness-weighted frequency ratio.
    fn progress(&self, alpha: Alpha) -> f64 {
        let e = &self.pmt.entries()[0].cpu;
        let f = e.frequency(alpha).value();
        let f_max = e.f_max.value();
        1.0 / (self.cpu_fraction * (f_max / f) + (1.0 - self.cpu_fraction))
    }
}

/// How the system budget is split across jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Watts proportional to module count (variation- and
    /// application-unaware resource manager).
    ProportionalToModules,
    /// Feasibility floors first, then equalize α across jobs.
    FairFloorPlusUniformAlpha,
    /// Feasibility floors first, then greedy marginal-throughput watts.
    ThroughputGreedy,
}

/// The outcome for one job.
#[derive(Debug, Clone)]
pub struct JobBudget {
    /// The application.
    pub workload: WorkloadId,
    /// The job's awarded application-level budget.
    pub budget: Watts,
    /// The job's α under that budget.
    pub alpha: Alpha,
    /// The per-module plan realizing it (PC flavor).
    pub plan: PowerPlan,
    /// The job's relative progress rate (1.0 = unconstrained).
    pub progress: f64,
}

/// Partition `system_budget` across `jobs`.
///
/// Errors if even the feasibility floors (every job at `f_min`) exceed the
/// system budget — the resource manager must then queue rather than start
/// all jobs, exactly the RMAP-style decision the paper defers to.
pub fn partition(
    system_budget: Watts,
    jobs: &[JobRequest],
    policy: PartitionPolicy,
) -> Result<Vec<JobBudget>, BudgetError> {
    let mins: Vec<Watts> = jobs.iter().map(|j| j.fleet_minimum()).collect();
    let maxs: Vec<Watts> = jobs.iter().map(|j| j.fleet_maximum()).collect();
    partition_with_extrema(system_budget, jobs, &mins, &maxs, policy)
}

/// [`partition`] with the per-job PMT extrema (`fleet_minimum` /
/// `fleet_maximum`) supplied by the caller instead of recomputed.
///
/// This is the hot path behind [`Budgeter`]: the extrema are per-module
/// reductions over each job's PMT, so a resource manager re-partitioning
/// on every event would otherwise rescan every PMT every time. The result
/// is bit-identical to [`partition`] — the extrema are pure functions of
/// the PMTs, and every fold here visits the same values in the same order.
///
/// `mins`/`maxs` must be index-aligned with `jobs`.
pub fn partition_with_extrema(
    system_budget: Watts,
    jobs: &[JobRequest],
    mins: &[Watts],
    maxs: &[Watts],
    policy: PartitionPolicy,
) -> Result<Vec<JobBudget>, BudgetError> {
    assert_eq!(jobs.len(), mins.len(), "mins must be index-aligned with jobs");
    assert_eq!(jobs.len(), maxs.len(), "maxs must be index-aligned with jobs");
    if jobs.is_empty() {
        return Err(BudgetError::NoModules);
    }
    let floor: Watts = mins.iter().copied().sum();
    if system_budget < floor {
        return Err(BudgetError::InfeasibleBudget { budget: system_budget, fleet_minimum: floor });
    }

    let budgets: Vec<Watts> = match policy {
        PartitionPolicy::ProportionalToModules => {
            let total_modules: usize = jobs.iter().map(|j| j.module_ids.len()).sum();
            jobs.iter()
                .map(|j| system_budget * (j.module_ids.len() as f64 / total_modules as f64))
                .collect()
        }
        PartitionPolicy::FairFloorPlusUniformAlpha => {
            // Common α across jobs: Σ_j (min_j + α·span_j) = budget.
            let span: f64 = mins.iter().zip(maxs).map(|(mn, mx)| (*mx - *mn).value()).sum();
            let alpha = if span <= 0.0 {
                1.0
            } else {
                ((system_budget - floor).value() / span).clamp(0.0, 1.0)
            };
            // at α = 1 each job gets exactly its maximum (`mn + (mx − mn)`
            // can round below `mx`)
            mins.iter()
                .zip(maxs)
                .map(|(mn, mx)| if alpha >= 1.0 { *mx } else { *mn + (*mx - *mn) * alpha })
                .collect()
        }
        PartitionPolicy::ThroughputGreedy => greedy_budgets(system_budget, jobs, mins, maxs),
    };

    // A job's proportional share can fall below its own floor; clamp up and
    // renormalize the excess out of the slack-holders so the system budget
    // is respected.
    let budgets = clamp_to_floors(&budgets, mins, system_budget);

    budgets
        .into_iter()
        .zip(jobs)
        .map(|(budget, job)| {
            let alpha = Alpha::saturating(raw_alpha(budget, &job.pmt));
            let allocs = allocations(&job.pmt, alpha);
            Ok(JobBudget {
                workload: job.workload,
                budget,
                alpha,
                progress: job.progress(alpha),
                plan: PowerPlan {
                    scheme: SchemeId::VaPc,
                    alpha,
                    allocations: allocs,
                    control: ControlKind::PowerCapping,
                    budget,
                },
            })
        })
        .collect()
}

/// Greedy marginal-throughput allocation: start every job at its floor,
/// then hand out the remaining watts in small quanta to whichever job's
/// progress improves most per watt.
fn greedy_budgets(
    system_budget: Watts,
    jobs: &[JobRequest],
    mins: &[Watts],
    maxs: &[Watts],
) -> Vec<Watts> {
    let mut budgets: Vec<f64> = mins.iter().map(|mn| mn.value()).collect();
    let spans: Vec<f64> = mins.iter().zip(maxs).map(|(mn, mx)| (*mx - *mn).value()).collect();
    let mut spare = system_budget.value() - budgets.iter().sum::<f64>();
    // quantum: 1/500 of the spare pool, bounded below for termination
    let quantum = (spare / 500.0).max(1e-3);
    while spare > 1e-9 {
        let step = quantum.min(spare);
        let mut best: Option<(usize, f64)> = None;
        for (i, job) in jobs.iter().enumerate() {
            if spans[i] <= 0.0 {
                continue;
            }
            let a0 = ((budgets[i] - mins[i].value()) / spans[i]).clamp(0.0, 1.0);
            if a0 >= 1.0 {
                continue; // already unconstrained
            }
            let a1 = ((budgets[i] + step - mins[i].value()) / spans[i]).clamp(0.0, 1.0);
            let gain = (job.progress(Alpha::saturating(a1)) - job.progress(Alpha::saturating(a0)))
                * job.module_ids.len() as f64;
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        match best {
            Some((i, gain)) if gain > 0.0 => {
                budgets[i] += step;
                spare -= step;
            }
            _ => break, // every job unconstrained; leave the rest unspent
        }
    }
    budgets.into_iter().map(Watts).collect()
}

fn clamp_to_floors(budgets: &[Watts], mins: &[Watts], system_budget: Watts) -> Vec<Watts> {
    let mut out: Vec<f64> = budgets.iter().map(|b| b.value()).collect();
    let floors: Vec<f64> = mins.iter().map(|mn| mn.value()).collect();
    // raise the starved to their floors
    let mut deficit = 0.0;
    for (b, f) in out.iter_mut().zip(&floors) {
        if *b < *f {
            deficit += *f - *b;
            *b = *f;
        }
    }
    // take the deficit from whoever holds slack, proportionally
    if deficit > 0.0 {
        let slack: f64 = out.iter().zip(&floors).map(|(b, f)| (b - f).max(0.0)).sum();
        if slack > 0.0 {
            for (b, f) in out.iter_mut().zip(&floors) {
                let s = (*b - f).max(0.0);
                *b -= deficit * s / slack;
            }
        }
    }
    // never exceed the system budget (floating point dust)
    let total: f64 = out.iter().sum();
    if total > system_budget.value() {
        let scale = system_budget.value() / total;
        for (b, f) in out.iter_mut().zip(&floors) {
            *b = f + (*b - f) * scale;
        }
    }
    out.into_iter().map(Watts).collect()
}

/// An incremental, keyed front-end to [`partition`] for long-lived
/// resource managers.
///
/// A scheduler that re-partitions the system budget on every event (job
/// start, job completion, a power shock) would otherwise rebuild its job
/// slice and rescan every job's PMT for the `fleet_minimum` /
/// `fleet_maximum` extrema each time. The `Budgeter` keeps the admitted
/// jobs in insertion order alongside their cached extrema, so each event
/// touches only the admitted or removed entry, and
/// [`Budgeter::partition`] is a delegation to [`partition_with_extrema`]
/// over the cached columns — bit-identical to calling [`partition`] on
/// the same jobs in the same order, because the extrema are pure
/// functions of each PMT and every fold visits the same values in the
/// same order.
#[derive(Debug, Clone, Default)]
pub struct Budgeter {
    keys: Vec<u64>,
    jobs: Vec<JobRequest>,
    mins: Vec<Watts>,
    maxs: Vec<Watts>,
}

impl Budgeter {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of admitted jobs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no jobs are admitted.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether `key` is currently admitted.
    pub fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }

    /// The admitted keys, in insertion order (aligned with
    /// [`Budgeter::partition`]'s result).
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Admit a job under `key`, caching its PMT extrema once.
    ///
    /// Re-admitting an existing key replaces the previous request (the
    /// job moves to the back of the insertion order).
    pub fn admit(&mut self, key: u64, request: JobRequest) {
        self.remove(key);
        self.mins.push(request.fleet_minimum());
        self.maxs.push(request.fleet_maximum());
        self.keys.push(key);
        self.jobs.push(request);
    }

    /// Remove the job under `key`, preserving the order of the rest.
    /// Returns whether the key was present.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.keys.iter().position(|k| *k == key) {
            Some(i) => {
                self.keys.remove(i);
                self.jobs.remove(i);
                self.mins.remove(i);
                self.maxs.remove(i);
                true
            }
            None => false,
        }
    }

    /// Combined feasibility floor of the admitted jobs: the least system
    /// budget under which [`Budgeter::partition`] succeeds.
    pub fn floor_total(&self) -> Watts {
        self.mins.iter().copied().sum()
    }

    /// Partition `system_budget` across the admitted jobs (insertion
    /// order), using the cached extrema. Bit-identical to [`partition`]
    /// over the admitted jobs.
    pub fn partition(
        &self,
        system_budget: Watts,
        policy: PartitionPolicy,
    ) -> Result<Vec<JobBudget>, BudgetError> {
        partition_with_extrema(system_budget, &self.jobs, &self.mins, &self.maxs, policy)
    }
}

/// System throughput of a partition: module-weighted mean progress (each
/// module contributes its job's relative rate — "how much science per
/// second is the machine doing versus unconstrained").
pub fn system_throughput(budgets: &[JobBudget], jobs: &[JobRequest]) -> f64 {
    let total_modules: usize = jobs.iter().map(|j| j.module_ids.len()).sum();
    budgets.iter().zip(jobs).map(|(b, j)| b.progress * j.module_ids.len() as f64).sum::<f64>()
        / total_modules as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvt::PowerVariationTable;
    use crate::testrun::single_module_test_run;
    use vap_model::systems::SystemSpec;
    use vap_sim::cluster::Cluster;
    use vap_workloads::catalog;

    const SEED: u64 = 61;

    /// Two jobs sharing a 96-module fleet: DGEMM (hot, frequency-hungry)
    /// and STREAM (cool in CPU terms, frequency-insensitive).
    fn setup() -> (Vec<JobRequest>, Watts) {
        let n = 96;
        let mut cluster = Cluster::with_size(SystemSpec::ha8k(), n, SEED);
        let pvt =
            PowerVariationTable::generate(&mut cluster, &catalog::get(WorkloadId::Stream), SEED);
        let mut jobs = Vec::new();
        for (w, ids) in [
            (WorkloadId::Dgemm, (0..48).collect::<Vec<_>>()),
            (WorkloadId::Stream, (48..96).collect::<Vec<_>>()),
        ] {
            let spec = catalog::get(w);
            let test = single_module_test_run(&mut cluster, ids[0], &spec, SEED);
            let pmt = PowerModelTable::calibrate(&pvt, &test, &ids).unwrap();
            jobs.push(JobRequest {
                workload: w,
                module_ids: ids,
                pmt,
                cpu_fraction: spec.cpu_fraction,
            });
        }
        (jobs, Watts(85.0 * n as f64))
    }

    #[test]
    fn all_policies_respect_the_system_budget() {
        let (jobs, budget) = setup();
        for policy in [
            PartitionPolicy::ProportionalToModules,
            PartitionPolicy::FairFloorPlusUniformAlpha,
            PartitionPolicy::ThroughputGreedy,
        ] {
            let parts = partition(budget, &jobs, policy).unwrap();
            let total: Watts = parts.iter().map(|p| p.plan.total_allocated()).sum();
            assert!(total <= budget + Watts(1e-6), "{policy:?}: {total} > {budget}");
            assert_eq!(parts.len(), 2);
            for p in &parts {
                assert!(p.alpha.value() >= 0.0 && p.alpha.value() <= 1.0);
                assert!(p.progress > 0.0 && p.progress <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn floors_guarantee_no_job_starves() {
        let (jobs, _) = setup();
        // budget barely above the combined floor
        let floor: Watts = jobs.iter().map(|j| j.pmt.fleet_minimum()).sum();
        let parts =
            partition(floor + Watts(50.0), &jobs, PartitionPolicy::ThroughputGreedy).unwrap();
        for (p, j) in parts.iter().zip(&jobs) {
            assert!(p.budget >= j.pmt.fleet_minimum() - Watts(1e-6), "{} starved", p.workload);
        }
    }

    #[test]
    fn below_floor_budget_errors() {
        let (jobs, _) = setup();
        let floor: Watts = jobs.iter().map(|j| j.pmt.fleet_minimum()).sum();
        let err =
            partition(floor * 0.9, &jobs, PartitionPolicy::FairFloorPlusUniformAlpha).unwrap_err();
        assert!(matches!(err, BudgetError::InfeasibleBudget { .. }));
        assert!(partition(Watts(1e6), &[], PartitionPolicy::ThroughputGreedy).is_err());
    }

    #[test]
    fn greedy_feeds_the_frequency_sensitive_job() {
        // DGEMM (χ=0.95) converts watts into progress; STREAM (χ=0.35)
        // barely does. The greedy policy should give DGEMM a higher α than
        // the uniform-α policy does.
        let (jobs, budget) = setup();
        let uniform = partition(budget, &jobs, PartitionPolicy::FairFloorPlusUniformAlpha).unwrap();
        let greedy = partition(budget, &jobs, PartitionPolicy::ThroughputGreedy).unwrap();
        let dgemm_uniform = uniform.iter().find(|p| p.workload == WorkloadId::Dgemm).unwrap();
        let dgemm_greedy = greedy.iter().find(|p| p.workload == WorkloadId::Dgemm).unwrap();
        assert!(
            dgemm_greedy.alpha.value() > dgemm_uniform.alpha.value(),
            "greedy should prioritize DGEMM: {} vs {}",
            dgemm_greedy.alpha.value(),
            dgemm_uniform.alpha.value()
        );
        // and total throughput should not be worse
        let t_uniform = system_throughput(&uniform, &jobs);
        let t_greedy = system_throughput(&greedy, &jobs);
        assert!(t_greedy >= t_uniform - 1e-9, "greedy {t_greedy} < uniform {t_uniform}");
    }

    #[test]
    fn generous_budget_makes_everyone_unconstrained() {
        let (jobs, _) = setup();
        for policy in
            [PartitionPolicy::FairFloorPlusUniformAlpha, PartitionPolicy::ThroughputGreedy]
        {
            let parts = partition(Watts(1e6), &jobs, policy).unwrap();
            for p in &parts {
                assert_eq!(p.alpha, Alpha::MAX, "{policy:?}/{}", p.workload);
                assert!((p.progress - 1.0).abs() < 1e-9);
            }
        }
    }

    /// Field-by-field bitwise equality of two partitions (floats compared
    /// via `to_bits`, so `-0.0 != 0.0` and NaNs would fail loudly).
    fn assert_parts_bitwise_eq(a: &[JobBudget], b: &[JobBudget]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.budget.value().to_bits(), y.budget.value().to_bits());
            assert_eq!(x.alpha.value().to_bits(), y.alpha.value().to_bits());
            assert_eq!(x.progress.to_bits(), y.progress.to_bits());
            assert_eq!(x.plan.scheme, y.plan.scheme);
            assert_eq!(x.plan.control, y.plan.control);
            assert_eq!(x.plan.budget.value().to_bits(), y.plan.budget.value().to_bits());
            assert_eq!(x.plan.allocations.len(), y.plan.allocations.len());
            for (am, bm) in x.plan.allocations.iter().zip(&y.plan.allocations) {
                assert_eq!(am.module_id, bm.module_id);
                assert_eq!(am.p_module.value().to_bits(), bm.p_module.value().to_bits());
                assert_eq!(am.p_cpu.value().to_bits(), bm.p_cpu.value().to_bits());
                assert_eq!(am.p_dram.value().to_bits(), bm.p_dram.value().to_bits());
                assert_eq!(am.frequency.value().to_bits(), bm.frequency.value().to_bits());
            }
        }
    }

    #[test]
    fn incremental_budgeter_matches_batch_partition_bitwise() {
        let (jobs, budget) = setup();
        let mut ledger = Budgeter::new();
        for (k, j) in jobs.iter().enumerate() {
            ledger.admit(k as u64, j.clone());
        }
        assert_eq!(ledger.len(), jobs.len());
        assert_eq!(ledger.keys(), &[0, 1]);
        for policy in [
            PartitionPolicy::ProportionalToModules,
            PartitionPolicy::FairFloorPlusUniformAlpha,
            PartitionPolicy::ThroughputGreedy,
        ] {
            let batch = partition(budget, &jobs, policy).unwrap();
            let incremental = ledger.partition(budget, policy).unwrap();
            assert_parts_bitwise_eq(&batch, &incremental);
        }
    }

    #[test]
    fn budgeter_floor_total_matches_summed_minimums() {
        let (jobs, _) = setup();
        let mut ledger = Budgeter::new();
        assert_eq!(ledger.floor_total(), Watts(0.0));
        for (k, j) in jobs.iter().enumerate() {
            ledger.admit(k as u64, j.clone());
        }
        let expected: Watts = jobs.iter().map(|j| j.pmt.fleet_minimum()).sum();
        assert_eq!(ledger.floor_total().value().to_bits(), expected.value().to_bits());
    }

    #[test]
    fn budgeter_removal_preserves_order_and_replacement_moves_to_back() {
        let (jobs, budget) = setup();
        let mut ledger = Budgeter::new();
        // admit A, B, A-clone: re-admitting key 0 moves it behind key 1
        ledger.admit(0, jobs[0].clone());
        ledger.admit(1, jobs[1].clone());
        ledger.admit(0, jobs[0].clone());
        assert_eq!(ledger.keys(), &[1, 0]);
        assert_eq!(ledger.len(), 2);
        let reordered = [jobs[1].clone(), jobs[0].clone()];
        let batch = partition(budget, &reordered, PartitionPolicy::ThroughputGreedy).unwrap();
        let incremental = ledger.partition(budget, PartitionPolicy::ThroughputGreedy).unwrap();
        assert_parts_bitwise_eq(&batch, &incremental);
        // removal
        assert!(ledger.remove(1));
        assert!(!ledger.remove(1));
        assert!(!ledger.contains(1));
        assert_eq!(ledger.keys(), &[0]);
        let solo = partition(budget, &jobs[..1], PartitionPolicy::ThroughputGreedy).unwrap();
        let incremental = ledger.partition(budget, PartitionPolicy::ThroughputGreedy).unwrap();
        assert_parts_bitwise_eq(&solo, &incremental);
        // draining the ledger brings back the empty-jobs error
        assert!(ledger.remove(0));
        assert!(ledger.is_empty());
        assert!(ledger.partition(budget, PartitionPolicy::ThroughputGreedy).is_err());
    }

    #[test]
    fn proportional_ignores_applications() {
        let (jobs, budget) = setup();
        let parts = partition(budget, &jobs, PartitionPolicy::ProportionalToModules).unwrap();
        // equal module counts → equal budgets, whatever the workloads are
        assert!((parts[0].budget - parts[1].budget).abs() < Watts(1e-6));
    }
}
