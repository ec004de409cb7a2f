//! Property-based tests for the multi-job budget partitioner: whatever
//! the job mix, every policy conserves the system budget, respects every
//! job's feasibility floor, and refuses infeasible budgets. Run as
//! seeded loops ([`vap_model::rng::check`]): a failure names the case
//! seed to replay.

use vap_core::error::BudgetError;
use vap_core::multijob::{partition, JobRequest, PartitionPolicy};
use vap_core::pmt::PowerModelTable;
use vap_model::rng::{check, SplitMix64};
use vap_model::units::{GigaHertz, Watts};
use vap_workloads::spec::WorkloadId;

const POLICIES: [PartitionPolicy; 3] = [
    PartitionPolicy::ProportionalToModules,
    PartitionPolicy::FairFloorPlusUniformAlpha,
    PartitionPolicy::ThroughputGreedy,
];

/// One synthetic job: module count, CPU/DRAM anchors (W), and χ.
#[derive(Debug, Clone)]
struct JobShape {
    modules: usize,
    cpu_tdp: f64,
    cpu_floor: f64,
    dram_tdp: f64,
    dram_floor: f64,
    chi: f64,
}

const CASES: usize = 256;

fn job_shape(rng: &mut SplitMix64) -> JobShape {
    JobShape {
        modules: 1 + rng.next_index(11),
        cpu_tdp: rng.next_range(80.0, 140.0),
        cpu_floor: rng.next_range(20.0, 50.0),
        dram_tdp: rng.next_range(20.0, 70.0),
        dram_floor: rng.next_range(5.0, 15.0),
        chi: rng.next_range(0.0, 1.0),
    }
}

/// Between `lo` and `hi - 1` job shapes.
fn job_shapes(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<JobShape> {
    let n = lo + rng.next_index(hi - lo);
    (0..n).map(|_| job_shape(rng)).collect()
}

/// Materialize shapes into requests over disjoint module-id ranges.
fn requests(shapes: &[JobShape]) -> Vec<JobRequest> {
    let mut next_id = 0usize;
    shapes
        .iter()
        .map(|s| {
            let ids: Vec<usize> = (next_id..next_id + s.modules).collect();
            next_id += s.modules;
            JobRequest {
                workload: WorkloadId::Dgemm,
                pmt: PowerModelTable::naive(
                    &ids,
                    GigaHertz(2.7),
                    GigaHertz(1.2),
                    Watts(s.cpu_tdp),
                    Watts(s.dram_tdp),
                    Watts(s.cpu_floor),
                    Watts(s.dram_floor),
                ),
                module_ids: ids,
                cpu_fraction: s.chi,
            }
        })
        .collect()
}

fn floor_of(jobs: &[JobRequest]) -> Watts {
    jobs.iter().map(|j| j.pmt.fleet_minimum()).sum()
}

fn ceiling_of(jobs: &[JobRequest]) -> Watts {
    jobs.iter().map(|j| j.pmt.fleet_maximum()).sum()
}

/// Feasible budgets: every policy hands out at most the system budget
/// (conservation), at least each job's floor (no starvation), and the
/// realized per-module plans stay inside each job's award.
#[test]
fn partitions_conserve_the_budget_and_respect_floors() {
    check("partitions_conserve_the_budget_and_respect_floors", 1, CASES, |rng| {
        let shapes = job_shapes(rng, 1, 6);
        let headroom = rng.next_range(0.0, 1.3);
        let jobs = requests(&shapes);
        let floor = floor_of(&jobs);
        let ceiling = ceiling_of(&jobs);
        // sweep from exactly-feasible to 30% past everyone-unconstrained
        let budget = floor
            + (ceiling * 1.0 - floor) * headroom.min(1.0)
            + ceiling * (headroom - 1.0).max(0.0);
        for policy in POLICIES {
            let parts = partition(budget, &jobs, policy).unwrap();
            assert_eq!(parts.len(), jobs.len());
            let total: Watts = parts.iter().map(|p| p.budget).sum();
            assert!(total <= budget + Watts(1e-6), "{:?}: awarded {} of {}", policy, total, budget);
            for (p, j) in parts.iter().zip(&jobs) {
                assert!(
                    p.budget >= j.pmt.fleet_minimum() - Watts(1e-6),
                    "{:?}: job got {} below its {} floor",
                    policy,
                    p.budget,
                    j.pmt.fleet_minimum()
                );
                assert!(p.alpha.value() >= 0.0 && p.alpha.value() <= 1.0);
                assert!(
                    p.plan.total_allocated() <= p.budget + Watts(1e-6),
                    "{:?}: plan spends {} of a {} award",
                    policy,
                    p.plan.total_allocated(),
                    p.budget
                );
            }
        }
    });
}

/// A budget below the combined feasibility floor is rejected by every
/// policy — the resource manager must queue, not brown-out jobs.
#[test]
fn sub_floor_budgets_are_rejected() {
    check("sub_floor_budgets_are_rejected", 2, CASES, |rng| {
        let shapes = job_shapes(rng, 1, 6);
        let fraction = rng.next_range(0.05, 0.99);
        let jobs = requests(&shapes);
        let budget = floor_of(&jobs) * fraction;
        for policy in POLICIES {
            let err = partition(budget, &jobs, policy).unwrap_err();
            assert!(matches!(err, BudgetError::InfeasibleBudget { .. }));
        }
    });
}

/// The fair policy's defining property: between the floor and the
/// ceiling, every job lands on the same α (uniform relative progress).
#[test]
fn fair_policy_equalizes_alpha() {
    check("fair_policy_equalizes_alpha", 3, CASES, |rng| {
        let shapes = job_shapes(rng, 2, 6);
        let headroom = rng.next_range(0.05, 0.95);
        let jobs = requests(&shapes);
        let floor = floor_of(&jobs);
        let budget = floor + (ceiling_of(&jobs) - floor) * headroom;
        let parts = partition(budget, &jobs, PartitionPolicy::FairFloorPlusUniformAlpha).unwrap();
        for pair in parts.windows(2) {
            assert!(
                (pair[0].alpha.value() - pair[1].alpha.value()).abs() < 1e-6,
                "alphas diverge: {} vs {}",
                pair[0].alpha.value(),
                pair[1].alpha.value()
            );
        }
    });
}
