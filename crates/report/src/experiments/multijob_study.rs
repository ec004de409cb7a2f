//! Extension study: system-budget partitioning across concurrent
//! applications (paper §7 future work, the RMAP integration point).
//!
//! Three tenants — *DGEMM, MHD and *STREAM — share the fleet in equal
//! module thirds. A system budget sweep compares the three partition
//! policies of [`vap_core::multijob`]: module-proportional (naive resource
//! manager), uniform-α fairness, and throughput-greedy. Each partitioned
//! budget is then *executed*: per-job VaPc plans are applied and the jobs
//! run concurrently on their module subsets.

use crate::experiments::common::{self, budget_for};
use crate::options::RunOptions;
use crate::render::{f, Table};
use vap_core::budgeter::Budgeter;
use vap_core::multijob::{partition, system_throughput, JobRequest, PartitionPolicy};
use vap_core::pmmd::run_region;
use vap_core::pmt::PowerModelTable;
use vap_core::testrun::single_module_test_run;
use vap_mpi::comm::CommParams;
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

/// One (budget level, policy) measurement.
#[derive(Debug, Clone)]
pub struct MultijobRow {
    /// System constraint level, expressed per module (W).
    pub cm_w: f64,
    /// The partition policy.
    pub policy: PartitionPolicy,
    /// Predicted module-weighted system throughput (1.0 = unconstrained).
    pub predicted_throughput: f64,
    /// Per-job α in tenant order (DGEMM, MHD, STREAM).
    pub alphas: Vec<f64>,
    /// Per-job measured makespan (s), tenant order.
    pub makespans_s: Vec<f64>,
    /// Total measured fleet power (W).
    pub total_power_w: f64,
}

/// The study's results.
#[derive(Debug, Clone)]
pub struct MultijobResult {
    /// All measurements.
    pub rows: Vec<MultijobRow>,
    /// Fleet size used.
    pub modules: usize,
    /// Tenant order.
    pub tenants: Vec<WorkloadId>,
}

/// Policies compared, in display order.
pub const POLICIES: [PartitionPolicy; 3] = [
    PartitionPolicy::ProportionalToModules,
    PartitionPolicy::FairFloorPlusUniformAlpha,
    PartitionPolicy::ThroughputGreedy,
];

/// The fleet is too small to give each of the three tenants a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTooSmall {
    /// Modules requested.
    pub modules: usize,
}

impl std::fmt::Display for FleetTooSmall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the multi-tenant study needs at least 3 modules (one per tenant), got {}",
            self.modules
        )
    }
}

impl std::error::Error for FleetTooSmall {}

/// Run the study.
///
/// The (budget level, policy) cells are independent: each executes its
/// three tenants on a private clone of the pristine post-PVT fleet,
/// fanned over `opts.threads()` workers with identical results at any
/// thread count.
///
/// # Errors
///
/// [`FleetTooSmall`] below 3 modules.
pub fn run(opts: &RunOptions) -> Result<MultijobResult, FleetTooSmall> {
    let n = opts.modules_or(1920);
    if n < 3 {
        return Err(FleetTooSmall { modules: n });
    }
    let n = (n / 3) * 3; // three equal tenants
    let threads = opts.threads();
    let tenants = vec![WorkloadId::Dgemm, WorkloadId::Mhd, WorkloadId::Stream];
    let mut cluster = common::ha8k(n, opts.seed);
    let budgeter = Budgeter::install_with_threads(&mut cluster, opts.seed, threads);
    let comm = CommParams::infiniband_fdr();

    // Build the jobs: calibrated PMT per tenant over its third.
    let jobs: Vec<JobRequest> = tenants
        .iter()
        .enumerate()
        .filter_map(|(k, &w)| {
            let spec = catalog::get(w);
            let ids: Vec<usize> = (k * n / 3..(k + 1) * n / 3).collect();
            let &probe = ids.first()?; // fleet smaller than 3: no tenants
            let test = single_module_test_run(&mut cluster, probe, &spec, opts.seed);
            // calibration only errs on an empty/unknown module list; an
            // uncalibratable tenant drops out instead of panicking
            let pmt = PowerModelTable::calibrate(budgeter.pvt(), &test, &ids).ok()?;
            Some(JobRequest { workload: w, module_ids: ids, pmt, cpu_fraction: spec.cpu_fraction })
        })
        .collect();
    let cluster = cluster; // pristine post-PVT template, cloned per cell

    let cells: Vec<(f64, PartitionPolicy)> = [95.0, 85.0, 78.0, 72.0]
        .into_iter()
        .flat_map(|cm| POLICIES.into_iter().map(move |p| (cm, p)))
        .collect();

    let per_cell = vap_exec::par_grid(&cells, threads, |&(cm, policy)| {
        let system = budget_for(cm, n);
        let Ok(parts) = partition(system, &jobs, policy) else {
            return None;
        };
        let mut fleet = cluster.clone();
        let mut makespans = Vec::new();
        let mut total_power = 0.0;
        for (part, job) in parts.iter().zip(&jobs) {
            let spec = catalog::get(job.workload);
            let program = spec.program(opts.scale);
            let report = run_region(
                &mut fleet,
                &part.plan,
                &spec,
                &program,
                &job.module_ids,
                &comm,
                opts.seed,
            );
            makespans.push(report.makespan().value());
            total_power += report.total_power.value();
        }
        Some(MultijobRow {
            cm_w: cm,
            policy,
            predicted_throughput: system_throughput(&parts, &jobs),
            alphas: parts.iter().map(|p| p.alpha.value()).collect(),
            makespans_s: makespans,
            total_power_w: total_power,
        })
    });
    let rows = per_cell.into_iter().flatten().collect();

    Ok(MultijobResult { rows, modules: n, tenants })
}

fn policy_name(p: PartitionPolicy) -> &'static str {
    match p {
        PartitionPolicy::ProportionalToModules => "Proportional",
        PartitionPolicy::FairFloorPlusUniformAlpha => "UniformAlpha",
        PartitionPolicy::ThroughputGreedy => "Greedy",
    }
}

/// Render the study.
pub fn render(result: &MultijobResult) -> Table {
    let tenant_names: Vec<&str> = result.tenants.iter().map(|w| w.name()).collect();
    let mut t = Table::new(
        &format!(
            "Multi-tenant partitioning ({} modules, thirds: {})",
            result.modules,
            tenant_names.join(" / ")
        ),
        &["Cm [W]", "Policy", "Throughput", "alphas", "makespans [s]", "Power [kW]"],
    );
    for r in &result.rows {
        t.row(vec![
            f(r.cm_w, 0),
            policy_name(r.policy).to_string(),
            f(r.predicted_throughput, 3),
            r.alphas.iter().map(|a| f(*a, 2)).collect::<Vec<_>>().join("/"),
            r.makespans_s.iter().map(|m| f(*m, 0)).collect::<Vec<_>>().join("/"),
            f(r.total_power_w / 1e3, 1),
        ]);
    }
    t
}

/// CSV of all rows.
pub fn to_csv(result: &MultijobResult) -> String {
    use std::fmt::Write as _;
    let mut out =
        String::from("cm_w,policy,predicted_throughput,tenant,alpha,makespan_s,total_power_w\n");
    for r in &result.rows {
        for (k, w) in result.tenants.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:.0},{},{:.4},{},{:.4},{:.3},{:.1}",
                r.cm_w,
                policy_name(r.policy),
                r.predicted_throughput,
                w,
                r.alphas[k],
                r.makespans_s[k],
                r.total_power_w
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> MultijobResult {
        run(&RunOptions { modules: Some(96), seed: 2015, scale: 0.03, ..RunOptions::default() })
            .unwrap()
    }

    #[test]
    fn fleets_without_a_module_per_tenant_are_an_error() {
        for n in [1, 2] {
            let opts = RunOptions { modules: Some(n), scale: 0.02, ..RunOptions::default() };
            assert_eq!(run(&opts).unwrap_err(), FleetTooSmall { modules: n });
        }
        let opts = RunOptions { modules: Some(3), scale: 0.02, ..RunOptions::default() };
        assert_eq!(run(&opts).unwrap().modules, 3);
    }

    #[test]
    fn all_policies_run_at_every_level() {
        let r = result();
        assert_eq!(r.rows.len(), 4 * 3);
        for row in &r.rows {
            assert_eq!(row.alphas.len(), 3);
            assert_eq!(row.makespans_s.len(), 3);
            assert!(row.makespans_s.iter().all(|m| m.is_finite() && *m > 0.0));
        }
    }

    #[test]
    fn budgets_are_respected_when_executed() {
        let r = result();
        for row in &r.rows {
            let budget = row.cm_w * r.modules as f64;
            // VaPc plans per job: the CPU domain is capped; DRAM and the
            // FS-free tenants can add ~2% (see the Fig. 9 discussion)
            assert!(
                row.total_power_w <= budget * 1.02,
                "{:?} @ {} W drew {:.0} over {:.0}",
                row.policy,
                row.cm_w,
                row.total_power_w,
                budget
            );
        }
    }

    #[test]
    fn greedy_never_loses_predicted_throughput() {
        let r = result();
        for cm in [95.0, 85.0, 78.0, 72.0] {
            let of = |p: PartitionPolicy| {
                r.rows
                    .iter()
                    .find(|x| x.cm_w == cm && x.policy == p)
                    .map(|x| x.predicted_throughput)
            };
            let greedy = of(PartitionPolicy::ThroughputGreedy).unwrap();
            for other in
                [PartitionPolicy::ProportionalToModules, PartitionPolicy::FairFloorPlusUniformAlpha]
            {
                if let Some(t) = of(other) {
                    assert!(greedy >= t - 1e-6, "greedy {greedy} < {other:?} {t} at {cm} W");
                }
            }
        }
    }

    #[test]
    fn uniform_alpha_policy_equalizes_alphas() {
        let r = result();
        for row in &r.rows {
            if row.policy == PartitionPolicy::FairFloorPlusUniformAlpha {
                let a0 = row.alphas[0];
                assert!(
                    row.alphas.iter().all(|a| (a - a0).abs() < 0.02),
                    "alphas not uniform: {:?}",
                    row.alphas
                );
            }
        }
    }

    #[test]
    fn render_and_csv_cover_all_rows() {
        let r = result();
        assert!(!render(&r).render().is_empty());
        let csv = to_csv(&r);
        assert_eq!(csv.lines().count(), r.rows.len() * 3 + 1);
    }
}
