//! Extension study: stale-PVT erosion under non-stationary fleets and
//! online re-calibration (paper §7 — "the calibration table is measured
//! once"; this study asks what that costs when the silicon keeps moving).
//!
//! A (scenario × re-calibration policy × cap) grid: each cell clones the
//! post-install fleet, applies DGEMM, solves a VaPc plan from the
//! install-time PVT, then steps simulated time while a seeded
//! [`vap_scenario::ScenarioRuntime`] perturbs the silicon (thermal
//! drift, aging, input entropy, sensor faults, budget shocks, module
//! churn). The operator half of the loop only sees what a real operator
//! would: faulted power readings feed a [`vap_obs::DriftDetector`], and
//! the [`RecalPolicy`] decides when to re-run the PVT sweep over the
//! modules the scenario actually touched. The table quantifies how much
//! of the VaPc speedup a stale table erodes (critical-path frequency vs
//! the stationary baseline) and how much each policy claws back.

use crate::experiments::common;
use crate::options::RunOptions;
use crate::render::{f, Table};
use vap_core::pvt::PowerVariationTable;
use vap_core::schemes::{apply_plan, PlanRequest, PowerPlan, SchemeId};
use vap_model::units::{Seconds, Watts};
use vap_obs::DriftDetector;
use vap_scenario::{observe_drift, Effect, RecalPolicy, Recalibrator, Scenario, ScenarioRuntime};
use vap_sim::cluster::Cluster;
use vap_workloads::catalog;
use vap_workloads::spec::{WorkloadId, WorkloadSpec};

/// Campaign horizon (simulated seconds). Long enough for every scenario
/// generator to place its full event schedule and for the drift
/// detector's warmup to pass well before the first perturbation wave.
pub const HORIZON_S: f64 = 3600.0;

/// Operator control period (simulated seconds): power readings, drift
/// detection, and re-calibration decisions happen once per step.
pub const DT_S: f64 = 30.0;

/// Per-module cap levels swept (W) — the feasible top of the paper's
/// ladder (a demand-response shock can scale these well below 68 W
/// mid-campaign, which is the point).
pub const CAP_LEVELS_W: [f64; 2] = [95.0, 80.0];

/// The re-calibration policies contrasted in the grid.
pub const POLICIES: [RecalPolicy; 3] =
    [RecalPolicy::Never, RecalPolicy::Periodic { every_s: 600.0 }, RecalPolicy::OnResidual];

/// One (scenario, policy, cap) cell, distilled.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftStudyRow {
    /// The perturbation scenario driven through the cell.
    pub scenario: Scenario,
    /// The re-calibration policy the operator ran.
    pub policy: RecalPolicy,
    /// Per-module cap level (W); the app budget is this times the
    /// modules still in service, times any active shock scale.
    pub cap_w_per_module: f64,
    /// Mean over steps of the slowest in-service module's effective
    /// frequency (GHz) — the critical path a bulk-synchronous app sees.
    pub mean_crit_ghz: f64,
    /// Mean fleet power over the horizon (W).
    pub mean_power_w: f64,
    /// Mean watts drawn above the plan's per-module allocations — the
    /// budget violation a stale table hides from the operator.
    pub overcap_w: f64,
    /// Drift-detector alerts raised over the horizon.
    pub alerts: u64,
    /// PVT sweeps performed.
    pub recals: u64,
    /// Plan re-solves (cap shocks, churn, and fresh tables force these).
    pub replans: u64,
    /// Steps on which the solver found the shocked budget infeasible and
    /// kept the previous plan programmed.
    pub infeasible: u64,
    /// Critical-path slowdown vs the same (policy, cap) cell under the
    /// null scenario, in percent; 0 for the null rows themselves.
    pub erosion_pct: f64,
}

/// The study's results.
#[derive(Debug, Clone)]
pub struct DriftStudyResult {
    /// One row per cell, scenario-major in [`Scenario::ALL`] order, then
    /// policy-major in [`POLICIES`] order, then cap in [`CAP_LEVELS_W`]
    /// order.
    pub rows: Vec<DriftStudyRow>,
    /// Fleet size used.
    pub modules: usize,
}

/// Everything a cell accumulates before erosion is computed grid-wide.
struct CellStats {
    mean_crit_ghz: f64,
    mean_power_w: f64,
    overcap_w: f64,
    alerts: u64,
    recals: u64,
    replans: u64,
    infeasible: u64,
}

/// Solve and program a VaPc plan for the in-service modules under the
/// (possibly shocked) budget. `Err` means the budget was infeasible and
/// nothing was re-programmed.
fn replan(
    cluster: &mut Cluster,
    pvt: &PowerVariationTable,
    app: &WorkloadSpec,
    active: &[usize],
    budget: Watts,
    seed: u64,
) -> Option<PowerPlan> {
    let req = PlanRequest { budget, module_ids: active, workload: app, pvt, seed };
    let plan = SchemeId::VaPc.plan(cluster, &req).ok()?;
    apply_plan(&plan, cluster);
    Some(plan)
}

fn run_cell(
    template: &Cluster,
    pvt0: &PowerVariationTable,
    scenario: Scenario,
    policy: RecalPolicy,
    cap_w: f64,
    seed: u64,
) -> CellStats {
    let n = template.len();
    let micro = catalog::get(WorkloadId::Stream);
    let app = catalog::get(WorkloadId::Dgemm);
    let mut cluster = template.clone();
    app.apply_to(&mut cluster, seed);

    let mut pvt = pvt0.clone();
    let mut sc = ScenarioRuntime::new(scenario, n, HORIZON_S, seed);
    let mut recal = Recalibrator::new(policy);
    let mut detector = DriftDetector::new(n);
    let mut active: Vec<usize> = (0..n).collect();

    let budget = |active: &[usize], sc: &ScenarioRuntime| {
        Watts(cap_w * active.len() as f64 * sc.shock_scale())
    };
    let mut plan = replan(&mut cluster, &pvt, &app, &active, budget(&active, &sc), seed);
    let mut stats = CellStats {
        mean_crit_ghz: 0.0,
        mean_power_w: 0.0,
        overcap_w: 0.0,
        alerts: 0,
        recals: 0,
        replans: u64::from(plan.is_some()),
        infeasible: 0,
    };

    let steps = (HORIZON_S / DT_S) as u64;
    let mut fresh_alerts = 0u64;
    for step in 1..=steps {
        let t = step as f64 * DT_S;
        let mut need_replan = false;
        for effect in sc.advance_cluster(t, &mut cluster) {
            match effect {
                // Silent silicon movement and sensor corruption: exactly
                // what the operator does NOT see — no replan.
                Effect::Module(_) | Effect::Sensor(_) => {}
                Effect::Cap => need_replan = true,
                Effect::Failed(m) => {
                    active.retain(|&x| x != m);
                    if m < cluster.len() {
                        cluster.clear_cap(m);
                        cluster.set_activity(m, vap_model::power::PowerActivity::IDLE);
                    }
                    need_replan = true;
                }
                Effect::Replaced(m) => {
                    active.push(m);
                    active.sort_unstable();
                    app.apply_to_modules(&mut cluster, &[m], seed);
                    need_replan = true;
                }
            }
        }

        // The operator's sensor pass: faulted readings against the
        // install-time prediction, through the online drift detector.
        let alerts =
            observe_drift(&mut detector, &cluster, Some(&mut sc), active.iter().copied(), t);
        stats.alerts += alerts;
        fresh_alerts += alerts;

        if recal.due(t, fresh_alerts) {
            let affected: Vec<usize> =
                sc.take_dirty().into_iter().filter(|m| active.contains(m)).collect();
            pvt = recal.recalibrate(t, &pvt, &mut cluster, &micro, &affected, seed);
            fresh_alerts = 0;
            if !affected.is_empty() {
                // The sweep parked the affected modules on the micro
                // benchmark; hand them back to the app before replanning.
                app.apply_to_modules(&mut cluster, &affected, seed);
                need_replan = true;
            }
        }

        if need_replan {
            match replan(&mut cluster, &pvt, &app, &active, budget(&active, &sc), seed) {
                Some(p) => {
                    plan = Some(p);
                    stats.replans += 1;
                }
                // Infeasible (a deep shock): keep the previous caps
                // programmed; the overcap column shows the consequence.
                None => stats.infeasible += 1,
            }
        }

        let freqs = cluster.effective_frequencies();
        let crit = active
            .iter()
            .filter_map(|&i| freqs.get(i))
            .map(|f| f.value())
            .fold(f64::INFINITY, f64::min);
        if crit.is_finite() {
            stats.mean_crit_ghz += crit;
        }
        let powers = cluster.module_powers();
        let fleet_w: f64 = active.iter().filter_map(|&i| powers.get(i)).map(|p| p.value()).sum();
        stats.mean_power_w += fleet_w;
        if let Some(p) = &plan {
            // `active` stays sorted (it starts as 0..n, `retain` keeps the
            // order and a replacement is sorted in), so it can be searched
            let over: f64 = p
                .allocations
                .iter()
                .filter(|a| active.binary_search(&a.module_id).is_ok())
                .filter_map(|a| {
                    let power = powers.get(a.module_id)?;
                    Some((power.value() - a.p_module.value()).max(0.0))
                })
                .sum();
            stats.overcap_w += over;
        }
        cluster.step_all(Seconds(DT_S));
    }

    stats.mean_crit_ghz /= steps as f64;
    stats.mean_power_w /= steps as f64;
    stats.overcap_w /= steps as f64;
    stats.recals = recal.recals;
    stats
}

/// Run the study.
///
/// One post-install fleet template is built from the campaign seed; the
/// cells are independent and fan over `opts.threads()` workers on
/// private clones, byte-identical at any thread count. The horizon and
/// control period are fixed in simulated seconds (the detector's warmup
/// and the scenarios' event placement are time-calibrated), so `--scale`
/// is not consulted here.
pub fn run(opts: &RunOptions) -> DriftStudyResult {
    let n = opts.modules_or(96);
    let threads = opts.threads();
    let mut template = common::ha8k(n, opts.seed);
    let micro = catalog::get(WorkloadId::Stream);
    let pvt0 = PowerVariationTable::generate(&mut template, &micro, opts.seed);
    let template = template;

    let cells: Vec<(Scenario, RecalPolicy, f64)> = Scenario::ALL
        .into_iter()
        .flat_map(|s| {
            POLICIES.into_iter().flat_map(move |p| CAP_LEVELS_W.into_iter().map(move |c| (s, p, c)))
        })
        .collect();

    let stats = vap_exec::par_grid(&cells, threads, |&(scenario, policy, cap_w)| {
        run_cell(&template, &pvt0, scenario, policy, cap_w, opts.seed)
    });

    let rows: Vec<DriftStudyRow> = cells
        .iter()
        .zip(&stats)
        .map(|(&(scenario, policy, cap_w), s)| DriftStudyRow {
            scenario,
            policy,
            cap_w_per_module: cap_w,
            mean_crit_ghz: s.mean_crit_ghz,
            mean_power_w: s.mean_power_w,
            overcap_w: s.overcap_w,
            alerts: s.alerts,
            recals: s.recals,
            replans: s.replans,
            infeasible: s.infeasible,
            erosion_pct: 0.0,
        })
        .collect();

    // Erosion: each cell against its stationary twin (same policy, same
    // cap, null scenario) — positive means the perturbed fleet's
    // critical path is slower than the operator believes.
    let baselines: Vec<(RecalPolicy, f64, f64)> = rows
        .iter()
        .filter(|r| r.scenario == Scenario::Null)
        .map(|r| (r.policy, r.cap_w_per_module, r.mean_crit_ghz))
        .collect();
    let rows = rows
        .into_iter()
        .map(|mut r| {
            let base = baselines
                .iter()
                .find(|(p, c, _)| p.name() == r.policy.name() && *c == r.cap_w_per_module)
                .map(|&(_, _, g)| g);
            if let Some(g) = base {
                if g > 0.0 {
                    r.erosion_pct = 100.0 * (g - r.mean_crit_ghz) / g;
                }
            }
            r
        })
        .collect();

    DriftStudyResult { rows, modules: n }
}

/// Render the study.
pub fn render(result: &DriftStudyResult) -> Table {
    let mut t = Table::new(
        &format!("Stale-PVT drift study ({} modules, {:.0} s horizon)", result.modules, HORIZON_S),
        &[
            "Scenario",
            "Recal",
            "Cap [W/mod]",
            "Crit [GHz]",
            "Power [W]",
            "Overcap [W]",
            "Alerts",
            "Recals",
            "Erosion [%]",
        ],
    );
    for r in &result.rows {
        t.row(vec![
            r.scenario.name().to_string(),
            r.policy.name().to_string(),
            f(r.cap_w_per_module, 0),
            f(r.mean_crit_ghz, 3),
            f(r.mean_power_w, 1),
            f(r.overcap_w, 2),
            r.alerts.to_string(),
            r.recals.to_string(),
            f(r.erosion_pct, 2),
        ]);
    }
    t
}

/// CSV of all rows.
pub fn to_csv(result: &DriftStudyResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "scenario,policy,cap_w_per_module,mean_crit_ghz,mean_power_w,overcap_w,\
         alerts,recals,replans,infeasible,erosion_pct\n",
    );
    for r in &result.rows {
        let _ = writeln!(
            out,
            "{},{},{:.0},{:.6},{:.4},{:.4},{},{},{},{},{:.4}",
            r.scenario.name(),
            r.policy.name(),
            r.cap_w_per_module,
            r.mean_crit_ghz,
            r.mean_power_w,
            r.overcap_w,
            r.alerts,
            r.recals,
            r.replans,
            r.infeasible,
            r.erosion_pct,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> DriftStudyResult {
        run(&RunOptions { modules: Some(24), seed: 2015, ..RunOptions::default() })
    }

    #[test]
    fn grid_covers_every_cell() {
        let r = result();
        assert_eq!(r.rows.len(), Scenario::ALL.len() * POLICIES.len() * CAP_LEVELS_W.len());
        for row in &r.rows {
            assert!(row.mean_crit_ghz > 0.0, "{row:?} has no critical path");
            assert!(row.mean_power_w > 0.0, "{row:?} drew no power");
        }
        // null cells are their own baseline
        for row in r.rows.iter().filter(|r| r.scenario == Scenario::Null) {
            assert_eq!(row.erosion_pct, 0.0, "{row:?}");
        }
    }

    #[test]
    fn stale_tables_erode_and_recalibration_recovers() {
        // The headline: under a heatwave, never-recalibrating erodes the
        // critical path vs the stationary fleet, the drift detector sees
        // it, and alert-driven re-calibration claws speed back.
        let r = result();
        let cap = CAP_LEVELS_W[1];
        let row = |policy: RecalPolicy| {
            r.rows.iter().find(|x| {
                x.scenario == Scenario::Heatwave
                    && x.policy.name() == policy.name()
                    && x.cap_w_per_module == cap
            })
        };
        let never = row(RecalPolicy::Never).expect("never row");
        let onres = row(RecalPolicy::OnResidual).expect("onres row");
        assert!(
            never.erosion_pct > 0.0,
            "a heatwave must slow the critical path under a stale table: {never:?}"
        );
        assert!(onres.alerts > 0, "injected drift must raise alerts: {onres:?}");
        assert!(onres.recals > 0, "alerts must trigger sweeps: {onres:?}");
        assert!(
            onres.mean_crit_ghz >= never.mean_crit_ghz,
            "re-calibration must not be slower than the stale table: {:.4} vs {:.4}",
            onres.mean_crit_ghz,
            never.mean_crit_ghz
        );
        // never-recalibrate performs no sweeps, by definition
        assert_eq!(never.recals, 0);
    }

    #[test]
    fn render_and_csv_cover_all_rows() {
        let r = result();
        assert_eq!(render(&r).len(), r.rows.len());
        let csv = to_csv(&r);
        assert_eq!(csv.lines().count(), r.rows.len() + 1);
        assert!(csv.starts_with("scenario,policy,"));
    }
}
