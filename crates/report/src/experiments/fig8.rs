//! Fig. 8: detailed behaviour of the VaFs scheme.
//!
//! * **(i)** VaFs inverts Fig. 2(iii)'s picture: execution-time variation
//!   collapses (`Vt` ≈ 1.12–1.15 for *DGEMM, ≈ 1.0 for MHD) while power
//!   variation *rises* (`Vp` up to ≈ 1.4) — variation-aware budgeting
//!   trades power homogeneity for performance homogeneity.
//! * **(ii)** MHD on 64 modules: the synchronization-wait explosion of
//!   Fig. 3 (`Vt` up to 57) is tamed to ≈ 1.6–1.8.

use crate::experiments::common::{self, all_ids, budget_for, cs_kw};
use crate::options::RunOptions;
use crate::render::{f, var, Table};
use vap_core::budgeter::Budgeter;
use vap_core::pmmd::run_region;
use vap_core::schemes::SchemeId;
use vap_mpi::comm::CommParams;
use vap_mpi::engine;
use vap_stats::worst_case_variation;
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

/// One VaFs scenario of panel (i).
#[derive(Debug, Clone)]
pub struct VafsScenario {
    /// Per-module constraint level (W).
    pub cm_w: f64,
    /// Per-rank times normalized to the uncapped run.
    pub norm_time: Vec<f64>,
    /// Per-module module power (W).
    pub module_power_w: Vec<f64>,
}

impl VafsScenario {
    /// Worst-case normalized-time variation.
    pub fn vt(&self) -> f64 {
        worst_case_variation(&self.norm_time).unwrap_or(f64::NAN)
    }

    /// Worst-case module power variation.
    pub fn vp(&self) -> f64 {
        worst_case_variation(&self.module_power_w).unwrap_or(f64::NAN)
    }
}

/// One synchronization-time scenario of panel (ii).
#[derive(Debug, Clone)]
pub struct VafsWaitScenario {
    /// Per-module constraint level (W).
    pub cm_w: f64,
    /// Per-rank cumulative `MPI_Sendrecv` time: transfer + wait (s).
    pub sendrecv_s: Vec<f64>,
    /// Worst-case synchronization-time variation.
    pub vt_wait: f64,
}

/// The Fig. 8 data set.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Panel (i): (workload, scenarios over Cs levels).
    pub panels: Vec<(WorkloadId, Vec<VafsScenario>)>,
    /// Panel (ii): MHD 64-module wait scenarios.
    pub waits: Vec<VafsWaitScenario>,
    /// Fleet size for panel (i).
    pub modules: usize,
}

/// One panel-(i) workload: uncapped baseline plus a VaFs scenario per
/// constraint level, executed on the panel's private fleet clone.
fn run_panel(
    budgeter: &Budgeter,
    mut cluster: vap_sim::cluster::Cluster,
    w: WorkloadId,
    ids: &[usize],
    comm: &CommParams,
    opts: &RunOptions,
) -> Vec<VafsScenario> {
    let n = cluster.len();
    let spec = catalog::get(w);
    let program = spec.program(opts.scale);
    let boundedness = spec.boundedness(cluster.spec().pstates.f_max());

    // uncapped baseline
    spec.apply_to(&mut cluster, opts.seed);
    cluster.uncap_all();
    let baseline = engine::run_on_cluster(&program, &cluster, ids, &boundedness, comm);

    let mut scenarios = Vec::new();
    for &cm in &common::CM_LEVELS_W {
        let budget = budget_for(cm, n);
        let Ok(feas) = budgeter.feasibility(&mut cluster, &spec, budget, ids) else {
            continue; // empty module list — nothing to run
        };
        if !feas.runnable() {
            continue;
        }
        let plan = match budgeter.plan(&mut cluster, SchemeId::VaFs, &spec, budget, ids) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let report = run_region(&mut cluster, &plan, &spec, &program, ids, comm, opts.seed);
        scenarios.push(VafsScenario {
            cm_w: cm,
            // both runs cover `ids`, so the rank counts match; a mismatch
            // renders as NaN rather than panicking mid-campaign
            norm_time: report
                .run
                .normalized_to(&baseline)
                .unwrap_or_else(|| vec![f64::NAN; ids.len()]),
            module_power_w: report.module_power.iter().map(|p| p.value()).collect(),
        });
    }
    scenarios
}

/// Run the Fig. 8 study.
///
/// Panel (i)'s two workloads run on private clones of the pristine
/// post-PVT fleet, fanned over `opts.threads()` workers with identical
/// results at any thread count; panel (ii) is a single serial scenario
/// chain on its own 64-module fleet.
pub fn run(opts: &RunOptions) -> Fig8Result {
    let n = opts.modules_or(1920);
    let threads = opts.threads();
    let comm = CommParams::infiniband_fdr();

    // Panel (i): full fleet, *DGEMM and MHD.
    let mut cluster = common::ha8k(n, opts.seed);
    let budgeter = Budgeter::install_with_threads(&mut cluster, opts.seed, threads);
    let cluster = cluster; // pristine post-PVT template, cloned per panel
    let ids = all_ids(&cluster);
    let panel_workloads = [WorkloadId::Dgemm, WorkloadId::Mhd];
    let panels = vap_exec::par_grid(&panel_workloads, threads, |&w| {
        (w, run_panel(&budgeter, cluster.clone(), w, &ids, &comm, opts))
    });

    // Panel (ii): MHD on 64 modules.
    let n64 = opts.modules.map(|m| m.min(64)).unwrap_or(64);
    let mut small = common::ha8k(n64, opts.seed ^ 0x64);
    let budgeter64 = Budgeter::install_with_threads(&mut small, opts.seed ^ 0x64, threads);
    let ids64 = all_ids(&small);
    let mhd = catalog::get(WorkloadId::Mhd);
    // same load jitter and per-iteration noise as the Fig. 3 study this
    // panel is compared against
    let program64 = mhd
        .program(opts.scale)
        .with_load_multipliers(common::load_jitter(n64, 0.005, opts.seed))
        .with_compute_noise(0.02, opts.seed);
    let mut waits = Vec::new();
    for cm in [90.0, 80.0, 70.0, 60.0] {
        let budget = budget_for(cm, n64);
        let plan = match budgeter64.plan(&mut small, SchemeId::VaFs, &mhd, budget, &ids64) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let report = run_region(&mut small, &plan, &mhd, &program64, &ids64, &comm, opts.seed);
        let sendrecv_s: Vec<f64> = report
            .run
            .sync_wait
            .iter()
            .zip(&report.run.comm_time)
            .map(|(w, c)| w.value() + c.value())
            .collect();
        waits.push(VafsWaitScenario {
            cm_w: cm,
            vt_wait: worst_case_variation(&sendrecv_s).unwrap_or(f64::NAN),
            sendrecv_s,
        });
    }

    Fig8Result { panels, waits, modules: n }
}

/// Render both panels.
pub fn render(result: &Fig8Result) -> String {
    let mut out = String::new();
    for (w, scenarios) in &result.panels {
        let mut t = Table::new(
            &format!("Fig. 8(i) {} under VaFs ({} modules)", w, result.modules),
            &["Cs [kW]", "Cm [W]", "Mean norm. time", "Vt", "Vp"],
        );
        for s in scenarios {
            let mean_t = s.norm_time.iter().sum::<f64>() / s.norm_time.len() as f64;
            t.row(vec![
                f(cs_kw(s.cm_w, result.modules), 0),
                f(s.cm_w, 0),
                f(mean_t, 2),
                var(s.vt()),
                var(s.vp()),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    let mut t = Table::new(
        "Fig. 8(ii) MHD synchronization overhead under VaFs (64 modules)",
        &["Cm [W]", "Mean sendrecv [s]", "Vt"],
    );
    for s in &result.waits {
        let mean = s.sendrecv_s.iter().sum::<f64>() / s.sendrecv_s.len() as f64;
        t.row(vec![f(s.cm_w, 0), f(mean, 2), var(s.vt_wait)]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig8Result {
        run(&RunOptions { modules: Some(96), seed: 2015, scale: 0.05, ..RunOptions::default() })
    }

    #[test]
    fn vafs_collapses_vt_and_raises_vp() {
        let r = result();
        let (w, dgemm) = &r.panels[0];
        assert_eq!(*w, WorkloadId::Dgemm);
        assert!(!dgemm.is_empty());
        for s in dgemm {
            // paper Fig. 8(i): DGEMM Vt 1.12-1.15 under VaFs (vs up to
            // 1.64 under uniform caps)
            assert!(s.vt() < 1.25, "DGEMM VaFs Vt at {} W = {}", s.cm_w, s.vt());
            // power variation persists or grows — VaFs feeds hungry
            // modules more power
            assert!(s.vp() > 1.1, "DGEMM VaFs Vp at {} W = {}", s.cm_w, s.vp());
        }
        let (_, mhd) = &r.panels[1];
        for s in mhd {
            assert!(s.vt() < 1.1, "MHD VaFs Vt = {}", s.vt());
        }
    }

    #[test]
    fn vp_grows_as_constraint_tightens() {
        let r = result();
        let (_, mhd) = &r.panels[1];
        if mhd.len() >= 2 {
            assert!(
                mhd.last().unwrap().vp() >= mhd.first().unwrap().vp() - 0.05,
                "Vp should not shrink as Cm tightens"
            );
        }
    }

    #[test]
    fn wait_variation_is_tamed_versus_fig3() {
        let r = result();
        assert!(!r.waits.is_empty());
        for s in &r.waits {
            // paper: 1.63-1.76 under VaFs, vs up to 57 under uniform caps
            assert!(s.vt_wait < 5.0, "VaFs wait Vt at {} W = {}", s.cm_w, s.vt_wait);
        }
    }

    #[test]
    fn render_has_three_tables() {
        let s = render(&result());
        assert!(s.contains("Fig. 8(i) *DGEMM"));
        assert!(s.contains("Fig. 8(i) MHD"));
        assert!(s.contains("Fig. 8(ii)"));
    }
}
