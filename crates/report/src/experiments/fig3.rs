//! Fig. 3: synchronization overhead of MHD on 64 modules under uniform
//! caps.
//!
//! The x-axis is each rank's cumulative time in `MPI_Sendrecv` — transfer
//! plus waiting for neighbors, as the paper's "total time spent for
//! synchronizations" axis measures — and the y-axis its module power.
//! Constraining power inflates both the synchronization times and their
//! spread: the paper quotes `Vt` (over these times) of 1.55 uncapped
//! rising to 57.29 at `Cm = 60 W`, "very high because for one process,
//! the MPI_Sendrecv overhead is very small" (the straggler everyone else
//! waits for barely waits itself). A small static per-rank load jitter
//! (~2%, the OS/NUMA noise any real run carries) provides the uncapped
//! baseline spread.

use crate::experiments::common::{self, all_ids, offline_ccpu};
use crate::options::RunOptions;
use crate::render::{f, var, Table};
use vap_model::units::Watts;
use vap_mpi::comm::CommParams;
use vap_mpi::engine;
use vap_sim::rapl::RaplLimit;
use vap_stats::worst_case_variation;
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

/// One cap level's wait-time scatter.
#[derive(Debug, Clone)]
pub struct WaitScenario {
    /// Module constraint; `None` = uncapped.
    pub cm_w: Option<f64>,
    /// Per-rank cumulative `MPI_Sendrecv` time: transfer + wait (s).
    pub sendrecv_s: Vec<f64>,
    /// Per-rank module power (W).
    pub module_power_w: Vec<f64>,
}

impl WaitScenario {
    /// Worst-case synchronization-time variation (the paper's Fig. 3 `Vt`).
    pub fn vt(&self) -> f64 {
        worst_case_variation(&self.sendrecv_s).unwrap_or(f64::NAN)
    }

    /// Worst-case module power variation.
    pub fn vp(&self) -> f64 {
        worst_case_variation(&self.module_power_w).unwrap_or(f64::NAN)
    }

    /// Mean cumulative synchronization time across ranks.
    pub fn mean_wait(&self) -> f64 {
        self.sendrecv_s.iter().sum::<f64>() / self.sendrecv_s.len() as f64
    }
}

/// The Fig. 3 data set.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Scenarios: uncapped first, then `Cm ∈ {90, 80, 70, 60}`.
    pub scenarios: Vec<WaitScenario>,
    /// Fleet size (64 in the paper).
    pub modules: usize,
}

/// Run the Fig. 3 study (64 modules by default, per the paper).
pub fn run(opts: &RunOptions) -> Fig3Result {
    let n = opts.modules_or(64);
    let mut cluster = common::ha8k(n, opts.seed);
    let mhd = catalog::get(WorkloadId::Mhd);
    let ids = all_ids(&cluster);
    let comm = CommParams::infiniband_fdr();
    let program = mhd
        .program(opts.scale)
        .with_load_multipliers(common::load_jitter(n, 0.005, opts.seed))
        .with_compute_noise(0.02, opts.seed);
    let boundedness = mhd.boundedness(cluster.spec().pstates.f_max());

    mhd.apply_to(&mut cluster, opts.seed);
    cluster.uncap_all();

    let mut scenarios = Vec::new();
    let mut push_scenario = |cluster: &vap_sim::cluster::Cluster, cm: Option<f64>| {
        let run = engine::run_on_cluster(&program, cluster, &ids, &boundedness, &comm);
        let sendrecv_s =
            run.sync_wait.iter().zip(&run.comm_time).map(|(w, c)| w.value() + c.value()).collect();
        scenarios.push(WaitScenario {
            cm_w: cm,
            sendrecv_s,
            module_power_w: cluster.module_powers().iter().map(|p| p.value()).collect(),
        });
    };

    push_scenario(&cluster, None);
    for cm in [90.0, 80.0, 70.0, 60.0] {
        let ccpu = offline_ccpu(&cluster, &mhd, Watts(cm), opts.seed);
        cluster.set_uniform_cap(RaplLimit::with_default_window(ccpu));
        push_scenario(&cluster, Some(cm));
    }
    cluster.uncap_all();
    Fig3Result { scenarios, modules: n }
}

/// Render the summary table.
pub fn render(result: &Fig3Result) -> Table {
    let mut t = Table::new(
        &format!(
            "Fig. 3: MHD synchronization overhead under uniform caps ({} modules)",
            result.modules
        ),
        &["Cm [W]", "Mean sendrecv [s]", "Max sendrecv [s]", "Vt", "Vp"],
    );
    for s in &result.scenarios {
        let max_wait = s.sendrecv_s.iter().copied().fold(0.0, f64::max);
        t.row(vec![
            s.cm_w.map_or("No".to_string(), |x| f(x, 0)),
            f(s.mean_wait(), 2),
            f(max_wait, 2),
            var(s.vt()),
            var(s.vp()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig3Result {
        run(&RunOptions { modules: Some(64), seed: 2015, scale: 0.05, ..RunOptions::default() })
    }

    #[test]
    fn capping_inflates_wait_time_and_its_spread() {
        let r = result();
        assert_eq!(r.scenarios.len(), 5);
        let uncapped = &r.scenarios[0];
        let tightest = r.scenarios.last().unwrap();
        assert_eq!(tightest.cm_w, Some(60.0));
        // mean wait grows as power tightens
        assert!(
            tightest.mean_wait() > uncapped.mean_wait() * 1.5,
            "waits: uncapped {} vs capped {}",
            uncapped.mean_wait(),
            tightest.mean_wait()
        );
        // and the wait spread (paper's Vt) explodes relative to uncapped
        assert!(tightest.vt() > uncapped.vt());
        assert!(tightest.vt() > 5.0, "tight-cap wait Vt = {}", tightest.vt());
    }

    #[test]
    fn slowest_rank_waits_least() {
        let r = result();
        let s = r.scenarios.last().unwrap();
        // the rank with minimal sendrecv time is the straggler everyone
        // else waits for; it pays transfer cost but barely waits
        let min_wait = s.sendrecv_s.iter().copied().fold(f64::MAX, f64::min);
        let max_wait = s.sendrecv_s.iter().copied().fold(0.0f64, f64::max);
        assert!(min_wait < max_wait / 5.0, "min {min_wait} vs max {max_wait}");
    }

    #[test]
    fn uncapped_vt_is_finite_and_modest() {
        // paper: Vt = 1.55 uncapped — load jitter, not power, drives it
        let r = result();
        let uncapped = &r.scenarios[0];
        assert!(uncapped.vt().is_finite());
        assert!(uncapped.vt() < 20.0, "uncapped Vt = {}", uncapped.vt());
    }

    #[test]
    fn power_stays_near_cap_under_constraint() {
        let r = result();
        let s = &r.scenarios[2]; // Cm = 80
        let mean_p = s.module_power_w.iter().sum::<f64>() / s.module_power_w.len() as f64;
        assert!((mean_p - 80.0).abs() < 8.0, "mean module power {mean_p}");
    }

    #[test]
    fn render_has_all_rows() {
        let t = render(&run(&RunOptions {
            modules: Some(16),
            seed: 1,
            scale: 0.02,
            ..RunOptions::default()
        }));
        assert_eq!(t.len(), 5);
        assert!(t.render().contains("Mean sendrecv"));
    }
}
