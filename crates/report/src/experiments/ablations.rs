//! Ablation studies of the reproduction's design choices.
//!
//! Three questions the paper raises but cannot isolate on real hardware —
//! a simulator can:
//!
//! 1. **Where does the variation live?** Decompose fleet power variation
//!    into die-to-die and within-die contributions (§2.1 lists both).
//! 2. **Does temperature compound it?** §2.1: "other factors such as
//!    temperature ... can cause additional variations" — apply a rack
//!    inlet-temperature gradient on top of manufacturing variation.
//! 3. **Does the PVT microbenchmark matter?** §6.1 proposes multiple
//!    PVTs; quantify per-workload calibration error under a *STREAM PVT,
//!    an EP PVT, and the better of the two.
//! 4. **How does the benefit scale with the variability itself?** The
//!    paper predicts manufacturing variation will worsen (§2.1: "these
//!    manufacturing variations ... are expected to worsen"); sweep the
//!    leakage spread and measure the VaFs-over-Naive speedup at a tight
//!    budget — the payoff curve of variation-aware budgeting on future
//!    silicon.

use crate::experiments::common::{self, all_ids};
use crate::options::RunOptions;
use crate::render::{f, Table};
use vap_core::budgeter::Budgeter;
use vap_core::pmmd::run_region;
use vap_core::pmt::PowerModelTable;
use vap_core::pvt::PowerVariationTable;
use vap_core::schemes::SchemeId;
use vap_core::testrun::single_module_test_run;
use vap_model::systems::SystemSpec;
use vap_model::thermal::RackGradient;
use vap_model::units::Watts;
use vap_model::variability::VariabilityModel;
use vap_mpi::comm::CommParams;
use vap_sim::cluster::Cluster;
use vap_stats::{worst_case_variation, Summary};
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

/// Fleet power statistics for one variability configuration.
#[derive(Debug, Clone)]
pub struct VariationSource {
    /// Configuration label.
    pub label: &'static str,
    /// Fleet CPU power standard deviation (W).
    pub std_dev_w: f64,
    /// Fleet CPU power worst-case variation.
    pub vp: f64,
}

/// Calibration error of one workload under each candidate PVT.
#[derive(Debug, Clone)]
pub struct PvtChoiceRow {
    /// The workload.
    pub workload: WorkloadId,
    /// MAPE under the *STREAM PVT (%).
    pub stream_pct: f64,
    /// MAPE under the NPB-EP PVT (%).
    pub ep_pct: f64,
}

impl PvtChoiceRow {
    /// The better microbenchmark for this workload.
    pub fn winner(&self) -> WorkloadId {
        if self.stream_pct <= self.ep_pct {
            WorkloadId::Stream
        } else {
            WorkloadId::Ep
        }
    }
}

/// One point of the variability-payoff sweep.
///
/// The Naive-to-VaFs gap mixes two effects; the two ratios separate them:
/// `vs_naive` includes *application*-awareness (Naive budgets from TDP,
/// not the app's profile), while `vs_pc` isolates *variation*-awareness
/// (Pc is application-aware but spreads power uniformly).
#[derive(Debug, Clone)]
pub struct PayoffPoint {
    /// Leakage sigma the fleet was manufactured with.
    pub leakage_sigma: f64,
    /// The fleet's uncapped CPU power Vp at that sigma.
    pub vp: f64,
    /// VaFs speedup over Naive (application + variation awareness).
    pub vs_naive: f64,
    /// VaFs speedup over Pc (variation awareness alone).
    pub vs_pc: f64,
}

/// All ablation results.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Ablation 1: variation sources.
    pub sources: Vec<VariationSource>,
    /// Ablation 2: `(Vp without gradient, Vp with 20→35 °C gradient)`.
    pub thermal_vp: (f64, f64),
    /// Ablation 3: PVT choice per workload.
    pub pvt_choice: Vec<PvtChoiceRow>,
    /// Ablation 4: VaFs-over-Naive payoff as variability grows.
    pub payoff: Vec<PayoffPoint>,
    /// Fleet size used.
    pub modules: usize,
}

/// Run all four ablations.
///
/// Every sub-study fans its independent cells (sigma points, variability
/// configurations, PVT rows, gradient on/off) over `opts.threads()`
/// workers; results are identical at any thread count.
pub fn run(opts: &RunOptions) -> AblationResult {
    let n = opts.modules_or(1920);
    let threads = opts.threads();
    AblationResult {
        sources: variation_sources(n, opts.seed, threads),
        thermal_vp: thermal_compounding(n, opts.seed, threads),
        pvt_choice: pvt_choice(n.min(256), opts.seed, threads),
        payoff: payoff_sweep(n.min(384), opts.seed, opts.scale, threads),
        modules: n,
    }
}

/// Ablation 4: manufacture fleets with increasing leakage spread and
/// measure the VaFs-over-Naive speedup for NPB-BT at `Cm = 55 W` (a
/// tight-but-feasible budget at every sigma).
fn payoff_sweep(n: usize, seed: u64, scale: f64, threads: usize) -> Vec<PayoffPoint> {
    let bt = catalog::get(WorkloadId::Bt);
    let comm = CommParams::infiniband_fdr();
    let program = bt.program(scale.min(0.2)); // capped: 2×6 runs below
    let sigmas = [0.0, 0.05, 0.10, 0.20, 0.30, 0.40];
    vap_exec::par_grid(&sigmas, threads, |&sigma| {
        let mut spec = SystemSpec::ha8k();
        spec.variability.leakage_sigma = sigma;
        let mut cluster = Cluster::with_size(spec, n, seed);
        cluster.set_activity_all(bt.activity);
        let powers: Vec<f64> = cluster.cpu_powers().iter().map(|p| p.value()).collect();
        let vp = worst_case_variation(&powers).unwrap_or(f64::NAN);

        let budgeter = Budgeter::install(&mut cluster, seed);
        let ids = all_ids(&cluster);
        let budget = Watts(55.0 * n as f64);
        let time_of = |scheme: SchemeId, cluster: &mut Cluster| {
            // 55 W/module is feasible for BT at every sigma swept; an
            // infeasible plan poisons the point's ratios with NaN
            // instead of panicking
            match budgeter.plan(cluster, scheme, &bt, budget, &ids) {
                Ok(plan) => {
                    run_region(cluster, &plan, &bt, &program, &ids, &comm, seed).makespan().value()
                }
                Err(_) => f64::NAN,
            }
        };
        let naive = time_of(SchemeId::Naive, &mut cluster);
        let pc = time_of(SchemeId::Pc, &mut cluster);
        let vafs = time_of(SchemeId::VaFs, &mut cluster);
        PayoffPoint { leakage_sigma: sigma, vp, vs_naive: naive / vafs, vs_pc: pc / vafs }
    })
}

/// Ablation 1: sample the same fleet three ways and survey DGEMM-activity
/// CPU power.
fn variation_sources(n: usize, seed: u64, threads: usize) -> Vec<VariationSource> {
    let base = SystemSpec::ha8k();
    let configs: Vec<(&'static str, VariabilityModel)> = vec![
        ("full (die-to-die + within-die)", base.variability),
        ("die-to-die only", VariabilityModel { within_die_sigma: 0.0, ..base.variability }),
        (
            "within-die only",
            VariabilityModel {
                dynamic_sigma: 0.0,
                leakage_sigma: 0.0,
                dram_sigma: 0.0,
                ..base.variability
            },
        ),
        ("none (control)", VariabilityModel::none()),
    ];
    vap_exec::par_grid(&configs, threads, |&(label, variability)| {
        let mut spec = base.clone();
        spec.variability = variability;
        let mut cluster = Cluster::with_size(spec, n, seed);
        cluster.set_activity_all(catalog::get(WorkloadId::Dgemm).activity);
        let powers: Vec<f64> = cluster.cpu_powers().iter().map(|p| p.value()).collect();
        match Summary::of(&powers) {
            Some(s) => {
                VariationSource { label, std_dev_w: s.std_dev, vp: s.worst_case_variation() }
            }
            // empty fleet: render as NaN, don't panic
            None => VariationSource { label, std_dev_w: f64::NAN, vp: f64::NAN },
        }
    })
}

/// Ablation 2: manufacturing variation with and without a 20→35 °C rack
/// inlet gradient.
fn thermal_compounding(n: usize, seed: u64, threads: usize) -> (f64, f64) {
    let spec = SystemSpec::ha8k();
    let act = catalog::get(WorkloadId::Dgemm).activity;
    let gradients = [None, Some(RackGradient { cold_c: 20.0, hot_c: 35.0 })];
    let vps = vap_exec::par_grid(&gradients, threads, |&gradient| {
        let mut cluster = Cluster::with_thermal(spec.clone(), n, seed, gradient);
        cluster.set_activity_all(act);
        let powers: Vec<f64> = cluster.cpu_powers().iter().map(|p| p.value()).collect();
        // an empty fleet renders as NaN, not a panic
        worst_case_variation(&powers).unwrap_or(f64::NAN)
    });
    (vps[0], vps[1])
}

/// Ablation 3: calibration error under STREAM vs EP PVTs.
fn pvt_choice(n: usize, seed: u64, threads: usize) -> Vec<PvtChoiceRow> {
    let mut cluster = common::ha8k(n, seed);
    let ids = all_ids(&cluster);
    let stream_pvt = PowerVariationTable::generate_with_threads(
        &mut cluster,
        &catalog::get(WorkloadId::Stream),
        seed,
        threads,
    );
    let ep_pvt = PowerVariationTable::generate_with_threads(
        &mut cluster,
        &catalog::get(WorkloadId::Ep),
        seed,
        threads,
    );
    let cluster = cluster; // pristine post-PVT template, cloned per row

    vap_exec::par_grid(&WorkloadId::EVALUATED, threads, |&w| {
        let spec = catalog::get(w);
        let mut fleet = cluster.clone();
        let test = single_module_test_run(&mut fleet, ids[0], &spec, seed);
        // calibration only errs on an empty/unknown module list; a
        // degenerate fleet renders as NaN instead of panicking
        let err_vs = |pvt: &PowerVariationTable, oracle: &PowerModelTable| {
            PowerModelTable::calibrate(pvt, &test, &ids)
                .ok()
                .and_then(|pmt| pmt.prediction_error_vs(oracle))
                .unwrap_or(f64::NAN)
        };
        match PowerModelTable::oracle(&mut fleet, &spec, &ids, seed) {
            Ok(oracle) => PvtChoiceRow {
                workload: w,
                stream_pct: err_vs(&stream_pvt, &oracle),
                ep_pct: err_vs(&ep_pvt, &oracle),
            },
            Err(_) => PvtChoiceRow { workload: w, stream_pct: f64::NAN, ep_pct: f64::NAN },
        }
    })
}

/// Render all three ablations.
pub fn render(result: &AblationResult) -> String {
    let mut out = String::new();

    let mut t = Table::new(
        &format!("Ablation 1: variation sources ({} modules, DGEMM activity)", result.modules),
        &["Configuration", "CPU power std dev [W]", "Vp"],
    );
    for s in &result.sources {
        t.row(vec![s.label.to_string(), f(s.std_dev_w, 2), f(s.vp, 3)]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new(
        "Ablation 2: thermal gradient compounding (20 -> 35 C inlet)",
        &["Configuration", "Vp"],
    );
    t.row(vec!["manufacturing only".to_string(), f(result.thermal_vp.0, 3)]);
    t.row(vec!["manufacturing + gradient".to_string(), f(result.thermal_vp.1, 3)]);
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new(
        "Ablation 3: PVT microbenchmark choice (calibration MAPE %)",
        &["Workload", "*STREAM PVT", "NPB-EP PVT", "Better"],
    );
    for r in &result.pvt_choice {
        t.row(vec![
            r.workload.to_string(),
            f(r.stream_pct, 2),
            f(r.ep_pct, 2),
            r.winner().name().to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new(
        "Ablation 4: payoff vs variability (NPB-BT, Cm = 55 W)",
        &["Leakage sigma", "Fleet Vp", "VaFs vs Naive", "VaFs vs Pc"],
    );
    for p in &result.payoff {
        t.row(vec![
            f(p.leakage_sigma, 2),
            f(p.vp, 3),
            format!("{:.2}x", p.vs_naive),
            format!("{:.2}x", p.vs_pc),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> AblationResult {
        run(&RunOptions { modules: Some(192), seed: 2015, scale: 0.05, ..RunOptions::default() })
    }

    #[test]
    fn die_to_die_dominates_within_die() {
        let r = result();
        let by_label = |l: &str| r.sources.iter().find(|s| s.label.starts_with(l)).unwrap();
        let full = by_label("full");
        let d2d = by_label("die-to-die");
        let wd = by_label("within-die");
        let none = by_label("none");
        assert!(full.std_dev_w >= d2d.std_dev_w - 0.05);
        assert!(d2d.std_dev_w > wd.std_dev_w, "{} vs {}", d2d.std_dev_w, wd.std_dev_w);
        // within-die averages out over 12 cores but is not zero
        assert!(wd.std_dev_w > 0.1);
        assert_eq!(none.vp, 1.0);
        assert!(none.std_dev_w < 1e-9); // floating-point dust only
    }

    #[test]
    fn thermal_gradient_widens_variation() {
        let r = result();
        let (base, hot) = r.thermal_vp;
        assert!(hot > base, "gradient should compound: {base} -> {hot}");
        assert!(hot < base * 1.5, "but not explode: {hot}");
    }

    #[test]
    fn stream_pvt_wins_for_stream_and_memory_coupled_codes() {
        let r = result();
        let stream_row = r.pvt_choice.iter().find(|x| x.workload == WorkloadId::Stream).unwrap();
        assert_eq!(stream_row.winner(), WorkloadId::Stream);
        assert!(stream_row.stream_pct < 0.5);
    }

    #[test]
    fn some_workload_prefers_a_different_microbenchmark() {
        // the motivation for multi-PVT: no single microbenchmark is best
        // for everything (BT's mix correlates better with EP here)
        let r = result();
        let winners: std::collections::BTreeSet<_> =
            r.pvt_choice.iter().map(|x| x.winner()).collect();
        assert!(winners.len() >= 2, "expected both microbenchmarks to win somewhere");
    }

    #[test]
    fn benefit_grows_with_variability() {
        let r = result();
        let first = r.payoff.first().unwrap();
        let last = r.payoff.last().unwrap();
        // with (almost) no leakage variability, variation-awareness alone
        // buys little over application-aware uniform capping
        assert!((first.vs_pc - 1.0).abs() < 0.15, "sigma 0 VaFs/Pc {}", first.vs_pc);
        // application-awareness is worth something even at sigma 0
        assert!(first.vs_naive > 1.0);
        // more variability → more for variation-awareness to win back
        assert!(
            last.vs_pc > first.vs_pc + 0.2,
            "variation payoff should grow: {} -> {}",
            first.vs_pc,
            last.vs_pc
        );
        assert!(last.vs_naive > first.vs_naive + 0.2);
        // and the fleet Vp grows monotonically with sigma
        for pair in r.payoff.windows(2) {
            assert!(pair[1].vp >= pair[0].vp - 0.02);
        }
    }

    #[test]
    fn render_contains_all_four_tables() {
        let s = render(&result());
        assert!(s.contains("Ablation 1"));
        assert!(s.contains("Ablation 2"));
        assert!(s.contains("Ablation 3"));
        assert!(s.contains("Ablation 4"));
        assert!(s.contains("within-die"));
    }
}
