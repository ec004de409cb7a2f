//! Fig. 2: module power and performance variation on HA8K under uniform
//! power caps — the paper's §4 analysis, for *DGEMM and MHD.
//!
//! * **(i)** uncapped power characteristics: per-module CPU / DRAM /
//!   module power with average, standard deviation and worst-case
//!   variation `Vp` (paper: DGEMM module 112.8 W ± 4.51, Vp = 1.30; DRAM
//!   Vp ≈ 2.8).
//! * **(ii)** CPU frequency vs CPU power under module constraints `Cm`
//!   enforced as uniform RAPL caps `Ccpu` (determined offline from the
//!   application's power characteristics): power variation collapses onto
//!   the cap while frequency variation `Vf` grows as `Cm` tightens.
//! * **(iii)** per-rank execution time (normalized to the uncapped run of
//!   the same rank) vs module power: the unsynchronized *DGEMM exposes
//!   `Vt` up to ≈1.6; MHD's per-step synchronization hides it (`Vt` ≈ 1).

use crate::experiments::common::{self, all_ids, offline_ccpu};
use crate::options::RunOptions;
use crate::render::{f, var, Table};
use vap_model::units::Watts;
use vap_mpi::comm::CommParams;
use vap_mpi::engine;
use vap_sim::cluster::Cluster;
use vap_sim::rapl::RaplLimit;
use vap_stats::{worst_case_variation, Summary};
use vap_workloads::catalog;
use vap_workloads::spec::{WorkloadId, WorkloadSpec};

/// Fleet power summary for one domain (Fig. 2(i) annotation line).
#[derive(Debug, Clone, Copy)]
pub struct DomainStats {
    /// Fleet average in watts.
    pub avg: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Worst-case variation `max/min`.
    pub vp: f64,
}

impl DomainStats {
    fn of(values: &[f64]) -> DomainStats {
        match Summary::of(values) {
            Some(s) => {
                DomainStats { avg: s.mean, std_dev: s.std_dev, vp: s.worst_case_variation() }
            }
            // empty/non-finite population: render as NaN, don't panic
            None => DomainStats { avg: f64::NAN, std_dev: f64::NAN, vp: f64::NAN },
        }
    }
}

/// One capped scenario of Fig. 2(ii)/(iii).
#[derive(Debug, Clone)]
pub struct CapScenario {
    /// The module-level constraint, `None` for the uncapped baseline.
    pub cm_w: Option<f64>,
    /// The statically derived CPU cap (None when uncapped).
    pub ccpu_w: Option<f64>,
    /// Per-module effective frequency (GHz).
    pub freqs_ghz: Vec<f64>,
    /// Per-module CPU power (W).
    pub cpu_power_w: Vec<f64>,
    /// Per-module module power (W).
    pub module_power_w: Vec<f64>,
    /// Per-rank execution time normalized to the uncapped run.
    pub norm_time: Vec<f64>,
}

impl CapScenario {
    /// Worst-case CPU frequency variation.
    pub fn vf(&self) -> f64 {
        worst_case_variation(&self.freqs_ghz).unwrap_or(f64::NAN)
    }

    /// Worst-case CPU power variation (the (ii) panels).
    pub fn vp_cpu(&self) -> f64 {
        worst_case_variation(&self.cpu_power_w).unwrap_or(f64::NAN)
    }

    /// Worst-case module power variation (the (iii) panels).
    pub fn vp_module(&self) -> f64 {
        worst_case_variation(&self.module_power_w).unwrap_or(f64::NAN)
    }

    /// Worst-case execution time variation across ranks.
    pub fn vt(&self) -> f64 {
        worst_case_variation(&self.norm_time).unwrap_or(f64::NAN)
    }
}

/// The Fig. 2 data for one workload.
#[derive(Debug, Clone)]
pub struct Fig2Workload {
    /// The workload.
    pub workload: WorkloadId,
    /// (i): uncapped per-module powers.
    pub cpu_w: Vec<f64>,
    /// (i): uncapped per-module DRAM powers.
    pub dram_w: Vec<f64>,
    /// (i): uncapped per-module module powers.
    pub module_w: Vec<f64>,
    /// Scenarios: uncapped first, then tightening `Cm` levels.
    pub scenarios: Vec<CapScenario>,
}

impl Fig2Workload {
    /// Fig. 2(i)'s three annotation lines.
    pub fn breakdown(&self) -> (DomainStats, DomainStats, DomainStats) {
        (
            DomainStats::of(&self.module_w),
            DomainStats::of(&self.cpu_w),
            DomainStats::of(&self.dram_w),
        )
    }
}

/// The complete Fig. 2 result (*DGEMM and MHD).
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Per-workload panels.
    pub workloads: Vec<Fig2Workload>,
    /// Fleet size used.
    pub modules: usize,
}

/// Run the Fig. 2 study at the paper's 1,920-module scale by default.
///
/// The two workload panels are independent: each runs on a private clone
/// of the freshly manufactured fleet, fanned over `opts.threads()`
/// workers with identical results at any thread count.
pub fn run(opts: &RunOptions) -> Fig2Result {
    let n = opts.modules_or(1920);
    let cluster = common::ha8k(n, opts.seed); // pristine template, cloned per panel
    let panels = [WorkloadId::Dgemm, WorkloadId::Mhd];
    let workloads = vap_exec::par_grid(&panels, opts.threads(), |&w| {
        run_workload(&mut cluster.clone(), &catalog::get(w), opts)
    });
    Fig2Result { workloads, modules: n }
}

fn run_workload(cluster: &mut Cluster, spec: &WorkloadSpec, opts: &RunOptions) -> Fig2Workload {
    let ids = all_ids(cluster);
    let comm = CommParams::infiniband_fdr();
    let program = spec.program(opts.scale);
    let boundedness = spec.boundedness(cluster.spec().pstates.f_max());

    spec.apply_to(cluster, opts.seed);
    cluster.uncap_all();

    // (i) uncapped characteristics + normalization baseline
    let cpu_w: Vec<f64> = cluster.cpu_powers().iter().map(|p| p.value()).collect();
    let dram_w: Vec<f64> = cluster.dram_powers().iter().map(|p| p.value()).collect();
    let module_w: Vec<f64> = cluster.module_powers().iter().map(|p| p.value()).collect();
    let baseline = engine::run_on_cluster(&program, cluster, &ids, &boundedness, &comm);

    let mut scenarios = Vec::new();
    scenarios.push(CapScenario {
        cm_w: None,
        ccpu_w: None,
        freqs_ghz: cluster.effective_frequencies().iter().map(|x| x.value()).collect(),
        cpu_power_w: cpu_w.clone(),
        module_power_w: module_w.clone(),
        norm_time: vec![1.0; ids.len()],
    });

    for &cm in &common::CM_LEVELS_W {
        let ccpu = offline_ccpu(cluster, spec, Watts(cm), opts.seed);
        cluster.set_uniform_cap(RaplLimit::with_default_window(ccpu));
        let run = engine::run_on_cluster(&program, cluster, &ids, &boundedness, &comm);
        scenarios.push(CapScenario {
            cm_w: Some(cm),
            ccpu_w: Some(ccpu.value()),
            freqs_ghz: cluster.effective_frequencies().iter().map(|x| x.value()).collect(),
            cpu_power_w: cluster.cpu_powers().iter().map(|p| p.value()).collect(),
            module_power_w: cluster.module_powers().iter().map(|p| p.value()).collect(),
            // both runs cover `ids`, so the rank counts match; a mismatch
            // renders as NaN rather than panicking mid-campaign
            norm_time: run.normalized_to(&baseline).unwrap_or_else(|| vec![f64::NAN; ids.len()]),
        });
    }

    // restore
    cluster.uncap_all();
    for i in 0..cluster.len() {
        cluster.set_workload_variation(i, None);
        cluster.set_activity(i, vap_model::power::PowerActivity::IDLE);
    }

    Fig2Workload { workload: spec.id, cpu_w, dram_w, module_w, scenarios }
}

/// Render the three panels as tables.
pub fn render(result: &Fig2Result) -> String {
    let mut out = String::new();
    for w in &result.workloads {
        let (module, cpu, dram) = w.breakdown();
        let mut t1 = Table::new(
            &format!("Fig. 2(i) {} power characteristics ({} modules)", w.workload, result.modules),
            &["Domain", "Average [W]", "Std Dev", "Vp"],
        );
        for (name, d) in [("Module (CPU+DRAM)", module), ("CPU", cpu), ("DRAM", dram)] {
            t1.row(vec![name.to_string(), f(d.avg, 1), f(d.std_dev, 2), var(d.vp)]);
        }
        out.push_str(&t1.render());
        out.push('\n');

        let mut t2 = Table::new(
            &format!("Fig. 2(ii) {} frequency variation under uniform caps", w.workload),
            &["Cm [W]", "Ccpu [W]", "Mean freq [GHz]", "Vf", "Vp(cpu)"],
        );
        let mut t3 = Table::new(
            &format!("Fig. 2(iii) {} execution time variation under uniform caps", w.workload),
            &["Cm [W]", "Mean norm. time", "Vt", "Vp(module)"],
        );
        for s in &w.scenarios {
            let cm = s.cm_w.map_or("No".to_string(), |x| f(x, 0));
            t2.row(vec![
                cm.clone(),
                s.ccpu_w.map_or("-".to_string(), |x| f(x, 1)),
                f(
                    common::mean_ghz(
                        &s.freqs_ghz
                            .iter()
                            .map(|&x| vap_model::units::GigaHertz(x))
                            .collect::<Vec<_>>(),
                    )
                    .value(),
                    2,
                ),
                var(s.vf()),
                var(s.vp_cpu()),
            ]);
            let mean_t = s.norm_time.iter().sum::<f64>() / s.norm_time.len() as f64;
            t3.row(vec![cm, f(mean_t, 2), var(s.vt()), var(s.vp_module())]);
        }
        out.push_str(&t2.render());
        out.push('\n');
        out.push_str(&t3.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fig2Result {
        run(&RunOptions { modules: Some(192), seed: 2015, scale: 0.05, ..RunOptions::default() })
    }

    #[test]
    fn uncapped_breakdown_matches_paper_scale() {
        let r = small();
        let dgemm = &r.workloads[0];
        assert_eq!(dgemm.workload, WorkloadId::Dgemm);
        let (module, cpu, dram) = dgemm.breakdown();
        // paper: module 112.8 W, CPU 100.8 W, DRAM 12.0 W
        assert!((module.avg - 112.8).abs() < 6.0, "module avg {}", module.avg);
        assert!((cpu.avg - 100.8).abs() < 6.0, "cpu avg {}", cpu.avg);
        assert!((dram.avg - 12.0).abs() < 3.0, "dram avg {}", dram.avg);
        // Vp: module ~1.2-1.5, DRAM much larger (~2.8)
        assert!(module.vp > 1.15 && module.vp < 1.6, "module Vp {}", module.vp);
        assert!(dram.vp > 1.8, "dram Vp {}", dram.vp);

        let mhd = &r.workloads[1];
        let (m_module, m_cpu, _) = mhd.breakdown();
        assert!((m_module.avg - 96.4).abs() < 6.0, "MHD module avg {}", m_module.avg);
        assert!((m_cpu.avg - 83.9).abs() < 6.0, "MHD cpu avg {}", m_cpu.avg);
    }

    #[test]
    fn tightening_caps_grow_vf_and_collapse_vp() {
        let r = small();
        for w in &r.workloads {
            let uncapped = &w.scenarios[0];
            assert!((uncapped.vf() - 1.0).abs() < 1e-9, "uncapped Vf must be 1.0");
            let capped: Vec<&CapScenario> =
                w.scenarios.iter().filter(|s| s.cm_w.is_some()).collect();
            // Vf grows as Cm tightens (allow small non-monotonic wiggle at
            // the loose end where the cap barely binds)
            let vf_first = capped.first().unwrap().vf();
            let vf_last = capped.last().unwrap().vf();
            assert!(vf_last > vf_first, "{}: Vf {vf_first} -> {vf_last}", w.workload);
            assert!(vf_last > 1.2, "{}: tight-cap Vf {vf_last}", w.workload);
            // under binding caps CPU power variation collapses toward 1
            let mid = &capped[2];
            assert!(mid.vp_cpu() < uncapped.vp_cpu(), "{}", w.workload);
        }
    }

    #[test]
    fn dgemm_exposes_vt_while_mhd_hides_it() {
        let r = small();
        let dgemm = &r.workloads[0];
        let mhd = &r.workloads[1];
        // compare at Cm = 70 W (index 5: No,110,100,90,80,70,60,50)
        let d = &dgemm.scenarios[5];
        let m = &mhd.scenarios[5];
        assert_eq!(d.cm_w, Some(70.0));
        assert!(d.vt() > 1.25, "DGEMM Vt at 70 W = {}", d.vt());
        assert!(m.vt() < 1.05, "MHD Vt at 70 W = {}", m.vt());
        // both are slowed down overall
        let mean_m: f64 = m.norm_time.iter().sum::<f64>() / m.norm_time.len() as f64;
        assert!(mean_m > 1.2, "MHD mean normalized time {mean_m}");
    }

    #[test]
    fn render_produces_all_panels() {
        let r =
            run(&RunOptions { modules: Some(32), seed: 1, scale: 0.02, ..RunOptions::default() });
        let s = render(&r);
        assert!(s.contains("Fig. 2(i) *DGEMM"));
        assert!(s.contains("Fig. 2(ii) MHD"));
        assert!(s.contains("Fig. 2(iii) *DGEMM"));
        assert!(s.contains("Vp"));
    }
}
