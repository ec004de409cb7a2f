//! Raw plottable series for every figure, as CSV.
//!
//! The tables `vap-report` prints summarize each figure; these functions
//! emit the *series the paper actually plots* (per-socket scatter points,
//! per-module frequency/power pairs, per-rank normalized times …) so the
//! figures can be redrawn with any plotting tool:
//!
//! ```console
//! $ cargo run --release -p vap-report -- fig2 --csv out/
//! $ python -c "import pandas; ..."   # or gnuplot, or R
//! ```

use crate::experiments::{ablations, fig1, fig2, fig3, fig5, fig6, fig7, fig8, fig9, table4};
use std::fmt::Write as _;
use vap_model::systems::SystemSpec;

/// Fig. 1: one row per measured unit per system.
pub fn fig1(r: &fig1::Fig1Result) -> String {
    let mut out = String::from("system,unit_rank,slowdown_pct,power_increase_pct\n");
    for s in &r.series {
        let name = SystemSpec::get(s.system).name;
        for (i, (sl, pw)) in s.slowdown_pct.iter().zip(&s.power_increase_pct).enumerate() {
            let _ = writeln!(out, "{name},{i},{sl:.4},{pw:.4}");
        }
    }
    out
}

/// Fig. 2: one row per module per scenario per workload (all three panels'
/// coordinates in one table).
pub fn fig2(r: &fig2::Fig2Result) -> String {
    let mut out =
        String::from("workload,cm_w,module_id,freq_ghz,cpu_power_w,module_power_w,norm_time\n");
    for w in &r.workloads {
        for s in &w.scenarios {
            let cm = s.cm_w.map_or("uncapped".to_string(), |x| format!("{x:.0}"));
            for i in 0..s.freqs_ghz.len() {
                let _ = writeln!(
                    out,
                    "{},{},{},{:.4},{:.3},{:.3},{:.5}",
                    w.workload,
                    cm,
                    i,
                    s.freqs_ghz[i],
                    s.cpu_power_w[i],
                    s.module_power_w[i],
                    s.norm_time[i]
                );
            }
        }
    }
    out
}

/// Fig. 3: one row per rank per cap level (sendrecv time vs module power).
pub fn fig3(r: &fig3::Fig3Result) -> String {
    let mut out = String::from("cm_w,rank,sendrecv_s,module_power_w\n");
    for s in &r.scenarios {
        let cm = s.cm_w.map_or("uncapped".to_string(), |x| format!("{x:.0}"));
        for (i, (t, p)) in s.sendrecv_s.iter().zip(&s.module_power_w).enumerate() {
            let _ = writeln!(out, "{cm},{i},{t:.4},{p:.3}");
        }
    }
    out
}

/// Fig. 5: the frequency sweep per workload and domain.
pub fn fig5(r: &fig5::Fig5Result) -> String {
    let mut out = String::from("workload,freq_ghz,cpu_w,dram_w,module_w\n");
    for w in &r.workloads {
        for i in 0..w.freqs_ghz.len() {
            let _ = writeln!(
                out,
                "{},{:.2},{:.4},{:.4},{:.4}",
                w.workload, w.freqs_ghz[i], w.cpu_w[i], w.dram_w[i], w.module_w[i]
            );
        }
    }
    out
}

/// Fig. 6: calibration error per workload.
pub fn fig6(r: &fig6::Fig6Result) -> String {
    let mut out = String::from("workload,prediction_error_pct\n");
    for row in &r.rows {
        let _ = writeln!(out, "{},{:.4}", row.workload, row.error_pct);
    }
    out
}

/// Table 4: the feasibility grid in long form.
pub fn table4(r: &table4::Table4Result) -> String {
    let mut out = String::from("workload,cm_w,cs_kw,mark\n");
    for (w, marks) in &r.rows {
        for (cm, m) in r.cm_levels_w.iter().zip(marks) {
            let _ = writeln!(out, "{w},{cm:.0},{:.1},{}", cm * r.modules as f64 / 1e3, m.mark());
        }
    }
    out
}

/// Fig. 7: every campaign cell (also carries the Fig. 9 power column).
pub fn fig7(r: &fig7::Fig7Result) -> String {
    let mut out =
        String::from("workload,cm_w,scheme,makespan_s,speedup_vs_naive,total_power_w,vt\n");
    for row in &r.rows {
        let speedup = r
            .speedup(row.workload, row.cm_w, row.scheme)
            .map_or(String::new(), |s| format!("{s:.4}"));
        let _ = writeln!(
            out,
            "{},{:.0},{},{:.4},{},{:.1},{:.4}",
            row.workload, row.cm_w, row.scheme, row.makespan_s, speedup, row.total_power_w, row.vt
        );
    }
    out
}

/// Fig. 8: panel (i) per-rank scatter plus panel (ii) per-rank waits.
pub fn fig8(r: &fig8::Fig8Result) -> String {
    let mut out = String::from("panel,workload,cm_w,rank,norm_time,module_power_w,sendrecv_s\n");
    for (w, scenarios) in &r.panels {
        for s in scenarios {
            for (i, (t, p)) in s.norm_time.iter().zip(&s.module_power_w).enumerate() {
                let _ = writeln!(out, "i,{w},{:.0},{i},{t:.5},{p:.3},", s.cm_w);
            }
        }
    }
    for s in &r.waits {
        for (i, t) in s.sendrecv_s.iter().enumerate() {
            let _ = writeln!(out, "ii,MHD,{:.0},{i},,,{t:.4}", s.cm_w);
        }
    }
    out
}

/// Fig. 9: the audit in long form.
pub fn fig9(r: &fig9::Fig9Result) -> String {
    let mut out = String::from("workload,cm_w,scheme,total_power_w,budget_w,violated\n");
    for a in &r.audits {
        let _ = writeln!(
            out,
            "{},{:.0},{},{:.1},{:.1},{}",
            a.workload,
            a.cm_w,
            a.scheme,
            a.total_power_w,
            a.budget_w,
            a.violated()
        );
    }
    out
}

/// Ablations: the three tables in long form.
pub fn ablations(r: &ablations::AblationResult) -> String {
    let mut out = String::from("study,key,value\n");
    for s in &r.sources {
        let _ = writeln!(out, "sources,{} std_dev_w,{:.4}", s.label, s.std_dev_w);
        let _ = writeln!(out, "sources,{} vp,{:.4}", s.label, s.vp);
    }
    let _ = writeln!(out, "thermal,manufacturing_only_vp,{:.4}", r.thermal_vp.0);
    let _ = writeln!(out, "thermal,with_gradient_vp,{:.4}", r.thermal_vp.1);
    for row in &r.pvt_choice {
        let _ = writeln!(out, "pvt_choice,{} stream_pct,{:.4}", row.workload, row.stream_pct);
        let _ = writeln!(out, "pvt_choice,{} ep_pct,{:.4}", row.workload, row.ep_pct);
    }
    for p in &r.payoff {
        let _ = writeln!(out, "payoff,sigma {:.2} vp,{:.4}", p.leakage_sigma, p.vp);
        let _ = writeln!(out, "payoff,sigma {:.2} vs_naive,{:.4}", p.leakage_sigma, p.vs_naive);
        let _ = writeln!(out, "payoff,sigma {:.2} vs_pc,{:.4}", p.leakage_sigma, p.vs_pc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::RunOptions;

    fn opts() -> RunOptions {
        RunOptions { modules: Some(16), seed: 1, scale: 0.02, ..RunOptions::default() }
    }

    #[test]
    fn fig1_csv_has_one_row_per_unit() {
        let r = crate::experiments::fig1::run(&RunOptions { modules: Some(64), ..opts() });
        let csv = fig1(&r);
        let expected: usize = r.series.iter().map(|s| s.units).sum();
        assert_eq!(csv.lines().count(), expected + 1);
        assert!(csv.starts_with("system,unit_rank"));
    }

    #[test]
    fn fig2_csv_covers_all_scenarios() {
        let r = crate::experiments::fig2::run(&opts());
        let csv = fig2(&r);
        let rows: usize = r.workloads.iter().map(|w| w.scenarios.len() * 16).sum();
        assert_eq!(csv.lines().count(), rows + 1);
        assert!(csv.contains("uncapped"));
    }

    #[test]
    fn fig5_and_fig6_csvs_parse_back() {
        let r5 = crate::experiments::fig5::run(&RunOptions { modules: Some(8), ..opts() }).unwrap();
        let csv = fig5(&r5);
        // 2 workloads × 16 p-states + header
        assert_eq!(csv.lines().count(), 33);
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 5);
        }
        let r6 = crate::experiments::fig6::run(&RunOptions { modules: Some(16), ..opts() });
        assert_eq!(fig6(&r6).lines().count(), 7);
    }

    #[test]
    fn campaign_csvs_are_consistent() {
        let campaign = crate::experiments::fig7::run(&RunOptions {
            modules: Some(32),
            seed: 1,
            scale: 0.02,
            ..RunOptions::default()
        });
        let c7 = fig7(&campaign);
        assert_eq!(c7.lines().count(), campaign.rows.len() + 1);
        let audit = crate::experiments::fig9::audit(&campaign);
        let c9 = fig9(&audit);
        assert_eq!(c9.lines().count(), audit.audits.len() + 1);
        assert!(c9.lines().nth(1).unwrap().split(',').count() == 6);
    }

    #[test]
    fn table4_csv_long_form() {
        let g = crate::experiments::table4::run(&RunOptions { modules: Some(48), ..opts() });
        let csv = table4(&g);
        assert_eq!(csv.lines().count(), 6 * 7 + 1);
        assert!(csv.contains("X") || csv.contains("–") || csv.contains("•"));
    }
}
