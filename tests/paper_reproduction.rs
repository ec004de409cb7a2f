//! Reduced-scale checks of the paper's quantitative claims, run against
//! the same drivers that regenerate the full tables and figures.
//! (`EXPERIMENTS.md` records the full-scale numbers.)

use vap_report::experiments::{fig1, fig2, fig3, fig5, fig6, fig7, fig9, table4};
use vap_report::RunOptions;
use vap_workloads::spec::WorkloadId;

fn opts(modules: usize, scale: f64) -> RunOptions {
    RunOptions { modules: Some(modules), seed: 2015, scale, ..RunOptions::default() }
}

#[test]
fn fig1_variation_without_performance_loss_on_binned_parts() {
    let r = fig1::run(&opts(256, 1.0));
    let cab = &r.series[0];
    // paper: 23% max power variation on Cab, no performance variation
    assert!(cab.max_power_variation_pct() > 12.0 && cab.max_power_variation_pct() < 45.0);
    assert!(cab.max_perf_variation_pct() < 1.0);
    // Teller: both power and performance vary (paper: 21% / 17%)
    let teller = &r.series[2];
    assert!(teller.max_perf_variation_pct() > 8.0);
}

#[test]
fn fig2_uncapped_power_statistics_track_the_paper() {
    let r = fig2::run(&opts(256, 0.02));
    let (module, cpu, dram) = r.workloads[0].breakdown(); // *DGEMM
    assert!((module.avg - 112.8).abs() < 8.0);
    assert!((cpu.avg - 100.8).abs() < 8.0);
    assert!((dram.avg - 12.0).abs() < 3.0);
    assert!(module.vp > 1.15 && module.vp < 1.6);
    assert!(dram.vp > 1.8, "DRAM Vp {} (paper ~2.8)", dram.vp);
}

#[test]
fn fig2_caps_trade_vp_for_vf_and_expose_vt_on_dgemm() {
    let r = fig2::run(&opts(128, 0.02));
    let dgemm = &r.workloads[0];
    let tight = dgemm.scenarios.iter().find(|s| s.cm_w == Some(70.0)).unwrap();
    assert!(tight.vf() > 1.25, "Vf at 70 W = {} (paper 1.56 at Ccpu 59.3)", tight.vf());
    assert!(tight.vt() > 1.25, "DGEMM Vt at 70 W = {} (paper up to 1.64)", tight.vt());
    let mhd = &r.workloads[1];
    let tight = mhd.scenarios.iter().find(|s| s.cm_w == Some(70.0)).unwrap();
    assert!(tight.vt() < 1.05, "MHD hides Vt behind synchronization");
}

#[test]
fn fig3_sync_wait_explodes_under_caps_and_fig8_tames_it() {
    let f3 = fig3::run(&opts(64, 0.05));
    let tight = f3.scenarios.last().unwrap();
    assert!(tight.vt() > 5.0, "uniform-cap wait Vt = {} (paper up to 57)", tight.vt());

    let f8 = vap_report::experiments::fig8::run(&opts(64, 0.05));
    for w in &f8.waits {
        assert!(w.vt_wait < 5.0, "VaFs wait Vt = {} (paper 1.6-1.8)", w.vt_wait);
    }
}

#[test]
fn fig5_linearity_justifies_the_two_point_model() {
    let r = fig5::run(&opts(64, 1.0)).unwrap();
    for w in &r.workloads {
        // paper band: 0.991-0.999
        assert!(w.module_fit.r_squared > 0.99, "{}: {}", w.workload, w.module_fit.r_squared);
        assert!(w.cpu_fit.r_squared > 0.99);
        assert!(w.dram_fit.r_squared > 0.99);
    }
}

#[test]
fn fig6_calibration_error_small_except_bt() {
    let r = fig6::run(&opts(160, 1.0));
    for row in &r.rows {
        if row.workload == WorkloadId::Bt {
            assert!(row.error_pct > 3.0, "BT should be the outlier, got {}%", row.error_pct);
            assert!(row.error_pct < 15.0);
        } else {
            assert!(row.error_pct < 5.0, "{}: {}% (paper <5%)", row.workload, row.error_pct);
        }
    }
}

#[test]
fn table4_marks_match_the_paper_grid() {
    use vap_core::feasibility::Feasibility::*;
    let g = table4::run(&opts(192, 1.0));
    // the anchor cells the evaluation depends on
    assert_eq!(g.cell(WorkloadId::Dgemm, 50.0), Some(Infeasible));
    assert_eq!(g.cell(WorkloadId::Mhd, 110.0), Some(NotConstrained));
    assert_eq!(g.cell(WorkloadId::Mhd, 70.0), Some(Constrained));
    assert_eq!(g.cell(WorkloadId::Bt, 50.0), Some(Constrained));
    assert_eq!(g.cell(WorkloadId::Sp, 50.0), Some(Constrained));
    assert_eq!(g.cell(WorkloadId::Stream, 60.0), Some(Infeasible));
}

#[test]
fn fig7_and_fig9_headline_shape() {
    let campaign = fig7::run(&opts(96, 0.04));
    // who wins: variation-aware over naive, FS at the top
    let (max_fs, mean_fs) = campaign.headline(vap_core::schemes::SchemeId::VaFs).unwrap();
    let (max_pc, mean_pc) = campaign.headline(vap_core::schemes::SchemeId::VaPc).unwrap();
    assert!(max_fs > 2.0, "VaFs max {max_fs} (paper 5.4 at full scale)");
    assert!(mean_fs > 1.3, "VaFs mean {mean_fs} (paper 1.86)");
    assert!(mean_fs >= mean_pc * 0.98, "FS should lead PC on average");
    assert!(max_pc > 1.8);

    // Fig. 9: the capping schemes always adhere. Violations can come from
    // Naive (the paper's *STREAM case) or from the FS family — §5.3 warns
    // FS "has the potential to violate the derived CPU power cap", and the
    // exposure concentrates on the workload with the worst calibration
    // (NPB-BT).
    let audit = fig9::audit(&campaign);
    let violations = audit.violations();
    assert!(!violations.is_empty());
    use vap_core::schemes::SchemeId;
    for v in &violations {
        let fs_exposure = matches!(v.scheme, SchemeId::VaFs | SchemeId::VaFsOr);
        assert!(
            v.scheme == SchemeId::Naive || fs_exposure,
            "capping scheme violated its budget: {v:?}"
        );
    }
    assert!(violations
        .iter()
        .any(|v| v.workload == WorkloadId::Stream && v.scheme == SchemeId::Naive));
}
