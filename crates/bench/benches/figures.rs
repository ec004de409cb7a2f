//! One benchmark per paper table/figure.
//!
//! Each case runs the same driver that regenerates the corresponding
//! artifact (`cargo run -p vap-report --bin figN`), at a reduced fleet
//! size so the suite completes in minutes. The absolute numbers these
//! produce are wall-clock costs of the *reproduction pipeline*; the
//! scientific outputs live in `EXPERIMENTS.md`.

use vap_bench::Runner;
use vap_report::experiments::{
    fig1, fig2, fig3, fig5, fig6, fig7, fig8, fig9, table1, table2, table4,
};
use vap_report::RunOptions;

fn opts(modules: usize, scale: f64) -> RunOptions {
    RunOptions { modules: Some(modules), seed: 2015, scale, ..RunOptions::default() }
}

fn main() {
    let mut r = Runner::from_args();
    // tables
    r.case("table1_measurement_techniques", || table1::run().render());
    r.case("table2_systems", || table2::run().render());
    let o = opts(64, 1.0);
    r.case("table4_feasibility_grid_64", || table4::run(&o));
    // variability figures
    let o = opts(128, 1.0);
    r.case("fig1_three_system_survey_128", || fig1::run(&o));
    let o = opts(64, 0.02);
    r.case("fig2_uniform_cap_analysis_64", || fig2::run(&o));
    r.case("fig3_mhd_sync_overhead_64", || fig3::run(&o));
    let o = opts(64, 1.0);
    r.case("fig5_linearity_sweep_64", || fig5::run(&o));
    // budgeting figures
    r.case("fig6_calibration_accuracy_64", || fig6::run(&o));
    let o = opts(48, 0.02);
    r.case("fig7_full_campaign_48", || fig7::run(&o));
    r.case("fig8_vafs_detail_48", || fig8::run(&o));
    r.case("fig9_power_audit_48", || fig9::run(&o));
}
