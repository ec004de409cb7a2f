//! Fig. 6: power model calibration accuracy.
//!
//! The PVT (generated from *STREAM) plus two single-module test runs
//! predict each module's application power. §5.3: "For most of our
//! benchmarks, the prediction error between the generated
//! application-specific PMT and the measured power consumption for that
//! application across all modules is under 5%. The exception was NPB-BT,
//! which has a prediction error of about 10%."

use crate::experiments::common::{self, all_ids};
use crate::options::RunOptions;
use crate::render::{f, Table};
use vap_core::pmt::PowerModelTable;
use vap_core::pvt::PowerVariationTable;
use vap_core::testrun::single_module_test_run;
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

/// Calibration accuracy for one workload.
#[derive(Debug, Clone)]
pub struct CalibrationRow {
    /// The workload.
    pub workload: WorkloadId,
    /// MAPE of predicted vs measured module power at `f_max`, %.
    pub error_pct: f64,
}

/// The Fig. 6 data set.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// One row per evaluated workload.
    pub rows: Vec<CalibrationRow>,
    /// Fleet size used.
    pub modules: usize,
}

/// Run the calibration-accuracy study.
///
/// The PVT is generated once; the six workload rows then calibrate
/// independently on private clones of the post-PVT fleet, fanned over
/// `opts.threads()` workers with identical results at any thread count.
pub fn run(opts: &RunOptions) -> Fig6Result {
    let n = opts.modules_or(1920);
    let threads = opts.threads();
    let mut cluster = common::ha8k(n, opts.seed);
    let ids = all_ids(&cluster);
    let stream = catalog::get(WorkloadId::Stream);
    let pvt = PowerVariationTable::generate_with_threads(&mut cluster, &stream, opts.seed, threads);
    let cluster = cluster; // pristine post-PVT template, cloned per row

    let rows = vap_exec::par_grid(&WorkloadId::EVALUATED, threads, |&w| {
        let spec = catalog::get(w);
        let mut fleet = cluster.clone();
        let test = single_module_test_run(&mut fleet, ids[0], &spec, opts.seed);
        // calibration only errs on an empty/unknown module list; render
        // such a degenerate fleet as NaN instead of panicking
        let error_pct = PowerModelTable::calibrate(&pvt, &test, &ids)
            .ok()
            .and_then(|pmt| {
                let oracle = PowerModelTable::oracle(&mut fleet, &spec, &ids, opts.seed).ok()?;
                pmt.prediction_error_vs(&oracle)
            })
            .unwrap_or(f64::NAN);
        CalibrationRow { workload: w, error_pct }
    });
    Fig6Result { rows, modules: n }
}

/// Render the accuracy table.
pub fn render(result: &Fig6Result) -> Table {
    let mut t = Table::new(
        &format!(
            "Fig. 6: PMT prediction error vs measured power ({} modules, *STREAM PVT)",
            result.modules
        ),
        &["Workload", "Prediction error [%]"],
    );
    for r in &result.rows {
        t.row(vec![r.workload.to_string(), f(r.error_pct, 2)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig6Result {
        run(&RunOptions { modules: Some(128), seed: 2015, scale: 1.0, ..RunOptions::default() })
    }

    /// The calibration error for one workload.
    fn error_for(r: &Fig6Result, w: WorkloadId) -> Option<f64> {
        r.rows.iter().find(|row| row.workload == w).map(|row| row.error_pct)
    }

    #[test]
    fn most_workloads_calibrate_under_five_percent() {
        let r = result();
        assert_eq!(r.rows.len(), 6);
        for row in &r.rows {
            if row.workload != WorkloadId::Bt {
                assert!(
                    row.error_pct < 5.0,
                    "{} error {}% (paper: <5%)",
                    row.workload,
                    row.error_pct
                );
            }
        }
    }

    #[test]
    fn bt_is_the_outlier() {
        let r = result();
        let bt = error_for(&r, WorkloadId::Bt).unwrap();
        assert!(bt > 3.0, "BT error {bt}% should stand out");
        for row in &r.rows {
            if row.workload != WorkloadId::Bt {
                assert!(
                    bt > row.error_pct,
                    "BT ({bt}%) must exceed {} ({}%)",
                    row.workload,
                    row.error_pct
                );
            }
        }
    }

    #[test]
    fn stream_self_calibrates_nearly_perfectly() {
        let r = result();
        // STREAM is the microbenchmark itself; residual error is just the
        // linear-model error
        assert!(error_for(&r, WorkloadId::Stream).unwrap() < 1.0);
    }

    #[test]
    fn render_lists_all_workloads() {
        let t = render(&run(&RunOptions {
            modules: Some(24),
            seed: 1,
            scale: 1.0,
            ..RunOptions::default()
        }));
        assert_eq!(t.len(), 6);
        assert!(t.render().contains("NPB-BT"));
    }
}
