//! Fig. 7: speedup of every budgeting scheme over Naive, per benchmark
//! and power constraint — the paper's headline evaluation.
//!
//! Expected shape (paper §6.1): VaFs generally best, up to 5.40×
//! (NPB-BT at 96 kW) with a ≈1.86× average; VaPc up to 4.03× (NPB-SP at
//! 96 kW), ≈1.72× average; Pc in between Naive and the variation-aware
//! schemes, degrading at tight constraints; oracle variants close to
//! their calibrated counterparts except where calibration is poor (BT).

use crate::experiments::common::{self, all_ids, budget_for, cs_kw};
use crate::options::RunOptions;
use crate::render::{f, Table};
use vap_core::budgeter::Budgeter;
use vap_core::pmmd::run_region;
use vap_core::schemes::SchemeId;
use vap_mpi::comm::CommParams;
use vap_stats::SpeedupTable;
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

/// One (workload, constraint, scheme) measurement.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// The benchmark.
    pub workload: WorkloadId,
    /// Per-module constraint level in watts.
    pub cm_w: f64,
    /// The budgeting scheme.
    pub scheme: SchemeId,
    /// Application completion time (slowest rank), seconds.
    pub makespan_s: f64,
    /// Fleet power while the application runs, watts (feeds Fig. 9).
    pub total_power_w: f64,
    /// Worst-case per-rank time variation under this scheme.
    pub vt: f64,
}

/// The complete campaign.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// All measurements.
    pub rows: Vec<Fig7Row>,
    /// Fleet size used.
    pub modules: usize,
    /// Speedup bookkeeping (scheme times keyed by benchmark/constraint).
    pub table: SpeedupTable,
}

impl Fig7Result {
    /// Speedup of `scheme` over Naive at one cell.
    pub fn speedup(&self, w: WorkloadId, cm_w: f64, scheme: SchemeId) -> Option<f64> {
        self.table.speedup_at(w.name(), budget_key(cm_w), scheme.name(), SchemeId::Naive.name())
    }

    /// `(max, mean)` speedup of `scheme` over Naive across the campaign —
    /// the numbers the abstract quotes.
    pub fn headline(&self, scheme: SchemeId) -> Option<(f64, f64)> {
        self.table.headline(scheme.name(), SchemeId::Naive.name())
    }

    /// The constraint levels that ran for a workload.
    pub fn levels_for(&self, w: WorkloadId) -> Vec<f64> {
        let mut v: Vec<f64> =
            self.rows.iter().filter(|r| r.workload == w).map(|r| r.cm_w).collect();
        v.sort_by(|a, b| b.total_cmp(a));
        v.dedup();
        v
    }
}

fn budget_key(cm_w: f64) -> f64 {
    // the SpeedupTable keys constraints by watts; per-module level is a
    // stable key independent of fleet size
    cm_w
}

/// One campaign cell — all six schemes of one (workload, constraint)
/// pair, executed on the cell's private fleet clone.
fn run_cell(
    budgeter: &Budgeter,
    mut cluster: vap_sim::cluster::Cluster,
    w: WorkloadId,
    cm: f64,
    ids: &[usize],
    comm: &CommParams,
    opts: &RunOptions,
) -> Vec<Fig7Row> {
    let spec = catalog::get(w);
    let program = spec.program(opts.scale);
    let budget = budget_for(cm, cluster.len());
    let Ok(feas) = budgeter.feasibility(&mut cluster, &spec, budget, ids) else {
        return Vec::new(); // empty module list — nothing to run
    };
    if !feas.runnable() {
        return Vec::new();
    }
    let mut rows = Vec::new();
    for scheme in SchemeId::ALL {
        let plan = match budgeter.plan(&mut cluster, scheme, &spec, budget, ids) {
            Ok(p) => p,
            // a scheme's own model may call a cell infeasible even
            // though the true profile is constrained — record
            // nothing; the paper simply has no bar there
            Err(_) => {
                vap_obs::incr("scheme.fallbacks");
                continue;
            }
        };
        let report = run_region(&mut cluster, &plan, &spec, &program, ids, comm, opts.seed);
        rows.push(Fig7Row {
            workload: w,
            cm_w: cm,
            scheme,
            makespan_s: report.makespan().value(),
            total_power_w: report.total_power.value(),
            vt: report.run.vt().unwrap_or(f64::NAN),
        });
    }
    rows
}

/// Run the full campaign: every evaluated benchmark × every `X` cell of
/// Table 4 × all six schemes.
///
/// Cells are independent: each builds its fleet by cloning the pristine
/// post-PVT cluster, so the campaign fans over `opts.threads()` workers
/// with bit-identical results at any thread count.
pub fn run(opts: &RunOptions) -> Fig7Result {
    let n = opts.modules_or(1920);
    let threads = opts.threads();
    let mut cluster = common::ha8k(n, opts.seed);
    let budgeter = {
        let _install = vap_obs::span("fig7.install");
        Budgeter::install_with_threads(&mut cluster, opts.seed, threads)
    };
    let cluster = cluster; // pristine post-PVT template, cloned per cell
    let ids = all_ids(&cluster);
    let comm = CommParams::infiniband_fdr();

    let cells: Vec<(WorkloadId, f64)> = WorkloadId::EVALUATED
        .iter()
        .flat_map(|&w| common::CM_LEVELS_W.iter().map(move |&cm| (w, cm)))
        .collect();

    let campaign = vap_obs::span("fig7.campaign");
    let per_cell: Vec<Vec<Fig7Row>> = vap_exec::par_grid(&cells, threads, |&(w, cm)| {
        vap_obs::label_item(|| format!("{w}@{cm}W"));
        run_cell(&budgeter, cluster.clone(), w, cm, &ids, &comm, opts)
    });
    drop(campaign);

    let mut rows = Vec::new();
    let mut table = SpeedupTable::new();
    for row in per_cell.into_iter().flatten() {
        table.record(row.workload.name(), budget_key(row.cm_w), row.scheme.name(), row.makespan_s);
        rows.push(row);
    }

    Fig7Result { rows, modules: n, table }
}

/// Render the speedup table (one row per benchmark × constraint, one
/// column per scheme) plus the headline summary.
pub fn render(result: &Fig7Result) -> String {
    let mut t = Table::new(
        &format!("Fig. 7: speedup vs Naive ({} modules)", result.modules),
        &["Benchmark", "Cs [kW]", "Naive", "Pc", "VaPcOr", "VaPc", "VaFsOr", "VaFs"],
    );
    for &w in &WorkloadId::EVALUATED {
        for cm in result.levels_for(w) {
            let mut row = vec![w.to_string(), f(cs_kw(cm, result.modules), 0)];
            for scheme in [
                SchemeId::Naive,
                SchemeId::Pc,
                SchemeId::VaPcOr,
                SchemeId::VaPc,
                SchemeId::VaFsOr,
                SchemeId::VaFs,
            ] {
                row.push(result.speedup(w, cm, scheme).map_or("-".to_string(), |s| f(s, 2)));
            }
            t.row(row);
        }
    }
    let mut out = t.render();
    out.push('\n');
    for scheme in [SchemeId::VaFs, SchemeId::VaPc] {
        if let Some((max, mean)) = result.headline(scheme) {
            out.push_str(&format!(
                "{}: max speedup {:.2}x, average {:.2}x (paper: {} )\n",
                scheme.name(),
                max,
                mean,
                if scheme == SchemeId::VaFs { "5.40x / 1.86x" } else { "4.03x / 1.72x" },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign() -> Fig7Result {
        // 96 modules keeps the full 6-scheme × all-cells campaign fast
        // while preserving fleet statistics.
        run(&RunOptions { modules: Some(96), scale: 0.05, ..RunOptions::default() })
    }

    #[test]
    fn variation_aware_schemes_beat_naive_at_tight_constraints() {
        let r = campaign();
        for w in [WorkloadId::Bt, WorkloadId::Sp] {
            let tightest = *r.levels_for(w).last().expect("BT/SP have X cells");
            let vafs = r.speedup(w, tightest, SchemeId::VaFs).unwrap();
            let vapc = r.speedup(w, tightest, SchemeId::VaPc).unwrap();
            assert!(vafs > 1.5, "{w} VaFs speedup at Cm={tightest}: {vafs}");
            assert!(vapc > 1.3, "{w} VaPc speedup at Cm={tightest}: {vapc}");
        }
    }

    #[test]
    fn headline_magnitudes_match_paper_shape() {
        let r = campaign();
        let (max_fs, mean_fs) = r.headline(SchemeId::VaFs).unwrap();
        // paper: 5.40x max, 1.86x mean — shape check with generous bands
        assert!(max_fs > 2.5, "VaFs max speedup {max_fs}");
        assert!(mean_fs > 1.25, "VaFs mean speedup {mean_fs}");
        let (max_pc, mean_pc) = r.headline(SchemeId::VaPc).unwrap();
        assert!(max_pc > 2.0, "VaPc max speedup {max_pc}");
        assert!(mean_pc > 1.2, "VaPc mean speedup {mean_pc}");
    }

    #[test]
    fn speedups_grow_as_budget_tightens() {
        let r = campaign();
        let levels = r.levels_for(WorkloadId::Bt);
        let loosest = levels[0];
        let tightest = *levels.last().unwrap();
        let s_loose = r.speedup(WorkloadId::Bt, loosest, SchemeId::VaFs).unwrap();
        let s_tight = r.speedup(WorkloadId::Bt, tightest, SchemeId::VaFs).unwrap();
        assert!(
            s_tight > s_loose,
            "BT VaFs: {s_loose} at {loosest} W vs {s_tight} at {tightest} W"
        );
    }

    #[test]
    fn oracle_tracks_calibrated_closely_except_bt() {
        let r = campaign();
        // For well-calibrated workloads the oracle gains little.
        for w in [WorkloadId::Mhd, WorkloadId::Sp] {
            for cm in r.levels_for(w) {
                let or = r.speedup(w, cm, SchemeId::VaPcOr).unwrap();
                let va = r.speedup(w, cm, SchemeId::VaPc).unwrap();
                assert!((or - va).abs() / or < 0.25, "{w} at {cm}: VaPcOr {or} vs VaPc {va}");
            }
        }
    }

    #[test]
    fn every_x_cell_ran_all_schemes() {
        let r = campaign();
        for &w in &WorkloadId::EVALUATED {
            for cm in r.levels_for(w) {
                let schemes: Vec<SchemeId> = r
                    .rows
                    .iter()
                    .filter(|row| row.workload == w && row.cm_w == cm)
                    .map(|row| row.scheme)
                    .collect();
                assert!(schemes.contains(&SchemeId::Naive), "{w}/{cm} missing Naive");
                assert!(schemes.contains(&SchemeId::VaFs), "{w}/{cm} missing VaFs");
            }
        }
    }

    #[test]
    fn render_includes_headline() {
        let r = campaign();
        let s = render(&r);
        assert!(s.contains("max speedup"));
        assert!(s.contains("VaFs"));
    }
}
