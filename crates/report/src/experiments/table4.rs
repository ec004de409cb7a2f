//! Table 4: which (application, power constraint) cells are interesting.
//!
//! `X` = power-constrained (experiments run here), `•` = not sufficiently
//! constrained (no capping required), `–` = so constrained that modules
//! cannot run even at `f_min`.

use crate::experiments::common::{self, all_ids, budget_for, cs_kw};
use crate::options::RunOptions;
use crate::render::Table;
use vap_core::budgeter::Budgeter;
use vap_core::feasibility::Feasibility;
use vap_workloads::spec::WorkloadId;

/// The feasibility grid.
#[derive(Debug, Clone)]
pub struct Table4Result {
    /// `Cm` levels in watts (columns).
    pub cm_levels_w: Vec<f64>,
    /// Rows: (workload, one mark per level).
    pub rows: Vec<(WorkloadId, Vec<Feasibility>)>,
    /// Fleet size used.
    pub modules: usize,
}

impl Table4Result {
    /// Look up one cell.
    pub fn cell(&self, w: WorkloadId, cm_w: f64) -> Option<Feasibility> {
        let col = self.cm_levels_w.iter().position(|&c| (c - cm_w).abs() < 1e-9)?;
        self.rows.iter().find(|(id, _)| *id == w).map(|(_, marks)| marks[col])
    }
}

/// Classify every cell of the grid.
///
/// Rows are independent: each classifies its workload on a private clone
/// of the pristine post-PVT fleet, fanned over `opts.threads()` workers
/// with identical results at any thread count.
pub fn run(opts: &RunOptions) -> Table4Result {
    let n = opts.modules_or(1920);
    let threads = opts.threads();
    let mut cluster = common::ha8k(n, opts.seed);
    let budgeter = Budgeter::install_with_threads(&mut cluster, opts.seed, threads);
    let cluster = cluster; // pristine template, cloned per row
    let ids = all_ids(&cluster);

    let rows = vap_exec::par_grid(&WorkloadId::EVALUATED, threads, |&w| {
        let spec = vap_workloads::catalog::get(w);
        let mut fleet = cluster.clone();
        let marks = common::CM_LEVELS_W
            .iter()
            .map(|&cm| {
                budgeter
                    .feasibility(&mut fleet, &spec, budget_for(cm, n), &ids)
                    // only an empty module list errs; an unrunnable grid
                    // cell is exactly what `–` means
                    .unwrap_or(Feasibility::Infeasible)
            })
            .collect();
        (w, marks)
    });

    Table4Result { cm_levels_w: common::CM_LEVELS_W.to_vec(), rows, modules: n }
}

/// Render the grid with the paper's header (Cs in kW, average Cm in W).
pub fn render(result: &Table4Result) -> Table {
    let cs_headers: Vec<String> = result
        .cm_levels_w
        .iter()
        .map(|&cm| format!("{:.0}kW/{:.0}W", cs_kw(cm, result.modules), cm))
        .collect();
    let mut headers: Vec<&str> = vec!["Benchmark"];
    headers.extend(cs_headers.iter().map(String::as_str));
    let mut t = Table::new(
        &format!("Table 4: power constraints on HA8K ({} modules)", result.modules),
        &headers,
    );
    for (w, marks) in &result.rows {
        let mut row = vec![w.to_string()];
        row.extend(marks.iter().map(|m| m.mark().to_string()));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Table4Result {
        run(&RunOptions { modules: Some(192), seed: 2015, scale: 1.0, ..RunOptions::default() })
    }

    #[test]
    fn grid_covers_all_cells() {
        let g = grid();
        assert_eq!(g.rows.len(), 6);
        for (_, marks) in &g.rows {
            assert_eq!(marks.len(), 7);
        }
    }

    #[test]
    fn every_row_is_monotone_in_constraint() {
        // Loosening the budget can only move – → X → •.
        let rank = |f: Feasibility| match f {
            Feasibility::NotConstrained => 2,
            Feasibility::Constrained => 1,
            Feasibility::Infeasible => 0,
        };
        let g = grid();
        for (w, marks) in &g.rows {
            for pair in marks.windows(2) {
                assert!(rank(pair[0]) >= rank(pair[1]), "{w}: non-monotone row {marks:?}");
            }
        }
    }

    #[test]
    fn paper_anchor_cells() {
        let g = grid();
        // *DGEMM: X at 110 … 70, infeasible at 50.
        assert_eq!(g.cell(WorkloadId::Dgemm, 110.0), Some(Feasibility::Constrained));
        assert_eq!(g.cell(WorkloadId::Dgemm, 70.0), Some(Feasibility::Constrained));
        assert_eq!(g.cell(WorkloadId::Dgemm, 50.0), Some(Feasibility::Infeasible));
        // *STREAM: not constrained at the loosest level; infeasible by 60.
        assert_eq!(g.cell(WorkloadId::Stream, 60.0), Some(Feasibility::Infeasible));
        assert_eq!(g.cell(WorkloadId::Stream, 90.0), Some(Feasibility::Constrained));
        // MHD: • at 110, X at 90–60, – at 50.
        assert_eq!(g.cell(WorkloadId::Mhd, 110.0), Some(Feasibility::NotConstrained));
        assert_eq!(g.cell(WorkloadId::Mhd, 80.0), Some(Feasibility::Constrained));
        assert_eq!(g.cell(WorkloadId::Mhd, 50.0), Some(Feasibility::Infeasible));
        // NPB-BT / SP: constrained all the way down to 50.
        assert_eq!(g.cell(WorkloadId::Bt, 50.0), Some(Feasibility::Constrained));
        assert_eq!(g.cell(WorkloadId::Sp, 50.0), Some(Feasibility::Constrained));
        // BT relaxed at the top (• at 110).
        assert_eq!(g.cell(WorkloadId::Bt, 110.0), Some(Feasibility::NotConstrained));
    }

    #[test]
    fn render_uses_paper_marks() {
        let t = render(&grid());
        let s = t.render();
        assert!(s.contains('X'));
        assert!(s.contains('•'));
        assert!(s.contains('–'));
    }
}
