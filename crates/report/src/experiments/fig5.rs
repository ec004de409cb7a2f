//! Fig. 5: power vs CPU frequency on 64 HA8K modules.
//!
//! The budgeting model assumes CPU and DRAM power are linear in CPU
//! frequency (§5.1.1). Fig. 5 validates this by sweeping the frequency
//! range and fitting lines: the paper reports R² of 0.999 (module and
//! CPU) and 0.991–0.996 (DRAM) for *DGEMM and MHD. The ground-truth
//! physics here is mildly super-linear (`f·V(f)²`), so the fits land in
//! the same "excellent but not perfect" band.

use crate::experiments::common::{self, all_ids};
use crate::options::RunOptions;
use crate::render::{f, Table};
use vap_stats::LinearFit;
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

/// Fitted linearity of one workload's power response.
#[derive(Debug, Clone)]
pub struct LinearityResult {
    /// The workload swept.
    pub workload: WorkloadId,
    /// Frequencies swept (GHz).
    pub freqs_ghz: Vec<f64>,
    /// Fleet-average module power per frequency (W).
    pub module_w: Vec<f64>,
    /// Fleet-average CPU power per frequency (W).
    pub cpu_w: Vec<f64>,
    /// Fleet-average DRAM power per frequency (W).
    pub dram_w: Vec<f64>,
    /// Linear fit of module power.
    pub module_fit: LinearFit,
    /// Linear fit of CPU power.
    pub cpu_fit: LinearFit,
    /// Linear fit of DRAM power.
    pub dram_fit: LinearFit,
}

/// The Fig. 5 data set.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// One panel per workload (*DGEMM, MHD).
    pub workloads: Vec<LinearityResult>,
    /// Fleet size (64 in the paper).
    pub modules: usize,
}

/// A frequency sweep produced a series no line can be fitted to (fewer
/// than two distinct frequencies, or a non-finite power reading).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitError {
    /// The workload whose sweep failed.
    pub workload: WorkloadId,
    /// The power domain being fitted (`Module`, `CPU`, or `DRAM`).
    pub domain: &'static str,
    /// Sweep points that were available.
    pub points: usize,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot fit {} {} power vs frequency: {} usable sweep point(s)",
            self.workload, self.domain, self.points
        )
    }
}

impl std::error::Error for FitError {}

/// Run the Fig. 5 sweep.
///
/// # Errors
///
/// [`FitError`] if any workload's sweep yields a series that cannot be
/// fitted — possible only with a degenerate p-state table (< 2
/// frequencies), which no shipped [`SystemSpec`](vap_model::systems::SystemSpec) has.
pub fn run(opts: &RunOptions) -> Result<Fig5Result, FitError> {
    let n = opts.modules_or(64);
    let mut cluster = common::ha8k(n, opts.seed);
    let ids = all_ids(&cluster);
    let mut workloads = Vec::new();
    for w in [WorkloadId::Dgemm, WorkloadId::Mhd] {
        let spec = catalog::get(w);
        spec.apply_to(&mut cluster, opts.seed);
        cluster.uncap_all();

        let mut freqs = Vec::new();
        let mut cpu = Vec::new();
        let mut dram = Vec::new();
        let mut module = Vec::new();
        let pstates = cluster.spec().pstates.clone();
        for &fr in pstates.frequencies() {
            if cluster.set_frequencies(&vec![fr; ids.len()]).is_err() {
                continue; // unreachable: one entry per module by construction
            }
            freqs.push(fr.value());
            let c: f64 =
                cluster.cpu_powers().iter().map(|p| p.value()).sum::<f64>() / ids.len() as f64;
            let d: f64 =
                cluster.dram_powers().iter().map(|p| p.value()).sum::<f64>() / ids.len() as f64;
            cpu.push(c);
            dram.push(d);
            module.push(c + d);
        }
        cluster.uncap_all();

        let fit = |domain: &'static str, ys: &[f64]| {
            LinearFit::fit(&freqs, ys).ok_or(FitError { workload: w, domain, points: freqs.len() })
        };
        workloads.push(LinearityResult {
            workload: w,
            module_fit: fit("Module", &module)?,
            cpu_fit: fit("CPU", &cpu)?,
            dram_fit: fit("DRAM", &dram)?,
            freqs_ghz: freqs,
            module_w: module,
            cpu_w: cpu,
            dram_w: dram,
        });
    }
    for i in 0..cluster.len() {
        cluster.set_workload_variation(i, None);
        cluster.set_activity(i, vap_model::power::PowerActivity::IDLE);
    }
    Ok(Fig5Result { workloads, modules: n })
}

/// Render the R² table.
pub fn render(result: &Fig5Result) -> Table {
    let mut t = Table::new(
        &format!("Fig. 5: power vs CPU frequency linearity ({} modules)", result.modules),
        &["Workload", "Domain", "Slope [W/GHz]", "Intercept [W]", "R^2"],
    );
    for w in &result.workloads {
        for (domain, fit) in [("Module", w.module_fit), ("CPU", w.cpu_fit), ("DRAM", w.dram_fit)] {
            t.row(vec![
                w.workload.to_string(),
                domain.to_string(),
                f(fit.slope, 2),
                f(fit.intercept, 2),
                format!("{:.4}", fit.r_squared),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig5Result {
        run(&RunOptions { modules: Some(64), seed: 2015, scale: 1.0, ..RunOptions::default() })
            .unwrap()
    }

    #[test]
    fn fits_are_excellent_but_imperfect() {
        let r = result();
        for w in &r.workloads {
            for fit in [w.module_fit, w.cpu_fit, w.dram_fit] {
                assert!(fit.r_squared > 0.99, "{}: R^2 = {}", w.workload, fit.r_squared);
                assert!(fit.r_squared <= 1.0);
                assert!(fit.slope > 0.0, "power must rise with frequency");
            }
            // CPU fit is slightly less linear than DRAM (f·V² vs affine)
            assert!(w.dram_fit.r_squared >= w.cpu_fit.r_squared - 1e-6);
        }
    }

    #[test]
    fn sweep_covers_the_pstate_range() {
        let r = result();
        let w = &r.workloads[0];
        assert_eq!(w.freqs_ghz.first(), Some(&1.2));
        assert_eq!(w.freqs_ghz.last(), Some(&2.7));
        assert_eq!(w.freqs_ghz.len(), 16);
        // monotone power
        for pair in w.module_w.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    #[test]
    fn dgemm_runs_hotter_than_mhd() {
        let r = result();
        let dgemm_max = *r.workloads[0].cpu_w.last().unwrap();
        let mhd_max = *r.workloads[1].cpu_w.last().unwrap();
        assert!(dgemm_max > mhd_max);
    }

    #[test]
    fn render_reports_six_fits() {
        let t = render(
            &run(&RunOptions { modules: Some(8), seed: 1, scale: 1.0, ..RunOptions::default() })
                .unwrap(),
        );
        assert_eq!(t.len(), 6);
        assert!(t.render().contains("R^2"));
    }
}
