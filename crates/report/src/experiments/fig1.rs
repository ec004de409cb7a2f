//! Fig. 1: processor power and performance variation on Cab, Vulcan and
//! Teller, probed with single-socket NPB EP (turbo enabled, no caps).
//!
//! The paper's axes: per unit (socket, or node board on Vulcan), the
//! percentage slowdown versus the fastest unit and the percentage power
//! increase versus the most power-efficient unit, sorted by performance.
//! Headline observations reproduced here: ≈23% max CPU power variation on
//! Cab and ≈11% on Vulcan with essentially no performance variation;
//! ≈21% power and ≈17% performance variation on Teller with a negative
//! slowdown-power correlation.

use crate::options::RunOptions;
use crate::render::{f, Table};
use vap_model::systems::{SystemId, SystemSpec};
use vap_model::units::Seconds;
use vap_sim::cluster::{Cluster, ModuleView};
use vap_sim::measurement::{board_power, PowerSensor};
use vap_stats::variation::{increase_percent_vs_min, slowdown_percent_vs_best};
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

/// Per-system series of Fig. 1.
#[derive(Debug, Clone)]
pub struct SystemSeries {
    /// Which system.
    pub system: SystemId,
    /// Measured units (sockets; node boards on Vulcan).
    pub units: usize,
    /// Per-unit slowdown vs the fastest unit, %, sorted by performance.
    pub slowdown_pct: Vec<f64>,
    /// Per-unit power increase vs the most efficient unit, %, in the same
    /// unit order.
    pub power_increase_pct: Vec<f64>,
}

impl SystemSeries {
    /// Maximum power variation (the paper quotes 23% / 11% / 21%).
    pub fn max_power_variation_pct(&self) -> f64 {
        self.power_increase_pct.iter().copied().fold(0.0, f64::max)
    }

    /// Maximum performance variation (≈0% / ≈0% / 17%).
    pub fn max_perf_variation_pct(&self) -> f64 {
        self.slowdown_pct.iter().copied().fold(0.0, f64::max)
    }

    /// Pearson correlation between slowdown and power increase — the
    /// paper's Teller observation is a *negative* value here ("processors
    /// that consumed more power performed better"). `None` when one axis
    /// has no variation (Cab, Vulcan).
    pub fn slowdown_power_correlation(&self) -> Option<f64> {
        vap_stats::pearson(&self.slowdown_pct, &self.power_increase_pct)
    }
}

/// The complete Fig. 1 data set.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// One series per system (Cab, Vulcan, Teller).
    pub series: Vec<SystemSeries>,
}

/// Run the Fig. 1 study.
///
/// The three systems are probed independently (each builds its own fleet
/// from a system-specific seed), so the study fans over `opts.threads()`
/// workers with identical results at any thread count.
pub fn run(opts: &RunOptions) -> Fig1Result {
    let systems = [SystemId::Cab, SystemId::Vulcan, SystemId::Teller];
    let series = vap_exec::par_grid(&systems, opts.threads(), |&id| run_system(id, opts));
    Fig1Result { series }
}

fn run_system(id: SystemId, opts: &RunOptions) -> SystemSeries {
    let spec = SystemSpec::get(id);
    let group = spec.modules_per_measurement.max(1);
    // honor --modules but keep whole measurement groups
    let n_modules = opts
        .modules
        .map(|m| m.min(spec.modules_studied))
        .unwrap_or(spec.modules_studied)
        .max(group);
    let n_modules = (n_modules / group) * group;

    let mut cluster = Cluster::with_size(spec.clone(), n_modules, opts.seed ^ id_seed(id));
    let ep = catalog::get(WorkloadId::Ep);
    ep.apply_to(&mut cluster, opts.seed);

    let mut sensor = PowerSensor::new(spec.measurement, opts.seed ^ 0xF161);
    let boundedness = ep.boundedness(spec.pstates.uncapped());

    // Per measured unit: (execution time, measured CPU power).
    let mut units: Vec<(f64, f64)> = Vec::with_capacity(n_modules / group);
    let modules: Vec<ModuleView<'_>> = cluster.modules().collect();
    for chunk in modules.chunks(group) {
        // EP execution time per socket; a board's reported time is its
        // slowest card (EP runs per card; the board completes when all do)
        let time = chunk
            .iter()
            .map(|&m| single_socket_ep_time(m, &boundedness, &ep, opts.scale).value())
            .fold(0.0f64, f64::max);
        let power = if group == 1 {
            sensor.sample_averaged(chunk[0], 32).value()
        } else {
            // EMON instantaneous board sample, averaged over a few reads
            let mut acc = 0.0;
            for _ in 0..8 {
                acc += board_power(chunk, &mut sensor).value();
            }
            acc / 8.0
        };
        units.push((time, power));
    }

    // Fig. 1 sorts units by performance characteristics.
    units.sort_by(|a, b| a.0.total_cmp(&b.0));
    let times: Vec<f64> = units.iter().map(|u| u.0).collect();
    let powers: Vec<f64> = units.iter().map(|u| u.1).collect();

    SystemSeries {
        system: id,
        units: units.len(),
        // non-positive times/powers cannot occur for a real fleet; an
        // empty series renders as an empty figure rather than a panic
        slowdown_pct: slowdown_percent_vs_best(&times).unwrap_or_default(),
        power_increase_pct: increase_percent_vs_min(&powers).unwrap_or_default(),
    }
}

fn single_socket_ep_time(
    module: ModuleView<'_>,
    boundedness: &vap_model::boundedness::Boundedness,
    ep: &vap_workloads::spec::WorkloadSpec,
    scale: f64,
) -> Seconds {
    let rate = module.effective_rate(boundedness);
    ep.reference_time * (scale / rate)
}

fn id_seed(id: SystemId) -> u64 {
    match id {
        SystemId::Cab => 0xCAB,
        SystemId::Vulcan => 0xB60,
        SystemId::Teller => 0x7E11,
        SystemId::Ha8k => 0x8A8C,
    }
}

/// Render the Fig. 1 summary table.
pub fn render(result: &Fig1Result) -> Table {
    let mut t = Table::new(
        "Fig. 1: Processor Power and Performance Variation (single-socket EP)",
        &[
            "System",
            "Units",
            "Max power variation [%]",
            "Max perf variation [%]",
            "corr(slowdown, power)",
        ],
    );
    for s in &result.series {
        t.row(vec![
            SystemSpec::get(s.system).name,
            s.units.to_string(),
            f(s.max_power_variation_pct(), 1),
            f(s.max_perf_variation_pct(), 1),
            s.slowdown_power_correlation().map_or("-".to_string(), |r| f(r, 2)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> RunOptions {
        RunOptions { modules: Some(256), seed: 2015, scale: 1.0, ..RunOptions::default() }
    }

    #[test]
    fn cab_and_vulcan_show_power_but_not_performance_variation() {
        let r = run(&small_opts());
        let cab = &r.series[0];
        assert_eq!(cab.system, SystemId::Cab);
        assert!(
            cab.max_power_variation_pct() > 10.0,
            "Cab power var {}",
            cab.max_power_variation_pct()
        );
        assert!(
            cab.max_perf_variation_pct() < 1.0,
            "Cab perf var {}",
            cab.max_perf_variation_pct()
        );

        let vulcan = &r.series[1];
        // board-level aggregation tempers variation (paper: 11%)
        assert!(vulcan.max_power_variation_pct() > 3.0);
        assert!(vulcan.max_power_variation_pct() < cab.max_power_variation_pct());
        assert!(vulcan.max_perf_variation_pct() < 1.0);
    }

    #[test]
    fn teller_shows_both_kinds_of_variation() {
        let r = run(&small_opts());
        let teller = &r.series[2];
        assert_eq!(teller.system, SystemId::Teller);
        assert_eq!(teller.units, 64); // studied fleet is smaller than --modules
        assert!(teller.max_power_variation_pct() > 10.0);
        assert!(
            teller.max_perf_variation_pct() > 8.0,
            "Teller perf var {}",
            teller.max_perf_variation_pct()
        );
        // the paper's negative slowdown-power correlation
        let corr = teller.slowdown_power_correlation().expect("both axes vary");
        assert!(corr < -0.3, "expected clearly negative correlation, got {corr}");
    }

    #[test]
    fn series_are_sorted_by_performance() {
        let r = run(&small_opts());
        for s in &r.series {
            assert_eq!(s.slowdown_pct[0], 0.0);
            let mut last = 0.0;
            for &x in &s.slowdown_pct {
                assert!(x >= last);
                last = x;
            }
        }
    }

    #[test]
    fn vulcan_units_are_whole_boards() {
        let r =
            run(&RunOptions { modules: Some(100), seed: 1, scale: 1.0, ..RunOptions::default() });
        // 100 modules → 3 whole boards of 32
        assert_eq!(r.series[1].units, 3);
    }

    #[test]
    fn render_lists_three_systems() {
        let r =
            run(&RunOptions { modules: Some(64), seed: 1, scale: 1.0, ..RunOptions::default() });
        let t = render(&r);
        assert_eq!(t.len(), 3);
        assert!(t.render().contains("Teller"));
    }
}
