//! Property tests over the core invariants, spanning crates. Run as
//! seeded loops ([`vap_model::rng::check`]): a failure names the case
//! seed to replay.

use vap::prelude::*;
use vap_core::alpha::{allocations, max_alpha};
use vap_core::pmt::{PmtEntry, PowerModelTable};
use vap_model::power::{CpuPowerModel, VoltageCurve};
use vap_model::pstate::PStateTable;
use vap_model::rng::{check, SplitMix64};
use vap_model::variability::ModuleVariation;
use vap_mpi::engine;
use vap_mpi::program::ProgramBuilder;
use vap_sim::rapl::{steady_state, steady_state_power, RaplSteadyState};

const CASES: usize = 256;

/// Build a synthetic PMT from generated per-module anchor powers.
fn pmt_from(anchors: &[(f64, f64, f64, f64)]) -> PowerModelTable {
    let model = |p_max, p_min| {
        TwoPointModel::new(GigaHertz(2.7), GigaHertz(1.2), Watts(p_max), Watts(p_min))
    };
    PowerModelTable::from_entries(
        anchors
            .iter()
            .enumerate()
            .map(|(module_id, &(cpu_max, cpu_min, dram_max, dram_min))| PmtEntry {
                module_id,
                cpu: model(cpu_max, cpu_min),
                dram: model(dram_max, dram_min),
            })
            .collect(),
    )
}

/// Between `lo` and `hi - 1` anchor sets with p_max >= p_min and sane
/// magnitudes.
fn anchors(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<(f64, f64, f64, f64)> {
    let n = lo + rng.next_index(hi - lo);
    (0..n)
        .map(|_| {
            let cmax = rng.next_range(40.0, 140.0);
            let cmin_off = rng.next_range(20.0, 40.0);
            let dmax = rng.next_range(8.0, 40.0);
            let dmin_off = rng.next_range(4.0, 8.0);
            let cmin = cmax - cmin_off.min(cmax - 1.0);
            let dmin = dmax - dmin_off.min(dmax - 1.0);
            (cmax, cmin, dmax, dmin)
        })
        .collect()
}

/// Eq. 6/7 invariant: whatever the fleet looks like, the allocations
/// at the solved α never exceed the budget, and every module gets at
/// least its minimum.
#[test]
fn alpha_allocations_respect_budget() {
    check("alpha_allocations_respect_budget", 1, CASES, |rng| {
        let pmt = pmt_from(&anchors(rng, 1, 40));
        let slack = rng.next_range(0.0, 1.5);
        let min = pmt.fleet_minimum().value();
        let max = pmt.fleet_maximum().value();
        let budget = Watts(min + slack * (max - min));
        let alpha = max_alpha(budget, &pmt).expect("budget >= fleet minimum");
        let allocs = allocations(&pmt, alpha);
        let total = allocs.iter().map(|a| a.p_module).sum::<Watts>().value();
        assert!(total <= budget.value() + 1e-6, "total {total} exceeds budget {}", budget.value());
        for (a, e) in allocs.iter().zip(pmt.entries()) {
            assert!(a.p_module.value() >= e.module().p_min.value() - 1e-9);
            assert!(a.p_module.value() <= e.module().p_max.value() + 1e-9);
        }
        // all modules share the frequency
        let f0 = allocs[0].frequency;
        assert!(allocs.iter().all(|a| (a.frequency.value() - f0.value()).abs() < 1e-12));
    });
}

/// Budgets below the fleet minimum are always rejected, never planned.
#[test]
fn starvation_budgets_always_error() {
    check("starvation_budgets_always_error", 2, CASES, |rng| {
        let pmt = pmt_from(&anchors(rng, 1, 20));
        let frac = rng.next_range(0.1, 0.999);
        let budget = Watts(pmt.fleet_minimum().value() * frac - 1e-6);
        assert!(max_alpha(budget, &pmt).is_err());
    });
}

/// The two-point model's α ↔ frequency ↔ power mappings are mutually
/// consistent for arbitrary anchors.
#[test]
fn two_point_model_round_trips() {
    check("two_point_model_round_trips", 3, CASES, |rng| {
        let p_max = rng.next_range(20.0, 200.0);
        let span = rng.next_range(0.1, 100.0);
        let raw = rng.next_range(0.0, 1.0);
        let p_min = Watts(p_max - span);
        let m = TwoPointModel::new(GigaHertz(2.7), GigaHertz(1.2), Watts(p_max), p_min);
        let a = Alpha::saturating(raw);
        let f = m.frequency(a);
        let p = m.power(a);
        assert!((m.alpha_for_frequency(f) - raw).abs() < 1e-9);
        assert!((m.alpha_for_power(p).unwrap() - raw).abs() < 1e-9);
        assert!((m.power_at_frequency(f).value() - p.value()).abs() < 1e-9);
    });
}

/// RAPL steady state never draws more than the cap whenever the cap is
/// physically enforceable (i.e. the solution was not floored).
#[test]
fn rapl_steady_state_respects_enforceable_caps() {
    check("rapl_steady_state_respects_enforceable_caps", 4, CASES, |rng| {
        let cap_w = rng.next_range(20.0, 160.0);
        let dynamic = rng.next_range(0.9, 1.1);
        let leakage = rng.next_range(0.7, 1.5);
        let activity = rng.next_range(0.3, 1.0);
        let model = CpuPowerModel {
            voltage: VoltageCurve { v0: 0.6, v1: 0.1 },
            dynamic_scale: Watts(36.7),
            leakage: Watts(18.0),
            idle: Watts(8.0),
            gated_leakage_fraction: 1.0,
        };
        let pstates = PStateTable::evenly_spaced(GigaHertz(1.2), GigaHertz(2.7), GigaHertz(0.1));
        let mut v = ModuleVariation::nominal(0, 12);
        v.dynamic = dynamic;
        v.leakage = leakage;
        let s = steady_state(Watts(cap_w), &model, activity, &v, 1.0, &pstates);
        let p = steady_state_power(&s, &model, activity, &v, 1.0, &pstates);
        let floored = matches!(s, RaplSteadyState::ClockModulated { floored: true, .. });
        if !floored {
            assert!(p.value() <= cap_w + 1e-6, "{s:?} drew {p} over {cap_w} W");
        }
        // effective frequency is monotone in the cap
        let s2 = steady_state(Watts(cap_w + 10.0), &model, activity, &v, 1.0, &pstates);
        assert!(s2.effective_frequency(&pstates) >= s.effective_frequency(&pstates));
    });
}

/// Engine sanity for arbitrary SPMD rate vectors: a barrier-closed
/// program finishes exactly at the slowest rank's pace, wait times are
/// non-negative, and scaling every rate up can only shrink makespan.
#[test]
fn engine_invariants_under_random_rates() {
    check("engine_invariants_under_random_rates", 5, CASES, |rng| {
        let n = 2 + rng.next_index(30);
        let rates: Vec<f64> = (0..n).map(|_| rng.next_range(0.05, 2.0)).collect();
        let work = rng.next_range(0.5, 20.0);
        let boost = rng.next_range(1.01, 3.0);
        let p = ProgramBuilder::new().compute(work).barrier().build();
        let comm = CommParams::ideal();
        let r = engine::run(&p, &rates, &comm);
        let slowest = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!((r.makespan().value() - work / slowest).abs() < 1e-9);
        assert!(r.sync_wait.iter().all(|w| w.value() >= -1e-12));
        assert_eq!(r.vt().unwrap(), 1.0);

        let boosted: Vec<f64> = rates.iter().map(|x| x * boost).collect();
        let r2 = engine::run(&p, &boosted, &comm);
        assert!(r2.makespan() < r.makespan());
    });
}

/// Worst-case variation is scale-invariant and >= 1 for positive data.
#[test]
fn variation_metric_properties() {
    check("variation_metric_properties", 6, CASES, |rng| {
        let n = 1 + rng.next_index(63);
        let xs: Vec<f64> = (0..n).map(|_| rng.next_range(0.01, 1e6)).collect();
        let k = rng.next_range(0.01, 100.0);
        let v = vap::stats::worst_case_variation(&xs).unwrap();
        assert!(v >= 1.0);
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let v2 = vap::stats::worst_case_variation(&scaled).unwrap();
        assert!((v - v2).abs() < 1e-6 * v.max(1.0));
    });
}
