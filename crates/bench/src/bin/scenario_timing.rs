//! Wall-clock timing for the scenario-engine record (`BENCH_scenario.json`).
//!
//! Timed with [`vap_bench::median_s`], like `fleet_timing`: the
//! committed record needs one honest median per case, runs on any host
//! `cargo run --release` reaches, and prints the record shape directly
//! so the numbers can be pasted into `BENCH_scenario.json` (whose fields
//! `tests/bench_json.rs` holds to measured, floor-hitting values).
//!
//! Cases:
//! - `driftstudy_96_s` — the full driftstudy grid (8 scenarios × 3
//!   re-calibration policies × 2 caps, 120 control steps per cell) at
//!   96 modules, the committed `--bin driftstudy` configuration.
//! - `gen_mixed_10k_s` — schedule generation + `(at_s, seq)` ordering
//!   for the `mixed` composite at 10k modules.
//! - `aging_apply_{96,10k}_events_per_s` — perturbation application
//!   throughput against a [`Cluster`], using the
//!   `aging` stream because its event count is exactly `6 × modules`
//!   (a deterministic denominator) and every event exercises the
//!   drift-skew recompute hot path.

use vap_bench::{median, median_s};
use vap_model::systems::SystemSpec;
use vap_report::experiments::drift_study;
use vap_report::RunOptions;
use vap_scenario::{Scenario, ScenarioRuntime};
use vap_sim::cluster::Cluster;

/// Simulated horizon every case schedules against (matches driftstudy).
const HORIZON_S: f64 = 3600.0;

/// Apply the full `aging` schedule to a fresh fleet, returning
/// (events applied, events per second). Every event lands on the
/// `set_drift_skew` recompute path, so this is the per-event cost the
/// daemon and driftstudy pay while a scenario is live.
fn aging_apply_events_per_s(n: usize, seed: u64) -> (usize, f64) {
    let mut fleet = Cluster::with_size(SystemSpec::ha8k(), n, seed);
    let mut sc = ScenarioRuntime::new(Scenario::Aging, n, HORIZON_S, seed);
    let total = sc.remaining();
    assert_eq!(total, 6 * n, "aging schedules exactly 6 steps per module");
    let mut applied = 0;
    let elapsed = median_s(1, || applied = sc.advance_cluster(HORIZON_S, &mut fleet).len());
    assert_eq!(applied, total, "every scheduled event must apply");
    (total, total as f64 / elapsed)
}

fn main() {
    let seed = 2015u64;
    let threads = vap_exec::available_parallelism();
    let mut lines: Vec<String> = Vec::new();

    let opts = RunOptions {
        modules: Some(96),
        seed,
        threads: Some(threads),
        ..RunOptions::default()
    };
    let study = median_s(3, || drift_study::run(&opts));
    eprintln!("driftstudy_96: {study:.4} s (median of 3, {threads} threads)");
    lines.push(format!("    \"driftstudy_96_s\": {study:.4},"));

    let gen = median_s(5, || Scenario::Mixed.events(10_000, HORIZON_S, seed));
    let count = Scenario::Mixed.events(10_000, HORIZON_S, seed).len();
    eprintln!("gen_mixed_10k: {gen:.4} s (median of 5, {count} events)");
    lines.push(format!("    \"gen_mixed_10k_s\": {gen:.4},"));

    for (n, tag, reps) in [(96usize, "96", 5usize), (10_000, "10k", 3)] {
        let mut runs: Vec<f64> = Vec::with_capacity(reps);
        let mut total = 0usize;
        for _ in 0..reps {
            let (count, eps) = aging_apply_events_per_s(n, seed);
            total = count;
            runs.push(eps);
        }
        let eps = median(&mut runs);
        eprintln!("aging_apply_{tag}: {eps:.0} events/s (median of {reps}, {total} events)");
        lines.push(format!("    \"aging_apply_{tag}_events_per_s\": {eps:.0},"));
    }
    if let Some(last) = lines.last_mut() {
        *last = last.trim_end_matches(',').to_string();
    }

    println!("{{\n  \"results\": {{\n{}\n  }}\n}}", lines.join("\n"));
}
