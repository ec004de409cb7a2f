//! Wall-clock timing for the fleet-scale record (`BENCH_fleet.json`).
//!
//! Timed with [`vap_bench::median_s`]: the committed record needs one
//! honest median per case, runs on any host `cargo run --release`
//! reaches, and prints the record shape directly so the numbers can be
//! pasted into `BENCH_fleet.json` (whose fields `tests/bench_json.rs`
//! holds to measured, target-hitting values).
//!
//! Cases:
//! - `construct_{10k,100k,1m}_s` — `Cluster::with_size` at each size.
//! - `pvt_sweep_{10k,100k,1m}_s` — the variation sweep
//!   (`PowerVariationTable::generate_with_threads`).
//! - `campaign_100k_s` — a fig7-equivalent budgeting campaign at 100k
//!   modules: construction + PVT sweep + per-workload calibration +
//!   α-solve and per-module allocations across the fig7 budget grid.
//! - `sched_events_per_s` — event-queue throughput (push + pop of 1M
//!   heap events), the hot path of the discrete-event scheduler.

use std::hint::black_box;

use vap_bench::median_s;
use vap_core::alpha::{allocations, raw_alpha};
use vap_core::pmt::PowerModelTable;
use vap_core::pvt::PowerVariationTable;
use vap_core::testrun::single_module_test_run;
use vap_model::linear::Alpha;
use vap_model::systems::SystemSpec;
use vap_model::units::Watts;
use vap_sched::{Event, EventQueue};
use vap_sim::cluster::Cluster;
use vap_workloads::{catalog, spec::WorkloadId};

/// The fig7 budget grid: per-module cap levels in watts.
const CAP_LEVELS_W: [f64; 6] = [50.0, 65.0, 80.0, 95.0, 110.0, 115.0];

/// One fig7-equivalent campaign at fleet scale: sweep the fleet for its
/// PVT, calibrate a per-workload PMT from a single probe test run (the
/// paper's "one test run + PVT scaling" protocol), then solve α and
/// materialize per-module allocations at every budget level.
fn campaign(n: usize, seed: u64, threads: usize) -> f64 {
    let mut fleet = Cluster::with_size(SystemSpec::ha8k(), n, seed);
    let pvt = PowerVariationTable::generate_with_threads(&mut fleet, &micro(), seed, threads);
    // The probe cluster shares the fleet's seed, so its module 0 is the
    // same silicon draw as the fleet's module 0 — the PVT entry matches.
    let mut probe = Cluster::with_size(SystemSpec::ha8k(), 8, seed);
    let ids: Vec<usize> = (0..n).collect();
    let mut acc = 0.0f64;
    for w in WorkloadId::EVALUATED {
        let spec = catalog::get(w);
        let test = single_module_test_run(&mut probe, 0, &spec, seed);
        let pmt = match PowerModelTable::calibrate(&pvt, &test, &ids) {
            Ok(pmt) => pmt,
            Err(e) => panic!("calibration at {n} modules failed: {e:?}"),
        };
        for cap_w in CAP_LEVELS_W {
            let budget = Watts(cap_w * n as f64);
            let alpha = Alpha::saturating(raw_alpha(budget, &pmt));
            let allocs = allocations(&pmt, alpha);
            acc += allocs[n / 2].p_cpu.value();
            black_box(&allocs);
        }
    }
    acc
}

fn micro() -> vap_workloads::spec::WorkloadSpec {
    catalog::get(WorkloadId::Stream)
}

/// Event-queue workload: push then drain `total` events through the
/// scheduler's binary heap, interleaving the three event kinds at
/// clustered timestamps (the worst case for heap churn).
fn queue_push_drain(total: usize) {
    let mut q = EventQueue::new();
    for i in 0..total {
        let t = (i % 4096) as f64 * 0.25;
        let ev = match i % 3 {
            0 => Event::Arrival { job: i },
            1 => Event::Completion { job: i, epoch: i as u64 },
            _ => Event::CapChange { cap: Watts(50.0 + (i % 64) as f64) },
        };
        q.push(t, ev);
    }
    let mut popped = 0usize;
    while let Some((t, ev)) = q.pop() {
        black_box((t, &ev));
        popped += 1;
    }
    assert_eq!(popped, total, "queue must drain every event exactly once");
}

fn main() {
    let seed = 2015u64;
    let threads = vap_exec::available_parallelism();
    let sizes: [(usize, &str, usize); 3] =
        [(10_000, "10k", 5), (100_000, "100k", 3), (1_000_000, "1m", 1)];

    let mut lines: Vec<String> = Vec::new();
    for (n, tag, reps) in sizes {
        let construct = median_s(reps, || Cluster::with_size(SystemSpec::ha8k(), n, seed));
        eprintln!("construct_{tag}: {construct:.4} s (median of {reps})");
        lines.push(format!("    \"construct_{tag}_s\": {construct:.4},"));
    }
    for (n, tag, reps) in sizes {
        let micro = micro();
        let mut fleet = Cluster::with_size(SystemSpec::ha8k(), n, seed);
        let sweep = median_s(reps, || {
            PowerVariationTable::generate_with_threads(&mut fleet, &micro, seed, threads)
        });
        eprintln!("pvt_sweep_{tag}: {sweep:.4} s (median of {reps})");
        lines.push(format!("    \"pvt_sweep_{tag}_s\": {sweep:.4},"));
    }

    let camp = median_s(3, || campaign(100_000, seed, threads));
    eprintln!("campaign_100k: {camp:.4} s (median of 3)");
    lines.push(format!("    \"campaign_100k_s\": {camp:.4},"));

    // push + pop both traverse the heap: count each event twice
    let eps = 2_000_000.0 / median_s(3, || queue_push_drain(1_000_000));
    eprintln!("sched_events_per_s: {eps:.0} (median of 3, 1M events)");
    lines.push(format!("    \"sched_events_per_s\": {eps:.0}"));

    println!("{{\n  \"results\": {{\n{}\n  }}\n}}", lines.join("\n"));
}
