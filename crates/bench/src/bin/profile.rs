//! `profile`: the repo's timings on one [`Runner`], printed as the
//! `BENCH.json` record.
//!
//! ```text
//! cargo run --release -p vap-bench --bin profile > BENCH.json
//! cargo run --release -p vap-bench --bin profile -- ledger   # cases named *ledger*
//! ```
//!
//! Every row is `{name, unit, n, median, q1, q3}` over `n` samples; the
//! soak's error and scrape-latency rows add `p95` and `p99`. Progress
//! goes to stderr. Cases:
//! - the north-star workloads at their committed scale: `fig7_1920`,
//!   `schedstudy_384` and `driftstudy_96`;
//! - fleet scale: `construct_{10k,100k,1m}` (`Cluster::with_size`),
//!   `pvt_sweep_{10k,100k,1m}`, `campaign_100k` (a fig7-equivalent
//!   budgeting campaign at 100k modules) and `sched_events` (push + pop
//!   of 1M events through the scheduler's queue, each counted twice);
//! - the scenario engine: `gen_mixed_10k` (schedule generation) and
//!   `aging_apply_{96,10k}` (perturbations applied per second);
//! - campaign fan-out: `campaign_{fig7_48,table4_96}/threads_{1,2,4}`
//!   as interleaved rounds, with `speedup_threads_4` per round;
//! - ledger cost: a fig7 campaign with the watt-provenance ledger armed
//!   and off, as interleaved pairs, with `on_over_off` per pair; the
//!   armed side's session is set up and dropped outside the clock;
//! - the daemon soak: five 2 s sessions of 8 scrape loops and 4 JSON
//!   streams against an in-process 96-module daemon on ephemeral ports
//!   (`--accel 100`), one sample per session and the scrape latency
//!   over every scrape. If a session fails, the record goes to stderr
//!   instead and `profile` exits 1.

use std::hint::black_box;

use vap_bench::{time_s, Runner};
use vap_core::alpha::{allocations, raw_alpha};
use vap_core::pmt::PowerModelTable;
use vap_core::pvt::PowerVariationTable;
use vap_core::testrun::single_module_test_run;
use vap_daemon::soak::{SoakConfig, SoakReport};
use vap_daemon::{DaemonConfig, DaemonSummary, Service};
use vap_model::linear::Alpha;
use vap_model::systems::SystemSpec;
use vap_model::units::Watts;
use vap_obs::Histogram;
use vap_report::experiments::{drift_study, fig7, sched_study, table4};
use vap_report::RunOptions;
use vap_scenario::{Scenario, ScenarioRuntime};
use vap_sched::{Event, EventQueue};
use vap_sim::cluster::Cluster;
use vap_workloads::{catalog, spec::WorkloadId};

const SEED: u64 = 2015;

/// The fig7 budget grid: per-module cap levels in watts.
const CAP_LEVELS_W: [f64; 6] = [50.0, 65.0, 80.0, 95.0, 110.0, 115.0];

/// Simulated horizon the scenario cases schedule against (driftstudy's).
const HORIZON_S: f64 = 3600.0;

fn opts(modules: usize, scale: f64, threads: Option<usize>) -> RunOptions {
    RunOptions { modules: Some(modules), seed: SEED, scale, threads, ..RunOptions::default() }
}

/// One fig7-equivalent campaign at fleet scale: sweep the fleet for its
/// PVT, calibrate a per-workload PMT from a single probe test run (the
/// paper's "one test run + PVT scaling" protocol), then solve α and
/// materialize per-module allocations at every budget level.
fn campaign(n: usize, threads: usize) -> f64 {
    let mut fleet = Cluster::with_size(SystemSpec::ha8k(), n, SEED);
    let stream = catalog::get(WorkloadId::Stream);
    let pvt = PowerVariationTable::generate_with_threads(&mut fleet, &stream, SEED, threads);
    // The probe cluster shares the fleet's seed, so its module 0 is the
    // same silicon draw as the fleet's module 0: the PVT entry matches.
    let mut probe = Cluster::with_size(SystemSpec::ha8k(), 8, SEED);
    let ids: Vec<usize> = (0..n).collect();
    let mut acc = 0.0f64;
    for w in WorkloadId::EVALUATED {
        let test = single_module_test_run(&mut probe, 0, &catalog::get(w), SEED);
        let pmt = match PowerModelTable::calibrate(&pvt, &test, &ids) {
            Ok(pmt) => pmt,
            Err(e) => panic!("calibration at {n} modules failed: {e:?}"),
        };
        for cap_w in CAP_LEVELS_W {
            let alpha = Alpha::saturating(raw_alpha(Watts(cap_w * n as f64), &pmt));
            let allocs = allocations(&pmt, alpha);
            acc += allocs[n / 2].p_cpu.value();
            black_box(&allocs);
        }
    }
    acc
}

/// Push then drain `total` events through the scheduler's binary heap,
/// interleaving the three event kinds at clustered timestamps (the worst
/// case for heap churn).
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

fn north_star(r: &mut Runner, threads: usize) {
    let o = RunOptions::default();
    r.case("fig7_1920", || fig7::run(&o));
    r.case("schedstudy_384", || sched_study::run(&o));
    let o = opts(96, 1.0, Some(threads));
    r.case("driftstudy_96", || drift_study::run(&o));
}

fn fleet_scale(r: &mut Runner, threads: usize) {
    let sizes = [(10_000, "10k"), (100_000, "100k"), (1_000_000, "1m")];
    for (n, tag) in sizes {
        r.case(&format!("construct_{tag}"), || Cluster::with_size(SystemSpec::ha8k(), n, SEED));
    }
    let stream = catalog::get(WorkloadId::Stream);
    for (n, tag) in sizes {
        let mut fleet = Cluster::with_size(SystemSpec::ha8k(), n, SEED);
        r.case(&format!("pvt_sweep_{tag}"), || {
            PowerVariationTable::generate_with_threads(&mut fleet, &stream, SEED, threads)
        });
    }
    r.case("campaign_100k", || campaign(100_000, threads));
    r.rate("sched_events", "events/s", 2e6, || (), |()| queue_push_drain(1_000_000));
}

fn scenario_engine(r: &mut Runner) {
    r.case("gen_mixed_10k", || Scenario::Mixed.events(10_000, HORIZON_S, SEED));
    for (n, tag) in [(96, "96"), (10_000, "10k")] {
        // the aging stream schedules exactly six drift steps per module,
        // each on the per-module recompute path
        let events = 6 * n;
        r.rate(
            &format!("aging_apply_{tag}"),
            "events/s",
            events as f64,
            || {
                let fleet = Cluster::with_size(SystemSpec::ha8k(), n, SEED);
                (fleet, ScenarioRuntime::new(Scenario::Aging, n, HORIZON_S, SEED))
            },
            |(mut fleet, mut sc)| {
                let applied = sc.advance_cluster(HORIZON_S, &mut fleet).len();
                assert_eq!(applied, events, "every scheduled aging event must apply");
            },
        );
    }
}

/// `case` at 1, 2 and 4 threads as interleaved rounds, with the speedup
/// of 4 threads over 1 per round.
fn fan_out<T>(r: &mut Runner, case: &str, o: &RunOptions, run: fn(&RunOptions) -> T) {
    let at = |threads| {
        let o = RunOptions { threads: Some(threads), ..o.clone() };
        move || time_s(|| run(&o))
    };
    let [t1, t2, t4] = [1, 2, 4].map(|threads| format!("{case}/threads_{threads}"));
    r.interleave(
        &format!("{case}/speedup_threads_4"),
        &mut [(&t1, &mut at(1)), (&t2, &mut at(2)), (&t4, &mut at(4))],
    );
}

fn ledger_cost(r: &mut Runner) {
    for modules in [48, 96] {
        let o = opts(modules, 1.0, None);
        let campaign = || fig7::run(&o).rows.len();
        let mut armed = || {
            let _session = vap_obs::Session::install_with_ledger();
            time_s(campaign)
        };
        let [on, off] = ["on", "off"].map(|side| format!("ledger_{modules}/{side}"));
        r.interleave(
            &format!("ledger_{modules}/on_over_off"),
            &mut [(&on, &mut armed), (&off, &mut || time_s(campaign))],
        );
    }
}

/// Soak sessions against a fresh in-process daemon; returns whether
/// every session met the soak's pass condition.
fn daemon_soak(r: &mut Runner) -> bool {
    type Stat = fn(&SoakReport, &DaemonSummary) -> f64;
    let stats: [(&str, &'static str, Stat); 7] = [
        ("daemon_soak/wall", "s", |s, _| s.wall_s),
        ("daemon_soak/prom_scrapes", "scrapes", |s, _| s.scrapes as f64),
        ("daemon_soak/prom_scrapes_per_s", "scrapes/s", |s, _| s.scrapes as f64 / s.wall_s),
        ("daemon_soak/prom_bytes", "bytes", |s, _| s.bytes as f64),
        ("daemon_soak/json_lines", "lines", |s, _| s.json_lines as f64),
        ("daemon_soak/snapshots_published", "snapshots", |_, d| d.published as f64),
        ("daemon_soak/registry_reads", "reads", |_, d| d.registry_reads as f64),
    ];
    const ERRORS: &str = "daemon_soak/errors";
    const LATENCY: &str = "daemon_soak/prom_scrape_ms";
    let mut names = stats.iter().map(|(name, ..)| *name).chain([ERRORS, LATENCY]);
    if !names.any(|name| r.selected(name)) {
        return true;
    }
    let opts = opts(96, 1.0, Some(1));
    let cfg = DaemonConfig { prom_port: 0, json_port: 0, accel: 100.0, ..DaemonConfig::default() };
    let soak = SoakConfig { prom_clients: 8, json_clients: 4, seconds: 2.0 };
    let sessions: Vec<(SoakReport, DaemonSummary)> = (0..5)
        .map(|_| match Service::bind(&opts, &cfg).and_then(|service| service.soak(&soak)) {
            Ok(session) => session,
            Err(e) => panic!("soak session failed: {e}"),
        })
        .collect();

    for (name, unit, f) in stats {
        r.record(name, unit, sessions.iter().map(|(s, d)| f(s, d)).collect());
    }
    // with its tail, the errors row shows one failed session among five
    r.record_tail(ERRORS, "errors", sessions.iter().map(|(s, _)| s.errors as f64).collect());
    let mut latency = Histogram::default();
    sessions.iter().for_each(|(s, _)| latency.merge(&s.scrape_ms));
    r.record_histogram(LATENCY, "ms", &latency);
    sessions.iter().all(|(s, _)| s.passed(&soak))
}

fn main() {
    let threads = vap_exec::available_parallelism();
    let mut r = Runner::from_args();
    north_star(&mut r, threads);
    fleet_scale(&mut r, threads);
    scenario_engine(&mut r);
    fan_out(&mut r, "campaign_fig7_48", &opts(48, 0.02, None), fig7::run);
    fan_out(&mut r, "campaign_table4_96", &opts(96, 1.0, None), table4::run);
    ledger_cost(&mut r);
    if daemon_soak(&mut r) {
        print!("{}", r.report());
    } else {
        // on stderr, a failed soak's record cannot land in BENCH.json
        eprint!("{}", r.report());
        eprintln!("profile: a daemon soak session saw errors or idle clients");
        std::process::exit(1);
    }
}
