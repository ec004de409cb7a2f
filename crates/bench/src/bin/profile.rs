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
//! - the layers below the campaigns, each on its own: the closed-form
//!   α-solve and allocation the paper's scalability argument rests on
//!   (`alpha_solver/solve_and_allocate/{1000,10000,100000}`, a
//!   synthetic PMT), the per-system and per-job pipeline stages
//!   (`pipeline/*`), the RAPL steady state, SPMD engine, scheduler,
//!   module cap and linear fit (`substrates/*`), and two ablations
//!   (`ablation_calibration_cost/*`, `ablation_pstate_floor/floor/*`);
//! - `report/<name>`: every `vap_report::registry::EXPERIMENTS` entry at
//!   48 modules, scale 0.05 and one thread, each call on a fresh context;
//! - the daemon soak: five 2 s sessions of 8 scrape loops and 4 JSON
//!   streams against an in-process 96-module daemon on ephemeral ports
//!   (`--accel 100`), one sample per session and the scrape latency
//!   over every scrape. If a session fails, the record goes to stderr
//!   instead and `profile` exits 1.

use std::hint::black_box;

use vap_bench::{time_s, Runner};
use vap_core::alpha::{allocations, max_alpha, raw_alpha};
use vap_core::pmt::{PmtEntry, PowerModelTable};
use vap_core::pvt::PowerVariationTable;
use vap_core::schemes::{PlanRequest, SchemeId};
use vap_core::testrun::single_module_test_run;
use vap_daemon::soak::{SoakConfig, SoakReport};
use vap_daemon::{DaemonConfig, DaemonSummary, Service};
use vap_model::linear::{Alpha, TwoPointModel};
use vap_model::systems::SystemSpec;
use vap_model::units::{GigaHertz, Watts};
use vap_mpi::comm::CommParams;
use vap_mpi::engine;
use vap_mpi::program::{Op, ProgramBuilder};
use vap_obs::Histogram;
use vap_report::experiments::{drift_study, fig7, sched_study, table4};
use vap_report::registry::{Context, EXPERIMENTS};
use vap_report::RunOptions;
use vap_scenario::{Scenario, ScenarioRuntime};
use vap_sched::{Event, EventQueue};
use vap_sim::cluster::Cluster;
use vap_sim::rapl;
use vap_sim::scheduler::AllocationPolicy;
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
            _ => Event::Scenario { idx: i },
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
        let name = format!("pvt_sweep_{tag}");
        // building the three fleets takes about a second, so a filtered
        // run builds only the ones its rows sweep
        if r.selected(&name) {
            let mut fleet = Cluster::with_size(SystemSpec::ha8k(), n, SEED);
            r.case(&name, || {
                PowerVariationTable::generate_with_threads(&mut fleet, &stream, SEED, threads)
            });
        }
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

/// A synthetic PMT of `n` modules (spread anchors, no cluster needed).
fn synthetic_pmt(n: usize) -> PowerModelTable {
    let model = |p_max, p_min| TwoPointModel::new(GigaHertz(2.7), GigaHertz(1.2), p_max, p_min);
    PowerModelTable::from_entries(
        (0..n)
            .map(|module_id| {
                let k = 0.9 + 0.2 * (module_id % 97) as f64 / 97.0;
                PmtEntry {
                    module_id,
                    cpu: model(Watts(100.0 * k), Watts(48.0 * k)),
                    dram: model(Watts(12.0 * k), Watts(10.0 * k)),
                }
            })
            .collect(),
    )
}

/// The closed-form α-solve and allocation: the whole per-job planning
/// cost, linear in the fleet.
fn alpha_solver(r: &mut Runner) {
    for n in [1_000usize, 10_000, 100_000] {
        let pmt = synthetic_pmt(n);
        let budget = Watts(80.0 * n as f64);
        r.case(&format!("alpha_solver/solve_and_allocate/{n}"), || {
            let a = max_alpha(black_box(budget), &pmt).expect("feasible");
            allocations(&pmt, a)
        });
    }
}

/// The once-per-system and per-job pipeline stages.
fn pipeline(r: &mut Runner) {
    let stream = catalog::get(WorkloadId::Stream);
    r.case_with_setup(
        "pipeline/pvt_generation_256_modules",
        || Cluster::with_size(SystemSpec::ha8k(), 256, SEED),
        |mut cluster| PowerVariationTable::generate(&mut cluster, &stream, SEED),
    );
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), 256, SEED);
    let pvt = PowerVariationTable::generate(&mut cluster, &stream, SEED);
    let ids: Vec<usize> = (0..256).collect();
    let mhd = catalog::get(WorkloadId::Mhd);
    r.case("pipeline/single_module_test_run", || {
        single_module_test_run(&mut cluster, 0, &mhd, SEED)
    });
    let test = single_module_test_run(&mut cluster, 0, &mhd, SEED);
    r.case("pipeline/pmt_calibration_256_modules", || {
        PowerModelTable::calibrate(&pvt, &test, &ids).expect("valid")
    });
    let budget = Watts(80.0 * 256.0);
    let req = PlanRequest { budget, module_ids: &ids, workload: &mhd, pvt: &pvt, seed: SEED };
    r.case("pipeline/vapc_plan_end_to_end_256", || {
        SchemeId::VaPc.plan(&mut cluster, &req).expect("feasible")
    });
}

/// The hot inner layers: RAPL steady state, SPMD engine, scheduler.
fn substrates(r: &mut Runner) {
    let spec = SystemSpec::ha8k();
    let v = vap_model::variability::ModuleVariation::nominal(0, 12);
    r.case("substrates/rapl_steady_state_solve", || {
        let cap = black_box(Watts(68.25));
        rapl::steady_state(cap, &spec.power_model.cpu, 1.0, &v, 1.0, &spec.pstates)
    });
    // SPMD engine: 1000-iteration stencil across 1024 ranks
    let rates: Vec<f64> = (0..1024).map(|i| 0.5 + 0.5 * (i % 13) as f64 / 13.0).collect();
    let body = [Op::Compute { work: 0.1 }, Op::Sendrecv { offset: 1, bytes: 1 << 20 }];
    let program = ProgramBuilder::new().iterations(1000, &body).build();
    let comm = CommParams::infiniband_fdr();
    r.case("substrates/engine_stencil_1024r_1000it", || engine::run(&program, &rates, &comm));
    let cluster = Cluster::with_size(SystemSpec::ha8k(), 1024, SEED);
    let act = catalog::get(WorkloadId::Mhd).activity;
    let policy = AllocationPolicy::LowestPowerFirst;
    r.case("substrates/scheduler_power_aware_1024", || policy.allocate(&cluster, 256, act, SEED));
    let mut one = Cluster::with_size(SystemSpec::ha8k(), 1, SEED);
    one.set_activity(0, act);
    r.case("substrates/module_cap_resolve", || {
        one.set_cap(0, rapl::RaplLimit::with_default_window(Watts(70.0)));
        one.module(0).operating_point()
    });
    let xs: Vec<f64> = (0..16).map(|i| 1.2 + 0.1 * i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 26.0 + 27.7 * x).collect();
    r.case("substrates/linear_fit_16_points", || vap_stats::LinearFit::fit(&xs, &ys));
}

/// Two ablations: the planning cost of oracle against PVT calibration,
/// the deployment argument for the paper's approach (O(1) test runs
/// against O(fleet) measurement per application), and the cost of the
/// P-state granularity on frequency snapping.
fn ablations(r: &mut Runner) {
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), 128, SEED);
    let pvt = PowerVariationTable::generate(&mut cluster, &catalog::get(WorkloadId::Stream), SEED);
    let ids: Vec<usize> = (0..128).collect();
    let bt = catalog::get(WorkloadId::Bt);
    let budget = Watts(70.0 * 128.0);
    let req = PlanRequest { budget, module_ids: &ids, workload: &bt, pvt: &pvt, seed: SEED };
    r.case("ablation_calibration_cost/pvt_calibrated_plan_128", || {
        SchemeId::VaPc.plan(&mut cluster, &req).expect("feasible")
    });
    r.case("ablation_calibration_cost/oracle_measured_plan_128", || {
        SchemeId::VaPcOr.plan(&mut cluster, &req).expect("feasible")
    });
    for steps in [0.1, 0.05, 0.01] {
        let table = vap_model::pstate::PStateTable::evenly_spaced(
            GigaHertz(1.2),
            GigaHertz(2.7),
            GigaHertz(steps),
        );
        r.case(&format!("ablation_pstate_floor/floor/{steps}GHz"), || {
            table.floor(black_box(GigaHertz(2.0400001)))
        });
    }
}

/// Every registered experiment at reduced size, each call on a fresh
/// context, so fig9 times its own campaign.
fn report(r: &mut Runner) {
    let o = opts(48, 0.05, Some(1));
    for e in EXPERIMENTS {
        r.case(&format!("report/{}", e.name), || {
            (e.run)(&Context::new(&o)).unwrap_or_else(|err| panic!("{} failed: {err}", e.name))
        });
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
    alpha_solver(&mut r);
    pipeline(&mut r);
    substrates(&mut r);
    ablations(&mut r);
    report(&mut r);
    if daemon_soak(&mut r) {
        print!("{}", r.report());
    } else {
        // on stderr, a failed soak's record cannot land in BENCH.json
        eprint!("{}", r.report());
        eprintln!("profile: a daemon soak session saw errors or idle clients");
        std::process::exit(1);
    }
}
