//! End-to-end runtime semantics: determinism, lifecycle closure, online
//! reallocation vs frozen budgets, degradation under a scenario cap
//! shock, and backfill.

use vap_core::pvt::PowerVariationTable;
use vap_model::systems::SystemSpec;
use vap_model::units::Watts;
use vap_scenario::stream::{PerturbationKind, ScenarioEvent};
use vap_scenario::ScenarioRuntime;
use vap_sched::job::JobState;
use vap_sched::trace::JobArrival;
use vap_sched::{ReallocPolicy, SchedConfig, SchedReport, SchedRuntime, Trace, TraceGen};
use vap_sim::cluster::Cluster;
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

const SEED: u64 = 2015;

/// A post-PVT fleet plus its PVT, the shared fixture of every replay.
fn fleet(n: usize) -> (Cluster, PowerVariationTable) {
    fleet_from(n, SEED)
}

/// A post-PVT fleet of `n` modules drawn from `seed`, plus its PVT.
fn fleet_from(n: usize, seed: u64) -> (Cluster, PowerVariationTable) {
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), n, seed);
    let stream = catalog::get(WorkloadId::Stream);
    let pvt = PowerVariationTable::generate(&mut cluster, &stream, seed);
    (cluster, pvt)
}

fn config(realloc: ReallocPolicy, cap_per_module_w: f64, n: usize) -> SchedConfig {
    SchedConfig { realloc, cap: Watts(cap_per_module_w * n as f64) }
}

/// A congested trace: arrivals faster than the fleet drains them.
fn congested_trace(fleet_size: usize) -> Trace {
    TraceGen { mean_interarrival_s: 20.0, ..TraceGen::new(12, fleet_size) }.generate(SEED)
}

fn replay(
    cluster: &Cluster,
    pvt: &PowerVariationTable,
    trace: &Trace,
    cfg: SchedConfig,
) -> SchedReport {
    SchedRuntime::new(cluster.clone(), pvt.clone(), SEED, cfg).run(trace)
}

#[test]
fn replays_are_byte_identical() {
    let n = 24;
    let (cluster, pvt) = fleet(n);
    let trace = congested_trace(n);
    for realloc in ReallocPolicy::ALL {
        let a = replay(&cluster, &pvt, &trace, config(realloc, 80.0, n));
        let b = replay(&cluster, &pvt, &trace, config(realloc, 80.0, n));
        assert_eq!(a, b, "{realloc}: same inputs must give the same report");
    }
}

#[test]
fn every_job_reaches_a_terminal_state() {
    let n = 24;
    let (cluster, pvt) = fleet(n);
    let trace = congested_trace(n);
    for realloc in ReallocPolicy::ALL {
        let r = replay(&cluster, &pvt, &trace, config(realloc, 80.0, n));
        assert_eq!(r.jobs.len(), trace.jobs.len());
        for j in &r.jobs {
            assert!(
                matches!(j.state, JobState::Completed | JobState::Killed),
                "{realloc}: job {} ended {:?}",
                j.id,
                j.state
            );
        }
        assert!(r.completed_count() > 0, "{realloc}: nothing completed");
        assert!(r.horizon_s > 0.0);
        let u = r.utilization();
        assert!(u > 0.0 && u <= 1.0, "{realloc}: utilization {u}");
        for j in r.completed() {
            let s = j.stretch().unwrap_or(0.0);
            assert!(s >= 1.0 - 1e-9, "{realloc}: job {} stretch {s} < 1", j.id);
            assert!(j.granted >= j.requested.min(1), "{realloc}: job {} granted 0", j.id);
        }
    }
}

#[test]
fn online_rebalance_beats_frozen_budgets_under_a_tight_cap() {
    // A tendency over fleets, not an invariant of each one: rebalance
    // wins on 357 of fleet seeds 0..400, so the check replays one trace on
    // 32 fleets fixed in advance and allows up to 11 of them to miss. At
    // that 43-in-400 miss rate a sound model misses 12 or more with a
    // chance of 6.8e-5.
    const FLEET_SEEDS: std::ops::RangeInclusive<u64> = 2015..=2046;
    const MAX_MISSES: usize = 11;
    let n = 24;
    // High arrival pressure is where frozen budgets strand the most
    // watts: many concurrent jobs admitted at small leftover budgets
    // that never grow, while rebalance recycles every completion.
    let trace = TraceGen { mean_interarrival_s: 10.0, ..TraceGen::new(12, n) }.generate(SEED);
    let mut misses = Vec::new();
    for seed in FLEET_SEEDS {
        let (cluster, pvt) = fleet_from(n, seed);
        let frozen = replay(&cluster, &pvt, &trace, config(ReallocPolicy::Frozen, 68.0, n));
        let rebalance =
            replay(&cluster, &pvt, &trace, config(ReallocPolicy::UniformRebalance, 68.0, n));
        assert!(
            frozen.completed_count() > 0 && rebalance.completed_count() > 0,
            "fleet seed {seed}: a replay completed no job"
        );
        if rebalance.mean_jct_s() >= frozen.mean_jct_s() {
            misses.push(format!(
                "fleet seed {seed}: rebalance {:.1} s vs frozen {:.1} s",
                rebalance.mean_jct_s(),
                frozen.mean_jct_s()
            ));
        }
    }
    assert!(
        misses.len() <= MAX_MISSES,
        "online reallocation should shorten mean JCT on all but {MAX_MISSES} of {} fleets; \
         it did not on {}:\n{}",
        FLEET_SEEDS.count(),
        misses.len(),
        misses.join("\n")
    );
}

#[test]
fn allocated_power_respects_the_cap_at_every_event() {
    let n = 24;
    let (cluster, pvt) = fleet(n);
    let trace = congested_trace(n);
    for realloc in ReallocPolicy::ALL {
        let cap_w = 68.0 * n as f64;
        let r = replay(&cluster, &pvt, &trace, config(realloc, 68.0, n));
        for s in &r.power {
            assert!(
                s.allocated_w <= cap_w + 1e-6,
                "{realloc}: {} W allocated over the {cap_w} W cap at t={}",
                s.allocated_w,
                s.at_s
            );
        }
    }
}

#[test]
fn cap_tightening_preempts_and_the_run_still_drains() {
    let n = 24;
    let (cluster, pvt) = fleet(n);
    // generous cap, then a mid-run shock down to a level that cannot
    // hold the whole running set
    let trace = congested_trace(n);
    let shock = ScenarioEvent {
        at_s: 90.0,
        seq: 0,
        kind: PerturbationKind::CapShock { scale: 40.0 / 95.0 },
    };
    for realloc in ReallocPolicy::ALL {
        let r = SchedRuntime::new(cluster.clone(), pvt.clone(), SEED, config(realloc, 95.0, n))
            .with_scenario(ScenarioRuntime::from_events(vec![shock], n, SEED))
            .run(&trace);
        for j in &r.jobs {
            assert!(
                matches!(j.state, JobState::Completed | JobState::Killed),
                "{realloc}: job {} stuck {:?} after the cap shock",
                j.id,
                j.state
            );
        }
        // after the drop, the ledger must respect the new cap
        for s in r.power.iter().filter(|s| s.at_s >= 90.0) {
            assert!(
                s.allocated_w <= 40.0 * n as f64 + 1e-6,
                "{realloc}: {} W allocated after the cap dropped",
                s.allocated_w
            );
        }
    }
}

#[test]
fn backfill_lets_a_small_job_jump_a_blocked_head() {
    let n = 16;
    let (cluster, pvt) = fleet(n);
    let wide = |id: usize, at_s: f64| JobArrival {
        id,
        at_s,
        workload: WorkloadId::Dgemm,
        width: 12,
        min_width: 12,
        work_s: 50.0,
    };
    let trace = Trace {
        jobs: vec![
            wide(0, 0.0),
            wide(1, 1.0), // must wait for job 0's modules
            JobArrival {
                id: 2,
                at_s: 2.0,
                workload: WorkloadId::Stream,
                width: 4,
                min_width: 4,
                work_s: 10.0, // fits beside job 0
            },
        ],
    };
    let backfill =
        replay(&cluster, &pvt, &trace, config(ReallocPolicy::UniformRebalance, 110.0, n));
    let start = backfill.jobs[2].start_s.expect("job admitted");
    // backfill starts the small job immediately, ahead of the blocked
    // wide job
    assert!((start - 2.0).abs() < 1e-9, "backfill start {start}");
    // and the wide head is not starved by the backfilled job
    assert_eq!(backfill.jobs[1].state, JobState::Completed);
}

#[test]
fn jobs_shrink_gracefully_when_modules_are_scarce() {
    let n = 16;
    let (cluster, pvt) = fleet(n);
    let trace = Trace {
        jobs: vec![
            JobArrival {
                id: 0,
                at_s: 0.0,
                workload: WorkloadId::Dgemm,
                width: 12,
                min_width: 12,
                work_s: 60.0,
            },
            // wants the whole fleet, accepts 2: must shrink into the 4
            // modules job 0 left free
            JobArrival {
                id: 1,
                at_s: 1.0,
                workload: WorkloadId::Ep,
                width: 16,
                min_width: 2,
                work_s: 10.0,
            },
        ],
    };
    let r = replay(&cluster, &pvt, &trace, config(ReallocPolicy::UniformRebalance, 110.0, n));
    let j = &r.jobs[1];
    assert_eq!(j.state, JobState::Completed);
    assert!((j.start_s.unwrap() - 1.0).abs() < 1e-9, "shrunk job should start on arrival");
    assert!(j.granted >= 2 && j.granted <= 4, "granted {} of 16 requested", j.granted);
}

#[test]
fn infeasible_jobs_are_killed_not_starved() {
    let n = 8;
    let (cluster, pvt) = fleet(n);
    let trace = Trace {
        jobs: vec![JobArrival {
            id: 0,
            at_s: 0.0,
            workload: WorkloadId::Dgemm,
            width: 32,
            min_width: 32, // wider than the fleet: never feasible
            work_s: 10.0,
        }],
    };
    let r = replay(&cluster, &pvt, &trace, config(ReallocPolicy::Frozen, 110.0, n));
    assert_eq!(r.jobs[0].state, JobState::Killed);
    assert_eq!(r.killed_count(), 1);
}
