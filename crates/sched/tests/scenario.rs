//! Non-stationary replays: scenario events merged into the scheduler's
//! event queue. Determinism with a scenario installed, cap shocks
//! scaling the configured cap and releasing it, failure/replacement churn
//! cycling the pool, injected drift raising detector alerts that a
//! null scenario does not, and FNV-1a digests that pin cap-shocked
//! replays byte for byte.

use vap_core::pvt::PowerVariationTable;
use vap_model::systems::SystemSpec;
use vap_model::units::Watts;
use vap_model::variability::DriftSkew;
use vap_scenario::stream::{PerturbationKind, ScenarioEvent};
use vap_scenario::{Scenario, ScenarioRuntime};
use vap_sched::job::JobState;
use vap_sched::trace::JobArrival;
use vap_sched::{ReallocPolicy, SchedConfig, SchedReport, SchedRuntime, Trace, TraceGen};
use vap_sim::cluster::Cluster;
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

const SEED: u64 = 2015;

fn fleet(n: usize) -> (Cluster, PowerVariationTable) {
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), n, SEED);
    let stream = catalog::get(WorkloadId::Stream);
    let pvt = PowerVariationTable::generate(&mut cluster, &stream, SEED);
    (cluster, pvt)
}

fn config(realloc: ReallocPolicy, cap_per_module_w: f64, n: usize) -> SchedConfig {
    SchedConfig { realloc, cap: Watts(cap_per_module_w * n as f64) }
}

fn replay(
    cluster: &Cluster,
    pvt: &PowerVariationTable,
    trace: &Trace,
    cfg: SchedConfig,
    scenario: Option<ScenarioRuntime>,
) -> SchedReport {
    let mut rt = SchedRuntime::new(cluster.clone(), pvt.clone(), SEED, cfg);
    if let Some(sc) = scenario {
        rt = rt.with_scenario(sc);
    }
    rt.run(trace)
}

#[test]
fn scenario_replays_are_deterministic_and_diverge_from_null() {
    let n = 16;
    let (cluster, pvt) = fleet(n);
    let trace = TraceGen { mean_interarrival_s: 20.0, ..TraceGen::new(12, n) }.generate(SEED);
    let sc = || Some(ScenarioRuntime::new(Scenario::Mixed, n, 3600.0, SEED));
    let a = replay(&cluster, &pvt, &trace, config(ReallocPolicy::UniformRebalance, 80.0, n), sc());
    let b = replay(&cluster, &pvt, &trace, config(ReallocPolicy::UniformRebalance, 80.0, n), sc());
    assert_eq!(a, b, "same (trace, scenario, seed) must replay identically");
    let null =
        replay(&cluster, &pvt, &trace, config(ReallocPolicy::UniformRebalance, 80.0, n), None);
    assert_ne!(a, null, "a mixed scenario must perturb the replay");
    for j in &a.jobs {
        assert!(
            matches!(j.state, JobState::Completed | JobState::Killed | JobState::Queued),
            "job {} ended mid-flight: {:?}",
            j.id,
            j.state
        );
    }
}

#[test]
fn module_failure_preempts_and_replacement_recovers() {
    let n = 8;
    let (cluster, pvt) = fleet(n);
    // One fleet-wide job: any module failure must preempt it, and it can
    // only resume once the replacement part rejoins the pool.
    let trace = Trace {
        jobs: vec![JobArrival {
            id: 0,
            at_s: 0.0,
            workload: WorkloadId::Dgemm,
            width: n,
            min_width: n,
            work_s: 400.0,
        }],
    };
    let events = vec![
        ScenarioEvent { at_s: 50.0, seq: 0, kind: PerturbationKind::Fail { module: 2 } },
        ScenarioEvent {
            at_s: 150.0,
            seq: 1,
            kind: PerturbationKind::Replace { module: 2, seed: 99 },
        },
    ];
    let sc = ScenarioRuntime::from_events(events, n, SEED);
    let r =
        replay(&cluster, &pvt, &trace, config(ReallocPolicy::UniformRebalance, 110.0, n), Some(sc));
    assert_eq!(r.jobs[0].state, JobState::Completed, "job must finish after the repair");
    assert!(r.preemption_count() >= 1, "the failure must preempt the placed job");
    assert!(
        r.horizon_s > 150.0,
        "completion can only happen after the replacement at t=150, got {}",
        r.horizon_s
    );
}

#[test]
fn cap_shocks_scale_the_configured_cap_and_release() {
    let n = 8;
    let (cluster, pvt) = fleet(n);
    let trace = Trace {
        jobs: vec![JobArrival {
            id: 0,
            at_s: 0.0,
            workload: WorkloadId::Stream,
            width: n,
            min_width: 2,
            work_s: 500.0,
        }],
    };
    let events = vec![
        ScenarioEvent { at_s: 50.0, seq: 0, kind: PerturbationKind::CapShock { scale: 0.4 } },
        ScenarioEvent { at_s: 150.0, seq: 1, kind: PerturbationKind::CapShock { scale: 1.0 } },
    ];
    let base_w = 95.0 * n as f64;
    let cfg = SchedConfig { realloc: ReallocPolicy::Frozen, cap: Watts(base_w) };
    let mut min_cap = f64::INFINITY;
    let mut last_cap = 0.0;
    let rt = SchedRuntime::new(cluster.clone(), pvt.clone(), SEED, cfg)
        .with_scenario(ScenarioRuntime::from_events(events, n, SEED));
    let r = rt.run_with(&trace, |rt| {
        min_cap = min_cap.min(rt.cap().value());
        last_cap = rt.cap().value();
        std::ops::ControlFlow::Continue(())
    });
    assert!(
        (min_cap - 0.4 * base_w).abs() < 1e-9,
        "mid-shock cap must be scale × base: {min_cap} vs {}",
        0.4 * base_w
    );
    assert!(
        (last_cap - base_w).abs() < 1e-9,
        "the release must restore the base cap, got {last_cap}"
    );
    // the ledger must respect the shocked cap while it is in force
    for s in r.power.iter().filter(|s| s.at_s >= 50.0 && s.at_s < 150.0) {
        assert!(
            s.allocated_w <= 0.4 * base_w + 1e-6,
            "{} W allocated under a {} W shocked cap at t={}",
            s.allocated_w,
            0.4 * base_w,
            s.at_s
        );
    }
}

#[test]
fn injected_drift_raises_more_alerts_than_the_stationary_replay() {
    let n = 8;
    let (cluster, pvt) = fleet(n);
    // Enough pre-drift events for the detector's per-module warmup.
    let trace = TraceGen { mean_interarrival_s: 20.0, ..TraceGen::new(24, n) }.generate(SEED);
    let run = |scenario: Option<ScenarioRuntime>| {
        let mut rt = SchedRuntime::new(
            cluster.clone(),
            pvt.clone(),
            SEED,
            config(ReallocPolicy::UniformRebalance, 95.0, n),
        );
        if let Some(sc) = scenario {
            rt = rt.with_scenario(sc);
        }
        let mut alerts = 0;
        let mut module0_alerted = false;
        rt.run_with(&trace, |rt| {
            alerts = rt.drift_alerts();
            module0_alerted |= rt.recent_drift_alerts().iter().any(|a| a.module == 0);
            std::ops::ControlFlow::Continue(())
        });
        (alerts, module0_alerted)
    };
    // A stationary replay may see small workload-fingerprint residual
    // steps at admissions; a genuine step drift must alert strictly
    // more, and specifically on the drifted module.
    let (null_alerts, _) = run(None);
    let step = DriftSkew { dynamic: 1.2, leakage: 1.5, dram: 1.05 };
    let events = vec![ScenarioEvent {
        at_s: 600.0,
        seq: 0,
        kind: PerturbationKind::Drift { module: 0, step },
    }];
    let (drift_alerts, module0_alerted) = run(Some(ScenarioRuntime::from_events(events, n, SEED)));
    assert!(
        drift_alerts > null_alerts,
        "injected drift must trip the detector: {drift_alerts} vs {null_alerts} stationary"
    );
    assert!(module0_alerted, "the alert must land on the drifted module");
}

/// 64-bit FNV-1a, the hash the golden digests use.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digests of cap-shocked replays: per seed, `[shocks report, shocks
/// decisions, mixed report, mixed decisions]`, each over the three
/// reallocation policies in [`ReallocPolicy::ALL`] order. A report is
/// its `Debug` text (jobs, horizon and power samples); the decisions are
/// the journal's `decision` lines. No production replay changes the cap
/// but through a scenario, so these pin the cap-shock path a refactor of
/// the runtime must keep byte-identical.
const CAP_SHOCK_DIGESTS: [[u64; 4]; 3] = [
    [0xfac3_b71c_fa89_5357, 0xd8a2_91b3_2962_a701, 0xb9b2_a1e0_e07d_7d82, 0xc6f8_5806_85b0_2125],
    [0x3bfe_32e4_781b_3191, 0x2482_b15f_e4d0_f208, 0xb649_efe6_04af_eac9, 0x760b_47da_07bb_f398],
    [0x708b_0ae9_e467_232c, 0xb0e2_6f71_6b3e_dc57, 0xf641_f12e_aa96_c32a, 0x52e9_2f39_9e0a_db84],
];

/// `[report, decisions]` digests of `scenario`'s replays at `seed` under
/// every reallocation policy.
fn shocked_digests(scenario: Scenario, seed: u64) -> [u64; 2] {
    let n = 16;
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), n, seed);
    let stream = catalog::get(WorkloadId::Stream);
    let pvt = PowerVariationTable::generate(&mut cluster, &stream, seed);
    let trace = TraceGen { mean_interarrival_s: 20.0, ..TraceGen::new(12, n) }.generate(seed);
    let horizon_s = trace.jobs.last().map_or(1.0, |j| j.at_s) * 1.5;
    let mut reports = String::new();
    let mut decisions = String::new();
    for realloc in ReallocPolicy::ALL {
        let session = vap_obs::Session::install();
        let report =
            SchedRuntime::new(cluster.clone(), pvt.clone(), seed, config(realloc, 80.0, n))
                .with_scenario(ScenarioRuntime::new(scenario, n, horizon_s, seed))
                .run(&trace);
        reports += &format!("{report:?}\n");
        let journal = session.finish().journal_jsonl;
        for line in journal.lines().filter(|l| l.starts_with("{\"type\":\"decision\"")) {
            decisions += line;
            decisions.push('\n');
        }
    }
    assert!(decisions.contains("\"cap_change\""), "{scenario:?}: no cap shock fired");
    [fnv1a(reports.as_bytes()), fnv1a(decisions.as_bytes())]
}

#[test]
fn cap_shocked_replays_match_their_digests() {
    let actual: Vec<[u64; 4]> = [1, 42, 0xdead]
        .into_iter()
        .map(|seed| {
            let [shocks, shocks_decisions] = shocked_digests(Scenario::Shocks, seed);
            let [mixed, mixed_decisions] = shocked_digests(Scenario::Mixed, seed);
            [shocks, shocks_decisions, mixed, mixed_decisions]
        })
        .collect();
    let rows: Vec<String> = actual
        .iter()
        .map(|r| format!("[{}]", r.map(|d| format!("0x{d:016x}")).join(", ")))
        .collect();
    assert!(
        actual == CAP_SHOCK_DIGESTS,
        "cap-shock digests moved\n  actual: [{}]",
        rows.join(", ")
    );
}
