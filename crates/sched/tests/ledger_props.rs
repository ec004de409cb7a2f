//! The watt-provenance conservation invariant, attacked from two sides:
//! a deterministic sweep over every reallocation policy, and a seeded
//! property loop ([`vap_model::rng::check`]) over random caps, policies,
//! traces and cap shocks. In every replayed state the
//! ledger bins must sum to the applied cluster cap within the ULP-scaled
//! epsilon — conservation is by construction (telescoping), so any
//! violation is an attribution bug, not noise.

use vap_core::pvt::PowerVariationTable;
use vap_model::rng::check;
use vap_model::systems::SystemSpec;
use vap_model::units::Watts;
use vap_obs::ledger::LedgerTable;
use vap_scenario::stream::{PerturbationKind, ScenarioEvent};
use vap_scenario::ScenarioRuntime;
use vap_sched::{ReallocPolicy, SchedConfig, SchedRuntime, Trace, TraceGen};
use vap_sim::cluster::Cluster;
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

/// A post-PVT fleet plus its PVT.
fn fleet(n: usize, seed: u64) -> (Cluster, PowerVariationTable) {
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), n, seed);
    let stream = catalog::get(WorkloadId::Stream);
    let pvt = PowerVariationTable::generate(&mut cluster, &stream, seed);
    (cluster, pvt)
}

/// A scenario that scales the configured cap by `scale` at `at_s`.
fn cap_drop(at_s: f64, scale: f64, modules: usize, seed: u64) -> ScenarioRuntime {
    let shock = ScenarioEvent { at_s, seq: 0, kind: PerturbationKind::CapShock { scale } };
    ScenarioRuntime::from_events(vec![shock], modules, seed)
}

/// Replay `trace` (under `scenario`, if any), auditing the provenance
/// tick after every event. Returns the accumulated ledger.
fn audit(
    cluster: &Cluster,
    pvt: &PowerVariationTable,
    trace: &Trace,
    cfg: SchedConfig,
    seed: u64,
    scenario: Option<ScenarioRuntime>,
) -> LedgerTable {
    let mut table = LedgerTable::new();
    let mut last_t = 0.0_f64;
    let mut rt = SchedRuntime::new(cluster.clone(), pvt.clone(), seed, cfg);
    if let Some(sc) = scenario {
        rt = rt.with_scenario(sc);
    }
    rt.run_with(trace, |state| {
        let dt = state.now_s() - last_t;
        last_t = state.now_s();
        table.record(state.provenance_tick(dt));
        std::ops::ControlFlow::Continue(())
    });
    table
}

fn assert_conserved(table: &LedgerTable, label: &str) {
    assert!(
        table.violations == 0,
        "{label}: {} conservation violations (worst residual {} W)",
        table.violations,
        table.worst_residual_w
    );
    let [useful, throttle, headroom, _stranded] = table.energy_by_category();
    assert!(useful >= 0.0, "{label}: negative useful energy {useful}");
    assert!(throttle >= 0.0, "{label}: negative throttle energy {throttle}");
    assert!(headroom >= 0.0, "{label}: negative headroom energy {headroom}");
}

#[test]
fn every_policy_combination_conserves_the_cap() {
    let seed = 2015;
    let n = 16;
    let (cluster, pvt) = fleet(n, seed);
    let trace = TraceGen { mean_interarrival_s: 20.0, ..TraceGen::new(8, n) }.generate(seed);
    for realloc in ReallocPolicy::ALL {
        let cfg = SchedConfig { realloc, cap: Watts(70.0 * n as f64) };
        let shock = cap_drop(120.0, 45.0 / 70.0, n, seed);
        let table = audit(&cluster, &pvt, &trace, cfg, seed, Some(shock));
        assert!(!table.is_empty(), "{realloc}: no ticks audited");
        assert_conserved(&table, &format!("{realloc}"));
    }
}

#[test]
fn a_busy_fleet_attributes_useful_watts() {
    let seed = 7;
    let n = 12;
    let (cluster, pvt) = fleet(n, seed);
    let trace = TraceGen::new(6, n).generate(seed);
    let cfg = SchedConfig { realloc: ReallocPolicy::UniformRebalance, cap: Watts(95.0 * n as f64) };
    let table = audit(&cluster, &pvt, &trace, cfg, seed, None);
    assert_conserved(&table, "busy fleet");
    let [useful, ..] = table.energy_by_category();
    assert!(useful > 0.0, "running jobs must burn useful watt-seconds");
}

/// Random caps, policies, trace shapes and cap shocks: the bins
/// always sum to the applied cap, at every tick of every replay.
#[test]
fn conservation_holds_for_random_caps_and_traces() {
    check("conservation_holds_for_random_caps_and_traces", 1, 16, |rng| {
        let seed = rng.next_index(1_000) as u64;
        let n = 8 + rng.next_index(9);
        let jobs = 1 + rng.next_index(8);
        let cap_per_module = rng.next_range(40.0, 120.0);
        let interarrival = rng.next_range(10.0, 90.0);
        let realloc_ix = rng.next_index(3);
        let drop_cap = rng.next_u64() & 1 == 1;
        let dropped_per_module = rng.next_range(30.0, 80.0);
        let (cluster, pvt) = fleet(n, seed);
        let trace =
            TraceGen { mean_interarrival_s: interarrival, ..TraceGen::new(jobs, n) }.generate(seed);
        let shock = drop_cap.then(|| cap_drop(60.0, dropped_per_module / cap_per_module, n, seed));
        let cfg = SchedConfig {
            realloc: ReallocPolicy::ALL[realloc_ix],
            cap: Watts(cap_per_module * n as f64),
        };
        let table = audit(&cluster, &pvt, &trace, cfg, seed, shock);
        assert_eq!(table.violations, 0, "worst residual {} W", table.worst_residual_w);
        let [useful, throttle, headroom, _] = table.energy_by_category();
        assert!(useful >= 0.0 && throttle >= 0.0 && headroom >= 0.0);
    });
}
