//! The scheduling-campaign sensor: a full `vap-sched` trace replay
//! (the `sched_study` recipe's exemplar cell — variation-aware
//! allocation under a cluster-level cap with uniform online
//! rebalancing), publishing one snapshot per scheduler event. Unlike
//! the sweep sensor this campaign *finishes*: the daemon exits cleanly
//! when the trace drains.

use std::ops::ControlFlow;
use vap_core::budgeter::Budgeter;
use vap_model::units::Watts;
use vap_obs::TelemetrySnapshot;
use vap_report::experiments::common;
use vap_report::options::RunOptions;
use vap_scenario::{Scenario, ScenarioRuntime};
use vap_sched::{ReallocPolicy, SchedConfig, SchedReport, SchedRuntime, Trace, TraceGen};

/// Per-module cap level for the campaign (W): the middle rung of the
/// paper's ladder — tight enough that rebalancing visibly matters,
/// loose enough that the whole trace completes.
const CAP_W_PER_MODULE: f64 = 80.0;

/// Jobs in the generated trace at paper scale.
const JOBS: usize = 36;

/// A ready-to-replay scheduling campaign.
pub struct SchedCampaign {
    runtime: SchedRuntime,
    trace: Trace,
}

impl SchedCampaign {
    /// Build the campaign from the shared options: fleet size
    /// (`--modules`, default 96), `--seed`, and `--scale` exactly as the
    /// `sched-study` experiment interprets them.
    pub fn from_options(opts: &RunOptions) -> Self {
        SchedCampaign::with_scenario(opts, Scenario::Null)
    }

    /// [`Self::from_options`] plus a non-stationary scenario: the
    /// perturbation schedule covers the trace's span (last arrival plus
    /// slack) and merges into the replay's event queue. [`Scenario::Null`]
    /// installs nothing and is byte-identical to the plain campaign.
    pub fn with_scenario(opts: &RunOptions, scenario: Scenario) -> Self {
        let n = opts.modules_or(96);
        let mut cluster = common::ha8k(n, opts.seed);
        let budgeter = Budgeter::install_with_threads(&mut cluster, opts.seed, opts.threads());
        let gen = TraceGen {
            mean_interarrival_s: 10.0 * opts.scale,
            work_scale: opts.scale,
            ..TraceGen::new(JOBS, n)
        };
        let trace = gen.generate(opts.seed);
        let cfg = SchedConfig {
            realloc: ReallocPolicy::UniformRebalance,
            cap: Watts(CAP_W_PER_MODULE * n as f64),
        };
        let mut runtime = SchedRuntime::new(cluster, budgeter.pvt().clone(), opts.seed, cfg);
        if scenario != Scenario::Null {
            let last_arrival_s = trace.jobs.last().map_or(0.0, |j| j.at_s).max(1.0);
            runtime = runtime.with_scenario(ScenarioRuntime::new(
                scenario,
                n,
                last_arrival_s * 1.5,
                opts.seed,
            ));
        }
        SchedCampaign { runtime, trace }
    }

    /// Replay the trace, handing every post-event snapshot to `publish`.
    /// Returning [`ControlFlow::Break`] from `publish` stops the replay
    /// early (shutdown); either way the scheduler's final report comes
    /// back for the exit summary.
    pub fn run(self, mut publish: impl FnMut(TelemetrySnapshot) -> ControlFlow<()>) -> SchedReport {
        let SchedCampaign { runtime, trace } = self;
        runtime.run_with(&trace, |rt| {
            vap_obs::incr("daemon.ticks");
            publish(rt.telemetry())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RunOptions {
        RunOptions {
            modules: Some(16),
            seed: 2015,
            scale: 0.05,
            threads: Some(1),
            ..RunOptions::default()
        }
    }

    #[test]
    fn campaign_publishes_consistent_snapshots() {
        let mut snaps: Vec<TelemetrySnapshot> = Vec::new();
        let report = SchedCampaign::from_options(&small()).run(|snap| {
            snaps.push(snap);
            ControlFlow::Continue(())
        });
        assert!(!snaps.is_empty(), "a replay has at least one event");
        assert!(report.completed_count() > 0, "scaled-down trace still completes jobs");
        for snap in &snaps {
            assert_eq!(snap.modules.len(), 16);
            assert_eq!(snap.cap_w, CAP_W_PER_MODULE * 16.0);
        }
        // simulated time never runs backwards across events
        assert!(snaps.windows(2).all(|w| w[0].sim_time_s <= w[1].sim_time_s));
        // at some point the campaign actually ran jobs
        assert!(snaps.iter().any(|s| s.running_jobs > 0));
    }

    #[test]
    fn breaking_stops_the_replay_early() {
        let mut count = 0usize;
        SchedCampaign::from_options(&small()).run(|_| {
            count += 1;
            if count == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn same_seed_same_event_stream() {
        let stream = || {
            let mut sig = Vec::new();
            SchedCampaign::from_options(&small()).run(|snap| {
                sig.push(snap.seal(sig.len() as u64 + 1).checksum);
                ControlFlow::Continue(())
            });
            sig
        };
        assert_eq!(stream(), stream());
    }

    #[test]
    fn scenario_campaigns_are_deterministic_and_null_matches_plain() {
        let stream = |scenario: Scenario| {
            let mut sig = Vec::new();
            SchedCampaign::with_scenario(&small(), scenario).run(|snap| {
                sig.push(snap.seal(sig.len() as u64 + 1).checksum);
                ControlFlow::Continue(())
            });
            sig
        };
        assert_eq!(
            stream(Scenario::Null),
            stream(Scenario::Null),
            "null scenario must replay identically"
        );
        assert_eq!(stream(Scenario::Mixed), stream(Scenario::Mixed));
        assert_ne!(
            stream(Scenario::Mixed),
            stream(Scenario::Null),
            "a mixed scenario must perturb the campaign"
        );
    }
}
