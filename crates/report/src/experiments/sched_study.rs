//! Extension study: online variation-aware power scheduling (paper §7 —
//! "integration with a resource manager", the RMAP direction).
//!
//! A seeded arrival trace is replayed against the fleet under a
//! (cluster cap × reallocation policy) grid via [`vap_sched`]: every job
//! gets a calibrated PMT and a VaPc plan at admission, and the online
//! policies re-partition the system budget across all running jobs on
//! every arrival/completion event. The table contrasts frozen-at-admission
//! budgets (a reservation-style resource manager) with online
//! re-partitioning — the latter should shorten mean job completion time
//! under congestion by recycling every completed job's watts immediately.

use crate::experiments::common;
use crate::options::RunOptions;
use crate::render::{f, Table};
use vap_core::budgeter::Budgeter;
use vap_model::units::Watts;
use vap_sched::{ReallocPolicy, SchedConfig, SchedReport, SchedRuntime, TraceGen};

/// Per-module cap levels swept (W); the paper's Cm ladder, truncated to
/// the levels where the full trace stays feasible.
pub const CAP_LEVELS_W: [f64; 3] = [95.0, 80.0, 68.0];

/// One (cap level, reallocation policy) replay, distilled.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedStudyRow {
    /// Per-module cap level (W); the cluster cap is this times the fleet.
    pub cap_w_per_module: f64,
    /// The reallocation policy.
    pub policy: ReallocPolicy,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs killed (never feasible).
    pub killed: usize,
    /// Preemption events (cap tightenings only; 0 on a static cap).
    pub preemptions: u32,
    /// Completed jobs per simulated hour.
    pub throughput_jph: f64,
    /// Mean queue wait (s).
    pub mean_wait_s: f64,
    /// Mean job completion time (s).
    pub mean_jct_s: f64,
    /// Module occupancy over the replay horizon.
    pub utilization: f64,
    /// Vt over job stretches (slowest/fastest), if any completed.
    pub stretch_vt: Option<f64>,
}

/// The study's results.
#[derive(Debug, Clone)]
pub struct SchedStudyResult {
    /// One row per (cap, policy) cell, cap-major in `CAP_LEVELS_W` order.
    pub rows: Vec<SchedStudyRow>,
    /// Fleet size used.
    pub modules: usize,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Simulated Perfetto timeline (one lane per job) of the exemplar
    /// cell: tightest cap, uniform rebalance.
    pub timeline_json: String,
}

fn distill(cap_w: f64, policy: ReallocPolicy, r: &SchedReport) -> SchedStudyRow {
    SchedStudyRow {
        cap_w_per_module: cap_w,
        policy,
        completed: r.completed_count(),
        killed: r.killed_count(),
        preemptions: r.preemption_count(),
        throughput_jph: r.throughput_jobs_per_hour(),
        mean_wait_s: r.mean_wait_s(),
        mean_jct_s: r.mean_jct_s(),
        utilization: r.utilization(),
        stretch_vt: r.stretch_variation(),
    }
}

/// Run the study.
///
/// One trace is generated from the campaign seed and replayed on every
/// (cap, policy) cell; the cells are independent and fan over
/// `opts.threads()` workers on private clones of the post-PVT fleet,
/// with byte-identical results at any thread count. `--scale` shrinks
/// both the jobs' work and the interarrival gaps, so the congestion
/// structure (and therefore the policy ranking) is scale-invariant.
pub fn run(opts: &RunOptions) -> SchedStudyResult {
    let n = opts.modules_or(384);
    let threads = opts.threads();
    let mut cluster = common::ha8k(n, opts.seed);
    let budgeter = Budgeter::install_with_threads(&mut cluster, opts.seed, threads);
    let cluster = cluster; // pristine post-PVT template, cloned per cell

    let jobs = 36;
    let gen = TraceGen {
        // ~10 s between arrivals at paper scale: well above the offered
        // load the fleet drains, so queues form and reallocation matters
        mean_interarrival_s: 10.0 * opts.scale,
        work_scale: opts.scale,
        ..TraceGen::new(jobs, n)
    };
    let trace = gen.generate(opts.seed);

    let cells: Vec<(f64, ReallocPolicy)> = CAP_LEVELS_W
        .into_iter()
        .flat_map(|cap| ReallocPolicy::ALL.into_iter().map(move |p| (cap, p)))
        .collect();

    let reports = vap_exec::par_grid(&cells, threads, |&(cap_w, policy)| {
        let cfg = SchedConfig { realloc: policy, cap: Watts(cap_w * n as f64) };
        let runtime = SchedRuntime::new(cluster.clone(), budgeter.pvt().clone(), opts.seed, cfg);
        runtime.run(&trace)
    });

    let rows =
        cells.iter().zip(&reports).map(|(&(cap_w, policy), r)| distill(cap_w, policy, r)).collect();
    // Exemplar timeline: the tightest cap under uniform rebalance — the
    // cell where online reallocation has the most work to do.
    let exemplar = cells
        .iter()
        .position(|&(cap_w, p)| {
            cap_w == CAP_LEVELS_W[CAP_LEVELS_W.len() - 1] && p == ReallocPolicy::UniformRebalance
        })
        .map(|i| reports[i].chrome_trace_json())
        .unwrap_or_default();

    SchedStudyResult { rows, modules: n, jobs, timeline_json: exemplar }
}

/// Render the study.
pub fn render(result: &SchedStudyResult) -> Table {
    let mut t = Table::new(
        &format!("Online power scheduling ({} modules, {} jobs)", result.modules, result.jobs),
        &["Cap [W/mod]", "Policy", "Done", "Killed", "Jobs/h", "Wait [s]", "JCT [s]", "Util", "Vt"],
    );
    for r in &result.rows {
        t.row(vec![
            f(r.cap_w_per_module, 0),
            r.policy.name().to_string(),
            r.completed.to_string(),
            r.killed.to_string(),
            f(r.throughput_jph, 1),
            f(r.mean_wait_s, 1),
            f(r.mean_jct_s, 1),
            f(r.utilization, 3),
            r.stretch_vt.map_or_else(|| "-".to_string(), |v| f(v, 2)),
        ]);
    }
    t
}

/// CSV of all rows.
pub fn to_csv(result: &SchedStudyResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "cap_w_per_module,policy,completed,killed,preemptions,throughput_jph,\
         mean_wait_s,mean_jct_s,utilization,stretch_vt\n",
    );
    for r in &result.rows {
        let _ = writeln!(
            out,
            "{:.0},{},{},{},{},{:.4},{:.4},{:.4},{:.6},{}",
            r.cap_w_per_module,
            r.policy.name(),
            r.completed,
            r.killed,
            r.preemptions,
            r.throughput_jph,
            r.mean_wait_s,
            r.mean_jct_s,
            r.utilization,
            r.stretch_vt.map_or_else(|| "nan".to_string(), |v| format!("{v:.4}")),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> SchedStudyResult {
        run(&RunOptions { modules: Some(48), seed: 2015, scale: 0.05, ..RunOptions::default() })
    }

    #[test]
    fn every_cell_reports() {
        let r = result();
        assert_eq!(r.rows.len(), CAP_LEVELS_W.len() * ReallocPolicy::ALL.len());
        for row in &r.rows {
            assert_eq!(row.completed + row.killed, r.jobs, "{row:?} lost jobs");
            assert!(row.utilization > 0.0 && row.utilization <= 1.0);
            assert!(row.mean_jct_s > 0.0);
        }
    }

    #[test]
    fn online_reallocation_beats_frozen_somewhere() {
        // The study's headline: at >= 1 cap level an online policy's mean
        // JCT beats frozen-at-admission budgets on the same trace.
        let r = result();
        let row = |cap: f64, policy: ReallocPolicy| {
            r.rows.iter().find(|x| x.cap_w_per_module == cap && x.policy == policy)
        };
        let wins = CAP_LEVELS_W.iter().any(|&cap| {
            let frozen = row(cap, ReallocPolicy::Frozen).map(|x| x.mean_jct_s);
            let online = [ReallocPolicy::UniformRebalance, ReallocPolicy::ThroughputGreedy]
                .iter()
                .filter_map(|&p| row(cap, p))
                .map(|x| x.mean_jct_s)
                .fold(f64::INFINITY, f64::min);
            matches!(frozen, Some(fz) if online < fz)
        });
        assert!(wins, "no cap level shows an online-reallocation JCT win: {:#?}", r.rows);
    }

    #[test]
    fn timeline_is_a_valid_chrome_trace() {
        let r = result();
        let n = vap_obs::validate_trace(&r.timeline_json).expect("timeline must validate");
        assert!(n > r.jobs, "expected at least one span per job plus metadata, got {n}");
    }

    #[test]
    fn render_and_csv_cover_all_rows() {
        let r = result();
        assert_eq!(render(&r).len(), r.rows.len());
        let csv = to_csv(&r);
        assert_eq!(csv.lines().count(), r.rows.len() + 1);
    }
}
