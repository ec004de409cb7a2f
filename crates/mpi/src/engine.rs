//! The SPMD executor.
//!
//! Every rank runs the same op sequence at its own effective rate (set by
//! its module's operating point under the active power-management scheme).
//! Matching synchronization ops are each other's only dependencies in an
//! SPMD program, so executing ranks in *matched-op lockstep* — advancing
//! all ranks one op at a time, resolving each synchronization against the
//! partners' arrival times — produces the exact discrete-event schedule.
//!
//! The per-rank accounting separates compute time, communication transfer
//! time and **synchronization wait time**: the quantity Fig. 3 plots to
//! show where a synchronizing application (MHD) buries the performance
//! variation that an embarrassingly parallel application (*DGEMM) exposes
//! as raw execution-time spread.

use crate::comm::CommParams;
use crate::program::{Op, Program};
use vap_model::boundedness::Boundedness;
use vap_model::units::Seconds;
use vap_sim::cluster::Cluster;

/// Per-rank results of one simulated application run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Total completion time per rank.
    pub rank_times: Vec<Seconds>,
    /// Time spent computing per rank.
    pub compute_time: Vec<Seconds>,
    /// Cumulative time spent *waiting* for synchronization partners per
    /// rank (the Fig. 3 quantity).
    pub sync_wait: Vec<Seconds>,
    /// Time spent in message transfer per rank.
    pub comm_time: Vec<Seconds>,
}

impl RunResult {
    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.rank_times.len()
    }

    /// Application completion time (slowest rank).
    pub fn makespan(&self) -> Seconds {
        self.rank_times.iter().copied().fold(Seconds::ZERO, Seconds::max)
    }

    /// Worst-case execution-time variation `Vt` across ranks.
    pub fn vt(&self) -> Option<f64> {
        let times: Vec<f64> = self.rank_times.iter().map(|t| t.value()).collect();
        vap_stats::worst_case_variation(&times)
    }

    /// Per-rank times normalized to the matching ranks of a baseline run
    /// (Fig. 2(iii)'s x-axis: capped time / uncapped time, per MPI
    /// process). `None` on rank-count mismatch or zero baseline times.
    pub fn normalized_to(&self, baseline: &RunResult) -> Option<Vec<f64>> {
        if self.ranks() != baseline.ranks() {
            return None;
        }
        let mut out = Vec::with_capacity(self.ranks());
        for (t, b) in self.rank_times.iter().zip(&baseline.rank_times) {
            if b.value() <= 0.0 {
                return None;
            }
            out.push(t.value() / b.value());
        }
        Some(out)
    }
}

/// Observer of per-rank, per-op execution — the hook behind
/// [`crate::timeline::Timeline`]. The default no-op implementation keeps
/// plain [`run`] allocation-free.
pub trait Recorder {
    /// Rank `rank` executed op `step` of kind `kind` over
    /// `[start, end)` seconds, of which `wait` was spent blocked on
    /// partners.
    fn record(
        &mut self,
        rank: usize,
        step: usize,
        kind: crate::timeline::OpKind,
        start: f64,
        end: f64,
        wait: f64,
    );
}

/// A recorder that records nothing.
pub struct NoRecorder;

impl Recorder for NoRecorder {
    #[inline]
    fn record(&mut self, _: usize, _: usize, _: crate::timeline::OpKind, _: f64, _: f64, _: f64) {}
}

/// Execute `program` over `rates.len()` ranks, where `rates[r]` is rank
/// `r`'s effective execution rate (1.0 = reference). A rate of zero (an
/// infeasibly capped module) makes that rank's times infinite, which
/// propagates through synchronizations exactly as a hung rank would.
pub fn run(program: &Program, rates: &[f64], comm: &CommParams) -> RunResult {
    run_recorded(program, rates, comm, &mut NoRecorder)
}

/// [`run`] with an op-level [`Recorder`] in the loop.
pub fn run_recorded(
    program: &Program,
    rates: &[f64],
    comm: &CommParams,
    rec: &mut impl Recorder,
) -> RunResult {
    use crate::timeline::OpKind;
    let n = rates.len();
    assert!(n > 0, "need at least one rank");
    assert!(rates.iter().all(|&r| r >= 0.0), "rates must be non-negative");
    if let Some(m) = program.load_multipliers() {
        assert_eq!(m.len(), n, "load multiplier table must match rank count");
    }

    let mut t = vec![0.0f64; n]; // current time per rank
    let mut compute = vec![0.0f64; n];
    let mut wait = vec![0.0f64; n];
    let mut comm_t = vec![0.0f64; n];
    let noise = program.noise();

    for (step, op) in program.ops().iter().enumerate() {
        match *op {
            Op::Compute { work } => {
                for r in 0..n {
                    let dt = if rates[r] > 0.0 {
                        let jitter = noise.map_or(1.0, |nm| nm.factor(r, step));
                        work * program.load_multiplier(r) * jitter / rates[r]
                    } else {
                        f64::INFINITY
                    };
                    rec.record(r, step, OpKind::Compute, t[r], t[r] + dt, 0.0);
                    t[r] += dt;
                    compute[r] += dt;
                }
            }
            Op::Barrier => {
                sync_all(
                    &mut t,
                    &mut wait,
                    &mut comm_t,
                    comm.barrier(n).value(),
                    step,
                    OpKind::Barrier,
                    rec,
                );
            }
            Op::Allreduce { bytes } => {
                sync_all(
                    &mut t,
                    &mut wait,
                    &mut comm_t,
                    comm.allreduce(bytes, n).value(),
                    step,
                    OpKind::Allreduce,
                    rec,
                );
            }
            Op::Sendrecv { offset, bytes } => {
                let cost = comm.sendrecv(bytes).value();
                let snapshot = t.clone();
                for r in 0..n {
                    let left = snapshot[(r + n - offset % n) % n];
                    let right = snapshot[(r + offset) % n];
                    let ready = snapshot[r].max(left).max(right);
                    rec.record(
                        r,
                        step,
                        OpKind::Sendrecv,
                        snapshot[r],
                        ready + cost,
                        ready - snapshot[r],
                    );
                    wait[r] += ready - snapshot[r];
                    comm_t[r] += cost;
                    t[r] = ready + cost;
                }
            }
        }
    }

    vap_obs::incr("mpi.runs");
    // Aggregate wait across ranks; a hung rank's INFINITY is counted in
    // the histogram's nonfinite bin rather than poisoning the sum stats.
    vap_obs::observe("mpi.wait_s", wait.iter().sum());

    RunResult {
        rank_times: t.into_iter().map(Seconds).collect(),
        compute_time: compute.into_iter().map(Seconds).collect(),
        sync_wait: wait.into_iter().map(Seconds).collect(),
        comm_time: comm_t.into_iter().map(Seconds).collect(),
    }
}

#[allow(clippy::too_many_arguments)]
fn sync_all(
    t: &mut [f64],
    wait: &mut [f64],
    comm_t: &mut [f64],
    cost: f64,
    step: usize,
    kind: crate::timeline::OpKind,
    rec: &mut impl Recorder,
) {
    let t_max = t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for r in 0..t.len() {
        rec.record(r, step, kind, t[r], t_max + cost, t_max - t[r]);
        wait[r] += t_max - t[r];
        comm_t[r] += cost;
        t[r] = t_max + cost;
    }
}

/// Effective per-rank rates for a job placed on `module_ids` of `cluster`,
/// for a workload with the given CPU-boundedness. This is the bridge from
/// the power-management state (operating points) to execution speed. Ids
/// outside the fleet (stale job requests) are dropped rather than
/// panicking mid-run.
pub fn rates_on(cluster: &Cluster, module_ids: &[usize], boundedness: &Boundedness) -> Vec<f64> {
    module_ids
        .iter()
        .filter_map(|&id| cluster.get(id).map(|m| m.effective_rate(boundedness)))
        .collect()
}

/// Run `program` with one rank per module of `module_ids` on `cluster`.
pub fn run_on_cluster(
    program: &Program,
    cluster: &Cluster,
    module_ids: &[usize],
    boundedness: &Boundedness,
    comm: &CommParams,
) -> RunResult {
    run(program, &rates_on(cluster, module_ids, boundedness), comm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn ideal() -> CommParams {
        CommParams::ideal()
    }

    #[test]
    fn pure_compute_times_scale_inversely_with_rate() {
        let p = ProgramBuilder::new().compute(10.0).build();
        let res = run(&p, &[1.0, 0.5, 2.0], &ideal());
        assert_eq!(res.rank_times[0], Seconds(10.0));
        assert_eq!(res.rank_times[1], Seconds(20.0));
        assert_eq!(res.rank_times[2], Seconds(5.0));
        assert_eq!(res.makespan(), Seconds(20.0));
        assert_eq!(res.vt(), Some(4.0));
        assert_eq!(res.sync_wait, vec![Seconds::ZERO; 3]);
    }

    #[test]
    fn barrier_equalizes_completion_and_charges_wait() {
        let p = ProgramBuilder::new().compute(10.0).barrier().build();
        let res = run(&p, &[1.0, 0.5], &ideal());
        // both finish at the slow rank's time
        assert_eq!(res.rank_times[0], res.rank_times[1]);
        assert_eq!(res.rank_times[0], Seconds(20.0));
        assert_eq!(res.vt(), Some(1.0));
        // the fast rank waited 10 s, the slow rank 0
        assert_eq!(res.sync_wait[0], Seconds(10.0));
        assert_eq!(res.sync_wait[1], Seconds::ZERO);
    }

    #[test]
    fn synchronization_hides_vt_but_inflates_wait_spread() {
        // The paper's DGEMM-vs-MHD contrast in miniature: same rates, same
        // total work; the synchronized program has Vt ≈ 1 and large wait
        // variation, the unsynchronized one has large Vt.
        let rates = [1.0, 0.9, 0.8, 0.7];
        let free = ProgramBuilder::new().compute(100.0).build();
        let body = [Op::Compute { work: 10.0 }, Op::Sendrecv { offset: 1, bytes: 0 }];
        let synced = ProgramBuilder::new().iterations(10, &body).build();

        let r_free = run(&free, &rates, &ideal());
        let r_sync = run(&synced, &rates, &ideal());

        assert!(r_free.vt().unwrap() > 1.4);
        assert!(r_sync.vt().unwrap() < 1.05, "Vt = {:?}", r_sync.vt());
        let waits: Vec<f64> = r_sync.sync_wait.iter().map(|t| t.value()).collect();
        assert!(vap_stats::worst_case_variation(&waits).unwrap() > 5.0);
        // slowest rank waits (almost) nothing
        let min_wait = r_sync.sync_wait.iter().copied().fold(Seconds(f64::MAX), Seconds::min);
        assert!(min_wait.value() < 1e-9);
    }

    #[test]
    fn sendrecv_propagates_slowness_through_the_ring() {
        // only rank 0 is slow; with enough iterations its slowness reaches
        // every rank through neighbor exchanges.
        let mut rates = vec![1.0; 8];
        rates[0] = 0.5;
        let body = [Op::Compute { work: 1.0 }, Op::Sendrecv { offset: 1, bytes: 0 }];
        let p = ProgramBuilder::new().iterations(16, &body).build();
        let res = run(&p, &rates, &ideal());
        // after 16 iterations everyone is dragged to rank 0's pace
        let makespan = res.makespan().value();
        assert!((makespan - 32.0).abs() < 1e-9, "makespan = {makespan}");
        // the farthest rank (4 hops away in the ring) still synced up
        assert!(res.rank_times[4].value() > 24.0);
    }

    #[test]
    fn allreduce_and_comm_costs_are_charged() {
        let c = CommParams { latency: Seconds(1e-3), bandwidth: 1e6 };
        let p = ProgramBuilder::new().compute(1.0).allreduce(1000).build();
        let res = run(&p, &[1.0, 1.0], &c);
        // 1 round (n=2): latency + 1000/1e6 = 2 ms
        assert!((res.comm_time[0].value() - 2e-3).abs() < 1e-12);
        assert!((res.rank_times[0].value() - 1.002).abs() < 1e-12);
    }

    #[test]
    fn load_multipliers_create_imbalance() {
        let p = ProgramBuilder::new().compute(10.0).build().with_load_multipliers(vec![1.0, 2.0]);
        let res = run(&p, &[1.0, 1.0], &ideal());
        assert_eq!(res.rank_times[1], Seconds(20.0));
        assert_eq!(res.vt(), Some(2.0));
    }

    #[test]
    fn zero_rate_rank_hangs_the_synchronized_job() {
        let p = ProgramBuilder::new().compute(1.0).barrier().build();
        let res = run(&p, &[1.0, 0.0], &ideal());
        assert!(res.rank_times[0].value().is_infinite());
        assert!(res.makespan().value().is_infinite());
    }

    #[test]
    fn normalized_to_baseline() {
        let p = ProgramBuilder::new().compute(10.0).build();
        let base = run(&p, &[1.0, 1.0], &ideal());
        let capped = run(&p, &[0.5, 0.8], &ideal());
        let norm = capped.normalized_to(&base).unwrap();
        assert!((norm[0] - 2.0).abs() < 1e-12);
        assert!((norm[1] - 1.25).abs() < 1e-12);
        // mismatched rank counts rejected
        let other = run(&p, &[1.0], &ideal());
        assert!(other.normalized_to(&base).is_none());
    }

    #[test]
    fn wide_offset_sendrecv_wraps_the_ring() {
        let mut rates = vec![1.0; 4];
        rates[3] = 0.5;
        let p = ProgramBuilder::new().compute(1.0).sendrecv(2, 0).build();
        let res = run(&p, &rates, &ideal());
        // rank 1 partners with ranks 3 and 3 (offset 2 in a ring of 4)
        assert_eq!(res.rank_times[1], Seconds(2.0));
    }

    #[test]
    #[should_panic]
    fn empty_rank_set_panics() {
        let p = ProgramBuilder::new().compute(1.0).build();
        let _ = run(&p, &[], &ideal());
    }
}
