//! Per-rank synchronization waits, and the critical rank they reveal.
//!
//! The paper instruments applications with TAU to see *where* time goes;
//! this module is the simulator's equivalent. A [`Timeline`] records how
//! long every rank waited at every synchronizing op of a run — enough to
//! name the straggler each synchronization waited for and find the
//! **critical rank** whose silicon paces the whole application. Under a
//! uniform power cap the critical rank is overwhelmingly the most
//! power-hungry module; under variation-aware budgeting the distinction
//! dissolves.

use crate::comm::CommParams;
use crate::engine::{self, Recorder, RunResult};
use crate::program::Program;

/// The kind of operation an event covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Local compute.
    Compute,
    /// Neighbor exchange.
    Sendrecv,
    /// Global reduction.
    Allreduce,
    /// Global barrier.
    Barrier,
}

impl OpKind {
    /// Whether the op synchronizes across ranks.
    pub fn is_sync(self) -> bool {
        !matches!(self, OpKind::Compute)
    }
}

/// One rank's arrival at one synchronizing op.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SyncWait {
    rank: usize,
    /// Op index within the program.
    step: usize,
    /// Time spent blocked on partners (s).
    wait: f64,
}

/// A run's synchronization log.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    sync: Vec<SyncWait>,
    ranks: usize,
}

impl Recorder for Timeline {
    fn record(
        &mut self,
        rank: usize,
        step: usize,
        kind: OpKind,
        _start: f64,
        _end: f64,
        wait: f64,
    ) {
        self.ranks = self.ranks.max(rank + 1);
        if kind.is_sync() {
            self.sync.push(SyncWait { rank, step, wait });
        }
    }
}

impl Timeline {
    /// Run `program` while recording its synchronization log.
    pub fn capture(program: &Program, rates: &[f64], comm: &CommParams) -> (RunResult, Timeline) {
        let mut tl = Timeline::default();
        let result = engine::run_recorded(program, rates, comm, &mut tl);
        (result, tl)
    }

    /// For each synchronizing op step, the rank that arrived last — the
    /// straggler everyone else waited for (wait ≈ 0 identifies it).
    fn stragglers(&self) -> Vec<(usize, usize)> {
        use std::collections::BTreeMap;
        let mut per_step: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
        for e in &self.sync {
            let entry = per_step.entry(e.step).or_insert((e.rank, f64::INFINITY));
            if e.wait < entry.1 {
                *entry = (e.rank, e.wait);
            }
        }
        per_step.into_iter().map(|(step, (rank, _))| (step, rank)).collect()
    }

    /// How many synchronization steps each rank was the straggler of.
    fn straggler_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.ranks];
        for (_, rank) in self.stragglers() {
            counts[rank] += 1;
        }
        counts
    }

    /// The critical rank: straggler of the most synchronization steps.
    /// `None` when the program has no synchronizing ops.
    pub fn critical_rank(&self) -> Option<usize> {
        let counts = self.straggler_counts();
        counts.iter().enumerate().max_by_key(|(_, &c)| c).filter(|(_, &c)| c > 0).map(|(r, _)| r)
    }

    /// Fraction of synchronization steps paced by the critical rank — 1.0
    /// means a single module throttles the entire application.
    pub fn critical_dominance(&self) -> Option<f64> {
        let stragglers = self.stragglers();
        if stragglers.is_empty() {
            return None;
        }
        let counts = self.straggler_counts();
        let max = counts.iter().max().copied().unwrap_or(0);
        Some(max as f64 / stragglers.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Op, ProgramBuilder};

    fn stencil_program(iters: usize) -> Program {
        let body = [Op::Compute { work: 1.0 }, Op::Sendrecv { offset: 1, bytes: 0 }];
        ProgramBuilder::new().iterations(iters, &body).build()
    }

    #[test]
    fn capture_matches_plain_run() {
        let p = stencil_program(10);
        let rates = [1.0, 0.8, 0.9, 0.7];
        let plain = engine::run(&p, &rates, &CommParams::ideal());
        let (recorded, tl) = Timeline::capture(&p, &rates, &CommParams::ideal());
        assert_eq!(plain, recorded, "recording must not perturb execution");
        // one synchronizing op per iteration, one arrival per rank each
        assert_eq!(tl.sync.len(), 4 * 10);
        assert_eq!(tl.ranks, 4);
    }

    #[test]
    fn slowest_rank_is_the_critical_rank() {
        let mut rates = vec![1.0; 8];
        rates[5] = 0.5;
        let p = stencil_program(32);
        let (_, tl) = Timeline::capture(&p, &rates, &CommParams::ideal());
        assert_eq!(tl.critical_rank(), Some(5));
        // after the ring "warms up", rank 5 paces almost every exchange
        assert!(tl.critical_dominance().unwrap() > 0.6);
    }

    #[test]
    fn equal_rates_have_no_dominant_straggler() {
        let p = ProgramBuilder::new().compute(1.0).barrier().build().with_compute_noise(0.02, 7);
        let rates = vec![1.0; 16];
        let (_, tl) = Timeline::capture(&p, &rates, &CommParams::ideal());
        // someone is always last, but with one sync op dominance is trivially 1;
        // use a longer noisy program to see rotation
        let body = [Op::Compute { work: 1.0 }, Op::Barrier];
        let p = ProgramBuilder::new().iterations(50, &body).build().with_compute_noise(0.02, 7);
        let (_, tl2) = Timeline::capture(&p, &rates, &CommParams::ideal());
        assert!(
            tl2.critical_dominance().unwrap() < 0.5,
            "noise should rotate the straggler, got {}",
            tl2.critical_dominance().unwrap()
        );
        drop(tl);
    }

    #[test]
    fn compute_only_program_has_no_critical_rank() {
        let p = ProgramBuilder::new().compute(3.0).build();
        let (_, tl) = Timeline::capture(&p, &[1.0, 2.0], &CommParams::ideal());
        assert_eq!(tl.critical_rank(), None);
        assert_eq!(tl.critical_dominance(), None);
        assert!(tl.stragglers().is_empty());
    }
}
