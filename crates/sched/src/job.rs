//! Job lifecycle state.
//!
//! queued → placed/running → completed, with two degradation edges: a
//! running job can be preempted back to the queue when the cluster cap
//! tightens, and a queued job that can never fit (even alone, at its
//! minimum width, on an otherwise idle cluster) is killed rather than
//! left to starve the drain.

use vap_core::pmt::PowerModelTable;
use vap_model::linear::Alpha;
use vap_model::units::Watts;

use crate::trace::JobArrival;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for modules and watts.
    Queued,
    /// Placed and progressing.
    Running,
    /// All work done.
    Completed,
    /// Can never be admitted (infeasible even on an idle cluster).
    Killed,
}

/// The runtime's mutable view of one job.
#[derive(Debug, Clone)]
pub struct Job {
    /// The immutable arrival record.
    pub spec: JobArrival,
    /// Lifecycle state.
    pub state: JobState,
    /// Modules currently held (empty unless running).
    pub placement: Vec<usize>,
    /// PMT calibrated over the current placement (present while running).
    pub pmt: Option<PowerModelTable>,
    /// CPU-bound fraction χ from the workload catalog.
    pub cpu_fraction: f64,
    /// Full-speed work remaining (seconds).
    pub remaining_s: f64,
    /// Current progress rate (full-speed seconds per simulated second;
    /// 1.0 at α = 1, lower under a tight budget, 0 when not running).
    pub rate: f64,
    /// Power budget currently awarded.
    pub budget: Watts,
    /// α solved for the current budget.
    pub alpha: Alpha,
    /// First admission time, if ever admitted.
    pub started_at_s: Option<f64>,
    /// Completion time, if completed.
    pub completed_at_s: Option<f64>,
    /// Times the job was preempted back to the queue.
    pub preemptions: u32,
    /// Bumped on every re-solve and preemption: completion events carry
    /// the epoch they were predicted under, and stale ones are ignored.
    pub epoch: u64,
    /// Accumulated module·seconds of occupancy (utilization accounting).
    pub busy_module_s: f64,
    /// Width of the most recent placement (survives module release at
    /// completion, so reports can show the granted width).
    pub last_width: usize,
}

impl Job {
    /// A fresh queued job for an arrival record.
    pub fn new(spec: JobArrival, cpu_fraction: f64) -> Self {
        let remaining_s = spec.work_s;
        Job {
            spec,
            state: JobState::Queued,
            placement: Vec::new(),
            pmt: None,
            cpu_fraction,
            remaining_s,
            rate: 0.0,
            budget: Watts::ZERO,
            alpha: Alpha::MIN,
            started_at_s: None,
            completed_at_s: None,
            preemptions: 0,
            epoch: 0,
            busy_module_s: 0.0,
            last_width: 0,
        }
    }

    /// Progress rate under `alpha`: the boundedness-weighted frequency
    /// ratio `1 / (χ·f_max/f + (1−χ))` — the same fluid model
    /// `vap_core::multijob` scores partitions with, here integrated over
    /// simulated time.
    // vap:allow(unit-flow): progress rate relative to f_max is dimensionless
    pub fn progress_rate(pmt: &PowerModelTable, cpu_fraction: f64, alpha: Alpha) -> f64 {
        let Some(entry) = pmt.entries().first() else {
            return 0.0;
        };
        let f = entry.cpu.frequency(alpha).value();
        let f_max = entry.cpu.f_max.value();
        if f <= 0.0 {
            return 0.0;
        }
        1.0 / (cpu_fraction * (f_max / f) + (1.0 - cpu_fraction))
    }

    /// Job completion time: completion minus arrival.
    pub fn jct_s(&self) -> Option<f64> {
        self.completed_at_s.map(|c| c - self.spec.at_s)
    }

    /// Stretch: completion time over ideal full-speed runtime.
    pub fn stretch(&self) -> Option<f64> {
        let jct = self.jct_s()?;
        if self.spec.work_s > 0.0 {
            Some(jct / self.spec.work_s)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::units::GigaHertz;
    use vap_workloads::spec::WorkloadId;

    fn job() -> Job {
        Job::new(
            JobArrival {
                id: 0,
                at_s: 10.0,
                workload: WorkloadId::Dgemm,
                width: 8,
                min_width: 4,
                work_s: 100.0,
            },
            0.9,
        )
    }

    fn pmt() -> PowerModelTable {
        PowerModelTable::naive(
            &[0, 1],
            GigaHertz(2.7),
            GigaHertz(1.2),
            Watts(130.0),
            Watts(62.0),
            Watts(40.0),
            Watts(10.0),
        )
    }

    #[test]
    fn fresh_jobs_are_queued_with_full_work() {
        let j = job();
        assert_eq!(j.state, JobState::Queued);
        assert_eq!(j.remaining_s, 100.0);
        assert!(j.jct_s().is_none());
        assert!(j.stretch().is_none());
    }

    #[test]
    fn progress_rate_is_one_at_full_alpha_and_lower_below() {
        let p = pmt();
        let full = Job::progress_rate(&p, 0.9, Alpha::MAX);
        assert!((full - 1.0).abs() < 1e-12);
        let low = Job::progress_rate(&p, 0.9, Alpha::MIN);
        assert!(low > 0.0 && low < full);
        // a memory-bound job barely notices α
        let insensitive = Job::progress_rate(&p, 0.1, Alpha::MIN);
        assert!(insensitive > low);
    }

    #[test]
    fn timing_accessors_derive_from_timestamps() {
        let mut j = job();
        j.started_at_s = Some(25.0);
        j.completed_at_s = Some(210.0);
        assert_eq!(j.jct_s(), Some(200.0));
        assert_eq!(j.stretch(), Some(2.0));
    }
}
