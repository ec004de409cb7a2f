//! Seeded job-arrival traces.
//!
//! A [`TraceGen`] draws a Poisson-like arrival process (exponential
//! interarrival gaps), job widths, and workloads from the evaluated
//! catalog — all from a single SplitMix64 stream, so a trace is a pure
//! function of its seed and parameters and replays byte-identically on
//! any platform.

use vap_model::rng::SplitMix64;
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

/// One job in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArrival {
    /// Stable job id (index in arrival order).
    pub id: usize,
    /// Arrival time (simulated seconds).
    pub at_s: f64,
    /// The application.
    pub workload: WorkloadId,
    /// Requested module count.
    pub width: usize,
    /// The narrowest allocation the job accepts (graceful degradation
    /// floor — below this it queues rather than shrinks).
    pub min_width: usize,
    /// Compute work at full speed (α = 1), in simulated seconds.
    pub work_s: f64,
}

/// A complete input to one runtime replay.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Jobs in arrival order (`at_s` non-decreasing).
    pub jobs: Vec<JobArrival>,
}

/// Seeded trace generator.
#[derive(Debug, Clone)]
pub struct TraceGen {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Fleet size the widths are drawn against.
    pub fleet: usize,
    /// Mean exponential interarrival gap (seconds).
    pub mean_interarrival_s: f64,
    /// Multiplier on each workload's catalog reference time.
    pub work_scale: f64,
}

impl TraceGen {
    /// Defaults: paper-scale work, one arrival per minute.
    pub fn new(jobs: usize, fleet: usize) -> Self {
        TraceGen { jobs, fleet, mean_interarrival_s: 60.0, work_scale: 1.0 }
    }

    /// Generate the trace for `seed`. Widths are drawn between fleet/8
    /// and fleet/3, at least one module and at most the fleet.
    pub fn generate(&self, seed: u64) -> Trace {
        let mut rng = SplitMix64::new(seed);
        let lo = (self.fleet / 8).clamp(1, self.fleet.max(1));
        let hi = (self.fleet / 3).clamp(lo, self.fleet.max(1));
        let mut t = 0.0;
        let jobs = (0..self.jobs)
            .map(|id| {
                t += rng.next_exp(self.mean_interarrival_s);
                let workload = WorkloadId::EVALUATED[rng.next_index(WorkloadId::EVALUATED.len())];
                let width = lo + rng.next_index(hi - lo + 1);
                let reference = catalog::get(workload).reference_time.value();
                JobArrival {
                    id,
                    at_s: t,
                    workload,
                    width,
                    min_width: (width / 2).max(1),
                    work_s: reference * self.work_scale * rng.next_range(0.5, 1.5),
                }
            })
            .collect();
        Trace { jobs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_replay_byte_identically() {
        let gen = TraceGen::new(50, 128);
        let a = gen.generate(2015);
        let b = gen.generate(2015);
        assert_eq!(a, b);
        assert_ne!(a, gen.generate(2016));
    }

    #[test]
    fn trace_shape_respects_parameters() {
        let gen = TraceGen { work_scale: 0.1, ..TraceGen::new(200, 96) };
        let t = gen.generate(42);
        assert_eq!(t.jobs.len(), 200);
        let mut last = 0.0;
        for j in &t.jobs {
            assert!(j.at_s >= last, "arrivals must be time-ordered");
            last = j.at_s;
            assert!(j.width >= 96 / 8 && j.width <= 96 / 3);
            assert!(j.min_width >= 1 && j.min_width <= j.width);
            assert!(j.work_s > 0.0);
            assert!(WorkloadId::EVALUATED.contains(&j.workload));
        }
        // the exponential gaps should average near the configured mean
        let mean = last / 200.0;
        assert!((mean - 60.0).abs() < 15.0, "observed mean gap {mean}");
    }

    #[test]
    fn tiny_fleets_still_generate() {
        let t = TraceGen::new(10, 2).generate(3);
        for j in &t.jobs {
            assert!(j.width >= 1 && j.width <= 2);
        }
    }
}
