//! Replay results: per-job records, aggregate schedule metrics, and a
//! simulated-time Perfetto timeline (one lane per job).

use vap_obs::export::{ChromeTrace, TraceEvent};
use vap_obs::json::{ToJson, Value};
use vap_workloads::spec::WorkloadId;

use crate::job::{Job, JobState};

/// The distilled outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Stable job id (trace order).
    pub id: usize,
    /// The application.
    pub workload: WorkloadId,
    /// Modules requested.
    pub requested: usize,
    /// Modules actually granted at (last) admission.
    pub granted: usize,
    /// Arrival time (s).
    pub arrival_s: f64,
    /// First admission time (s), if ever admitted.
    pub start_s: Option<f64>,
    /// Completion time (s), if completed.
    pub end_s: Option<f64>,
    /// Full-speed work (s).
    pub work_s: f64,
    /// Preemption count.
    pub preemptions: u32,
    /// Final lifecycle state.
    pub state: JobState,
    /// Final α.
    pub alpha: f64,
    /// Final power budget (W).
    pub budget_w: f64,
    /// Accumulated module·seconds of occupancy.
    pub busy_module_s: f64,
}

impl JobRecord {
    /// Snapshot a runtime job.
    pub(crate) fn from_job(j: &Job) -> Self {
        JobRecord {
            id: j.spec.id,
            workload: j.spec.workload,
            requested: j.spec.width,
            granted: j.placement.len().max(
                // completed jobs have released their modules; reconstruct
                // the width from the occupancy integral when possible
                if j.state == JobState::Completed { j.last_width } else { 0 },
            ),
            arrival_s: j.spec.at_s,
            start_s: j.started_at_s,
            end_s: j.completed_at_s,
            work_s: j.spec.work_s,
            preemptions: j.preemptions,
            state: j.state,
            alpha: j.alpha.value(),
            budget_w: j.budget.value(),
            busy_module_s: j.busy_module_s,
        }
    }

    /// Queue wait (s), if admitted.
    pub fn wait_s(&self) -> Option<f64> {
        self.start_s.map(|s| s - self.arrival_s)
    }

    /// Job completion time (s), if completed.
    pub fn jct_s(&self) -> Option<f64> {
        self.end_s.map(|e| e - self.arrival_s)
    }

    /// Completion time over ideal full-speed runtime.
    pub fn stretch(&self) -> Option<f64> {
        let jct = self.jct_s()?;
        (self.work_s > 0.0).then(|| jct / self.work_s)
    }
}

/// One post-event power/queue snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSample {
    /// Event time (s).
    pub at_s: f64,
    /// Σ awarded job budgets (W).
    pub allocated_w: f64,
    /// Measured fleet power (W).
    pub measured_w: f64,
    /// Running job count.
    pub running: usize,
    /// Queued job count.
    pub queued: usize,
}

/// The outcome of one trace replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedReport {
    /// One record per trace job.
    pub jobs: Vec<JobRecord>,
    /// Simulated time at drain (s).
    pub horizon_s: f64,
    /// Fleet size.
    pub fleet: usize,
    /// Post-event snapshots.
    pub power: Vec<PowerSample>,
}

impl SchedReport {
    /// Completed jobs.
    pub fn completed(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.state == JobState::Completed)
    }

    /// Number of completed jobs.
    pub fn completed_count(&self) -> usize {
        self.completed().count()
    }

    /// Number of killed (never-feasible) jobs.
    pub fn killed_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.state == JobState::Killed).count()
    }

    /// Total preemption events.
    pub fn preemption_count(&self) -> u32 {
        self.jobs.iter().map(|j| j.preemptions).sum()
    }

    /// Completed jobs per hour of simulated time.
    pub fn throughput_jobs_per_hour(&self) -> f64 {
        if self.horizon_s > 0.0 {
            self.completed_count() as f64 * 3600.0 / self.horizon_s
        } else {
            0.0
        }
    }

    /// Mean queue wait over admitted jobs (s).
    pub fn mean_wait_s(&self) -> f64 {
        mean(self.jobs.iter().filter_map(JobRecord::wait_s))
    }

    /// Mean job completion time over completed jobs (s).
    pub fn mean_jct_s(&self) -> f64 {
        mean(self.jobs.iter().filter_map(JobRecord::jct_s))
    }

    /// Module occupancy: Σ busy module·seconds over fleet·horizon.
    pub fn utilization(&self) -> f64 {
        let capacity = self.fleet as f64 * self.horizon_s;
        if capacity > 0.0 {
            self.jobs.iter().map(|j| j.busy_module_s).sum::<f64>() / capacity
        } else {
            0.0
        }
    }

    /// Vt over job stretches: slowest stretch / fastest stretch among
    /// completed jobs — the schedule-level analogue of the paper's
    /// performance-variation metric. `None` with no completions.
    pub fn stretch_variation(&self) -> Option<f64> {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for s in self.completed().filter_map(JobRecord::stretch) {
            lo = lo.min(s);
            hi = hi.max(s);
        }
        (lo.is_finite() && lo > 0.0).then(|| hi / lo)
    }

    /// A Perfetto/Chrome trace of the *simulated* schedule: one lane per
    /// job carrying a `wait` span (arrival → admission) and a `run` span
    /// (admission → completion). Timestamps are simulated microseconds,
    /// so the trace is deterministic — unlike the wall-clock timeline
    /// `vap-obs` exports alongside it.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let us = |t: f64| (t.max(0.0) * 1e6).round() as u64;
        let mut events = vec![TraceEvent {
            name: "process_name".to_string(),
            cat: "__metadata".to_string(),
            ph: "M".to_string(),
            ts: 0,
            dur: None,
            pid: 1,
            tid: 0,
            args: Some(Value::object([("name", Value::from("vap-sched simulated schedule"))])),
        }];
        for j in &self.jobs {
            let tid = j.id as u32 + 1;
            events.push(TraceEvent {
                name: "thread_name".to_string(),
                cat: "__metadata".to_string(),
                ph: "M".to_string(),
                ts: 0,
                dur: None,
                pid: 1,
                tid,
                args: Some(Value::object([(
                    "name",
                    Value::from(format!(
                        "job-{} {} x{}",
                        j.id,
                        j.workload,
                        j.granted.max(j.requested)
                    )),
                )])),
            });
            if let Some(start) = j.start_s {
                events.push(TraceEvent {
                    name: format!("wait {}", j.workload),
                    cat: "wait".to_string(),
                    ph: "X".to_string(),
                    ts: us(j.arrival_s),
                    dur: Some(us(start).saturating_sub(us(j.arrival_s))),
                    pid: 1,
                    tid,
                    args: None,
                });
            }
            if let (Some(start), Some(end)) = (j.start_s, j.end_s) {
                events.push(TraceEvent {
                    name: format!("run {}", j.workload),
                    cat: "run".to_string(),
                    ph: "X".to_string(),
                    ts: us(start),
                    dur: Some(us(end).saturating_sub(us(start))),
                    pid: 1,
                    tid,
                    args: Some(Value::object([
                        ("alpha", Value::from(j.alpha)),
                        ("budget_w", Value::from(j.budget_w)),
                        ("preemptions", Value::from(j.preemptions)),
                    ])),
                });
            }
        }
        ChromeTrace { trace_events: events }
    }

    /// [`Self::chrome_trace`] serialized to JSON.
    pub fn chrome_trace_json(&self) -> String {
        self.chrome_trace().to_json()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n > 0 {
        sum / n as f64
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, start: Option<f64>, end: Option<f64>, state: JobState) -> JobRecord {
        JobRecord {
            id,
            workload: WorkloadId::Dgemm,
            requested: 8,
            granted: 8,
            arrival_s: 10.0,
            start_s: start,
            end_s: end,
            work_s: 100.0,
            preemptions: 0,
            state,
            alpha: 1.0,
            budget_w: 800.0,
            busy_module_s: 800.0,
        }
    }

    fn report() -> SchedReport {
        let mut killed = record(2, None, None, JobState::Killed);
        killed.busy_module_s = 0.0;
        SchedReport {
            jobs: vec![
                record(0, Some(10.0), Some(110.0), JobState::Completed),
                record(1, Some(30.0), Some(230.0), JobState::Completed),
                killed,
            ],
            horizon_s: 360.0,
            fleet: 16,
            power: vec![],
        }
    }

    #[test]
    fn aggregates_cover_the_schedule() {
        let r = report();
        assert_eq!(r.completed_count(), 2);
        assert_eq!(r.killed_count(), 1);
        assert_eq!(r.preemption_count(), 0);
        assert!((r.throughput_jobs_per_hour() - 20.0).abs() < 1e-9);
        // waits 0 s and 20 s; JCTs 100 s and 220 s
        assert!((r.mean_wait_s() - 10.0).abs() < 1e-9);
        assert!((r.mean_jct_s() - 160.0).abs() < 1e-9);
        assert!((r.utilization() - 1600.0 / (16.0 * 360.0)).abs() < 1e-9);
        // stretches 1.0 and 2.2 → Vt = 2.2
        assert!((r.stretch_variation().unwrap() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn empty_report_degrades_gracefully() {
        let r = SchedReport { jobs: vec![], horizon_s: 0.0, fleet: 0, power: vec![] };
        assert_eq!(r.throughput_jobs_per_hour(), 0.0);
        assert_eq!(r.mean_wait_s(), 0.0);
        assert_eq!(r.utilization(), 0.0);
        assert!(r.stretch_variation().is_none());
    }

    #[test]
    fn chrome_trace_validates_and_uses_sim_time() {
        let r = report();
        let json = r.chrome_trace_json();
        let n = vap_obs::validate_trace(&json).expect("trace must validate");
        // 1 process + 3 thread names + 2×(wait+run)
        assert_eq!(n, 8);
        let t = r.chrome_trace();
        let run0 =
            t.trace_events.iter().find(|e| e.cat == "run" && e.tid == 1).expect("job 0 run span");
        assert_eq!(run0.ts, 10_000_000);
        assert_eq!(run0.dur, Some(100_000_000));
    }
}
