//! The discrete-event scheduling runtime.
//!
//! Replays a [`Trace`] against a [`Cluster`]: jobs arrive, get placed by
//! a [`vap_sim::scheduler::AllocationPolicy`] over the *free* modules,
//! receive a variation-aware power plan (PMT calibration + α solve via
//! `vap-core`, VaPc flavor), and progress as fluid work under the
//! boundedness-weighted frequency model. On **every** arrival,
//! completion, and cap-change event the global power partition is
//! re-solved per the configured [`ReallocPolicy`], so freed watts flow to
//! running jobs; completion predictions scheduled under an older
//! partition are invalidated by an epoch counter.
//!
//! # Determinism contract
//!
//! The runtime is single-threaded and its outputs are a pure function of
//! `(cluster seed, trace, config)`: the event queue breaks timestamp ties
//! by push order, all randomness comes from SplitMix64 streams derived
//! from the campaign seed, and per-(workload, probe) test runs are cached
//! in a `BTreeMap`. `vap-exec` fans independent runtimes across threads;
//! no state is shared between cells.

use std::collections::BTreeMap;

use vap_core::alpha::{allocations, raw_alpha};
use vap_core::multijob::{Budgeter, JobRequest, PartitionPolicy};
use vap_core::pmt::PowerModelTable;
use vap_core::pvt::PowerVariationTable;
use vap_core::schemes::{apply_plan, ControlKind, PowerPlan, SchemeId};
use vap_core::testrun::{single_module_test_run, TestRunResult};
use vap_model::linear::Alpha;
use vap_model::power::PowerActivity;
use vap_model::units::Watts;
use vap_obs::{
    BudgetDelta, Category, DecisionKind, DecisionRecord, Domain, DriftAlert, DriftDetector,
    Histogram, LedgerEntry, LedgerTick, WidthProbe,
};
use vap_scenario::{observe_drift, Effect, ScenarioRuntime};
use vap_sim::cluster::Cluster;
use vap_sim::cpufreq::Governor;
use vap_sim::scheduler::AllocationPolicy;
use vap_workloads::catalog;
use vap_workloads::spec::{WorkloadId, WorkloadSpec};

use crate::event::{Event, EventQueue};
use crate::job::{Job, JobState};
use crate::report::{JobRecord, PowerSample, SchedReport};
use crate::trace::Trace;

/// What happens to already-awarded budgets when the job mix changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReallocPolicy {
    /// A job's budget is fixed at admission; watts freed by completions
    /// become available to *future* arrivals only (what a static,
    /// reservation-style resource manager does).
    Frozen,
    /// Re-partition on every event with
    /// [`PartitionPolicy::FairFloorPlusUniformAlpha`]: floors first, then
    /// a common α across all running jobs.
    UniformRebalance,
    /// Re-partition on every event with
    /// [`PartitionPolicy::ThroughputGreedy`]: spare watts go where they
    /// buy the most system progress.
    ThroughputGreedy,
}

impl ReallocPolicy {
    /// All policies, in display order.
    pub const ALL: [ReallocPolicy; 3] =
        [ReallocPolicy::Frozen, ReallocPolicy::UniformRebalance, ReallocPolicy::ThroughputGreedy];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ReallocPolicy::Frozen => "Frozen",
            ReallocPolicy::UniformRebalance => "Rebalance",
            ReallocPolicy::ThroughputGreedy => "Greedy",
        }
    }
}

impl std::fmt::Display for ReallocPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the admission loop walks the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Strict FIFO: the head of the queue blocks everything behind it.
    Fifo,
    /// Power-aware backfill: when the head does not fit (modules *or*
    /// watts), later jobs that do fit may start ahead of it.
    Backfill,
}

/// Runtime configuration for one replay.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// How modules are picked from the free pool.
    pub allocation: AllocationPolicy,
    /// What happens to budgets on job churn.
    pub realloc: ReallocPolicy,
    /// Queue walk order at admission.
    pub queue: QueueDiscipline,
    /// Initial cluster-level power cap (cap-change events override it).
    pub cap: Watts,
}

/// Why [`SchedRuntime::try_place`] did not admit a job.
enum Placement {
    Placed,
    Deferred,
    Impossible,
}

/// The discrete-event runtime for one `(cluster, trace, config)` cell.
pub struct SchedRuntime {
    cluster: Cluster,
    pvt: PowerVariationTable,
    seed: u64,
    config: SchedConfig,
    now: f64,
    cap: Watts,
    /// Σ budgets held by running jobs — the frozen policy's ledger.
    committed: Watts,
    events: EventQueue,
    jobs: Vec<Job>,
    /// Queued job ids in admission-scan order.
    pending: Vec<usize>,
    /// Running job ids in admission order.
    running: Vec<usize>,
    /// The running jobs' partition ledger, keyed by job id in admission
    /// order (mirrors `running`): cached [`JobRequest`]s plus their PMT
    /// extrema, so re-partitions touch no PMT.
    budgeter: Budgeter,
    /// Free module ids, sorted.
    free: Vec<usize>,
    /// Single-module test runs, cached per (workload, probe module).
    test_cache: BTreeMap<(u64, usize), TestRunResult>,
    samples: Vec<PowerSample>,
    pending_cap_changes: usize,
    /// Optional non-stationary perturbation schedule (drift, faults,
    /// shocks, churn) replayed alongside the trace.
    scenario: Option<ScenarioRuntime>,
    /// Scenario events still scheduled — like `pending_cap_changes`,
    /// part of the "can this admission ever improve?" check.
    pending_scenario: usize,
    /// The trace-level cap (shock-free): cap shocks scale this, and a
    /// shock release restores it.
    base_cap: Watts,
    /// Simulated time of the previous [`Self::sample`] call — the width
    /// of the next watt-provenance ledger tick.
    last_sample_t: f64,
    /// Online drift detector over measured − PVT-predicted residuals.
    drift: DriftDetector,
    /// Job completion times (s).
    hist_jct: Histogram,
    /// Queue wait before admission (s).
    hist_wait: Histogram,
    /// Gap between consecutive processed events (s) — the event-queue
    /// latency profile.
    hist_event_gap: Histogram,
    /// Calibration probes per admission (the width binary search's
    /// iteration count — the α-solve work per placement).
    hist_width_probes: Histogram,
}

impl SchedRuntime {
    /// Build a runtime over a pristine (post-PVT) cluster clone. The PVT
    /// must cover the cluster's modules.
    pub fn new(mut cluster: Cluster, pvt: PowerVariationTable, seed: u64, config: SchedConfig) -> Self {
        // The whole fleet starts idle, uncapped, on the performance
        // governor — whatever the PVT sweep left behind.
        for i in 0..cluster.len() {
            cluster.clear_cap(i);
            cluster.set_governor(i, Governor::Performance);
            cluster.set_workload_variation(i, None);
            cluster.set_activity(i, PowerActivity::IDLE);
        }
        let free: Vec<usize> = (0..cluster.len()).collect();
        let cap = config.cap;
        let drift = DriftDetector::new(cluster.len());
        SchedRuntime {
            cluster,
            pvt,
            seed,
            config,
            now: 0.0,
            cap,
            committed: Watts::ZERO,
            events: EventQueue::new(),
            jobs: Vec::new(),
            pending: Vec::new(),
            running: Vec::new(),
            budgeter: Budgeter::new(),
            free,
            test_cache: BTreeMap::new(),
            samples: Vec::new(),
            pending_cap_changes: 0,
            scenario: None,
            pending_scenario: 0,
            base_cap: cap,
            last_sample_t: 0.0,
            drift,
            hist_jct: Histogram::default(),
            hist_wait: Histogram::default(),
            hist_event_gap: Histogram::default(),
            hist_width_probes: Histogram::default(),
        }
    }

    /// Install a non-stationary perturbation schedule. Its events are
    /// merged into the replay's `(time, push-order)` event queue at
    /// [`Self::run_with`], so the replay stays a pure function of
    /// `(cluster seed, trace, config, scenario)`.
    pub fn with_scenario(mut self, scenario: ScenarioRuntime) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Replay `trace` to completion and report.
    pub fn run(self, trace: &Trace) -> SchedReport {
        self.run_with(trace, |_| std::ops::ControlFlow::Continue(()))
    }

    /// Replay `trace`, calling `tick` with the post-event runtime state
    /// after every processed event. `tick` observing the runtime must not
    /// influence the replay — it gets `&SchedRuntime`, so the journal
    /// stays a pure function of `(cluster seed, trace, config)` whether
    /// or not anyone is watching. Returning `ControlFlow::Break` stops
    /// the replay early (the daemon's shutdown path); the report then
    /// covers the events processed so far.
    pub fn run_with(
        mut self,
        trace: &Trace,
        mut tick: impl FnMut(&SchedRuntime) -> std::ops::ControlFlow<()>,
    ) -> SchedReport {
        self.jobs = trace
            .jobs
            .iter()
            .map(|a| Job::new(a.clone(), catalog::get(a.workload).cpu_fraction))
            .collect();
        for (idx, a) in trace.jobs.iter().enumerate() {
            self.events.push(a.at_s, Event::Arrival { job: idx });
        }
        for c in &trace.cap_changes {
            self.events.push(c.at_s, Event::CapChange { cap: c.cap });
            self.pending_cap_changes += 1;
        }
        if let Some(sc) = self.scenario.as_ref() {
            let times: Vec<f64> = sc.events().iter().map(|e| e.at_s).collect();
            self.pending_scenario = times.len();
            for (idx, at_s) in times.into_iter().enumerate() {
                self.events.push(at_s, Event::Scenario { idx });
            }
        }

        while let Some((t, event)) = self.events.pop() {
            self.hist_event_gap.observe((t - self.now).max(0.0));
            self.advance(t);
            vap_obs::incr("sched.events");
            match event {
                Event::Arrival { job } => {
                    vap_obs::incr("sched.arrivals");
                    self.pending.push(job);
                    self.try_admit();
                    self.resolve();
                }
                Event::Completion { job, epoch } => {
                    let stale = self.jobs[job].state != JobState::Running
                        || self.jobs[job].epoch != epoch;
                    if stale {
                        vap_obs::incr("sched.stale_completions");
                    } else {
                        self.complete(job);
                        self.try_admit();
                        self.resolve();
                    }
                }
                Event::CapChange { cap } => {
                    vap_obs::incr("sched.cap_changes");
                    let old = self.cap;
                    // An active cap shock scales the new trace cap too
                    // (scale 1.0 is exact: the no-scenario replay is
                    // bit-identical to before scenarios existed).
                    let scale = self.scenario.as_ref().map_or(1.0, |s| s.shock_scale());
                    self.base_cap = cap;
                    let cap = Watts(cap.value() * scale);
                    self.cap = cap;
                    self.pending_cap_changes = self.pending_cap_changes.saturating_sub(1);
                    vap_obs::decision(|| DecisionRecord {
                        t_s: self.now,
                        job: None,
                        cap_w: cap.value(),
                        avail_w: self.available().value(),
                        kind: DecisionKind::CapChange { old_w: old.value(), new_w: cap.value() },
                    });
                    self.enforce_cap();
                    self.try_admit();
                    self.resolve();
                }
                Event::Scenario { idx } => {
                    vap_obs::incr("sched.scenario_events");
                    self.pending_scenario = self.pending_scenario.saturating_sub(1);
                    self.apply_scenario(idx);
                }
            }
            self.sample();
            if tick(&self).is_break() {
                break;
            }
        }

        let fleet = self.cluster.len();
        let horizon_s = self.now;
        let jobs = self.jobs.iter().map(JobRecord::from_job).collect();
        SchedReport { jobs, horizon_s, fleet, power: self.samples }
    }

    /// Integrate fluid progress of running jobs up to `t`.
    fn advance(&mut self, t: f64) {
        let dt = t - self.now;
        if dt > 0.0 {
            for &id in &self.running {
                let j = &mut self.jobs[id];
                j.remaining_s = (j.remaining_s - j.rate * dt).max(0.0);
                j.busy_module_s += j.placement.len() as f64 * dt;
            }
        }
        self.now = t;
    }

    /// Finish a running job and free its resources.
    fn complete(&mut self, id: usize) {
        let j = &mut self.jobs[id];
        j.state = JobState::Completed;
        j.completed_at_s = Some(self.now);
        j.remaining_s = 0.0;
        j.rate = 0.0;
        let placement = std::mem::take(&mut j.placement);
        let budget = j.budget;
        if self.config.realloc == ReallocPolicy::Frozen {
            self.committed = (self.committed - budget).max(Watts::ZERO);
        }
        self.release_modules(&placement);
        self.running.retain(|&r| r != id);
        self.budgeter.remove(id as u64);
        vap_obs::incr("sched.completions");
        if let Some(jct) = self.jobs[id].jct_s() {
            vap_obs::observe("sched.jct_s", jct);
            self.hist_jct.observe(jct);
        }
    }

    /// Watts not yet spoken for under the current policy's ledger.
    fn available(&self) -> Watts {
        match self.config.realloc {
            ReallocPolicy::Frozen => self.cap - self.committed,
            _ => self.cap - self.running_floors(),
        }
    }

    /// Preempt the most recently admitted jobs until the cap is feasible
    /// again (graceful degradation on a mid-run cap tightening).
    fn enforce_cap(&mut self) {
        loop {
            let overload = match self.config.realloc {
                ReallocPolicy::Frozen => self.committed > self.cap,
                _ => self.running_floors() > self.cap,
            };
            if !overload {
                break;
            }
            let Some(&victim) = self.running.last() else {
                break;
            };
            self.preempt(victim);
        }
    }

    /// Push a running job back to the head of the queue, freeing its
    /// modules and watts. Its remaining work is preserved.
    fn preempt(&mut self, id: usize) {
        let j = &mut self.jobs[id];
        j.state = JobState::Queued;
        j.epoch += 1;
        j.rate = 0.0;
        j.preemptions += 1;
        j.alpha = Alpha::MIN;
        j.pmt = None;
        let placement = std::mem::take(&mut j.placement);
        let budget = j.budget;
        j.budget = Watts::ZERO;
        if self.config.realloc == ReallocPolicy::Frozen {
            self.committed = (self.committed - budget).max(Watts::ZERO);
        }
        self.release_modules(&placement);
        self.running.retain(|&r| r != id);
        self.budgeter.remove(id as u64);
        self.pending.insert(0, id);
        vap_obs::incr("sched.preemptions");
        vap_obs::decision(|| DecisionRecord {
            t_s: self.now,
            job: Some(id as u64),
            cap_w: self.cap.value(),
            avail_w: self.available().value(),
            kind: DecisionKind::Preempt {
                freed_w: budget.value(),
                width: placement.len() as u64,
            },
        });
    }

    /// Return modules to the free pool: uncap, performance governor, idle
    /// activity. Modules currently failed out by the scenario are idled
    /// but *not* re-listed — they rejoin on replacement.
    fn release_modules(&mut self, ids: &[usize]) {
        let n = self.cluster.len();
        for &m in ids.iter().filter(|&&m| m < n) {
            self.cluster.clear_cap(m);
            self.cluster.set_governor(m, Governor::Performance);
            self.cluster.set_workload_variation(m, None);
            self.cluster.set_activity(m, PowerActivity::IDLE);
        }
        self.free.extend_from_slice(ids);
        if let Some(sc) = self.scenario.as_ref() {
            self.free.retain(|&m| !sc.is_failed(m));
        }
        self.free.sort_unstable();
    }

    /// Replay the `idx`-th scenario event against the cluster and react:
    /// cap shocks flow through the cap-change path, failures preempt and
    /// shrink the pool, replacements rejoin it. Drift/entropy/sensor
    /// events mutate only the physics (and the sensor plane) — the
    /// scheduler deliberately keeps planning from its stale PVT until a
    /// re-calibration policy intervenes.
    fn apply_scenario(&mut self, idx: usize) {
        let Some(ev) = self.scenario.as_ref().and_then(|sc| sc.events().get(idx)).copied()
        else {
            return;
        };
        let effect = match self.scenario.as_mut() {
            Some(sc) => sc.apply_to_cluster(&ev, &mut self.cluster),
            None => return,
        };
        match effect {
            Effect::Module(_) | Effect::Sensor(_) => {}
            Effect::Cap => self.shock_cap(),
            Effect::Failed(m) => self.fail_module(m),
            Effect::Replaced(m) => self.rejoin_module(m),
        }
    }

    /// Re-derive the effective cap as `shock scale × base cap` and push
    /// the change through the same machinery a trace cap change uses.
    fn shock_cap(&mut self) {
        let scale = self.scenario.as_ref().map_or(1.0, |s| s.shock_scale());
        let old = self.cap;
        let cap = Watts(self.base_cap.value() * scale);
        self.cap = cap;
        vap_obs::decision(|| DecisionRecord {
            t_s: self.now,
            job: None,
            cap_w: cap.value(),
            avail_w: self.available().value(),
            kind: DecisionKind::CapChange { old_w: old.value(), new_w: cap.value() },
        });
        self.enforce_cap();
        self.try_admit();
        self.resolve();
    }

    /// A module failed out of the pool: preempt every job placed on it
    /// (their work is preserved; they re-queue at the head), then drop it
    /// from the free list until a replacement arrives.
    fn fail_module(&mut self, m: usize) {
        vap_obs::incr("sched.module_failures");
        let victims: Vec<usize> = self
            .running
            .iter()
            .copied()
            .filter(|&id| self.jobs[id].placement.contains(&m))
            .collect();
        for v in victims {
            self.preempt(v);
        }
        self.free.retain(|&f| f != m);
        self.try_admit();
        self.resolve();
    }

    /// A replacement part rejoined the pool with fresh silicon (already
    /// swapped in by the scenario runtime): list it free again and give
    /// the queue a chance at the recovered capacity.
    fn rejoin_module(&mut self, m: usize) {
        vap_obs::incr("sched.module_replacements");
        let held = self.running.iter().any(|&id| self.jobs[id].placement.contains(&m));
        if m < self.cluster.len() && !held && !self.free.contains(&m) {
            self.free.push(m);
            self.free.sort_unstable();
        }
        self.try_admit();
        self.resolve();
    }

    /// Σ PMT floors of the running jobs (the rebalance policies' ledger).
    ///
    /// Served from the [`Budgeter`]'s cached extrema: the sum visits the
    /// same floors in the same (admission) order the old per-call PMT
    /// rescan did, so the value is bit-identical.
    fn running_floors(&self) -> Watts {
        self.budgeter.floor_total()
    }

    /// Walk the queue admitting whatever fits under the discipline.
    fn try_admit(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            let id = self.pending[i];
            match self.try_place(id) {
                Placement::Placed => {
                    self.pending.remove(i);
                }
                Placement::Deferred => {
                    if self.config.queue == QueueDiscipline::Fifo {
                        break;
                    }
                    i += 1;
                }
                Placement::Impossible => {
                    self.pending.remove(i);
                    self.jobs[id].state = JobState::Killed;
                    vap_obs::incr("sched.kills");
                }
            }
        }
        vap_obs::observe("sched.queue_depth", self.pending.len() as f64);
    }

    /// Attempt to place one queued job: pick modules from the free pool,
    /// calibrate its PMT, shrink its width down to `min_width` if the
    /// watts are tight, and admit if (and only if) its floor fits.
    fn try_place(&mut self, id: usize) -> Placement {
        let arrival = self.jobs[id].spec.clone();
        if arrival.min_width > self.cluster.len() {
            self.defer_or_kill_decision(id, "min_width_exceeds_fleet", true);
            return Placement::Impossible;
        }
        // Can the job's admission ever improve without our intervention?
        // Only if something is running (will free modules/watts), a cap
        // change is still scheduled, or a scenario event (shock release,
        // module replacement) is still pending.
        let idle_system = self.running.is_empty()
            && self.pending_cap_changes == 0
            && self.pending_scenario == 0;
        if self.free.len() < arrival.min_width {
            self.defer_or_kill_decision(id, "insufficient_modules", false);
            return Placement::Deferred;
        }
        let spec = catalog::get(arrival.workload);
        let w_max = arrival.width.min(self.free.len());
        let pref = self.pick_modules(w_max, &spec, id);
        let Some(&probe) = pref.first() else {
            self.defer_or_kill_decision(id, "insufficient_modules", false);
            return Placement::Deferred;
        };
        let test = self.cached_test(arrival.workload, probe, &spec);

        let avail = self.available();
        // Width probes feed the decision trace only: recording them must
        // not perturb the replay, and without a live session they must
        // cost nothing.
        let tracing = vap_obs::enabled();
        let mut probes: Vec<WidthProbe> = Vec::new();
        let calibrate =
            |w: usize| PowerModelTable::calibrate(&self.pvt, &test, &pref[..w]).ok();
        // Feasibility floor is monotone in width: check the narrowest
        // shape first, then binary-search the widest feasible width.
        let Some(pmt_min) = calibrate(arrival.min_width) else {
            self.defer_or_kill_decision(id, "no_feasible_width", false);
            return Placement::Deferred;
        };
        if tracing {
            probes.push(WidthProbe {
                width: arrival.min_width as u64,
                floor_w: pmt_min.fleet_minimum().value(),
                feasible: pmt_min.fleet_minimum() <= avail,
            });
        }
        if pmt_min.fleet_minimum() > avail {
            self.defer_or_kill_decision(id, "insufficient_power", idle_system);
            return if idle_system { Placement::Impossible } else { Placement::Deferred };
        }
        let mut lo = arrival.min_width;
        let mut hi = w_max;
        let mut pmt = pmt_min;
        let mut calibrations = 1u64;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            calibrations += 1;
            match calibrate(mid) {
                Some(p) if p.fleet_minimum() <= avail => {
                    if tracing {
                        probes.push(WidthProbe {
                            width: mid as u64,
                            floor_w: p.fleet_minimum().value(),
                            feasible: true,
                        });
                    }
                    lo = mid;
                    pmt = p;
                }
                other => {
                    if tracing {
                        if let Some(p) = other {
                            probes.push(WidthProbe {
                                width: mid as u64,
                                floor_w: p.fleet_minimum().value(),
                                feasible: false,
                            });
                        }
                    }
                    hi = mid - 1;
                }
            }
        }
        let width = lo;
        self.hist_width_probes.observe(calibrations as f64);
        let ids: Vec<usize> = pref[..width].to_vec();

        // Admit: occupy the modules and (frozen policy) lock the budget.
        let budget = match self.config.realloc {
            ReallocPolicy::Frozen => {
                let b = avail.min(pmt.fleet_maximum()).max(pmt.fleet_minimum());
                self.committed += b;
                b
            }
            // rebalance policies award budgets in resolve()
            _ => pmt.fleet_minimum(),
        };
        vap_obs::decision(|| DecisionRecord {
            t_s: self.now,
            job: Some(id as u64),
            cap_w: self.cap.value(),
            avail_w: avail.value(),
            kind: DecisionKind::Admit {
                width_requested: arrival.width as u64,
                width_granted: width as u64,
                budget_w: budget.value(),
                alpha: Alpha::saturating(raw_alpha(budget, &pmt)).value(),
                alternatives: probes,
            },
        });
        self.free.retain(|m| !ids.contains(m));
        spec.apply_to_modules(&mut self.cluster, &ids, self.seed);
        self.budgeter.admit(
            id as u64,
            JobRequest {
                workload: arrival.workload,
                module_ids: ids.clone(),
                pmt: pmt.clone(),
                cpu_fraction: self.jobs[id].cpu_fraction,
            },
        );
        let j = &mut self.jobs[id];
        j.placement = ids;
        j.last_width = width;
        j.pmt = Some(pmt);
        j.state = JobState::Running;
        j.budget = budget;
        if j.started_at_s.is_none() {
            j.started_at_s = Some(self.now);
        }
        self.running.push(id);
        vap_obs::incr("sched.admissions");
        if width < arrival.width {
            vap_obs::incr("sched.shrunk_admissions");
        }
        vap_obs::observe("sched.wait_s", self.now - arrival.at_s);
        vap_obs::observe("sched.width_granted", width as f64);
        self.hist_wait.observe(self.now - arrival.at_s);
        Placement::Placed
    }

    /// Trace a placement failure as a [`DecisionKind::Defer`] (or
    /// [`DecisionKind::Kill`] when the job can never run). Trace only —
    /// no replay effect, no cost without a live session.
    fn defer_or_kill_decision(&self, id: usize, reason: &str, kill: bool) {
        vap_obs::decision(|| DecisionRecord {
            t_s: self.now,
            job: Some(id as u64),
            cap_w: self.cap.value(),
            avail_w: self.available().value(),
            kind: if kill {
                DecisionKind::Kill { reason: reason.to_string() }
            } else {
                DecisionKind::Defer { reason: reason.to_string() }
            },
        });
    }

    /// Pick up to `n` modules from the free pool in *preference order*
    /// (the width-shrink path takes prefixes). `Random` is seeded per job
    /// so a replay is exact at any thread count.
    fn pick_modules(&self, n: usize, spec: &WorkloadSpec, job_id: usize) -> Vec<usize> {
        let seed = self.seed ^ (job_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.config.allocation.pick(&self.cluster, &self.free, n, spec.activity, seed)
    }

    /// The job's single-module test run, cached per (workload, probe).
    fn cached_test(&mut self, w: WorkloadId, probe: usize, spec: &WorkloadSpec) -> TestRunResult {
        if let Some(t) = self.test_cache.get(&(w.index(), probe)) {
            return *t;
        }
        let t = single_module_test_run(&mut self.cluster, probe, spec, self.seed);
        self.test_cache.insert((w.index(), probe), t);
        t
    }

    /// Re-solve the global power partition over the running jobs, apply
    /// the per-module plans, and reschedule completion predictions under
    /// a fresh epoch.
    fn resolve(&mut self) {
        if self.running.is_empty() {
            return;
        }
        vap_obs::incr("sched.resolves");
        match self.config.realloc {
            ReallocPolicy::Frozen => {
                // budgets fixed at admission: only the per-job α/plan is
                // (re)derived, idempotently
            }
            ReallocPolicy::UniformRebalance | ReallocPolicy::ThroughputGreedy => {
                let policy = match self.config.realloc {
                    ReallocPolicy::ThroughputGreedy => PartitionPolicy::ThroughputGreedy,
                    _ => PartitionPolicy::FairFloorPlusUniformAlpha,
                };
                // The budgeter mirrors `running` (admit in try_place,
                // remove in complete/preempt), so partitioning its cached
                // requests is bit-identical to rebuilding them here.
                // Admission control keeps Σ floors ≤ cap, so the partition
                // is feasible; if it ever is not (float dust on the
                // boundary), keep the previous budgets rather than abort.
                if let Ok(parts) = self.budgeter.partition(self.cap, policy) {
                    let before: Vec<f64> = if vap_obs::enabled() {
                        self.budgeter
                            .keys()
                            .iter()
                            .map(|&k| self.jobs[k as usize].budget.value())
                            .collect()
                    } else {
                        Vec::new()
                    };
                    for (&key, part) in self.budgeter.keys().iter().zip(&parts) {
                        self.jobs[key as usize].budget = part.budget;
                    }
                    vap_obs::decision(|| DecisionRecord {
                        t_s: self.now,
                        job: None,
                        cap_w: self.cap.value(),
                        avail_w: self.available().value(),
                        kind: DecisionKind::Rebalance {
                            policy: self.config.realloc.name().to_string(),
                            deltas: self
                                .budgeter
                                .keys()
                                .iter()
                                .enumerate()
                                .map(|(i, &k)| {
                                    let j = &self.jobs[k as usize];
                                    BudgetDelta {
                                        job: k,
                                        before_w: before
                                            .get(i)
                                            .copied()
                                            .unwrap_or_else(|| j.budget.value()),
                                        after_w: j.budget.value(),
                                        alpha: j
                                            .pmt
                                            .as_ref()
                                            .map(|p| {
                                                Alpha::saturating(raw_alpha(j.budget, p)).value()
                                            })
                                            .unwrap_or(0.0),
                                    }
                                })
                                .collect(),
                        },
                    });
                }
            }
        }

        // Common tail: derive α from the budget, apply the VaPc plan,
        // reset the rate, and schedule a fresh completion prediction.
        let ids: Vec<usize> = self.running.clone();
        for &id in &ids {
            let Some(pmt) = self.jobs[id].pmt.clone() else {
                continue;
            };
            let budget = self.jobs[id].budget;
            let alpha = Alpha::saturating(raw_alpha(budget, &pmt));
            let plan = PowerPlan {
                scheme: SchemeId::VaPc,
                alpha,
                allocations: allocations(&pmt, alpha),
                control: ControlKind::PowerCapping,
                budget,
            };
            apply_plan(&plan, &mut self.cluster);
            let rate = Job::progress_rate(&pmt, self.jobs[id].cpu_fraction, alpha);
            let j = &mut self.jobs[id];
            j.alpha = alpha;
            j.rate = rate;
            j.epoch += 1;
            if rate > 0.0 && j.remaining_s.is_finite() {
                let eta = self.now + j.remaining_s / rate;
                self.events.push(eta, Event::Completion { job: id, epoch: j.epoch });
            }
        }
    }

    /// Current simulated time (seconds since replay start).
    pub fn now_s(&self) -> f64 {
        self.now
    }

    /// The cluster-level power cap currently in effect.
    pub fn cap(&self) -> Watts {
        self.cap
    }

    /// Total drift alerts fired so far.
    pub fn drift_alerts(&self) -> u64 {
        self.drift.alerts_total()
    }

    /// The most recent drift alerts (bounded to the last
    /// [`RECENT_ALERTS`](vap_obs::drift::RECENT_ALERTS)), oldest first.
    pub fn recent_drift_alerts(&self) -> &[DriftAlert] {
        self.drift.recent()
    }

    /// The runtime's live telemetry as an unsealed snapshot (the daemon's
    /// sensor view; the registry stamps epoch + checksum at publish).
    pub fn telemetry(&self) -> vap_obs::TelemetrySnapshot {
        vap_obs::TelemetrySnapshot {
            sim_time_s: self.now,
            total_power_w: self.cluster.total_power().value(),
            cap_w: self.cap.value(),
            running_jobs: self.running.len() as u64,
            queued_jobs: self.pending.len() as u64,
            drift_alerts: self.drift.alerts_total(),
            alerts: self.drift.recent().iter().map(vap_obs::DriftAlertSample::from).collect(),
            hists: vec![
                vap_obs::HistogramSample::from_histogram("sched_jct_s", &self.hist_jct),
                vap_obs::HistogramSample::from_histogram("sched_wait_s", &self.hist_wait),
                vap_obs::HistogramSample::from_histogram(
                    "sched_event_gap_s",
                    &self.hist_event_gap,
                ),
                vap_obs::HistogramSample::from_histogram(
                    "sched_width_probes",
                    &self.hist_width_probes,
                ),
            ],
            modules: self.cluster.telemetry(),
            ..vap_obs::TelemetrySnapshot::default()
        }
    }

    /// Record the power/queue snapshot after an event, feed the drift
    /// detector, and emit the watt-provenance ledger tick.
    fn sample(&mut self) {
        let allocated: Watts = self.running.iter().map(|&id| self.jobs[id].budget).sum();
        self.samples.push(PowerSample {
            at_s: self.now,
            allocated_w: allocated.value(),
            measured_w: self.cluster.total_power().value(),
            running: self.running.len(),
            queued: self.pending.len(),
        });

        // Drift: every module's measured − PVT-predicted residual. Part
        // of the deterministic replay state (the daemon serves it), so
        // it runs whether or not a journal session is live.
        let n = self.cluster.len();
        let alerts =
            observe_drift(&mut self.drift, &self.cluster, self.scenario.as_mut(), 0..n, self.now);
        if alerts > 0 {
            vap_obs::recorder::incr_by("sched.drift_alerts", alerts);
        }

        let dt = self.now - self.last_sample_t;
        self.last_sample_t = self.now;
        vap_obs::ledger_tick(|| self.provenance_tick(dt));
    }

    /// Attribute the current cap to `(job, module, domain)` watt bins.
    ///
    /// Telescoping keeps the bins summing to the cap exactly: per-domain
    /// `useful + loss` recovers each module grant (`useful =
    /// min(measured, granted)`, the loss classified as throttle when
    /// RAPL is actively limiting, headroom otherwise), each job-residue
    /// row absorbs `budget − Σ grants`, and the system-stranded row
    /// absorbs `cap − Σ budgets` — so conservation holds by
    /// construction for every trace (`tests/ledger_props.rs`). Public so
    /// observers hooked via [`Self::run_with`] can audit the attribution
    /// directly; the journal path calls it through
    /// [`vap_obs::ledger_tick`] after every event.
    pub fn provenance_tick(&self, dt_s: f64) -> LedgerTick {
        let mut entries = Vec::new();
        let mut budgets_total = 0.0;
        for &id in &self.running {
            let j = &self.jobs[id];
            budgets_total += j.budget.value();
            let mut granted_total = 0.0;
            if let Some(pmt) = &j.pmt {
                for a in allocations(pmt, j.alpha) {
                    let Some(m) = self.cluster.get(a.module_id) else {
                        continue;
                    };
                    let module = a.module_id as u64;
                    let throttled = m.rapl_throttled();
                    for (domain, granted, measured) in [
                        (Domain::Cpu, a.p_cpu.value(), m.cpu_power().value()),
                        (Domain::Dram, a.p_dram.value(), m.dram_power().value()),
                    ] {
                        let useful = measured.min(granted);
                        entries.push(LedgerEntry::module(
                            id as u64,
                            module,
                            domain,
                            Category::Useful,
                            useful,
                        ));
                        let cat =
                            if throttled { Category::Throttle } else { Category::Headroom };
                        entries.push(LedgerEntry::module(
                            id as u64,
                            module,
                            domain,
                            cat,
                            granted - useful,
                        ));
                        granted_total += granted;
                    }
                }
            }
            entries.push(LedgerEntry::job_residue(id as u64, j.budget.value() - granted_total));
        }
        entries.push(LedgerEntry::system_stranded(self.cap.value() - budgets_total));
        LedgerTick { t_s: self.now, dt_s, cap_w: self.cap.value(), entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::systems::SystemSpec;

    const SEED: u64 = 2015;

    fn runtime(n: usize, allocation: AllocationPolicy) -> SchedRuntime {
        let mut cluster = Cluster::with_size(SystemSpec::ha8k(), n, SEED);
        let stream = catalog::get(WorkloadId::Stream);
        let pvt = PowerVariationTable::generate(&mut cluster, &stream, SEED);
        let config = SchedConfig {
            allocation,
            realloc: ReallocPolicy::Frozen,
            queue: QueueDiscipline::Fifo,
            cap: Watts(95.0 * n as f64),
        };
        SchedRuntime::new(cluster, pvt, SEED, config)
    }

    const POLICIES: [AllocationPolicy; 4] = [
        AllocationPolicy::Contiguous,
        AllocationPolicy::Strided { stride: 3 },
        AllocationPolicy::Random,
        AllocationPolicy::LowestPowerFirst,
    ];

    #[test]
    fn oversized_requests_short_allocate_under_every_policy() {
        let spec = catalog::get(WorkloadId::Stream);
        for allocation in POLICIES {
            let rt = runtime(6, allocation);
            let picked = rt.pick_modules(64, &spec, 0);
            assert_eq!(picked.len(), 6, "{allocation:?}: short allocation expected");
            let mut sorted = picked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 6, "{allocation:?}: duplicate module ids");
            assert!(sorted.iter().all(|m| rt.free.contains(m)), "{allocation:?}: picked a busy module");
        }
    }

    #[test]
    fn empty_free_list_yields_empty_allocation_under_every_policy() {
        // Regression guard: the strided walk used to be one `n > 0` away
        // from `seen[0]` / `% 0` panics on an empty free list.
        let spec = catalog::get(WorkloadId::Stream);
        for allocation in POLICIES {
            let mut rt = runtime(4, allocation);
            rt.free.clear();
            for n in [0, 1, 7] {
                assert!(
                    rt.pick_modules(n, &spec, 0).is_empty(),
                    "{allocation:?}: n={n} on empty free list"
                );
            }
        }
    }

    #[test]
    fn strided_allocation_spreads_and_covers() {
        let spec = catalog::get(WorkloadId::Stream);
        let rt = runtime(8, AllocationPolicy::Strided { stride: 3 });
        // a partial request strides across the free list...
        assert_eq!(rt.pick_modules(3, &spec, 0), vec![0, 3, 6]);
        // ...and a full-width request still covers every module exactly once
        let mut all = rt.pick_modules(8, &spec, 0);
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }
}
