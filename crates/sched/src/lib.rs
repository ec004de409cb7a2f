//! # vap-sched — deterministic discrete-event cluster runtime
//!
//! This crate closes the loop the static studies leave open: the paper's
//! variation-aware power schemes decide *how* to run a fixed job set, but
//! a production machine-room takes jobs as they arrive, under a cluster
//! cap that can change mid-run. `vap-sched` replays a seeded arrival
//! trace ([`trace::TraceGen`]) against a [`vap_sim::cluster::Cluster`],
//! placing each job on the lowest-power free modules, solving a
//! variation-aware (VaPc) power plan for the job's module set at
//! admission, and — under the online policies — re-partitioning the
//! global power budget across *all* running jobs on every arrival and
//! completion via [`vap_core::multijob`].
//!
//! ## Event model
//!
//! The runtime is a textbook discrete-event simulation: a min-heap of
//! `(time, seq)`-ordered events ([`event::EventQueue`]) drives a fluid
//! job-progress model. Arrivals come from the trace; cap shocks, module
//! failures and the other perturbations come from an installed
//! `vap_scenario::ScenarioRuntime`. Completion times are *predicted*
//! from each job's current rate and invalidated by epoch counters
//! whenever a re-solve changes the rate, so stale predictions are simply
//! skipped.
//!
//! ## Determinism contract
//!
//! A replay is a pure function of `(trace, cluster, seed, config)` —
//! plus the installed `vap_scenario::ScenarioRuntime`, when one is
//! present: byte-identical reports at any thread count and across
//! repeated runs.
//! Three rules make that hold: event ties break by push sequence (never
//! heap internals), all randomness flows from seeded SplitMix64 streams
//! (never ambient RNG or clocks), and iteration is over sorted `Vec`s and
//! `BTreeMap`s (never hash order).

pub mod event;
pub mod job;
pub mod report;
pub mod runtime;
pub mod trace;

pub use event::{Event, EventQueue};
pub use report::SchedReport;
pub use runtime::{ReallocPolicy, SchedConfig, SchedRuntime};
pub use trace::{Trace, TraceGen};
