//! # vap-obs
//!
//! Observability for the vap stack: deterministic metrics, wall-clock
//! spans, and campaign timeline export — with **no external
//! dependencies** (its [`json`] module is the workspace's one JSON
//! writer and parser) and zero cost when no session is live (one
//! relaxed atomic load; see `tests/no_alloc.rs`).
//!
//! The layer splits observability into two channels with different
//! guarantees:
//!
//! * **Deterministic channel** — counters and histograms
//!   ([`metrics::Metrics`]) recorded via [`incr`]/[`observe`]. These are
//!   a pure function of the work executed: the exported `journal.jsonl`
//!   is byte-identical between `--threads 1` and `--threads 4`
//!   (`tests/determinism.rs`).
//! * **Wall-clock side channel** — [`span()`]s and per-item timing, which
//!   measure real elapsed time and export only into the Chrome-trace
//!   timeline (`trace.json`, loadable in Perfetto). Explicitly *not*
//!   deterministic, by design.
//!
//! `vap-obs` deliberately sits outside the `determinism` lint scope:
//! it is the one crate allowed to touch `Instant::now`, so the
//! instrumented crates (`vap-exec`, `vap-core`, `vap-sim`, `vap-mpi`)
//! stay free of wall-clock tokens.
//!
//! A third piece serves the **live service plane** (`vap-daemon`): the
//! [`registry::SnapshotRegistry`] publishes epoch-stamped, checksummed
//! [`snapshot::TelemetrySnapshot`]s to concurrent scrapers behind one
//! mutex that a scraper holds only to copy an `Arc` pointer, and wakes
//! streaming readers on each publish instead of letting them poll.
//!
//! ## Usage
//!
//! ```
//! let session = vap_obs::Session::install();
//! {
//!     let _phase = vap_obs::span("calibrate");
//!     vap_obs::incr("alpha.solves");
//!     vap_obs::observe("mpi.wait_s", 0.25);
//! }
//! let report = session.finish();
//! assert!(report.journal_jsonl.contains("alpha.solves"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision;
pub mod drift;
pub mod export;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod scenario;
pub mod snapshot;
pub mod span;

pub use decision::{BudgetDelta, DecisionKind, DecisionRecord, WidthProbe};
pub use drift::{DriftAlert, DriftDetector};
pub use export::{validate_journal, validate_ledger_csv, validate_metrics_csv, validate_trace};
pub use ledger::{Category, Domain, LedgerEntry, LedgerTick};
pub use metrics::Histogram;
pub use recorder::{
    decision, enabled, grid_session, incr, label_item, ledger_tick, observe, scenario_event,
    Session,
};
pub use registry::SnapshotRegistry;
pub use scenario::{ScenarioKind, ScenarioRecord};
pub use snapshot::{
    BucketCount, DriftAlertSample, HistogramSample, ModuleSample, TelemetrySnapshot,
};
pub use span::span;
