//! # vap-core
//!
//! The paper's contribution: **variation-aware power budgeting** (§5).
//!
//! Given an HPC application, a list of allocated modules, an
//! application-level power budget, and a once-per-system Power Variation
//! Table, derive per-module power allocations that equalize CPU frequency —
//! and therefore performance — across a fleet whose silicon does not draw
//! equal power. The workflow (paper Fig. 4):
//!
//! ```text
//!  PVT (once per system)  ──┐
//!  single-module test runs ─┼─► power model calibration ─► PMT
//!  power budget  ───────────┼─► α solver (Eqs. 5–6)
//!  module list  ────────────┘        │
//!                                    ▼
//!                  per-module allocations (Eqs. 7–9)
//!                     │                     │
//!              PC: RAPL caps         FS: cpufreq pinning
//! ```
//!
//! * [`pvt`] — the Power Variation Table: microbenchmark sweep of every
//!   module at `f_max`/`f_min`, normalized to variation scales.
//! * [`testrun`] — low-cost single-module application test runs.
//! * [`pmt`] — the application-dependent Power Model Table, calibrated
//!   from PVT × test run (Fig. 6), plus oracle / uniform / TDP variants
//!   backing the evaluation's baselines.
//! * [`alpha`] — the closed-form α solver and per-module allocations.
//! * [`feasibility`] — Table 4's `X` / `•` / `–` classification.
//! * [`schemes`] — the six budgeting schemes of the evaluation
//!   (Naive, Pc, VaPc, VaPcOr, VaFs, VaFsOr) and plan application.
//! * [`pmmd`] — Power Measurement and Management Directives: region
//!   markers that apply a plan around an application's region of interest.
//! * [`budgeter`] — the end-to-end framework tying the steps together.
//! * [`dynamic`] — extension (paper future work): per-phase re-budgeting
//!   and multi-PVT selection.
//! * [`multijob`] — extension (paper future work): partitioning a
//!   system-level budget across concurrent applications.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod budgeter;
pub mod dynamic;
pub mod error;
pub mod feasibility;
pub mod multijob;
pub mod pmmd;
pub mod pmt;
pub mod pvt;
pub mod schemes;
pub mod testrun;

pub use budgeter::Budgeter;
pub use error::BudgetError;
pub use feasibility::Feasibility;
pub use schemes::{apply_plan, SchemeId};
