//! # vap-scenario
//!
//! A deterministic non-stationary scenario engine for the vap stack.
//!
//! The paper's protocol measures each module's power fingerprint once
//! (the PVT sweep) and trusts it for the whole campaign. Real machines
//! do not hold still: silicon ages, thermal excursions shift leakage,
//! input data changes the workload's power draw, sensors fail, facility
//! caps drop mid-campaign, and parts get swapped. This crate turns the
//! static fleet into that machine — reproducibly.
//!
//! Three layers:
//!
//! * [`stream`] — named [`Scenario`] presets expand into sorted
//!   [`stream::ScenarioEvent`] schedules (drift, entropy shifts, sensor faults,
//!   cap shocks, failure/replacement churn) as a pure function of
//!   `(scenario, fleet size, horizon, seed)`.
//! * [`apply`] — [`ScenarioRuntime`] replays a schedule against a
//!   [`vap_sim::cluster::Cluster`], tracks the sensor-fault plane and the
//!   cap-shock scale, and records which modules need re-measurement.
//! * [`recal`] — [`RecalPolicy`] (`Never` / `Periodic` / `OnResidual`)
//!   decides when to re-run the PVT sweep over the dirty modules via
//!   [`vap_core::pvt::PowerVariationTable::recalibrate_modules`].
//!
//! Every schedule draws from the workspace RNG
//! ([`vap_model::rng::SplitMix64`]), so every non-stationary campaign
//! stays byte-identical across `--threads N` and platforms.

#![warn(missing_docs)]

pub mod apply;
pub mod recal;
pub mod stream;

pub use apply::{Effect, ScenarioRuntime};
pub use recal::{RecalPolicy, Recalibrator};
pub use stream::Scenario;
