//! Sensors: the write side of the service plane.
//!
//! A sensor owns a deterministic simulation and advances it one tick at
//! a time on the **main thread** — the thread where the binary's
//! [`vap_obs::Session`] lives, so every tick's counters land in the
//! journal. Each tick yields an unsealed
//! [`vap_obs::TelemetrySnapshot`] for the service loop to publish; the
//! sensor never sees the registry or the exporters, which is what keeps
//! the simulation a pure function of its seed.

mod sched;
mod sweep;

pub use sched::SchedCampaign;
pub use sweep::CapSweepSensor;
