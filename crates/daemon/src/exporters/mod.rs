//! Exporters: the read side of the service plane.
//!
//! Each serving function runs on its own thread, reads the
//! [`SnapshotRegistry`](vap_obs::SnapshotRegistry) and speaks one wire
//! format to its clients. Exporters never touch the simulation or the
//! `vap_obs` journal — they are pure readers, which is what makes the
//! scraper-count determinism guarantee (`tests/determinism.rs`) hold by
//! construction.

mod json;
mod prometheus;
mod stdout;

pub use json::serve_json;
pub use prometheus::serve_prometheus;
pub use stdout::serve_stdout;
