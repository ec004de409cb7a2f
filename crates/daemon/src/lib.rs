//! # vap-daemon
//!
//! The live telemetry service plane: a long-running binary that advances
//! a simulated cluster (or a scheduling campaign) in accelerated virtual
//! time and serves per-module power / frequency / cap / duty-cycle /
//! throttle metrics to many concurrent clients.
//!
//! The layout mirrors scaphandre's sensor/exporter split:
//!
//! * **Sensors** ([`sensors`]) own the deterministic simulation and run
//!   on the main thread (where the `vap_obs` session lives, so the
//!   journal records the campaign). Each tick produces an unsealed
//!   [`vap_obs::TelemetrySnapshot`].
//! * The **registry** ([`vap_obs::SnapshotRegistry`]) is the seam: the
//!   sensor publishes epoch-stamped, checksummed snapshots into it, and
//!   readers take the latest as an `Arc`, holding its one lock only to
//!   copy that pointer. Thousands of scrapers cannot perturb the sim
//!   loop — the daemon's journal is byte-identical with 0 or 200
//!   scrapers attached (`tests/determinism.rs`).
//! * **Exporters** ([`exporters`]) are three serving functions, each on
//!   its own thread: Prometheus text format over a hand-rolled HTTP/1.1
//!   server ([`http`]), line-delimited JSON streaming, and stdout. Both
//!   listeners share [`http::accept_loop`], which blocks in `accept`;
//!   streams block until the next publish. Exporters never write to
//!   `vap_obs` — serving is a pure read of the registry.
//! * The **soak** ([`soak`]) is the load side: scrape loops and held
//!   JSON streams against a running daemon, behind `daemon-loadgen` and
//!   `vap-bench`'s `profile`.
//!
//! Everything is zero-dependency like the rest of the workspace: the
//! HTTP server is `std::net::TcpListener`, the wire formats are
//! hand-rolled, and shutdown is a signal-raised atomic flag
//! ([`signal`]).
//!
//! Wall-clock time exists only in the side channel of pacing, soak timing
//! and request deadlines ([`clock`]); simulation time is stepped
//! explicitly, so the telemetry stream is a pure function of
//! `(mode, modules, seed, scale)`.

// `deny` rather than the workspace-usual `forbid`: the signal module
// carries the workspace's only FFI (one `signal(2)` registration) behind
// a scoped allow with a SAFETY argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod config;
pub mod exporters;
pub mod http;
pub mod sensors;
pub mod service;
pub mod signal;
pub mod soak;

pub use config::DaemonConfig;
pub use service::{DaemonSummary, Service};

/// The daemon's error type: an operation that failed and why.
#[derive(Debug)]
pub struct DaemonError {
    /// What the daemon was doing.
    pub context: String,
    /// The underlying I/O failure, when there is one.
    pub source: Option<std::io::Error>,
}

impl DaemonError {
    /// An error with an I/O cause.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        DaemonError { context: context.into(), source: Some(source) }
    }

    /// An error without an underlying cause.
    pub fn msg(context: impl Into<String>) -> Self {
        DaemonError { context: context.into(), source: None }
    }
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.context)
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_ref().map(|e| e as &(dyn std::error::Error + 'static))
    }
}
