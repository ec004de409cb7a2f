//! # vap-sim
//!
//! A simulated, power-managed HPC fleet: the hardware substrate the paper's
//! measurements and mechanisms ran on, rebuilt in software.
//!
//! * [`msr`] — Intel-style model-specific register layouts for the RAPL
//!   interface (power-limit encoding, wrapping energy counters), the layer
//!   `libMSR` talks to on real hardware.
//! * [`rapl`] — the Running Average Power Limit mechanism: windowed
//!   average-power enforcement through an internal DVFS feedback loop, with
//!   duty-cycle clock modulation when even the lowest P-state exceeds the
//!   cap (the regime responsible for the paper's worst-case slowdowns).
//! * [`cpufreq`] — a `cpufrequtils`-style governor interface used by the
//!   paper's Frequency Selection (FS) implementation.
//! * [`dynamics`] — time-stepped RAPL co-simulation validating the
//!   steady-state solve the campaign experiments rely on.
//! * [`measurement`] — the three sensing technologies of Table 1 (RAPL,
//!   PowerInsight, BG/Q EMON) with their granularities and noise.
//! * [`cluster`] — the fleet built from a [`vap_model::SystemSpec`]: one
//!   column per module field (fingerprint, governor, cap, operating point,
//!   energy counters), read through the borrowed [`ModuleView`] row view
//!   and written through index methods, for fleets of one module to 10⁶.
//! * [`scheduler`] — job-scheduler module-allocation policies (the paper
//!   notes performance "will depend significantly on the physical
//!   processors allocated").
//! * [`trace`] — time-series power traces and energy integration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod cpufreq;
pub mod dynamics;
pub mod measurement;
pub mod msr;
pub mod rapl;
pub mod scheduler;
pub mod trace;

pub use cluster::{Cluster, ModuleView, OperatingPoint};
pub use cpufreq::Governor;
pub use measurement::PowerSensor;
pub use rapl::{RaplLimit, RaplSteadyState};
pub use scheduler::AllocationPolicy;
pub use trace::PowerTrace;
