//! # vap-mpi
//!
//! A simulated MPI runtime for SPMD applications running on a
//! power-managed fleet.
//!
//! The paper's performance observations hinge on how synchronization
//! interacts with per-module frequency variation: embarrassingly parallel
//! codes (*DGEMM) expose the full per-rank time spread (Vt up to 1.64,
//! Fig. 2(iii)), while stencil codes with neighbor exchanges (MHD) hide it
//! behind `MPI_Sendrecv` wait time (Fig. 3). This crate reproduces that
//! machinery:
//!
//! * [`program`] — SPMD programs as sequences of [`program::Op`]s
//!   (compute, `Sendrecv`, `Allreduce`, `Barrier`) with optional per-rank
//!   load multipliers.
//! * [`comm`] — latency/bandwidth cost models for point-to-point and
//!   collective operations.
//! * [`engine`] — the executor: ranks progress at their module's effective
//!   rate; matching operations synchronize; per-rank compute, wait and
//!   total times are accounted exactly.
//! * [`timeline`] — op-level execution traces (the TAU-instrumentation
//!   counterpart): Gantt data, straggler identification, critical-rank
//!   analysis behind the paper's "perfectly load balanced application will
//!   now experience load imbalance" narrative.
//!
//! Because the programs are SPMD (every rank runs the same op sequence —
//! true of all seven benchmarks in the paper), the executor can run in
//! *matched-op lockstep*, which is an exact discrete-event schedule for
//! this class of programs at a fraction of the cost of a general event
//! queue: matching synchronization ops are each other's only dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod engine;
pub mod program;
pub mod timeline;

pub use comm::CommParams;
pub use engine::{run, RunResult};
pub use program::{Op, Program};
