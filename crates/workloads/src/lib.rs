//! # vap-workloads
//!
//! The seven benchmarks of the paper (§3.3) as simulation models
//! ([`spec`], [`catalog`]): each benchmark is a [`spec::WorkloadSpec`] with
//! power activity factors for the CPU and DRAM domains, CPU-boundedness,
//! communication shape (embarrassingly parallel / stencil / reduction), a
//! reference SPMD program for the `vap-mpi` engine, and its *variation
//! response* — how faithfully the module-to-module power spread under
//! this workload tracks the spread under the *STREAM PVT microbenchmark
//! (the source of the per-workload calibration errors in Fig. 6; NPB-BT
//! is the outlier at ≈10%).
//!
//! | Benchmark | Character | Communication |
//! |---|---|---|
//! | *DGEMM | compute-bound BLAS-3 | none (thread-parallel per module) |
//! | *STREAM | memory-bandwidth-bound | none |
//! | NPB EP | CPU-bound RNG | final small allreduce |
//! | NPB BT (MZ) | block tri-diagonal solver | stencil + periodic reduce |
//! | NPB SP (MZ) | scalar penta-diagonal solver | stencil + periodic reduce |
//! | MHD | modified-leapfrog PDE stepper | `MPI_Sendrecv` every iteration |
//! | mVMC | Monte Carlo sampling | allreduce per sample block |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod spec;

pub use spec::WorkloadId;
