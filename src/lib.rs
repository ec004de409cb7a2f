//! # vap — Variation-Aware Power budgeting
//!
//! A full Rust reproduction of Inadomi et al., *"Analyzing and Mitigating
//! the Impact of Manufacturing Variability in Power-Constrained
//! Supercomputing"* (SC '15): the measurement study, the simulated
//! power-managed fleet it requires, and the paper's variation-aware power
//! budgeting algorithm with both of its enforcement mechanisms.
//!
//! ## The problem
//!
//! Chips from the same bin hit the same frequencies but draw *different
//! power* (up to 23% on the paper's Sandy Bridge fleet). Uncapped, that is
//! invisible. Under a hardware power cap it becomes **frequency**
//! variation — and a perfectly load-balanced MPI application suddenly runs
//! at the pace of its unluckiest module.
//!
//! ## The fix
//!
//! Measure the fleet's variability once (the PVT), characterize each new
//! application with two cheap single-module test runs, and solve a
//! closed-form coefficient α that assigns every module exactly the power
//! it needs to hit one *common* frequency. Enforce per-module either by
//! RAPL capping (PC) or by pinning the frequency (FS).
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`model`] | units, variability distributions, ground-truth power physics, the paper's linear model, the four systems of Table 2 |
//! | [`sim`] | MSR encodings, RAPL (capping, clock modulation), cpufreq, sensors, the fleet (one column per module field, read through module views), scheduler |
//! | [`mpi`] | discrete-event SPMD runtime (compute / Sendrecv / Allreduce / Barrier) |
//! | [`workloads`] | the seven benchmarks as power/comm models + real compute kernels |
//! | [`core`] | **the contribution**: PVT, test runs, PMT calibration, α solver, the six schemes, PMMDs |
//! | [`stats`] | Vp/Vf/Vt, summaries, OLS + R², speedup accounting |
//! | [`sched`] | deterministic discrete-event cluster runtime with online variation-aware power scheduling |
//! | [`report`] | one regenerable driver per paper table/figure |
//!
//! ## Quickstart
//!
//! ```rust
//! use vap::prelude::*;
//!
//! // A 64-module slice of the paper's HA8K system.
//! let mut cluster = Cluster::with_size(SystemSpec::ha8k(), 64, 42);
//!
//! // Install-time: sweep the fleet once with *STREAM to build the PVT.
//! let budgeter = Budgeter::install(&mut cluster, 42);
//!
//! // A job arrives: MHD on all 64 modules under a 80 W/module budget.
//! let mhd = catalog::get(WorkloadId::Mhd);
//! let ids: Vec<usize> = (0..64).collect();
//! let budget = Watts(80.0 * 64.0);
//!
//! // Variation-aware plan, frequency-selection flavor.
//! let plan = budgeter
//!     .plan(&mut cluster, SchemeId::VaFs, &mhd, budget, &ids)
//!     .expect("budget is feasible");
//!
//! // Execute the application region under the plan.
//! let program = mhd.program(0.01);
//! let report = run_region(
//!     &mut cluster, &plan, &mhd, &program, &ids,
//!     &CommParams::infiniband_fdr(), 42,
//! );
//! assert!(report.total_power <= budget * 1.02);
//! assert!(report.run.vt().unwrap() < 1.1); // performance homogeneity
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vap_core as core;
pub use vap_model as model;
pub use vap_mpi as mpi;
pub use vap_report as report;
pub use vap_sched as sched;
pub use vap_sim as sim;
pub use vap_stats as stats;
pub use vap_workloads as workloads;

/// The types most applications need, in one import.
pub mod prelude {
    pub use vap_core::budgeter::Budgeter;
    pub use vap_core::feasibility::Feasibility;
    pub use vap_core::pmmd::{run_region, RegionReport};
    pub use vap_core::pmt::PowerModelTable;
    pub use vap_core::pvt::PowerVariationTable;
    pub use vap_core::schemes::{apply_plan, PowerPlan, SchemeId};
    pub use vap_core::BudgetError;
    pub use vap_model::linear::{Alpha, TwoPointModel};
    pub use vap_model::systems::{SystemId, SystemSpec};
    pub use vap_model::units::{GigaHertz, Joules, Seconds, Watts};
    pub use vap_mpi::comm::CommParams;
    pub use vap_mpi::program::{Op, Program, ProgramBuilder};
    pub use vap_sched::{
        QueueDiscipline, ReallocPolicy, SchedConfig, SchedReport, SchedRuntime, Trace, TraceGen,
    };
    pub use vap_sim::cluster::{Cluster, ModuleView};
    pub use vap_sim::scheduler::AllocationPolicy;
    pub use vap_workloads::catalog;
    pub use vap_workloads::spec::{WorkloadId, WorkloadSpec};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let spec = SystemSpec::ha8k();
        assert_eq!(spec.id, SystemId::Ha8k);
        let _ = Watts(1.0) + Watts(2.0);
        assert_eq!(SchemeId::ALL.len(), 6);
        assert_eq!(WorkloadId::ALL.len(), 7);
    }
}
