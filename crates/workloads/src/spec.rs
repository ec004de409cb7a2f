//! Workload specification types.

use vap_model::boundedness::Boundedness;
use vap_model::power::PowerActivity;
use vap_model::rng::SplitMix64;
use vap_model::units::{GigaHertz, Seconds};
use vap_model::variability::ModuleVariation;
use vap_mpi::program::{Op, Program, ProgramBuilder};
use vap_sim::cluster::Cluster;

/// Identifier for the benchmarks of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadId {
    /// *DGEMM — HPCC matrix multiplication (MKL-style threaded BLAS-3).
    Dgemm,
    /// *STREAM — HPCC sustainable memory bandwidth (AVX-optimized).
    Stream,
    /// NPB EP — embarrassingly parallel Gaussian variates, Class D.
    Ep,
    /// NPB BT-MZ — block tri-diagonal solver, Class E.
    Bt,
    /// NPB SP-MZ — scalar penta-diagonal solver, Class E.
    Sp,
    /// MHD — 3-D magneto-hydro-dynamics with the Modified Leapfrog method.
    Mhd,
    /// mVMC — variational Monte Carlo mini-app from the FIBER suite.
    Mvmc,
}

impl WorkloadId {
    /// All seven benchmarks.
    pub const ALL: [WorkloadId; 7] = [
        WorkloadId::Dgemm,
        WorkloadId::Stream,
        WorkloadId::Ep,
        WorkloadId::Bt,
        WorkloadId::Sp,
        WorkloadId::Mhd,
        WorkloadId::Mvmc,
    ];

    /// The six benchmarks evaluated under power budgets (Table 4 / Fig. 7)
    /// — EP is used for the Fig. 1 variability study only.
    pub const EVALUATED: [WorkloadId; 6] = [
        WorkloadId::Dgemm,
        WorkloadId::Stream,
        WorkloadId::Mhd,
        WorkloadId::Bt,
        WorkloadId::Sp,
        WorkloadId::Mvmc,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Dgemm => "*DGEMM",
            WorkloadId::Stream => "*STREAM",
            WorkloadId::Ep => "NPB-EP",
            WorkloadId::Bt => "NPB-BT",
            WorkloadId::Sp => "NPB-SP",
            WorkloadId::Mhd => "MHD",
            WorkloadId::Mvmc => "mVMC",
        }
    }

    /// Stable small integer used for deterministic per-workload RNG
    /// streams.
    pub fn index(self) -> u64 {
        match self {
            WorkloadId::Dgemm => 0,
            WorkloadId::Stream => 1,
            WorkloadId::Ep => 2,
            WorkloadId::Bt => 3,
            WorkloadId::Sp => 4,
            WorkloadId::Mhd => 5,
            WorkloadId::Mvmc => 6,
        }
    }
}

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a workload's per-module power deviations relate to the deviations
/// the *STREAM PVT microbenchmark observes.
///
/// A module whose dynamic-power multiplier deviates by `δ` under STREAM
/// deviates by `rho·δ + idio·z` under this workload, with `z` a
/// deterministic per-(workload, module) standard normal. `rho = 1, idio =
/// 0` means the PVT transfers perfectly; smaller `rho` / larger `idio`
/// produce exactly the calibration error the paper measures in Fig. 6
/// (<5% for most benchmarks, ≈10% for NPB-BT).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationResponse {
    /// Correlation of CPU dynamic-power deviations with the microbenchmark.
    pub dynamic_rho: f64,
    /// Idiosyncratic per-module CPU deviation (std-dev of the multiplier).
    pub dynamic_idio: f64,
    /// Correlation of DRAM power deviations with the microbenchmark.
    pub dram_rho: f64,
    /// Idiosyncratic per-module DRAM deviation.
    pub dram_idio: f64,
}

impl VariationResponse {
    /// Perfect transfer from the microbenchmark (what the PVT assumes).
    pub fn faithful() -> Self {
        VariationResponse { dynamic_rho: 1.0, dynamic_idio: 0.0, dram_rho: 1.0, dram_idio: 0.0 }
    }
}

/// The communication structure of a benchmark, from which its SPMD program
/// is generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommShape {
    /// No inter-rank communication at all (*DGEMM, *STREAM as run in the
    /// paper: independent per-module kernels timed individually).
    EmbarrassinglyParallel,
    /// One small allreduce of the tallies at the very end (NPB EP).
    FinalAllreduce {
        /// Reduction payload in bytes.
        bytes: u64,
    },
    /// Iterative nearest-neighbor halo exchange (MHD's `MPI_Sendrecv`
    /// with neighboring ranks every MLF step).
    Stencil {
        /// Number of iterations.
        iterations: usize,
        /// Halo bytes exchanged per direction per iteration.
        halo_bytes: u64,
    },
    /// Stencil plus a periodic global reduction (NPB BT-MZ / SP-MZ:
    /// boundary exchange each step, residual norms every `reduce_every`).
    StencilWithReduce {
        /// Number of iterations.
        iterations: usize,
        /// Halo bytes per direction per iteration.
        halo_bytes: u64,
        /// Iterations between allreduces.
        reduce_every: usize,
        /// Reduction payload in bytes.
        reduce_bytes: u64,
    },
    /// Blocks of independent sampling separated by parameter-update
    /// allreduces (mVMC).
    BlockReduce {
        /// Number of sample blocks.
        blocks: usize,
        /// Reduction payload in bytes.
        reduce_bytes: u64,
    },
}

/// A complete workload model.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Which benchmark this is.
    pub id: WorkloadId,
    /// One-line description.
    pub description: &'static str,
    /// Power activity factors (how hard the workload drives CPU and DRAM).
    pub activity: PowerActivity,
    /// CPU-bound fraction χ at the reference frequency (see
    /// [`vap_model::boundedness`]).
    pub cpu_fraction: f64,
    /// Variation response relative to the PVT microbenchmark.
    pub response: VariationResponse,
    /// Communication shape.
    pub comm: CommShape,
    /// Total per-rank compute time at the reference frequency on a nominal
    /// module (reference seconds).
    pub reference_time: Seconds,
}

impl WorkloadSpec {
    /// CPU-boundedness model anchored at `f_ref`.
    pub fn boundedness(&self, f_ref: GigaHertz) -> Boundedness {
        Boundedness::new(self.cpu_fraction, f_ref)
    }

    /// Build the SPMD program at `scale` × the reference duration.
    /// Experiments use `scale = 1.0`; tests use small scales.
    pub fn program(&self, scale: f64) -> Program {
        assert!(scale > 0.0, "scale must be positive");
        let total = self.reference_time.value() * scale;
        match self.comm {
            CommShape::EmbarrassinglyParallel => ProgramBuilder::new().compute(total).build(),
            CommShape::FinalAllreduce { bytes } => {
                ProgramBuilder::new().compute(total).allreduce(bytes).build()
            }
            CommShape::Stencil { iterations, halo_bytes } => {
                let work = total / iterations as f64;
                let body = [Op::Compute { work }, Op::Sendrecv { offset: 1, bytes: halo_bytes }];
                ProgramBuilder::new().iterations(iterations, &body).build()
            }
            CommShape::StencilWithReduce { iterations, halo_bytes, reduce_every, reduce_bytes } => {
                let work = total / iterations as f64;
                let mut b = ProgramBuilder::new();
                for i in 0..iterations {
                    b = b.compute(work).sendrecv(1, halo_bytes);
                    if reduce_every > 0 && (i + 1) % reduce_every == 0 {
                        b = b.allreduce(reduce_bytes);
                    }
                }
                b.build()
            }
            CommShape::BlockReduce { blocks, reduce_bytes } => {
                let work = total / blocks as f64;
                let body = [Op::Compute { work }, Op::Allreduce { bytes: reduce_bytes }];
                ProgramBuilder::new().iterations(blocks, &body).build()
            }
        }
    }

    /// Derive this workload's per-module fingerprint from the base
    /// (microbenchmark) fingerprint. Deterministic in
    /// `(campaign seed, workload, module id)`.
    pub fn workload_variation(&self, base: &ModuleVariation, seed: u64) -> ModuleVariation {
        let r = self.response;
        if r == VariationResponse::faithful() {
            return base.clone();
        }
        let mut rng = SplitMix64::new(
            seed ^ (self.id.index().wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ (base.module_id as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let mut v = base.clone();
        let z_dyn = rng.next_normal();
        v.dynamic =
            (1.0 + r.dynamic_rho * (base.dynamic - 1.0) + r.dynamic_idio * z_dyn).clamp(0.5, 2.0);
        let z_dram = rng.next_normal();
        v.dram = (1.0 + r.dram_rho * (base.dram - 1.0) + r.dram_idio * z_dram).clamp(0.5, 2.0);
        v
    }

    /// Put this workload on every module of a cluster: activity factors
    /// plus the workload-specific fingerprints.
    pub fn apply_to(&self, cluster: &mut Cluster, seed: u64) {
        for id in 0..cluster.len() {
            self.apply_to_module(cluster, id, seed);
        }
    }

    /// Put this workload on a *subset* of modules (a scheduled job's
    /// allocation), leaving the rest of the fleet untouched. Ids that are
    /// not in the fleet (e.g. from a stale job request after a `--modules`
    /// shrink) are ignored rather than panicking mid-campaign.
    pub fn apply_to_modules(&self, cluster: &mut Cluster, module_ids: &[usize], seed: u64) {
        let n = cluster.len();
        for &id in module_ids.iter().filter(|&&id| id < n) {
            self.apply_to_module(cluster, id, seed);
        }
    }

    /// Install the workload fingerprint (none under the faithful
    /// response) and activity on module `id`.
    fn apply_to_module(&self, cluster: &mut Cluster, id: usize, seed: u64) {
        let wv = (self.response != VariationResponse::faithful())
            .then(|| self.workload_variation(cluster.module(id).base_variation(), seed));
        cluster.set_workload_variation(id, wv);
        cluster.set_activity(id, self.activity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn program_scales_total_work() {
        let spec = catalog::get(WorkloadId::Mhd);
        let p1 = spec.program(1.0);
        let p2 = spec.program(0.5);
        assert!((p1.total_work() - spec.reference_time.value()).abs() < 1e-9);
        assert!((p2.total_work() - spec.reference_time.value() * 0.5).abs() < 1e-9);
    }

    #[test]
    fn workload_variation_is_deterministic() {
        let spec = catalog::get(WorkloadId::Bt);
        let base = ModuleVariation::nominal(7, 12);
        let a = spec.workload_variation(&base, 99);
        let b = spec.workload_variation(&base, 99);
        let c = spec.workload_variation(&base, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn faithful_response_is_identity() {
        let spec = catalog::get(WorkloadId::Stream);
        assert_eq!(spec.response, VariationResponse::faithful());
        let mut base = ModuleVariation::nominal(3, 12);
        base.dynamic = 1.07;
        base.dram = 0.9;
        assert_eq!(spec.workload_variation(&base, 5), base);
    }

    #[test]
    fn decorrelated_response_perturbs_dynamic() {
        let spec = catalog::get(WorkloadId::Bt);
        let mut base = ModuleVariation::nominal(3, 12);
        base.dynamic = 1.10;
        let wv = spec.workload_variation(&base, 5);
        assert_ne!(wv.dynamic, base.dynamic);
        // leakage and perf untouched: those paths vary identically
        assert_eq!(wv.leakage, base.leakage);
        assert_eq!(wv.perf, base.perf);
    }

    #[test]
    fn workload_ids_enumerate() {
        assert_eq!(WorkloadId::ALL.len(), 7);
        assert_eq!(WorkloadId::EVALUATED.len(), 6);
        assert!(!WorkloadId::EVALUATED.contains(&WorkloadId::Ep));
        let names: std::collections::BTreeSet<_> =
            WorkloadId::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 7);
        assert_eq!(WorkloadId::Dgemm.to_string(), "*DGEMM");
    }

    #[test]
    #[should_panic]
    fn zero_scale_program_panics() {
        let _ = catalog::get(WorkloadId::Dgemm).program(0.0);
    }
}
