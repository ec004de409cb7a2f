//! Shared helpers for the experiment drivers.

use vap_model::linear::{Alpha, TwoPointModel};
use vap_model::systems::SystemSpec;
use vap_model::units::{GigaHertz, Watts};
use vap_sim::cluster::Cluster;
use vap_workloads::spec::WorkloadSpec;

/// The paper's system-level power constraints on HA8K (Table 4): the
/// average per-module constraint `Cm` in watts; at the paper's 1,920
/// modules these correspond to `Cs` = 211, 192, 173, 154, 134, 115, 96 kW.
pub const CM_LEVELS_W: [f64; 7] = [110.0, 100.0, 90.0, 80.0, 70.0, 60.0, 50.0];

/// `Cs` in kilowatts for a `Cm` level at fleet size `n`.
pub fn cs_kw(cm_w: f64, n: usize) -> f64 {
    cm_w * n as f64 / 1e3
}

/// Build the HA8K fleet at the requested size.
pub fn ha8k(n: usize, seed: u64) -> Cluster {
    Cluster::with_size(SystemSpec::ha8k(), n, seed)
}

/// The application-level budget for a per-module constraint level.
pub fn budget_for(cm_w: f64, n: usize) -> Watts {
    Watts(cm_w * n as f64)
}

/// Ground-truth fleet-average two-point model (CPU and DRAM domains) for a
/// workload — the "offline analysis of CPU and DRAM power characteristics"
/// the paper performs to pick `Ccpu` for the §4 uniform-capping study.
pub fn fleet_average_models(
    cluster: &Cluster,
    workload: &WorkloadSpec,
    seed: u64,
) -> (TwoPointModel, TwoPointModel) {
    let f_max = cluster.spec().pstates.f_max();
    let f_min = cluster.spec().pstates.f_min();
    let n = cluster.len() as f64;
    let mut cpu = [0.0f64; 2];
    let mut dram = [0.0f64; 2];
    for m in cluster.modules() {
        let wv = workload.workload_variation(m.base_variation(), seed);
        let t = m.thermal_factor();
        cpu[0] += m.power_model().cpu.power(f_max, workload.activity.cpu, &wv, t).value() / n;
        cpu[1] += m.power_model().cpu.power(f_min, workload.activity.cpu, &wv, t).value() / n;
        dram[0] += m.power_model().dram.power(f_max, workload.activity.dram, &wv).value() / n;
        dram[1] += m.power_model().dram.power(f_min, workload.activity.dram, &wv).value() / n;
    }
    (
        TwoPointModel::new(f_max, f_min, Watts(cpu[0]), Watts(cpu[1])),
        TwoPointModel::new(f_max, f_min, Watts(dram[0]), Watts(dram[1])),
    )
}

/// The §4 study's `Ccpu` for a module-level constraint `Cm`: the paper
/// determines it offline as `Cm` minus the application's DRAM power at the
/// operating point the constraint induces (solve the fleet-average module
/// model for α at `Cm`, saturating at α = 1 when the constraint does not
/// bind). E.g. DGEMM `Cm = 90 W → Ccpu ≈ 77.3 W`; MHD
/// `Cm = 110 W → Ccpu ≈ 97.4 W` (non-binding: 110 − 12.6).
pub fn offline_ccpu(cluster: &Cluster, workload: &WorkloadSpec, cm: Watts, seed: u64) -> Watts {
    let (cpu, dram) = fleet_average_models(cluster, workload, seed);
    let module = TwoPointModel::combine(&cpu, &dram);
    let raw = module.alpha_for_power(cm).unwrap_or(1.0);
    // A Cm below the workload's DRAM floor would make Ccpu negative —
    // RAPL cannot program a negative limit; the tightest meaningful CPU
    // cap is zero (the cell is infeasible either way).
    (cm - dram.power(Alpha::saturating(raw))).max(Watts(0.0))
}

/// Convenience: the full module-id list of a cluster.
pub fn all_ids(cluster: &Cluster) -> Vec<usize> {
    (0..cluster.len()).collect()
}

/// Mean of a set of operating frequencies.
pub fn mean_ghz(freqs: &[GigaHertz]) -> GigaHertz {
    if freqs.is_empty() {
        return GigaHertz(0.0);
    }
    GigaHertz(freqs.iter().map(|f| f.value()).sum::<f64>() / freqs.len() as f64)
}

/// Per-rank static load jitter for the synchronization studies: real runs
/// carry a percent or two of rank-to-rank imbalance (OS noise, NUMA,
/// zone-size differences), which is what makes the *uncapped* cumulative
/// `MPI_Sendrecv` times of Fig. 3 non-zero. Returns multipliers
/// `1 + sigma·z`, clamped to ±3σ, deterministic in `seed`.
pub fn load_jitter(n: usize, sigma: f64, seed: u64) -> Vec<f64> {
    let mut rng = vap_model::rng::SplitMix64::new(seed ^ 0x10AD);
    (0..n)
        .map(|_| {
            let jitter = (sigma * rng.next_normal()).clamp(-3.0 * sigma, 3.0 * sigma);
            (1.0 + jitter).max(0.5)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_workloads::catalog;
    use vap_workloads::spec::WorkloadId;

    #[test]
    fn cs_matches_paper_at_full_scale() {
        assert_eq!(cs_kw(110.0, 1920), 211.2);
        assert_eq!(cs_kw(50.0, 1920), 96.0);
        assert_eq!(budget_for(80.0, 1920), Watts(153_600.0));
    }

    #[test]
    fn offline_ccpu_matches_paper_offsets() {
        // The paper's §4 DGEMM scenarios: Cm = 90 → Ccpu ≈ 77.3 (offset
        // ≈ 12.7 W of DRAM); MHD: Cm = 110 → Ccpu ≈ 97.4.
        let c = ha8k(96, 3);
        let dgemm = catalog::get(WorkloadId::Dgemm);
        let ccpu = offline_ccpu(&c, &dgemm, Watts(90.0), 3);
        assert!((ccpu.value() - 77.3).abs() < 3.0, "DGEMM Ccpu(90) = {ccpu}");
        let mhd = catalog::get(WorkloadId::Mhd);
        let ccpu = offline_ccpu(&c, &mhd, Watts(110.0), 3);
        assert!((ccpu.value() - 97.4).abs() < 3.5, "MHD Ccpu(110) = {ccpu}");
    }

    #[test]
    fn offline_ccpu_is_cm_minus_dram_when_not_binding() {
        let c = ha8k(16, 3);
        let mhd = catalog::get(WorkloadId::Mhd);
        // non-binding: Ccpu = Cm - dram(f_max) (paper: 110 - 12.6 = 97.4)
        let hi = offline_ccpu(&c, &mhd, Watts(130.0), 3);
        let at_110 = offline_ccpu(&c, &mhd, Watts(110.0), 3);
        assert!(((hi - at_110).value() - 20.0).abs() < 0.5);
    }

    #[test]
    fn offline_ccpu_clamps_at_sub_dram_constraints() {
        // Cm = 10 W is below every workload's DRAM floor (≈ 12.6 W for
        // DGEMM at f_min's saturated α): the CPU cap must clamp to zero,
        // not go negative.
        let c = ha8k(16, 3);
        for w in [WorkloadId::Dgemm, WorkloadId::Stream, WorkloadId::Mhd] {
            let spec = catalog::get(w);
            let ccpu = offline_ccpu(&c, &spec, Watts(10.0), 3);
            assert!(ccpu >= Watts(0.0), "{w}: Ccpu(10) = {ccpu}");
            assert_eq!(ccpu, Watts(0.0), "{w}: sub-DRAM Cm must clamp to exactly zero");
        }
        // and a barely-above-floor constraint still yields a tiny positive cap
        let dgemm = catalog::get(WorkloadId::Dgemm);
        let floor = offline_ccpu(&c, &dgemm, Watts(90.0), 3);
        assert!(floor > Watts(0.0));
    }
}
