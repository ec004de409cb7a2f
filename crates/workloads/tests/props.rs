//! Property tests for the workload models, run as seeded loops ([`vap_model::rng::check`]): a failure names the case
//! seed to replay.

use vap_model::rng::check;
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

const CASES: usize = 256;

/// Workload programs conserve their budgeted work across scales and
/// always produce runnable op sequences.
#[test]
fn workload_programs_scale_linearly() {
    check("workload_programs_scale_linearly", 7, CASES, |rng| {
        let scale = rng.next_range(0.01, 4.0);
        for id in WorkloadId::ALL {
            let spec = catalog::get(id);
            let p = spec.program(scale);
            let expect = spec.reference_time.value() * scale;
            assert!(
                (p.total_work() - expect).abs() < 1e-9 * expect.max(1.0),
                "{id}: {} vs {}",
                p.total_work(),
                expect
            );
            assert!(!p.ops().is_empty());
        }
    });
}

/// Workload fingerprints stay physical under arbitrary base draws.
#[test]
fn workload_variation_is_physical() {
    check("workload_variation_is_physical", 8, CASES, |rng| {
        let mut base = vap_model::variability::ModuleVariation::nominal(3, 12);
        base.dynamic = rng.next_range(0.5, 2.0);
        base.dram = rng.next_range(0.5, 2.0);
        let seed = rng.next_index(200) as u64;
        for id in WorkloadId::ALL {
            let w = catalog::get(id).workload_variation(&base, seed);
            assert!(w.dynamic >= 0.5 && w.dynamic <= 2.0);
            assert!(w.dram >= 0.5 && w.dram <= 2.0);
            assert_eq!(w.leakage, base.leakage);
            assert_eq!(w.module_id, base.module_id);
        }
    });
}
