//! Microbenchmarks of the budgeting algorithm and its substrates.
//!
//! The paper's scalability claim is that budgeting costs one closed-form
//! solve over the module list (versus an NP-hard ILP per decision in prior
//! work). `alpha_solver/*` quantifies that: the solve is linear in the
//! fleet and takes microseconds even at 100k modules. The remaining
//! groups time the once-per-system and per-job pipeline stages, plus the
//! hot inner layers (RAPL steady state, SPMD engine, scheduler).

use std::hint::black_box;
use vap_bench::Runner;
use vap_core::alpha::{allocations, max_alpha};
use vap_core::budgeter::Budgeter;
use vap_core::pmt::{PmtEntry, PowerModelTable};
use vap_core::pvt::PowerVariationTable;
use vap_core::schemes::{PlanRequest, SchemeId};
use vap_core::testrun::single_module_test_run;
use vap_model::linear::TwoPointModel;
use vap_model::systems::SystemSpec;
use vap_model::units::{GigaHertz, Watts};
use vap_mpi::comm::CommParams;
use vap_mpi::engine;
use vap_mpi::program::{Op, ProgramBuilder};
use vap_sim::cluster::Cluster;
use vap_sim::rapl;
use vap_sim::scheduler::{AllocationPolicy, Scheduler};
use vap_workloads::catalog;
use vap_workloads::spec::WorkloadId;

const SEED: u64 = 2015;

/// A synthetic PMT of `n` modules (spread anchors, no cluster needed).
fn synthetic_pmt(n: usize) -> PowerModelTable {
    let model = |p_max, p_min| TwoPointModel::new(GigaHertz(2.7), GigaHertz(1.2), p_max, p_min);
    PowerModelTable::from_entries(
        (0..n)
            .map(|module_id| {
                let k = 0.9 + 0.2 * (module_id % 97) as f64 / 97.0;
                PmtEntry {
                    module_id,
                    cpu: model(Watts(100.0 * k), Watts(48.0 * k)),
                    dram: model(Watts(12.0 * k), Watts(10.0 * k)),
                }
            })
            .collect(),
    )
}

fn bench_alpha_solver(r: &Runner) {
    for n in [1_000usize, 10_000, 100_000] {
        let pmt = synthetic_pmt(n);
        let budget = Watts(80.0 * n as f64);
        r.case(&format!("alpha_solver/solve_and_allocate/{n}"), || {
            let a = max_alpha(black_box(budget), &pmt).expect("feasible");
            allocations(&pmt, a)
        });
    }
}

fn bench_pipeline_stages(r: &Runner) {
    let stream = catalog::get(WorkloadId::Stream);
    r.case_with_setup(
        "pipeline/pvt_generation_256_modules",
        || Cluster::with_size(SystemSpec::ha8k(), 256, SEED),
        |mut cluster| PowerVariationTable::generate(&mut cluster, &stream, SEED),
    );

    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), 256, SEED);
    let pvt = PowerVariationTable::generate(&mut cluster, &stream, SEED);
    let ids: Vec<usize> = (0..256).collect();
    let mhd = catalog::get(WorkloadId::Mhd);

    r.case("pipeline/single_module_test_run", || {
        single_module_test_run(&mut cluster, 0, &mhd, SEED)
    });

    let test = single_module_test_run(&mut cluster, 0, &mhd, SEED);
    r.case("pipeline/pmt_calibration_256_modules", || {
        PowerModelTable::calibrate(&pvt, &test, &ids).expect("valid")
    });

    let req = PlanRequest {
        budget: Watts(80.0 * 256.0),
        module_ids: &ids,
        workload: &mhd,
        pvt: &pvt,
        seed: SEED,
    };
    r.case("pipeline/vapc_plan_end_to_end_256", || {
        SchemeId::VaPc.plan(&mut cluster, &req).expect("feasible")
    });

    r.case_with_setup(
        "pipeline/budgeter_install_128",
        || Cluster::with_size(SystemSpec::ha8k(), 128, SEED),
        |mut cluster| Budgeter::install(&mut cluster, SEED),
    );
}

fn bench_substrates(r: &Runner) {
    let spec = SystemSpec::ha8k();
    let v = vap_model::variability::ModuleVariation::nominal(0, 12);
    r.case("substrates/rapl_steady_state_solve", || {
        let cap = black_box(Watts(68.25));
        rapl::steady_state(cap, &spec.power_model.cpu, 1.0, &v, 1.0, &spec.pstates)
    });

    // SPMD engine: 1000-iteration stencil across 1024 ranks
    let rates: Vec<f64> = (0..1024).map(|i| 0.5 + 0.5 * (i % 13) as f64 / 13.0).collect();
    let body = [Op::Compute { work: 0.1 }, Op::Sendrecv { offset: 1, bytes: 1 << 20 }];
    let program = ProgramBuilder::new().iterations(1000, &body).build();
    let comm = CommParams::infiniband_fdr();
    r.case("substrates/engine_stencil_1024r_1000it", || engine::run(&program, &rates, &comm));

    let cluster = Cluster::with_size(SystemSpec::ha8k(), 1024, SEED);
    let act = catalog::get(WorkloadId::Mhd).activity;
    let s = Scheduler::new(AllocationPolicy::LowestPowerFirst);
    r.case("substrates/scheduler_power_aware_1024", || s.allocate(&cluster, 256, act, SEED));

    let mut one = Cluster::with_size(SystemSpec::ha8k(), 1, SEED);
    one.set_activity(0, act);
    r.case("substrates/module_cap_resolve", || {
        one.set_cap(0, vap_sim::rapl::RaplLimit::with_default_window(Watts(70.0)));
        one.module(0).operating_point()
    });

    let xs: Vec<f64> = (0..16).map(|i| 1.2 + 0.1 * i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 26.0 + 27.7 * x).collect();
    r.case("substrates/linear_fit_16_points", || vap_stats::LinearFit::fit(&xs, &ys));
}

fn bench_ablations(r: &Runner) {
    // Ablation: planning cost of oracle calibration vs PVT calibration —
    // the deployment argument for the paper's approach (O(1) test runs vs
    // O(fleet) measurement per application).
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), 128, SEED);
    let pvt = PowerVariationTable::generate(&mut cluster, &catalog::get(WorkloadId::Stream), SEED);
    let ids: Vec<usize> = (0..128).collect();
    let bt = catalog::get(WorkloadId::Bt);
    let req = PlanRequest {
        budget: Watts(70.0 * 128.0),
        module_ids: &ids,
        workload: &bt,
        pvt: &pvt,
        seed: SEED,
    };
    r.case("ablation_calibration_cost/pvt_calibrated_plan_128", || {
        SchemeId::VaPc.plan(&mut cluster, &req).expect("feasible")
    });
    r.case("ablation_calibration_cost/oracle_measured_plan_128", || {
        SchemeId::VaPcOr.plan(&mut cluster, &req).expect("feasible")
    });

    // Ablation: cost of the P-state granularity on frequency snapping.
    for steps in [0.1, 0.05, 0.01] {
        let table = vap_model::pstate::PStateTable::evenly_spaced(
            GigaHertz(1.2),
            GigaHertz(2.7),
            GigaHertz(steps),
        );
        r.case(&format!("ablation_pstate_floor/floor/{steps}GHz"), || {
            table.floor(black_box(GigaHertz(2.0400001)))
        });
    }
}

fn main() {
    let r = Runner::from_args();
    bench_alpha_solver(&r);
    bench_pipeline_stages(&r);
    bench_substrates(&r);
    bench_ablations(&r);
}
