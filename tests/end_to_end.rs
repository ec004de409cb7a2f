//! End-to-end integration: the full Fig.-4 pipeline on a simulated fleet,
//! for every scheme, checking the paper's qualitative guarantees.

use vap::prelude::*;

const MODULES: usize = 96;
const SEED: u64 = 1234;

fn setup() -> (Cluster, Budgeter) {
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), MODULES, SEED);
    let budgeter = Budgeter::install(&mut cluster, SEED);
    (cluster, budgeter)
}

#[test]
fn every_scheme_plans_and_runs_every_feasible_workload() {
    let (mut cluster, budgeter) = setup();
    let ids: Vec<usize> = (0..MODULES).collect();
    let comm = CommParams::infiniband_fdr();
    for &w in &WorkloadId::EVALUATED {
        let spec = catalog::get(w);
        let program = spec.program(0.02);
        let budget = Watts(85.0 * MODULES as f64);
        let feas = budgeter.feasibility(&mut cluster, &spec, budget, &ids).unwrap();
        if !feas.runnable() {
            continue;
        }
        for scheme in SchemeId::ALL {
            let plan = budgeter
                .plan(&mut cluster, scheme, &spec, budget, &ids)
                .unwrap_or_else(|e| panic!("{w}/{scheme}: {e}"));
            assert_eq!(plan.allocations.len(), MODULES);
            let report = run_region(&mut cluster, &plan, &spec, &program, &ids, &comm, SEED);
            assert!(report.makespan().value().is_finite(), "{w}/{scheme} hung");
            assert!(report.energy.value() > 0.0);
        }
    }
}

#[test]
fn variation_aware_fs_equalizes_frequency_across_the_fleet() {
    let (mut cluster, budgeter) = setup();
    let ids: Vec<usize> = (0..MODULES).collect();
    let dgemm = catalog::get(WorkloadId::Dgemm);
    let budget = Watts(80.0 * MODULES as f64);
    let plan = budgeter.plan(&mut cluster, SchemeId::VaFs, &dgemm, budget, &ids).unwrap();
    dgemm.apply_to(&mut cluster, SEED);
    apply_plan(&plan, &mut cluster);
    let freqs: Vec<f64> = cluster.effective_frequencies().iter().map(|f| f.value()).collect();
    assert_eq!(vap::stats::worst_case_variation(&freqs), Some(1.0));
}

#[test]
fn pc_schemes_respect_budget_fs_respects_frequency_intent() {
    let (mut cluster, budgeter) = setup();
    let ids: Vec<usize> = (0..MODULES).collect();
    let mhd = catalog::get(WorkloadId::Mhd);
    let budget = Watts(75.0 * MODULES as f64);
    let comm = CommParams::ideal();
    let program = mhd.program(0.01);

    for scheme in [SchemeId::Pc, SchemeId::VaPc, SchemeId::VaPcOr] {
        let plan = budgeter.plan(&mut cluster, scheme, &mhd, budget, &ids).unwrap();
        let report = run_region(&mut cluster, &plan, &mhd, &program, &ids, &comm, SEED);
        assert!(
            report.total_power <= budget * 1.02,
            "{scheme:?} drew {} over {budget}",
            report.total_power
        );
    }

    // FS may exceed the derived CPU cap (documented), but never the pinned
    // frequency.
    let plan = budgeter.plan(&mut cluster, SchemeId::VaFs, &mhd, budget, &ids).unwrap();
    mhd.apply_to(&mut cluster, SEED);
    apply_plan(&plan, &mut cluster);
    for (m, a) in cluster.modules().zip(&plan.allocations) {
        assert!(m.operating_point().clock <= a.frequency);
    }
}

#[test]
fn tight_budgets_favor_variation_aware_schemes() {
    let (mut cluster, budgeter) = setup();
    let ids: Vec<usize> = (0..MODULES).collect();
    let bt = catalog::get(WorkloadId::Bt);
    let comm = CommParams::infiniband_fdr();
    let program = bt.program(0.02);
    let budget = Watts(55.0 * MODULES as f64);

    let mut times = std::collections::BTreeMap::new();
    for scheme in [SchemeId::Naive, SchemeId::Pc, SchemeId::VaPc, SchemeId::VaFs] {
        let plan = budgeter.plan(&mut cluster, scheme, &bt, budget, &ids).unwrap();
        let report = run_region(&mut cluster, &plan, &bt, &program, &ids, &comm, SEED);
        times.insert(scheme.name(), report.makespan().value());
    }
    assert!(times["VaFs"] < times["Naive"], "VaFs {} !< Naive {}", times["VaFs"], times["Naive"]);
    assert!(times["VaPc"] < times["Naive"]);
    assert!(times["VaPc"] < times["Pc"], "variation awareness must beat uniform capping");
    let speedup = times["Naive"] / times["VaFs"];
    assert!(speedup > 1.5, "expected a substantial win at a tight budget, got {speedup:.2}x");
}

#[test]
fn infeasible_cells_error_and_unconstrained_cells_saturate() {
    let (mut cluster, budgeter) = setup();
    let ids: Vec<usize> = (0..MODULES).collect();
    let stream = catalog::get(WorkloadId::Stream);

    // far below the STREAM floor
    let err = budgeter
        .plan(&mut cluster, SchemeId::VaFs, &stream, Watts(40.0 * MODULES as f64), &ids)
        .unwrap_err();
    assert!(matches!(err, BudgetError::InfeasibleBudget { .. }));

    // far above the uncapped draw: alpha saturates at 1, full frequency
    let plan = budgeter
        .plan(&mut cluster, SchemeId::VaFs, &stream, Watts(200.0 * MODULES as f64), &ids)
        .unwrap();
    assert_eq!(plan.alpha, Alpha::MAX);
    assert_eq!(plan.allocations[0].frequency, cluster.spec().pstates.f_max());
}

#[test]
fn region_bracketing_is_idempotent() {
    let (mut cluster, budgeter) = setup();
    let ids: Vec<usize> = (0..MODULES).collect();
    let sp = catalog::get(WorkloadId::Sp);
    let budget = Watts(80.0 * MODULES as f64);
    let plan = budgeter.plan(&mut cluster, SchemeId::VaPc, &sp, budget, &ids).unwrap();
    let program = sp.program(0.01);
    let comm = CommParams::ideal();

    let r1 = run_region(&mut cluster, &plan, &sp, &program, &ids, &comm, SEED);
    let r2 = run_region(&mut cluster, &plan, &sp, &program, &ids, &comm, SEED);
    assert_eq!(r1.run.rank_times, r2.run.rank_times, "regions must not leak state");
    assert_eq!(r1.module_power, r2.module_power);
}

#[test]
fn job_on_a_subset_leaves_the_rest_of_the_fleet_alone() {
    let (mut cluster, budgeter) = setup();
    let mhd = catalog::get(WorkloadId::Mhd);
    let ids = AllocationPolicy::Strided { stride: 8 }.allocate(&cluster, 12, mhd.activity, SEED);
    let budget = Watts(80.0 * ids.len() as f64);
    let plan = budgeter.plan(&mut cluster, SchemeId::VaPc, &mhd, budget, &ids).unwrap();
    let outside_before: Vec<f64> = (0..MODULES)
        .filter(|i| !ids.contains(i))
        .map(|i| cluster.module(i).module_power().value())
        .collect();
    let _ =
        run_region(&mut cluster, &plan, &mhd, &mhd.program(0.01), &ids, &CommParams::ideal(), SEED);
    let outside_after: Vec<f64> = (0..MODULES)
        .filter(|i| !ids.contains(i))
        .map(|i| cluster.module(i).module_power().value())
        .collect();
    assert_eq!(outside_before, outside_after);
}

#[test]
fn naive_pins_the_critical_rank_to_the_hungriest_module_vafs_dissolves_it() {
    // The paper's thesis in one test: under a uniform cap, one specific
    // piece of silicon paces the whole synchronized application; under
    // variation-aware frequency selection, no single module dominates.
    use vap::mpi::timeline::Timeline;

    let n = 48;
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), n, 99);
    let budgeter = Budgeter::install(&mut cluster, 99);
    let ids: Vec<usize> = (0..n).collect();
    let mhd = catalog::get(WorkloadId::Mhd);
    let budget = Watts(70.0 * n as f64);
    let comm = CommParams::infiniband_fdr();
    let program = mhd.program(0.05).with_compute_noise(0.01, 99);
    let boundedness = mhd.boundedness(cluster.spec().pstates.f_max());

    let capture = |cluster: &Cluster| {
        let rates = vap::mpi::engine::rates_on(cluster, &ids, &boundedness);
        Timeline::capture(&program, &rates, &comm).1
    };

    // Naive uniform capping: the critical rank dominates and is the
    // module with the highest uncapped power draw.
    let naive = budgeter.plan(&mut cluster, SchemeId::Naive, &mhd, budget, &ids).unwrap();
    mhd.apply_to(&mut cluster, 99);
    apply_plan(&naive, &mut cluster);
    let tl = capture(&cluster);
    let critical = tl.critical_rank().expect("MHD synchronizes");
    assert!(
        tl.critical_dominance().unwrap() > 0.8,
        "one module should pace nearly every exchange under Naive"
    );
    // the critical rank is the module the uniform cap throttles deepest
    // (note: not necessarily the one that draws the most power *uncapped* —
    // leakage-heavy silicon throttles worse than dynamic-heavy silicon)
    let rates = vap::mpi::engine::rates_on(&cluster, &ids, &boundedness);
    let slowest = (0..n).min_by(|&a, &b| rates[a].partial_cmp(&rates[b]).unwrap()).unwrap();
    assert_eq!(critical, slowest, "the straggler should be the deepest-throttled module");
    cluster.uncap_all();

    // VaFs: equalized frequencies — only noise picks stragglers, so no
    // module dominates.
    let vafs = budgeter.plan(&mut cluster, SchemeId::VaFs, &mhd, budget, &ids).unwrap();
    apply_plan(&vafs, &mut cluster);
    let tl = capture(&cluster);
    assert!(
        tl.critical_dominance().unwrap() < 0.5,
        "VaFs should dissolve the critical rank, got dominance {}",
        tl.critical_dominance().unwrap()
    );
    cluster.uncap_all();
}
