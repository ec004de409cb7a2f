//! Quickstart: budget one application on a power-constrained fleet.
//!
//! Walks the full workflow of the paper's Fig. 4 on a 64-module slice of
//! HA8K: build the PVT once, plan MHD under a per-module budget with the
//! Naive baseline and both variation-aware mechanisms, execute each plan,
//! and compare.
//!
//! Run with: `cargo run --release --example quickstart`

use vap::prelude::*;

fn main() {
    const MODULES: usize = 64;
    const SEED: u64 = 42;
    let budget = Watts(80.0 * MODULES as f64); // Cm = 80 W/module

    println!("== vap quickstart: MHD on {MODULES} HA8K modules, Cm = 80 W ==\n");

    // 1. Manufacture the fleet (each module gets its silicon lottery draw).
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), MODULES, SEED);

    // 2. Install-time: generate the Power Variation Table with *STREAM.
    let budgeter = Budgeter::install(&mut cluster, SEED);
    println!(
        "PVT generated from {} over {} modules\n",
        budgeter.pvt().microbenchmark,
        budgeter.pvt().len()
    );

    // 3. A job arrives.
    let mhd = catalog::get(WorkloadId::Mhd);
    let ids: Vec<usize> = (0..MODULES).collect();
    let program = mhd.program(0.1);
    let comm = CommParams::infiniband_fdr();

    let feas = budgeter.feasibility(&mut cluster, &mhd, budget, &ids).expect("fleet is calibrated");
    println!("Feasibility at this budget: {feas} (X = constrained)\n");

    // 4. Compare schemes.
    println!(
        "{:<8} {:>10} {:>12} {:>8} {:>8} {:>10}",
        "scheme", "alpha", "makespan[s]", "Vt", "Vf", "power[W]"
    );
    let mut naive_time = None;
    for scheme in [SchemeId::Naive, SchemeId::Pc, SchemeId::VaPc, SchemeId::VaFs] {
        let plan =
            budgeter.plan(&mut cluster, scheme, &mhd, budget, &ids).expect("feasible budget");
        let report = run_region(&mut cluster, &plan, &mhd, &program, &ids, &comm, SEED);

        // re-apply briefly to inspect the frequency spread the scheme leaves
        mhd.apply_to(&mut cluster, SEED);
        apply_plan(&plan, &mut cluster);
        let freqs: Vec<f64> = cluster.effective_frequencies().iter().map(|f| f.value()).collect();
        let vf = vap::stats::worst_case_variation(&freqs).expect("non-empty fleet");
        cluster.uncap_all();

        let makespan = report.makespan().value();
        let speedup = naive_time
            .map(|t: f64| format!("  ({:.2}x vs Naive)", t / makespan))
            .unwrap_or_default();
        if scheme == SchemeId::Naive {
            naive_time = Some(makespan);
        }
        println!(
            "{:<8} {:>10.3} {:>12.1} {:>8.2} {:>8.2} {:>10.0}{speedup}",
            scheme.name(),
            plan.alpha.value(),
            makespan,
            report.run.vt().expect("timed run"),
            vf,
            report.total_power.value(),
        );
    }

    println!(
        "\nThe variation-aware schemes equalize frequency (Vf -> 1) by \
         giving power-hungry modules more power, so the synchronized \
         application stops waiting for stragglers."
    );
}
