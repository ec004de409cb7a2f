//! Extensions demo: multi-PVT selection and per-phase power reallocation.
//!
//! Both are flagged by the paper itself — §6.1 suggests "micro-benchmarks
//! with different characteristics to generate several PVTs", §7 proposes
//! "dynamic reallocation of power within ... HPC applications by analyzing
//! their phase behavior". This example exercises `vap-core`'s
//! implementations of both.
//!
//! Run with: `cargo run --release --example dynamic_phases`

use vap::core::dynamic::{per_phase_plans, MultiPvt};
use vap::core::pmt::PowerModelTable;
use vap::core::testrun::single_module_test_run;
use vap::prelude::*;

const MODULES: usize = 128;
const SEED: u64 = 99;

fn main() {
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), MODULES, SEED);
    let ids: Vec<usize> = (0..MODULES).collect();

    // --- Part 1: multi-PVT selection -------------------------------------
    println!("== Multi-PVT selection ==\n");
    let micros = vec![catalog::get(WorkloadId::Stream), catalog::get(WorkloadId::Ep)];
    let multi = MultiPvt::generate(&mut cluster, &micros, SEED);
    println!("generated {} PVTs (STREAM, EP)\n", multi.len());

    for w in [WorkloadId::Dgemm, WorkloadId::Bt, WorkloadId::Mvmc] {
        let spec = catalog::get(w);
        let (winner, err) = multi
            .select(&mut cluster, &spec, &ids, &[7, 41, 83], SEED)
            .expect("validation modules exist");
        println!(
            "{:<8} -> best PVT: {:<8} (validation error {:.2}%)",
            w.name(),
            winner.name(),
            err
        );
    }

    // --- Part 2: per-phase re-budgeting -----------------------------------
    println!("\n== Per-phase power reallocation ==\n");
    // An application alternating a DGEMM-hot phase and an mVMC-cool phase.
    let hot = catalog::get(WorkloadId::Dgemm);
    let cool = catalog::get(WorkloadId::Mvmc);
    let budget = Watts(80.0 * MODULES as f64);

    let pvt = multi.table(WorkloadId::Stream).expect("stream is in the catalog").clone();
    let t_hot = single_module_test_run(&mut cluster, 0, &hot, SEED);
    let t_cool = single_module_test_run(&mut cluster, 0, &cool, SEED);
    let pmt_hot = PowerModelTable::calibrate(&pvt, &t_hot, &ids).expect("hot calibration");
    let pmt_cool = PowerModelTable::calibrate(&pvt, &t_cool, &ids).expect("cool calibration");

    // Static plan: one α for the whole run, sized by the hot phase.
    let static_alpha = vap::core::alpha::max_alpha(budget, &pmt_hot).expect("budget is feasible");
    // Dynamic: re-solve per phase.
    let plans = per_phase_plans(budget, &[pmt_hot, pmt_cool]).expect("budget is feasible");

    println!("budget: {:.1} kW over {MODULES} modules", budget.kilowatts());
    println!(
        "static plan (worst phase):  alpha = {:.3}, f = {:.2} GHz",
        static_alpha.value(),
        plans[0].allocations[0].frequency.value()
    );
    for (name, p) in ["hot (DGEMM)", "cool (mVMC)"].iter().zip(&plans) {
        println!(
            "dynamic, {name:<12} phase:  alpha = {:.3}, f = {:.2} GHz, planned {:.1} kW",
            p.alpha.value(),
            p.allocations[0].frequency.value(),
            p.total_allocated().kilowatts(),
        );
    }
    let f_static = plans[0].allocations[0].frequency.value();
    let f_cool = plans[1].allocations[0].frequency.value();
    println!(
        "\nThe cool phase runs {:.0}% faster clocks under the same budget —\n\
         headroom a static allocation would have left stranded.",
        (f_cool / f_static - 1.0) * 100.0
    );
}
